//! Records how the benchmark was compiled, for the environment line of every
//! result.

fn main() {
    for var in ["PROFILE", "OPT_LEVEL", "DEBUG"] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".into());
        println!("cargo:rustc-env=PERFBENCH_{var}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
