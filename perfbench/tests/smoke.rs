//! The benchmark's own smoke test: every workload at a tiny size, untraced
//! and traced. Every metric `BENCHMARK.json` names must be printed with its
//! unit, and nothing may fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

/// `host_suite` is runnable but not part of `BENCHMARK.json` (see the
/// README); it is smoke-tested where the host backend is available.
const WORKLOADS: &[&str] = &["suite", "long_trace", "contention", "serve", "host_suite"];

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(name, unit)` of every metric listed under `section`, read from the
/// one-metric-per-line layout of `BENCHMARK.json`.
fn metrics(section: &str) -> Vec<(String, String)> {
    let json = benchmark_json();
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| {
            let field = |key: &str| {
                let rest =
                    &l[l.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5..];
                rest[..rest.find('"').expect("value closes")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Option<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_sibylfs_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    if out.status.code() == Some(3) {
        eprintln!("skipping {workload}: the host backend is unavailable here");
        return None;
    }
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Some(stdout)
}

fn check(stdout: &str, workload: &str, prefix: &str, wanted: &[(String, String)]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,"), "{workload}: {last}");
    assert!(last.contains("\"failed\":0,"), "{workload}: {last}");
    assert!(
        stdout.contains("\nmetric failed_share = 0 ratio\n"),
        "{workload}: failed_share"
    );
    for (name, unit) in wanted {
        let line = format!("\n{prefix} {name} = ");
        let at = stdout
            .find(&line)
            .unwrap_or_else(|| panic!("{workload}: no {prefix} {name}"));
        let printed = stdout[at + line.len()..].lines().next().unwrap_or_default();
        assert!(
            printed.split_whitespace().nth(1) == Some(unit.as_str()),
            "{workload}: {name} printed as {printed:?}, want unit {unit}"
        );
        let json = format!("\"{name}\":{{\"value\":");
        assert!(
            last.contains(&json),
            "{workload}: {name} missing from the result line"
        );
        assert!(
            last.contains(&format!("\"unit\":\"{unit}\"")),
            "{workload}: unit {unit}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_fails_nothing() {
    let wanted = metrics("end_to_end");
    assert!(wanted.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in WORKLOADS {
        if let Some(stdout) = run(w, "0") {
            check(&stdout, w, "metric", &wanted);
        }
    }
}

#[test]
fn traced_runs_print_every_layer_metric_and_write_a_trace() {
    let wanted = metrics("per_layer");
    assert!(wanted.len() > 30);
    for w in WORKLOADS {
        let Some(stdout) = run(w, "1") else { continue };
        check(&stdout, w, "layer", &wanted);
        let file = stdout
            .lines()
            .find_map(|l| l.strip_prefix("trace_file "))
            .unwrap_or_else(|| panic!("{w}: no trace file"));
        let trace = std::fs::read_to_string(file).expect("trace file readable");
        assert!(
            trace.starts_with("{\"traceEvents\":["),
            "{w}: not a trace-event file"
        );
        assert!(trace.contains("\"ph\":\"X\""), "{w}: no complete events");
    }
}
