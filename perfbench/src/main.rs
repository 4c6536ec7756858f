//! `perfbench`: the SibylFS oracle benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload through the public API of every layer, checks every
//! verdict against a known answer, and prints a report whose last line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! is split into an untraced and a traced half, the metrics are the
//! per-layer ones, and a Chrome trace-event file is written under
//! `perfbench/out/`. See `perfbench/README.md`.

mod oracle;
mod pipe;
mod report;
mod rng;
mod serve;
mod spans;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Env, Metrics, Outcome};
use workloads::{Contention, HostSuite, LongTrace, Scale, Suite, Workload};

pub const WORKLOADS: &[&str] = &["suite", "long_trace", "contention", "serve", "host_suite"];

/// Set-up runs at least this many times per run, and more (up to the
/// maximum) until it has taken [`SETUP_MIN_SECONDS`]; `setup_s` is the
/// median.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_MAX_REPEATS: usize = 100;
const SETUP_MIN_SECONDS: f64 = 0.3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--smoke" => args.scale = Scale::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Where the benchmark writes at run time: trace files and host jails.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve-child") {
        serve::child_main();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Host jails (and the host backend's availability probe) go under the
    // checkout rather than the system temp directory. No other thread
    // exists yet, so setting the variable races with nothing.
    let jails = out_dir().join("jails");
    if let Err(e) = std::fs::create_dir_all(&jails) {
        eprintln!("perfbench: cannot create {}: {e}", jails.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &jails);
    if args.workload == "host_suite" && !sibylfs_exec::host_backend_available() {
        eprintln!("perfbench: host_suite needs the host backend (root and chroot); it is unavailable here");
        return ExitCode::from(3);
    }
    let result = match args.workload.as_str() {
        "suite" => run_in_process(&args, Suite::setup),
        "long_trace" => run_in_process(&args, LongTrace::setup),
        "contention" => run_in_process(&args, Contention::setup),
        "host_suite" => run_in_process(&args, HostSuite::setup),
        "serve" => run_serve(&args),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    match result {
        Ok(outcome) => {
            outcome.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

/// Repeat set-up, keeping the last instance. Returns it with the set-up
/// times and the reference workload time around them, in seconds.
fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, (Vec<f64>, f64)), String> {
    let reference_before = sys::reference_time().as_secs_f64();
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        drop(kept.take());
        let t = Instant::now();
        let w = setup()?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(w);
    }
    let reference = (reference_before + sys::reference_time().as_secs_f64()) / 2.0;
    Ok((kept.expect("set-up ran at least once"), (times, reference)))
}

/// CPU time of this process, plus its child processes when `children`
/// (the host backend's jailed workers).
fn cpu_under_test(children: bool) -> Duration {
    let mut cpu = sys::process_cpu();
    if children {
        for pid in sys::child_pids(std::process::id()) {
            cpu += sys::pid_cpu(pid).unwrap_or_default();
        }
    }
    cpu
}

fn run_in_process<W: Workload>(
    args: &Args,
    setup: fn(u64, Scale) -> Result<W, String>,
) -> Result<Outcome, String> {
    let children = args.workload == "host_suite";
    let mut generate_ms = Vec::new();
    let (mut w, setup_times) = repeated_setup(|| {
        let w = setup(args.seed, args.scale)?;
        generate_ms.push(w.generate_ms());
        Ok(w)
    })?;
    let mut env = Env::collect();
    env.exec_workers = if matches!(args.workload.as_str(), "contention") {
        0
    } else {
        1
    };
    env.check_workers = w.checker().workers();

    let mut outcome = Outcome::new(env, setup_times);
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = report::Phase::run(&mut w, untraced_seconds, 0, children);
    if args.trace {
        spans::set_enabled(true);
        w.checker().prime();
        let traced = report::Phase::run(&mut w, args.seconds / 2.0, 1, children);
        spans::set_enabled(false);
        let spans = spans::drain();
        let cost_ratio = w.cost_ratio(&traced.tally.per_trace);
        outcome.layers = Some(report::layers_in_process(
            &untraced,
            &traced,
            &spans,
            sys::median(&generate_ms),
            cost_ratio,
        ));
        outcome.trace_file = write_trace(args, &spans);
        outcome.absorb(&traced);
    }
    outcome.absorb(&untraced);
    outcome.e2e = Some(Metrics::from_rounds(&untraced.rounds));
    for e in w.after() {
        outcome.fail(e);
    }
    Ok(outcome)
}

fn run_serve(args: &Args) -> Result<Outcome, String> {
    let (mut s, setup_times) = repeated_setup(|| serve::Serve::setup(args.seed, args.scale))?;
    s.prepare_oracle()?;
    let mut env = Env::collect();
    env.server_workers = serve::SERVER_WORKERS;
    env.connections = serve::CONNECTIONS;
    let mut outcome = Outcome::new(env, setup_times);
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = s.phase(untraced_seconds, 0);
    if args.trace {
        spans::set_enabled(true);
        let traced = s.phase(args.seconds / 2.0, 1);
        spans::set_enabled(false);
        let spans = spans::drain();
        outcome.layers = Some(report::layers_serve(&untraced, &traced, &spans));
        outcome.trace_file = write_trace(args, &spans);
        outcome.absorb_serve(&traced);
    }
    outcome.absorb_serve(&untraced);
    outcome.e2e = Some(Metrics::from_rounds(&untraced.rounds));
    Ok(outcome)
}

fn write_trace(args: &Args, spans: &[spans::Span]) -> Option<PathBuf> {
    let path = out_dir().join(format!("{}-s{}.trace.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans::chrome_json(spans)));
    match written {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            None
        }
    }
}
