//! Experiment: §7.1 — performance of suite execution and trace checking.
//!
//! The paper reports, on a four-core laptop: checking the full 21 070-trace
//! suite with 4 worker processes takes ~79 s (≈266 traces/s), while executing
//! the suite on tmpfs takes ~152 s — i.e. checking is faster than execution.
//! This binary regenerates the same rows for the reproduction: suite size,
//! execution time, checking time for 1/2/4 workers, and throughput.
//!
//! Run with `--full` for the full suite (tens of thousands of traces) or
//! without for the quick suite.

use std::sync::Arc;
use std::time::Instant;

use sibylfs_check::{CheckOptions, CheckerPool};
use sibylfs_cli::{fmt_secs, suite_from_args};
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_exec::{execute_suite_with_stats, ExecOptions};
use sibylfs_fsimpl::configs;
use sibylfs_testgen::summarize_suite;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let suite = suite_from_args(&args);
    let summary = summarize_suite(&suite);
    println!("# §7.1 Performance\n");
    println!(
        "Suite: {} scripts, {} libc calls (paper: 21 070 scripts, 46 MB of traces)\n",
        summary.total, summary.calls
    );

    // Suite execution on the tmpfs-like configuration (the paper's baseline).
    let profile = configs::by_name("linux/tmpfs").expect("registered configuration");
    let start = Instant::now();
    let (traces, exec_stats) = execute_suite_with_stats(&profile, &suite, ExecOptions::default());
    let exec_secs = start.elapsed().as_secs_f64();
    println!(
        "Test-suite execution on {}: {} ({:.0} traces/s, {:.1} MB of trace data)",
        profile.name,
        fmt_secs(exec_secs),
        traces.len() as f64 / exec_secs,
        exec_stats.trace_bytes as f64 / 1e6
    );

    // Trace checking with 1, 2 and 4 workers.
    let cfg = SpecConfig::standard(Flavor::Linux);
    let traces: Vec<Arc<_>> = traces.into_iter().map(Arc::new).collect();
    let mut check4_secs = 0.0;
    println!("\n| workers | checking time | traces/s | accepted |");
    println!("|---|---|---|---|");
    for workers in [1usize, 2, 4] {
        let pool = CheckerPool::new(workers);
        let start = Instant::now();
        let checked = pool.check_batch(&cfg, traces.iter().cloned(), CheckOptions::default());
        check4_secs = start.elapsed().as_secs_f64();
        println!(
            "| {workers} | {} | {:.0} | {}/{} |",
            fmt_secs(check4_secs),
            checked.len() as f64 / check4_secs,
            checked.iter().filter(|c| c.accepted).count(),
            checked.len()
        );
    }
    println!(
        "\nPaper reference: 79 s to check 21 070 traces with 4 workers (266 traces/s); \
         execution on tmpfs 152 s — checking a trace set takes less time than executing it."
    );
    let faster = check4_secs < exec_secs;
    println!(
        "Reproduction: checking with 4 workers is {} than execution ({} vs {}).",
        if faster { "faster" } else { "slower" },
        fmt_secs(check4_secs),
        fmt_secs(exec_secs)
    );
}
