//! Benchmark: trace-checking throughput (§7.1).
//!
//! The paper checks the 21 070-trace suite in ~79 s with four workers
//! (≈266 traces/s). This benchmark measures the reproduction's checking rate
//! on a fixed 400-trace slice of the suite, single-threaded and with four
//! workers. Every trace of that slice starts with the same 18-label fixture,
//! which a pool worker checks once and then resumes from. The `loadgen/1`
//! row checks the serve workload's 240 loadgen traces in generation order,
//! where no two neighbours share a label, so it prices the prefix
//! bookkeeping on traces that never resume.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use sibylfs_bench::{bench_spec, bench_traces};
use sibylfs_check::{CheckOptions, CheckerPool};
use sibylfs_exec::{execute_script, ExecOptions};
use sibylfs_fsimpl::configs;
use sibylfs_testgen::{loadgen_scripts, LoadgenOptions};

fn check_throughput(c: &mut Criterion) {
    // Shared, so each iteration hands the pool pointers rather than copies.
    let traces: Vec<Arc<_>> = bench_traces().into_iter().map(Arc::new).collect();
    let cfg = bench_spec();
    let mut group = c.benchmark_group("check_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(traces.len() as u64));
    for workers in [1usize, 4] {
        let pool = CheckerPool::new(workers);
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, _| {
            b.iter(|| pool.check_batch(&cfg, traces.iter().cloned(), CheckOptions::default()).len())
        });
    }

    let profile = configs::by_name("linux/ext4").expect("registered configuration");
    let loadgen: Vec<Arc<_>> = loadgen_scripts(LoadgenOptions { scripts: 240, ops_per_script: 8 })
        .iter()
        .map(|s| Arc::new(execute_script(&profile, s, ExecOptions::default())))
        .collect();
    group.throughput(Throughput::Elements(loadgen.len() as u64));
    let pool = CheckerPool::new(1);
    group.bench_with_input(BenchmarkId::new("loadgen", 1), &1, |b, _| {
        b.iter(|| pool.check_batch(&cfg, loadgen.iter().cloned(), CheckOptions::default()).len())
    });
    group.finish();
}

criterion_group!(benches, check_throughput);
criterion_main!(benches);
