//! The persistent checker pool.
//!
//! [`CheckerPool`] is a [`sibylfs_core::pool::Pool`] whose jobs check
//! traces: `sibylfs-check-{i}` threads created once, fed from a queue
//! bounded at twice the worker count, reporting into the `sibylfs_pool_*`
//! metrics. A long-lived server shares it across sessions without thread
//! churn, and a suite producer that outruns checking blocks in
//! [`submit`](CheckerPool::submit) instead of buffering traces.
//!
//! A `submit` callback runs on a worker thread. It must hand its result off
//! (e.g. into a session's reply channel) and must never `submit` to the same
//! pool: once the queue is full and every worker waits in `submit`, nothing
//! is left to drain it.
//!
//! # Shared prefixes are checked once per worker
//!
//! Generated suites are per-group fixtures followed by short tails, so
//! consecutive traces mostly share a label prefix. Each worker keeps a
//! thread-local `PrefixCache` of the last trace it checked: the trace itself
//! (moved there once checked, not copied), its verdict's steps and
//! deviations from its first 1024 labels, and up to 8 checkpoints after
//! labels among those that left exactly one tracked state (the one the trace
//! resumed at, and the most recent). The next trace resumes at the last
//! checkpoint on the prefix the two share; the steps and
//! deviations before it are copied, with line numbers from the new trace,
//! and each process's last call is replayed for diagnostics. The verdict is
//! byte-identical to [`check_trace`](crate::check_trace)'s, by test
//! (`tests/prefix_resume.rs`). The cache is dropped when the configuration
//! or options change, and it never holds more than one trace: it is not a
//! memo of verdicts.
//!
//! With several workers, jobs go to whichever worker is free, so neighbours
//! in a suite usually land on different workers: each trace resumes only
//! from the trace its own worker checked last.

use std::borrow::Borrow;
use std::cell::RefCell;

use sibylfs_core::flavor::SpecConfig;
use sibylfs_core::obs::m;
use sibylfs_core::pool::{Pool, PoolMetrics};
use sibylfs_script::Trace;

use crate::checker::{check_trace_resuming, CheckOptions, CheckedTrace, PrefixCache};

static METRICS: PoolMetrics = PoolMetrics {
    span: ("pool", "pool_job"),
    workers: &m::POOL_WORKERS,
    queue_depth: &m::POOL_QUEUE_DEPTH,
    busy_ns: &m::POOL_BUSY_NS_TOTAL,
    jobs: Some(&m::POOL_JOBS_TOTAL),
    panicked: Some(&m::POOL_JOBS_PANICKED),
    wait_ns: Some(&m::POOL_JOB_WAIT_NS),
    run_ns: Some(&m::POOL_JOB_RUN_NS),
    reorder_depth: None,
};

thread_local! {
    /// What this worker kept of the last trace it checked.
    static PREFIX: RefCell<PrefixCache> = RefCell::new(PrefixCache::default());
}

/// Check `trace` on this worker, resuming from the previous trace it checked.
fn check(
    cfg: &SpecConfig,
    trace: impl Borrow<Trace> + 'static,
    opts: CheckOptions,
) -> CheckedTrace {
    // Taken out for the check, so a check that panics leaves an empty cache.
    let mut cache = PREFIX.take();
    let checked = check_trace_resuming(cfg, trace, opts, &mut cache);
    PREFIX.set(cache);
    checked
}

/// A fixed-size pool of persistent checker threads.
pub struct CheckerPool {
    pool: Pool,
}

impl CheckerPool {
    /// Spawn a pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> CheckerPool {
        CheckerPool { pool: Pool::new("sibylfs-check", workers, &METRICS) }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Jobs accepted but not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        self.pool.queued()
    }

    /// Enqueue one trace for checking, blocking while the queue is full.
    /// `done` runs on a worker thread once the verdict is ready; jobs
    /// complete in whatever order workers finish.
    pub fn submit(
        &self,
        cfg: SpecConfig,
        trace: Trace,
        opts: CheckOptions,
        done: impl FnOnce(CheckedTrace) + Send + 'static,
    ) {
        self.pool.submit(move || done(check(&cfg, trace, opts)));
    }

    /// Check every trace and return the verdicts in input order. `traces`
    /// is pulled lazily, so it may itself be a stream (e.g. the execution
    /// pipeline's). A check that panics re-raises on the caller's thread.
    pub fn check_batch<T>(
        &self,
        cfg: &SpecConfig,
        traces: impl IntoIterator<Item = T>,
        opts: CheckOptions,
    ) -> Vec<CheckedTrace>
    where
        T: Borrow<Trace> + Send + 'static,
    {
        let cfg = *cfg;
        self.pool.ordered(traces, move |t: T| check(&cfg, t, opts)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_trace;
    use sibylfs_core::flavor::{Flavor, SpecConfig};
    use sibylfs_core::obs;
    use sibylfs_exec::{execute_script, ExecOptions};
    use sibylfs_fsimpl::configs;
    use sibylfs_testgen::{generate_suite, SuiteOptions};
    use std::sync::Arc;

    /// The pool metrics are process-wide, so tests that submit jobs run one
    /// at a time: the load test asserts exact deltas.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn quick_traces() -> Vec<Trace> {
        let profile = configs::by_name("linux/ext4").unwrap();
        generate_suite(SuiteOptions::quick())
            .iter()
            .map(|s| execute_script(&profile, s, ExecOptions::default()))
            .collect()
    }

    #[test]
    fn batch_matches_direct_checking() {
        let _serial = serial();
        let cfg = SpecConfig::standard(Flavor::Linux);
        let traces = quick_traces();
        let direct: Vec<CheckedTrace> =
            traces.iter().map(|t| check_trace(&cfg, t, CheckOptions::default())).collect();
        let pool = CheckerPool::new(4);
        let pooled = pool.check_batch(&cfg, traces, CheckOptions::default());
        assert_eq!(direct.len(), pooled.len());
        for (d, p) in direct.iter().zip(&pooled) {
            assert_eq!(d.name, p.name, "order must be preserved");
            assert_eq!(d.accepted, p.accepted);
            assert_eq!(d.deviations.len(), p.deviations.len());
        }
    }

    #[test]
    fn callbacks_fire_once_per_submit() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let _serial = serial();
        let cfg = SpecConfig::standard(Flavor::Linux);
        let traces = quick_traces();
        let n = traces.len();
        let fired = Arc::new(AtomicUsize::new(0));
        let pool = CheckerPool::new(2);
        for t in traces {
            let fired = Arc::clone(&fired);
            pool.submit(cfg, t, CheckOptions::default(), move |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // drop joins workers, draining the queue first
        assert_eq!(fired.load(Ordering::SeqCst), n);
    }

    #[test]
    fn pool_survives_a_panicking_callback() {
        let _serial = serial();
        let cfg = SpecConfig::standard(Flavor::Linux);
        let traces = quick_traces();
        let panicked0 = obs::m::POOL_JOBS_PANICKED.get();
        let pool = CheckerPool::new(2);
        let first = traces[0].clone();
        pool.submit(cfg, first, CheckOptions::default(), |_| {
            panic!("hostile callback");
        });
        // Subsequent batches still complete even though one worker died mid-job.
        let pooled = pool.check_batch(&cfg, traces, CheckOptions::default());
        assert!(!pooled.is_empty());
        // The panic is tallied, and the metrics registry is not poisoned by
        // the unwinding path: a snapshot still renders.
        assert!(
            obs::m::POOL_JOBS_PANICKED.get() > panicked0,
            "a panicking job must increment sibylfs_pool_jobs_panicked"
        );
        let snap = obs::snapshot();
        assert!(snap.counter("sibylfs_pool_jobs_panicked").unwrap() > panicked0);
        assert!(snap.render().contains("sibylfs_pool_jobs_panicked"));
    }

    /// Load test for the pool's observability: stack jobs behind a blocked
    /// worker so the queue-depth gauge must rise, release it, and verify the
    /// queue drains and both latency histograms saw every job. All assertions
    /// are on deltas or monotone values — the registry is process-global and
    /// the other pool tests run concurrently in this binary.
    #[test]
    fn pool_load_populates_queue_gauge_and_latency_histograms() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;
        let _serial = serial();

        let cfg = SpecConfig::standard(Flavor::Linux);
        let traces = quick_traces();
        // Exactly the queue bound of a one-worker pool: one more would block
        // this thread in `submit` before it could release the worker.
        let stacked = 2;
        let total = stacked + 1;

        let jobs0 = obs::m::POOL_JOBS_TOTAL.get();
        let wait0 = obs::m::POOL_JOB_WAIT_NS.count();
        let run0 = obs::m::POOL_JOB_RUN_NS.count();
        let busy0 = obs::m::POOL_BUSY_NS_TOTAL.get();

        // One worker, so every job after the first must queue behind it.
        let pool = CheckerPool::new(1);
        let fired = Arc::new(AtomicUsize::new(0));
        let (release, blocked) = mpsc::channel::<()>();
        {
            let fired = Arc::clone(&fired);
            pool.submit(cfg, traces[0].clone(), CheckOptions::default(), move |_| {
                blocked.recv().expect("release signal");
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        for t in traces.into_iter().skip(1).take(stacked) {
            let fired = Arc::clone(&fired);
            pool.submit(cfg, t, CheckOptions::default(), move |_| {
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert!(
            obs::m::POOL_QUEUE_DEPTH.high_water() >= stacked as i64,
            "queue gauge high-water {} after stacking {stacked} jobs behind a blocked worker",
            obs::m::POOL_QUEUE_DEPTH.high_water()
        );
        assert_eq!(obs::m::POOL_JOBS_TOTAL.get() - jobs0, total as u64);

        release.send(()).expect("worker is waiting");
        while fired.load(Ordering::SeqCst) < total {
            std::thread::yield_now();
        }
        assert_eq!(pool.queued(), 0, "the queue must drain once the worker is released");
        drop(pool);

        assert!(
            obs::m::POOL_JOB_WAIT_NS.count() - wait0 >= total as u64,
            "every job records a queue-wait sample"
        );
        assert!(
            obs::m::POOL_JOB_RUN_NS.count() - run0 >= total as u64,
            "every job records a run-time sample"
        );
        assert!(obs::m::POOL_BUSY_NS_TOTAL.get() > busy0, "busy time must accumulate");
        let stat = obs::m::POOL_JOB_WAIT_NS.stat();
        assert!(stat.p50 <= stat.p95 && stat.p95 <= stat.p99, "quantiles are ordered");
    }

    /// The queue is bounded at 2 × workers: with the only worker blocked, a
    /// producer submitting more than that waits in `submit` instead of
    /// growing the queue, and resumes once the worker is released.
    #[test]
    fn submit_blocks_at_the_queue_bound() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;
        use std::time::Duration;
        let _serial = serial();

        let cfg = SpecConfig::standard(Flavor::Linux);
        let opts = CheckOptions::default();
        let traces = quick_traces();
        let pool = Arc::new(CheckerPool::new(1));
        let bound = 2 * pool.workers();
        let extra = bound + 2;
        let fired = Arc::new(AtomicUsize::new(0));

        // Occupy the only worker until released.
        let (started_tx, started) = mpsc::channel::<()>();
        let (release, blocked) = mpsc::channel::<()>();
        {
            let fired = Arc::clone(&fired);
            pool.submit(cfg, traces[0].clone(), opts, move |_| {
                started_tx.send(()).expect("test is waiting");
                blocked.recv().expect("release signal");
                fired.fetch_add(1, Ordering::SeqCst);
            });
        }
        started.recv().expect("worker picked up the blocking job");

        // A helper submits bound + 2 more jobs, acknowledging each one the
        // pool accepts.
        let (accepted_tx, accepted) = mpsc::channel::<()>();
        let helper = {
            let pool = Arc::clone(&pool);
            let fired = Arc::clone(&fired);
            let more = traces[1..=extra].to_vec();
            std::thread::spawn(move || {
                for t in more {
                    let fired = Arc::clone(&fired);
                    pool.submit(cfg, t, opts, move |_| {
                        fired.fetch_add(1, Ordering::SeqCst);
                    });
                    accepted_tx.send(()).expect("test is listening");
                }
            })
        };
        for _ in 0..bound {
            accepted.recv().expect("the pool accepts jobs up to its bound");
        }
        assert_eq!(pool.queued(), bound);
        assert!(
            accepted.recv_timeout(Duration::from_millis(100)).is_err(),
            "a submit beyond the bound must block while the worker is busy"
        );
        assert_eq!(pool.queued(), bound, "the queue never exceeds its bound");

        release.send(()).expect("worker is waiting");
        helper.join().expect("helper finishes once the worker drains the queue");
        drop(pool); // the last handle: drains the queue and joins the worker
        assert_eq!(fired.load(Ordering::SeqCst), 1 + extra, "every callback fires once");
    }

    /// A batch input whose access panics, standing in for a check that
    /// panics on a worker.
    enum Input {
        Fine(Trace),
        Hostile,
    }

    impl Borrow<Trace> for Input {
        fn borrow(&self) -> &Trace {
            match self {
                Input::Fine(t) => t,
                Input::Hostile => panic!("hostile check job"),
            }
        }
    }

    #[test]
    fn check_batch_reraises_a_panicking_check_and_the_pool_stays_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let _serial = serial();
        // The body runs on its own thread, so a hang fails the test instead
        // of wedging the suite.
        let (tx, rx) = channel();
        let body = std::thread::spawn(move || {
            let cfg = SpecConfig::standard(Flavor::Linux);
            let traces = quick_traces();
            let pool = CheckerPool::new(2);
            let panicked0 = obs::m::POOL_JOBS_PANICKED.get();
            let inputs: Vec<Input> = traces
                .iter()
                .take(8)
                .enumerate()
                .map(|(i, t)| if i == 3 { Input::Hostile } else { Input::Fine(t.clone()) })
                .collect();
            let run = catch_unwind(AssertUnwindSafe(|| {
                pool.check_batch(&cfg, inputs, CheckOptions::default())
            }));
            let message = run
                .expect_err("the check's panic must reach the caller")
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default();
            let counted = obs::m::POOL_JOBS_PANICKED.get() > panicked0;
            let after = pool.check_batch(&cfg, traces, CheckOptions::default());
            tx.send((message, counted, after.len())).expect("test is waiting");
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok((message, counted, n)) => {
                body.join().expect("test body finished");
                assert_eq!(message, "hostile check job");
                assert!(counted, "a panicking job must increment sibylfs_pool_jobs_panicked");
                assert!(n > 0, "the pool must stay usable after a job panics");
            }
            Err(RecvTimeoutError::Timeout) => panic!("check_batch hung on a panicking check"),
            Err(RecvTimeoutError::Disconnected) => panic!("test body panicked"),
        }
    }
}
