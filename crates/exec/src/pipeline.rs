//! A streaming execution pipeline over any [`Executor`].
//!
//! [`execute_suite_on`](crate::execute_suite_on) runs one script at a time on
//! the calling thread — the right shape for a unit test, the wrong shape for
//! a suite: the host backend's per-script latency (a worker round-trip, even
//! a pooled one) serializes end-to-end, and downstream checking cannot start
//! until the whole suite has executed.
//!
//! [`ExecPipeline`] is a [`sibylfs_core::pool::Pool`] whose jobs each execute
//! one script on a `sibylfs-exec-{i}` thread. Its queue is bounded at twice
//! the worker count, so a fast producer cannot buffer an unbounded suite in
//! memory, and [`execute_stream`](ExecPipeline::execute_stream) yields traces
//! strictly in input order while later scripts are still executing (early
//! finishers wait in their own reply channels, counted in the
//! `sibylfs_exec_pipe_reorder_depth` gauge). This is what lets the CLI hand
//! trace `i` to the checker pool while scripts `i+1..` are still running,
//! with results byte-identical to the sequential path. An executor panic
//! re-raises on the caller's thread at that script's turn.
//!
//! The pipeline is backend-agnostic: the executor is shared behind an `Arc`,
//! so the sim backend (stateless per call) and the pooled host backend
//! (workers checked out per call internally) both parallelize safely. Like
//! every pool job, an executor must never submit to the pipeline running it.

use std::sync::Arc;

use sibylfs_core::obs::m;
use sibylfs_core::pool::{Pool, PoolMetrics};
use sibylfs_script::{Script, Trace};

use crate::{ExecError, ExecOptions, Executor};

static METRICS: PoolMetrics = PoolMetrics {
    span: ("exec", "pipeline_job"),
    workers: &m::EXEC_PIPE_WORKERS,
    queue_depth: &m::EXEC_PIPE_QUEUE_DEPTH,
    busy_ns: &m::EXEC_PIPE_BUSY_NS_TOTAL,
    jobs: None,
    panicked: None,
    wait_ns: None,
    run_ns: None,
    reorder_depth: Some(&m::EXEC_PIPE_REORDER_DEPTH),
};

/// A fixed-size pool of executor threads.
pub struct ExecPipeline {
    exec: Arc<dyn Executor + Send + Sync>,
    pool: Pool,
}

impl ExecPipeline {
    /// Spawn a pipeline with `workers` executor threads (clamped to at least
    /// 1) and a queue bounded at twice the worker count.
    pub fn new(exec: Arc<dyn Executor + Send + Sync>, workers: usize) -> ExecPipeline {
        ExecPipeline { exec, pool: Pool::new("sibylfs-exec", workers, &METRICS) }
    }

    /// Execute `scripts`, yielding one result per script strictly in input
    /// order. Scripts are submitted as the iterator is pulled.
    pub fn execute_stream<'a>(
        &'a self,
        scripts: &'a [Script],
        opts: ExecOptions,
    ) -> impl Iterator<Item = Result<Trace, ExecError>> + 'a {
        let exec = Arc::clone(&self.exec);
        self.pool.ordered(scripts.iter().cloned(), move |script: Script| {
            let res = exec.execute_script(&script, opts);
            m::EXEC_PIPE_SCRIPTS_TOTAL.inc();
            res
        })
    }

    /// Execute `scripts`, delivering `(index, result)` to `sink` on the
    /// calling thread strictly in input order, interleaved with submission,
    /// so the sink may block (e.g. feeding a checker pool) without stalling
    /// the executor threads beyond the queue bound.
    pub fn execute_ordered(
        &self,
        scripts: &[Script],
        opts: ExecOptions,
        mut sink: impl FnMut(usize, Result<Trace, ExecError>),
    ) {
        for (i, res) in self.execute_stream(scripts, opts).enumerate() {
            sink(i, res);
        }
    }

    /// Execute a batch and return per-script results in input order.
    pub fn execute_batch(
        &self,
        scripts: &[Script],
        opts: ExecOptions,
    ) -> Vec<Result<Trace, ExecError>> {
        self.execute_stream(scripts, opts).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_suite_on, SimExecutor};
    use sibylfs_core::commands::OsCommand;
    use sibylfs_core::flags::FileMode;
    use sibylfs_fsimpl::configs;

    fn suite(n: usize) -> Vec<Script> {
        (0..n)
            .map(|i| {
                let mut s = Script::new(format!("mkdir___pipe_{i}"), "mkdir");
                s.call(OsCommand::Mkdir(format!("/d{i}").into(), FileMode::new(0o777)))
                    .call(OsCommand::Stat(format!("/d{i}").into()));
                s
            })
            .collect()
    }

    fn sim() -> Arc<dyn Executor + Send + Sync> {
        Arc::new(SimExecutor::new(configs::by_name("linux/tmpfs").unwrap()))
    }

    #[test]
    fn batch_matches_sequential_execution_exactly() {
        let scripts = suite(37);
        let exec = SimExecutor::new(configs::by_name("linux/tmpfs").unwrap());
        let sequential = execute_suite_on(&exec, &scripts, ExecOptions::default()).unwrap();
        let pipe = ExecPipeline::new(sim(), 4);
        let piped: Vec<Trace> = pipe
            .execute_batch(&scripts, ExecOptions::default())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(piped, sequential, "pipelined traces must be byte-identical, in order");
    }

    #[test]
    fn ordered_delivery_is_strictly_in_input_order() {
        let scripts = suite(64);
        let pipe = ExecPipeline::new(sim(), 8);
        let mut seen = Vec::new();
        pipe.execute_ordered(&scripts, ExecOptions::default(), |i, res| {
            assert!(res.is_ok());
            seen.push(i);
        });
        assert_eq!(seen, (0..scripts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_queue_applies_backpressure_but_completes() {
        // One worker and a queue bound of 2: submission must block and
        // resume rather than deadlock or drop jobs.
        let scripts = suite(16);
        let pipe = ExecPipeline::new(sim(), 1);
        let results = pipe.execute_batch(&scripts, ExecOptions::default());
        assert_eq!(results.len(), 16);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    /// A buggy backend: panics on one named script, executes the rest.
    struct PanicsOn(&'static str);

    impl Executor for PanicsOn {
        fn backend_name(&self) -> &'static str {
            "sim"
        }

        fn config_name(&self) -> String {
            "linux/tmpfs".to_string()
        }

        fn execute_script(&self, script: &Script, opts: ExecOptions) -> Result<Trace, ExecError> {
            assert_ne!(script.name, self.0, "executor bug");
            SimExecutor::new(configs::by_name("linux/tmpfs").unwrap()).execute_script(script, opts)
        }
    }

    #[test]
    fn executor_panic_reaches_the_caller_and_the_pipeline_stays_usable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc::{channel, RecvTimeoutError};
        // The body runs on its own thread, so a hang fails the test instead
        // of wedging the suite.
        let (tx, rx) = channel();
        let body = std::thread::spawn(move || {
            let scripts = suite(12);
            let pipe = ExecPipeline::new(Arc::new(PanicsOn("mkdir___pipe_5")), 2);
            let run = catch_unwind(AssertUnwindSafe(|| {
                pipe.execute_batch(&scripts, ExecOptions::default())
            }));
            let message = run
                .expect_err("the executor's panic must reach the caller")
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            let after = pipe.execute_batch(&scripts[6..], ExecOptions::default());
            tx.send((message, after.len(), after.iter().all(Result::is_ok))).unwrap();
        });
        match rx.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok((message, n, all_ok)) => {
                body.join().expect("test body finished");
                assert!(message.contains("executor bug"), "payload: {message:?}");
                assert_eq!(n, 6);
                assert!(all_ok, "the pipeline must stay usable after a job panics");
            }
            Err(RecvTimeoutError::Timeout) => panic!("execute_batch hung on a panicking executor"),
            Err(RecvTimeoutError::Disconnected) => panic!("test body panicked"),
        }
    }

    #[test]
    fn pipeline_records_throughput_metrics() {
        let scripts = suite(8);
        let before = m::EXEC_PIPE_SCRIPTS_TOTAL.get();
        let pipe = ExecPipeline::new(sim(), 2);
        let _ = pipe.execute_batch(&scripts, ExecOptions::default());
        assert!(m::EXEC_PIPE_SCRIPTS_TOTAL.get() >= before + 8);
        assert!(m::EXEC_PIPE_WORKERS.high_water() >= 2);
    }
}
