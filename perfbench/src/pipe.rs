//! The oracle pipeline, driven through the program's public API:
//! script text → `parse_script` → `ExecPipeline` → `render_trace` →
//! `parse_trace` → `CheckerPool` → `render_checked_trace` → verdict check.
//!
//! The pool runs one worker, so jobs run one at a time in submission order.
//! That is what lets the completion callback recover each job's check time
//! without instrumenting the program: the worker's thread CPU between the end
//! of one callback and the start of the next is the next job's `check_trace`
//! (plus the pool's own pop), and its wall start is the later of its submit
//! and the previous callback's end.

use std::cell::Cell;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use sibylfs_check::{render_checked_trace, CheckOptions, CheckedTrace, CheckerPool};
use sibylfs_core::flavor::SpecConfig;
use sibylfs_exec::{ExecError, ExecOptions, ExecPipeline, Executor};
use sibylfs_script::{parse_script, parse_trace, render_trace, Script, Trace};

use crate::oracle::Verify;
use crate::spans::{self, set_n, span};
use crate::sys::thread_cpu_ns;

/// Per-job numbers the checker callback collects.
#[derive(Debug, Default, Clone)]
pub struct CheckTally {
    pub jobs: u64,
    pub labels: u64,
    pub states_peak: u64,
    pub deviations: u64,
    /// Traced phase only: worker thread CPU spent in `check_trace`.
    pub check_cpu_ns: u64,
    /// Traced phase only: submit-to-pickup time summed over jobs.
    pub pool_wait_ns: u64,
    /// Traced phase only: `(key, labels, check CPU ns)` per job.
    pub per_trace: Vec<(usize, u64, u64)>,
}

impl CheckTally {
    pub fn merge(&mut self, o: &CheckTally) {
        self.jobs += o.jobs;
        self.labels += o.labels;
        self.states_peak = self.states_peak.max(o.states_peak);
        self.deviations += o.deviations;
        self.check_cpu_ns += o.check_cpu_ns;
        self.pool_wait_ns += o.pool_wait_ns;
        self.per_trace.extend_from_slice(&o.per_trace);
    }
}

/// What the checker collected since the last [`Checker::take`].
#[derive(Debug, Default)]
pub struct Collected {
    pub failed: u64,
    pub errors: Vec<String>,
    pub latencies_ms: Vec<f64>,
    pub tally: CheckTally,
}

impl Collected {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }
}

#[derive(Default)]
struct Acc {
    completed: u64,
    got: Collected,
    /// `(wall ns, thread CPU ns)` at the end of the previous callback.
    clock: Option<(u64, u64)>,
}

struct Shared {
    acc: Mutex<Acc>,
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Acc> {
        self.acc.lock().expect("checker accumulator poisoned")
    }
}

/// A one-worker [`CheckerPool`] plus the callback that renders, verifies and
/// times every verdict.
pub struct Checker {
    pool: CheckerPool,
    cfg: SpecConfig,
    shared: Arc<Shared>,
    submitted: Cell<u64>,
}

impl Checker {
    pub fn start(cfg: SpecConfig) -> Checker {
        Checker {
            pool: CheckerPool::new(1),
            cfg,
            shared: Arc::new(Shared {
                acc: Mutex::new(Acc::default()),
                done: Condvar::new(),
            }),
            submitted: Cell::new(0),
        }
    }

    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Hand one parsed trace to the pool. `t_in` is when its input text
    /// entered the pipeline; latency runs from there to the checked verdict.
    pub fn submit(
        &self,
        key: usize,
        trace_id: u64,
        trace: Trace,
        t_in: Instant,
        verify: &Arc<dyn Verify>,
    ) {
        let shared = Arc::clone(&self.shared);
        let verify = Arc::clone(verify);
        let submit_ns = spans::now_ns();
        self.submitted.set(self.submitted.get() + 1);
        let _g = span("check.pool_submit", trace_id);
        self.pool
            .submit(self.cfg, trace, CheckOptions::default(), move |checked| {
                finish(&shared, key, trace_id, &checked, t_in, submit_ns, &*verify);
            });
    }

    /// Count a trace that failed before it reached the checker.
    pub fn fail(&self, why: String) {
        self.shared.lock().got.fail(why);
    }

    /// Block until every submitted job has been verified.
    pub fn wait_all(&self) {
        let mut acc = self.shared.lock();
        while acc.completed < self.submitted.get() {
            acc = self
                .shared
                .done
                .wait(acc)
                .expect("checker accumulator poisoned");
        }
    }

    /// Take what was collected so far (call after [`wait_all`](Self::wait_all)).
    pub fn take(&self) -> Collected {
        std::mem::take(&mut self.shared.lock().got)
    }

    /// Run one empty job so the worker's clock is set before a traced phase
    /// begins, then discard what it collected.
    pub fn prime(&self) {
        let verify: Arc<dyn Verify> = Arc::new(crate::oracle::AllAccepted);
        self.submit(
            usize::MAX,
            0,
            Trace::new("prime", "prime"),
            Instant::now(),
            &verify,
        );
        self.wait_all();
        let _ = self.take();
    }
}

fn finish(
    shared: &Shared,
    key: usize,
    trace_id: u64,
    checked: &CheckedTrace,
    t_in: Instant,
    submit_ns: u64,
    verify: &dyn Verify,
) {
    let traced = spans::enabled();
    let (cb_ns, cb_cpu) = if traced {
        (spans::now_ns(), thread_cpu_ns())
    } else {
        (0, 0)
    };
    let verdict = {
        let mut g = span("check.render", trace_id);
        let v = render_checked_trace(checked);
        set_n(&mut g, v.len());
        v
    };
    let verdict_ok = verify.verify(key, checked, &verdict);
    let latency_ms = t_in.elapsed().as_secs_f64() * 1e3;

    let mut acc = shared.lock();
    let labels = checked.steps.len() as u64;
    if traced {
        let (start_ns, cpu) = match acc.clock {
            Some((wall_end, cpu_end)) => (submit_ns.max(wall_end), cb_cpu.saturating_sub(cpu_end)),
            None => (submit_ns, 0),
        };
        spans::record("check.check_trace", trace_id, start_ns, cb_ns, cpu, labels);
        let t = &mut acc.got.tally;
        t.check_cpu_ns += cpu;
        t.pool_wait_ns += start_ns.saturating_sub(submit_ns);
        t.per_trace.push((key, labels, cpu));
    }
    let t = &mut acc.got.tally;
    t.jobs += 1;
    t.labels += labels;
    t.states_peak = t.states_peak.max(checked.max_states_tracked as u64);
    t.deviations += checked.deviations.len() as u64;
    acc.got.latencies_ms.push(latency_ms);
    if let Err(why) = verdict_ok {
        acc.got.fail(why);
    }
    acc.completed += 1;
    acc.clock = traced.then(|| (spans::now_ns(), thread_cpu_ns()));
    drop(acc);
    shared.done.notify_all();
}

/// Pipeline and executor costs the benchmark measures around the program.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecTally {
    pub scripts: u64,
    /// Traced phase only: CPU the pipeline spends outside the executor, on
    /// its worker (queue, reorder, completion) and on the submitting thread.
    pub handoff_ns: u64,
    /// Traced phase only: wall time of host executions.
    pub host_ns: u64,
}

static SCRIPTS: AtomicU64 = AtomicU64::new(0);
static HANDOFF_NS: AtomicU64 = AtomicU64::new(0);
static HOST_NS: AtomicU64 = AtomicU64::new(0);

/// Read and reset the executor tallies.
pub fn take_exec_tally() -> ExecTally {
    ExecTally {
        scripts: SCRIPTS.swap(0, Relaxed),
        handoff_ns: HANDOFF_NS.swap(0, Relaxed),
        host_ns: HOST_NS.swap(0, Relaxed),
    }
}

thread_local! {
    /// Thread CPU at the end of this executor thread's previous job.
    static LAST_EXEC_END: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Wraps the executor handed to `ExecPipeline` with a span per script.
pub struct ExecSpans {
    pub inner: Arc<dyn Executor + Send + Sync>,
    pub host: bool,
    /// Parent span (the pipeline call) and trace id of the first script;
    /// the one worker runs scripts in submission order.
    pub parent: u64,
    pub trace_base: u64,
    pub next: AtomicU64,
}

impl Executor for ExecSpans {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn config_name(&self) -> String {
        self.inner.config_name()
    }

    fn execute_script(&self, script: &Script, opts: ExecOptions) -> Result<Trace, ExecError> {
        let trace_id = self.trace_base + self.next.fetch_add(1, Relaxed);
        if !spans::enabled() {
            let res = self.inner.execute_script(script, opts);
            SCRIPTS.fetch_add(1, Relaxed);
            return res;
        }
        let cpu0 = thread_cpu_ns();
        if let Some(prev) = LAST_EXEC_END.with(Cell::get) {
            HANDOFF_NS.fetch_add(cpu0.saturating_sub(prev), Relaxed);
        }
        let name = if self.host { "exec.host" } else { "exec.sim" };
        let (start_ns, started) = (spans::now_ns(), Instant::now());
        let res = self.inner.execute_script(script, opts);
        let wall = started.elapsed();
        let calls = script.call_count() as u64;
        spans::record_child(
            name,
            trace_id,
            self.parent,
            start_ns,
            spans::now_ns(),
            thread_cpu_ns().saturating_sub(cpu0),
            calls,
        );
        SCRIPTS.fetch_add(1, Relaxed);
        if self.host {
            HOST_NS.fetch_add(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX), Relaxed);
        }
        LAST_EXEC_END.with(|c| c.set(Some(thread_cpu_ns())));
        res
    }
}

/// Called with each rendered trace's key and text.
pub type TraceTextHook<'a> = &'a dyn Fn(usize, &str);

/// One pass over `texts` through the whole pipeline on `exec`. Traces are
/// submitted to `checker` as they come out of the pipeline; the caller
/// waits for the verdicts.
pub struct Pass<'a> {
    pub checker: &'a Checker,
    pub exec: Arc<dyn Executor + Send + Sync>,
    pub host: bool,
    pub verify: Arc<dyn Verify>,
    /// Added to the text index to form the verification key.
    pub key_base: usize,
    /// Added to the text index to form the span trace id.
    pub trace_base: u64,
    /// Sees each rendered trace before it is parsed and checked.
    pub on_trace_text: Option<TraceTextHook<'a>>,
}

impl Pass<'_> {
    pub fn run(&self, texts: &[String]) {
        let traced = spans::enabled();
        let mut scripts = Vec::with_capacity(texts.len());
        let mut index = Vec::with_capacity(texts.len());
        let mut t_in = Vec::with_capacity(texts.len());
        for (i, text) in texts.iter().enumerate() {
            let t = Instant::now();
            let mut g = span("script.parse_script", self.trace_base + i as u64);
            set_n(&mut g, text.len());
            match parse_script(text) {
                Ok(s) => {
                    scripts.push(s);
                    index.push(i);
                    t_in.push(t);
                }
                Err(e) => self.checker.fail(format!("script {i}: parse error: {e:?}")),
            }
        }

        let pipe_span = span("exec.pipeline", self.trace_base);
        let exec = Arc::new(ExecSpans {
            inner: Arc::clone(&self.exec),
            host: self.host,
            parent: pipe_span.as_ref().map_or(0, spans::Guard::id),
            trace_base: self.trace_base,
            next: AtomicU64::new(0),
        });
        let pipeline = ExecPipeline::new(exec, 1);
        let main_cpu0 = if traced { thread_cpu_ns() } else { 0 };
        let mut sink_cpu = 0u64;
        pipeline.execute_ordered(&scripts, ExecOptions::default(), |j, res| {
            let c0 = if traced { thread_cpu_ns() } else { 0 };
            let i = index[j];
            let key = self.key_base + i;
            let trace_id = self.trace_base + i as u64;
            match res {
                Ok(trace) => {
                    let text = {
                        let mut g = span("script.render_trace", trace_id);
                        let t = render_trace(&trace);
                        set_n(&mut g, t.len());
                        t
                    };
                    if let Some(f) = self.on_trace_text {
                        f(key, &text);
                    }
                    let parsed = {
                        let mut g = span("script.parse_trace", trace_id);
                        set_n(&mut g, text.len());
                        parse_trace(&text)
                    };
                    match parsed {
                        Ok(tr) => self
                            .checker
                            .submit(key, trace_id, tr, t_in[j], &self.verify),
                        Err(e) => self.checker.fail(format!("trace {i}: parse error: {e:?}")),
                    }
                }
                Err(e) => self.checker.fail(format!("script {i}: {e}")),
            }
            if traced {
                sink_cpu += thread_cpu_ns().saturating_sub(c0);
            }
        });
        if traced {
            let main = thread_cpu_ns()
                .saturating_sub(main_cpu0)
                .saturating_sub(sink_cpu);
            HANDOFF_NS.fetch_add(main, Relaxed);
        }
        drop(pipeline);
        drop(pipe_span);
    }
}
