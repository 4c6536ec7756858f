//! The one worker pool: N named threads, a bounded FIFO queue, and results
//! handed back in input order.
//!
//! Every trace fixes its own order and is checked (or executed) independently
//! of every other, so one mechanism serves the whole oracle: the checker pool
//! (`sibylfs_check::CheckerPool`, which the oracle server shares across
//! sessions) and the execution pipeline (`sibylfs_exec::ExecPipeline`) are
//! thin wrappers over [`Pool`].
//!
//! * **One queue policy.** The queue holds at most `2 × workers` jobs and
//!   [`Pool::submit`] blocks while it is full, so a producer that outruns the
//!   workers waits instead of buffering a whole suite in memory. There is no
//!   unbounded mode and no capacity knob.
//! * **Ordered delivery.** [`Pool::ordered`] maps an input iterator through
//!   the pool and yields results strictly in input order on the caller's
//!   thread, submitting lazily as it is pulled, so two ordered stages chain
//!   (execute → check) without an intermediate buffer. Each submitted input
//!   gets its own one-slot reply channel, and the caller keeps the receivers
//!   in a FIFO in input order: the next result is whatever the front
//!   receiver yields. A result that finishes early waits in its own channel
//!   (counted in the pool's reorder-depth gauge until taken or dropped), and
//!   a reply that can never arrive panics instead of ending the stream early.
//! * **Panic isolation.** A panicking job never takes its worker down. An
//!   unordered job's panic is counted and dropped; an ordered job's panic
//!   payload travels through its reply channel and is re-raised on the
//!   caller's thread when its turn comes, and the pool stays usable.
//!
//! A job must never `submit` to its own pool: with every worker blocked in
//! a full queue's `submit`, nothing would ever drain it.

use std::collections::VecDeque;
use std::iter::Fuse;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use crate::obs::{self, Counter, Gauge, GaugeHold, Histogram};

/// The [`obs::m`] statics one pool reports into. Optional hooks are the
/// metrics only some pools define.
pub struct PoolMetrics {
    /// `(category, name)` of the span wrapped around every job.
    pub span: (&'static str, &'static str),
    /// Live worker threads.
    pub workers: &'static Gauge,
    /// Jobs queued but not yet picked up.
    pub queue_depth: &'static Gauge,
    /// Total time workers spent running jobs.
    pub busy_ns: &'static Counter,
    /// Jobs accepted by `submit`.
    pub jobs: Option<&'static Counter>,
    /// Jobs that panicked.
    pub panicked: Option<&'static Counter>,
    /// Time each job waited in the queue.
    pub wait_ns: Option<&'static Histogram>,
    /// Time each job ran.
    pub run_ns: Option<&'static Histogram>,
    /// Completed results parked until every earlier input is delivered.
    pub reorder_depth: Option<&'static Gauge>,
}

type Job = Box<dyn FnOnce() + Send>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<(Job, Instant)>,
    /// Workers waiting for a job, and submitters waiting for room: a
    /// notify is only paid when someone is there to hear it.
    idle: usize,
    blocked: usize,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    work: Condvar,
    room: Condvar,
    bound: usize,
    metrics: &'static PoolMetrics,
}

/// A fixed set of worker threads over one bounded FIFO queue.
pub struct Pool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn `workers` threads (at least 1) named `{name}-{i}`.
    pub fn new(name: &str, workers: usize, metrics: &'static PoolMetrics) -> Pool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::default(),
            work: Condvar::new(),
            room: Condvar::new(),
            bound: 2 * workers,
            metrics,
        });
        let threads = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<Result<Vec<_>, _>>()
            .unwrap_or_else(|e| panic!("failed to spawn {name} worker: {e}"));
        metrics.workers.add(workers as i64);
        Pool { shared, threads }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Jobs accepted but not yet picked up by a worker (never more than
    /// `2 × workers`).
    pub fn queued(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    /// Enqueue a job, blocking while the queue is full. It runs on a worker
    /// thread; a panic inside it is counted and does not escape.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let s = &*self.shared;
        let mut q = lock(&s.queue);
        while q.jobs.len() >= s.bound {
            q.blocked += 1;
            q = s.room.wait(q).unwrap_or_else(|e| e.into_inner());
            q.blocked -= 1;
        }
        q.jobs.push_back((Box::new(job), Instant::now()));
        s.metrics.queue_depth.inc();
        if let Some(jobs) = s.metrics.jobs {
            jobs.inc();
        }
        let wake = q.idle > 0;
        drop(q);
        if wake {
            s.work.notify_one();
        }
    }

    /// Map `items` through `f` on the workers, yielding results in input
    /// order. Each pull returns the oldest input's result if it is done,
    /// and otherwise submits one more input (blocking while the queue is
    /// full) or, once the inputs run out, waits for it.
    /// If `f` panics on an input, the panic resumes on the caller's thread
    /// when that input's turn comes.
    pub fn ordered<I, F, R>(&self, items: I, f: F) -> Ordered<'_, I::IntoIter, F, R>
    where
        I: IntoIterator,
        I::Item: Send + 'static,
        F: Fn(I::Item) -> R + Send + Sync + 'static,
        R: Send + 'static,
    {
        Ordered {
            pool: self,
            items: items.into_iter().fuse(),
            f: Arc::new(f),
            pending: VecDeque::new(),
        }
    }
}

impl Drop for Pool {
    /// Let the workers drain the queue, then join them.
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.work.notify_all();
        let workers = self.threads.len() as i64;
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.metrics.workers.add(-workers);
    }
}

fn worker_loop(s: &Shared) {
    let m = s.metrics;
    loop {
        let (job, queued_at) = {
            let mut q = lock(&s.queue);
            let job = loop {
                if let Some(job) = q.jobs.pop_front() {
                    // Under the lock, so the gauge never overshoots the bound.
                    m.queue_depth.dec();
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q.idle += 1;
                q = s.work.wait(q).unwrap_or_else(|e| e.into_inner());
                q.idle -= 1;
            };
            let wake = q.blocked > 0;
            drop(q);
            if wake {
                s.room.notify_one();
            }
            job
        };
        let started = Instant::now();
        if let Some(h) = m.wait_ns {
            h.record_duration(started.duration_since(queued_at));
        }
        // Metrics are relaxed atomics, so an unwinding job cannot poison
        // them; the worker tallies the panic and moves on.
        let outcome = {
            let _span = obs::span(m.span.0, m.span.1);
            panic::catch_unwind(AssertUnwindSafe(job))
        };
        let busy = started.elapsed();
        if let Some(h) = m.run_ns {
            h.record_duration(busy);
        }
        m.busy_ns.add(u64::try_from(busy.as_nanos()).unwrap_or(u64::MAX));
        if outcome.is_err() {
            count_panic(m);
        }
    }
}

fn count_panic(m: &PoolMetrics) {
    if let Some(c) = m.panicked {
        c.inc();
    }
}

/// What one ordered job sends back: its result or panic payload, holding
/// the reorder-depth gauge until the caller takes it.
type Reply<R> = (thread::Result<R>, Option<GaugeHold>);

const LOST: &str = "an ordered job ended without sending its reply";

/// The iterator returned by [`Pool::ordered`].
pub struct Ordered<'p, I, F, R> {
    pool: &'p Pool,
    items: Fuse<I>,
    f: Arc<F>,
    /// One reply channel per submitted input, oldest first.
    pending: VecDeque<Receiver<Reply<R>>>,
}

impl<I, F, R> Ordered<'_, I, F, R>
where
    I: Iterator,
    I::Item: Send + 'static,
    F: Fn(I::Item) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    fn submit(&mut self, item: I::Item) {
        let (tx, rx) = mpsc::sync_channel(1);
        let (f, m) = (Arc::clone(&self.f), self.pool.shared.metrics);
        self.pool.submit(move || {
            let out = panic::catch_unwind(AssertUnwindSafe(|| f(item)));
            if out.is_err() {
                count_panic(m);
            }
            // The caller may have dropped the iterator; the reply then
            // drops here, releasing its gauge unit.
            let _ = tx.send((out, m.reorder_depth.map(Gauge::hold)));
        });
        self.pending.push_back(rx);
    }

    fn deliver(&mut self, (out, _parked): Reply<R>) -> R {
        self.pending.pop_front();
        out.unwrap_or_else(|p| panic::resume_unwind(p))
    }
}

impl<I, F, R> Iterator for Ordered<'_, I, F, R>
where
    I: Iterator,
    I::Item: Send + 'static,
    F: Fn(I::Item) -> R + Send + Sync + 'static,
    R: Send + 'static,
{
    type Item = R;

    fn next(&mut self) -> Option<R> {
        loop {
            if let Some(front) = self.pending.front() {
                match front.try_recv() {
                    Ok(reply) => return Some(self.deliver(reply)),
                    Err(TryRecvError::Disconnected) => panic!("{LOST}"),
                    Err(TryRecvError::Empty) => {}
                }
            }
            let Some(item) = self.items.next() else { break };
            self.submit(item);
        }
        let reply = self.pending.front()?.recv().unwrap_or_else(|_| panic!("{LOST}"));
        Some(self.deliver(reply))
    }
}

/// Lock a mutex, riding through poisoning: one panicking job must not wedge
/// every other job.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    static WORKERS: Gauge = Gauge::new();
    static QUEUED: Gauge = Gauge::new();
    static BUSY: Counter = Counter::new();
    static PANICKED: Counter = Counter::new();
    static METRICS: PoolMetrics = PoolMetrics {
        span: ("test", "pool_job"),
        workers: &WORKERS,
        queue_depth: &QUEUED,
        busy_ns: &BUSY,
        jobs: None,
        panicked: Some(&PANICKED),
        wait_ns: None,
        run_ns: None,
        reorder_depth: None,
    };

    static DEPTH: Gauge = Gauge::new();
    static DEPTH_METRICS: PoolMetrics = PoolMetrics {
        span: ("test", "pool_job"),
        workers: &WORKERS,
        queue_depth: &QUEUED,
        busy_ns: &BUSY,
        jobs: None,
        panicked: None,
        wait_ns: None,
        run_ns: None,
        reorder_depth: Some(&DEPTH),
    };

    /// Run `body` on its own thread and fail, rather than hang, if it does
    /// not finish within a minute.
    fn watchdog(body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        let body = thread::spawn(move || {
            body();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => body.join().expect("test body finished"),
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("pool hung"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("test body panicked"),
        }
    }

    #[test]
    fn ordered_results_keep_input_order_under_skewed_job_costs() {
        let pool = Pool::new("test-pool", 4, &METRICS);
        let out: Vec<usize> = pool
            .ordered(0..200usize, |i| {
                // Early inputs run longest, so workers finish out of order.
                thread::sleep(Duration::from_micros(((200 - i) % 7) as u64 * 50));
                i * 2
            })
            .collect();
        assert_eq!(out, (0..200).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(pool.ordered(Vec::<usize>::new(), |i| i).count(), 0);
    }

    #[test]
    fn ordered_panic_resumes_on_the_caller_and_the_pool_stays_usable() {
        watchdog(|| {
            let pool = Pool::new("test-pool", 2, &METRICS);
            let panicked0 = PANICKED.get();
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.ordered(0..20usize, |i| {
                    if i == 7 {
                        panic!("job {i} failed");
                    }
                    i
                })
                .collect::<Vec<_>>()
            }));
            let payload = run.expect_err("the job's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("job 7 failed"));
            assert!(PANICKED.get() > panicked0);
            let again: Vec<usize> = pool.ordered(0..20usize, |i| i + 1).collect();
            assert_eq!(again, (1..=20).collect::<Vec<_>>());
        });
    }

    #[test]
    fn unordered_panic_is_counted_and_later_jobs_run() {
        watchdog(|| {
            let pool = Pool::new("test-pool", 1, &METRICS);
            let panicked0 = PANICKED.get();
            let ran = Arc::new(AtomicUsize::new(0));
            pool.submit(|| panic!("hostile job"));
            for _ in 0..5 {
                let ran = Arc::clone(&ran);
                pool.submit(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                });
            }
            drop(pool); // drains the queue, then joins
            assert_eq!(ran.load(Ordering::SeqCst), 5);
            assert!(PANICKED.get() > panicked0);
        });
    }

    /// The reorder-depth gauge is one process-wide level: every ordered run
    /// adds the results it has parked, so concurrent runs show their sum,
    /// and the level falls back to zero however the runs end.
    #[test]
    fn reorder_depth_sums_concurrent_runs_and_returns_to_zero() {
        watchdog(|| {
            // Two workers sit on the two held head jobs; the third finishes
            // every later input, which must then park behind its head.
            let pool = Pool::new("test-pool", 3, &DEPTH_METRICS);
            let later = 2;
            thread::scope(|s| {
                let mut releases = Vec::new();
                for _ in 0..2 {
                    let (release, held) = mpsc::channel::<()>();
                    let held = Mutex::new(held);
                    let f = move |i: usize| {
                        if i == 0 {
                            lock(&held).recv().expect("released");
                        }
                        i
                    };
                    let pool = &pool;
                    s.spawn(move || {
                        let out: Vec<usize> = pool.ordered(0..=later, f).collect();
                        assert_eq!(out, (0..=later).collect::<Vec<_>>());
                    });
                    releases.push(release);
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                while DEPTH.get() != 2 * later as i64 {
                    assert!(
                        Instant::now() < deadline,
                        "reorder depth {} while two runs each park {later} results",
                        DEPTH.get()
                    );
                    thread::yield_now();
                }
                for release in releases {
                    release.send(()).expect("head job is waiting");
                }
            });
            assert_eq!(DEPTH.get(), 0, "every parked result was delivered");

            // A run dropped mid-stream releases what it had parked, and jobs
            // still in flight release theirs when their reply finds no one.
            assert_eq!(pool.ordered(0..16usize, |i| i).next(), Some(0));
            drop(pool);
            assert_eq!(DEPTH.get(), 0, "an abandoned run leaves nothing counted");
        });
    }
}
