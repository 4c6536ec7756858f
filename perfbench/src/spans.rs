//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a layer of
//! the program, never inside the program. Each span has an id, a parent, a
//! trace id shared by every span of one trace or request, wall start and end,
//! and the thread CPU time it consumed. Spans stay in per-thread buffers
//! until the run ends; recording is off unless `--trace 1` was given, and
//! then a disabled [`span`] call costs one relaxed load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::atomic::AtomicU64;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::sys::thread_cpu_ns;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread, or the current round span for
    /// work handed to another thread; 0 for a root.
    pub parent: u64,
    /// Shared by all spans of one trace or request (0 when none).
    pub trace: u64,
    /// `layer.operation`, e.g. `script.parse_trace`.
    pub name: &'static str,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    /// A size attached to the span: bytes parsed, calls executed, labels
    /// checked.
    pub n: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
/// The current round span, parent of spans on threads that have none open.
static ROUND: AtomicU64 = AtomicU64::new(0);
static SINKS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Local {
    tid: u64,
    buf: Arc<Mutex<Vec<Span>>>,
    open: RefCell<Vec<u64>>,
}

thread_local! {
    static LOCAL: Local = {
        let buf = Arc::new(Mutex::new(Vec::new()));
        SINKS.lock().expect("span sink list poisoned").push(Arc::clone(&buf));
        Local { tid: NEXT_TID.fetch_add(1, Relaxed), buf, open: RefCell::new(Vec::new()) }
    };
}

pub fn set_enabled(on: bool) {
    let _ = EPOCH.get_or_init(Instant::now);
    ON.store(on, Relaxed);
}

#[inline]
pub fn enabled() -> bool {
    ON.load(Relaxed)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(Instant::now().saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Relaxed)
}

pub fn set_round(id: u64) {
    ROUND.store(id, Relaxed);
}

fn round() -> u64 {
    ROUND.load(Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start_ns: u64,
    cpu0: u64,
    n: u64,
}

impl Guard {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Open a span on this thread, or return `None` when tracing is off.
#[inline]
pub fn span(name: &'static str, trace: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    Some(open(name, trace))
}

fn open(name: &'static str, trace: u64) -> Guard {
    let id = fresh_id();
    let parent = LOCAL.with(|l| {
        let mut open = l.open.borrow_mut();
        let parent = open.last().copied().unwrap_or_else(round);
        open.push(id);
        parent
    });
    Guard {
        id,
        parent,
        trace,
        name,
        start_ns: now_ns(),
        cpu0: thread_cpu_ns(),
        n: 0,
    }
}

/// Attach a size to an open span (no-op when tracing is off).
pub fn set_n(g: &mut Option<Guard>, n: usize) {
    if let Some(g) = g {
        g.n = n as u64;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        let cpu_ns = thread_cpu_ns().saturating_sub(self.cpu0);
        let _ = LOCAL.try_with(|l| {
            l.open.borrow_mut().retain(|&id| id != self.id);
            l.buf.lock().expect("span buffer poisoned").push(Span {
                id: self.id,
                parent: self.parent,
                trace: self.trace,
                name: self.name,
                tid: l.tid,
                start_ns: self.start_ns,
                end_ns,
                cpu_ns,
                n: self.n,
            });
        });
    }
}

/// Record a span whose bounds were measured elsewhere (e.g. a check job
/// inferred from the pool's callback), on the calling thread.
pub fn record(name: &'static str, trace: u64, start_ns: u64, end_ns: u64, cpu_ns: u64, n: u64) {
    record_child(name, trace, 0, start_ns, end_ns, cpu_ns, n);
}

/// [`record`] with an explicit parent (0: the innermost open span on this
/// thread, else the current round).
pub fn record_child(
    name: &'static str,
    trace: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
    cpu_ns: u64,
    n: u64,
) {
    if !enabled() {
        return;
    }
    let _ = LOCAL.try_with(|l| {
        let parent = match parent {
            0 => l.open.borrow().last().copied().unwrap_or_else(round),
            p => p,
        };
        l.buf.lock().expect("span buffer poisoned").push(Span {
            id: fresh_id(),
            parent,
            trace,
            name,
            tid: l.tid,
            start_ns,
            end_ns,
            cpu_ns,
            n,
        });
    });
}

/// Collect and clear every thread's buffer, in start order.
pub fn drain() -> Vec<Span> {
    let sinks = SINKS.lock().expect("span sink list poisoned");
    let mut out = Vec::new();
    for buf in sinks.iter() {
        out.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    out.sort_by_key(|s| (s.start_ns, s.tid));
    out
}

/// Per-name totals of self time: a span's duration minus the part of it
/// that its children (on any thread) cover, and its CPU time minus the CPU
/// of its children on the same thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub n: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let covered = union_len(
            kids.iter().map(|k| (k.start_ns, k.end_ns)),
            s.start_ns,
            s.end_ns,
        );
        let kid_cpu: u64 = kids
            .iter()
            .filter(|k| k.tid == s.tid)
            .map(|k| k.cpu_ns)
            .sum();
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.wall_ns += s.dur_ns().saturating_sub(covered);
        e.cpu_ns += s.cpu_ns.saturating_sub(kid_cpu);
        e.n += s.n;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn union_len(intervals: impl Iterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Share of the wall time of the spans named `round` during which a leaf
/// layer span (one with no children: a call doing work, not a container
/// waiting on others) was in progress on some thread.
pub fn coverage(spans: &[Span]) -> f64 {
    let parents: std::collections::HashSet<u64> = spans.iter().map(|s| s.parent).collect();
    let layer: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name != "round" && !parents.contains(&s.id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let (mut covered, mut total) = (0u64, 0u64);
    for r in spans.iter().filter(|s| s.name == "round") {
        covered += union_len(layer.iter().copied(), r.start_ns, r.end_ns);
        total += r.dur_ns();
    }
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// Chrome trace-event JSON, the shape `sibylfs --trace-out` writes
/// (complete `"ph":"X"` events, microsecond timestamps), with the span
/// identity in `args`. Perfetto and `chrome://tracing` open it.
pub fn chrome_json(spans: &[Span]) -> String {
    let pid = std::process::id();
    let mut out = String::with_capacity(160 * (2 + spans.len()));
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let cat = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"trace\":{},\"cpu_us\":{:.3},\"n\":{}}}}}",
            s.name,
            cat,
            s.start_ns / 1000,
            s.start_ns % 1000,
            s.dur_ns() / 1000,
            s.dur_ns() % 1000,
            pid,
            s.tid,
            s.id,
            s.parent,
            s.trace,
            s.cpu_ns as f64 / 1000.0,
            s.n,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            name,
            tid: 1,
            start_ns: a,
            end_ns: b,
            cpu_ns: b - a,
            n: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(
            union_len([(0, 10), (5, 15), (20, 30)].into_iter(), 0, 100),
            25
        );
        assert_eq!(union_len([(0, 10), (5, 15)].into_iter(), 8, 12), 4);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            sp(1, 0, "round", 0, 100),
            sp(2, 1, "a", 10, 40),
            sp(3, 2, "b", 20, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"].wall_ns, 70);
        assert_eq!(t["a"].wall_ns, 20);
        assert_eq!(t["a"].cpu_ns, 20);
        assert_eq!(t["b"].wall_ns, 10);
        // Only the leaf `b` counts towards coverage.
        assert!((coverage(&spans) - 0.1).abs() < 1e-9);
    }
}
