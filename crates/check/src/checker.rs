//! The core trace-checking algorithm.
//!
//! [`check_trace`] applies each label to the set of states the system might
//! be in, starting from the initial state. The same loop can also start from
//! a checkpoint a `PrefixCache` holds: the loop state after a label that
//! left exactly one tracked state, within a trace's first 1024 labels (the
//! cache keeps 8: the one the trace resumed at and the most recent). Only
//! single-state checkpoints are taken, so multi-state sets (up to thousands
//! of states under contention) are never copied, and the one state is kept
//! rather than cloned: it is the state the next label was applied to, which
//! `apply_label` hands back instead of dropping. The checker pool resumes
//! from checkpoints; `check_trace` itself, and with it coverage collection,
//! always starts from the initial state.

use std::borrow::Borrow;
use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use sibylfs_core::commands::{ErrorOrValue, OsCommand, OsLabel};
use sibylfs_core::coverage::{self, CoverageKey, CoverageMap};
use sibylfs_core::flavor::SpecConfig;
use sibylfs_core::footprint::return_effect_of;
use sibylfs_core::obs;
use sibylfs_core::os::state_set::StateSet;
use sibylfs_core::os::trans::{
    allowed_returns, default_completion, os_trans_into, tau_close_with_sleeps, SleepSet,
};
use sibylfs_core::os::{OsState, ProcRunState};
use sibylfs_core::types::{Pid, INITIAL_PID};
use sibylfs_script::Trace;

/// Options controlling a checking run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckOptions {
    /// Whether the initial process is assumed to run with root privileges
    /// (must match how the trace was produced).
    pub root_user: bool,
    /// A safety bound on the tracked state-set size; exceeding it truncates
    /// the set and records an explicit deviation (the check is lossy from
    /// that point on, so it must never be reported as clean). The
    /// specification's careful treatment of nondeterminism keeps real sets
    /// tiny (§3), so hitting this bound indicates a checker bug.
    pub max_states: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions { root_user: true, max_states: 4096 }
    }
}

/// The label a checked step corresponds to, kept structurally: the checker's
/// inner loop no longer renders labels to text (that cost is paid only at the
/// output boundary, via `Display`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepLabel {
    /// A label observed in the trace.
    Observed(OsLabel),
    /// A step synthesised by the checker itself (e.g. the state-set safety
    /// bound being hit), described by fixed text.
    Synthetic(&'static str),
}

impl std::fmt::Display for StepLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepLabel::Observed(label) => label.fmt(f),
            StepLabel::Synthetic(text) => f.write_str(text),
        }
    }
}

/// The kind of label a checked step corresponds to, recorded structurally so
/// consumers never have to parse the rendered label text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StepKind {
    /// An `OS_CALL` label.
    Call,
    /// An `OS_RETURN` label.
    Return,
    /// An internal τ label.
    Tau,
    /// A process-creation label.
    Create,
    /// A process-destruction label.
    Destroy,
    /// A step synthesised by the checker itself (e.g. the state-set safety
    /// bound being hit), not present in the original trace.
    Internal,
}

impl StepKind {
    fn of_label(label: &OsLabel) -> StepKind {
        match label {
            OsLabel::Call(..) => StepKind::Call,
            OsLabel::Return(..) => StepKind::Return,
            OsLabel::Tau => StepKind::Tau,
            OsLabel::Create(..) => StepKind::Create,
            OsLabel::Destroy(..) => StepKind::Destroy,
        }
    }
}

/// The verdict on a single trace step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepVerdict {
    /// The step is allowed by the model.
    Ok,
    /// The step is not allowed; the checker recovered and continued.
    Deviation {
        /// What the real system returned (or did).
        observed: String,
        /// What the model would have allowed at this point.
        allowed: Vec<String>,
        /// The completion the checker assumed in order to continue.
        continued_with: Option<String>,
    },
    /// The tracked state set exceeded [`CheckOptions::max_states`] and was
    /// truncated: the remainder of the check is lossy (states the real system
    /// might be in were dropped), so the trace cannot be reported clean.
    StateSetBounded {
        /// How many states were tracked when the bound was hit.
        tracked: usize,
        /// The configured bound the set was truncated to.
        bound: usize,
    },
}

/// A checked trace step: the original label plus the verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckedStep {
    /// Line number in the original trace.
    pub lineno: usize,
    /// The label that was checked (structural; render with `Display`).
    pub label: StepLabel,
    /// The structural kind of the label.
    pub kind: StepKind,
    /// The verdict.
    pub verdict: StepVerdict,
    /// Size of the tracked state set after this step (residual
    /// nondeterminism at this point of the trace).
    pub states_tracked: usize,
}

/// A deviation record extracted from a checked trace, used by the survey and
/// acceptance reports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Deviation {
    /// Line number of the offending return in the trace.
    pub lineno: usize,
    /// The libc function involved.
    pub function: String,
    /// The full call (rendered), for context.
    pub call: String,
    /// What the implementation returned (rendered).
    pub observed: String,
    /// What the specification allowed (rendered).
    pub allowed: Vec<String>,
}

/// The result of checking one trace against the model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckedTrace {
    /// The script/trace name.
    pub name: String,
    /// The libc function group of the originating script.
    pub group: String,
    /// Whether every step was allowed by the model.
    pub accepted: bool,
    /// Per-step verdicts.
    pub steps: Vec<CheckedStep>,
    /// The deviations found (empty iff `accepted`).
    pub deviations: Vec<Deviation>,
    /// The largest state set tracked while checking (a measure of residual
    /// nondeterminism; reported by the checker-internals benchmark).
    pub max_states_tracked: usize,
}

impl CheckedTrace {
    /// The number of `OS_CALL` steps checked.
    pub fn calls_checked(&self) -> usize {
        self.steps.iter().filter(|s| s.kind == StepKind::Call).count()
    }
}

/// Check a single trace against the model configured by `cfg`.
///
/// Every label is checked from the initial state: this is the reference the
/// prefix-resuming checker of [`crate::pool`] is tested against.
pub fn check_trace(cfg: &SpecConfig, trace: &Trace, opts: CheckOptions) -> CheckedTrace {
    check_labels(cfg, trace, opts, None)
}

/// [`check_trace`], resumed at the last checkpoint `cache` holds on the label
/// prefix `trace` shares with the previous trace checked through it. `cache`
/// then holds `trace` and its checkpoints.
pub(crate) fn check_trace_resuming<T: Borrow<Trace> + 'static>(
    cfg: &SpecConfig,
    trace: T,
    opts: CheckOptions,
    cache: &mut PrefixCache,
) -> CheckedTrace {
    let checked = check_labels(cfg, trace.borrow(), opts, Some(cache));
    cache.trace = Some(Box::new(trace));
    checked
}

/// The label of the step that records a `max_states` truncation.
const BOUND_STEP: &str = "<state-set safety bound exceeded; set truncated>";

/// Checkpoints are taken only after one of a trace's first this many labels,
/// which bounds the steps a [`PrefixCache`] keeps.
const CHECKPOINT_LABELS: usize = 1024;

/// How many checkpoints a [`PrefixCache`] keeps. Each pins its own version of
/// every object changed after it (a write copies the whole file), so keeping
/// them all would hold memory quadratic in a trace's writes, and dropping
/// them costs a trace that resumes nothing. A suite trace is its group's
/// fixture plus a short tail, so the next trace usually resumes at the
/// checkpoint this one resumed at, or at one near its end: those are kept.
const CHECKPOINTS_KEPT: usize = 8;

/// What a checker keeps of the last trace it checked, so that the next trace
/// can skip the label prefix the two share.
///
/// A checkpoint is the loop state after a label that left exactly one
/// tracked state, never a multi-state set; [`CHECKPOINTS_KEPT`] of them are
/// kept. Its state is the one the next label was applied to, kept instead of
/// dropped, so taking a checkpoint clones no state. Resuming at one is exact
/// because checking is a pure function of the configuration, the options and
/// the labels: the steps and deviations recorded before it are the ones the
/// new trace would produce, except for their line numbers, which are taken
/// from the new trace.
#[derive(Default)]
pub(crate) struct PrefixCache {
    /// The configuration and options the cached trace was checked under.
    key: Option<(SpecConfig, CheckOptions)>,
    /// The cached trace itself, moved here rather than copied.
    trace: Option<Box<dyn Borrow<Trace>>>,
    /// Its steps and deviations from its first [`CHECKPOINT_LABELS`] labels.
    steps: Vec<CachedStep>,
    deviations: Vec<(usize, Deviation)>,
    /// The cached trace's first checkpoint (the one it resumed at, if any)
    /// and its most recent ones, in label order.
    first: Option<Checkpoint>,
    recent: VecDeque<Checkpoint>,
}

/// A checked step without its label and line number, which are taken from
/// the trace that reuses it.
struct CachedStep {
    /// The index of the label the step checked.
    label: usize,
    kind: StepKind,
    verdict: StepVerdict,
    states_tracked: usize,
}

/// The loop state after `at.labels` labels, when one state was left.
struct Checkpoint {
    at: Mark,
    state: OsState,
}

/// What a checkpoint keeps besides its state, taken before the next label is
/// applied to that state.
struct Mark {
    labels: usize,
    sleep: SleepSet,
    steps: usize,
    deviations: usize,
    max_states: usize,
}

impl PrefixCache {
    /// The progress at the last checkpoint on the label prefix `trace`
    /// shares with the cached trace, and that checkpoint's label count.
    /// Everything cached past it is dropped, and so is the whole cache when
    /// `key` differs from the cached trace's.
    fn resume(
        &mut self,
        key: (SpecConfig, CheckOptions),
        trace: &Trace,
    ) -> Option<(usize, Progress)> {
        if self.key != Some(key) {
            *self = PrefixCache { key: Some(key), ..PrefixCache::default() };
            return None;
        }
        let boxed = self.trace.take()?;
        let cached: &Trace = (*boxed).borrow();
        let shared = cached
            .steps
            .iter()
            .zip(&trace.steps)
            .take(CHECKPOINT_LABELS)
            .take_while(|(cached, step)| cached.label == step.label)
            .count();
        // The checkpoint resumed at is taken out: checking the next label
        // records it again, with the state moved back. The others go.
        let resumed = match self.recent.iter().rposition(|c| c.at.labels <= shared) {
            Some(j) => self.recent.remove(j),
            None => self.first.take().filter(|c| c.at.labels <= shared),
        };
        self.first = None;
        self.recent.clear();
        let (steps, deviations) =
            resumed.as_ref().map_or((0, 0), |c| (c.at.steps, c.at.deviations));
        self.steps.truncate(steps);
        self.deviations.truncate(deviations);
        let Checkpoint { at, state } = resumed?;

        let steps: Vec<CheckedStep> = self
            .steps
            .iter()
            .map(|s| CheckedStep {
                lineno: trace.steps[s.label].lineno,
                label: match s.kind {
                    StepKind::Internal => StepLabel::Synthetic(BOUND_STEP),
                    _ => StepLabel::Observed(trace.steps[s.label].label.clone()),
                },
                kind: s.kind,
                verdict: s.verdict.clone(),
                states_tracked: s.states_tracked,
            })
            .collect();
        let deviations = self
            .deviations
            .iter()
            .map(|(i, d)| Deviation { lineno: trace.steps[*i].lineno, ..d.clone() })
            .collect();
        let truncations = steps.iter().filter(|s| s.kind == StepKind::Internal).count();
        obs::m::CHECK_TRUNCATIONS_TOTAL.add(truncations as u64);
        obs::m::CHECK_LABELS_RESUMED_TOTAL.add(at.labels as u64);
        let mut last_call = Vec::new();
        for step in &trace.steps[..at.labels] {
            note_call(&mut last_call, &step.label);
        }
        let progress = Progress {
            states: StateSet::singleton(state),
            sleeps: vec![at.sleep],
            steps,
            deviations,
            max_states: at.max_states,
            last_call,
        };
        Some((at.labels, progress))
    }

    /// Add a checkpoint, keeping the trace's first one (the one it resumed
    /// at, if any) and the most recent ones.
    fn keep(&mut self, checkpoint: Checkpoint) {
        if self.first.is_none() {
            self.first = Some(checkpoint);
            return;
        }
        if self.recent.len() + 1 == CHECKPOINTS_KEPT {
            self.recent.pop_front();
        }
        self.recent.push_back(checkpoint);
    }

    /// Record the steps and deviations label `i` added to `p`; `steps` and
    /// `deviations` are their counts before the label.
    fn record(&mut self, i: usize, p: &Progress, steps: usize, deviations: usize) {
        if i < CHECKPOINT_LABELS {
            self.steps.extend(p.steps[steps..].iter().map(|s| CachedStep {
                label: i,
                kind: s.kind,
                verdict: s.verdict.clone(),
                states_tracked: s.states_tracked,
            }));
            self.deviations.extend(p.deviations[deviations..].iter().map(|d| (i, d.clone())));
        }
    }
}

/// The checker's loop state between two labels.
struct Progress {
    states: StateSet,
    /// Per-state sleep sets, parallel to `states` (see `trans::SleepSet`).
    /// All-empty unless POR is active; empty sleep sets make every POR branch
    /// a no-op, so Off mode follows the exact pre-POR code path.
    sleeps: Vec<SleepSet>,
    steps: Vec<CheckedStep>,
    deviations: Vec<Deviation>,
    max_states: usize,
    /// The last call made by each process, for diagnostics.
    last_call: Vec<(Pid, OsCommand)>,
}

impl Progress {
    /// The mark of a checkpoint after `labels` labels, if one is due: exactly
    /// one state is tracked, and `labels` lies in the checkpointed prefix.
    fn mark(&self, labels: usize) -> Option<Mark> {
        if self.states.len() != 1 || !(1..=CHECKPOINT_LABELS).contains(&labels) {
            return None;
        }
        Some(Mark {
            labels,
            sleep: self.sleeps.first().cloned().unwrap_or_default(),
            steps: self.steps.len(),
            deviations: self.deviations.len(),
            max_states: self.max_states,
        })
    }
}

fn note_call(last_call: &mut Vec<(Pid, OsCommand)>, label: &OsLabel) {
    if let OsLabel::Call(pid, cmd) = label {
        last_call.retain(|(p, _)| p != pid);
        last_call.push((*pid, cmd.clone()));
    }
}

/// Check `trace`, resuming from `cache` and recording into it if given;
/// without a cache, every label is checked and nothing is recorded.
fn check_labels(
    cfg: &SpecConfig,
    trace: &Trace,
    opts: CheckOptions,
    mut cache: Option<&mut PrefixCache>,
) -> CheckedTrace {
    let _span = obs::span("check", "check_trace");
    let started = std::time::Instant::now();
    // Dedup hits are tallied locally per trace and flushed once below: the
    // insert path is too hot for shared atomics (see `StateSet::take_dedup_hits`).
    let mut dedup_hits: u64 = 0;
    let init_cfg = SpecConfig { root_user: opts.root_user, ..*cfg };
    let initial = || StateSet::singleton(OsState::initial_with_process(&init_cfg, INITIAL_PID));
    let (resumed, mut p) =
        cache.as_deref_mut().and_then(|c| c.resume((*cfg, opts), trace)).unwrap_or_else(|| {
            let states = initial();
            let progress = Progress {
                max_states: states.len(),
                states,
                sleeps: vec![SleepSet::new()],
                steps: Vec::new(),
                deviations: Vec::new(),
                last_call: Vec::new(),
            };
            (0, progress)
        });

    for (i, step) in trace.steps.iter().enumerate().skip(resumed) {
        let label = &step.label;
        note_call(&mut p.last_call, label);
        let (steps_before, deviations_before) = (p.steps.len(), p.deviations.len());
        let mark = cache.as_ref().and_then(|_| p.mark(i));

        let states = std::mem::take(&mut p.states);
        let sleeps = std::mem::take(&mut p.sleeps);
        let (next, next_sleeps, verdict, spent) = apply_label(cfg, states, sleeps, label);
        if let (Some(cache), Some(at)) = (cache.as_deref_mut(), mark) {
            // The set this label was applied to starts with the checkpoint's
            // state. When it was not handed back, it is the next set, which
            // still starts with that state.
            let state = match spent {
                Some(spent) => spent.into_states().into_iter().next(),
                None => next.get(0).cloned(),
            };
            if let Some(state) = state {
                cache.keep(Checkpoint { at, state });
            }
        }
        match &verdict {
            StepVerdict::Ok => {}
            // Only the bound-handling block below constructs this variant.
            StepVerdict::StateSetBounded { .. } => {
                unreachable!("apply_label never returns StateSetBounded")
            }
            StepVerdict::Deviation { observed, allowed, .. } => {
                let (function, call) = label
                    .pid()
                    .and_then(|pid| p.last_call.iter().find(|(q, _)| *q == pid))
                    .map(|(_, c)| (c.name().to_string(), c.to_string()))
                    .unwrap_or_else(|| ("<unknown>".to_string(), String::new()));
                p.deviations.push(Deviation {
                    lineno: step.lineno,
                    function,
                    call,
                    observed: observed.clone(),
                    allowed: allowed.clone(),
                });
            }
        }
        p.states = next;
        p.sleeps = next_sleeps;
        dedup_hits += p.states.take_dedup_hits();
        p.max_states = p.max_states.max(p.states.len());
        p.steps.push(CheckedStep {
            lineno: step.lineno,
            label: StepLabel::Observed(label.clone()),
            kind: StepKind::of_label(label),
            verdict,
            states_tracked: p.states.len(),
        });
        if p.states.len() > opts.max_states {
            // The remainder of the check is lossy: record it loudly so the
            // trace is never reported clean.
            let tracked = p.states.len();
            obs::m::CHECK_TRUNCATIONS_TOTAL.inc();
            p.states.truncate(opts.max_states);
            p.sleeps.truncate(opts.max_states);
            // Truncation may have dropped the sibling states that justified a
            // survivor's sleep entries; wake everything to stay sound.
            for s in &mut p.sleeps {
                s.clear();
            }
            p.deviations.push(Deviation {
                lineno: step.lineno,
                function: "<checker>".to_string(),
                call: "<state-set safety bound>".to_string(),
                observed: format!("{tracked} states tracked"),
                allowed: vec![format!(
                    "at most {} states (CheckOptions::max_states)",
                    opts.max_states
                )],
            });
            p.steps.push(CheckedStep {
                lineno: step.lineno,
                label: StepLabel::Synthetic(BOUND_STEP),
                kind: StepKind::Internal,
                verdict: StepVerdict::StateSetBounded { tracked, bound: opts.max_states },
                states_tracked: p.states.len(),
            });
        }
        if p.states.is_empty() {
            // Unrecoverable (should not happen: recovery always yields at
            // least one state); restart from a fresh state to keep going.
            p.states = initial();
            p.sleeps = vec![SleepSet::new()];
        }
        if let Some(cache) = cache.as_deref_mut() {
            cache.record(i, &p, steps_before, deviations_before);
        }
    }
    // The last label's checkpoint has no next label to hand its state back.
    if let Some(cache) = cache {
        if let (Some(at), Some(state)) = (p.mark(trace.steps.len()), p.states.get(0)) {
            cache.keep(Checkpoint { at, state: state.clone() });
        }
    }

    obs::m::CHECK_TRACES_TOTAL.inc();
    obs::m::CHECK_DEVIATIONS_TOTAL.add(p.deviations.len() as u64);
    obs::m::STATE_DEDUP_HITS_TOTAL.add(dedup_hits);
    obs::m::CHECK_TRACE_NS.record_duration(started.elapsed());

    CheckedTrace {
        name: trace.name.clone(),
        group: trace.group.clone(),
        accepted: p.deviations.is_empty(),
        steps: p.steps,
        deviations: p.deviations,
        max_states_tracked: p.max_states,
    }
}

/// Check a trace and record the model coverage exercised while doing so.
///
/// Coverage has two key families (see [`sibylfs_core::coverage`]): the
/// specification branches (`spec_point`s) evaluated during this check,
/// collected through the thread-scoped collector so concurrent exploration
/// workers do not pollute each other, and the `(syscall, outcome)` transitions
/// observed in the trace itself. Checking runs entirely on the calling
/// thread, which is what makes the scoped collection sound.
pub fn check_trace_with_coverage(
    cfg: &SpecConfig,
    trace: &Trace,
    opts: CheckOptions,
) -> (CheckedTrace, CoverageMap) {
    coverage::scoped_begin();
    let checked = check_trace(cfg, trace, opts);
    let mut map = CoverageMap::new();
    for point in coverage::scoped_end() {
        map.insert(CoverageKey::Branch(point));
    }
    // Pair each return with the call in flight for its process.
    let mut pending: Vec<(Pid, &'static str)> = Vec::new();
    for step in &trace.steps {
        match &step.label {
            OsLabel::Call(pid, cmd) => {
                pending.retain(|(p, _)| p != pid);
                pending.push((*pid, cmd.name()));
            }
            OsLabel::Return(pid, ret) => {
                if let Some(pos) = pending.iter().position(|(p, _)| p == pid) {
                    let (_, syscall) = pending.remove(pos);
                    map.insert(CoverageKey::Transition {
                        syscall: syscall.to_string(),
                        outcome: coverage::outcome_name(ret),
                    });
                }
            }
            _ => {}
        }
    }
    (checked, map)
}

/// Apply one label to the tracked state set, producing the next set, its
/// per-state sleep sets, and the verdict for this step. Takes the set by
/// value: conformant paths hand back the transition union, deviation paths
/// hand back a recovered set (or the input set unchanged). The input set is
/// handed back too, when it is not the next set; its first state is still
/// the one the label was applied to.
fn apply_label(
    cfg: &SpecConfig,
    mut states: StateSet,
    mut sleeps: Vec<SleepSet>,
    label: &OsLabel,
) -> (StateSet, Vec<SleepSet>, StepVerdict, Option<StateSet>) {
    sleeps.resize(states.len(), SleepSet::new());
    match label {
        OsLabel::Call(..) | OsLabel::Create(..) | OsLabel::Destroy(..) => {
            // These labels never touch the filesystem or a sleeping process
            // (a sleeping process is mid-call, so `Call`/`Destroy` on it are
            // rejected by the transition function), so successors inherit
            // their source state's sleep set unchanged.
            let (next, next_sleeps) = union_trans(cfg, &states, &sleeps, label);
            if next.is_empty() {
                // e.g. a call from an unknown process, or a call while one is
                // already in flight: recover by ignoring the label.
                let verdict = StepVerdict::Deviation {
                    observed: label.to_string(),
                    allowed: vec!["<no such transition from any tracked state>".to_string()],
                    continued_with: None,
                };
                (states, sleeps, verdict, None)
            } else {
                (next, next_sleeps, StepVerdict::Ok, Some(states))
            }
        }
        OsLabel::Tau => {
            tau_close_with_sleeps(cfg, &mut states, &mut sleeps);
            (states, sleeps, StepVerdict::Ok, None)
        }
        OsLabel::Return(pid, observed) => {
            // Close under internal steps so calls from other processes may be
            // processed in any order before this return is matched.
            tau_close_with_sleeps(cfg, &mut states, &mut sleeps);
            let (next, next_sleeps) = union_returns(cfg, &states, &sleeps, *pid, label);
            if !next.is_empty() {
                return (next, next_sleeps, StepVerdict::Ok, Some(states));
            }
            // Non-conformant: collect the allowed returns for diagnostics and
            // continue from the model's own completions (Fig. 4).
            let mut allowed: Vec<String> = Vec::new();
            for st in &states {
                for a in allowed_returns(st, *pid) {
                    if !allowed.contains(&a) {
                        allowed.push(a);
                    }
                }
            }
            let mut recovered = StateSet::new();
            let mut continued_with = None;
            for st in &states {
                if let Some((value, next_st)) = default_completion(st, *pid) {
                    if continued_with.is_none() {
                        continued_with = Some(value.to_string());
                    }
                    recovered.insert(next_st);
                }
            }
            if recovered.is_empty() {
                // Last resort: mark the process ready again in every state so
                // subsequent steps can still be checked.
                for st in &states {
                    let mut st = st.clone();
                    if let Some(p) = st.proc_mut(*pid) {
                        p.run_state = ProcRunState::Ready;
                    }
                    recovered.insert(st);
                }
            }
            let verdict = StepVerdict::Deviation {
                observed: render_observed(observed),
                allowed,
                continued_with,
            };
            // Recovery synthesises states the POR bookkeeping knows nothing
            // about; wake everything rather than carry stale sleep entries.
            let recovered_sleeps = vec![SleepSet::new(); recovered.len()];
            (recovered, recovered_sleeps, verdict, Some(states))
        }
    }
}

fn render_observed(v: &ErrorOrValue) -> String {
    v.to_string()
}

/// Insert each successor into `out`, giving fresh states a copy of the source
/// state's sleep set. A successor reached from several sources may only sleep
/// what every source lets it sleep, so duplicates intersect (by pid).
/// Successors are consumed by value — cloning would reset their cached
/// fingerprints and make `insert_full` recompute them.
fn merge_successors(
    out: &mut StateSet,
    out_sleeps: &mut Vec<SleepSet>,
    succs: StateSet,
    sleep: &SleepSet,
) {
    for succ in succs {
        let (j, fresh) = out.insert_full(succ);
        if fresh {
            out_sleeps.push(sleep.clone());
        } else {
            out_sleeps[j].retain(|(q, _)| sleep.iter().any(|(q2, _)| q2 == q));
        }
    }
}

/// The union of `os_trans` over every tracked state, with sleep inheritance.
/// The per-state scratch set preserves the same overall insertion order as a
/// shared sink, so Off-mode results are identical to the pre-POR checker.
fn union_trans(
    cfg: &SpecConfig,
    states: &StateSet,
    sleeps: &[SleepSet],
    label: &OsLabel,
) -> (StateSet, Vec<SleepSet>) {
    let mut out = StateSet::new();
    let mut out_sleeps: Vec<SleepSet> = Vec::new();
    static EMPTY: SleepSet = SleepSet::new();
    for (i, st) in states.iter().enumerate() {
        let mut tmp = StateSet::new();
        os_trans_into(cfg, st, label, &mut tmp);
        if tmp.is_empty() {
            continue;
        }
        merge_successors(&mut out, &mut out_sleeps, tmp, sleeps.get(i).unwrap_or(&EMPTY));
    }
    (out, out_sleeps)
}

/// The union of the `Return(pid, _)` transition over every tracked state.
///
/// Two POR rules live here. A state where `pid` sleeps is skipped outright:
/// by the sleep-set invariant the interleaving that processes `pid`'s call
/// first is represented by a sibling state, and matching the return here
/// would resurrect the pruned orderings. And a return can have effects the
/// τ step did not (a `write` applies its data at return time), so surviving
/// sleep entries are woken unless they commute with the return's effect
/// footprint.
fn union_returns(
    cfg: &SpecConfig,
    states: &StateSet,
    sleeps: &[SleepSet],
    pid: Pid,
    label: &OsLabel,
) -> (StateSet, Vec<SleepSet>) {
    let mut out = StateSet::new();
    let mut out_sleeps: Vec<SleepSet> = Vec::new();
    for (i, st) in states.iter().enumerate() {
        let src = sleeps.get(i);
        if src.is_some_and(|s| s.iter().any(|(q, _)| *q == pid)) {
            continue;
        }
        let mut tmp = StateSet::new();
        os_trans_into(cfg, st, label, &mut tmp);
        if tmp.is_empty() {
            continue;
        }
        let mut inherited = src.cloned().unwrap_or_default();
        if !inherited.is_empty() {
            if let Some(eff) = return_effect_of(cfg, st, pid) {
                inherited.retain(|(_, qfp)| eff.commutes(qfp));
            }
        }
        merge_successors(&mut out, &mut out_sleeps, tmp, &inherited);
    }
    (out, out_sleeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibylfs_core::commands::{OsCommand, RetValue};
    use sibylfs_core::errno::Errno;
    use sibylfs_core::flags::{FileMode, OpenFlags};
    use sibylfs_core::flavor::Flavor;
    use sibylfs_core::types::Fd;

    fn cfg() -> SpecConfig {
        SpecConfig::standard(Flavor::Linux)
    }

    fn trace_of(pairs: Vec<(OsCommand, ErrorOrValue)>) -> Trace {
        let mut t = Trace::new("test", "test");
        for (cmd, ret) in pairs {
            t.push_call_return(INITIAL_PID, cmd, ret);
        }
        t
    }

    #[test]
    fn conformant_trace_is_accepted() {
        let t = trace_of(vec![
            (OsCommand::Mkdir("/d".into(), FileMode::new(0o777)), ErrorOrValue::Value(RetValue::None)),
            (OsCommand::Stat("/missing".into()), ErrorOrValue::Error(Errno::ENOENT)),
            (
                OsCommand::Open("/d/f".into(), OpenFlags::O_CREAT | OpenFlags::O_RDWR, Some(FileMode::new(0o644))),
                ErrorOrValue::Value(RetValue::Fd(Fd(3))),
            ),
            (OsCommand::Write(Fd(3), b"hello".to_vec()), ErrorOrValue::Value(RetValue::Num(5))),
            (OsCommand::Close(Fd(3)), ErrorOrValue::Value(RetValue::None)),
        ]);
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(checked.accepted, "{:?}", checked.deviations);
        assert_eq!(checked.calls_checked(), 5);
        assert!(checked.max_states_tracked >= 1);
    }

    #[test]
    fn wrong_errno_is_flagged_with_diagnostics_and_checking_continues() {
        let t = trace_of(vec![
            (OsCommand::Mkdir("/d".into(), FileMode::new(0o777)), ErrorOrValue::Value(RetValue::None)),
            // EPERM is not allowed for a plain mkdir of a fresh directory…
            (OsCommand::Mkdir("/e".into(), FileMode::new(0o777)), ErrorOrValue::Error(Errno::EPERM)),
            // …but checking continues: the recovered state has /e created, so
            // this stat of /e must be accepted.
            (OsCommand::Rmdir("/e".into()), ErrorOrValue::Value(RetValue::None)),
        ]);
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(!checked.accepted);
        assert_eq!(checked.deviations.len(), 1);
        assert_eq!(checked.deviations[0].function, "mkdir");
        assert_eq!(checked.deviations[0].observed, "EPERM");
        // The third call is checked against the recovered (successful) state.
        assert!(matches!(checked.steps[5].verdict, StepVerdict::Ok));
    }

    #[test]
    fn wrong_success_value_is_flagged() {
        let t = trace_of(vec![
            // umask returns the *previous* mask (0o022), not the new one.
            (OsCommand::Umask(FileMode::new(0o077)), ErrorOrValue::Value(RetValue::Num(0o077))),
        ]);
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(!checked.accepted);
        assert!(checked.deviations[0].allowed.iter().any(|a| a.contains("18")));
    }

    #[test]
    fn flavor_differences_change_acceptance() {
        // unlink of a directory returning EISDIR: fine on Linux, a deviation
        // under the OS X model.
        let t = trace_of(vec![
            (OsCommand::Mkdir("/d".into(), FileMode::new(0o777)), ErrorOrValue::Value(RetValue::None)),
            (OsCommand::Unlink("/d".into()), ErrorOrValue::Error(Errno::EISDIR)),
        ]);
        let linux = check_trace(&SpecConfig::standard(Flavor::Linux), &t, CheckOptions::default());
        assert!(linux.accepted);
        let mac = check_trace(&SpecConfig::standard(Flavor::Mac), &t, CheckOptions::default());
        assert!(!mac.accepted);
        // The POSIX envelope accepts both.
        let posix = check_trace(&SpecConfig::standard(Flavor::Posix), &t, CheckOptions::default());
        assert!(posix.accepted);
    }

    #[test]
    fn multi_process_returns_in_either_order_are_accepted() {
        let mut t = Trace::new("concurrency", "concurrency");
        t.push_label(OsLabel::Create(Pid(2), sibylfs_core::types::Uid(0), sibylfs_core::types::Gid(0)));
        // Both calls are issued before either returns; returns arrive in the
        // opposite order from the calls.
        t.push_label(OsLabel::Call(INITIAL_PID, OsCommand::Mkdir("/a".into(), FileMode::new(0o777))));
        t.push_label(OsLabel::Call(Pid(2), OsCommand::Mkdir("/b".into(), FileMode::new(0o777))));
        t.push_label(OsLabel::Return(Pid(2), ErrorOrValue::Value(RetValue::None)));
        t.push_label(OsLabel::Return(INITIAL_PID, ErrorOrValue::Value(RetValue::None)));
        t.push_label(OsLabel::Call(INITIAL_PID, OsCommand::Stat("/b".into())));
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        // The stat call has no return in the trace; that is fine.
        assert!(checked.accepted, "{:?}", checked.deviations);
    }

    #[test]
    fn hitting_the_max_states_bound_is_reported_not_silent() {
        // Two processes with calls in flight: resolving the second return
        // τ-closes over both calls, leaving more than one tracked state.
        let mut t = Trace::new("bound", "bound");
        t.push_label(OsLabel::Create(
            Pid(2),
            sibylfs_core::types::Uid(0),
            sibylfs_core::types::Gid(0),
        ));
        t.push_label(OsLabel::Call(
            INITIAL_PID,
            OsCommand::Mkdir("/a".into(), FileMode::new(0o777)),
        ));
        t.push_label(OsLabel::Call(Pid(2), OsCommand::Mkdir("/b".into(), FileMode::new(0o777))));
        t.push_label(OsLabel::Return(Pid(2), ErrorOrValue::Value(RetValue::None)));

        // With a generous bound the trace is clean.
        let clean = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(clean.accepted);
        assert!(clean.max_states_tracked > 1);

        // With the bound forced below the tracked set size, the truncation is
        // recorded as an explicit deviation and a dedicated step verdict —
        // a lossy check must never be reported clean.
        let bounded =
            check_trace(&cfg(), &t, CheckOptions { root_user: true, max_states: 1 });
        assert!(!bounded.accepted);
        assert!(bounded
            .steps
            .iter()
            .any(|s| matches!(s.verdict, StepVerdict::StateSetBounded { .. })
                && s.kind == StepKind::Internal));
        assert!(bounded.deviations.iter().any(|d| d.function == "<checker>"));
    }

    #[test]
    fn checking_with_coverage_records_branches_and_transitions() {
        let t = trace_of(vec![
            (
                OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
                ErrorOrValue::Value(RetValue::None),
            ),
            (OsCommand::Mkdir("/d".into(), FileMode::new(0o777)), ErrorOrValue::Error(Errno::EEXIST)),
            (OsCommand::Stat("/missing".into()), ErrorOrValue::Error(Errno::ENOENT)),
        ]);
        let (checked, cov) = check_trace_with_coverage(&cfg(), &t, CheckOptions::default());
        assert!(checked.accepted, "{:?}", checked.deviations);
        assert!(cov.contains(&CoverageKey::Transition {
            syscall: "mkdir".into(),
            outcome: "ok/none".into()
        }));
        assert!(cov.contains(&CoverageKey::Transition {
            syscall: "mkdir".into(),
            outcome: "EEXIST".into()
        }));
        assert!(cov.contains(&CoverageKey::Transition {
            syscall: "stat".into(),
            outcome: "ENOENT".into()
        }));
        // Specification branches were attributed to this check.
        assert!(cov.branch_points().iter().any(|p| p.starts_with("mkdir/")));
        assert!(cov.branch_points().iter().any(|p| p.starts_with("stat/")));
        // The same trace re-checked yields the same coverage (determinism).
        let (_, cov2) = check_trace_with_coverage(&cfg(), &t, CheckOptions::default());
        assert_eq!(cov, cov2);
    }

    #[test]
    fn readdir_wrong_entry_is_flagged() {
        let mut t = Trace::new("readdir", "readdir");
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Mkdir("/d".into(), FileMode::new(0o777)),
            ErrorOrValue::Value(RetValue::None),
        );
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Mkdir("/d/a".into(), FileMode::new(0o777)),
            ErrorOrValue::Value(RetValue::None),
        );
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Opendir("/d".into()),
            ErrorOrValue::Value(RetValue::DirHandle(sibylfs_core::types::DirHandleId(1))),
        );
        // The implementation claims an entry that does not exist.
        t.push_call_return(
            INITIAL_PID,
            OsCommand::Readdir(sibylfs_core::types::DirHandleId(1)),
            ErrorOrValue::Value(RetValue::ReaddirEntry(Some("ghost".into()))),
        );
        let checked = check_trace(&cfg(), &t, CheckOptions::default());
        assert!(!checked.accepted);
        assert!(checked.deviations[0].allowed.iter().any(|a| a.contains('a')));
    }
}
