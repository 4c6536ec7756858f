//! The in-process workloads: `suite`, `long_trace`, `contention` and
//! `host_suite`. Each builds its corpus from the seed in `setup`, runs one
//! pass over it per `round`, and re-derives a sample of verdicts the slow,
//! sequential way in `after`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sibylfs_check::{check_trace, render_checked_trace, CheckOptions, CheckedTrace};
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_exec::{execute_script, ExecOptions, Executor, HostFs, SimExecutor};
use sibylfs_fsimpl::{configs, BehaviorProfile};
use sibylfs_script::{parse_script, parse_trace, render_script, Script, ScriptStep, Trace};
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};
use sibylfs_testgen::{generate_suite, RandomOptions, SuiteOptions};

use crate::oracle::{sample_keys, AllAccepted, Sampled, SshfsKnown, Verify};
use crate::pipe::{Checker, Pass};
use crate::rng::Rng;

/// Corpus sizes: the real benchmark, or a tiny one for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

pub trait Workload {
    /// A round (one pass over the corpus) runs in this many segments.
    fn segments(&self) -> usize {
        1
    }
    /// One segment of a round; returns the number of traces attempted.
    /// Every verdict is in (and verified) when it returns.
    fn round(&mut self, round: u64, segment: usize) -> u64;
    /// The checker whose verdicts `round` waits for.
    fn checker(&self) -> &Checker;
    /// Post-phase checks; each error counts as one failed operation.
    fn after(&mut self) -> Vec<String>;
    /// Time spent generating the corpus during setup, if the workload
    /// generates one.
    fn generate_ms(&self) -> f64;
    /// `check.long_cost_ratio` from `(key, labels, check CPU ns)` per
    /// checked trace; 0 where the workload has no long traces.
    fn cost_ratio(&self, _per_trace: &[(usize, u64, u64)]) -> f64 {
        0.0
    }
}

pub fn linux() -> SpecConfig {
    SpecConfig::standard(Flavor::Linux)
}

fn profile(name: &str) -> BehaviorProfile {
    configs::by_name(name).unwrap_or_else(|| panic!("no simulated configuration {name}"))
}

/// Trace id of text `key` in round `round`, unique across the run.
fn trace_id(round: u64, key: usize) -> u64 {
    ((round + 1) << 32) | key as u64
}

/// The suite corpus: `SuiteOptions::full()` plus a seeded batch of random
/// scripts, rendered to text. Returns the texts, the length of the fixed
/// part, and the generation time in ms.
fn suite_corpus(seed: u64, scale: Scale) -> (Vec<String>, usize, f64) {
    let t = Instant::now();
    let mut fixed = generate_suite(SuiteOptions::full());
    let batch = sibylfs_testgen::random::random_scripts(RandomOptions {
        seed,
        scripts: if scale == Scale::Full { 256 } else { 8 },
        ..RandomOptions::default()
    });
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    if scale == Scale::Smoke {
        fixed = fixed.into_iter().step_by(50).collect();
    }
    let n_fixed = fixed.len();
    let texts = fixed.iter().chain(&batch).map(render_script).collect();
    (texts, n_fixed, generate_ms)
}

/// Re-derive sampled verdicts sequentially: `parse_script` →
/// `execute_script` → `check_trace` → `render_checked_trace`.
fn recheck_scripts(
    texts: &[String],
    sims: &[(BehaviorProfile, Arc<dyn SampleStore>)],
    out: &mut Vec<String>,
) {
    let n = texts.len();
    for (p, (profile, store)) in sims.iter().enumerate() {
        for (key, seen) in store.sample_texts() {
            let i = key - p * n;
            let verdict = parse_script(&texts[i])
                .map(|s| execute_script(profile, &s, ExecOptions::default()))
                .map(|t| render_checked_trace(&check_trace(&linux(), &t, CheckOptions::default())));
            match verdict {
                Ok(v) if v == seen => {}
                Ok(_) => out.push(format!(
                    "{} on {}: pipelined verdict differs from sequential check_trace",
                    i, profile.name
                )),
                Err(e) => out.push(format!("script {i}: parse error on recheck: {e:?}")),
            }
        }
        if store.sample_texts().len() < store.sample_len() {
            out.push(format!(
                "{}: some sampled traces never reached a verdict",
                profile.name
            ));
        }
    }
}

/// Type-erased access to a [`Sampled`] verifier's stored texts.
pub trait SampleStore: Send + Sync {
    fn sample_texts(&self) -> Vec<(usize, String)>;
    fn sample_len(&self) -> usize;
}

impl<V: Verify> SampleStore for Sampled<V> {
    fn sample_texts(&self) -> Vec<(usize, String)> {
        self.texts().into_iter().collect()
    }
    fn sample_len(&self) -> usize {
        self.keys_len()
    }
}

fn sampled<V: Verify + 'static>(inner: V, keys: BTreeSet<usize>) -> Arc<Sampled<V>> {
    Arc::new(Sampled::new(inner, keys))
}

/// A simulated configuration with its verifier and sampled verdicts.
type SimPass = (BehaviorProfile, Arc<dyn Verify>, Arc<dyn SampleStore>);

// ---------------------------------------------------------------------------
// suite
// ---------------------------------------------------------------------------

pub struct Suite {
    texts: Vec<String>,
    checker: Checker,
    /// Per simulated configuration: the profile, its verifier, its samples.
    sims: Vec<SimPass>,
    generate_ms: f64,
}

impl Suite {
    pub fn setup(seed: u64, scale: Scale) -> Result<Suite, String> {
        let (texts, n_fixed, generate_ms) = suite_corpus(seed, scale);
        let n = texts.len();
        let ext4 = sampled(AllAccepted, sample_keys(seed, n, 32));
        let sshfs_keys: BTreeSet<usize> = sample_keys(seed.rotate_left(17), n, 32)
            .into_iter()
            .map(|k| k + n)
            .collect();
        let sshfs = sampled(SshfsKnown::load(n + n_fixed)?, sshfs_keys);
        let sims: Vec<SimPass> = vec![
            (profile("linux/ext4"), ext4.clone(), ext4),
            (profile("linux/sshfs-tmpfs"), sshfs.clone(), sshfs),
        ];
        Ok(Suite {
            texts,
            checker: Checker::start(linux()),
            sims,
            generate_ms,
        })
    }
}

impl Workload for Suite {
    /// One segment per simulated configuration.
    fn segments(&self) -> usize {
        self.sims.len()
    }

    fn round(&mut self, round: u64, segment: usize) -> u64 {
        let n = self.texts.len();
        let (profile, verify, _) = &self.sims[segment];
        Pass {
            checker: &self.checker,
            exec: Arc::new(SimExecutor::new(profile.clone())),
            host: false,
            verify: Arc::clone(verify),
            key_base: segment * n,
            trace_base: trace_id(round, segment * n),
            on_trace_text: None,
        }
        .run(&self.texts);
        self.checker.wait_all();
        n as u64
    }

    fn checker(&self) -> &Checker {
        &self.checker
    }

    fn after(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        let sims: Vec<_> = self
            .sims
            .iter()
            .map(|(p, _, s)| (p.clone(), Arc::clone(s)))
            .collect();
        recheck_scripts(&self.texts, &sims, &mut errors);
        errors
    }

    fn generate_ms(&self) -> f64 {
        self.generate_ms
    }
}

// ---------------------------------------------------------------------------
// long_trace
// ---------------------------------------------------------------------------

pub struct LongTrace {
    texts: Vec<String>,
    /// Calls per trace, in corpus order.
    pub calls: Vec<usize>,
    checker: Checker,
    exec: SimPass,
    generate_ms: f64,
}

/// Whether a script runs in the initial process only and never closes a
/// descriptor, so that concatenations of such scripts stay single-process
/// and keep every descriptor open.
fn long_trace_material(s: &Script) -> bool {
    use sibylfs_core::commands::OsCommand;
    s.steps.iter().all(|st| match st {
        ScriptStep::Call { cmd, .. } => {
            !matches!(cmd, OsCommand::Close(_) | OsCommand::Closedir(_))
        }
        _ => false,
    })
}

impl LongTrace {
    pub fn setup(seed: u64, scale: Scale) -> Result<LongTrace, String> {
        let t = Instant::now();
        let suite = generate_suite(SuiteOptions::full());
        let generate_ms = t.elapsed().as_secs_f64() * 1e3;
        let material: Vec<&Script> = suite.iter().filter(|s| long_trace_material(s)).collect();
        if material.is_empty() {
            return Err("no single-process scripts in the suite".into());
        }
        let targets: &[usize] = match scale {
            Scale::Full => &[4000, 4000, 8000],
            Scale::Smoke => &[200, 200, 400],
        };
        // Which scripts go into each trace is fixed: a stride walk over the
        // whole suite, so every trace samples every group. The seed shuffles
        // their order within consecutive blocks of 16. Runs with different
        // seeds thus check traces of the same content and size, in orders
        // that differ locally but grow the file system the same way overall
        // (a global shuffle moved check time by up to 30% from seed to seed).
        let mut walk = (0..).map(|i: usize| material[i.wrapping_mul(97) % material.len()]);
        let mut rng = Rng::new(seed);
        let mut texts = Vec::new();
        let mut calls = Vec::new();
        for (k, &target) in targets.iter().enumerate() {
            let mut parts = Vec::new();
            let mut n = 0;
            while n < target {
                let next = walk.next().ok_or("stride walk ended")?;
                n += next.call_count();
                parts.push(next);
            }
            for block in parts.chunks_mut(16) {
                rng.shuffle(block);
            }
            let mut s = Script::new(format!("long___{k}_{target}_s{seed:x}"), "long");
            for part in parts {
                s.steps.extend(part.steps.iter().cloned());
            }
            calls.push(s.call_count());
            texts.push(render_script(&s));
        }
        // Re-derive one of the two ~4k traces sequentially afterwards.
        let keys = BTreeSet::from([Rng::new(seed).below(2)]);
        let verify = sampled(AllAccepted, keys);
        Ok(LongTrace {
            texts,
            calls,
            checker: Checker::start(linux()),
            exec: (profile("linux/ext4"), verify.clone(), verify),
            generate_ms,
        })
    }

    /// Per-label check cost of the longest trace over that of the shorter
    /// ones.
    fn long_cost_ratio(&self, per_trace: &[(usize, u64, u64)]) -> f64 {
        let longest = (0..self.calls.len())
            .max_by_key(|&k| self.calls[k])
            .unwrap_or(0);
        let per_label = |pick: &dyn Fn(usize) -> bool| {
            let (l, c) = per_trace
                .iter()
                .filter(|(k, _, _)| pick(*k))
                .fold((0u64, 0u64), |(l, c), &(_, tl, tc)| (l + tl, c + tc));
            if l == 0 {
                0.0
            } else {
                c as f64 / l as f64
            }
        };
        let short = per_label(&|k| self.calls[k] < self.calls[longest]);
        if short == 0.0 {
            0.0
        } else {
            per_label(&|k| k == longest) / short
        }
    }
}

impl Workload for LongTrace {
    /// One segment per trace.
    fn segments(&self) -> usize {
        self.texts.len()
    }

    fn round(&mut self, round: u64, segment: usize) -> u64 {
        let (profile, verify, _) = &self.exec;
        Pass {
            checker: &self.checker,
            exec: Arc::new(SimExecutor::new(profile.clone())),
            host: false,
            verify: Arc::clone(verify),
            key_base: segment,
            trace_base: trace_id(round, segment),
            on_trace_text: None,
        }
        .run(&self.texts[segment..=segment]);
        self.checker.wait_all();
        1
    }

    fn checker(&self) -> &Checker {
        &self.checker
    }

    fn cost_ratio(&self, per_trace: &[(usize, u64, u64)]) -> f64 {
        self.long_cost_ratio(per_trace)
    }

    fn after(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        let (profile, _, store) = &self.exec;
        recheck_scripts(
            &self.texts,
            &[(profile.clone(), Arc::clone(store))],
            &mut errors,
        );
        errors
    }

    fn generate_ms(&self) -> f64 {
        self.generate_ms
    }
}

// ---------------------------------------------------------------------------
// contention
// ---------------------------------------------------------------------------

/// `(processes, ops per process)` scales with 4–6 processes whose traces
/// check clean within the checker's default state bound. One-op scales of
/// 4 and 5 processes are left out: they check in well under a millisecond,
/// so their latency would measure the pool's thread wake-up, not checking.
const CONTENTION_SCALES: &[(u32, usize)] =
    &[(4, 2), (4, 3), (4, 4), (5, 2), (5, 3), (5, 4), (6, 1)];

pub struct Contention {
    traces: Vec<Trace>,
    checker: Checker,
    verify: Arc<Sampled<AllAccepted>>,
}

impl Contention {
    pub fn setup(seed: u64, scale: Scale) -> Result<Contention, String> {
        let scales = match scale {
            Scale::Full => CONTENTION_SCALES,
            Scale::Smoke => &CONTENTION_SCALES[..1],
        };
        // Scales run in ascending order; the seed orders the four families
        // within each scale. The mix is the same at every seed, so runs with
        // different seeds measure the same work, and the largest state sets
        // always meet an allocator in the same state.
        let mut rng = Rng::new(seed);
        let mut traces: Vec<Trace> = Vec::new();
        for &(p, n) in scales {
            let mut families = contention_traces(ContentionOptions::new(p, n));
            rng.shuffle(&mut families);
            traces.extend(families);
        }
        let keys = sample_keys(seed, traces.len(), 8);
        Ok(Contention {
            traces,
            checker: Checker::start(linux()),
            verify: sampled(AllAccepted, keys),
        })
    }
}

impl Workload for Contention {
    /// The traces go to the checker as values, not text: in the trace text
    /// format a return line names no process and pairs with the call just
    /// before it, so overlapping calls of concurrent processes do not
    /// survive `render_trace` → `parse_trace`.
    fn round(&mut self, round: u64, _segment: usize) -> u64 {
        let verify: Arc<dyn Verify> = self.verify.clone();
        // Closed loop, one trace in flight: each latency is that trace's own
        // handoff, check and render, whatever the order.
        for (i, trace) in self.traces.iter().enumerate() {
            let t_in = Instant::now();
            self.checker
                .submit(i, trace_id(round, i), trace.clone(), t_in, &verify);
            self.checker.wait_all();
        }
        self.traces.len() as u64
    }

    fn checker(&self) -> &Checker {
        &self.checker
    }

    fn after(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        for (key, seen) in self.verify.texts() {
            let checked = check_trace(&linux(), &self.traces[key], CheckOptions::default());
            if render_checked_trace(&checked) != seen {
                errors.push(format!(
                    "contention trace {key}: verdict differs from sequential check"
                ));
            }
        }
        errors
    }

    fn generate_ms(&self) -> f64 {
        0.0
    }
}

// ---------------------------------------------------------------------------
// host_suite
// ---------------------------------------------------------------------------

fn hash_str(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[derive(Default)]
struct HostState {
    /// Trace text (hash, text) noted by the pipeline, awaiting its verdict.
    pending: HashMap<usize, (u64, String)>,
    /// (trace hash, verdict hash) the first time each key was checked.
    first: HashMap<usize, (u64, u64)>,
    /// Traces to re-check sequentially after the phase: (key, text,
    /// verdict hash).
    recheck: Vec<(usize, String, u64)>,
}

/// Host verdicts have no precomputed answer: each must agree with a
/// sequential `check_trace` of the same trace. A trace whose text repeats
/// one already seen must get the verdict it got then; every new text is
/// re-checked sequentially after the phase.
#[derive(Default)]
pub struct HostVerify {
    state: Mutex<HostState>,
}

impl HostVerify {
    fn note(&self, key: usize, text: &str) {
        let mut st = self.state.lock().expect("host verifier poisoned");
        let h = hash_str(text);
        let keep = match st.first.get(&key) {
            Some(&(first, _)) if first == h => String::new(),
            _ => text.to_string(),
        };
        st.pending.insert(key, (h, keep));
    }
}

impl Verify for HostVerify {
    fn verify(&self, key: usize, c: &CheckedTrace, verdict: &str) -> Result<(), String> {
        let vh = hash_str(verdict);
        let mut st = self.state.lock().expect("host verifier poisoned");
        let (th, text) = st.pending.remove(&key).ok_or_else(|| {
            format!(
                "{}: verdict for a trace the pipeline never produced",
                c.name
            )
        })?;
        match st.first.get(&key).copied() {
            Some((first_th, first_vh)) if first_th == th => {
                if first_vh != vh {
                    return Err(format!("{}: same host trace, different verdict", c.name));
                }
            }
            Some(_) => st.recheck.push((key, text, vh)),
            None => {
                st.first.insert(key, (th, vh));
                st.recheck.push((key, text, vh));
            }
        }
        Ok(())
    }
}

pub struct HostSuite {
    texts: Vec<String>,
    checker: Checker,
    exec: Arc<dyn Executor + Send + Sync>,
    verify: Arc<HostVerify>,
    generate_ms: f64,
}

impl HostSuite {
    pub fn setup(seed: u64, scale: Scale) -> Result<HostSuite, String> {
        let (texts, _, generate_ms) = suite_corpus(seed, scale);
        let exec: Arc<dyn Executor + Send + Sync> = Arc::new(HostFs::pooled(1));
        // Worker start: the pool forks and jails its worker on first use.
        exec.execute_script(&Script::new("warmup", "warmup"), ExecOptions::default())
            .map_err(|e| format!("host worker start: {e}"))?;
        Ok(HostSuite {
            texts,
            checker: Checker::start(linux()),
            exec,
            verify: Arc::new(HostVerify::default()),
            generate_ms,
        })
    }
}

impl Workload for HostSuite {
    fn round(&mut self, round: u64, _segment: usize) -> u64 {
        let verify = Arc::clone(&self.verify);
        let note = move |key: usize, text: &str| verify.note(key, text);
        Pass {
            checker: &self.checker,
            exec: Arc::clone(&self.exec),
            host: true,
            verify: self.verify.clone(),
            key_base: 0,
            trace_base: trace_id(round, 0),
            on_trace_text: Some(&note),
        }
        .run(&self.texts);
        self.checker.wait_all();
        self.texts.len() as u64
    }

    fn checker(&self) -> &Checker {
        &self.checker
    }

    fn after(&mut self) -> Vec<String> {
        let recheck = std::mem::take(&mut self.verify.state.lock().expect("poisoned").recheck);
        let mut errors = Vec::new();
        for (key, text, vh) in recheck {
            let verdict = parse_trace(&text)
                .map(|t| render_checked_trace(&check_trace(&linux(), &t, CheckOptions::default())));
            match verdict {
                Ok(v) if hash_str(&v) == vh => {}
                _ => errors.push(format!(
                    "host trace {key}: verdict differs from sequential check"
                )),
            }
        }
        errors
    }

    fn generate_ms(&self) -> f64 {
        self.generate_ms
    }
}
