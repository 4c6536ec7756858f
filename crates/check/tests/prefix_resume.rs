//! Pin: a `CheckerPool` worker that resumes a trace from the previous trace's
//! checkpoints hands out exactly the verdict `check_trace` computes from the
//! initial state.
//!
//! The inputs are the quick suite plus the model-gap scripts, executed on
//! `linux/ext4` (all accepted) and on `linux/sshfs-tmpfs` (some deviate),
//! checked on one worker in these orders:
//!
//! * suite order, where consecutive traces share their group's fixture;
//! * a fixed seeded shuffle, where they mostly share nothing;
//! * each script's ext4 trace, then its sshfs trace, every trace renamed and
//!   its line numbers shifted by its position: the sshfs trace resumes right
//!   before its deviating return, whose diagnostic names a call made before
//!   the resume point, and a line number copied from the cache is wrong;
//! * each suite trace after its own first half, then once more, and each
//!   contention trace after every one of its prefixes, all shifted, with the
//!   default bound and with `max_states: 1`: a trace continues from a
//!   checkpoint inside itself, around multi-state steps too, and a repeat
//!   reuses deviations and truncation steps.
//!
//! A last run switches between the Linux and Mac models (the cache must not
//! cross configurations). Each verdict is compared with `check_trace`
//! structurally, which covers the fields rendering drops (a deviation's
//! function and call), and as rendered text.

use std::sync::Mutex;

use sibylfs_check::{check_trace, render_checked_trace, CheckOptions, CheckerPool};
use sibylfs_core::flavor::{Flavor, SpecConfig};
use sibylfs_core::obs;
use sibylfs_exec::{execute_script, ExecOptions};
use sibylfs_fsimpl::configs;
use sibylfs_script::{Script, Trace};
use sibylfs_testgen::contention::{contention_traces, ContentionOptions};
use sibylfs_testgen::{generate_suite, sequences, SuiteOptions};

/// The resumed-labels counter is process-wide: tests that check through a
/// pool run one at a time.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn scripts() -> Vec<Script> {
    let mut scripts = generate_suite(SuiteOptions::quick());
    scripts.extend(sequences::model_gap_scripts().into_iter().map(|(s, _)| s));
    scripts
}

fn traces_on(config: &str) -> Vec<Trace> {
    let profile = configs::by_name(config).expect("registered config");
    scripts().iter().map(|s| execute_script(&profile, s, ExecOptions::default())).collect()
}

/// The suite executed on `linux/ext4`, then on `linux/sshfs-tmpfs`.
fn suite_traces() -> Vec<Trace> {
    let mut traces = traces_on("linux/ext4");
    traces.extend(traces_on("linux/sshfs-tmpfs"));
    traces
}

fn contention() -> Vec<Trace> {
    [(2, 2), (3, 2), (4, 1)]
        .into_iter()
        .flat_map(|(p, n)| contention_traces(ContentionOptions::new(p, n)))
        .collect()
}

/// Rename every trace and shift its line numbers by its position, so no two
/// neighbours agree on a line number.
fn shifted(mut traces: Vec<Trace>) -> Vec<Trace> {
    for (k, t) in traces.iter_mut().enumerate() {
        t.name = format!("{}~{k}", t.name);
        for step in &mut t.steps {
            step.lineno += k;
        }
    }
    traces
}

fn linux() -> SpecConfig {
    SpecConfig::standard(Flavor::Linux)
}

fn resumed_labels() -> u64 {
    obs::m::CHECK_LABELS_RESUMED_TOTAL.get()
}

/// Check `traces` in order on one pool worker, each under the config `cfg_of`
/// gives its position, and require every verdict to equal `check_trace`'s.
/// Returns how many labels the pool resumed, and how many deviations the
/// verdicts hold.
fn assert_resumes_exactly(
    what: &str,
    traces: &[Trace],
    cfg_of: impl Fn(usize) -> SpecConfig,
    opts: CheckOptions,
) -> (u64, usize) {
    let before = resumed_labels();
    let reference: Vec<_> =
        traces.iter().enumerate().map(|(i, t)| check_trace(&cfg_of(i), t, opts)).collect();
    assert_eq!(resumed_labels(), before, "{what}: check_trace must not resume");

    let pool = CheckerPool::new(1);
    let resumed: Vec<_> = traces
        .iter()
        .enumerate()
        .flat_map(|(i, t)| pool.check_batch(&cfg_of(i), [t.clone()], opts))
        .collect();
    assert_eq!(resumed.len(), reference.len());
    for (want, got) in reference.iter().zip(&resumed) {
        assert_eq!(
            render_checked_trace(got),
            render_checked_trace(want),
            "{what}: rendered verdict for {} differs from check_trace",
            want.name
        );
        assert_eq!(got, want, "{what}: verdict for {} differs from check_trace", want.name);
    }
    let deviations = reference.iter().map(|c| c.deviations.len()).sum();
    (resumed_labels() - before, deviations)
}

#[test]
fn suite_order_resumes_and_matches_check_trace() {
    let _serial = serial();
    let traces = suite_traces();
    let (resumed, deviations) =
        assert_resumes_exactly("suite order", &traces, |_| linux(), CheckOptions::default());
    let labels: usize = traces.iter().map(|t| t.steps.len()).sum();
    assert!(resumed > 0, "suite order resumed no label of {labels}");
    assert!(deviations > 0, "the sshfs traces must deviate");
}

#[test]
fn shuffled_order_matches_check_trace() {
    let _serial = serial();
    let mut traces = suite_traces();
    // Fisher–Yates with a fixed xorshift seed.
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in (1..traces.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        traces.swap(i, (x % (i as u64 + 1)) as usize);
    }
    assert_resumes_exactly("shuffled", &traces, |_| linux(), CheckOptions::default());
}

#[test]
fn line_numbers_and_diagnostics_come_from_the_new_trace() {
    let _serial = serial();
    let paired: Vec<Trace> = traces_on("linux/ext4")
        .into_iter()
        .zip(traces_on("linux/sshfs-tmpfs"))
        .flat_map(|(ext4, sshfs)| [ext4, sshfs])
        .collect();
    let (resumed, deviations) =
        assert_resumes_exactly("paired", &shifted(paired), |_| linux(), CheckOptions::default());
    assert!(resumed > 0 && deviations > 0);
}

#[test]
fn repeated_traces_reuse_deviations_truncations_and_multi_state_steps() {
    let _serial = serial();
    let prefix = |t: &Trace, n: usize| Trace { steps: t.steps[..n].to_vec(), ..t.clone() };
    let mut repeated: Vec<Trace> = suite_traces()
        .into_iter()
        .flat_map(|t| [prefix(&t, t.steps.len() / 2), t.clone(), t])
        .collect();
    for t in contention() {
        repeated.extend((1..=t.steps.len()).map(|n| prefix(&t, n)));
    }
    let repeated = shifted(repeated);
    let (resumed, _) =
        assert_resumes_exactly("repeated", &repeated, |_| linux(), CheckOptions::default());
    assert!(resumed > 0);
    let bounded = CheckOptions { max_states: 1, ..CheckOptions::default() };
    let (resumed, _) =
        assert_resumes_exactly("repeated, max_states 1", &repeated, |_| linux(), bounded);
    assert!(resumed > 0);
}

#[test]
fn switching_models_never_crosses_the_cache() {
    let _serial = serial();
    let traces = suite_traces();
    let mac = SpecConfig::standard(Flavor::Mac);
    // Runs of two traces per model, so resumption happens within a model.
    let (resumed, _) = assert_resumes_exactly(
        "linux/mac",
        &traces,
        |i| if i / 2 % 2 == 0 { linux() } else { mac },
        CheckOptions::default(),
    );
    assert!(resumed > 0);
}
