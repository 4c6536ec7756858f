//! Measurement phases, metric derivation, and the printed report.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sibylfs_core::obs::{self, MetricsSnapshot};

use crate::pipe::{take_exec_tally, CheckTally, Collected, ExecTally};
use crate::serve::ServePhase;
use crate::spans::{self, Span};
use crate::sys::{median, quantile};
use crate::workloads::{Scale, Workload};
use crate::Args;

/// One round: a pass over the workload's corpus (for `serve`, one
/// segment of requests).
#[derive(Debug, Clone, Copy)]
pub struct RoundMeasure {
    pub traces: u64,
    pub wall: Duration,
    pub cpu: Duration,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Mean reference workload time around the round's segments, in
    /// seconds.
    pub reference_s: f64,
    /// Peak RSS of the checking process during the round.
    pub peak_rss_mb: f64,
}

impl RoundMeasure {
    pub fn rate(&self) -> f64 {
        self.traces as f64 / self.wall.as_secs_f64()
    }

    pub fn cpu_us_per_trace(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.traces.max(1) as f64
    }
}

/// The reference workload time to which every time metric is scaled.
///
/// The machines this benchmark runs on are shared, and their speed drifts:
/// the same code ran up to 1.7× slower over stretches of minutes, CPU time
/// included. So every segment of a round (a stretch of work that ends with
/// all its verdicts in) is bracketed by the reference workload
/// ([`crate::sys::reference_time`]), and the segment's times are multiplied
/// by `NOMINAL_REFERENCE_S / reference time`: times are counted in units of
/// the reference, and read as if the machine ran it in 15 ms. Raw values
/// are printed alongside.
pub const NOMINAL_REFERENCE_S: f64 = 0.015;

/// The factor a time measured with the reference at `reference_s` is
/// multiplied by.
pub fn time_scale(reference_s: f64) -> f64 {
    if reference_s > 0.0 {
        NOMINAL_REFERENCE_S / reference_s
    } else {
        1.0
    }
}

/// Builds a raw and a scaled [`RoundMeasure`] from a round's segments.
#[derive(Default)]
pub struct RoundAcc {
    traces: u64,
    raw: (Duration, Duration, Vec<f64>),
    scaled: (Duration, Duration, Vec<f64>),
    references: Vec<f64>,
}

impl RoundAcc {
    /// Add a segment; `reference_s` is the reference time around it.
    pub fn add(
        &mut self,
        traces: u64,
        (wall, cpu): (Duration, Duration),
        lat_ms: &[f64],
        reference_s: f64,
    ) {
        let k = time_scale(reference_s);
        self.traces += traces;
        self.raw.0 += wall;
        self.raw.1 += cpu;
        self.raw.2.extend_from_slice(lat_ms);
        self.scaled.0 += wall.mul_f64(k);
        self.scaled.1 += cpu.mul_f64(k);
        self.scaled.2.extend(lat_ms.iter().map(|l| l * k));
        self.references.push(reference_s);
    }

    /// `(scaled, raw)`, given the peak RSS during the round.
    pub fn finish(self, peak_rss_mb: f64) -> (RoundMeasure, RoundMeasure) {
        let reference_s = self.references.iter().sum::<f64>() / self.references.len().max(1) as f64;
        let m = |(wall, cpu, lat): (Duration, Duration, Vec<f64>)| RoundMeasure {
            traces: self.traces,
            wall,
            cpu,
            p50_ms: quantile(&lat, 0.50),
            p99_ms: quantile(&lat, 0.99),
            reference_s,
            peak_rss_mb,
        };
        (m(self.scaled), m(self.raw))
    }
}

/// Median over rounds of a per-round value.
fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

/// The rounds of one timed phase and what the layers reported during it.
#[derive(Debug, Default)]
pub struct Phase {
    /// Scaled to the nominal reference speed.
    pub rounds: Vec<RoundMeasure>,
    pub raw_rounds: Vec<RoundMeasure>,
    pub attempted: u64,
    pub got: Collected,
    pub tally: CheckTally,
    pub exec: ExecTally,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl Phase {
    /// Run whole rounds until `seconds` have passed (at least one round).
    pub fn run(w: &mut dyn Workload, seconds: f64, phase_no: u64, children: bool) -> Phase {
        let mut p = Phase {
            before: obs::snapshot(),
            ..Phase::default()
        };
        let _ = take_exec_tally();
        let mut last_reference = crate::sys::reference_time().as_secs_f64();
        let started = Instant::now();
        for r in 0.. {
            let round_no = phase_no * 1_000_000 + r;
            let mut acc = RoundAcc::default();
            crate::sys::reset_peak_rss(std::process::id());
            for segment in 0..w.segments() {
                let g = spans::span("round", round_no);
                spans::set_round(g.as_ref().map_or(0, spans::Guard::id));
                let (t0, c0) = (Instant::now(), crate::cpu_under_test(children));
                let traces = w.round(round_no, segment);
                let wall = t0.elapsed();
                let cpu = crate::cpu_under_test(children).saturating_sub(c0);
                drop(g);
                spans::set_round(0);
                let got = w.checker().take();
                let reference = crate::sys::reference_time().as_secs_f64();
                acc.add(
                    traces,
                    (wall, cpu),
                    &got.latencies_ms,
                    (reference + last_reference) / 2.0,
                );
                last_reference = reference;
                p.attempted += traces;
                p.tally.merge(&got.tally);
                p.got.failed += got.failed;
                p.got.errors.extend(got.errors);
                p.got.latencies_ms.extend(got.latencies_ms);
            }
            let (scaled, raw) =
                acc.finish(crate::sys::peak_rss_mib(std::process::id()).unwrap_or(0.0));
            p.rounds.push(scaled);
            p.raw_rounds.push(raw);
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        p.exec = take_exec_tally();
        p.after = obs::snapshot();
        p
    }

    fn rounds(&self) -> f64 {
        self.rounds.len().max(1) as f64
    }

    /// Median scaled throughput.
    fn rate(&self) -> f64 {
        median_of(self.rounds.iter().map(RoundMeasure::rate))
    }

    /// Increase of a program counter over the phase.
    fn counter(&self, name: &str) -> f64 {
        counter_delta(&self.before, &self.after, name)
    }
}

fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let a = after.counter(name).unwrap_or(0);
    let b = before.counter(name).unwrap_or(0);
    a.saturating_sub(b) as f64
}

fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, f64) {
    let a = after
        .histogram(name)
        .map(|h| (h.count, h.sum))
        .unwrap_or((0, 0));
    let b = before
        .histogram(name)
        .map(|h| (h.count, h.sum))
        .unwrap_or((0, 0));
    (
        a.0.saturating_sub(b.0) as f64,
        a.1.saturating_sub(b.1) as f64,
    )
}

/// Named values with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// End-to-end metrics: medians over rounds (`setup_s` is added by the
    /// outcome).
    pub fn from_rounds(rounds: &[RoundMeasure]) -> Metrics {
        let r = || rounds.iter();
        let mut m = Metrics::default();
        m.put(
            "traces_per_s",
            median_of(r().map(RoundMeasure::rate)),
            "traces/s",
        );
        m.put(
            "cpu_us_per_trace",
            median_of(r().map(RoundMeasure::cpu_us_per_trace)),
            "us",
        );
        m.put("latency_ms_p50", median_of(r().map(|r| r.p50_ms)), "ms");
        m.put("latency_ms_p99", median_of(r().map(|r| r.p99_ms)), "ms");
        m.put("peak_rss_mb", median_of(r().map(|r| r.peak_rss_mb)), "MiB");
        m
    }
}

/// Every per-layer metric, with its unit, in report order. Metrics of
/// layers a workload does not exercise read 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("testgen.generate_ms", "ms"),
    ("script.parse_script_ms", "ms"),
    ("script.parse_trace_ms", "ms"),
    ("script.render_trace_ms", "ms"),
    ("script.parse_mb_per_s", "MB/s"),
    ("exec.sim_ms", "ms"),
    ("exec.sim_us_per_call", "us"),
    ("exec.pipeline_handoff_us", "us"),
    ("exec.pipeline_queue_hwm", "count"),
    ("exec.host_us_per_script", "us"),
    ("exec.host_jail_resets", "count"),
    ("exec.host_cold_forks", "count"),
    ("exec.host_respawns", "count"),
    ("check.check_trace_ms", "ms"),
    ("check.labels", "count"),
    ("check.us_per_label", "us"),
    ("check.states_peak", "count"),
    ("check.deviations", "count"),
    ("check.long_cost_ratio", "ratio"),
    ("check.pool_wait_ms", "ms"),
    ("check.pool_queue_hwm", "count"),
    ("check.render_ms", "ms"),
    ("core.tau_states_expanded", "count"),
    ("core.sleep_pruned", "count"),
    ("core.dedup_hits", "count"),
    ("core.prune_ratio", "ratio"),
    ("serve.rtt_ms", "ms"),
    ("serve.server_run_ms", "ms"),
    ("serve.server_wait_ms", "ms"),
    ("serve.frontend_us_per_req", "us"),
    ("serve.bytes_per_req", "bytes"),
    ("serve.pool_utilization", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.layer_cpu_share", "ratio"),
];

fn layer_table(values: BTreeMap<&'static str, f64>) -> Metrics {
    let mut m = Metrics::default();
    for &(name, unit) in LAYER_METRICS {
        m.put(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    m
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Core counters (τ-closure, sleep-set pruning, state dedup) per round.
fn core_counters(v: &mut BTreeMap<&'static str, f64>, d: impl Fn(&str) -> f64, rounds: f64) {
    let expanded = d("sibylfs_tau_states_expanded_total");
    let pruned = d("sibylfs_tau_sleep_pruned_total");
    v.insert("core.tau_states_expanded", expanded / rounds);
    v.insert("core.sleep_pruned", pruned / rounds);
    v.insert(
        "core.dedup_hits",
        d("sibylfs_state_dedup_hits_total") / rounds,
    );
    v.insert("core.prune_ratio", ratio(pruned, pruned + expanded));
}

/// Per-layer metrics of an in-process workload. Layer times are self CPU
/// time per round (one pass over the corpus), from the traced phase.
pub fn layers_in_process(
    untraced: &Phase,
    traced: &Phase,
    spans: &[Span],
    generate_ms: f64,
    long_cost_ratio: f64,
) -> Metrics {
    let st = spans::self_times(spans);
    let rounds = traced.rounds();
    let cpu_ms = |name: &str| st.get(name).map_or(0.0, |s| s.cpu_ns as f64 / 1e6);
    let n = |name: &str| st.get(name).map_or(0.0, |s| s.n as f64);
    let mut v = BTreeMap::new();
    v.insert("testgen.generate_ms", generate_ms);
    v.insert(
        "script.parse_script_ms",
        cpu_ms("script.parse_script") / rounds,
    );
    v.insert(
        "script.parse_trace_ms",
        cpu_ms("script.parse_trace") / rounds,
    );
    v.insert(
        "script.render_trace_ms",
        cpu_ms("script.render_trace") / rounds,
    );
    let parse_ms = cpu_ms("script.parse_script") + cpu_ms("script.parse_trace");
    let parse_bytes = n("script.parse_script") + n("script.parse_trace");
    v.insert(
        "script.parse_mb_per_s",
        ratio(parse_bytes / 1e6, parse_ms / 1e3),
    );
    v.insert("exec.sim_ms", cpu_ms("exec.sim") / rounds);
    v.insert(
        "exec.sim_us_per_call",
        ratio(cpu_ms("exec.sim") * 1e3, n("exec.sim")),
    );
    let e = &traced.exec;
    v.insert(
        "exec.pipeline_handoff_us",
        ratio(e.handoff_ns as f64 / 1e3, e.scripts as f64),
    );
    let hwm = |g: &str| traced.after.gauge(g).map_or(0.0, |(_, h)| h as f64);
    v.insert(
        "exec.pipeline_queue_hwm",
        hwm("sibylfs_exec_pipe_queue_depth"),
    );
    let host = st.contains_key("exec.host");
    if host {
        v.insert(
            "exec.host_us_per_script",
            ratio(e.host_ns as f64 / 1e3, e.scripts as f64),
        );
    }
    let d = |name: &str| traced.counter(name);
    v.insert(
        "exec.host_jail_resets",
        d("sibylfs_exec_jail_resets_total") / rounds,
    );
    v.insert(
        "exec.host_cold_forks",
        d("sibylfs_exec_cold_forks_total") / rounds,
    );
    v.insert(
        "exec.host_respawns",
        d("sibylfs_exec_worker_respawns_total") / rounds,
    );
    let t = &traced.tally;
    v.insert("check.check_trace_ms", t.check_cpu_ns as f64 / 1e6 / rounds);
    v.insert("check.labels", t.labels as f64 / rounds);
    v.insert(
        "check.us_per_label",
        ratio(t.check_cpu_ns as f64 / 1e3, t.labels as f64),
    );
    v.insert("check.states_peak", t.states_peak as f64);
    v.insert("check.deviations", t.deviations as f64 / rounds);
    v.insert("check.long_cost_ratio", long_cost_ratio);
    v.insert(
        "check.pool_wait_ms",
        ratio(t.pool_wait_ns as f64 / 1e6, t.jobs as f64),
    );
    v.insert("check.pool_queue_hwm", hwm("sibylfs_pool_queue_depth"));
    v.insert("check.render_ms", cpu_ms("check.render") / rounds);
    core_counters(&mut v, d, rounds);
    v.insert(
        "bench.trace_overhead",
        ratio(untraced.rate(), traced.rate()) - 1.0,
    );
    v.insert("bench.span_coverage", spans::coverage(spans));
    let layer_cpu: u64 = st
        .iter()
        .filter(|(k, _)| **k != "round")
        .map(|(_, s)| s.cpu_ns)
        .sum();
    let phase_cpu: f64 = traced.rounds.iter().map(|r| r.cpu.as_secs_f64()).sum();
    v.insert(
        "bench.layer_cpu_share",
        ratio(layer_cpu as f64 / 1e9, phase_cpu),
    );
    layer_table(v)
}

/// Per-layer metrics of `serve`: client-side spans plus deltas of the
/// server's own metrics, read over the wire.
pub fn layers_serve(untraced: &ServePhase, traced: &ServePhase, spans: &[Span]) -> Metrics {
    let (b, a) = (&traced.before, &traced.after);
    let mut v = BTreeMap::new();
    v.insert("serve.rtt_ms", median(&traced.rtts_ms));
    let (run_n, run_ns) = hist_delta(b, a, "sibylfs_pool_job_run_ns");
    let (wait_n, wait_ns) = hist_delta(b, a, "sibylfs_pool_job_wait_ns");
    let run_ms = ratio(run_ns / 1e6, run_n);
    let wait_ms = ratio(wait_ns / 1e6, wait_n);
    v.insert("serve.server_run_ms", run_ms);
    v.insert("serve.server_wait_ms", wait_ms);
    let mean_rtt = ratio(traced.rtts_ms.iter().sum(), traced.rtts_ms.len() as f64);
    v.insert(
        "serve.frontend_us_per_req",
        (mean_rtt - run_ms - wait_ms) * 1e3,
    );
    let d = |name: &str| counter_delta(b, a, name);
    let requests = d("sibylfs_serve_requests_total");
    let bytes = d("sibylfs_serve_bytes_in_total") + d("sibylfs_serve_bytes_out_total");
    v.insert("serve.bytes_per_req", ratio(bytes, requests));
    let workers = crate::serve::SERVER_WORKERS as f64;
    v.insert(
        "serve.pool_utilization",
        ratio(
            d("sibylfs_pool_busy_ns_total") / 1e9,
            traced.loaded.as_secs_f64() * workers,
        ),
    );
    let checks = d("sibylfs_check_traces_total");
    let (_, check_ns) = hist_delta(b, a, "sibylfs_check_trace_ns");
    v.insert("check.labels", 0.0);
    v.insert("check.check_trace_ms", ratio(check_ns / 1e6, checks));
    v.insert("check.deviations", d("sibylfs_check_deviations_total"));
    v.insert(
        "check.pool_queue_hwm",
        a.gauge("sibylfs_pool_queue_depth")
            .map_or(0.0, |g| g.1 as f64),
    );
    // Per request: the serve corpus has no rounds.
    core_counters(&mut v, |name| d(name), requests.max(1.0));
    v.insert(
        "bench.trace_overhead",
        ratio(
            median_of(untraced.rounds.iter().map(RoundMeasure::rate)),
            median_of(traced.rounds.iter().map(RoundMeasure::rate)),
        ) - 1.0,
    );
    let st = spans::self_times(spans);
    let client_ns: u64 = st.values().map(|s| s.wall_ns).sum();
    let clients = crate::serve::CONNECTIONS as f64;
    v.insert(
        "bench.span_coverage",
        ratio(
            client_ns as f64 / 1e9,
            traced.loaded.as_secs_f64() * clients,
        ),
    );
    layer_table(v)
}

/// What the environment looked like; printed with every result.
pub struct Env {
    pub nproc: usize,
    pub exec_workers: usize,
    pub check_workers: usize,
    pub server_workers: usize,
    pub connections: usize,
    pub host_backend: bool,
    pub jail_base: String,
    pub commit: String,
    pub source_digest: String,
    pub profile: String,
}

impl Env {
    pub fn collect() -> Env {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        Env {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            exec_workers: 0,
            check_workers: 0,
            server_workers: 0,
            connections: 0,
            host_backend: sibylfs_exec::host_backend_available(),
            jail_base: std::env::var("TMPDIR").unwrap_or_else(|_| "(system default)".into()),
            commit: commit(&root),
            source_digest: source_digest(&root),
            profile: format!(
                "{} opt-level={} debug={}",
                env!("PERFBENCH_PROFILE"),
                env!("PERFBENCH_OPT_LEVEL"),
                env!("PERFBENCH_DEBUG")
            ),
        }
    }
}

/// The checked-out commit, when the tree is a git checkout.
fn commit(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(r)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.len() - r.len()].trim().to_string())
        })
        .unwrap_or_else(|| format!("unresolved {r}"))
}

/// A digest of the program's sources (`crates/`, `src/`, the root
/// manifest and lock file), identifying the code under test even where the
/// checkout carries no git metadata.
fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    walk(&root.join("src"), &mut files);
    files.sort();
    // FNV-1a over relative paths and contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Everything a run prints.
pub struct Outcome {
    pub env: Env,
    pub setup_times: Vec<f64>,
    /// Reference workload time around the set-up runs, in seconds.
    pub setup_reference_s: f64,
    pub e2e: Option<Metrics>,
    pub layers: Option<Metrics>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub rounds: Vec<RoundMeasure>,
    pub raw_rounds: Vec<RoundMeasure>,
    pub latency_samples: usize,
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    pub fn new(env: Env, (setup_times, setup_reference_s): (Vec<f64>, f64)) -> Outcome {
        Outcome {
            env,
            setup_times,
            setup_reference_s,
            e2e: None,
            layers: None,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            rounds: Vec::new(),
            raw_rounds: Vec::new(),
            latency_samples: 0,
            trace_file: None,
        }
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(why);
        }
    }

    pub fn absorb(&mut self, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.got.failed;
        self.errors.extend(p.got.errors.iter().take(8).cloned());
        self.rounds = p.rounds.clone();
        self.raw_rounds = p.raw_rounds.clone();
        self.latency_samples = p.got.latencies_ms.len();
    }

    pub fn absorb_serve(&mut self, p: &ServePhase) {
        self.attempted += p.replies;
        self.failed += p.failed;
        self.errors.extend(p.errors.iter().take(8).cloned());
        self.rounds = p.rounds.clone();
        self.raw_rounds = p.raw_rounds.clone();
        self.latency_samples = p.rtts_ms.len();
    }

    pub fn print(&self, args: &Args) {
        let e = &self.env;
        println!(
            "perfbench workload={} seed={} seconds={} trace={} scale={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            if args.scale == Scale::Full {
                "full"
            } else {
                "smoke"
            }
        );
        println!(
            "env nproc={} exec_workers={} check_workers={} server_workers={} connections={} \
             host_backend_available={} jail_base={} commit={} source_digest={} build={}",
            e.nproc,
            e.exec_workers,
            e.check_workers,
            e.server_workers,
            e.connections,
            e.host_backend,
            e.jail_base,
            e.commit,
            e.source_digest,
            e.profile
        );
        let failed_share = ratio(self.failed as f64, self.attempted.max(1) as f64);
        println!(
            "rounds={} latency_samples={} attempted={} failed={} setup_runs={}",
            self.rounds.len(),
            self.latency_samples,
            self.attempted,
            self.failed,
            self.setup_times.len()
        );
        for (i, r) in self.raw_rounds.iter().enumerate() {
            println!(
                "round {i} traces={} wall_s={:.4} traces_per_s={:.2} cpu_us_per_trace={:.2} \
                 p50_ms={:.4} p99_ms={:.4} reference_ms={:.4}",
                r.traces,
                r.wall.as_secs_f64(),
                r.rate(),
                r.cpu_us_per_trace(),
                r.p50_ms,
                r.p99_ms,
                r.reference_s * 1e3
            );
        }
        for why in &self.errors {
            println!("FAILED {why}");
        }
        let setup_raw = median(&self.setup_times);
        let mut e2e = self.e2e.clone().unwrap_or_default();
        e2e.put(
            "setup_s",
            setup_raw * time_scale(self.setup_reference_s),
            "s",
        );
        let mut raw = Metrics::from_rounds(&self.raw_rounds);
        raw.put("setup_s", setup_raw, "s");
        let reference: Vec<f64> = self.rounds.iter().map(|r| r.reference_s * 1e3).collect();
        println!(
            "reference_ms rounds_median={:.4} setup={:.4} nominal={} (time metrics are scaled to nominal)",
            median(&reference),
            self.setup_reference_s * 1e3,
            NOMINAL_REFERENCE_S * 1e3
        );
        for (name, value, unit) in &e2e.0 {
            match raw.0.iter().find(|(n, _, _)| n == name) {
                Some((_, r, _)) => println!("metric {name} = {value:.6} {unit} (raw {r:.6})"),
                None => println!("metric {name} = {value:.6} {unit}"),
            }
        }
        println!("metric failed_share = {failed_share} ratio");
        if self.latency_samples < 1000 {
            println!(
                "note latency_ms_p99 rests on {} samples (< 1000): read it as the slow end, \
                 not a 1-in-100 tail",
                self.latency_samples
            );
        }
        if let Some(layers) = &self.layers {
            for (name, value, unit) in &layers.0 {
                println!("layer {name} = {value:.6} {unit}");
            }
        }
        if let Some(path) = &self.trace_file {
            println!("trace_file {}", path.display());
        }
        let shown = if args.trace {
            self.layers.clone().unwrap_or_default()
        } else {
            e2e
        };
        let metrics: Vec<String> = shown
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}
