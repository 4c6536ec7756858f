//! Known answers for every verdict the benchmark sees.
//!
//! * sim `linux/ext4`, `long_trace`, `contention` and `serve`: every trace
//!   is accepted (the generators are documented to check clean).
//! * sim `linux/sshfs-tmpfs`: the fixed suite deviates exactly as the
//!   committed, reviewed list in `data/sshfs_tmpfs_deviations.tsv` says;
//!   the seeded random batch may deviate only in ways one of the profile's
//!   declared limitations explains.
//! * `host_suite`: verdicts agree with a sequential `check_trace` of the
//!   same traces (checked after the timed phase).
//!
//! On top of that, a seeded sample of pipelined verdicts is compared byte
//! for byte with a sequential `check_trace` + `render_checked_trace`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

use sibylfs_check::{CheckedTrace, Deviation};

/// A per-trace verdict check, run on the checker thread right after the
/// verdict is rendered. `key` identifies the trace within the workload.
pub trait Verify: Send + Sync {
    fn verify(&self, key: usize, checked: &CheckedTrace, verdict: &str) -> Result<(), String>;
}

/// Every trace must be accepted with no deviations.
pub struct AllAccepted;

impl Verify for AllAccepted {
    fn verify(&self, _key: usize, c: &CheckedTrace, _verdict: &str) -> Result<(), String> {
        if c.accepted && c.deviations.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: expected accepted, got {} deviation(s)",
                c.name,
                c.deviations.len()
            ))
        }
    }
}

/// The SFTP limitations `linux/sshfs-tmpfs` declares, as far as they show
/// in a trace checked against the Linux model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Limitation {
    NoLinkCounts,
    RenameNonemptyEperm,
    CreationOwnerRoot,
    ForcedUmask,
}

impl Limitation {
    fn parse(s: &str) -> Option<Limitation> {
        Some(match s {
            "no_link_counts" => Limitation::NoLinkCounts,
            "rename_nonempty_eperm" => Limitation::RenameNonemptyEperm,
            "creation_owner_root" => Limitation::CreationOwnerRoot,
            "forced_umask" => Limitation::ForcedUmask,
            _ => return None,
        })
    }
}

fn stat_fields(v: &str) -> Option<BTreeMap<&str, &str>> {
    let body = v.strip_prefix("RV_stat {")?.strip_suffix('}')?;
    body.split("; ").map(|kv| kv.split_once('=')).collect()
}

/// Which declared limitation explains a deviation, if any.
pub fn explain(d: &Deviation) -> Option<Limitation> {
    if d.function == "rename" && d.observed == "EPERM" {
        return d
            .allowed
            .iter()
            .any(|a| a == "ENOTEMPTY" || a == "EEXIST")
            .then_some(Limitation::RenameNonemptyEperm);
    }
    if !matches!(d.function.as_str(), "stat" | "lstat" | "fstat") {
        return None;
    }
    let seen = stat_fields(&d.observed)?;
    d.allowed.iter().find_map(|a| {
        let want = stat_fields(a)?;
        if want.len() != seen.len() {
            return None;
        }
        let diff: BTreeSet<&str> = seen
            .iter()
            .filter(|(k, v)| want.get(*k) != Some(v))
            .map(|(k, _)| *k)
            .collect();
        let only = |keys: &[&str]| !diff.is_empty() && diff.iter().all(|k| keys.contains(k));
        if only(&["nlink"]) && seen["nlink"] == "1" {
            Some(Limitation::NoLinkCounts)
        } else if only(&["uid", "gid"]) && seen["uid"] == "0" {
            Some(Limitation::CreationOwnerRoot)
        } else if only(&["mode"]) && umasked(want["mode"], seen["mode"]) {
            Some(Limitation::ForcedUmask)
        } else {
            None
        }
    })
}

/// Whether `seen` is `want` with the forced `0o022` umask applied.
fn umasked(want: &str, seen: &str) -> bool {
    let oct = |s: &str| u32::from_str_radix(s.trim_start_matches("0o"), 8).ok();
    matches!((oct(want), oct(seen)), (Some(w), Some(s)) if s == w & !0o022)
}

type Signature = Vec<(String, String, Limitation)>;

/// The reviewed deviation list for the fixed suite on sshfs.
pub struct SshfsKnown {
    by_trace: HashMap<String, Signature>,
    /// Keys below this index belong to the fixed suite; later keys are the
    /// seeded random batch.
    fixed: usize,
}

pub const SSHFS_LIST: &str = include_str!("../data/sshfs_tmpfs_deviations.tsv");

impl SshfsKnown {
    pub fn load(fixed: usize) -> Result<SshfsKnown, String> {
        let mut by_trace: HashMap<String, Signature> = HashMap::new();
        for (i, line) in SSHFS_LIST.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.splitn(4, '\t').collect();
            let [trace, function, tag, observed] = f[..] else {
                return Err(format!("deviation list line {}: expected 4 fields", i + 1));
            };
            let tag = Limitation::parse(tag).ok_or_else(|| {
                format!("deviation list line {}: unknown limitation {tag}", i + 1)
            })?;
            by_trace.entry(trace.to_string()).or_default().push((
                function.to_string(),
                observed.to_string(),
                tag,
            ));
        }
        for sig in by_trace.values_mut() {
            sig.sort();
        }
        Ok(SshfsKnown { by_trace, fixed })
    }

    #[cfg(test)]
    fn deviations(&self) -> usize {
        self.by_trace.values().map(Vec::len).sum()
    }

    #[cfg(test)]
    fn traces(&self) -> usize {
        self.by_trace.len()
    }
}

impl Verify for SshfsKnown {
    fn verify(&self, key: usize, c: &CheckedTrace, _verdict: &str) -> Result<(), String> {
        if c.accepted != c.deviations.is_empty() {
            return Err(format!("{}: verdict and deviation list disagree", c.name));
        }
        let mut seen = Vec::with_capacity(c.deviations.len());
        for d in &c.deviations {
            let tag = explain(d).ok_or_else(|| {
                format!(
                    "{}: line {}: {} observed {} is not explained by a declared sshfs limitation",
                    c.name, d.lineno, d.function, d.observed
                )
            })?;
            seen.push((d.function.clone(), d.observed.clone(), tag));
        }
        if key >= self.fixed {
            return Ok(());
        }
        seen.sort();
        let want = self.by_trace.get(&c.name).map(Vec::as_slice).unwrap_or(&[]);
        if seen == want {
            Ok(())
        } else {
            Err(format!(
                "{}: deviations {seen:?} differ from the known answer {want:?}",
                c.name
            ))
        }
    }
}

/// Verdict texts of a seeded sample of keys, kept the first time each is
/// seen; a later round must render the same text again.
pub struct Sampled<V> {
    inner: V,
    keys: BTreeSet<usize>,
    texts: Mutex<BTreeMap<usize, String>>,
}

impl<V: Verify> Sampled<V> {
    pub fn new(inner: V, keys: BTreeSet<usize>) -> Sampled<V> {
        Sampled {
            inner,
            keys,
            texts: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn keys_len(&self) -> usize {
        self.keys.len()
    }

    pub fn texts(&self) -> BTreeMap<usize, String> {
        self.texts.lock().expect("sample store poisoned").clone()
    }
}

impl<V: Verify> Verify for Sampled<V> {
    fn verify(&self, key: usize, c: &CheckedTrace, verdict: &str) -> Result<(), String> {
        self.inner.verify(key, c, verdict)?;
        if !self.keys.contains(&key) {
            return Ok(());
        }
        let mut texts = self.texts.lock().expect("sample store poisoned");
        match texts.get(&key) {
            Some(prev) if prev != verdict => {
                Err(format!("{}: verdict text changed between rounds", c.name))
            }
            Some(_) => Ok(()),
            None => {
                texts.insert(key, verdict.to_string());
                Ok(())
            }
        }
    }
}

/// `count` distinct keys below `n`, chosen by the seed.
pub fn sample_keys(seed: u64, n: usize, count: usize) -> BTreeSet<usize> {
    let mut rng = crate::rng::Rng::new(seed ^ 0x5A3B_1E5E);
    let mut out = BTreeSet::new();
    while out.len() < count.min(n) {
        out.insert(rng.below(n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(function: &str, observed: &str, allowed: &[&str]) -> Deviation {
        Deviation {
            lineno: 1,
            function: function.into(),
            call: String::new(),
            observed: observed.into(),
            allowed: allowed.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn committed_list_is_consistent() {
        let known = SshfsKnown::load(usize::MAX).unwrap();
        assert_eq!(known.traces(), 55);
        assert_eq!(known.deviations(), 56);
    }

    #[test]
    fn declared_limitations_explain_only_their_own_shapes() {
        let st = |nlink: u32, uid: u32, mode: &str| {
            format!(
                "RV_stat {{kind=FILE; size=0; nlink={nlink}; mode={mode}; uid={uid}; gid={uid}}}"
            )
        };
        let d = dev("stat", &st(1, 0, "0o644"), &[&st(2, 0, "0o644")]);
        assert_eq!(explain(&d), Some(Limitation::NoLinkCounts));
        let d = dev("stat", &st(1, 0, "0o600"), &[&st(1, 1000, "0o600")]);
        assert_eq!(explain(&d), Some(Limitation::CreationOwnerRoot));
        let d = dev("stat", &st(1, 0, "0o755"), &[&st(1, 0, "0o777")]);
        assert_eq!(explain(&d), Some(Limitation::ForcedUmask));
        let d = dev("rename", "EPERM", &["EEXIST", "ENOTEMPTY"]);
        assert_eq!(explain(&d), Some(Limitation::RenameNonemptyEperm));
        // Not a declared limitation: wrong size, wrong errno, wrong call.
        assert_eq!(
            explain(&dev("stat", &st(1, 0, "0o644"), &[&st(3, 1000, "0o644")])),
            None
        );
        assert_eq!(explain(&dev("rename", "EIO", &["ENOTEMPTY"])), None);
        assert_eq!(explain(&dev("unlink", "EPERM", &["ENOTEMPTY"])), None);
    }
}
