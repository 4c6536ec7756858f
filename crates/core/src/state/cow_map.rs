//! A copy-on-write ordered map with an incremental content hash, for the
//! model's descriptor tables (`OsState`'s open file descriptions and each
//! process's descriptor and directory-handle tables).
//!
//! The checker clones a state for every successor it enumerates and then
//! fingerprints it, so a table that is copied or walked in full on each clone
//! makes every label cost O(open descriptors). A [`CowMap`] keeps both costs
//! independent of its size:
//!
//! * **Clone** bumps one reference count. Entries sit in [`Arc`]-shared
//!   chunks of 64 consecutive keys under an `Arc`-shared ordered spine, so an
//!   update copies the spine (one pointer per chunk) and a single chunk.
//! * **Hash** writes the length and a cached commutative content hash: the
//!   wrapping sum of a well-mixed hash of every entry. `insert`, `remove` and
//!   the [`ValueMut`] guard returned by `get_mut` adjust the sum in O(1).
//! * **Equality** returns early when the spines, or individual chunks, are
//!   the same allocation, and rejects at once when the sums differ.
//! * **Iteration** is in key order, like the `BTreeMap` it replaces.
//!
//! The representation is canonical — a key's chunk is a function of the key
//! and empty chunks are dropped — so equal contents give equal spines
//! whatever the insertion history.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::fxhash::FxHasher64;

/// log2 of the number of consecutive keys one chunk covers.
const CHUNK_BITS: u32 = 6;

/// A key of a [`CowMap`]: an ordered key with a position on the integer line.
pub trait ChunkKey: Copy + Ord + Hash {
    /// The key's position. Must be monotone in the key order (`a < b`
    /// implies `a.position() < b.position()`); keys whose positions differ
    /// only in the low six bits share a chunk.
    fn position(self) -> u64;
}

/// The entries of one chunk, sorted by key; never empty inside a map.
type Chunk<K, V> = Vec<(K, V)>;

/// `(chunk id, chunk)` pairs sorted by chunk id.
type Spine<K, V> = Vec<(u64, Arc<Chunk<K, V>>)>;

/// A copy-on-write ordered map; see the module docs.
pub struct CowMap<K, V> {
    spine: Arc<Spine<K, V>>,
    len: usize,
    /// Wrapping sum of [`entry_hash`] over every entry.
    sum: u64,
}

fn chunk_id<K: ChunkKey>(k: K) -> u64 {
    k.position() >> CHUNK_BITS
}

/// The hash one entry contributes to a map's content hash: FxHash of the
/// pair, finished with the murmur3 64-bit mixer so that every output bit
/// depends on every input bit and sums of entry hashes do not cancel
/// structurally.
fn entry_hash<K: Hash, V: Hash>(k: &K, v: &V) -> u64 {
    let mut h = FxHasher64::default();
    k.hash(&mut h);
    v.hash(&mut h);
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

impl<K, V> CowMap<K, V> {
    /// An empty map.
    pub fn new() -> CowMap<K, V> {
        CowMap { spine: Arc::new(Vec::new()), len: 0, sum: 0 }
    }

    /// The number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter { chunks: self.spine.iter(), entries: [].iter() }
    }

    /// The values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: ChunkKey, V> CowMap<K, V> {
    /// The spine index of `k`'s chunk, and `k`'s index within that chunk.
    fn locate(&self, k: &K) -> Option<(usize, usize)> {
        let c = self.spine.binary_search_by_key(&chunk_id(*k), |(id, _)| *id).ok()?;
        let i = self.spine[c].1.binary_search_by(|(x, _)| x.cmp(k)).ok()?;
        Some((c, i))
    }

    /// The value stored under `k`.
    pub fn get(&self, k: &K) -> Option<&V> {
        let (c, i) = self.locate(k)?;
        Some(&self.spine[c].1[i].1)
    }

    /// Whether an entry for `k` exists.
    pub fn contains_key(&self, k: &K) -> bool {
        self.locate(k).is_some()
    }
}

impl<K: ChunkKey, V: Clone + Hash> CowMap<K, V> {
    /// Insert `v` under `k`, returning the value it replaces.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.sum = self.sum.wrapping_add(entry_hash(&k, &v));
        let id = chunk_id(k);
        let spine = Arc::make_mut(&mut self.spine);
        let c = spine.binary_search_by_key(&id, |(id, _)| *id).unwrap_or_else(|c| {
            spine.insert(c, (id, Arc::new(Vec::new())));
            c
        });
        let chunk = Arc::make_mut(&mut spine[c].1);
        match chunk.binary_search_by(|(x, _)| x.cmp(&k)) {
            Ok(i) => {
                let old = std::mem::replace(&mut chunk[i].1, v);
                self.sum = self.sum.wrapping_sub(entry_hash(&k, &old));
                Some(old)
            }
            Err(i) => {
                chunk.insert(i, (k, v));
                self.len += 1;
                None
            }
        }
    }

    /// Remove the entry for `k`, returning its value.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let (c, i) = self.locate(k)?;
        let spine = Arc::make_mut(&mut self.spine);
        let v = if spine[c].1.len() == 1 {
            // The chunk empties: drop it from the spine without copying it
            // first, unless another map still shares it.
            let (_, chunk) = spine.remove(c);
            Arc::unwrap_or_clone(chunk).swap_remove(0).1
        } else {
            Arc::make_mut(&mut spine[c].1).remove(i).1
        };
        self.len -= 1;
        self.sum = self.sum.wrapping_sub(entry_hash(k, &v));
        Some(v)
    }

    /// A mutable handle on the value under `k`. The map's content hash is
    /// brought up to date when the handle is dropped.
    pub fn get_mut(&mut self, k: &K) -> Option<ValueMut<'_, K, V>> {
        let (c, i) = self.locate(k)?;
        let spine = Arc::make_mut(&mut self.spine);
        let entry = &mut Arc::make_mut(&mut spine[c].1)[i];
        self.sum = self.sum.wrapping_sub(entry_hash(&entry.0, &entry.1));
        Some(ValueMut { entry, sum: &mut self.sum })
    }
}

/// A mutable handle on one value of a [`CowMap`], from
/// [`CowMap::get_mut`]. The entry's old hash has been taken out of the map's
/// content hash; dropping the handle adds the new one back, so a handle that
/// is leaked (`mem::forget`) leaves the map's hash and equality wrong.
pub struct ValueMut<'a, K: Hash, V: Hash> {
    entry: &'a mut (K, V),
    sum: &'a mut u64,
}

impl<K: Hash, V: Hash> Deref for ValueMut<'_, K, V> {
    type Target = V;

    fn deref(&self) -> &V {
        &self.entry.1
    }
}

impl<K: Hash, V: Hash> DerefMut for ValueMut<'_, K, V> {
    fn deref_mut(&mut self) -> &mut V {
        &mut self.entry.1
    }
}

impl<K: Hash, V: Hash> Drop for ValueMut<'_, K, V> {
    fn drop(&mut self) {
        *self.sum = self.sum.wrapping_add(entry_hash(&self.entry.0, &self.entry.1));
    }
}

/// Iterator over a [`CowMap`]'s entries in key order.
pub struct Iter<'a, K, V> {
    chunks: std::slice::Iter<'a, (u64, Arc<Chunk<K, V>>)>,
    entries: std::slice::Iter<'a, (K, V)>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if let Some((k, v)) = self.entries.next() {
                return Some((k, v));
            }
            self.entries = self.chunks.next()?.1.iter();
        }
    }
}

impl<'a, K, V> IntoIterator for &'a CowMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        self.iter()
    }
}

impl<K, V> Clone for CowMap<K, V> {
    fn clone(&self) -> CowMap<K, V> {
        CowMap { spine: Arc::clone(&self.spine), len: self.len, sum: self.sum }
    }
}

impl<K, V> Default for CowMap<K, V> {
    fn default() -> CowMap<K, V> {
        CowMap::new()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for CowMap<K, V> {
    fn eq(&self, other: &CowMap<K, V>) -> bool {
        if self.len != other.len || self.sum != other.sum {
            return false;
        }
        Arc::ptr_eq(&self.spine, &other.spine)
            || (self.spine.len() == other.spine.len()
                && self
                    .spine
                    .iter()
                    .zip(other.spine.iter())
                    .all(|((a, ca), (b, cb))| a == b && (Arc::ptr_eq(ca, cb) || ca == cb)))
    }
}

impl<K: Eq, V: Eq> Eq for CowMap<K, V> {}

impl<K, V> Hash for CowMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len);
        state.write_u64(self.sum);
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for CowMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: ChunkKey, V: Clone + Hash> FromIterator<(K, V)> for CowMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> CowMap<K, V> {
        let mut map = CowMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

/// How much of its structure a map shares with another (test-only probe).
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Sharing {
    /// Whether the two spines are one allocation.
    pub spine: bool,
    /// The number of chunks in the probed map.
    pub chunks: usize,
    /// How many of them are the same allocation as a chunk of the other map.
    pub shared_chunks: usize,
}

#[cfg(test)]
impl<K, V> CowMap<K, V> {
    /// How much of `self`'s structure is shared with `other`.
    pub(crate) fn sharing_with(&self, other: &CowMap<K, V>) -> Sharing {
        let shared_chunks = self
            .spine
            .iter()
            .filter(|(id, c)| other.spine.iter().any(|(oid, oc)| oid == id && Arc::ptr_eq(c, oc)))
            .count();
        Sharing {
            spine: Arc::ptr_eq(&self.spine, &other.spine),
            chunks: self.spine.len(),
            shared_chunks,
        }
    }

    /// Recompute the content hash from scratch.
    fn recomputed_sum(&self) -> u64
    where
        K: Hash,
        V: Hash,
    {
        self.iter().fold(0u64, |s, (k, v)| s.wrapping_add(entry_hash(k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    struct Key(i32);

    impl ChunkKey for Key {
        fn position(self) -> u64 {
            // Flip the sign bit so negative keys sort below non-negative ones.
            (i64::from(self.0) as u64) ^ (1 << 63)
        }
    }

    /// SplitMix64: a small seeded generator for the reference tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A key from a mix of dense low keys spanning several chunks, a
        /// few negative ones, and sparse far-away ones.
        fn key(&mut self) -> Key {
            match self.below(10) {
                0 => Key(1_000_000 + self.below(3) as i32),
                1 => Key(-(self.below(70) as i32)),
                2 => Key(i32::MAX - self.below(2) as i32),
                _ => Key(self.below(300) as i32),
            }
        }
    }

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = FxHasher64::default();
        t.hash(&mut h);
        h.finish()
    }

    fn assert_matches(map: &CowMap<Key, u64>, reference: &BTreeMap<Key, u64>) {
        assert_eq!(map.len(), reference.len());
        assert!(map.iter().eq(reference.iter()), "iteration order or contents differ");
        assert_eq!(map.sum, map.recomputed_sum(), "cached hash is stale");
        assert!(map.spine.iter().all(|(_, c)| !c.is_empty()), "empty chunk kept");
    }

    #[test]
    fn random_operations_match_a_btreemap() {
        for seed in 0..20 {
            let mut rng = Rng(seed);
            let mut map = CowMap::new();
            let mut reference = BTreeMap::new();
            let mut snapshots = Vec::new();
            for step in 0..600 {
                let k = rng.key();
                match rng.below(4) {
                    0 | 1 => {
                        let v = rng.next();
                        assert_eq!(map.insert(k, v), reference.insert(k, v));
                    }
                    2 => assert_eq!(map.remove(&k), reference.remove(&k)),
                    _ => {
                        let delta = rng.below(5);
                        match (map.get_mut(&k), reference.get_mut(&k)) {
                            (Some(mut v), Some(r)) => {
                                *v += delta;
                                *r += delta;
                            }
                            (None, None) => {}
                            _ => panic!("get_mut disagrees on {k:?}"),
                        }
                    }
                }
                assert_eq!(map.get(&k), reference.get(&k));
                assert_eq!(map.contains_key(&k), reference.contains_key(&k));
                // Keep some old versions around: updates must not leak into
                // the clones that share their structure.
                if step % 50 == 0 {
                    snapshots.push((map.clone(), reference.clone()));
                }
            }
            assert_matches(&map, &reference);
            for (snap, snap_ref) in &snapshots {
                assert_matches(snap, snap_ref);
            }
        }
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut rng = Rng(7);
        let entries: BTreeMap<Key, u64> = (0..400).map(|_| (rng.key(), rng.next())).collect();
        let forward: CowMap<Key, u64> = entries.iter().map(|(k, v)| (*k, *v)).collect();
        let backward: CowMap<Key, u64> = entries.iter().rev().map(|(k, v)| (*k, *v)).collect();
        // A third map reaches the same contents through detours.
        let mut detour = CowMap::new();
        for (k, v) in entries.iter().rev() {
            detour.insert(Key(k.0.wrapping_add(64)), 0);
            detour.insert(*k, v.wrapping_add(1));
        }
        for (k, v) in &entries {
            if !entries.contains_key(&Key(k.0.wrapping_add(64))) {
                detour.remove(&Key(k.0.wrapping_add(64)));
            }
            *detour.get_mut(k).unwrap() = *v;
        }
        for map in [&backward, &detour] {
            assert_matches(map, &entries);
            assert_eq!(&forward, map);
            assert_eq!(hash_of(&forward), hash_of(map));
        }
        let mut other = forward.clone();
        *other.get_mut(entries.keys().next().unwrap()).unwrap() ^= 1;
        assert_ne!(forward, other);
        assert_ne!(hash_of(&forward), hash_of(&other));
    }

    #[test]
    fn updates_copy_one_chunk_and_share_the_rest() {
        let base: CowMap<Key, u64> = (0..640).map(|k| (Key(k), 0)).collect();
        let mut next = base.clone();
        assert_eq!(
            next.sharing_with(&base),
            Sharing { spine: true, chunks: 10, shared_chunks: 10 }
        );
        *next.get_mut(&Key(300)).unwrap() = 1;
        assert_eq!(
            next.sharing_with(&base),
            Sharing { spine: false, chunks: 10, shared_chunks: 9 }
        );
        // Looking up a missing key unshares nothing.
        let mut probe = base.clone();
        assert!(probe.get_mut(&Key(5000)).is_none());
        assert!(probe.remove(&Key(-1)).is_none());
        assert!(probe.sharing_with(&base).spine);
    }
}
