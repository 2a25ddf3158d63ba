//! A small, seed-free, deterministic multiply-xor hasher for hot-path maps.
//!
//! The simulator's inner loop is dominated by map lookups keyed by small
//! integers (media line indices, word addresses, transaction tags). The
//! standard library's default SipHash is DoS-resistant but an order of
//! magnitude slower than necessary for trusted keys. This module provides an
//! FxHash-style hasher (the rustc / Firefox multiply-rotate-xor scheme)
//! implemented in-tree so the workspace keeps building offline with no new
//! dependencies.
//!
//! Determinism: the hasher is seed-free, so a given key set always produces
//! the same table layout and the same iteration order within one build. No
//! simulator output may *depend* on that order — reports must stay
//! byte-identical under any hasher — which is what [`set_scramble_seed`]
//! exists to verify: tests flip the seed to force a different bucket order
//! and assert the rendered reports do not change.
//!
//! Digests that must outlive one build — content hashes, coverage
//! signatures — use [`Fnv1a`] instead, the byte-stream FNV-1a 64.
//!
//! # Examples
//!
//! ```
//! use silo_types::FxHashMap;
//!
//! let mut m: FxHashMap<u64, u64> = FxHashMap::default();
//! m.insert(7, 42);
//! assert_eq!(m[&7], 42);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// The multiplier from the FNV-inspired Fx scheme: a large odd constant with
/// well-mixed bits (`0x51_7c_c1_b7_27_22_0a_95`), chosen so sequential keys
/// spread across buckets.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Process-wide scramble seed, 0 in normal operation. Tests set it non-zero
/// to start every hasher from a different state, which permutes bucket
/// (iteration) order without changing lookup semantics — the lever for the
/// hash-order-independence tests.
static SCRAMBLE: AtomicU64 = AtomicU64::new(0);

/// Sets the process-wide scramble seed picked up by every
/// [`FxBuildHasher`] created afterwards. **Test-only lever**: production code
/// must leave it at 0 so runs stay deterministic; tests use it to prove that
/// no rendered output depends on map iteration order.
pub fn set_scramble_seed(seed: u64) {
    SCRAMBLE.store(seed, Ordering::Relaxed);
}

/// Returns the current process-wide scramble seed (0 in normal operation).
pub fn scramble_seed() -> u64 {
    SCRAMBLE.load(Ordering::Relaxed)
}

/// The streaming hasher state: `state = (rotl5(state) ^ chunk) * K` per
/// 8-byte chunk, the classic Fx recurrence.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            let (chunk, tail) = rest.split_at(8);
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
            rest = tail;
        }
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            // Fold the tail length in so "ab" + "" and "a" + "b" differ.
            self.add(u64::from_le_bytes(buf) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Builds [`FxHasher`]s. `Default` snapshots the process-wide scramble seed
/// (0 outside tests), so every map created in normal operation hashes
/// identically across runs, builds, and platforms.
#[derive(Clone, Copy, Debug)]
pub struct FxBuildHasher {
    seed: u64,
}

impl Default for FxBuildHasher {
    #[inline]
    fn default() -> Self {
        FxBuildHasher {
            seed: scramble_seed(),
        }
    }
}

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: self.seed }
    }
}

/// A `HashMap` using the deterministic in-tree Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the deterministic in-tree Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// FNV-1a 64 over a byte stream: the digest behind content hashes that
/// must stay byte-identical across processes, builds and hosts (cell spec
/// hashes, recovered-image digests, coverage signatures, fuzz RNG seeds).
/// Every integer is fed as its little-endian bytes, `usize` and `isize`
/// (and so lengths and enum discriminants) as eight of them, so no digest
/// depends on the host, and a derived [`Hash`](std::hash::Hash) feeds it
/// as it feeds any [`Hasher`].
///
/// ```
/// use std::hash::Hasher;
/// use silo_types::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a 64 offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    /// Folds in `bytes`, one FNV-1a step each.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u16(&mut self, v: u16) {
        self.write(&v.to_le_bytes());
    }

    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    /// Eight bytes on every host, as a `u64`. (Signed integers come
    /// through their unsigned width, `isize` through this one.)
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The digest of everything written so far.
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher { seed: 0 }.hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&0xdead_beefu64), hash_of(&0xdead_beefu64));
        assert_eq!(hash_of(&"silo"), hash_of(&"silo"));
    }

    #[test]
    fn distinct_small_keys_hash_distinctly() {
        // Sequential media line indices are the common key shape; they must
        // not collapse onto one bucket chain.
        let hashes: std::collections::HashSet<u64> = (0u64..1024).map(|k| hash_of(&k)).collect();
        assert_eq!(hashes.len(), 1024);
    }

    #[test]
    fn byte_tail_is_length_sensitive() {
        let a = {
            let mut h = FxHasher::default();
            h.write(b"ab");
            h.finish()
        };
        let b = {
            let mut h = FxHasher::default();
            h.write(b"ab\0");
            h.finish()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        let digest = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            h.finish(),
            digest(&[8, 7, 6, 5, 4, 3, 2, 1]),
            "little-endian"
        );
    }

    #[test]
    fn a_derived_hash_feeds_fnv1a_little_endian_integers() {
        #[derive(Hash)]
        enum Kind {
            _First,
            _Second,
            Third,
        }
        let mut derived = Fnv1a::new();
        (7u64, 8usize, -1isize, Kind::Third).hash(&mut derived);
        let mut explicit = Fnv1a::new();
        for v in [7, 8, u64::MAX, 2] {
            explicit.write_u64(v);
        }
        assert_eq!(derived.finish(), explicit.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let s: FxHashSet<u64> = [1, 2, 3].into_iter().collect();
        assert!(s.contains(&3));
    }

    #[test]
    fn scramble_seed_changes_hashes_not_semantics() {
        let base = hash_of(&42u64);
        set_scramble_seed(0x9e37_79b9_7f4a_7c15);
        let scrambled = FxBuildHasher::default().hash_one(42u64);
        set_scramble_seed(0);
        assert_ne!(base, scrambled, "seed must perturb bucket placement");
        // Lookup semantics are untouched: a map built under one seed still
        // resolves its own keys.
        set_scramble_seed(7);
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..64 {
            m.insert(k, k * 2);
        }
        set_scramble_seed(0);
        for k in 0..64 {
            assert_eq!(m[&k], k * 2);
        }
    }
}
