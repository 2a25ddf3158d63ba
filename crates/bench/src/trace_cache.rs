//! Process-wide cache of generated workload traces.
//!
//! The experiment matrix sweeps the *same* trace across many schemes,
//! core-count columns, crash points, and parameter settings — the fig11
//! grid alone resolves each `(workload, cores, txs, seed)` trace once per
//! scheme, and `evaluate crashfuzz` once per crash point. The
//! [`TraceCache`] makes that sharing structural: every resolution goes
//! through [`TraceCache::get_or_build`], which generates a given key
//! **exactly once per process** (even under concurrent `--jobs` workers)
//! and hands out pointer-bump [`TraceSet`] clones afterwards.
//!
//! Keys are [`TraceKey`]: the workload's [`trace_ident`]
//! (every generation-affecting parameter, not just the display name) plus
//! `(cores, txs_per_core, seed)`. Invalidation is by key — a different
//! parameter is a different key, so stale entries cannot be observed; a
//! changed *generator* changes results only across processes, where no
//! cache survives anyway.
//!
//! [`trace_ident`]: silo_workloads::Workload::trace_ident

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use silo_sim::TraceSet;
use silo_workloads::Workload;

/// Full identity of a generated trace. Equal keys generate identical
/// streams (generation is deterministic), so one cached artifact serves
/// all equal-key requests.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// [`Workload::trace_ident`] of the generating workload.
    pub ident: String,
    /// Core count the trace was generated for.
    pub cores: usize,
    /// Measured transactions per core.
    pub txs_per_core: usize,
    /// Generation seed.
    pub seed: u64,
}

/// One cache slot: the trace (filled exactly once, under the slot lock)
/// plus a per-key generation counter for the exactly-once assertions.
#[derive(Default)]
struct Slot {
    trace: Mutex<Option<TraceSet>>,
    generations: AtomicU64,
}

/// Counter snapshot for diagnostics, CI smokes, and the exactly-once
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Times a generator actually ran (cache misses + disabled-mode runs).
    pub generations: u64,
    /// Requests served from an already-built trace.
    pub hits: u64,
    /// Distinct keys currently resident.
    pub unique_keys: u64,
}

/// Keyed, thread-safe, process-wide store of immutable [`TraceSet`]s.
///
/// The map lock is held only to resolve a key to its slot; generation runs
/// under the slot's own lock, so concurrent requests for *different* keys
/// generate in parallel while concurrent requests for the *same* key block
/// until the single generation finishes.
pub struct TraceCache {
    enabled: AtomicBool,
    hits: AtomicU64,
    uncached_generations: AtomicU64,
    slots: Mutex<HashMap<TraceKey, Arc<Slot>>>,
}

impl TraceCache {
    /// A fresh, empty, enabled cache (tests; production code uses
    /// [`TraceCache::global`]).
    pub fn new() -> Self {
        TraceCache {
            enabled: AtomicBool::new(true),
            hits: AtomicU64::new(0),
            uncached_generations: AtomicU64::new(0),
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The process-wide instance every bench-layer resolution goes
    /// through.
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(TraceCache::new)
    }

    /// Turns caching off (the `--no-trace-cache` escape hatch) or back
    /// on. Disabled, every request regenerates — results are identical
    /// by determinism, only wall-clock and the counters differ.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether caching is active.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Resolves `(workload, cores, txs_per_core, seed)` to its trace,
    /// generating it if (and only if) this is the first request for the
    /// key. The returned [`TraceSet`] is a pointer-bump clone of the
    /// cached artifact.
    pub fn get_or_build(
        &self,
        workload: &dyn Workload,
        cores: usize,
        txs_per_core: usize,
        seed: u64,
    ) -> TraceSet {
        if !self.enabled() {
            self.uncached_generations.fetch_add(1, Ordering::Relaxed);
            return workload.build_trace(cores, txs_per_core, seed);
        }
        let key = TraceKey {
            ident: workload.trace_ident(),
            cores,
            txs_per_core,
            seed,
        };
        let slot = {
            let mut slots = self.slots.lock().expect("trace cache map poisoned");
            Arc::clone(slots.entry(key).or_default())
        };
        let mut trace = slot.trace.lock().expect("trace cache slot poisoned");
        match &*trace {
            Some(cached) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                cached.clone()
            }
            None => {
                slot.generations.fetch_add(1, Ordering::Relaxed);
                let built = workload.build_trace(cores, txs_per_core, seed);
                *trace = Some(built.clone());
                built
            }
        }
    }

    /// Aggregate counters over the whole cache.
    pub fn stats(&self) -> TraceCacheStats {
        let slots = self.slots.lock().expect("trace cache map poisoned");
        let cached_generations: u64 = slots
            .values()
            .map(|s| s.generations.load(Ordering::Relaxed))
            .sum();
        TraceCacheStats {
            generations: cached_generations + self.uncached_generations.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            unique_keys: slots.len() as u64,
        }
    }

    /// `(unique keys, generations)` restricted to one seed — lets tests
    /// assert exactly-once generation for their own keys without seeing
    /// traffic from concurrently running tests (which use other seeds).
    pub fn stats_for_seed(&self, seed: u64) -> (u64, u64) {
        let slots = self.slots.lock().expect("trace cache map poisoned");
        let mut keys = 0;
        let mut generations = 0;
        for (k, s) in slots.iter() {
            if k.seed == seed {
                keys += 1;
                generations += s.generations.load(Ordering::Relaxed);
            }
        }
        (keys, generations)
    }
}

impl Default for TraceCache {
    fn default() -> Self {
        TraceCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_workloads::{ArrivalProcess, BankWorkload, OpenLoop};

    #[test]
    fn same_key_generates_once_and_hits_after() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let a = cache.get_or_build(&w, 1, 4, 99);
        let b = cache.get_or_build(&w, 1, 4, 99);
        assert_eq!(a.content_hash(), b.content_hash());
        assert!(Arc::ptr_eq(&a.streams()[0], &b.streams()[0]));
        let stats = cache.stats();
        assert_eq!(stats.generations, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.unique_keys, 1);
    }

    #[test]
    fn different_params_are_different_keys() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let _ = cache.get_or_build(&w, 1, 4, 99);
        let _ = cache.get_or_build(&w, 1, 8, 99);
        let _ = cache.get_or_build(&w, 2, 4, 99);
        let _ = cache.get_or_build(&w, 1, 4, 100);
        assert_eq!(cache.stats().generations, 4);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn disabled_cache_regenerates_but_matches() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let cached = cache.get_or_build(&w, 1, 4, 99);
        cache.set_enabled(false);
        let fresh = cache.get_or_build(&w, 1, 4, 99);
        assert_eq!(cached.content_hash(), fresh.content_hash());
        assert!(!Arc::ptr_eq(&cached.streams()[0], &fresh.streams()[0]));
        assert_eq!(cache.stats().generations, 2);
    }

    #[test]
    fn equal_keys_give_equal_content_hashes_and_seeds_differ() {
        let w = BankWorkload::default();
        let a = TraceCache::new().get_or_build(&w, 1, 4, 42);
        let b = TraceCache::new().get_or_build(&w, 1, 4, 42);
        assert!(!Arc::ptr_eq(&a.streams()[0], &b.streams()[0]));
        assert_eq!(a.content_hash(), b.content_hash());
        let c = TraceCache::new().get_or_build(&w, 1, 4, 43);
        assert_ne!(a.content_hash(), c.content_hash());
    }

    /// The digest of one closed-loop trace and of its open-loop variant,
    /// pinned: a change to the hash's encoding, or to what it folds in,
    /// moves one of them.
    #[test]
    fn content_hashes_are_pinned() {
        let closed = BankWorkload::default().build_trace(2, 4, 42);
        let open = OpenLoop::new(
            BankWorkload::default(),
            ArrivalProcess::Poisson { mean_gap: 500 },
        )
        .build_trace(2, 4, 42);
        assert_eq!(closed.content_hash(), 0xd247_1ec5_710c_2086);
        assert_eq!(open.content_hash(), 0x112c_b702_8029_1cbe);
    }

    #[test]
    fn concurrent_same_key_requests_generate_exactly_once() {
        let cache = TraceCache::new();
        let seed = 7_777;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let w = BankWorkload::default();
                    let _ = cache.get_or_build(&w, 2, 6, seed);
                });
            }
        });
        let (keys, generations) = cache.stats_for_seed(seed);
        assert_eq!(keys, 1);
        assert_eq!(generations, 1, "8 racing workers, one generation");
        assert_eq!(cache.stats().hits, 7);
    }
}
