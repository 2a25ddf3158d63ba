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
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Counter snapshot for diagnostics, CI smokes, and the exactly-once
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Times a generator actually ran.
    pub generations: u64,
    /// Requests served from an already-built trace.
    pub hits: u64,
    /// Distinct keys currently resident.
    pub unique_keys: u64,
}

/// Keyed, thread-safe, process-wide store of immutable [`TraceSet`]s.
///
/// Each key owns one `OnceLock` slot. The map lock is held only to resolve
/// a key to its slot, and generation runs in the slot's `get_or_init`, so
/// concurrent requests for *different* keys generate in parallel while
/// concurrent requests for the *same* key block until the single
/// generation finishes. A generator that panics leaves its slot empty for
/// the next request.
#[derive(Default)]
pub struct TraceCache {
    hits: AtomicU64,
    generations: AtomicU64,
    slots: Mutex<HashMap<TraceKey, Arc<OnceLock<TraceSet>>>>,
}

impl TraceCache {
    /// A fresh, empty cache (tests; production code uses
    /// [`TraceCache::global`]).
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The process-wide instance every bench-layer resolution goes
    /// through.
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(TraceCache::new)
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
        let key = TraceKey {
            ident: workload.trace_ident(),
            cores,
            txs_per_core,
            seed,
        };
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("trace cache map poisoned")
                .entry(key)
                .or_default(),
        );
        let mut generated = false;
        let trace = slot.get_or_init(|| {
            generated = true;
            self.generations.fetch_add(1, Ordering::Relaxed);
            workload.build_trace(cores, txs_per_core, seed)
        });
        if !generated {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        trace.clone()
    }

    /// Aggregate counters over the whole cache.
    pub fn stats(&self) -> TraceCacheStats {
        TraceCacheStats {
            generations: self.generations.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            unique_keys: self.slots.lock().expect("trace cache map poisoned").len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_workloads::BankWorkload;

    #[test]
    fn same_key_generates_once_and_hits_after() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let a = cache.get_or_build(&w, 1, 4, 99);
        let b = cache.get_or_build(&w, 1, 4, 99);
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
    fn equal_keys_give_equal_traces_and_seeds_differ() {
        let w = BankWorkload::default();
        let a = TraceCache::new().get_or_build(&w, 1, 4, 42);
        let b = TraceCache::new().get_or_build(&w, 1, 4, 42);
        assert!(!Arc::ptr_eq(&a.streams()[0], &b.streams()[0]));
        assert_eq!(a, b);
        let c = TraceCache::new().get_or_build(&w, 1, 4, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn concurrent_same_key_requests_generate_exactly_once() {
        let cache = TraceCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let w = BankWorkload::default();
                    let _ = cache.get_or_build(&w, 2, 6, 7_777);
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.unique_keys, 1);
        assert_eq!(stats.generations, 1, "8 racing workers, one generation");
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn a_panicking_generator_leaves_its_slot_empty_for_the_next_request() {
        /// Panics on its first generation, then builds the Bank trace.
        struct FlakyOnce(std::sync::atomic::AtomicBool);
        impl Workload for FlakyOnce {
            fn name(&self) -> &'static str {
                "Flaky"
            }
            fn trace_ident(&self) -> String {
                "Flaky".into()
            }
            fn raw_streams(
                &self,
                cores: usize,
                txs_per_core: usize,
                seed: u64,
            ) -> Vec<Vec<silo_sim::Transaction>> {
                assert!(
                    self.0.swap(true, Ordering::Relaxed),
                    "first generation fails"
                );
                BankWorkload::default().raw_streams(cores, txs_per_core, seed)
            }
        }
        let cache = TraceCache::new();
        let w = FlakyOnce(Default::default());
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&w, 1, 4, 5)
        }));
        assert!(first.is_err());
        let trace = cache.get_or_build(&w, 1, 4, 5);
        assert_eq!(trace, BankWorkload::default().build_trace(1, 4, 5));
        let stats = cache.stats();
        assert_eq!(
            (stats.generations, stats.hits, stats.unique_keys),
            (2, 0, 1)
        );
    }
}
