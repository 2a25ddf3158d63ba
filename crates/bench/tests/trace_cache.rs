//! Integration tests for the shared trace artifact layer: cache identity,
//! the cache's transparency on the traces it serves, report invariance at
//! any worker count, engine equivalence between owned and Arc-shared
//! streams, and the exactly-once generation guarantee across the fig11
//! grid.
//!
//! The cache is process-global, so every test that reads or counts through
//! it serializes on [`CACHE_LOCK`] and uses seeds unique to this file: a
//! test's counter deltas are then its own traffic.

use std::sync::{Mutex, MutexGuard};

use silo_bench::{registry, run_experiment, ExpParams, TraceCache, TraceCacheStats};
use silo_sim::{Engine, SimConfig};
use silo_workloads::{workload_by_name, Workload};

/// Serializes the tests that go through the global cache.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn cache_lock() -> MutexGuard<'static, ()> {
    CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A cached trace is the trace a fresh build produces.
#[test]
fn cached_trace_matches_fresh_build() {
    let _guard = cache_lock();
    let seed = 90_001;
    let w = workload_by_name("Hash").expect("workload");
    let fresh = w.build_trace(4, 25, seed);
    let cached = TraceCache::global().get_or_build(&w, 4, 25, seed);
    assert_eq!(fresh, cached);
    // And a second lookup hands back the same Arc, not a rebuild.
    let again = TraceCache::global().get_or_build(&w, 4, 25, seed);
    assert!(std::sync::Arc::ptr_eq(
        &cached.streams()[0],
        &again.streams()[0]
    ));
}

/// Arc-shared streams drive the engine to the exact same statistics as
/// the owned `Vec<Vec<Transaction>>` path did before the refactor.
#[test]
fn arc_shared_streams_reproduce_vec_results() {
    let seed = 90_002;
    let w = workload_by_name("TPCC").expect("workload");
    let config = SimConfig::table_ii(2);
    let owned = w.raw_streams(2, 30, seed);
    let trace = w.build_trace(2, 30, seed);

    for scheme in ["Base", "Silo"] {
        let mut a = silo_bench::make_scheme(scheme, &config);
        let via_vec = Engine::new(&config, a.as_mut()).run(owned.clone(), None);
        let mut b = silo_bench::make_scheme(scheme, &config);
        let via_trace = Engine::new(&config, b.as_mut()).run(&trace, None);
        assert_eq!(
            via_vec.stats.to_json().to_string(),
            via_trace.stats.to_json().to_string(),
            "scheme {scheme}: shared streams diverged from owned streams"
        );
    }
}

/// Runs fig11 (small budget) at the given worker count, returning the
/// rendered text and the deterministic report body.
fn fig11_run(jobs: usize, seed: u64) -> (String, String) {
    let spec = registry::find("fig11").expect("fig11 registered");
    let mut params = ExpParams::defaults(&spec);
    params.txs = 40;
    params.seed = seed;
    let run = run_experiment(&spec, &params, jobs);
    (run.text, run.body.to_string())
}

/// `(unique keys, generations)` the global cache gained since `before`.
fn gained(before: TraceCacheStats) -> (u64, u64) {
    let now = TraceCache::global().stats();
    (
        now.unique_keys - before.unique_keys,
        now.generations - before.generations,
    )
}

/// The fig11 grid at `--txs 40` checks both halves of the contract. The
/// cache is invisible: every trace it serves equals a fresh build, and
/// the grid renders the same text and report body serially and across
/// eight workers. And each of the grid's 56 unique trace keys (7
/// benchmarks x 4 core counts x N and 2N transactions per core; the 5
/// schemes share them) is generated exactly once per process, even when
/// the grid runs again.
#[test]
fn fig11_cache_is_invisible_and_generates_each_trace_exactly_once() {
    let _guard = cache_lock();
    let seed = 90_003;
    let before = TraceCache::global().stats();
    let serial = fig11_run(1, seed);
    assert_eq!(gained(before), (56, 56), "one generation per trace key");

    let cores = [1, 2, 4, 8];
    for bench in silo_bench::FIG11_BENCHMARKS {
        let w = workload_by_name(bench).expect("figure workload");
        for cores in cores {
            let txs_per_core = (40 / cores).max(1);
            for txs in [txs_per_core, 2 * txs_per_core] {
                assert_eq!(
                    TraceCache::global().get_or_build(&w, cores, txs, seed),
                    w.build_trace(cores, txs, seed),
                    "{bench}, {cores} cores, {txs} txs/core: cached trace differs"
                );
            }
        }
    }

    // A second pass over the same grid, fanned out across workers, hits
    // the cache for every cell: the generation count must not move.
    let parallel = fig11_run(8, seed);
    assert_eq!(serial, parallel, "report differs (jobs 1 vs jobs 8)");
    assert_eq!(
        gained(before),
        (56, 56),
        "rerunning the grid regenerated traces"
    );
}
