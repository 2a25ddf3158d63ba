//! Integration tests for the shared trace artifact layer: cache identity,
//! the cache's transparency on the traces it serves, report invariance at
//! any worker count, engine equivalence between owned and Arc-shared
//! streams, and the run-scoped lifetime: each run generates each of its
//! keys exactly once and keeps none of them after its last cell, and one
//! scope over two experiments generates the traces they share once.
//!
//! The cache is process-global, so every test that reads or counts through
//! it serializes on [`CACHE_LOCK`] and uses seeds unique to this file: a
//! test's counter deltas are then its own traffic.

use std::sync::{Mutex, MutexGuard};

use silo_bench::{
    registry, render_finished, run_cells, run_experiment, CellLabel, CellSpec, CellWork, ExpParams,
    FaultSpec, RunSpec, TraceCache, TraceCacheStats, TraceScope, WorkloadSpec,
};
use silo_sim::{Engine, FaultModel, SimConfig};
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
/// cache is invisible: the grid renders the same text and report body
/// serially and across eight workers, and it runs on traces equal to
/// fresh builds. And each run generates each of the grid's 56 unique
/// trace keys (7 benchmarks x 4 core counts x N and 2N transactions per
/// core; the 5 schemes share them) exactly once and keeps none after its
/// last cell, so the rerun generates its own 56.
#[test]
fn fig11_cache_is_invisible_and_generates_each_trace_exactly_once() {
    let _guard = cache_lock();
    let seed = 90_003;
    let before = TraceCache::global().stats();
    let serial = fig11_run(1, seed);
    assert_eq!(gained(before), (56, 56), "one generation per trace key");
    assert_eq!(TraceCache::global().stats().resident, before.resident);

    let parallel = fig11_run(8, seed);
    assert_eq!(serial, parallel, "report differs (jobs 1 vs jobs 8)");
    assert_eq!(
        gained(before),
        (112, 112),
        "each run generates its 56 keys once"
    );
    assert_eq!(TraceCache::global().stats().resident, before.resident);

    // Fetched outside any run, the grid's keys stay resident, each checked
    // against a fresh build...
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
    // ...and a third run reads exactly those: it resolves the 56 keys,
    // generates none, and renders what the first run rendered.
    let pinned = TraceCache::global().stats();
    assert_eq!(pinned.resident - before.resident, 56);
    assert_eq!(
        fig11_run(8, seed),
        serial,
        "report differs on pinned traces"
    );
    assert_eq!(gained(pinned), (56, 0), "the grid read the pinned traces");
}

/// One trace scope over fig11 and fig12, as `evaluate all` opens over its
/// experiments: fig12 repeats fig11's grid, and with the result store off
/// it runs every cell again on the traces fig11 generated, so the pair
/// costs the grid's 56 generations, not 112, and leaves none resident.
#[test]
fn one_scope_over_two_experiments_generates_what_they_share_once() {
    let _guard = cache_lock();
    let seed = 90_005;
    let specs = ["fig11", "fig12"].map(|name| registry::find(name).expect("registered"));
    let params = specs.each_ref().map(|spec| {
        let mut params = ExpParams::defaults(spec);
        params.txs = 40;
        params.seed = seed;
        params
    });
    let cells = [0, 1].map(|i| specs[i].build(&params[i]));
    let before = TraceCache::global().stats();
    let scope = TraceScope::open(cells.iter().flatten());
    let finished = cells.map(|cells| scope.run_cells(cells, 2));
    drop(scope);
    assert_eq!(gained(before), (56, 56), "fig12 reads fig11's traces");
    assert_eq!(TraceCache::global().stats().resident, before.resident);
    for i in [0, 1] {
        let alone = run_experiment(&specs[i], &params[i], 2);
        let scoped = render_finished(&specs[i], &params[i], &finished[i]);
        assert_eq!(scoped.text, alone.text, "{}", specs[i].name);
        assert_eq!(scoped.body.to_string(), alone.body.to_string());
    }
}

/// One cell of every kind of work, in one run on two workers: the run
/// generates each key it fetches exactly once, and none stays resident
/// after it, so every trace a recipe fetches belongs to its cell's
/// family. The battery cell violates, so its shrinker fetches halved
/// traces; the two large-transaction cells form one unit, which fetches
/// one 8-core trace.
#[test]
fn every_kind_of_cell_drops_what_it_fetched_after_one_generation_each() {
    let _guard = cache_lock();
    let seed = 90_004;
    let run = |scheme: &str, bench: &str, cores| {
        RunSpec::table_ii(scheme, WorkloadSpec::plain(bench), cores, 10)
    };
    let works = [
        CellWork::Delta(run("Base", "Hash", 2)),
        CellWork::Delta(run("Silo", "hash", 2)),
        CellWork::Full {
            run: run("Silo", "Btree", 2),
            record_throughput: true,
        },
        CellWork::Delta(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::batched("Btree", 3),
            2,
            10,
        )),
        CellWork::Profiled(run("Silo", "Queue", 2)),
        CellWork::Wear(run("Silo", "Array", 1)),
        CellWork::TraceStats {
            workload: "RBtree".into(),
            txs: 20,
        },
        CellWork::LargeTx {
            workload: "YCSB".into(),
            mult: 2,
            txs: 64,
        },
        CellWork::LargeTx {
            workload: "YCSB".into(),
            mult: 4,
            txs: 64,
        },
        CellWork::Recovery {
            txs: 40,
            crash_at: 1_000,
        },
        CellWork::Recovery {
            txs: 40,
            crash_at: 5_000,
        },
        CellWork::CrashSweep {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 8,
            fault: FaultSpec::Battery(64),
            points: 4,
            point: None,
        },
        CellWork::Fuzz {
            scheme: "Base".into(),
            workload: "TPCC".into(),
            txs_per_core: 4,
            execs: 4,
            fault: Some(FaultModel::bounded_battery(64)),
            crash_event: None,
            recovery_crash: None,
            arrival: None,
        },
    ];
    let cells: Vec<CellSpec> = works
        .into_iter()
        .map(|work| CellSpec::new(CellLabel::default(), seed, work))
        .collect();
    let before = TraceCache::global().stats();
    let done = run_cells(cells, 2);
    let (keys, generations) = gained(before);
    assert!(generations > 0);
    assert_eq!(generations, keys, "a key generated twice in one run");
    let after = TraceCache::global().stats();
    assert_eq!(
        after.resident, before.resident,
        "a trace outlived its cells"
    );
    let sweep = &done[11].1;
    assert!(
        sweep.value("shrunk_txs") < 16.0,
        "the battery cell shrinks its stream"
    );
}

/// A Fig 14 unit, then a one-core grid cell of the same workload at 50
/// transactions per core, in one run at `--jobs 1`. The unit reads its
/// probe from its own 8-core trace, so no key belongs to both families:
/// a one-core 50-transaction probe would be the grid cell's trace, which
/// the run would build again after the unit's family ended.
#[test]
fn a_large_transaction_unit_shares_no_key_with_a_one_core_grid_cell() {
    let _guard = cache_lock();
    let seed = 90_006;
    let mut works: Vec<CellWork> = [1, 2]
        .map(|mult| CellWork::LargeTx {
            workload: "Hash".into(),
            mult,
            txs: 40,
        })
        .into();
    works.push(CellWork::Delta(RunSpec::table_ii(
        "Silo",
        WorkloadSpec::plain("Hash"),
        1,
        50,
    )));
    let cells: Vec<CellSpec> = works
        .into_iter()
        .map(|work| CellSpec::new(CellLabel::default(), seed, work))
        .collect();
    let before = TraceCache::global().stats();
    run_cells(cells, 1);
    let (keys, generations) = gained(before);
    assert_eq!((keys, generations), (3, 3), "one generation per key");
    assert_eq!(TraceCache::global().stats().resident, before.resident);
}
