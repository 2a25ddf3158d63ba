//! Execution units: the fault cells of one crash target, and the
//! multiplier cells of one Fig 14 workload, each run as one unit.
//!
//! `crashfuzz` builds one sweep cell per scheme × workload × fault. The
//! cells of one scheme × workload share a unit key (every sweep field but
//! the fault, and the seed), so the runner hands them to one worker
//! together and the result store runs the ones it cannot serve in one
//! call, which simulates their clean run and walks it once for all of
//! them. `fig14` builds one large-transaction cell per workload ×
//! multiplier, and the multipliers of one workload, budget and seed share
//! one trace and one setup run the same way. None of that may show: every
//! cell's outcome from its unit must equal the cell's own run (executed
//! alone, or from scratch), the store must count and persist each cell as
//! its own, and reports must not depend on the worker count.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use silo_bench::{
    registry, run_cells, run_with_scheme, Batched, CellLabel, CellOutcome, CellSpec, CellWork,
    ExpParams, FaultSpec, RunOptions, ALL_SCHEMES,
};
use silo_core::SiloScheme;
use silo_sim::SimConfig;
use silo_workloads::{workload_by_name, Workload};

/// The fault models of a default sweep.
const FAULTS: [FaultSpec; 3] = [
    FaultSpec::OpBoundary,
    FaultSpec::TornLine(64),
    FaultSpec::Battery(64 * 1024),
];

/// One Hash sweep cell per scheme × fault, 12 transactions per core.
fn sweeps(
    schemes: &[&str],
    faults: &[FaultSpec],
    point: Option<u64>,
    checkpoints: bool,
) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for scheme in schemes {
        for &fault in faults {
            let work = CellWork::CrashSweep {
                scheme: scheme.to_string(),
                workload: "Hash".into(),
                txs_per_core: 12,
                fault,
                points: 4,
                point,
            };
            let label = CellLabel::swc(scheme, "Hash", 2).with_param(format!("{fault:?}"));
            let options = RunOptions {
                checkpoints,
                ..RunOptions::default()
            };
            cells.push(CellSpec::new(label, 42, work).with_options(options));
        }
    }
    cells
}

/// An outcome's statistics and its values, bit for bit.
fn exact(outcome: &CellOutcome) -> (String, Vec<(String, u64)>) {
    let values = outcome.values.iter();
    let values = values.map(|(k, v)| (k.clone(), v.to_bits())).collect();
    (outcome.stats().to_json().to_string(), values)
}

/// Runs `cells` through the runner, which groups them into units, and
/// asserts each outcome equals its cell executed alone.
fn assert_units_equal_cells_alone(cells: Vec<CellSpec>) {
    let together = run_cells(cells.clone(), 2);
    for (cell, (label, outcome)) in cells.iter().zip(&together) {
        assert_eq!(
            exact(outcome),
            exact(&cell.execute()),
            "{}",
            label.describe()
        );
    }
}

#[test]
fn a_units_cells_equal_their_cells_alone_in_a_default_sweep() {
    assert_units_equal_cells_alone(sweeps(&ALL_SCHEMES, &FAULTS, None, true));
}

#[test]
fn a_units_cells_equal_their_cells_alone_without_checkpoints() {
    assert_units_equal_cells_alone(sweeps(&ALL_SCHEMES, &FAULTS, None, false));
}

#[test]
fn a_units_cells_equal_their_cells_alone_at_one_fixed_point() {
    // One point on each fault's own axis: a cycle for op-boundary, an
    // event index for the other two.
    assert_units_equal_cells_alone(sweeps(&ALL_SCHEMES, &FAULTS, Some(700), true));
}

#[test]
fn a_violating_cell_shrinks_inside_its_unit_as_it_does_alone() {
    let faults = [
        FaultSpec::OpBoundary,
        FaultSpec::TornLine(64),
        FaultSpec::Battery(64),
    ];
    let cells = sweeps(&["Silo"], &faults, None, true);
    let together = run_cells(cells.clone(), 1);
    // Only a violating row carries a shrunk repro.
    assert!(
        together[2].1.value("shrunk_txs") < 24.0,
        "the battery cell shrinks"
    );
    assert_units_equal_cells_alone(cells);
}

/// A Fig 14 cell run from scratch, the reference a unit's cell must
/// equal: a one-core 50-transaction probe sizes the 1x batch to fill the
/// 20-entry log buffer, and Silo runs the batched 8-core trace in full.
fn large_tx_from_scratch(cell: &CellSpec) -> CellOutcome {
    const CORES: usize = 8;
    let CellWork::LargeTx {
        ref workload,
        mult,
        txs,
    } = cell.work
    else {
        panic!("not a large-transaction cell: {:?}", cell.work)
    };
    let w = || workload_by_name(workload).expect("a registered workload");
    let probe = w().build_trace(1, 50, cell.seed);
    let probe0 = &probe.streams()[0];
    let avg_words = probe0[1..]
        .iter()
        .map(|t| t.write_set_words())
        .sum::<usize>() as f64
        / (probe0.len() - 1) as f64;
    let group = ((20.0 / avg_words).ceil() as usize).max(1) * mult;
    let outer = (txs / CORES).max(group) / group;
    let config = SimConfig::table_ii(CORES);
    let trace = Batched::new(w(), group).build_trace(CORES, outer, cell.seed);
    let stats = run_with_scheme(&mut SiloScheme::new(&config), &config, &trace);
    let ops = stats.txs_committed * group as u64;
    let overflow = stats.scheme_stats.overflow_events;
    let tp = ops as f64 / stats.sim_cycles.as_u64() as f64;
    let wr = stats.media_writes() as f64 / ops as f64;
    CellOutcome::from_stats(stats)
        .with_value("tp", tp)
        .with_value("wr", wr)
        .with_value("overflow", overflow as f64)
}

#[test]
fn a_large_transaction_units_cells_equal_their_runs_from_scratch() {
    // Each workload × budget × seed forms one unit of all five
    // multipliers and, in a second run, one of two of them. YCSB's cores
    // size different batches at seed 42 (core 0's probe gives a 1x of
    // three transactions, core 1's four), so it pins the probe's core.
    let cells = |mults: &[usize]| -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for workload in ["Hash", "TPCC", "Queue", "YCSB"] {
            for txs in [40, 160] {
                for seed in [42, 7] {
                    for &mult in mults {
                        let label = CellLabel::swc("Silo", workload, 8)
                            .with_param(format!("txs={txs},seed={seed},mult={mult}"));
                        let work = CellWork::LargeTx {
                            workload: workload.to_string(),
                            mult,
                            txs,
                        };
                        cells.push(CellSpec::new(label, seed, work));
                    }
                }
            }
        }
        cells
    };
    let whole = cells(&[1, 2, 4, 8, 16]);
    let reference: HashMap<u64, _> = whole
        .iter()
        .map(|cell| (cell.spec_hash(), exact(&large_tx_from_scratch(cell))))
        .collect();
    for cells in [whole, cells(&[2, 16])] {
        let units = run_cells(cells.clone(), 2);
        for (cell, (label, outcome)) in cells.iter().zip(&units) {
            let want = &reference[&cell.spec_hash()];
            assert_eq!(&exact(outcome), want, "{}", label.describe());
        }
    }
}

fn evaluate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_evaluate"))
}

/// A per-test scratch directory under the target dir (removed on entry so
/// reruns start clean; left behind on failure for inspection).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `evaluate <args>` into `json_dir` and returns its stdout, its
/// `[result-store]` counts and its envelope-stripped report body.
fn run(args: &[&str], json_dir: &Path, store: Option<&Path>) -> (String, String, String) {
    let mut cmd = evaluate();
    cmd.args(args).arg("--json-dir").arg(json_dir);
    match store {
        Some(store) => cmd.env("SILO_RESULT_STORE", store),
        None => cmd.arg("--no-result-store"),
    };
    let out = cmd.output().expect("run evaluate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    let counts = stderr
        .lines()
        .find_map(|l| l.strip_prefix("[result-store] "))
        .unwrap_or_else(|| panic!("a [result-store] line: {stderr}"))
        .to_string();
    let experiment = args[0];
    let report = std::fs::read_to_string(json_dir.join(format!("{experiment}.json")))
        .expect("report written");
    let report = report.trim_end();
    let body = &report[..report.rfind(",\"jobs\":").expect("report envelope")];
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    (stdout, counts, body.to_string())
}

/// Runs `args` three times on one fresh store, checking its
/// `[result-store]` counts and that stdout and the stripped body equal
/// the first run's each time: cold, every cell of `cells` (the cells the
/// line builds) misses; warm, every one hits; and with the entries of the
/// `dropped` cells that `drop` picks deleted, exactly those miss and are
/// written back.
fn assert_the_store_counts_each_cell(
    name: &str,
    args: &[&str],
    cells: &[CellSpec],
    dropped: usize,
    drop: impl Fn(&CellSpec) -> bool,
) {
    let dir = scratch(name);
    let store = dir.join("store");
    let n = cells.len();
    let (cold_out, cold_counts, cold_body) = run(args, &dir.join("cold"), Some(&store));
    assert_eq!(cold_counts, format!("0 hits, {n} misses, 0 invalidated"));
    let (warm_out, warm_counts, warm_body) = run(args, &dir.join("warm"), Some(&store));
    assert_eq!(warm_counts, format!("{n} hits, 0 misses, 0 invalidated"));
    assert_eq!((&warm_out, &warm_body), (&cold_out, &cold_body));

    let fingerprints: Vec<PathBuf> = std::fs::read_dir(&store)
        .expect("store written")
        .flatten()
        .map(|d| d.path())
        .collect();
    let [entries] = &fingerprints[..] else {
        panic!("one fingerprint directory: {fingerprints:?}")
    };
    let gone: Vec<PathBuf> = cells
        .iter()
        .filter(|c| drop(c))
        .map(|c| entries.join(format!("{:016x}.json", c.spec_hash())))
        .collect();
    assert_eq!(gone.len(), dropped);
    for entry in &gone {
        std::fs::remove_file(entry).expect("a stored entry");
    }
    let (part_out, part_counts, part_body) = run(args, &dir.join("part"), Some(&store));
    let kept = n - dropped;
    assert_eq!(
        part_counts,
        format!("{kept} hits, {dropped} misses, 0 invalidated")
    );
    assert_eq!((&part_out, &part_body), (&cold_out, &cold_body));
    assert!(
        gone.iter().all(|entry| entry.exists()),
        "missing cells persist"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cells `evaluate <experiment> [--txs N]` builds.
fn built(experiment: &str, txs: Option<usize>) -> Vec<CellSpec> {
    let spec = registry::find(experiment).expect("a registered experiment");
    let mut params = ExpParams::defaults(&spec);
    params.txs = txs.unwrap_or(params.txs);
    spec.build(&params)
}

#[test]
fn a_store_serves_and_counts_each_cell_of_a_unit() {
    // A cold default sweep executes its 63 cells in 21 units and
    // persists 63 entries; a warm one serves all 63. With the torn-line
    // entries gone, each unit runs its one missing cell: exactly those
    // 21 execute, are counted as misses and are written back.
    let torn = |c: &CellSpec| {
        matches!(
            c.work,
            CellWork::CrashSweep {
                fault: FaultSpec::TornLine(_),
                ..
            }
        )
    };
    let cells = built("crashfuzz", None);
    assert_the_store_counts_each_cell("units-store", &["crashfuzz"], &cells, 21, torn);
}

#[test]
fn a_store_serves_and_counts_each_multiplier_of_a_large_transaction_unit() {
    // fig14's 35 cells form 7 units, one per workload. With the 4x
    // entries gone, each unit runs its one missing multiplier.
    let quad = |c: &CellSpec| matches!(c.work, CellWork::LargeTx { mult: 4, .. });
    let cells = built("fig14", Some(40));
    let args = ["fig14", "--txs", "40"];
    assert_the_store_counts_each_cell("units-store-fig14", &args, &cells, 7, quad);
}

#[test]
fn crashfuzz_bodies_do_not_depend_on_the_worker_count() {
    let dir = scratch("units-jobs");
    let line = ["crashfuzz", "--txs", "16"];
    let (out1, _, body1) = run(
        &[&line[..], &["--jobs", "1"]].concat(),
        &dir.join("j1"),
        None,
    );
    let (out8, _, body8) = run(
        &[&line[..], &["--jobs", "8"]].concat(),
        &dir.join("j8"),
        None,
    );
    assert_eq!((out1, body1), (out8, body8));
    let _ = std::fs::remove_dir_all(&dir);
}
