//! Execution units: the fault cells of one crash target run as one unit.
//!
//! `crashfuzz` builds one sweep cell per scheme × workload × fault. The
//! cells of one scheme × workload share a unit key (every sweep field but
//! the fault, and the seed), so the runner hands them to one worker
//! together and the result store runs the ones it cannot serve in one
//! call, which simulates their clean run and walks it once for all of
//! them. None of that may show: every cell's outcome from its unit must
//! equal the cell executed alone, the store must count and persist each
//! cell as its own, and reports must not depend on the worker count.

use std::path::{Path, PathBuf};
use std::process::Command;

use silo_bench::{
    registry, run_cells, CellLabel, CellOutcome, CellSpec, CellWork, ExpParams, FaultSpec,
    ALL_SCHEMES,
};

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
                checkpoints,
            };
            let label = CellLabel::swc(scheme, "Hash", 2).with_param(format!("{fault:?}"));
            cells.push(CellSpec::new(label, 42, work));
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

#[test]
fn a_store_serves_and_counts_each_cell_of_a_unit() {
    // A cold default sweep executes its 63 cells in 21 units and
    // persists 63 entries; a warm one serves all 63. With the torn-line
    // entries gone, each unit runs its one missing cell: exactly those
    // 21 execute, are counted as misses and are written back.
    let dir = scratch("units-store");
    let store = dir.join("store");
    let (cold_out, cold_counts, cold_body) = run(&["crashfuzz"], &dir.join("cold"), Some(&store));
    assert_eq!(cold_counts, "0 hits, 63 misses, 0 invalidated");
    let (warm_out, warm_counts, warm_body) = run(&["crashfuzz"], &dir.join("warm"), Some(&store));
    assert_eq!(warm_counts, "63 hits, 0 misses, 0 invalidated");
    assert_eq!((&warm_out, &warm_body), (&cold_out, &cold_body));

    let spec = registry::find("crashfuzz").expect("crashfuzz is registered");
    let fingerprints: Vec<PathBuf> = std::fs::read_dir(&store)
        .expect("store written")
        .flatten()
        .map(|d| d.path())
        .collect();
    let [entries] = &fingerprints[..] else {
        panic!("one fingerprint directory: {fingerprints:?}")
    };
    let torn: Vec<PathBuf> = spec
        .build(&ExpParams::defaults(&spec))
        .iter()
        .filter(|c| {
            matches!(
                c.work,
                CellWork::CrashSweep {
                    fault: FaultSpec::TornLine(_),
                    ..
                }
            )
        })
        .map(|c| entries.join(format!("{:016x}.json", c.spec_hash())))
        .collect();
    assert_eq!(torn.len(), 21);
    for entry in &torn {
        std::fs::remove_file(entry).expect("a torn-line entry");
    }
    let (part_out, part_counts, part_body) = run(&["crashfuzz"], &dir.join("part"), Some(&store));
    assert_eq!(part_counts, "42 hits, 21 misses, 0 invalidated");
    assert_eq!((&part_out, &part_body), (&cold_out, &cold_body));
    assert!(
        torn.iter().all(|entry| entry.exists()),
        "missing cells persist"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
