//! `crashfuzz`: differential crash-surface fuzzing across every scheme.
//!
//! For each scheme × workload × fault model, the experiment measures a
//! clean run's durability-event total, then injects power failures at
//! evenly spaced crash points and has the [`silo_sim::TxOracle`] verify
//! every recovered image. Three fault models cover the crash surface:
//!
//! * `op-boundary` — the legacy cycle-sampled trigger (cores halt at an
//!   op boundary once their clock passes the cut);
//! * `torn-line` — event-indexed trigger with the in-flight 256 B media
//!   line program torn to a prefix of its bytes;
//! * `battery` — event-indexed trigger with a bounded residual-energy
//!   budget for the post-crash ADR drain (paper Table IV).
//!
//! On top of the per-run oracle verdict, recovered images are compared
//! *differentially*: any two runs of the same workload that crashed at
//! the same per-core progress (committed-transaction counts) must agree
//! on every word the workload ever writes, whichever scheme and fault
//! produced them. A violation is shrunk to a minimal deterministic
//! `(stream, crash point, fault)` triple and printed as a runnable
//! `evaluate crashfuzz ... --point N` command.

use std::collections::HashMap;
use std::fmt::Write as _;

use silo_sim::{
    CrashPlan, Engine, EngineCheckpoint, FaultModel, RunOutcome, SimConfig, StepLog, TraceSet,
};
use silo_types::{Cycles, Fnv1a, JsonValue, PhysAddr};
use silo_workloads::workload_by_name;

use crate::cellspec::{CellSpec, CellWork, FaultSpec};
use crate::exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec};
use crate::flags::{
    schemes, Flag, Line, Value::*, BATTERY_BYTES, BENCH, DEFAULT_BATTERY_BYTES, DEFAULT_TORN_KEEP,
    MAX, SCHEME, TORN_KEEP,
};
use crate::{make_scheme, TraceCache};

/// Two cores keep the sweep cheap while still exercising cross-core
/// interleaving at the shared memory controller.
const CORES: usize = 2;
/// Default crash points per cell in sweep mode (`--points` overrides).
const POINTS: u64 = 4;
/// Shrink search widths.
const SHRINK_SCAN: u64 = 16;
const EARLIEST_SCAN: u64 = 64;

const FAULT: Flag = Flag::new("--fault", OneOf(&["op-boundary", "torn-line", "battery"]))
    .help("sweep one fault model (default: all three)");
const POINTS_FLAG: Flag =
    Flag::new("--points", Int(1, MAX)).help("crash points per cell (default 4)");
// A point means something on one fault's axis only: cycles under
// op-boundary, durability-event indices under torn-line and battery.
const POINT: Flag = Flag::new("--point", Int(0, MAX))
    .requires("--fault")
    .help("one crash point: a cycle (op-boundary) or an event index");
const NO_CHECKPOINTS: Flag = Flag::new("--no-checkpoints", Switch)
    .help("run every crash point from scratch (same answers, slower)");

/// The fault models the line selects: the one `--fault` names, or all
/// three, with the `--torn-keep` and `--battery-bytes` knobs.
fn faults(line: &Line) -> Vec<FaultSpec> {
    let keep = line.int(TORN_KEEP.name).unwrap_or(DEFAULT_TORN_KEEP);
    let bytes = line
        .int(BATTERY_BYTES.name)
        .unwrap_or(DEFAULT_BATTERY_BYTES);
    let all = [
        FaultSpec::OpBoundary,
        FaultSpec::TornLine(keep as usize),
        FaultSpec::Battery(bytes),
    ];
    let chosen = line.text(FAULT.name);
    all.into_iter()
        .filter(|&f| chosen.is_none_or(|name| name == fault_name(f)))
        .collect()
}

/// The `--fault` value naming `fault`.
fn fault_name(fault: FaultSpec) -> &'static str {
    match fault {
        FaultSpec::OpBoundary => "op-boundary",
        FaultSpec::TornLine(_) => "torn-line",
        FaultSpec::Battery(_) => "battery",
    }
}

fn describe(fault: FaultSpec) -> String {
    match fault {
        FaultSpec::OpBoundary => "op-boundary".to_string(),
        FaultSpec::TornLine(keep) => format!("torn-line(keep={keep})"),
        FaultSpec::Battery(bytes) => format!("battery({bytes} B)"),
    }
}

/// A crash at `point` under `fault`: a cycle-sampled op-boundary crash
/// with a perfect ADR drain, or an event-indexed one with a torn line or
/// a bounded battery.
fn plan(fault: FaultSpec, point: u64) -> CrashPlan {
    match fault {
        FaultSpec::OpBoundary => CrashPlan::at_cycle(Cycles::new(point)),
        FaultSpec::TornLine(keep) => {
            CrashPlan::at_event(point).with_fault(FaultModel::torn_line(keep))
        }
        FaultSpec::Battery(bytes) => {
            CrashPlan::at_event(point).with_fault(FaultModel::bounded_battery(bytes))
        }
    }
}

/// The repro flags beyond `--fault <name>`.
fn repro_flags(fault: FaultSpec) -> String {
    match fault {
        FaultSpec::OpBoundary => String::new(),
        FaultSpec::TornLine(keep) => format!(" --torn-keep {keep}"),
        FaultSpec::Battery(bytes) => format!(" --battery-bytes {bytes}"),
    }
}

/// The clean (no-crash) reference run of one scheme × workload × stream
/// shape. With `checkpoints` it also logs where its loop steps lie on
/// both crash axes, so a walk of the same run can lend each crash point
/// the state just before it ([`Cell::scan`]).
fn clean_run(
    scheme: &str,
    config: &SimConfig,
    streams: &TraceSet,
    checkpoints: bool,
) -> (RunOutcome, Option<StepLog>) {
    let mut s = make_scheme(scheme, config);
    let engine = Engine::new(config, s.as_mut());
    if checkpoints {
        let (out, steps) = engine.run_logging_steps(streams);
        (out, Some(steps))
    } else {
        (engine.run(streams, None), None)
    }
}

/// Every distinct word address the workload writes, across setup and
/// measured transactions — the footprint the differential digest covers.
fn write_footprint(trace: &TraceSet) -> Vec<PhysAddr> {
    let mut addrs: Vec<u64> = trace
        .streams()
        .iter()
        .flat_map(|s| s.iter())
        .flat_map(|tx| tx.ops())
        .filter_map(|op| match op {
            silo_sim::Op::Write(a, _) => Some(a.as_u64()),
            _ => None,
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs.into_iter().map(PhysAddr::new).collect()
}

/// What one crash run produced, condensed for the cell's value list.
struct PointResult {
    point: u64,
    violations: u64,
    ambiguous: u64,
    /// Exact per-core committed-transaction counts, reported verbatim —
    /// the old `c0 * 1e6 + c1` f64 packing silently collided once a core
    /// committed ≥ 1e6 transactions, exactly on the long-horizon runs
    /// checkpointing makes affordable.
    progress: Vec<u64>,
    digest: u32,
}

/// The recovered-image digest over the workload footprint, with the
/// per-core committed counts folded in so equal digests imply equal
/// progress losslessly. Only word *values* are folded — the footprint
/// addresses are the same for every crash point of a cell, so hashing
/// them adds cost without discrimination. Words are fetched a buffer
/// line at a time: the footprint is sorted, so one media-page lookup
/// serves every footprint word on the line instead of one lookup each.
fn image_digest(out: &RunOutcome, footprint: &[PhysAddr]) -> u32 {
    const LINE: u64 = silo_types::BUF_LINE_BYTES as u64;
    let mut line = [0u8; silo_types::BUF_LINE_BYTES];
    let mut line_base = u64::MAX;
    let mut h = Fnv1a::new();
    for c in &out.stats.per_core {
        h.write_u64(c.txs_committed);
    }
    for &a in footprint {
        let base = a.as_u64() / LINE * LINE;
        let off = (a.as_u64() - base) as usize;
        if off + 8 > silo_types::BUF_LINE_BYTES {
            h.write_u64(out.pm.peek_word(a).as_u64()); // straddles two lines
            continue;
        }
        if base != line_base {
            out.pm.peek_into(PhysAddr::new(base), &mut line);
            line_base = base;
        }
        h.write(&line[off..off + 8]);
    }
    // Folded to 32 bits so it survives an `f64` cell value.
    let h = h.finish();
    ((h >> 32) ^ h) as u32
}

fn run_point(
    scheme: &str,
    config: &SimConfig,
    streams: &TraceSet,
    footprint: &[PhysAddr],
    fault: FaultSpec,
    point: u64,
    cp: Option<&EngineCheckpoint>,
) -> PointResult {
    let mut s = make_scheme(scheme, config);
    let plan = plan(fault, point);
    // Sharing the trace across crash points: this conversion is pointer
    // bumps, where it used to deep-clone every stream per point.
    let out = match cp {
        Some(cp) => {
            let out = Engine::new(config, s.as_mut()).run_resumed(streams, plan, cp);
            // Debug builds prove the headline invariant on every resumed
            // point: the resumed run must be byte-identical to a
            // from-scratch run of the same plan.
            #[cfg(debug_assertions)]
            {
                let mut s2 = make_scheme(scheme, config);
                let scratch = Engine::new(config, s2.as_mut()).run_with_plan(streams, Some(plan));
                debug_assert_eq!(
                    scratch.stats.to_json().to_string(),
                    out.stats.to_json().to_string(),
                    "resume-vs-scratch SimStats divergence: {scheme} {} point {point}",
                    describe(fault),
                );
                debug_assert_eq!(
                    image_digest(&scratch, footprint),
                    image_digest(&out, footprint),
                    "resume-vs-scratch recovered-image divergence: {scheme} {} point {point}",
                    describe(fault),
                );
            }
            out
        }
        None => Engine::new(config, s.as_mut()).run_with_plan(streams, Some(plan)),
    };
    let crash = out.crash.as_ref().expect("crash injected");
    let progress = out.stats.per_core.iter().map(|c| c.txs_committed).collect();
    let digest = image_digest(&out, footprint);
    PointResult {
        point,
        violations: crash.consistency.violations.len() as u64,
        ambiguous: crash.ambiguous_txs,
        progress,
        digest,
    }
}

/// One cell's crash runs: everything but the crash point.
struct Cell<'a> {
    scheme: &'a str,
    config: &'a SimConfig,
    streams: &'a TraceSet,
    footprint: &'a [PhysAddr],
    fault: FaultSpec,
}

impl Cell<'_> {
    /// Runs the crash `points` in order, handing each result to
    /// `keep_going`; a `false` ends the scan. With a step log, one walk of
    /// the clean run stops at the last step before each point and lends
    /// that checkpoint to the point(s) resuming from it, so a resumed
    /// point re-simulates at most one step; ascending points make
    /// ascending stops. A point with no earlier step, and every point
    /// without a step log (`--no-checkpoints`) or under a scheme that
    /// cannot checkpoint, runs from scratch.
    fn scan(
        &self,
        steps: Option<&StepLog>,
        points: &[u64],
        mut keep_going: impl FnMut(PointResult) -> bool,
    ) {
        let mut run = |i: usize, cp: Option<&EngineCheckpoint>| {
            keep_going(run_point(
                self.scheme,
                self.config,
                self.streams,
                self.footprint,
                self.fault,
                points[i],
                cp,
            ))
        };
        let at: Vec<Option<u64>> = points
            .iter()
            .map(|&n| steps.and_then(|log| log.last_before(plan(self.fault, n).trigger)))
            .collect();
        let mut i = 0;
        while i < points.len() && at[i].is_none() {
            if !run(i, None) {
                return;
            }
            i += 1;
        }
        let stops: Vec<u64> = at[i..].iter().flatten().copied().collect();
        let mut ended = false;
        let mut s = make_scheme(self.scheme, self.config);
        Engine::new(self.config, s.as_mut()).walk(self.streams, &stops, |step, cp| {
            while i < points.len() && at[i] == Some(step) {
                i += 1;
                if !run(i - 1, Some(&cp)) {
                    ended = true;
                    return false;
                }
            }
            true
        });
        if !ended {
            for j in i..points.len() {
                if !run(j, None) {
                    return;
                }
            }
        }
    }

    /// The first of `points` whose crash run violates, in order.
    fn first_violation(&self, steps: Option<&StepLog>, points: &[u64]) -> Option<u64> {
        let mut found = None;
        self.scan(steps, points, |r| {
            if r.violations > 0 {
                found = Some(r.point);
            }
            found.is_none()
        });
        found
    }
}

/// Evenly spaced interior points: `(total * (2i + 1)) / (2 * k)`.
fn spaced(total: u64, k: u64) -> Vec<u64> {
    (0..k).map(|i| (total * (2 * i + 1)) / (2 * k)).collect()
}

/// The crash-point axis length for `fault` on a clean run: cycles for the
/// op-boundary trigger, durability events for the event-indexed ones.
fn axis_total(fault: FaultSpec, clean: &silo_sim::RunOutcome) -> u64 {
    match fault {
        FaultSpec::OpBoundary => clean.stats.sim_cycles.as_u64(),
        _ => clean.pm.events().total(),
    }
}

/// Shrinks a violating `(txs_per_core, point)` pair: halve the stream
/// while a bounded re-scan still violates, then scan for the earliest
/// violating point at the final length.
#[allow(clippy::too_many_arguments)] // the sweep's coordinates, passed through
fn shrink(
    scheme: &str,
    workload: &str,
    config: &SimConfig,
    fault: FaultSpec,
    seed: u64,
    checkpoints: bool,
    mut txs_per_core: usize,
    mut point: u64,
) -> (usize, u64) {
    let w = workload_by_name(workload).expect("benchmark");
    // The first violating point at `txs` transactions per core, among the
    // candidates `points` picks given the clean run's axis total.
    let scan = |txs: usize, points: &dyn Fn(u64) -> Vec<u64>| -> Option<u64> {
        let streams = TraceCache::global().get_or_build(&w, CORES, txs, seed);
        let footprint = write_footprint(&streams);
        let (clean, steps) = clean_run(scheme, config, &streams, checkpoints);
        let points = points(axis_total(fault, &clean));
        drop(clean);
        let cell = Cell {
            scheme,
            config,
            streams: &streams,
            footprint: &footprint,
            fault,
        };
        cell.first_violation(steps.as_ref(), &points)
    };
    while txs_per_core > 1 {
        match scan(txs_per_core / 2, &|total| spaced(total, SHRINK_SCAN)) {
            Some(n) => {
                txs_per_core /= 2;
                point = n;
            }
            None => break,
        }
    }
    // Earliest violating point at the final stream length.
    let earliest = scan(txs_per_core, &|_| {
        let mut candidates = spaced(point, EARLIEST_SCAN);
        candidates.dedup();
        candidates
    });
    (txs_per_core, earliest.unwrap_or(point))
}

/// Executor entry point for [`CellWork::CrashSweep`]: one sweep row —
/// clean reference run, the spaced (or one fixed) crash point(s) under
/// `fault`, and shrinking of the first violation found.
pub(crate) fn execute_sweep(cell: &CellSpec) -> CellOutcome {
    let CellWork::CrashSweep {
        ref scheme,
        ref workload,
        txs_per_core,
        fault,
        points: points_per_cell,
        point,
        checkpoints,
    } = cell.work
    else {
        unreachable!("not a sweep: {:?}", cell.work)
    };
    let seed = cell.seed;
    // A stale spec (e.g. a result-store entry naming a since-renamed
    // workload) must surface as a reportable cell error, not take down the
    // whole sweep: the other cells of the run are still valid.
    let Some(w) = workload_by_name(workload) else {
        return CellOutcome::failed(format!(
            "unknown workload {workload:?} in cell \
             {scheme}/{workload}/txs={txs_per_core}/fault={}",
            describe(fault)
        ));
    };
    let config = SimConfig::table_ii(CORES);
    // One trace per benchmark serves every scheme × fault × crash-point
    // run in the sweep.
    let streams = TraceCache::global().get_or_build(&w, CORES, txs_per_core, seed);
    let footprint = write_footprint(&streams);
    // Only the clean run's stats and axis total outlive this block; its
    // PM image does not.
    let (stats, points, steps) = {
        let (clean, steps) = clean_run(scheme, &config, &streams, checkpoints);
        let points = match point {
            Some(n) => vec![n],
            None => spaced(axis_total(fault, &clean), points_per_cell),
        };
        (clean.stats, points, steps)
    };
    let mut out = CellOutcome::from_stats(stats).with_value("points", points.len() as f64);
    let mut results = Vec::with_capacity(points.len());
    let cell = Cell {
        scheme,
        config: &config,
        streams: &streams,
        footprint: &footprint,
        fault,
    };
    cell.scan(steps.as_ref(), &points, |r| {
        results.push(r);
        true
    });
    let mut worst: Option<u64> = None;
    for (j, r) in results.iter().enumerate() {
        if r.violations > 0 && worst.is_none() {
            worst = Some(r.point);
        }
        out = out
            .with_value(&format!("p{j}_at"), r.point as f64)
            .with_value(&format!("p{j}_viol"), r.violations as f64)
            .with_value(&format!("p{j}_amb"), r.ambiguous as f64)
            .with_value(&format!("p{j}_dig"), r.digest as f64);
        for (i, &c) in r.progress.iter().enumerate() {
            out = out.with_value(&format!("p{j}_prog{i}"), c as f64);
        }
    }
    if let Some(first_bad) = worst {
        let (t, n) = shrink(
            scheme,
            workload,
            &config,
            fault,
            seed,
            checkpoints,
            txs_per_core,
            first_bad,
        );
        out = out
            .with_value("shrunk_txs", (t * CORES) as f64)
            .with_value("shrunk_point", n as f64);
    }
    out
}

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let line = p.line();
    let txs_per_core = (p.txs / CORES).max(1);
    let points = line.int(POINTS_FLAG.name).unwrap_or(POINTS);
    let point = line.int(POINT.name);
    let checkpoints = !line.switch(NO_CHECKPOINTS.name);
    let mut cells = Vec::new();
    for bench in &p.benches {
        for scheme in schemes(&line) {
            for fault in faults(&line) {
                cells.push(CellSpec::new(
                    CellLabel::swc(&scheme, bench, CORES)
                        .with_param(format!("fault={}", describe(fault))),
                    p.seed,
                    CellWork::CrashSweep {
                        scheme: scheme.clone(),
                        workload: bench.clone(),
                        txs_per_core,
                        fault,
                        points,
                        point,
                        checkpoints,
                    },
                ));
            }
        }
    }
    cells
}

fn render(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let faults = faults(&p.line());
    let txs_per_core = (p.txs / CORES).max(1);
    writeln!(out, "Crash-surface fuzzing (differential, {CORES} cores)").unwrap();
    writeln!(
        out,
        "{} txs/core, seed {}, faults: {}",
        txs_per_core,
        p.seed,
        faults
            .iter()
            .map(|&f| describe(f))
            .collect::<Vec<_>>()
            .join(", ")
    )
    .unwrap();
    writeln!(
        out,
        "{:<12}{:<8}{:<22}{:>7}{:>12}{:>11}",
        "scheme", "bench", "fault", "points", "violations", "ambiguous"
    )
    .unwrap();

    let mut total_runs = 0u64;
    let mut total_violations = 0u64;
    let mut rows = Vec::new();
    // Every violation's report block, printed after the total line.
    let mut blocks = String::new();
    // progress -> (digest, "scheme/bench/fault@point") per workload.
    let mut groups: HashMap<(String, Vec<u64>), (u32, String)> = HashMap::new();
    let mut divergences = Vec::new();

    for (label, outcome) in cells {
        if let Some(err) = &outcome.error {
            writeln!(
                out,
                "ERROR {:<12}{:<8}{:<22}{err}",
                label.scheme,
                label.workload,
                label.param.trim_start_matches("fault=")
            )
            .unwrap();
            rows.push(
                JsonValue::object()
                    .field("scheme", label.scheme.as_str())
                    .field("workload", label.workload.as_str())
                    .field("error", err.as_str())
                    .build(),
            );
            continue;
        }
        let points = outcome.value("points") as usize;
        let (mut viols, mut ambig) = (0u64, 0u64);
        for j in 0..points {
            let value = |key: &str| outcome.value(&format!("p{j}_{key}")) as u64;
            let (v, amb) = (value("viol"), value("amb"));
            total_runs += 1;
            viols += v;
            ambig += amb;
            // Differential compare: equal progress on the same workload
            // must mean an identical recovered footprint — across schemes
            // and fault models alike. Commit-racing (ambiguous) runs are
            // legitimately bimodal, so they stay out.
            if amb == 0 && v == 0 {
                let prog: Vec<u64> = (0..CORES).map(|i| value(&format!("prog{i}"))).collect();
                let (dig, at) = (value("dig") as u32, value("at"));
                let who = format!("{}/{}/{}@{at}", label.scheme, label.workload, label.param);
                let key = (label.workload.clone(), prog.clone());
                let (d0, who0) = groups.entry(key).or_insert_with(|| (dig, who.clone()));
                if *d0 != dig {
                    divergences.push(format!("{who} disagrees with {who0} at progress {prog:?}"));
                }
            }
        }
        total_violations += viols;
        writeln!(
            out,
            "{:<12}{:<8}{:<22}{:>7}{:>12}{:>11}",
            label.scheme,
            label.workload,
            label.param.trim_start_matches("fault="),
            points,
            viols,
            ambig
        )
        .unwrap();
        let fault = faults
            .iter()
            .find(|&&f| label.param == format!("fault={}", describe(f)))
            .copied()
            .expect("cell fault is one of the configured models");
        let mut row = JsonValue::object()
            .field("scheme", label.scheme.as_str())
            .field("workload", label.workload.as_str())
            .field("fault", fault_name(fault))
            .field("points", points as f64)
            .field("violations", viols as f64)
            .field("ambiguous", ambig as f64);
        if viols > 0 {
            let txs = outcome.value("shrunk_txs") as u64;
            let point = outcome.value("shrunk_point") as u64;
            let repro = format!(
                "evaluate crashfuzz --scheme {} --bench {} --txs {txs} --seed {} \
                 --fault {}{} --point {point}",
                label.scheme,
                label.workload,
                p.seed,
                fault_name(fault),
                repro_flags(fault)
            );
            let at = format!(
                "{} / {} / {}",
                label.scheme,
                label.workload,
                describe(fault)
            );
            writeln!(blocks, "VIOLATION {at}\n  minimal repro: {repro}").unwrap();
            row = row.field("repro", repro.as_str());
        }
        rows.push(row.build());
    }

    for d in &divergences {
        writeln!(out, "DIVERGENCE: {d}").unwrap();
    }
    writeln!(
        out,
        "differential: {} progress groups compared, {} divergences",
        groups.len(),
        divergences.len()
    )
    .unwrap();
    writeln!(
        out,
        "total: {total_violations} violations across {total_runs} crash runs"
    )
    .unwrap();
    out.push_str(&blocks);

    JsonValue::object()
        .field("total_violations", total_violations as f64)
        .field("crash_runs", total_runs as f64)
        .field("divergences", divergences.len() as f64)
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// The `crashfuzz` spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "crashfuzz",
        description: "differential crash-surface fuzzing: schemes x faults x crash points",
        default_txs: 48,
        flags: &[
            BENCH,
            SCHEME,
            FAULT,
            TORN_KEEP,
            BATTERY_BYTES,
            POINTS_FLAG,
            POINT,
            NO_CHECKPOINTS,
        ],
        kind: ExpKind::Custom { build, render },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fuzz;

    fn built(spec: &ExperimentSpec, flags: &[&str]) -> Vec<CellSpec> {
        let mut p = ExpParams::defaults(spec);
        p.extra = ["evaluate", spec.name]
            .iter()
            .chain(flags)
            .map(|s| s.to_string())
            .collect();
        spec.build(&p)
    }

    #[test]
    fn run_options_ride_in_the_cells_and_stay_out_of_the_spec_hash() {
        let spec = spec();
        let on = built(&spec, &[]);
        let off = built(&spec, &["--no-checkpoints"]);
        let again = built(&spec, &[]);
        assert_eq!(on.len(), off.len());
        for ((on, off), again) in on.iter().zip(&off).zip(&again) {
            let checkpoints = |c: &CellSpec| match c.work {
                CellWork::CrashSweep { checkpoints, .. } => checkpoints,
                _ => panic!("crashfuzz builds sweeps"),
            };
            assert!(!checkpoints(off), "--no-checkpoints turns them off");
            assert!(checkpoints(again), "a later build without it resumes");
            assert_eq!(on.spec_hash(), off.spec_hash());
        }
        let fuzz = fuzz::spec();
        let corpus = |flags: &[&str]| -> Vec<Option<std::path::PathBuf>> {
            built(&fuzz, flags)
                .into_iter()
                .map(|c| match c.work {
                    CellWork::Fuzz { corpus, .. } => corpus,
                    _ => panic!("fuzz builds searches"),
                })
                .collect()
        };
        assert!(corpus(&["--no-corpus"]).iter().all(Option::is_none));
        assert!(corpus(&["--corpus", "elsewhere"])
            .iter()
            .all(|c| c.as_deref() == Some(std::path::Path::new("elsewhere"))));
    }
}
