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
use std::sync::atomic::{AtomicBool, Ordering};

use silo_sim::{
    CrashPlan, Engine, EngineCheckpoint, FaultModel, RunOutcome, SimConfig, StepLog, TraceSet,
};
use silo_types::{Cycles, JsonValue, PhysAddr};
use silo_workloads::workload_by_name;

use crate::cellspec::{CellSpec, CellWork, FaultSpec};
use crate::exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec};
use crate::{arg_string, arg_u64, arg_usize, make_scheme, TraceCache, ALL_SCHEMES};

/// Two cores keep the sweep cheap while still exercising cross-core
/// interleaving at the shared memory controller.
const CORES: usize = 2;
/// Default crash points per cell in sweep mode (`--points` overrides).
const POINTS: u64 = 4;
/// Default residual-energy budget: ample — it covers the whole on-PM
/// buffer plus the crash records, so a correct scheme must not violate.
const DEFAULT_BATTERY_BYTES: u64 = 64 * 1024;
/// Default torn-line prefix: a quarter of a 256 B line survives.
const DEFAULT_TORN_KEEP: usize = 64;
/// Shrink search widths.
const SHRINK_SCAN: u64 = 16;
const EARLIEST_SCAN: u64 = 64;

/// One fault model of the sweep, with its parameters resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Cycle-sampled crash at an op boundary, perfect ADR drain.
    OpBoundary,
    /// Event-indexed crash; the in-flight line program keeps `keep` bytes.
    TornLine(usize),
    /// Event-indexed crash; the ADR drain persists at most `bytes` bytes.
    Battery(u64),
}

impl Fault {
    fn from_spec(spec: FaultSpec) -> Fault {
        match spec {
            FaultSpec::OpBoundary => Fault::OpBoundary,
            FaultSpec::TornLine(keep) => Fault::TornLine(keep),
            FaultSpec::Battery(bytes) => Fault::Battery(bytes),
        }
    }

    fn to_spec(self) -> FaultSpec {
        match self {
            Fault::OpBoundary => FaultSpec::OpBoundary,
            Fault::TornLine(keep) => FaultSpec::TornLine(keep),
            Fault::Battery(bytes) => FaultSpec::Battery(bytes),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Fault::OpBoundary => "op-boundary",
            Fault::TornLine(_) => "torn-line",
            Fault::Battery(_) => "battery",
        }
    }

    fn describe(self) -> String {
        match self {
            Fault::OpBoundary => "op-boundary".to_string(),
            Fault::TornLine(keep) => format!("torn-line(keep={keep})"),
            Fault::Battery(bytes) => format!("battery({bytes} B)"),
        }
    }

    fn plan(self, point: u64) -> CrashPlan {
        match self {
            Fault::OpBoundary => CrashPlan::at_cycle(Cycles::new(point)),
            Fault::TornLine(keep) => {
                CrashPlan::at_event(point).with_fault(FaultModel::torn_line(keep))
            }
            Fault::Battery(bytes) => {
                CrashPlan::at_event(point).with_fault(FaultModel::bounded_battery(bytes))
            }
        }
    }

    /// The extra repro flags beyond `--fault <name>`.
    fn repro_flags(self) -> String {
        match self {
            Fault::OpBoundary => String::new(),
            Fault::TornLine(keep) => format!(" --torn-keep {keep}"),
            Fault::Battery(bytes) => format!(" --battery-bytes {bytes}"),
        }
    }
}

/// The checkpointing toggle (`--no-checkpoints`), process-global like the
/// trace cache's enable flag. It changes only how fast a crash point
/// simulates — resumed and from-scratch runs are byte-identical by the
/// engine's resume-equivalence guarantee — so it deliberately stays
/// **out** of the cell spec hash: a result-store entry computed with
/// checkpoints on serves a run with them off, and reports do not depend on
/// the flag.
static CHECKPOINTS_ENABLED: AtomicBool = AtomicBool::new(true);

/// The sweep configuration parsed from the experiment's extra flags.
struct Config {
    schemes: Vec<String>,
    faults: Vec<Fault>,
    points: u64,
    point: Option<u64>,
}

fn parse_config(p: &ExpParams) -> Config {
    let battery = arg_u64(&p.extra, "--battery-bytes", DEFAULT_BATTERY_BYTES);
    let torn = arg_usize(&p.extra, "--torn-keep", DEFAULT_TORN_KEEP);
    let faults = match arg_string(&p.extra, "--fault").as_deref() {
        None => vec![
            Fault::OpBoundary,
            Fault::TornLine(torn),
            Fault::Battery(battery),
        ],
        Some("op-boundary") => vec![Fault::OpBoundary],
        Some("torn-line") => vec![Fault::TornLine(torn)],
        Some("battery") => vec![Fault::Battery(battery)],
        Some(other) => {
            eprintln!(
                "error: unknown fault model {other:?} \
                 (expected op-boundary, torn-line, or battery)"
            );
            std::process::exit(2);
        }
    };
    let schemes = match arg_string(&p.extra, "--scheme") {
        None => ALL_SCHEMES.iter().map(|s| s.to_string()).collect(),
        Some(list) => {
            let schemes: Vec<String> = list.split(',').map(str::to_string).collect();
            for s in &schemes {
                if !ALL_SCHEMES.contains(&s.as_str()) {
                    eprintln!("error: unknown scheme {s:?} (see ALL_SCHEMES)");
                    std::process::exit(2);
                }
            }
            schemes
        }
    };
    let point = match crate::try_arg::<u64>(&p.extra, "--point") {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let points = match crate::try_arg::<u64>(&p.extra, "--points") {
        Ok(Some(0)) => {
            eprintln!("error: --points must be positive");
            std::process::exit(2);
        }
        Ok(v) => v.unwrap_or(POINTS),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    // A crash point only means something on one fault's axis: op-boundary
    // points are cycles, torn-line/battery points are durability-event
    // indices. Applying one number to both axes lands on unrelated
    // machine states, so `--point` requires exactly one fault model.
    if point.is_some() && faults.len() != 1 {
        eprintln!(
            "error: --point requires exactly one --fault: op-boundary points \
             are cycles while torn-line/battery points are durability-event \
             indices, so one point cannot apply across fault models \
             (add e.g. --fault battery)"
        );
        std::process::exit(2);
    }
    // Stored on every parse, so a run without the flag turns checkpoints
    // back on after an earlier run in the same process turned them off.
    CHECKPOINTS_ENABLED.store(
        !p.extra.iter().any(|a| a == "--no-checkpoints"),
        Ordering::Relaxed,
    );
    Config {
        schemes,
        faults,
        points,
        point,
    }
}

/// The clean (no-crash) reference run of one scheme × workload × stream
/// shape. With checkpoints on it also logs where its loop steps lie on
/// both crash axes, so a walk of the same run can lend each crash point
/// the state just before it ([`Cell::scan`]).
fn clean_run(
    scheme: &str,
    config: &SimConfig,
    streams: &TraceSet,
) -> (RunOutcome, Option<StepLog>) {
    let mut s = make_scheme(scheme, config);
    let engine = Engine::new(config, s.as_mut());
    if CHECKPOINTS_ENABLED.load(Ordering::Relaxed) {
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

/// 64-bit FNV-1a, folded to 32 bits so it survives an `f64` cell value.
fn fnv_fold(chunks: impl IntoIterator<Item = u64>) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for c in chunks {
        for b in c.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    ((h >> 32) ^ h) as u32
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
    fnv_fold(
        out.stats
            .per_core
            .iter()
            .map(|c| c.txs_committed)
            .chain(footprint.iter().map(move |&a| {
                let base = a.as_u64() / LINE * LINE;
                let off = (a.as_u64() - base) as usize;
                if off + 8 > silo_types::BUF_LINE_BYTES {
                    return out.pm.peek_word(a).as_u64(); // straddles two lines
                }
                if base != line_base {
                    out.pm.peek_into(PhysAddr::new(base), &mut line);
                    line_base = base;
                }
                u64::from_le_bytes(line[off..off + 8].try_into().expect("word within line"))
            })),
    )
}

fn run_point(
    scheme: &str,
    config: &SimConfig,
    streams: &TraceSet,
    footprint: &[PhysAddr],
    fault: Fault,
    point: u64,
    cp: Option<&EngineCheckpoint>,
) -> PointResult {
    let mut s = make_scheme(scheme, config);
    let plan = fault.plan(point);
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
                    fault.describe(),
                );
                debug_assert_eq!(
                    image_digest(&scratch, footprint),
                    image_digest(&out, footprint),
                    "resume-vs-scratch recovered-image divergence: {scheme} {} point {point}",
                    fault.describe(),
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
    fault: Fault,
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
            .map(|&n| steps.and_then(|log| log.last_before(self.fault.plan(n).trigger)))
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
fn axis_total(fault: Fault, clean: &silo_sim::RunOutcome) -> u64 {
    match fault {
        Fault::OpBoundary => clean.stats.sim_cycles.as_u64(),
        _ => clean.pm.events().total(),
    }
}

/// Shrinks a violating `(txs_per_core, point)` pair: halve the stream
/// while a bounded re-scan still violates, then scan for the earliest
/// violating point at the final length.
fn shrink(
    scheme: &str,
    workload: &str,
    config: &SimConfig,
    fault: Fault,
    seed: u64,
    mut txs_per_core: usize,
    mut point: u64,
) -> (usize, u64) {
    let w = workload_by_name(workload).expect("benchmark");
    // The first violating point at `txs` transactions per core, among the
    // candidates `points` picks given the clean run's axis total.
    let scan = |txs: usize, points: &dyn Fn(u64) -> Vec<u64>| -> Option<u64> {
        let streams = TraceCache::global().get_or_build(&w, CORES, txs, seed);
        let footprint = write_footprint(&streams);
        let (clean, steps) = clean_run(scheme, config, &streams);
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
pub(crate) fn execute_sweep(
    scheme: &str,
    workload: &str,
    txs_per_core: usize,
    seed: u64,
    fault: FaultSpec,
    points_per_cell: u64,
    point: Option<u64>,
) -> CellOutcome {
    let fault = Fault::from_spec(fault);
    // A stale spec (e.g. a result-store entry naming a since-renamed
    // workload) must surface as a reportable cell error, not take down the
    // whole sweep: the other cells of the run are still valid.
    let Some(w) = workload_by_name(workload) else {
        return CellOutcome::failed(format!(
            "unknown workload {workload:?} in cell \
             {scheme}/{workload}/txs={txs_per_core}/fault={}",
            fault.describe()
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
        let (clean, steps) = clean_run(scheme, &config, &streams);
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
    let cfg = parse_config(p);
    let txs_per_core = (p.txs / CORES).max(1);
    let mut cells = Vec::new();
    for bench in &p.benches {
        if workload_by_name(bench).is_none() {
            eprintln!("error: unknown benchmark {bench:?}");
            std::process::exit(2);
        }
        for scheme in &cfg.schemes {
            for &fault in &cfg.faults {
                cells.push(CellSpec::new(
                    CellLabel::swc(scheme, bench, CORES)
                        .with_param(format!("fault={}", fault.describe())),
                    p.seed,
                    CellWork::CrashSweep {
                        scheme: scheme.clone(),
                        workload: bench.clone(),
                        txs_per_core,
                        fault: fault.to_spec(),
                        points: cfg.points,
                        point: cfg.point,
                    },
                ));
            }
        }
    }
    cells
}

fn render(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let cfg = parse_config(p);
    let txs_per_core = (p.txs / CORES).max(1);
    writeln!(out, "Crash-surface fuzzing (differential, {CORES} cores)").unwrap();
    writeln!(
        out,
        "{} txs/core, seed {}, faults: {}",
        txs_per_core,
        p.seed,
        cfg.faults
            .iter()
            .map(|f| f.describe())
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
    let mut repros = Vec::new();
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
            total_runs += 1;
            let v = outcome.value(&format!("p{j}_viol")) as u64;
            let amb = outcome.value(&format!("p{j}_amb")) as u64;
            viols += v;
            ambig += amb;
            // Differential compare: equal progress on the same workload
            // must mean an identical recovered footprint — across schemes
            // and fault models alike. Commit-racing (ambiguous) runs are
            // legitimately bimodal, so they stay out.
            if amb == 0 && v == 0 {
                let prog: Vec<u64> = (0..CORES)
                    .map(|i| outcome.value(&format!("p{j}_prog{i}")) as u64)
                    .collect();
                let dig = outcome.value(&format!("p{j}_dig")) as u32;
                let at = outcome.value(&format!("p{j}_at")) as u64;
                let who = format!("{}/{}/{}@{at}", label.scheme, label.workload, label.param);
                match groups.entry((label.workload.clone(), prog.clone())) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((dig, who));
                    }
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let (d0, who0) = e.get();
                        if *d0 != dig {
                            divergences
                                .push(format!("{who} disagrees with {who0} at progress {prog:?}"));
                        }
                    }
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
        let fault = cfg
            .faults
            .iter()
            .find(|f| label.param == format!("fault={}", f.describe()))
            .copied()
            .expect("cell fault is one of the configured models");
        let mut row = JsonValue::object()
            .field("scheme", label.scheme.as_str())
            .field("workload", label.workload.as_str())
            .field("fault", fault.name())
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
                fault.name(),
                fault.repro_flags()
            );
            repros.push((label, repro.clone()));
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
    for (label, repro) in &repros {
        writeln!(
            out,
            "VIOLATION {} / {} / {}",
            label.scheme,
            label.workload,
            label.param.trim_start_matches("fault=")
        )
        .unwrap();
        writeln!(out, "  minimal repro: {repro}").unwrap();
    }

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
        kind: ExpKind::Custom { build, render },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_checkpoints_lasts_only_for_its_own_run() {
        let spec = spec();
        let mut p = ExpParams::defaults(&spec);
        p.extra = vec!["--no-checkpoints".to_string()];
        build(&p);
        assert!(!CHECKPOINTS_ENABLED.load(Ordering::Relaxed));
        p.extra.clear();
        build(&p);
        assert!(
            CHECKPOINTS_ENABLED.load(Ordering::Relaxed),
            "a run without --no-checkpoints resumes from checkpoints again"
        );
    }
}
