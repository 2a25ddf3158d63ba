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
use std::sync::{Arc, Mutex, OnceLock};

use silo_sim::{
    CheckpointPolicy, CheckpointSet, CrashPlan, Engine, FaultModel, RunOutcome, SimConfig, TraceSet,
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

fn checkpoint_policy() -> Option<CheckpointPolicy> {
    CHECKPOINTS_ENABLED
        .load(Ordering::Relaxed)
        .then(CheckpointPolicy::default)
}

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
    if p.extra.iter().any(|a| a == "--no-checkpoints") {
        CHECKPOINTS_ENABLED.store(false, Ordering::Relaxed);
    }
    Config {
        schemes,
        faults,
        points,
        point,
    }
}

/// A clean reference run together with the checkpoints its recording run
/// captured, shared process-wide behind one `Arc`.
struct CleanRef {
    out: RunOutcome,
    ckpts: CheckpointSet,
}

/// The clean (no-crash) reference run for one scheme × workload × stream
/// shape, shared process-wide. The clean run does not depend on the fault
/// model — faults only act at crash time — so the fault-model cells of one
/// sweep row reuse a single run (and a single checkpoint set) instead of
/// each recomputing it. The cached outcome is immutable and its PM image
/// is copy-on-write, so sharing it is pointer bumps. The map lock covers
/// only the per-key slot lookup; the run itself executes under the slot's
/// own `OnceLock`, so two workers asking for the same key still share one
/// computation while workers on *different* cells proceed concurrently
/// (a single map-wide lock used to serialize every worker's clean run).
fn clean_run(
    scheme: &str,
    config: &SimConfig,
    streams: &TraceSet,
    bench: &str,
    txs_per_core: usize,
    seed: u64,
) -> Arc<CleanRef> {
    type Key = (String, String, usize, u64, u64);
    type Slot = Arc<OnceLock<Arc<CleanRef>>>;
    static CACHE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // Keyed by the hasher scramble seed as well so the hash-order
    // independence test exercises fresh clean runs under every scramble
    // instead of reusing the first run's cached outcome.
    let key = (
        scheme.to_string(),
        bench.to_string(),
        txs_per_core,
        seed,
        silo_types::hash::scramble_seed(),
    );
    let slot = {
        let mut guard = cache.lock().expect("clean-run cache poisoned");
        Arc::clone(guard.entry(key).or_default())
    };
    Arc::clone(slot.get_or_init(|| {
        let mut s = make_scheme(scheme, config);
        let engine = Engine::new(config, s.as_mut());
        let (out, ckpts) = match checkpoint_policy() {
            Some(policy) => engine.run_recording(streams, policy),
            None => (engine.run(streams, None), CheckpointSet::default()),
        };
        Arc::new(CleanRef { out, ckpts })
    }))
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
    ckpts: Option<&CheckpointSet>,
) -> PointResult {
    let mut s = make_scheme(scheme, config);
    let plan = fault.plan(point);
    // Sharing the trace across crash points: this conversion is pointer
    // bumps, where it used to deep-clone every stream per point.
    let out = match ckpts.and_then(|cs| cs.nearest(plan.trigger)) {
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
    let rescan = |txs: usize| -> Option<u64> {
        let streams = TraceCache::global().get_or_build(&w, CORES, txs, seed);
        let footprint = write_footprint(&streams);
        let clean = clean_run(scheme, config, &streams, workload, txs, seed);
        spaced(axis_total(fault, &clean.out), SHRINK_SCAN)
            .into_iter()
            .find(|&n| {
                run_point(
                    scheme,
                    config,
                    &streams,
                    &footprint,
                    fault,
                    n,
                    Some(&clean.ckpts),
                )
                .violations
                    > 0
            })
    };
    while txs_per_core > 1 {
        match rescan(txs_per_core / 2) {
            Some(n) => {
                txs_per_core /= 2;
                point = n;
            }
            None => break,
        }
    }
    // Earliest violating point at the final stream length.
    let streams = TraceCache::global().get_or_build(&w, CORES, txs_per_core, seed);
    let footprint = write_footprint(&streams);
    let clean = clean_run(scheme, config, &streams, workload, txs_per_core, seed);
    let mut candidates = spaced(point, EARLIEST_SCAN);
    candidates.dedup();
    for n in candidates {
        let r = run_point(
            scheme,
            config,
            &streams,
            &footprint,
            fault,
            n,
            Some(&clean.ckpts),
        );
        if r.violations > 0 {
            return (txs_per_core, n);
        }
    }
    (txs_per_core, point)
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
    let clean = clean_run(scheme, &config, &streams, workload, txs_per_core, seed);
    let points = match point {
        Some(n) => vec![n],
        None => spaced(axis_total(fault, &clean.out), points_per_cell),
    };
    let mut out =
        CellOutcome::from_stats(clean.out.stats.clone()).with_value("points", points.len() as f64);
    let mut worst: Option<u64> = None;
    for (j, &n) in points.iter().enumerate() {
        let r = run_point(
            scheme,
            &config,
            &streams,
            &footprint,
            fault,
            n,
            Some(&clean.ckpts),
        );
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
