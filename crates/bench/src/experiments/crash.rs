//! The crash experiments, `crashfuzz` and `fuzz`, on one crash engine.
//!
//! Both cut power in one scheme on the 2-core Table II machine running a
//! cached workload trace, let the scheme recover, and judge the recovered
//! image once, with the [`silo_sim::TxOracle`]. Every crash is a
//! [`CrashPlan`]: a trigger (a cycle, or the N-th durability event) and a
//! [`FaultModel`] for the post-crash drain (perfect ADR, a torn 256 B line
//! program, or a bounded battery, paper Table IV), optionally re-crashing
//! recovery. One set of naming helpers (`fault_parts`, `named_plan`,
//! `describe`) turns plans into report text, repro lines, value lists and
//! corpus entries and back.
//!
//! Every crash target, a `fuzz` cell or a `crashfuzz` unit (the fault
//! cells of one scheme × workload, `CellSpec::unit_key`), builds one
//! `Target`, runs its clean reference run once while logging where each
//! engine step lies on both crash axes, and walks that run once to lend
//! its checkpoints to the crash runs (`Target::run`) of all its cells. A
//! resumed crash run equals the same plan run from t=0; debug builds
//! re-run every resumed plan from scratch and assert it. Every engine of
//! a target runs on a machine the target owns ([`Engine::on`]): a sweep
//! unit builds two, the walk's and the one its other runs share, and a
//! search cell one, so a crash run pays neither for new cache slabs nor
//! for page faults on them.
//!
//! * `crashfuzz` sweeps evenly spaced crash points × fault models × every
//!   scheme × workloads. `op-boundary` is the cycle-sampled trigger (cores
//!   halt at an op boundary once their clock passes the cut, perfect ADR);
//!   `torn-line` and `battery` crash at durability events. Recovered
//!   images are compared *differentially*: any two runs of one workload
//!   that crashed at the same per-core committed progress must agree on
//!   every word the workload writes, whichever scheme and fault produced
//!   them. A violation shrinks to a minimal `(stream, crash point, fault)`
//!   triple printed as a runnable `evaluate crashfuzz ... --point N`.
//! * `fuzz` *searches*: a corpus of crash plans at durability events is
//!   mutated libFuzzer-style toward novel probe-event **coverage
//!   signatures** ([`silo_sim::Signature`]). A candidate that lights up new
//!   features joins the corpus. The oracle's per-word transition log is
//!   on, so a violation is localized to its first offending word and the
//!   durability event of that word's last transition; it prints as a
//!   runnable `evaluate fuzz ... --crash-event N --execs 1
//!   --no-corpus` (arrival idents included). The search is a pure function
//!   of its seed, byte-identical at any `--jobs`, and persists its corpus
//!   under `target/fuzz-corpus/<workload>/<scheme>/` (`--corpus DIR`,
//!   `--no-corpus`), one JSON file per interesting candidate named by its
//!   signature digest, so a nightly run resumes where the last one stopped.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::{Path, PathBuf};

use silo_pm::{PmDevice, PmPage};
use silo_sim::{
    CrashPlan, CrashTrigger, Engine, EngineCheckpoint, FaultModel, LoggingScheme, Machine,
    RunOutcome, Signature, SimConfig, SimStats, StepLog, TraceSet, VIOLATION_KINDS,
};
use silo_types::{
    mask_words, Cycles, Fnv1a, FxHashMap, JsonValue, PageMask, Word, WordImage, Xoshiro256,
    BUF_LINE_BYTES,
};
use silo_workloads::ArrivalProcess;

use crate::cellspec::{
    crash_workload_spec, CellSpec, CellWork, FaultSpec, RunOptions, CRASH_CORES as CORES,
};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec};
use crate::flags::{
    any, schemes, Flag, Line, Value::*, BATTERY_BYTES, BENCH, DEFAULT_BATTERY_BYTES,
    DEFAULT_TORN_KEEP, MAX, SCHEME, TORN_KEEP,
};
use crate::{make_scheme, TraceCache};

/// Default crash points per sweep cell (`--points` overrides).
const POINTS: u64 = 4;
/// Shrink search widths.
const SHRINK_SCAN: u64 = 16;
const EARLIEST_SCAN: u64 = 64;
/// Default execution budget per search cell (`--execs` overrides).
const DEFAULT_EXECS: u64 = 24;
/// Seed candidates per fault model of a search: evenly spaced events.
const SEED_POINTS: u64 = 4;
/// Violations recorded in full (event/fault/word detail) per search cell.
const MAX_RECORDED: usize = 8;
/// Corpus entry format version.
const CORPUS_VERSION: u64 = 1;
/// The `--fault` names of a sweep and of a search. A search crashes only
/// at durability events, so where the sweep has the cycle-sampled
/// `op-boundary` trigger it names perfect ADR `adr`.
const SWEEP_FAULTS: [&str; 3] = ["op-boundary", "torn-line", "battery"];
const SEARCH_FAULTS: [&str; 3] = ["adr", "torn-line", "battery"];

const FAULT: Flag =
    Flag::new("--fault", OneOf(&SWEEP_FAULTS)).help("sweep one fault model (default: all three)");
const POINTS_FLAG: Flag =
    Flag::new("--points", Int(1, MAX)).help("crash points per cell (default 4)");
// A point means something on one fault's axis only: cycles under
// op-boundary, durability-event indices under torn-line and battery.
const POINT: Flag = Flag::new("--point", Int(0, MAX))
    .requires("--fault")
    .help("one crash point: a cycle (op-boundary) or an event index");
const NO_CHECKPOINTS: Flag = Flag::new("--no-checkpoints", Switch)
    .help("run every crash point from scratch (same answers, slower)");

const SEARCH_FAULT: Flag =
    Flag::new("--fault", OneOf(&SEARCH_FAULTS)).help("search one fault model (default: all three)");
const EXECS: Flag = Flag::new("--execs", Int(1, MAX)).help("runs per cell (default 24)");
const CRASH_EVENT: Flag = Flag::new("--crash-event", Int(1, MAX))
    .requires("--fault")
    .help("replay one candidate crashing at this durability event");
const RECOVERY_CRASH: Flag = Flag::new("--recovery-crash", Int(1, MAX))
    .requires("--crash-event")
    .help("re-crash its recovery after this many writes");
const ARRIVAL: Flag = Flag::new(
    "--arrival",
    Name("ident", |n| ArrivalProcess::parse(n).is_some()),
)
.help("arrivals: closed, poisson<G>, bursty<G>x<B>i<I> or diurnal<S>-<E>");
const CORPUS: Flag =
    Flag::new("--corpus", Name("dir", any)).help("corpus root (default target/fuzz-corpus)");
const NO_CORPUS: Flag = Flag::new("--no-corpus", Switch).help("read and write no corpus");

/// The knob `line` gives fault `name` (`--torn-keep` for `torn-line`,
/// `--battery-bytes` otherwise), or its default.
fn knob(line: &Line, name: &str) -> u64 {
    match name {
        "torn-line" => line.int(TORN_KEEP.name).unwrap_or(DEFAULT_TORN_KEEP),
        _ => line
            .int(BATTERY_BYTES.name)
            .unwrap_or(DEFAULT_BATTERY_BYTES),
    }
}

/// A crash's fault as the command line names it: its `--fault` word and
/// knob (0 where it has none). A cycle-triggered crash is `op-boundary`;
/// at a durability event, perfect ADR is `adr`.
fn fault_parts(plan: &CrashPlan) -> (&'static str, u64) {
    let FaultModel {
        torn_line_keep_bytes: keep,
        battery_budget_bytes: bytes,
    } = plan.fault;
    match (plan.trigger, keep, bytes) {
        (CrashTrigger::Cycle(_), None, None) => ("op-boundary", 0),
        (CrashTrigger::Event(_), None, None) => ("adr", 0),
        (CrashTrigger::Event(_), Some(keep), None) => ("torn-line", keep as u64),
        (CrashTrigger::Event(_), None, Some(bytes)) => ("battery", bytes),
        _ => unreachable!("no --fault names {plan:?}"),
    }
}

/// The crash that `--fault name` with knob `arg` names at `point`: the
/// inverse of [`fault_parts`]. `None` for a name no `--fault` knows.
fn named_plan(name: &str, arg: u64, point: u64) -> Option<CrashPlan> {
    let at = CrashPlan::at_event(point);
    match name {
        "op-boundary" => Some(CrashPlan::at_cycle(Cycles::new(point))),
        "adr" => Some(at),
        "torn-line" => Some(at.with_fault(FaultModel::torn_line(arg as usize))),
        "battery" => Some(at.with_fault(FaultModel::bounded_battery(arg))),
        _ => None,
    }
}

/// How reports print a crash's fault: `op-boundary`, `adr`,
/// `torn-line(keep=K)` or `battery(B B)`.
fn describe(plan: &CrashPlan) -> String {
    match fault_parts(plan) {
        ("torn-line", keep) => format!("torn-line(keep={keep})"),
        ("battery", bytes) => format!("battery({bytes} B)"),
        (name, _) => name.to_string(),
    }
}

/// Where a crash cuts power, on its trigger's axis.
fn point(plan: &CrashPlan) -> u64 {
    match plan.trigger {
        CrashTrigger::Cycle(c) => c.as_u64(),
        CrashTrigger::Event(n) => n,
    }
}

/// The command line that re-runs one crash of a cell's row: the cell's
/// coordinates, the plan's fault flags, then `tail`.
fn repro(
    exp: &str,
    label: &CellLabel,
    txs: u64,
    seed: u64,
    plan: &CrashPlan,
    tail: &str,
) -> String {
    let (name, arg) = fault_parts(plan);
    let knob = match name {
        "torn-line" => format!(" --torn-keep {arg}"),
        "battery" => format!(" --battery-bytes {arg}"),
        _ => String::new(),
    };
    let (scheme, bench) = (&label.scheme, &label.workload);
    let cell = format!("--scheme {scheme} --bench {bench} --txs {txs} --seed {seed}");
    format!("evaluate {exp} {cell} --fault {name}{knob}{tail}")
}

/// `k` evenly spaced interior points of an axis of `total`:
/// `(total * (2i + 1)) / (2 * k)`.
fn spaced(total: u64, k: u64) -> Vec<u64> {
    (0..k).map(|i| (total * (2 * i + 1)) / (2 * k)).collect()
}

/// What every crash run of one target shares: its scheme on the 2-core
/// Table II machine, the cached trace, and every word the trace writes.
struct Target {
    scheme: String,
    config: SimConfig,
    streams: TraceSet,
    /// Every distinct word the workload writes, across setup and measured
    /// transactions: one mask of its words per page, pages ascending.
    footprint: Vec<(u64, PageMask)>,
    /// Whether crash runs log every word's transitions, so violations
    /// carry histories, and record coverage signatures (`fuzz`).
    judging: bool,
}

impl Target {
    /// The target of one search cell, or of one sweep unit's cells.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload or an unparseable arrival ident,
    /// which the flag table rejects before any cell is built.
    fn new(
        scheme: &str,
        workload: &str,
        arrival: Option<&str>,
        txs_per_core: usize,
        seed: u64,
        judging: bool,
    ) -> Target {
        // The streams the cells' specs name (workload, arrival process,
        // transactions per core, seed) on the crash cells' fixed cores.
        let w = crash_workload_spec(workload, arrival).instantiate();
        let streams = TraceCache::global().get_or_build(&*w, CORES, txs_per_core, seed);
        let mut footprint = WordImage::new();
        for op in streams
            .streams()
            .iter()
            .flat_map(|s| s.iter())
            .flat_map(|tx| tx.ops())
        {
            if let silo_sim::Op::Write(a, _) = op {
                footprint.insert(*a, Word::ZERO);
            }
        }
        let footprint = footprint.pages().map(|p| (p.index, *p.written)).collect();
        Target {
            scheme: scheme.to_string(),
            config: SimConfig::table_ii(CORES),
            streams,
            footprint,
            judging,
        }
    }

    fn new_scheme(&self) -> Box<dyn LoggingScheme> {
        make_scheme(&self.scheme, &self.config)
    }

    /// `engine`, judging if the target does.
    fn judged<'s>(&self, mut engine: Engine<'s>) -> Engine<'s> {
        if self.judging {
            engine.enable_spec();
            engine.machine_mut().probe.enable_signature();
        }
        engine
    }

    /// The clean (no-crash) reference run on `machine`, with the log of
    /// where its loop steps lie on both crash axes.
    fn clean_run(&self, machine: &mut Machine) -> (RunOutcome, StepLog) {
        #[cfg(test)]
        tests::CLEAN_RUNS.with(|n| n.set(n.get() + 1));
        let mut s = self.new_scheme();
        Engine::on(machine, s.as_mut()).run_logging_steps(&self.streams)
    }

    /// Walks the clean run once on `machine`, stopping at each of `stops`
    /// (steps of its log) in ascending order, and hands `visit` each
    /// stop's step and checkpoint, which carries the transition log and
    /// signature recorder when the target judges. The callback owns the
    /// checkpoint: a sweep drops it, a search keeps it. A `false` from
    /// `visit` ends the walk. The walk holds `machine` until it ends, so
    /// crash runs inside `visit` need another.
    fn walk(
        &self,
        machine: &mut Machine,
        stops: &[u64],
        visit: impl FnMut(u64, EngineCheckpoint) -> bool,
    ) {
        if !stops.is_empty() {
            #[cfg(test)]
            tests::WALKS.with(|n| n.set(n.get() + 1));
            let mut s = self.new_scheme();
            self.judged(Engine::on(machine, s.as_mut()))
                .walk(&self.streams, stops, visit);
        }
    }

    /// Runs `plan` on `machine` from t=0, or resumed from a checkpoint of
    /// the walk that lies before its trigger. Both are the same run:
    /// debug builds re-run every resumed plan from t=0 on a new machine
    /// and assert equal statistics, verdict (histories included),
    /// recovery, signature and recovered footprint.
    fn run(
        &self,
        machine: &mut Machine,
        plan: CrashPlan,
        from: Option<&EngineCheckpoint>,
    ) -> RunOutcome {
        let mut s = self.new_scheme();
        let Some(cp) = from else {
            return self
                .judged(Engine::on(machine, s.as_mut()))
                .run_with_plan(&self.streams, Some(plan));
        };
        let out = Engine::on(machine, s.as_mut()).run_resumed(&self.streams, plan, cp);
        #[cfg(debug_assertions)]
        {
            let mut s = self.new_scheme();
            let scratch = self
                .judged(Engine::new(&self.config, s.as_mut()))
                .run_with_plan(&self.streams, Some(plan));
            let seen = |o: &RunOutcome| {
                let crash = o.crash.clone().expect("crash injected");
                let mut image = Vec::new();
                footprint_words(&o.pm, &self.footprint, |w| image.push(w));
                let verdict = (crash.consistency, crash.recovery, crash.double_crash);
                (o.stats.to_json().to_string(), verdict, o.signature, image)
            };
            debug_assert!(
                seen(&scratch) == seen(&out),
                "resume-vs-scratch divergence: {} {plan:?}",
                self.scheme
            );
        }
        out
    }
}

/// What one sweep crash run produced, condensed for the cell's value list.
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

/// Hands `visit` the recovered value of every footprint word, in ascending
/// address order, reading each footprint page of `pm` once.
fn footprint_words(pm: &PmDevice, footprint: &[(u64, PageMask)], mut visit: impl FnMut(u64)) {
    let mut page = PmPage::default();
    for (index, words) in footprint {
        pm.peek_page(*index, &mut page);
        mask_words(words).for_each(|w| visit(page.word(w)));
    }
}

/// The digest of `pm`, a recovered image, over the workload footprint,
/// with `progress`, the per-core committed counts, folded in first so
/// equal digests imply equal progress losslessly. Only word *values* are
/// folded, one multiply each (the Fx recurrence: rotate, xor, multiply by
/// an odd constant), from the FNV-1a 64 offset basis: the footprint is the
/// same for every crash point of a target, so hashing its addresses adds
/// cost without discrimination.
fn image_digest(pm: &PmDevice, progress: &[u64], footprint: &[(u64, PageMask)]) -> u32 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = BASIS;
    let mut fold = |word: u64| h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    progress.iter().for_each(|&c| fold(c));
    footprint_words(pm, footprint, &mut fold);
    // Folded to 32 bits so it survives an `f64` cell value.
    ((h >> 32) ^ h) as u32
}

impl Target {
    /// Crashes the target under each of `faults` at the points `pick`
    /// takes from its clean run's total on that fault's axis (cycles for
    /// op-boundary, durability events otherwise), handing each result to
    /// `keep_going` with its fault's index; a `false` ends the sweep. Each
    /// fault's results come in its points' order. Returns the clean run's
    /// statistics.
    ///
    /// One clean run serves every fault. With `checkpoints`, one walk of
    /// it stops at the last step before each point of any fault and lends
    /// that checkpoint to every point resuming there, dropping it before
    /// stepping on, so a resumed point re-simulates at most one step;
    /// ascending points make ascending stops. A point with no earlier
    /// step, and every point without `checkpoints`, runs from scratch
    /// before the walk. The walk runs on `machines[0]`, every other run on
    /// `machines[1]`.
    fn sweep(
        &self,
        machines: &mut [Machine; 2],
        faults: &[FaultSpec],
        checkpoints: bool,
        pick: impl Fn(u64) -> Vec<u64>,
        mut keep_going: impl FnMut(usize, PointResult) -> bool,
    ) -> SimStats {
        let [walker, machine] = machines;
        // Only the clean run's statistics and step log outlive this
        // block; its PM image does not.
        let (stats, plans, steps) = {
            let (clean, steps) = self.clean_run(machine);
            let (cycles, events) = (clean.stats.sim_cycles.as_u64(), clean.pm.events().total());
            let plans: Vec<Vec<CrashPlan>> = faults
                .iter()
                .map(|&fault| {
                    let total = match fault {
                        FaultSpec::OpBoundary => cycles,
                        _ => events,
                    };
                    pick(total).into_iter().map(|n| fault.plan(n)).collect()
                })
                .collect();
            (clean.stats, plans, steps)
        };
        // Where each plan resumes: the walk's stop, or `None` for scratch.
        let at: Vec<Vec<Option<u64>>> = plans
            .iter()
            .map(|plans| {
                let at = |p: &CrashPlan| steps.last_before(p.trigger).filter(|_| checkpoints);
                plans.iter().map(at).collect()
            })
            .collect();
        drop(steps);
        // Each fault's next plan to run.
        let mut next = vec![0; faults.len()];
        // Runs every fault's plans that resume at `stop`, from `cp`.
        let mut run_due = |stop: Option<u64>, cp: Option<&EngineCheckpoint>| {
            for (f, plans) in plans.iter().enumerate() {
                while next[f] < plans.len() && at[f][next[f]] == stop {
                    let plan = plans[next[f]];
                    next[f] += 1;
                    let out = self.run(machine, plan, cp);
                    let crash = out.crash.as_ref().expect("crash injected");
                    let progress: Vec<u64> =
                        out.stats.per_core.iter().map(|c| c.txs_committed).collect();
                    let result = PointResult {
                        point: point(&plan),
                        violations: crash.consistency.violations.len() as u64,
                        ambiguous: crash.ambiguous_txs,
                        digest: image_digest(&out.pm, &progress, &self.footprint),
                        progress,
                    };
                    if !keep_going(f, result) {
                        return false;
                    }
                }
            }
            true
        };
        if !run_due(None, None) {
            return stats;
        }
        let stops: Vec<u64> = at.iter().flatten().flatten().copied().collect();
        let mut ended = false;
        self.walk(walker, &stops, |step, cp| {
            ended = !run_due(Some(step), Some(&cp));
            !ended
        });
        // Each fault's plans ascend on its axis, so their resume steps
        // ascend; the steps come from this clean run's own log, so the
        // walk reaches every one unless a `false` ended the sweep.
        debug_assert!(
            ended || next.iter().zip(&plans).all(|(&n, p)| n == p.len()),
            "the walk left plans over"
        );
        stats
    }
}

/// Executor of [`CellWork::CrashSweep`] units: the fault cells of one
/// scheme × workload (equal [`CellSpec::unit_key`]s), each a sweep row.
/// One target, one clean run and one walk of it serve every cell's spaced
/// (or one fixed) crash points, each cell's on its own fault's axis; then
/// each cell shrinks its first violation alone. Every outcome equals its
/// cell's outcome in a unit of one.
pub(crate) fn execute_sweeps(unit: &[&CellSpec]) -> Vec<CellOutcome> {
    let fault_of = |cell: &CellSpec| match cell.work {
        CellWork::CrashSweep { fault, .. } => fault,
        _ => unreachable!("not a sweep: {:?}", cell.work),
    };
    let faults: Vec<FaultSpec> = unit.iter().map(|&cell| fault_of(cell)).collect();
    let first = unit[0];
    debug_assert!(
        unit.iter().all(|cell| cell.unit_key() == first.unit_key()),
        "one unit's cells share their target"
    );
    let CellWork::CrashSweep {
        ref scheme,
        ref workload,
        txs_per_core,
        points,
        point,
        ..
    } = first.work
    else {
        unreachable!("checked above")
    };
    let checkpoints = first.options.checkpoints;
    let target = |txs| Target::new(scheme, workload, None, txs, first.seed, false);
    let t = target(txs_per_core);
    // Every engine of the unit, shrink sweeps included, runs on these.
    let mut machines = crate::runner::lease(&t.config);
    let mut results: Vec<Vec<PointResult>> = faults.iter().map(|_| Vec::new()).collect();
    let pick = |total| point.map_or_else(|| spaced(total, points), |n| vec![n]);
    let stats = t.sweep(&mut machines, &faults, checkpoints, pick, |f, r| {
        results[f].push(r);
        true
    });
    drop(t);
    faults
        .into_iter()
        .zip(results)
        .map(|(fault, results)| {
            let out = sweep_row(stats.clone(), &results);
            let Some(first_bad) = results.iter().find(|r| r.violations > 0) else {
                return out;
            };
            let found = (txs_per_core, first_bad.point);
            let (txs, point) = shrink(&mut machines, &target, fault, checkpoints, found);
            out.with_value("shrunk_txs", (txs * CORES) as f64)
                .with_value("shrunk_point", point as f64)
        })
        .collect()
}

/// One sweep row's values: the clean run's statistics and each point's
/// position, verdict counts, progress and image digest.
fn sweep_row(stats: SimStats, results: &[PointResult]) -> CellOutcome {
    let mut out = CellOutcome::from_stats(stats).with_value("points", results.len() as f64);
    for (j, r) in results.iter().enumerate() {
        out = out
            .with_value(&format!("p{j}_at"), r.point as f64)
            .with_value(&format!("p{j}_viol"), r.violations as f64)
            .with_value(&format!("p{j}_amb"), r.ambiguous as f64)
            .with_value(&format!("p{j}_dig"), r.digest as f64);
        for (i, &c) in r.progress.iter().enumerate() {
            out = out.with_value(&format!("p{j}_prog{i}"), c as f64);
        }
    }
    out
}

/// Shrinks a violation of `fault` found at `(txs, point)`: halves the
/// stream while a bounded re-scan still violates, then scans for the
/// earliest violating point at the final length. Returns the shrunk
/// transactions per core and crash point.
fn shrink(
    machines: &mut [Machine; 2],
    target: &dyn Fn(usize) -> Target,
    fault: FaultSpec,
    checkpoints: bool,
    (mut txs, mut point): (usize, u64),
) -> (usize, u64) {
    let mut first_violation = |txs: usize, pick: &dyn Fn(u64) -> Vec<u64>| {
        let mut found = None;
        target(txs).sweep(machines, &[fault], checkpoints, pick, |_, r| {
            found = found.or((r.violations > 0).then_some(r.point));
            found.is_none()
        });
        found
    };
    while txs > 1 {
        match first_violation(txs / 2, &|total| spaced(total, SHRINK_SCAN)) {
            Some(n) => (txs, point) = (txs / 2, n),
            None => break,
        }
    }
    let earliest = first_violation(txs, &|_| {
        let mut candidates = spaced(point, EARLIEST_SCAN);
        candidates.dedup();
        candidates
    });
    (txs, earliest.unwrap_or(point))
}

/// The fault models the sweep line selects: the one `--fault` names, or
/// all three, with the line's knobs.
fn faults(line: &Line) -> Vec<FaultSpec> {
    let all = [
        FaultSpec::OpBoundary,
        FaultSpec::TornLine(knob(line, "torn-line") as usize),
        FaultSpec::Battery(knob(line, "battery")),
    ];
    let chosen = line.text(FAULT.name);
    all.into_iter()
        .filter(|f| chosen.is_none_or(|name| name == fault_parts(&f.plan(0)).0))
        .collect()
}

fn build_sweep(p: &ExpParams) -> Vec<CellSpec> {
    let line = p.line();
    let txs_per_core = (p.txs / CORES).max(1);
    let points = line.int(POINTS_FLAG.name).unwrap_or(POINTS);
    let point = line.int(POINT.name);
    let options = RunOptions {
        checkpoints: !line.switch(NO_CHECKPOINTS.name),
        ..RunOptions::default()
    };
    let mut cells = Vec::new();
    for bench in &p.benches {
        for scheme in schemes(&line) {
            for fault in faults(&line) {
                let work = CellWork::CrashSweep {
                    scheme: scheme.clone(),
                    workload: bench.clone(),
                    txs_per_core,
                    fault,
                    points,
                    point,
                };
                let label = CellLabel::swc(&scheme, bench, CORES)
                    .with_param(format!("fault={}", describe(&fault.plan(0))));
                cells.push(CellSpec::new(label, p.seed, work).with_options(options.clone()));
            }
        }
    }
    cells
}

fn render_sweep(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let faults: Vec<CrashPlan> = faults(&p.line()).iter().map(|f| f.plan(0)).collect();
    let txs_per_core = (p.txs / CORES).max(1);
    writeln!(out, "Crash-surface fuzzing (differential, {CORES} cores)").unwrap();
    let names: Vec<String> = faults.iter().map(describe).collect();
    let seed = p.seed;
    writeln!(
        out,
        "{txs_per_core} txs/core, seed {seed}, faults: {}",
        names.join(", ")
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
        let fault_text = label.param.trim_start_matches("fault=");
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
            label.scheme, label.workload, fault_text, points, viols, ambig
        )
        .unwrap();
        let fault = faults
            .iter()
            .find(|f| describe(f) == fault_text)
            .expect("cell fault is one of the configured models");
        let mut row = JsonValue::object()
            .field("scheme", label.scheme.as_str())
            .field("workload", label.workload.as_str())
            .field("fault", fault_parts(fault).0)
            .field("points", points as f64)
            .field("violations", viols as f64)
            .field("ambiguous", ambig as f64);
        if viols > 0 {
            let txs = outcome.value("shrunk_txs") as u64;
            let tail = format!(" --point {}", outcome.value("shrunk_point") as u64);
            let repro = repro("crashfuzz", label, txs, seed, fault, &tail);
            let at = format!("{} / {} / {fault_text}", label.scheme, label.workload);
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
pub fn crashfuzz() -> ExperimentSpec {
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
        build: build_sweep,
        render: render_sweep,
    }
}

/// The fault model `fuzz --fault` restricts its search to, with its knob.
fn restriction(line: &Line) -> Option<FaultModel> {
    let name = line.text(SEARCH_FAULT.name)?;
    named_plan(name, knob(line, name), 1).map(|p| p.fault)
}

/// The fault models a search seeds: its restriction, or each kind at its
/// default knob.
fn seed_faults(restriction: Option<FaultModel>) -> Vec<FaultModel> {
    match restriction {
        Some(f) => vec![f],
        None => vec![
            FaultModel::perfect_adr(),
            FaultModel::torn_line(DEFAULT_TORN_KEEP as usize),
            FaultModel::bounded_battery(DEFAULT_BATTERY_BYTES),
        ],
    }
}

/// A search's seed candidates: each seed fault model crashing at
/// [`SEED_POINTS`] evenly spaced events of the clean run's `total`,
/// floored to event 1.
fn seed_plans(restriction: Option<FaultModel>, total: u64) -> Vec<CrashPlan> {
    let events = spaced(total, SEED_POINTS);
    seed_faults(restriction)
        .into_iter()
        .flat_map(|f| {
            let at = move |&e: &u64| CrashPlan::at_event(e.max(1)).with_fault(f);
            events.iter().map(at)
        })
        .collect()
}

/// FNV-1a 64 over the cell identity, seeding the mutation RNG.
fn rng_seed(seed: u64, scheme: &str, workload: &str, arrival: Option<&str>) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(seed);
    h.write(scheme.as_bytes());
    h.write(&[0]);
    h.write(workload.as_bytes());
    h.write(&[0]);
    h.write(arrival.unwrap_or("").as_bytes());
    h.finish()
}

/// One mutation step: nudge, resample or retarget the base candidate's
/// crash event, rotate or tweak its fault model, or toggle a recovery
/// re-crash. Restricted searches (`--fault`) never leave their fault kind.
fn mutate(rng: &mut Xoshiro256, base: CrashPlan, total: u64, restricted: bool) -> CrashPlan {
    let mut c = base;
    let total = total.max(1);
    let event = point(&c);
    let FaultModel {
        torn_line_keep_bytes: keep,
        battery_budget_bytes: bytes,
    } = c.fault;
    match rng.next_u64() % 6 {
        0 => c.trigger = CrashTrigger::Event((event + 1 + rng.next_u64() % 16).min(total)),
        1 => c.trigger = CrashTrigger::Event(event.saturating_sub(1 + rng.next_u64() % 16).max(1)),
        2 => c.trigger = CrashTrigger::Event(1 + rng.next_u64() % total),
        // Rotate the fault kind, entering each with its default knob.
        3 if !restricted => {
            c.fault = match (keep, bytes) {
                (None, None) => FaultModel::torn_line(DEFAULT_TORN_KEEP as usize),
                (Some(_), _) => FaultModel::bounded_battery(DEFAULT_BATTERY_BYTES),
                _ => FaultModel::perfect_adr(),
            }
        }
        // Tweak the fault knob in place (ADR has none: resample).
        3 | 4 => match (keep, bytes) {
            (Some(keep), _) => {
                let keep = if rng.next_u64().is_multiple_of(2) {
                    (keep + 16).min(248)
                } else {
                    keep.saturating_sub(16).max(8)
                };
                c.fault = FaultModel::torn_line(keep);
            }
            (_, Some(bytes)) => {
                let bytes = if rng.next_u64().is_multiple_of(2) {
                    (bytes * 2).min(1 << 22)
                } else {
                    (bytes / 2).max(16)
                };
                c.fault = FaultModel::bounded_battery(bytes);
            }
            _ => c.trigger = CrashTrigger::Event(1 + rng.next_u64() % total),
        },
        _ => {
            c.recovery_crash_at = match c.recovery_crash_at {
                None => Some(1 + rng.next_u64() % 8),
                Some(_) => None,
            };
        }
    }
    c
}

/// Serializes a corpus entry: one interesting candidate and the coverage
/// signature digest its run produced.
fn encode_entry(plan: &CrashPlan, sig_digest: &str) -> String {
    let (name, arg) = fault_parts(plan);
    let mut obj = JsonValue::object()
        .field("v", CORPUS_VERSION)
        .field("fault", name)
        .field("arg", arg)
        .field("event", point(plan));
    if let Some(rc) = plan.recovery_crash_at {
        obj = obj.field("rc", rc);
    }
    let mut text = obj.field("sig", sig_digest).build().to_string();
    text.push('\n');
    text
}

/// Rebuilds a candidate from its stored form; `None` on any anomaly (the
/// entry is skipped, not fatal — a stale corpus must never kill a run).
/// Corpus files are untrusted input, so an entry must name a crash the
/// command line can replay: a `fuzz --fault` kind, a torn line within
/// `--torn-keep`'s range, a crash event of at least 1 (as `--crash-event`
/// takes) and a recovery crash of at least one write.
fn decode_entry(text: &str) -> Option<CrashPlan> {
    let v = JsonValue::parse(text).ok()?;
    if v.get("v").and_then(JsonValue::as_u64) != Some(CORPUS_VERSION) {
        return None;
    }
    let name = v.get("fault").and_then(JsonValue::as_str)?;
    let arg = v.get("arg").and_then(JsonValue::as_u64)?;
    let event = v.get("event")?.as_u64().filter(|&n| n >= 1)?;
    let recovery_crash_at = match v.get("rc") {
        Some(rc) => Some(rc.as_u64().filter(|&n| n >= 1)?),
        None => None,
    };
    let torn_too_long = name == "torn-line" && arg > BUF_LINE_BYTES as u64;
    if !SEARCH_FAULTS.contains(&name) || torn_too_long {
        return None;
    }
    let plan = named_plan(name, arg, event)?;
    Some(CrashPlan {
        recovery_crash_at,
        ..plan
    })
}

/// Loads the persisted corpus of one cell, sorted by file name so the
/// replay order (and therefore the whole search) is deterministic, and
/// keeps the entries of the restriction's fault kind.
fn load_corpus(dir: &Path, restriction: Option<FaultModel>) -> Vec<CrashPlan> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort_unstable();
    let kind = restriction.map(|f| fault_parts(&CrashPlan::at_event(1).with_fault(f)).0);
    names
        .into_iter()
        .filter_map(|n| std::fs::read_to_string(dir.join(n)).ok())
        .filter_map(|text| decode_entry(&text))
        .filter(|c| kind.is_none_or(|k| fault_parts(c).0 == k))
        .collect()
}

/// Persists one interesting candidate under its signature digest.
/// Best-effort, like the result store: a read-only disk degrades
/// persistence, never the search.
fn persist_entry(dir: &Path, plan: &CrashPlan, sig_digest: &str) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{sig_digest}.json"));
    let tmp = dir.join(format!("{sig_digest}.tmp.{}", std::process::id()));
    if std::fs::write(&tmp, encode_entry(plan, sig_digest)).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// The candidates a search runs before it mutates: the persisted corpus in
/// its load order, then the seeds, each distinct plan once, where it first
/// appears.
fn first_candidates(stored: Vec<CrashPlan>, seeds: Vec<CrashPlan>) -> Vec<CrashPlan> {
    let mut initial: Vec<CrashPlan> = Vec::new();
    for plan in stored.into_iter().chain(seeds) {
        if !initial.contains(&plan) {
            initial.push(plan);
        }
    }
    initial
}

/// A violating candidate the search records in full.
struct Finding {
    plan: CrashPlan,
    /// Its first offending word: address, word event, index in
    /// [`VIOLATION_KINDS`].
    first_word: (u64, u64, usize),
}

/// Executor entry point for [`CellWork::Fuzz`]: one cell's full search —
/// clean reference run, one walk of it keeping a checkpoint before each
/// seed event, corpus + deterministic seeds, mutation loop to the
/// execution budget, every candidate resumed from the latest checkpoint
/// before its event, one verdict on every recovered image.
/// Interesting candidates persist under `corpus` when one is given.
pub(crate) fn execute_fuzz(cell: &CellSpec) -> CellOutcome {
    let CellWork::Fuzz {
        ref scheme,
        ref workload,
        txs_per_core,
        execs,
        fault,
        crash_event,
        recovery_crash,
        ref arrival,
    } = cell.work
    else {
        unreachable!("not a crash search: {:?}", cell.work)
    };
    let (arrival, seed) = (arrival.as_deref(), cell.seed);
    let target = Target::new(scheme, workload, arrival, txs_per_core, seed, true);
    // Every engine of the cell runs on this one machine: the walk ends
    // before the first candidate runs.
    let mut lease = crate::runner::lease(&target.config);
    let [machine] = &mut *lease;
    // Clean reference run: fixes the durability-event axis length, and
    // logs each loop step's position on it for the walk below.
    let (clean, steps) = target.clean_run(machine);
    let total = clean.pm.events().total();
    // A fixed --crash-event collapses the whole search to one exact
    // candidate; otherwise the seeds are evenly spaced events per allowed
    // fault model, after the persisted corpus (sorted).
    let seeds = match crash_event {
        Some(event) => {
            let fault = fault.expect("--crash-event requires one --fault");
            let plan = CrashPlan::at_event(event).with_fault(fault);
            vec![CrashPlan {
                recovery_crash_at: recovery_crash,
                ..plan
            }]
        }
        None => seed_plans(fault, total),
    };
    // The seed events are where the walk of the clean run keeps its
    // checkpoints; every candidate resumes from the latest one before its
    // own event.
    let stops: Vec<u64> = seeds
        .iter()
        .filter_map(|p| steps.last_before(p.trigger))
        .collect();
    drop(steps);
    let mut checkpoints = Vec::new();
    target.walk(machine, &stops, |_, cp| {
        checkpoints.push(cp);
        true
    });
    let corpus_root = cell.options.corpus.as_ref();
    let cell_dir = corpus_root.map(|root| root.join(workload).join(scheme));
    let stored = match (&cell_dir, crash_event) {
        (Some(dir), None) => load_corpus(dir, fault),
        _ => Vec::new(),
    };
    let initial = first_candidates(stored, seeds);

    let mut coverage = Signature::default();
    let mut corpus: Vec<CrashPlan> = Vec::new();
    let (mut executed, mut violation_count) = (0u64, 0u64);
    let mut findings: Vec<Finding> = Vec::new();
    // Whether each plan run so far violated. A plan drawn again counts as
    // executed, and as a violation if it violated, without running: its
    // signature adds no coverage and its finding is already recorded.
    let mut ran: FxHashMap<CrashPlan, bool> = FxHashMap::default();
    let mut rng = Xoshiro256::seeded(rng_seed(seed, scheme, workload, arrival));
    let mut initial = initial.into_iter();
    while executed < execs {
        let cand = match initial.next() {
            Some(cand) => cand,
            None if !corpus.is_empty() && crash_event.is_none() => {
                let base = corpus[(rng.next_u64() % corpus.len() as u64) as usize];
                mutate(&mut rng, base, total, fault.is_some())
            }
            None => break,
        };
        executed += 1;
        let seen = ran.get(&cand).copied();
        #[cfg(test)]
        tests::DRAWS.with(|d| d.borrow_mut().push((cand, seen.is_none())));
        if let Some(violated) = seen {
            violation_count += u64::from(violated);
            continue;
        }
        let from = checkpoints
            .iter()
            .rev()
            .find(|cp| cp.precedes(cand.trigger));
        let out = target.run(machine, cand, from);
        let crash = out.crash.as_ref().expect("crash injected");
        ran.insert(cand, crash.consistency.first_offender().is_some());
        let signature = out.signature.expect("signature recorder enabled");
        if let Some(v) = crash.consistency.first_offender() {
            violation_count += 1;
            if findings.len() < MAX_RECORDED && !findings.iter().any(|f| f.plan == cand) {
                let kind = VIOLATION_KINDS.iter().position(|k| *k == v.kind);
                let kind = kind.expect("a verdict kind");
                findings.push(Finding {
                    plan: cand,
                    first_word: (v.addr.as_u64(), v.event, kind),
                });
            }
        }
        // Violating candidates merge too: a crash that breaks recovery is
        // the most interesting neighborhood to keep mutating around.
        if coverage.merge(&signature) > 0 && !corpus.contains(&cand) {
            if let Some(dir) = &cell_dir {
                persist_entry(dir, &cand, &signature.digest());
            }
            corpus.push(cand);
        }
    }

    let digest = coverage.digest();
    let (hi, lo) = {
        let d = u64::from_str_radix(&digest, 16).expect("digest is 16 hex chars");
        ((d >> 32) as u32, d as u32)
    };
    let mut out = CellOutcome::from_stats(clean.stats)
        .with_value("execs", executed as f64)
        .with_value("corpus", corpus.len() as f64)
        .with_value("cov", coverage.count() as f64)
        .with_value("cov_hi", hi as f64)
        .with_value("cov_lo", lo as f64)
        .with_value("viols", violation_count as f64)
        .with_value("recorded", findings.len() as f64);
    for (i, f) in findings.iter().enumerate() {
        let (name, arg) = fault_parts(&f.plan);
        let fault = SEARCH_FAULTS.iter().position(|&n| n == name);
        let fault = fault.expect("a search fault");
        let (addr, wevent, kind) = f.first_word;
        let rc = f.plan.recovery_crash_at.map_or(-1.0, |r| r as f64);
        out = out
            .with_value(&format!("v{i}_event"), point(&f.plan) as f64)
            .with_value(&format!("v{i}_fault"), fault as f64)
            .with_value(&format!("v{i}_arg"), arg as f64)
            .with_value(&format!("v{i}_rc"), rc)
            .with_value(&format!("v{i}_addr_hi"), (addr >> 32) as u32 as f64)
            .with_value(&format!("v{i}_addr_lo"), addr as u32 as f64)
            .with_value(&format!("v{i}_wevent"), wevent as f64)
            .with_value(&format!("v{i}_kind"), kind as f64);
    }
    out
}

fn build_search(p: &ExpParams) -> Vec<CellSpec> {
    let line = p.line();
    let txs_per_core = (p.txs / CORES).max(1);
    let arrival = line.text(ARRIVAL.name);
    let options = RunOptions {
        corpus: (!line.switch(NO_CORPUS.name))
            .then(|| PathBuf::from(line.text(CORPUS.name).unwrap_or("target/fuzz-corpus"))),
        ..RunOptions::default()
    };
    let mut cells = Vec::new();
    for bench in &p.benches {
        for scheme in schemes(&line) {
            let mut label = CellLabel::swc(&scheme, bench, CORES);
            if let Some(ident) = arrival {
                label = label.with_param(format!("arrival={ident}"));
            }
            let work = CellWork::Fuzz {
                scheme,
                workload: bench.clone(),
                txs_per_core,
                execs: line.int(EXECS.name).unwrap_or(DEFAULT_EXECS),
                fault: restriction(&line),
                crash_event: line.int(CRASH_EVENT.name),
                recovery_crash: line.int(RECOVERY_CRASH.name),
                arrival: arrival.map(str::to_string),
            };
            cells.push(CellSpec::new(label, p.seed, work).with_options(options.clone()));
        }
    }
    cells
}

fn render_search(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let line = p.line();
    let arrival = line.text(ARRIVAL.name);
    let (txs_per_core, seed) = ((p.txs / CORES).max(1), p.seed);
    writeln!(out, "Coverage-guided crash search ({CORES} cores)").unwrap();
    let faults: Vec<String> = seed_faults(restriction(&line))
        .into_iter()
        .map(|f| describe(&CrashPlan::at_event(1).with_fault(f)))
        .collect();
    let arrival_note = arrival
        .map(|a| format!(", arrival {a}"))
        .unwrap_or_default();
    writeln!(
        out,
        "{txs_per_core} txs/core, seed {seed}, budget {} execs/cell, faults: {}{arrival_note}",
        line.int(EXECS.name).unwrap_or(DEFAULT_EXECS),
        faults.join(", "),
    )
    .unwrap();
    writeln!(
        out,
        "{:<12}{:<10}{:>6}{:>8}{:>10}  {:<18}{:>10}",
        "scheme", "bench", "execs", "corpus", "coverage", "signature", "violations"
    )
    .unwrap();

    let mut total_execs = 0u64;
    let mut total_violations = 0u64;
    let mut rows = Vec::new();
    // Every violation's report block, printed after the total line.
    let mut blocks = String::new();
    for (label, outcome) in cells {
        let execs = outcome.value("execs") as u64;
        let corpus = outcome.value("corpus") as u64;
        let cov = outcome.value("cov") as u64;
        let digest = format!(
            "{:08x}{:08x}",
            outcome.value("cov_hi") as u32,
            outcome.value("cov_lo") as u32
        );
        let viols = outcome.value("viols") as u64;
        total_execs += execs;
        total_violations += viols;
        writeln!(
            out,
            "{:<12}{:<10}{:>6}{:>8}{:>10}  {:<18}{:>10}",
            label.scheme, label.workload, execs, corpus, cov, digest, viols
        )
        .unwrap();
        let mut row = JsonValue::object()
            .field("scheme", label.scheme.as_str())
            .field("workload", label.workload.as_str())
            .field("execs", execs as f64)
            .field("corpus", corpus as f64)
            .field("coverage_bits", cov as f64)
            .field("signature", digest.as_str())
            .field("violations", viols as f64);
        if viols > 0 {
            let mut row_repros = Vec::new();
            for i in 0..outcome.value("recorded") as usize {
                let v = |key: &str| outcome.value(&format!("v{i}_{key}"));
                let (event, rc) = (v("event") as u64, v("rc"));
                let name = SEARCH_FAULTS[v("fault") as usize];
                let plan = named_plan(name, v("arg") as u64, event).expect("a search fault");
                let arrival_flag = arrival.map_or(String::new(), |a| format!(" --arrival {a}"));
                let rc_flag = (rc >= 0.0).then(|| format!(" --recovery-crash {}", rc as u64));
                let rc_flag = rc_flag.unwrap_or_default();
                let tail =
                    format!(" --crash-event {event}{rc_flag}{arrival_flag} --execs 1 --no-corpus");
                let txs = (txs_per_core * CORES) as u64;
                let repro = repro("fuzz", label, txs, seed, &plan, &tail);
                let (scheme, bench) = (&label.scheme, &label.workload);
                let fault = describe(&plan);
                write!(
                    blocks,
                    "VIOLATION {scheme} / {bench} / {fault} @ event {event}"
                )
                .unwrap();
                if rc >= 0.0 {
                    write!(blocks, " (recovery re-crash after {} writes)", rc as u64).unwrap();
                }
                blocks.push('\n');
                let addr = ((v("addr_hi") as u64) << 32) | v("addr_lo") as u64;
                let (kind, wevent) = (VIOLATION_KINDS[v("kind") as usize], v("wevent") as u64);
                writeln!(
                    blocks,
                    "  first offending word: {addr:#018x} ({kind}, word event {wevent})"
                )
                .unwrap();
                writeln!(blocks, "  minimal repro: {repro}").unwrap();
                row_repros.push(JsonValue::Str(repro));
            }
            row = row.field("repros", JsonValue::Arr(row_repros));
        }
        rows.push(row.build());
    }
    writeln!(
        out,
        "total: {total_violations} violations across {total_execs} executions"
    )
    .unwrap();
    out.push_str(&blocks);
    JsonValue::object()
        .field("total_violations", total_violations as f64)
        .field("executions", total_execs as f64)
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// The `fuzz` spec.
pub fn fuzz() -> ExperimentSpec {
    ExperimentSpec {
        name: "fuzz",
        description: "coverage-guided crash search with the oracle's per-word transition log",
        default_txs: 16,
        flags: &[
            BENCH,
            SCHEME,
            SEARCH_FAULT,
            TORN_KEEP,
            BATTERY_BYTES,
            EXECS,
            CRASH_EVENT,
            RECOVERY_CRASH,
            ARRIVAL,
            CORPUS,
            NO_CORPUS,
        ],
        build: build_search,
        render: render_search,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_types::{FxHashSet, PhysAddr};
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Clean runs this thread's targets ran.
        pub(super) static CLEAN_RUNS: Cell<u64> = const { Cell::new(0) };
        /// Walks this thread's targets started.
        pub(super) static WALKS: Cell<u64> = const { Cell::new(0) };
        /// Every candidate this thread's searches drew, in order, and
        /// whether it ran.
        pub(super) static DRAWS: RefCell<Vec<(CrashPlan, bool)>> = const { RefCell::new(Vec::new()) };
    }

    fn built(spec: &ExperimentSpec, flags: &[&str]) -> Vec<CellSpec> {
        let mut p = ExpParams::defaults(spec);
        p.extra = ["evaluate", spec.name]
            .iter()
            .chain(flags)
            .map(|s| s.to_string())
            .collect();
        spec.build(&p)
    }

    /// A Silo/Hash search cell with no corpus.
    fn search(execs: u64, fault: Option<FaultModel>) -> CellSpec {
        let work = CellWork::Fuzz {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 8,
            execs,
            fault,
            crash_event: None,
            recovery_crash: None,
            arrival: None,
        };
        CellSpec::new(CellLabel::default(), 42, work)
    }

    #[test]
    fn run_options_ride_in_the_cells_and_stay_out_of_the_spec_hash() {
        let spec = crashfuzz();
        let on = built(&spec, &[]);
        let off = built(&spec, &["--no-checkpoints"]);
        let again = built(&spec, &[]);
        assert_eq!(on.len(), off.len());
        for ((on, off), again) in on.iter().zip(&off).zip(&again) {
            assert!(!off.options.checkpoints, "--no-checkpoints turns them off");
            assert!(
                again.options.checkpoints,
                "a later build without it resumes"
            );
            assert_eq!(on.spec_hash(), off.spec_hash());
        }
        let fuzz = fuzz();
        let corpus = |flags: &[&str]| -> Vec<Option<PathBuf>> {
            let cells = built(&fuzz, flags);
            assert!(cells
                .iter()
                .all(|c| matches!(c.work, CellWork::Fuzz { .. })));
            cells.into_iter().map(|c| c.options.corpus).collect()
        };
        assert!(corpus(&["--no-corpus"]).iter().all(Option::is_none));
        assert!(corpus(&["--corpus", "elsewhere"])
            .iter()
            .all(|c| c.as_deref() == Some(Path::new("elsewhere"))));
    }

    #[test]
    fn a_unit_runs_one_clean_run_and_one_walk_whatever_its_faults() {
        let sweep = |fault| {
            let work = CellWork::CrashSweep {
                scheme: "Silo".into(),
                workload: "Hash".into(),
                txs_per_core: 8,
                fault,
                points: POINTS,
                point: None,
            };
            CellSpec::new(CellLabel::default(), 42, work)
        };
        let cells = [
            FaultSpec::OpBoundary,
            FaultSpec::TornLine(DEFAULT_TORN_KEEP as usize),
            FaultSpec::Battery(DEFAULT_BATTERY_BYTES),
        ]
        .map(sweep);
        let counted = |run: &dyn Fn()| {
            CLEAN_RUNS.with(|n| n.set(0));
            WALKS.with(|n| n.set(0));
            run();
            (CLEAN_RUNS.with(Cell::get), WALKS.with(Cell::get))
        };
        for n in 1..=cells.len() {
            let unit: Vec<&CellSpec> = cells[..n].iter().collect();
            let runs = counted(&|| assert_eq!(CellSpec::execute_unit(&unit).len(), n));
            assert_eq!(runs, (1, 1), "a unit of {n}");
        }
        let alone = counted(&|| cells.iter().for_each(|cell| drop(cell.execute())));
        assert_eq!(alone, (3, 3), "each cell alone runs its own");
    }

    #[test]
    fn every_fault_name_round_trips_through_its_plan() {
        for (name, arg, text) in [
            ("op-boundary", 0, "op-boundary"),
            ("adr", 0, "adr"),
            ("torn-line", 48, "torn-line(keep=48)"),
            ("battery", 64, "battery(64 B)"),
        ] {
            let plan = named_plan(name, arg, 9).expect("a --fault name");
            assert_eq!(fault_parts(&plan), (name, arg));
            assert_eq!((describe(&plan), point(&plan)), (text.to_string(), 9));
        }
        assert_eq!(named_plan("torn", 0, 1), None);
        // A sweep's fault models keep their cycle and event triggers.
        let sweep = [
            FaultSpec::OpBoundary,
            FaultSpec::TornLine(64),
            FaultSpec::Battery(65_536),
        ];
        let names: Vec<&str> = sweep.iter().map(|f| fault_parts(&f.plan(5)).0).collect();
        assert_eq!(names, SWEEP_FAULTS);
    }

    #[test]
    fn seed_events_are_spaced_and_never_event_zero() {
        assert_eq!(spaced(100, 4), vec![12, 37, 62, 87]);
        assert_eq!(spaced(1, 4), vec![0, 0, 0, 0]);
        for total in [0, 1, 100] {
            let seeds = seed_plans(None, total);
            assert_eq!(seeds.len(), 12, "four events per fault kind");
            assert!(seeds.iter().all(|p| point(p) >= 1), "{seeds:?}");
        }
    }

    /// The corpus format, byte for byte: one entry per fault kind, with
    /// and without a recovery crash, each as `evaluate fuzz` has written
    /// it since format version 1 (those with a `0000…` digest are made by
    /// hand in the same form).
    #[test]
    fn corpus_entries_keep_their_format() {
        let torn = |keep| CrashPlan::at_event(900).with_fault(FaultModel::torn_line(keep));
        let battery = |bytes, event| {
            CrashPlan::at_event(event).with_fault(FaultModel::bounded_battery(bytes))
        };
        for (text, plan) in [
            (
                r#"{"v":1,"fault":"adr","arg":0,"event":9987,"sig":"7e96ae0ae02f9ae2"}"#,
                CrashPlan::at_event(9987),
            ),
            (
                r#"{"v":1,"fault":"adr","arg":0,"event":700,"rc":2,"sig":"00000000000000a1"}"#,
                CrashPlan::at_event(700).with_recovery_crash(2),
            ),
            (
                r#"{"v":1,"fault":"torn-line","arg":64,"event":1777,"sig":"5e4b80df1c649aea"}"#,
                CrashPlan::at_event(1777).with_fault(FaultModel::torn_line(64)),
            ),
            (
                r#"{"v":1,"fault":"torn-line","arg":48,"event":900,"rc":3,"sig":"8b53c5ae1e84411e"}"#,
                torn(48).with_recovery_crash(3),
            ),
            // The longest torn prefix `--torn-keep` takes: a whole line.
            (
                r#"{"v":1,"fault":"torn-line","arg":256,"event":900,"sig":"00000000000000a5"}"#,
                torn(256),
            ),
            (
                r#"{"v":1,"fault":"battery","arg":64,"event":9809,"sig":"4e2bc761fa48e064"}"#,
                battery(64, 9809),
            ),
            (
                r#"{"v":1,"fault":"battery","arg":100000,"event":50,"rc":1,"sig":"df42db1305fa09ef"}"#,
                battery(100_000, 50).with_recovery_crash(1),
            ),
        ] {
            let line = format!("{text}\n");
            assert_eq!(decode_entry(&line), Some(plan), "{text}");
            let entry = JsonValue::parse(text).unwrap();
            let sig = entry.get("sig").and_then(JsonValue::as_str).unwrap();
            assert_eq!(encode_entry(&plan, sig), line);
        }
        // Anomalies are skipped: a foreign version, an unknown or
        // sweep-only kind, a torn line past one 256 B line, a crash at
        // event 0 and a recovery crash after no write, none of which the
        // command line can replay.
        for text in [
            "",
            r#"{"v":999}"#,
            r#"{"v":1,"fault":"nope","arg":0,"event":1,"sig":"0000000000000001"}"#,
            r#"{"v":1,"fault":"op-boundary","arg":0,"event":1,"sig":"0000000000000001"}"#,
            r#"{"v":1,"fault":"torn-line","arg":257,"event":900,"sig":"0000000000000001"}"#,
            r#"{"v":1,"fault":"adr","arg":0,"event":0,"sig":"0000000000000001"}"#,
            r#"{"v":1,"fault":"adr","arg":0,"event":3,"rc":0,"sig":"0000000000000001"}"#,
        ] {
            assert_eq!(decode_entry(text), None, "{text}");
        }
    }

    #[test]
    fn first_candidates_run_each_plan_once_corpus_first() {
        let adr = CrashPlan::at_event;
        let torn = |e| CrashPlan::at_event(e).with_fault(FaultModel::torn_line(64));
        // A stored entry equal to a seed, a seed equal to a non-adjacent
        // seed, and a stored entry repeated out of order.
        let stored = vec![torn(30), adr(10), adr(20), torn(30)];
        let seeds = vec![adr(5), adr(10), torn(5), adr(5), torn(30)];
        assert_eq!(
            first_candidates(stored, seeds),
            vec![torn(30), adr(10), adr(20), adr(5), torn(5)]
        );
    }

    #[test]
    fn mutation_is_deterministic_and_stays_in_bounds() {
        let base = CrashPlan::at_event(50).with_fault(FaultModel::bounded_battery(64));
        let run = || {
            let mut rng = Xoshiro256::seeded(7);
            let mut c = base;
            let mut trail = Vec::new();
            for _ in 0..64 {
                c = mutate(&mut rng, c, 100, true);
                assert!((1..=100).contains(&point(&c)), "event {c:?} out of axis");
                assert_eq!(
                    fault_parts(&c).0,
                    "battery",
                    "restricted mutation left its kind"
                );
                assert!(c.recovery_crash_at.is_none_or(|n| (1..=8).contains(&n)));
                trail.push(c);
            }
            trail
        };
        assert_eq!(run(), run());
        // Unrestricted mutation reaches every fault kind.
        let mut rng = Xoshiro256::seeded(7);
        let mut c = base;
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..256 {
            c = mutate(&mut rng, c, 100, false);
            kinds.insert(fault_parts(&c).0);
        }
        assert_eq!(kinds.len(), 3, "mutation never rotated to some fault kind");
    }

    #[test]
    fn rng_seed_separates_cells() {
        let a = rng_seed(42, "Silo", "Hash", None);
        assert_ne!(a, rng_seed(42, "Base", "Hash", None));
        assert_ne!(a, rng_seed(42, "Silo", "TPCC", None));
        assert_ne!(a, rng_seed(43, "Silo", "Hash", None));
        assert_ne!(a, rng_seed(42, "Silo", "Hash", Some("poisson2000")));
        assert_eq!(a, rng_seed(42, "Silo", "Hash", None));
    }

    #[test]
    fn single_candidate_search_finds_battery_violation() {
        // The undersized battery must violate at a mid-stream event on
        // Silo, and the first finding must name its offending word.
        let out = execute_fuzz(&search(6, Some(FaultModel::bounded_battery(64))));
        assert!(out.value("viols") > 0.0, "64 B battery must violate");
        assert!(out.value("recorded") > 0.0);
        assert!(out.value("v0_wevent") > 0.0, "the word's last event");
        assert!((out.value("v0_kind") as usize) < VIOLATION_KINDS.len());
    }

    #[test]
    fn the_digest_reads_every_footprint_word_and_no_other() {
        let footprint: Vec<PhysAddr> = [0u64, 8, 2048, 4088, 3 * 4096 + 512, 3 * 4096 + 520]
            .map(PhysAddr::new)
            .to_vec();
        let mut image = WordImage::new();
        for &a in &footprint {
            image.insert(a, Word::ZERO);
        }
        let pages: Vec<(u64, PageMask)> = image.pages().map(|p| (p.index, *p.written)).collect();
        let value = |i: usize| Word::new(0x1234_5678 * (i as u64 + 1));
        // The same footprint words, one image in the media, the other
        // staged in the on-PM buffer, with other words around them.
        let mut media = PmDevice::new(silo_pm::PmDeviceConfig::default());
        let mut staged = media.clone();
        for (i, &a) in footprint.iter().enumerate() {
            media.write_through(a, &value(i).to_le_bytes());
            staged.write_word(a, value(i));
        }
        for a in [16u64, 4096, 3 * 4096 + 528] {
            staged.write_word(PhysAddr::new(a), Word::new(a + 1));
        }
        let digest = |pm: &PmDevice| image_digest(pm, &[3, 5], &pages);
        assert_eq!(digest(&media), digest(&staged));
        for (i, &a) in footprint.iter().enumerate() {
            let mut changed = staged.clone();
            changed.write_word(a, Word::new(value(i).as_u64() ^ (1 << (8 * i))));
            assert_ne!(digest(&changed), digest(&staged), "word {a}");
        }
        assert_ne!(image_digest(&media, &[5, 3], &pages), digest(&media));
    }

    #[test]
    fn a_search_runs_each_distinct_plan_once() {
        let mut repeats = Vec::new();
        for cell in built(&fuzz(), &["--bench", "Hash", "--no-corpus"]) {
            DRAWS.with(|d| d.borrow_mut().clear());
            let out = execute_fuzz(&cell);
            let draws = DRAWS.with(RefCell::take);
            assert_eq!(draws.len() as f64, out.value("execs"));
            let mut seen = FxHashSet::default();
            for (plan, ran) in &draws {
                assert_eq!(*ran, seen.insert(*plan), "{plan:?} of {:?}", cell.work);
            }
            repeats.push(draws.len() - seen.len());
        }
        assert_eq!(repeats.len(), 21, "one cell per scheme and fault");
        // The default pass draws 47 repeats in its 504 candidates.
        assert_eq!(repeats.iter().sum::<usize>(), 47, "{repeats:?}");
    }

    #[test]
    fn a_repeated_candidate_counts_its_first_verdict() {
        // Every candidate the search drew, repeats included, judged again
        // from scratch: the search's violation count is theirs.
        DRAWS.with(|d| d.borrow_mut().clear());
        let out = execute_fuzz(&search(24, Some(FaultModel::bounded_battery(64))));
        let draws = DRAWS.with(RefCell::take);
        let target = Target::new("Silo", "Hash", None, 8, 42, true);
        let mut machine = Machine::new(&target.config);
        let mut violates = |plan| {
            let out = target.run(&mut machine, plan, None);
            !out.crash
                .expect("crash injected")
                .consistency
                .is_consistent()
        };
        let verdicts: Vec<(bool, bool)> =
            draws.iter().map(|&(p, ran)| (ran, violates(p))).collect();
        let viols = verdicts.iter().filter(|&&(_, v)| v).count();
        assert_eq!(out.value("viols"), viols as f64);
        assert!(
            verdicts.iter().any(|&(ran, v)| !ran && v),
            "a violating plan is drawn again"
        );
    }

    #[test]
    fn search_is_a_pure_function_of_its_inputs() {
        let run = || {
            let out = execute_fuzz(&search(10, None));
            (
                out.value("execs"),
                out.value("corpus"),
                out.value("cov"),
                out.value("cov_hi"),
                out.value("cov_lo"),
                out.value("viols"),
            )
        };
        assert_eq!(run(), run());
    }
}
