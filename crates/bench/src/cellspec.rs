//! The declarative, content-addressed cell layer.
//!
//! A [`CellSpec`] is *data*: everything that determines one cell's outcome
//! — scheme, workload, core count, transaction budget, seed, config
//! deltas, crash plan — with no closures anywhere. That buys three things
//! the old `FnOnce` cells could not offer:
//!
//! * a stable content hash ([`CellSpec::spec_hash`]): FNV-1a over the
//!   derived [`Hash`] of the seed and the work, so equal work is
//!   *recognizably* equal across experiments and across processes;
//! * one shared executor ([`CellSpec::execute`]) over the
//!   [`run_delta_with`] / [`run_with_scheme`] call family, so the
//!   execution seam is a single function instead of ~20 ad-hoc closures;
//! * persistent memoization: the [`ResultStore`](crate::ResultStore) keys
//!   outcomes by spec hash and code fingerprint and replays them across
//!   processes.
//!
//! The hash covers exactly what [`CellWork`] holds, and the seed. It
//! **excludes** the display label, so two cells that run the same
//! simulation share one stored result even when different experiments
//! print them under different headings (fig11 and fig12 sweep the
//! identical grid), and the [`RunOptions`], which change how a cell runs,
//! never its answer. Every trace generation parameter is part of the work,
//! and generators read nothing but their parameters, so the spec hash and
//! the code fingerprint name each trace a cell consumes without generating
//! it.

use std::hash::{Hash, Hasher};
use std::path::PathBuf;

use silo_core::{SiloOptions, SiloScheme};
use silo_pm::PCM_CELL_ENDURANCE;
use silo_sim::{CrashPlan, Engine, FaultModel, LoggingScheme, SimConfig};
use silo_types::{Cycles, Fnv1a, CLOCK_GHZ};
use silo_workloads::{workload_by_name, ArrivalProcess, OpenLoop, Workload};

use crate::exp::{CellLabel, CellOutcome};
use crate::trace_cache::TraceFamily;
use crate::{run_delta_with, run_profiled, run_with_scheme, Batched, TraceCache};

/// Which logging scheme a run instantiates.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SchemeSpec {
    /// A scheme by its legend name (`make_scheme`).
    Named(String),
    /// Silo with explicit mechanism toggles (the ablation studies).
    Silo(SiloOptions),
}

impl SchemeSpec {
    fn instantiate(&self, config: &SimConfig) -> Box<dyn LoggingScheme> {
        match self {
            SchemeSpec::Named(name) => crate::make_scheme(name, config),
            SchemeSpec::Silo(opts) => Box::new(SiloScheme::with_options(config, *opts)),
        }
    }
}

/// Which workload a run consumes, with the Fig 14 batching knob and the
/// open-system arrival knob.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// Workload name (resolved by [`workload_by_name`]).
    pub name: String,
    /// Transactions grouped per emitted transaction; 1 = unbatched.
    pub batch: usize,
    /// Open-system arrival process ([`OpenLoop`] wrapping); `None` runs
    /// the classic closed loop, as the degenerate `Some(ClosedLoop)` does.
    pub arrival: Option<ArrivalProcess>,
}

impl WorkloadSpec {
    /// An unbatched closed-loop workload.
    pub fn plain(name: &str) -> Self {
        WorkloadSpec {
            name: name.to_string(),
            batch: 1,
            arrival: None,
        }
    }

    /// A [`Batched`]-wrapped workload.
    pub fn batched(name: &str, batch: usize) -> Self {
        WorkloadSpec {
            name: name.to_string(),
            batch,
            arrival: None,
        }
    }

    /// An open-system workload under `process` arrivals. The closed loop
    /// runs as the plain workload, so it is stored as `None`: the two are
    /// one spec, with one spec hash.
    pub fn open(name: &str, process: ArrivalProcess) -> Self {
        WorkloadSpec {
            name: name.to_string(),
            batch: 1,
            arrival: (process != ArrivalProcess::ClosedLoop).then_some(process),
        }
    }

    pub(crate) fn instantiate(&self) -> Box<dyn Workload> {
        let inner = workload_by_name(&self.name)
            .unwrap_or_else(|| panic!("unknown workload {:?}", self.name));
        let batched: Box<dyn Workload> = if self.batch > 1 {
            Box::new(Batched::new(inner, self.batch))
        } else {
            inner
        };
        // OpenLoop wraps outermost so arrival stamps apply to the emitted
        // (possibly batched) transactions — the units the engine admits.
        match &self.arrival {
            Some(p) if *p != ArrivalProcess::ClosedLoop => {
                Box::new(OpenLoop::new(batched, p.clone()))
            }
            _ => batched,
        }
    }
}

/// Deviations from the Table II machine. `None`/`false` everywhere is the
/// stock configuration, so the common case hashes (and reads) trivially.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct ConfigDelta {
    /// Log-buffer access latency override in cycles (Fig 15).
    pub log_buffer_latency: Option<u64>,
    /// Per-core log-buffer capacity override (capacity study).
    pub log_buffer_entries: Option<usize>,
    /// Memory-controller count override (multi-MC study).
    pub num_mcs: Option<usize>,
    /// On-PM coalescing-buffer size override (on-PM buffer study).
    pub onpm_buffer_lines: Option<usize>,
    /// Shrink the cache hierarchy to force evictions (flush-bit ablation):
    /// 2 KB L1 (4-cycle), 4 KB L2, 8 KB L3.
    pub tiny_hierarchy: bool,
}

impl ConfigDelta {
    /// The Table II machine with this delta applied.
    pub fn resolve(&self, cores: usize) -> SimConfig {
        let mut c = SimConfig::table_ii(cores);
        if self.tiny_hierarchy {
            c.hierarchy.l1 = silo_cache::CacheConfig::new(2 * 1024, 2);
            c.hierarchy.l1_latency = Cycles::new(4);
            c.hierarchy.l2 = silo_cache::CacheConfig::new(4 * 1024, 2);
            c.hierarchy.l3 = silo_cache::CacheConfig::new(8 * 1024, 4);
        }
        if let Some(lat) = self.log_buffer_latency {
            c.log_buffer_latency = Cycles::new(lat);
        }
        if let Some(entries) = self.log_buffer_entries {
            c.log_buffer_entries = entries;
        }
        if let Some(mcs) = self.num_mcs {
            c.num_mcs = mcs;
        }
        if let Some(lines) = self.onpm_buffer_lines {
            c.onpm_buffer_lines = lines;
        }
        c
    }
}

/// One engine invocation: who runs what on which machine.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// The logging scheme.
    pub scheme: SchemeSpec,
    /// The workload (possibly batched).
    pub workload: WorkloadSpec,
    /// Simulated core count.
    pub cores: usize,
    /// Measured transactions per core.
    pub txs_per_core: usize,
    /// Machine deviations from Table II.
    pub config: ConfigDelta,
}

impl RunSpec {
    /// A named scheme on the stock Table II machine.
    pub fn table_ii(scheme: &str, workload: WorkloadSpec, cores: usize, txs: usize) -> Self {
        RunSpec {
            scheme: SchemeSpec::Named(scheme.to_string()),
            workload,
            cores,
            txs_per_core: txs,
            config: ConfigDelta::default(),
        }
    }
}

/// The fault model of one `crashfuzz` sweep cell, with the trigger axis
/// its crash points lie on. A `fuzz` cell, whose crashes all lie on the
/// event axis, names its fault with a [`FaultModel`] instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSpec {
    /// Cycle-sampled crash at an op boundary, perfect ADR drain.
    OpBoundary,
    /// Event-indexed crash; the in-flight line keeps this many bytes.
    TornLine(usize),
    /// Event-indexed crash; the ADR drain persists at most this many bytes.
    Battery(u64),
}

impl FaultSpec {
    /// The crash at `point`: a cycle-sampled op-boundary crash with a
    /// perfect ADR drain, or an event-indexed one with a torn line or a
    /// bounded battery.
    pub fn plan(self, point: u64) -> CrashPlan {
        match self {
            FaultSpec::OpBoundary => CrashPlan::at_cycle(Cycles::new(point)),
            FaultSpec::TornLine(keep) => {
                CrashPlan::at_event(point).with_fault(FaultModel::torn_line(keep))
            }
            FaultSpec::Battery(bytes) => {
                CrashPlan::at_event(point).with_fault(FaultModel::bounded_battery(bytes))
            }
        }
    }
}

/// What a cell computes. Each variant is one executor recipe; together
/// they cover every simulation shape in the experiment registry.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CellWork {
    /// Steady-state measurement: run N and 2N transactions per core with
    /// fresh schemes and report the difference (the figure-grid shape).
    /// Executed by [`run_delta_with`], which simulates the prefix the two
    /// runs share only once.
    Delta(RunSpec),
    /// One full run, setup transaction included. `record_throughput`
    /// additionally stores the `tp` metric (Fig 15).
    Full {
        /// The run.
        run: RunSpec,
        /// Store `tp = throughput()` as a named metric.
        record_throughput: bool,
    },
    /// One full run with the cycle accountant enabled (`profile`). Only
    /// supports named schemes on the stock machine, like [`run_profiled`].
    Profiled(RunSpec),
    /// One full run keeping the engine's PM wear ledger (`endurance`):
    /// stores programs / max-wear / imbalance / hottest-line / lifetime.
    Wear(RunSpec),
    /// No simulation: static write-set statistics of a single-core trace
    /// (Fig 4): average/max bytes and average words per transaction.
    TraceStats {
        /// Workload name.
        workload: String,
        /// Measured transactions in the one-core trace.
        txs: usize,
    },
    /// The Fig 14 large-transaction cell: probe the workload's write-set
    /// size, batch enough transactions to fill the log buffer `mult`
    /// times over, run Silo full, and store per-inner-op metrics. The
    /// multipliers of one workload, budget and seed form one execution
    /// unit, which fetches one trace and simulates the setup once for
    /// all of them.
    LargeTx {
        /// Workload name.
        workload: String,
        /// Write-set multiplier (1–16x).
        mult: usize,
        /// Total transaction budget (split across 8 cores).
        txs: usize,
    },
    /// The recovery-study cell: run Silo on TPCC (4 cores), crash at the
    /// given cycle, verify consistency, and store the recovery-cost model.
    Recovery {
        /// Total transaction budget (split across the 4 cores).
        txs: usize,
        /// Injected crash cycle.
        crash_at: u64,
    },
    /// One `crashfuzz` sweep row: clean reference run plus spaced (or one
    /// fixed) crash point(s) under the fault model, with shrinking.
    CrashSweep {
        /// Scheme legend name.
        scheme: String,
        /// Workload name.
        workload: String,
        /// Measured transactions per core (2 cores).
        txs_per_core: usize,
        /// The fault model.
        fault: FaultSpec,
        /// Spaced crash points per cell (`--points`, ignored when `point`
        /// fixes a single one).
        points: u64,
        /// A fixed crash point (`--point`), or spaced sweep points.
        point: Option<u64>,
    },
    /// One coverage-guided crash-search cell (`fuzz`): a seeded corpus of
    /// crash plans (fault model, crash event, recovery crash) is mutated
    /// toward novel probe-event coverage signatures, every recovered image
    /// judged once by the oracle, whose transition log localizes each
    /// violation to its first offending word.
    /// The cell reads and extends an on-disk corpus (its run options'
    /// `corpus`), so it is **never** served from the result store — see
    /// [`CellSpec::cacheable`].
    Fuzz {
        /// Scheme legend name.
        scheme: String,
        /// Workload name.
        workload: String,
        /// Measured transactions per core (2 cores).
        txs_per_core: usize,
        /// Execution budget: total crash runs, seeds included.
        execs: u64,
        /// Restrict candidates to one kind of fault model (`--fault`; the
        /// seeds take this model, mutants tweak its knob), or search across
        /// perfect ADR, torn lines and bounded batteries.
        fault: Option<FaultModel>,
        /// A fixed crash event (`--crash-event`, repro mode): exactly one
        /// candidate runs, no mutation.
        crash_event: Option<u64>,
        /// Re-crash recovery after this many recovery writes
        /// (`--recovery-crash`, repro mode).
        recovery_crash: Option<u64>,
        /// Open-system arrival process ident (`--arrival`), or the classic
        /// closed loop.
        arrival: Option<String>,
    },
}

/// How a cell runs, never what it answers: the cell's flags that are not
/// part of its work, so [`CellSpec::spec_hash`] leaves them out.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunOptions {
    /// Resume each crash point of a sweep from a checkpoint of its clean
    /// run (`false` under `--no-checkpoints`: every point from scratch).
    /// Resumed and from-scratch points are byte-identical.
    pub checkpoints: bool,
    /// The corpus root a search reads and extends (`--corpus`), or none
    /// (`--no-corpus`). It picks where candidates persist, not what a
    /// search on a fresh root computes.
    pub corpus: Option<PathBuf>,
}

impl Default for RunOptions {
    /// Checkpoints on, no corpus.
    fn default() -> Self {
        RunOptions {
            checkpoints: true,
            corpus: None,
        }
    }
}

/// One independent unit of work, fully described as data: display label,
/// run options, seed, and the work. The label and the options do not
/// enter the content hash.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Grid coordinates of this cell (display and report only).
    pub label: CellLabel,
    /// How the cell runs.
    pub options: RunOptions,
    /// Workload generation seed.
    pub seed: u64,
    /// The work.
    pub work: CellWork,
}

/// FNV-1a 64 over the derived [`Hash`] of `value`.
fn fnv1a(value: impl Hash) -> u64 {
    let mut h = Fnv1a::new();
    value.hash(&mut h);
    h.finish()
}

impl CellSpec {
    /// Builds a spec from its parts, with the default [`RunOptions`].
    pub fn new(label: CellLabel, seed: u64, work: CellWork) -> Self {
        CellSpec {
            label,
            options: RunOptions::default(),
            seed,
            work,
        }
    }

    /// The spec with `options` in place of its run options.
    pub fn with_options(self, options: RunOptions) -> Self {
        CellSpec { options, ..self }
    }

    /// Whether the result store may serve this cell from a persisted
    /// outcome. [`CellWork::Fuzz`] cells are not pure functions of the
    /// spec — they read and extend an on-disk corpus between runs — so
    /// they always execute fresh; everything else is cacheable.
    pub fn cacheable(&self) -> bool {
        !matches!(self.work, CellWork::Fuzz { .. })
    }

    /// Whether the cell's outcome carries simulation statistics: every
    /// kind but [`CellWork::TraceStats`], which simulates nothing. A
    /// stored entry that disagrees is unusable.
    pub(crate) fn records_stats(&self) -> bool {
        !matches!(self.work, CellWork::TraceStats { .. })
    }

    /// The execution unit the cell belongs to: the runner hands a unit's
    /// cells to one worker together, and the result store runs the ones
    /// it cannot serve in one call ([`CellSpec::execute_unit`]). The key
    /// is the spec hash taken with the one field a unit's cells differ in
    /// blanked (a crash sweep's fault: the fault cells of one scheme ×
    /// workload share one clean run; a large transaction's multiplier:
    /// the multipliers of one workload share one trace and one setup
    /// run), together with the run options. `None` for a unit of one,
    /// which every other cell is.
    pub(crate) fn unit_key(&self) -> Option<u64> {
        let mut work = self.work.clone();
        match &mut work {
            CellWork::CrashSweep { fault, .. } => *fault = FaultSpec::OpBoundary,
            CellWork::LargeTx { mult, .. } => *mult = 0,
            _ => return None,
        }
        Some(fnv1a((self.seed, &work, &self.options)))
    }

    /// Runs the cells of one execution unit, all of one
    /// [`CellSpec::unit_key`], in one call, and returns their outcomes in
    /// order: each equals its cell's [`CellSpec::execute`]. Crash sweeps
    /// share one clean run and one walk of it, large transactions one
    /// trace and one setup run; a unit of any other kind holds one cell.
    pub(crate) fn execute_unit(unit: &[&CellSpec]) -> Vec<CellOutcome> {
        match unit.first().map(|cell| &cell.work) {
            Some(CellWork::CrashSweep { .. }) => crate::experiments::crash::execute_sweeps(unit),
            Some(CellWork::LargeTx { .. }) => crate::experiments::fig14::execute_large_txs(unit),
            _ => unit.iter().map(|cell| cell.execute()).collect(),
        }
    }

    /// The trace family the cell reads: the workload its work names, on
    /// the cores the work runs, under its seed. Every trace the cell
    /// fetches belongs to it (see [`TraceFamily`]), and a scope drops the
    /// family's traces after its last cell. Naming it generates nothing.
    pub(crate) fn family(&self) -> TraceFamily {
        let (workload, cores) = match &self.work {
            CellWork::Delta(run)
            | CellWork::Full { run, .. }
            | CellWork::Profiled(run)
            | CellWork::Wear(run) => (run.workload.name.as_str(), run.cores),
            CellWork::TraceStats { workload, .. } => (workload.as_str(), 1),
            CellWork::LargeTx { workload, .. } => {
                (workload.as_str(), crate::experiments::fig14::CORES)
            }
            CellWork::Recovery { .. } => (RECOVERY_WORKLOAD, RECOVERY_CORES),
            CellWork::CrashSweep { workload, .. } | CellWork::Fuzz { workload, .. } => {
                (workload.as_str(), CRASH_CORES)
            }
        };
        TraceFamily::new(workload, cores, self.seed)
    }

    /// Content hash of the seed and the work (the label and the run
    /// options excluded): FNV-1a 64 over their derived [`Hash`], which
    /// feeds integers little-endian, enums by variant index and strings
    /// with a terminator, so distinct specs cannot collide by
    /// concatenation.
    pub fn spec_hash(&self) -> u64 {
        fnv1a((self.seed, &self.work))
    }

    /// Runs the cell. Deterministic: the outcome depends only on the spec
    /// (and the crate sources), never on execution order or wall clock.
    pub fn execute(&self) -> CellOutcome {
        let seed = self.seed;
        match &self.work {
            CellWork::Delta(run) => {
                let config = run.config.resolve(run.cores);
                let w = run.workload.instantiate();
                CellOutcome::from_stats(run_delta_with(
                    &config,
                    || run.scheme.instantiate(&config),
                    &*w,
                    run.txs_per_core,
                    seed,
                ))
            }
            CellWork::Full {
                run,
                record_throughput,
            } => {
                let config = run.config.resolve(run.cores);
                let w = run.workload.instantiate();
                let trace =
                    TraceCache::global().get_or_build(&*w, run.cores, run.txs_per_core, seed);
                let mut scheme = run.scheme.instantiate(&config);
                let stats = run_with_scheme(scheme.as_mut(), &config, &trace);
                if *record_throughput {
                    let tp = stats.throughput();
                    CellOutcome::from_stats(stats).with_value("tp", tp)
                } else {
                    CellOutcome::from_stats(stats)
                }
            }
            CellWork::Profiled(run) => {
                let SchemeSpec::Named(name) = &run.scheme else {
                    panic!("profiled cells run named schemes on the stock machine")
                };
                assert_eq!(
                    run.config,
                    ConfigDelta::default(),
                    "profiled cells run on the stock Table II machine"
                );
                let w = run.workload.instantiate();
                CellOutcome::from_stats(run_profiled(name, &*w, run.cores, run.txs_per_core, seed))
            }
            CellWork::Wear(run) => execute_wear(run, seed),
            CellWork::TraceStats { workload, txs } => execute_trace_stats(workload, *txs, seed),
            CellWork::LargeTx { .. } | CellWork::CrashSweep { .. } => {
                let mut alone = CellSpec::execute_unit(&[self]);
                alone.pop().expect("one outcome per cell")
            }
            CellWork::Recovery { txs, crash_at } => execute_recovery(*txs, *crash_at, seed),
            CellWork::Fuzz { .. } => crate::experiments::crash::execute_fuzz(self),
        }
    }
}

const RECOVERY_CORES: usize = 4;
const RECOVERY_WORKLOAD: &str = "TPCC";
/// The crash experiments' cores: two keep crash runs cheap while still
/// interleaving cores at the shared memory controller.
pub(crate) const CRASH_CORES: usize = 2;

/// The workload spec a crash cell consumes: the plain workload, or the
/// open-system wrapping when an arrival ident is set (`fuzz` only).
///
/// # Panics
///
/// Panics on an arrival ident that does not parse, as an unknown workload
/// name panics where the spec is instantiated: the flag table has checked
/// both before any cell is built.
pub(crate) fn crash_workload_spec(workload: &str, arrival: Option<&str>) -> WorkloadSpec {
    match arrival {
        Some(ident) => WorkloadSpec::open(
            workload,
            ArrivalProcess::parse(ident)
                .unwrap_or_else(|| panic!("unparseable arrival ident {ident:?}")),
        ),
        None => WorkloadSpec::plain(workload),
    }
}

/// Full run keeping the wear ledger (the `endurance` recipe). The engine
/// runs directly — no event-trace attachment — exactly as the legacy
/// endurance cells did.
fn execute_wear(run: &RunSpec, seed: u64) -> CellOutcome {
    let config = run.config.resolve(run.cores);
    let w = run.workload.instantiate();
    let mut scheme = run.scheme.instantiate(&config);
    let trace = TraceCache::global().get_or_build(&*w, run.cores, run.txs_per_core, seed);
    let out = Engine::new(&config, scheme.as_mut()).run(&trace, None);
    let wear = out.pm.wear();
    let elapsed_s = out.stats.sim_cycles.as_u64() as f64 / (CLOCK_GHZ * 1e9);
    let life = wear
        .lifetime_estimate(elapsed_s, PCM_CELL_ENDURANCE)
        .unwrap_or(f64::INFINITY);
    let hottest = wear
        .hottest_lines(1)
        .first()
        .map(|&(l, c)| (l, c))
        .unwrap_or((0, 0));
    CellOutcome::from_stats(out.stats)
        .with_value("programs", wear.total_programs() as f64)
        .with_value("max_wear", wear.max_wear() as f64)
        .with_value("imbalance", wear.wear_imbalance())
        .with_value("hot_line", hottest.0 as f64)
        .with_value("hot_count", hottest.1 as f64)
        .with_value("life", life)
}

/// Static write-set statistics of a one-core trace (the Fig 4 recipe).
fn execute_trace_stats(workload: &str, txs: usize, seed: u64) -> CellOutcome {
    let w = WorkloadSpec::plain(workload).instantiate();
    let trace = TraceCache::global().get_or_build(&*w, 1, txs, seed);
    // Skip the setup transaction; measure the workload's own txs.
    let measured = &trace.streams()[0][1..];
    let (mut total, mut max, mut words) = (0usize, 0usize, 0usize);
    for tx in measured {
        let b = tx.write_set_bytes();
        total += b;
        max = max.max(b);
        words += tx.write_set_words();
    }
    CellOutcome::default()
        .with_value("avg_b", total as f64 / measured.len() as f64)
        .with_value("max_b", max as f64)
        .with_value("avg_words", words as f64 / measured.len() as f64)
}

/// The recovery-study recipe: crash Silo on TPCC at a fixed cycle, have
/// the oracle verify the recovered image, and model the recovery cost
/// from the surviving log records.
fn execute_recovery(txs: usize, crash_at: u64, seed: u64) -> CellOutcome {
    let w = WorkloadSpec::plain(RECOVERY_WORKLOAD).instantiate();
    let config = SimConfig::table_ii(RECOVERY_CORES);
    let mut silo = SiloScheme::new(&config);
    // One trace for all six crash points.
    let trace = TraceCache::global().get_or_build(&*w, RECOVERY_CORES, txs / RECOVERY_CORES, seed);
    let out = Engine::new(&config, &mut silo).run(&trace, Some(Cycles::new(crash_at)));
    let crash = out.crash.expect("crash injected");
    assert!(crash.consistency.is_consistent(), "{:?}", crash.consistency);
    let r = crash.recovery;
    // Model: one PM read per scanned record, one PM write per applied
    // word (word writes coalesce ~4:1 into media lines on average).
    let read_cyc = config.memctrl.read_cycles * r.scanned_records;
    let write_cyc = config.memctrl.media_write_cycles * (r.replayed_words + r.revoked_words) / 4;
    let us = (read_cyc + write_cyc) as f64 / (CLOCK_GHZ * 1000.0);
    CellOutcome::from_stats(out.stats)
        .with_value("committed", crash.committed_txs as f64)
        .with_value("inflight", crash.inflight_txs as f64)
        .with_value("scanned", r.scanned_records as f64)
        .with_value("replayed", r.replayed_words as f64)
        .with_value("revoked", r.revoked_words as f64)
        .with_value("us", us)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(work: CellWork) -> CellSpec {
        CellSpec::new(CellLabel::default(), 42, work)
    }

    #[test]
    fn spec_hash_ignores_the_label() {
        let a = CellSpec::new(
            CellLabel::swc("Silo", "Bank", 1),
            42,
            CellWork::TraceStats {
                workload: "Bank".into(),
                txs: 4,
            },
        );
        let b = CellSpec::new(
            CellLabel::swc("eADR-sw", "other", 8).with_param("x=1"),
            42,
            CellWork::TraceStats {
                workload: "Bank".into(),
                txs: 4,
            },
        );
        assert_eq!(a.spec_hash(), b.spec_hash());
    }

    #[test]
    fn spec_hash_distinguishes_every_field() {
        let base = spec(CellWork::Delta(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::plain("Hash"),
            8,
            100,
        )));
        let mut seen = vec![base.spec_hash()];
        let mut check = |s: CellSpec| {
            let h = s.spec_hash();
            assert!(!seen.contains(&h), "collision for {:?}", s.work);
            seen.push(h);
        };
        check(CellSpec::new(CellLabel::default(), 43, base.work.clone()));
        check(spec(CellWork::Delta(RunSpec::table_ii(
            "Base",
            WorkloadSpec::plain("Hash"),
            8,
            100,
        ))));
        check(spec(CellWork::Delta(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::plain("TPCC"),
            8,
            100,
        ))));
        check(spec(CellWork::Delta(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::plain("Hash"),
            4,
            100,
        ))));
        check(spec(CellWork::Delta(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::plain("Hash"),
            8,
            200,
        ))));
        check(spec(CellWork::Delta(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::batched("Hash", 4),
            8,
            100,
        ))));
        check(spec(CellWork::Full {
            run: RunSpec::table_ii(
                "Silo",
                WorkloadSpec::open("Hash", ArrivalProcess::Poisson { mean_gap: 2_000 }),
                8,
                100,
            ),
            record_throughput: false,
        }));
        check(spec(CellWork::Full {
            run: RunSpec::table_ii(
                "Silo",
                WorkloadSpec::open("Hash", ArrivalProcess::Poisson { mean_gap: 4_000 }),
                8,
                100,
            ),
            record_throughput: false,
        }));
        check(spec(CellWork::Full {
            run: RunSpec::table_ii(
                "Silo",
                WorkloadSpec::open(
                    "Hash",
                    ArrivalProcess::Bursty {
                        mean_gap: 2_000,
                        burst: 16,
                        idle_gap: 40_000,
                    },
                ),
                8,
                100,
            ),
            record_throughput: false,
        }));
        check(spec(CellWork::Full {
            run: RunSpec::table_ii("Silo", WorkloadSpec::plain("Hash"), 8, 100),
            record_throughput: false,
        }));
        check(spec(CellWork::Full {
            run: RunSpec::table_ii("Silo", WorkloadSpec::plain("Hash"), 8, 100),
            record_throughput: true,
        }));
        check(spec(CellWork::Profiled(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::plain("Hash"),
            8,
            100,
        ))));
        check(spec(CellWork::Wear(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::plain("Hash"),
            8,
            100,
        ))));
        // Silo-with-options differs from named Silo even at the defaults:
        // the executor constructs it differently, so the key says so.
        check(spec(CellWork::Delta(RunSpec {
            scheme: SchemeSpec::Silo(SiloOptions::default()),
            workload: WorkloadSpec::plain("Hash"),
            cores: 8,
            txs_per_core: 100,
            config: ConfigDelta::default(),
        })));
        check(spec(CellWork::Delta(RunSpec {
            scheme: SchemeSpec::Silo(SiloOptions {
                onpm_coalescing: false,
                ..SiloOptions::default()
            }),
            workload: WorkloadSpec::plain("Hash"),
            cores: 8,
            txs_per_core: 100,
            config: ConfigDelta::default(),
        })));
        check(spec(CellWork::Delta(RunSpec {
            scheme: SchemeSpec::Named("Silo".into()),
            workload: WorkloadSpec::plain("Hash"),
            cores: 8,
            txs_per_core: 100,
            config: ConfigDelta {
                num_mcs: Some(2),
                ..ConfigDelta::default()
            },
        })));
        check(spec(CellWork::Delta(RunSpec {
            scheme: SchemeSpec::Named("Silo".into()),
            workload: WorkloadSpec::plain("Hash"),
            cores: 8,
            txs_per_core: 100,
            config: ConfigDelta {
                tiny_hierarchy: true,
                ..ConfigDelta::default()
            },
        })));
        check(spec(CellWork::TraceStats {
            workload: "Hash".into(),
            txs: 100,
        }));
        check(spec(CellWork::LargeTx {
            workload: "Hash".into(),
            mult: 4,
            txs: 100,
        }));
        check(spec(CellWork::Recovery {
            txs: 100,
            crash_at: 5_000,
        }));
        check(spec(CellWork::CrashSweep {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 100,
            fault: FaultSpec::OpBoundary,
            points: 4,
            point: None,
        }));
        check(spec(CellWork::CrashSweep {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 100,
            fault: FaultSpec::TornLine(64),
            points: 4,
            point: None,
        }));
        check(spec(CellWork::CrashSweep {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 100,
            fault: FaultSpec::Battery(65_536),
            points: 4,
            point: Some(7),
        }));
        let fuzz = |fault, crash_event, recovery_crash, arrival: Option<&str>| CellWork::Fuzz {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 100,
            execs: 24,
            fault,
            crash_event,
            recovery_crash,
            arrival: arrival.map(str::to_string),
        };
        check(spec(fuzz(None, None, None, None)));
        let battery = Some(FaultModel::bounded_battery(64));
        check(spec(fuzz(battery, None, None, None)));
        check(spec(fuzz(
            Some(FaultModel::perfect_adr()),
            None,
            None,
            None,
        )));
        check(spec(fuzz(
            Some(FaultModel::torn_line(64)),
            None,
            None,
            None,
        )));
        check(spec(fuzz(battery, Some(9), None, None)));
        check(spec(fuzz(battery, Some(9), Some(3), None)));
        check(spec(fuzz(None, None, None, Some("poisson2000"))));
        check(spec(CellWork::Fuzz {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 100,
            execs: 48,
            fault: None,
            crash_event: None,
            recovery_crash: None,
            arrival: None,
        }));
    }

    #[test]
    fn only_fuzz_cells_are_uncacheable() {
        let fuzz = spec(CellWork::Fuzz {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 8,
            execs: 4,
            fault: None,
            crash_event: None,
            recovery_crash: None,
            arrival: None,
        });
        assert!(!fuzz.cacheable());
        let sweep = spec(CellWork::CrashSweep {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 8,
            fault: FaultSpec::OpBoundary,
            points: 4,
            point: None,
        });
        assert!(sweep.cacheable());
        assert!(spec(CellWork::TraceStats {
            workload: "Bank".into(),
            txs: 4,
        })
        .cacheable());
    }

    #[test]
    fn a_unit_key_blanks_the_one_field_its_cells_differ_in() {
        let sweep = |scheme: &str, workload: &str, txs_per_core, fault, points, point| {
            spec(CellWork::CrashSweep {
                scheme: scheme.into(),
                workload: workload.into(),
                txs_per_core,
                fault,
                points,
                point,
            })
        };
        let large = |workload: &str, mult, txs| {
            spec(CellWork::LargeTx {
                workload: workload.into(),
                mult,
                txs,
            })
        };
        let key = |cell: &CellSpec| cell.unit_key().expect("a unit of several");
        let op = sweep("Silo", "Hash", 8, FaultSpec::OpBoundary, 4, None);
        let torn = sweep("Silo", "Hash", 8, FaultSpec::TornLine(64), 4, None);
        let battery = sweep("Silo", "Hash", 8, FaultSpec::Battery(64), 4, None);
        assert_eq!((key(&op), key(&op)), (key(&torn), key(&battery)));
        let x1 = large("Queue", 1, 40);
        assert_eq!(key(&x1), key(&large("Queue", 16, 40)));
        let reseeded = |cell: &CellSpec| CellSpec::new(CellLabel::default(), 43, cell.work.clone());
        let no_checkpoints = RunOptions {
            checkpoints: false,
            ..RunOptions::default()
        };
        let elsewhere = RunOptions {
            corpus: Some(PathBuf::from("elsewhere")),
            ..RunOptions::default()
        };
        let mut seen = vec![key(&op), key(&x1)];
        for other in [
            sweep("Base", "Hash", 8, FaultSpec::OpBoundary, 4, None),
            sweep("Silo", "TPCC", 8, FaultSpec::OpBoundary, 4, None),
            sweep("Silo", "Hash", 16, FaultSpec::OpBoundary, 4, None),
            sweep("Silo", "Hash", 8, FaultSpec::OpBoundary, 5, None),
            sweep("Silo", "Hash", 8, FaultSpec::OpBoundary, 4, Some(7)),
            reseeded(&op),
            op.clone().with_options(no_checkpoints.clone()),
            op.clone().with_options(elsewhere),
            large("Hash", 1, 40),
            large("Queue", 1, 80),
            reseeded(&x1),
            x1.clone().with_options(no_checkpoints),
        ] {
            let k = key(&other);
            assert!(!seen.contains(&k), "{:?} {:?}", other.work, other.options);
            seen.push(k);
        }
        let delta = RunSpec::table_ii("Silo", WorkloadSpec::plain("Hash"), 8, 100);
        assert_eq!(spec(CellWork::Delta(delta)).unit_key(), None);
    }

    #[test]
    fn closed_loop_arrival_is_hash_transparent() {
        // `None` and `Some(ClosedLoop)` execute identically, so they must
        // share stored results.
        let plain = spec(CellWork::Full {
            run: RunSpec::table_ii("Silo", WorkloadSpec::plain("Hash"), 8, 100),
            record_throughput: false,
        });
        let closed = spec(CellWork::Full {
            run: RunSpec::table_ii(
                "Silo",
                WorkloadSpec::open("Hash", ArrivalProcess::ClosedLoop),
                8,
                100,
            ),
            record_throughput: false,
        });
        assert_eq!(plain.spec_hash(), closed.spec_hash());
    }

    #[test]
    fn spec_hash_is_stable_across_calls() {
        let s = spec(CellWork::Delta(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::plain("Hash"),
            8,
            100,
        )));
        assert_eq!(s.spec_hash(), s.spec_hash());
        assert_eq!(s.spec_hash(), s.clone().spec_hash());
    }

    #[test]
    fn executor_matches_the_run_family() {
        // The Delta recipe must reproduce run_delta_with exactly — the
        // whole grid migration rests on this equivalence.
        let w = workload_by_name("Bank").expect("bank exists");
        let config = SimConfig::table_ii(1);
        let direct = run_delta_with(
            &config,
            || crate::make_scheme("Silo", &config),
            w.as_ref(),
            6,
            42,
        );
        let via_spec = spec(CellWork::Delta(RunSpec::table_ii(
            "Silo",
            WorkloadSpec::plain("Bank"),
            1,
            6,
        )))
        .execute();
        assert_eq!(
            via_spec.stats().to_json().to_string(),
            direct.to_json().to_string()
        );
        // Named("Silo") and Silo(default options) run identical machines.
        let via_opts = spec(CellWork::Delta(RunSpec {
            scheme: SchemeSpec::Silo(SiloOptions::default()),
            workload: WorkloadSpec::plain("Bank"),
            cores: 1,
            txs_per_core: 6,
            config: ConfigDelta::default(),
        }))
        .execute();
        assert_eq!(
            via_opts.stats().to_json().to_string(),
            direct.to_json().to_string()
        );
    }

    #[test]
    fn config_delta_resolves_every_override() {
        let stock = ConfigDelta::default().resolve(8);
        let base = SimConfig::table_ii(8);
        assert_eq!(stock.fingerprint(), base.fingerprint());
        let tweaked = ConfigDelta {
            log_buffer_latency: Some(64),
            log_buffer_entries: Some(40),
            num_mcs: Some(4),
            onpm_buffer_lines: Some(16),
            tiny_hierarchy: true,
        }
        .resolve(8);
        assert_eq!(tweaked.log_buffer_latency.as_u64(), 64);
        assert_eq!(tweaked.log_buffer_entries, 40);
        assert_eq!(tweaked.num_mcs, 4);
        assert_eq!(tweaked.onpm_buffer_lines, 16);
        assert_eq!(tweaked.hierarchy.l3.size_bytes, 8 * 1024);
    }
}
