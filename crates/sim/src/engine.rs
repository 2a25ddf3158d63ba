//! The deterministic multicore execution engine.

use std::sync::Arc;

use silo_pm::{DrainReport, EventCounters, EventKind, FaultModel};
use silo_probe::{CycleCategory, ProbeEventKind, Signature};
use silo_types::{CoreId, Cycles, PhysAddr, TxId, TxTag, Word, WordImage};

use crate::schemes::{EvictAction, SchemeState};
use crate::stats::LatencyStats;
use crate::trace::ArrivalSchedule;
use crate::{
    ConsistencyReport, LoggingScheme, Machine, MachineState, Op, RecoveryReport, SimConfig,
    SimStats, TraceSet, Transaction, TxOracle, TxRecord,
};

/// When a [`CrashPlan`] cuts power.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashTrigger {
    /// Power fails at this cycle; cores halt at the preceding op boundary.
    /// This is the legacy sampled trigger: two adjacent cycles usually
    /// land on the same op boundary.
    Cycle(Cycles),
    /// Power fails at the N-th durability event (store, log drain, WPQ
    /// admission, media line program). Every N is a distinct machine
    /// state, so a sweep over N enumerates the crash surface densely.
    Event(u64),
}

/// A full crash scenario: when power fails, what the ADR domain manages to
/// persist afterwards, and whether recovery itself is re-crashed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CrashPlan {
    /// When to cut power.
    pub trigger: CrashTrigger,
    /// What the post-crash drain is allowed to persist.
    pub fault: FaultModel,
    /// If set, power fails again after this many recovery-step writes —
    /// the double-crash scenario. Recovery must be idempotent.
    pub recovery_crash_at: Option<u64>,
}

impl CrashPlan {
    /// A perfect-ADR crash at cycle `c` (the legacy crash model).
    pub fn at_cycle(c: Cycles) -> Self {
        CrashPlan {
            trigger: CrashTrigger::Cycle(c),
            fault: FaultModel::perfect_adr(),
            recovery_crash_at: None,
        }
    }

    /// A perfect-ADR crash at the N-th durability event.
    pub fn at_event(n: u64) -> Self {
        CrashPlan {
            trigger: CrashTrigger::Event(n),
            fault: FaultModel::perfect_adr(),
            recovery_crash_at: None,
        }
    }

    /// Replaces the fault model.
    pub fn with_fault(mut self, fault: FaultModel) -> Self {
        self.fault = fault;
        self
    }

    /// Adds a second power failure after `steps` recovery writes.
    pub fn with_recovery_crash(mut self, steps: u64) -> Self {
        self.recovery_crash_at = Some(steps);
        self
    }
}

/// The result of a crash-injected run.
#[derive(Clone, Debug)]
pub struct CrashOutcome {
    /// The cycle at which power failed.
    pub crash_at: Cycles,
    /// What the scheme's recovery did (the second pass, on a double
    /// crash).
    pub recovery: RecoveryReport,
    /// The oracle's verdict on the recovered PM image.
    pub consistency: ConsistencyReport,
    /// Transactions committed before the crash.
    pub committed_txs: u64,
    /// Transactions in flight (uncommitted) at the crash.
    pub inflight_txs: u64,
    /// Transactions whose commit raced the power failure (either outcome
    /// is legal, checked atomically by the oracle).
    pub ambiguous_txs: u64,
    /// Durability events counted up to the instant of power loss.
    pub events_at_crash: EventCounters,
    /// What the battery-backed ADR drain persisted.
    pub drain: DrainReport,
    /// Whether a second power failure interrupted recovery.
    pub double_crash: bool,
    /// The same verdict as [`consistency`](Self::consistency), when the
    /// oracle's transition log was on ([`Engine::enable_spec`]); `None`
    /// otherwise. It stays only because `perfbench/tracer` reads it, and
    /// goes with the tracer (ROADMAP item 3).
    pub spec: Option<ConsistencyReport>,
}

/// Everything a run returns.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Aggregate statistics.
    pub stats: SimStats,
    /// Present when a crash was injected.
    pub crash: Option<CrashOutcome>,
    /// The final PM device contents (post-recovery when a crash was
    /// injected), for inspection by tests and examples.
    pub pm: silo_pm::PmDevice,
    /// Drained JSONL event-timeline lines plus the count of events the
    /// ring buffer dropped; `None` unless the timeline probe was enabled
    /// on the machine before the run.
    pub timeline: Option<(Vec<String>, u64)>,
    /// The run's probe-event coverage signature; `None` unless the
    /// signature recorder was enabled on the machine's probe hub before
    /// the run.
    pub signature: Option<Signature>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    BetweenTxs,
    InTx,
    Done,
}

/// A full-machine checkpoint taken at an engine loop boundary of a clean
/// (crash-free) run: clones of the machine's components (the cache levels
/// as sparse copies), the cores, the oracle and the scheme. Positions on
/// both crash axes are recorded so one checkpoint serves cycle-triggered
/// *and* event-triggered crash plans ([`precedes`](Self::precedes)). Its
/// oracle carries the transition log too, when the capturing run had it
/// on, so a run resumed from it judges the recovered image the same way.
pub struct EngineCheckpoint {
    /// Smallest unfinished core clock at capture.
    cycle_pos: Cycles,
    /// Total durability events counted at capture.
    event_pos: u64,
    machine: MachineState,
    /// The cores as they were, streams and arrival schedules shared.
    cores: Vec<CoreRun>,
    oracle: TxOracle,
    /// Shared, not copied, by a fork's clones: a restore only reads it.
    scheme: Arc<dyn SchemeState>,
}

impl EngineCheckpoint {
    /// The checkpoint's position on the cycle axis.
    pub fn cycle_pos(&self) -> Cycles {
        self.cycle_pos
    }

    /// The checkpoint's position on the durability-event axis.
    pub fn event_pos(&self) -> u64 {
        self.event_pos
    }

    /// Whether the checkpoint can seed a crash run of `trigger`
    /// ([`Engine::run_resumed`]): it lies strictly before the trigger on
    /// the trigger's own axis. Both positions never decrease along a run
    /// and the crash check runs at the loop top, so no earlier iteration
    /// of the crashing run can have tripped.
    pub fn precedes(&self, trigger: CrashTrigger) -> bool {
        match trigger {
            CrashTrigger::Cycle(c) => self.cycle_pos < c,
            CrashTrigger::Event(n) => self.event_pos < n,
        }
    }
}

impl std::fmt::Debug for EngineCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCheckpoint")
            .field("cycle_pos", &self.cycle_pos)
            .field("event_pos", &self.event_pos)
            .field("cores", &self.cores.len())
            .finish_non_exhaustive()
    }
}

/// The last state a clean run shares with a clean run of longer streams
/// that start with its own: the first loop boundary at which the picked
/// core has run out of transactions. Until then both runs step the same
/// cores through the same ops; from there the shorter run retires that
/// core while the longer one begins its next transaction.
///
/// Captured by [`Engine::run_forking`] and consumed by
/// [`Engine::run_continued`]. Clean runs feed no [`TxOracle`], so a fork
/// point carries no transaction history and is a type of its own: it can
/// seed only a clean continuation, never a crash plan.
///
/// ```compile_fail
/// # use silo_sim::{CrashPlan, Engine, SimConfig, Transaction, schemes::NullScheme};
/// let config = SimConfig::table_ii(1);
/// let streams = || vec![vec![Transaction::builder().compute(1).build()]];
/// let mut a = NullScheme::default();
/// let (_, fork) = Engine::new(&config, &mut a).run_forking(streams());
/// let mut b = NullScheme::default();
/// // A fork point is not an `EngineCheckpoint`: crash plans cannot resume from it.
/// Engine::new(&config, &mut b).run_resumed(streams(), CrashPlan::at_event(1), &fork);
/// ```
pub struct ForkPoint {
    cp: EngineCheckpoint,
    /// The streams the forking run executed; the continuation's must
    /// start with them (checked in debug builds).
    prefix: TraceSet,
}

impl ForkPoint {
    /// The fork's position on the cycle axis: the clock of the core that
    /// ran out of transactions.
    pub fn cycle_pos(&self) -> Cycles {
        self.cp.cycle_pos
    }

    /// Durability events both runs share: those counted up to the fork.
    pub fn event_pos(&self) -> u64 {
        self.cp.event_pos
    }
}

/// A fork for one more continuation. It shares the fork's PM and shadow
/// pages, its cache levels' sparse copy and its scheme state; a
/// continuation only reads the last two, and copies a shared page when it
/// first writes it. So when several runs continue one fork, each but the
/// last continues from a clone, and the last takes the fork itself, by
/// then the only holder of its pages.
impl Clone for ForkPoint {
    fn clone(&self) -> Self {
        let cp = &self.cp;
        let cp = EngineCheckpoint {
            cycle_pos: cp.cycle_pos,
            event_pos: cp.event_pos,
            machine: cp.machine.clone(),
            cores: cp.cores.clone(),
            oracle: cp.oracle.clone(),
            scheme: Arc::clone(&cp.scheme),
        };
        ForkPoint {
            cp,
            prefix: self.prefix.clone(),
        }
    }
}

impl std::fmt::Debug for ForkPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ForkPoint").field(&self.cp).finish()
    }
}

/// Where a run starts.
enum Start<'c> {
    Scratch,
    /// A clean run's checkpoint, shared by many crash plans.
    Checkpoint(&'c EngineCheckpoint),
    /// A fork point, consumed by the one run that continues it.
    Fork(Box<ForkPoint>),
}

/// One loop boundary of a clean run, as [`Engine::run_visiting`] shows it
/// to its visitor: the state after `step` engine steps, before the next.
struct Boundary<'r, 'a> {
    /// Engine steps taken so far.
    step: u64,
    /// The smallest unfinished core clock: the boundary's position on the
    /// cycle axis.
    cycle_pos: Cycles,
    /// Durability events counted so far: its position on the event axis.
    event_pos: u64,
    /// Whether the next step retires its core, which has run out of
    /// transactions; with a longer stream it would begin another one.
    retiring: bool,
    engine: &'r Engine<'a>,
    cores: &'r [CoreRun],
}

impl Boundary<'_, '_> {
    /// The whole engine state here: machine, cores, oracle and scheme.
    fn checkpoint(&self) -> EngineCheckpoint {
        let e = self.engine;
        EngineCheckpoint {
            cycle_pos: self.cycle_pos,
            event_pos: self.event_pos,
            machine: e.machine.snapshot(),
            cores: self.cores.to_vec(),
            oracle: e.oracle.clone(),
            scheme: Arc::from(e.scheme.snapshot_state()),
        }
    }
}

/// How often a recording run captures checkpoints.
///
/// Both cadences are active at once: a checkpoint is taken whenever either
/// axis has advanced past its interval since the last capture, so sparse
/// regions of one axis still get coverage from the other. When the set
/// exceeds `max`, every other checkpoint is dropped and both intervals
/// double — the set stays bounded on arbitrarily long runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Capture after this many durability events since the last capture.
    pub every_events: u64,
    /// Capture after this many cycles of minimum-core-clock advance.
    pub every_cycles: u64,
    /// Soft cap on retained checkpoints (thinning threshold).
    pub max: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_events: 64,
            every_cycles: 4096,
            max: 32,
        }
    }
}

/// The checkpoints captured by one recording run, shareable across the
/// crash points (and worker threads) of a sweep.
#[derive(Debug, Default)]
pub struct CheckpointSet {
    cps: Vec<EngineCheckpoint>,
}

impl CheckpointSet {
    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.cps.len()
    }

    /// Whether no checkpoint was captured.
    pub fn is_empty(&self) -> bool {
        self.cps.is_empty()
    }

    /// The retained checkpoints, in capture order.
    pub fn iter(&self) -> impl Iterator<Item = &EngineCheckpoint> {
        self.cps.iter()
    }

    /// The latest checkpoint that [`precedes`](EngineCheckpoint::precedes)
    /// `trigger`, or `None` (resimulate from t=0).
    pub fn nearest(&self, trigger: CrashTrigger) -> Option<&EngineCheckpoint> {
        self.cps.iter().rev().find(|cp| cp.precedes(trigger))
    }
}

/// Where every loop boundary of a clean run lies on both crash axes,
/// logged by [`Engine::run_logging_steps`]. Boundary `k` is the state after
/// `k` engine steps; both positions are non-decreasing in `k`.
#[derive(Clone, Debug, Default)]
pub struct StepLog {
    /// The smallest unfinished core clock at each boundary.
    cycles: Vec<u64>,
    /// Durability events counted at each boundary.
    events: Vec<u64>,
}

impl StepLog {
    /// Number of loop boundaries logged.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether the run took no step.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }

    /// The last loop step strictly before `trigger` on the trigger's own
    /// axis: the latest state of the clean run that a crash run of that
    /// trigger passes through, so [`Engine::walk`] can lend it as the
    /// crash run's resume point, which then re-simulates at most one
    /// step. `None` if no boundary lies strictly before the trigger (one
    /// at t=0): run it from scratch.
    pub fn last_before(&self, trigger: CrashTrigger) -> Option<u64> {
        let before = match trigger {
            CrashTrigger::Cycle(c) => self.cycles.partition_point(|&t| t < c.as_u64()),
            CrashTrigger::Event(n) => self.events.partition_point(|&e| e < n),
        };
        before.checked_sub(1).map(|k| k as u64)
    }

    fn push(&mut self, min_time: Cycles, events: u64) {
        debug_assert!(
            self.cycles.last() <= Some(&min_time.as_u64()) && self.events.last() <= Some(&events),
            "loop boundaries move forward on both crash axes"
        );
        self.cycles.push(min_time.as_u64());
        self.events.push(events);
    }
}

#[derive(Clone, Debug)]
struct CoreRun {
    id: CoreId,
    time: Cycles,
    // Shared, not owned: many engines (schemes × crash points × workers)
    // can run the same stream concurrently without cloning any ops.
    txs: Arc<[Transaction]>,
    tx_idx: usize,
    op_idx: usize,
    phase: Phase,
    txid: TxId,
    tag: TxTag,
    // The in-flight transaction's write set, recorded only on runs that
    // feed the oracle: a commit reads it in address order, a checkpoint
    // shares its pages, and a cut hands it to the oracle whole.
    cur_writes: WordImage,
    committed: u64,
    // Open-system admission: a transaction may not begin before
    // `arrivals.arrivals[tx_idx]`; `None` runs the classic closed loop.
    arrivals: Option<ArrivalSchedule>,
    // Per-commit sojourn (arrival → commit) times for measured
    // transactions, in commit order. Empty on closed-loop runs.
    sojourns: Vec<u64>,
}

impl CoreRun {
    /// Takes up `saved`'s place in its run, keeping this run's stream and
    /// arrival schedule: a continued run's are longer than the forking
    /// run's.
    fn resume(&mut self, saved: CoreRun) {
        *self = CoreRun {
            txs: Arc::clone(&self.txs),
            arrivals: self.arrivals.take(),
            ..saved
        };
    }

    fn record(&self, committed: bool, event: u64) -> TxRecord {
        TxRecord {
            tag: self.tag,
            writes: self.cur_writes.iter().collect(),
            committed,
            event,
        }
    }
}

/// Why the public runs unwrap [`Engine::run_inner`]'s outcome.
const FINISHES: &str = "only a walk ends before its run does";

/// The machine an engine runs on: its own ([`Engine::new`]), or one its
/// caller owns and lends to engine after engine ([`Engine::on`]).
enum Host<'a> {
    Owned(Box<Machine>),
    Lent(&'a mut Machine),
}

impl std::ops::Deref for Host<'_> {
    type Target = Machine;

    fn deref(&self) -> &Machine {
        match self {
            Host::Owned(m) => m,
            Host::Lent(m) => m,
        }
    }
}

impl std::ops::DerefMut for Host<'_> {
    fn deref_mut(&mut self) -> &mut Machine {
        match self {
            Host::Owned(m) => m,
            Host::Lent(m) => m,
        }
    }
}

/// Executes per-core transaction streams under a logging scheme.
///
/// The engine always steps the core with the smallest local clock
/// (ties broken by core id), so runs are fully deterministic and
/// cross-core memory-controller contention is modelled faithfully.
///
/// See the crate docs for an end-to-end example.
pub struct Engine<'a> {
    machine: Host<'a>,
    scheme: &'a mut dyn LoggingScheme,
    oracle: TxOracle,
    // Whether the oracle records transactions: only on runs that can
    // crash or whose checkpoints seed crash runs.
    track_txs: bool,
}

impl<'a> Engine<'a> {
    /// Builds an engine over a fresh machine.
    pub fn new(config: &SimConfig, scheme: &'a mut dyn LoggingScheme) -> Self {
        Engine::with(Host::Owned(Box::new(Machine::new(config))), scheme)
    }

    /// Builds an engine over a machine the caller owns, reset first
    /// ([`Machine::reset`]): every run is the one [`Engine::new`] makes
    /// on a fresh machine of `machine.config`, and a resumed run restores
    /// the whole machine from its checkpoint. The machine stays the
    /// caller's when the engine is done, so a caller that runs many
    /// engines (a crash cell) builds its machines, cache slabs and all,
    /// once.
    ///
    /// # Examples
    ///
    /// ```
    /// use silo_sim::{schemes::NullScheme, Engine, Machine, SimConfig, Transaction};
    /// use silo_types::{PhysAddr, Word};
    ///
    /// let config = SimConfig::table_ii(1);
    /// let tx = Transaction::builder().write(PhysAddr::new(0), Word::new(1)).build();
    /// let run = |engine: Engine| engine.run(vec![vec![tx.clone()]], None).stats.to_json();
    /// let mut machine = Machine::new(&config);
    /// let (mut a, mut b, mut c) = (NullScheme::default(), NullScheme::default(), NullScheme::default());
    /// let first = run(Engine::on(&mut machine, &mut a));
    /// let again = run(Engine::on(&mut machine, &mut b));
    /// assert_eq!(first, run(Engine::new(&config, &mut c)));
    /// assert_eq!(again, first);
    /// ```
    pub fn on(machine: &'a mut Machine, scheme: &'a mut dyn LoggingScheme) -> Self {
        machine.reset();
        Engine::with(Host::Lent(machine), scheme)
    }

    fn with(machine: Host<'a>, scheme: &'a mut dyn LoggingScheme) -> Self {
        Engine {
            machine,
            scheme,
            oracle: TxOracle::default(),
            track_txs: false,
        }
    }

    /// Gives the scheme and tests access to the machine before a run (e.g.
    /// to pre-populate PM state).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Turns on the oracle's per-word transition log
    /// ([`TxOracle::with_history`]): every store, commit and raced commit
    /// is logged with its durability-event index, and the verdict adds the
    /// cut's rollbacks, so each violation of a crash outcome carries its
    /// word's recent history, and
    /// [`CrashOutcome::spec`] repeats the verdict. Off by default. A
    /// checkpoint captured with the log on carries it, so crash plans
    /// resumed from it ([`Engine::run_resumed`]) keep it on without this
    /// call; calling it before resuming from a checkpoint captured without
    /// the log panics.
    pub fn enable_spec(&mut self) {
        self.oracle = TxOracle::with_history();
    }

    /// Runs `streams[i]` on core `i`. With `crash_at = Some(c)`, power
    /// fails at cycle `c` with a perfect ADR drain — shorthand for
    /// [`run_with_plan`](Self::run_with_plan) with
    /// [`CrashPlan::at_cycle`].
    ///
    /// Every run method takes a [`TraceSet`], by value or by reference
    /// (pointer bumps, no op copies), or owned `Vec<Vec<Transaction>>`
    /// streams, which it freezes into one.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count.
    pub fn run(self, streams: impl Into<TraceSet>, crash_at: Option<Cycles>) -> RunOutcome {
        self.run_with_plan(streams, crash_at.map(CrashPlan::at_cycle))
    }

    /// Runs `streams[i]` on core `i`, optionally crashing per `plan`:
    /// power fails at the planned trigger, the ADR drain persists what the
    /// plan's fault model allows, the scheme recovers (possibly re-crashed
    /// mid-recovery), and the outcome carries the oracle's verdict on the
    /// recovered image.
    ///
    /// On crash runs, traffic statistics freeze at the instant of power
    /// loss and [`RunOutcome::pm`] is snapshotted right after the oracle
    /// verdict — the image the oracle certified is the image returned.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count.
    pub fn run_with_plan(
        self,
        streams: impl Into<TraceSet>,
        plan: Option<CrashPlan>,
    ) -> RunOutcome {
        self.run_inner(streams.into(), plan, Start::Scratch, None)
            .expect(FINISHES)
    }

    /// Runs a clean (crash-free) reference run while capturing periodic
    /// full-machine checkpoints per `policy`. The returned set feeds
    /// [`Engine::run_resumed`].
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count.
    pub fn run_recording(
        mut self,
        streams: impl Into<TraceSet>,
        mut policy: CheckpointPolicy,
    ) -> (RunOutcome, CheckpointSet) {
        let mut set = CheckpointSet::default();
        let (mut next_event_due, mut next_cycle_due) = (policy.every_events, policy.every_cycles);
        // The checkpoints seed crash runs, so the oracle records this run.
        self.track_txs = true;
        let outcome = self
            .run_visiting(streams.into(), &mut |b| {
                if b.event_pos < next_event_due && b.cycle_pos.as_u64() < next_cycle_due {
                    return true;
                }
                set.cps.push(b.checkpoint());
                if set.cps.len() >= policy.max {
                    // Thin to every other checkpoint and slow both
                    // cadences, keeping the set bounded on long runs.
                    let mut keep = false;
                    set.cps.retain(|_| {
                        keep = !keep;
                        keep
                    });
                    policy.every_events = policy.every_events.saturating_mul(2);
                    policy.every_cycles = policy.every_cycles.saturating_mul(2);
                }
                next_event_due = b.event_pos.saturating_add(policy.every_events);
                next_cycle_due = b.cycle_pos.as_u64().saturating_add(policy.every_cycles);
                true
            })
            .expect(FINISHES);
        (outcome, set)
    }

    /// Runs a clean run while logging where each of its loop boundaries
    /// lies on both crash axes. The outcome is the same as
    /// [`Engine::run`]'s; the log tells a crash plan which step of a
    /// [`walk`](Self::walk) over the same streams to resume from.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count.
    pub fn run_logging_steps(self, streams: impl Into<TraceSet>) -> (RunOutcome, StepLog) {
        let mut log = StepLog::default();
        let outcome = self
            .run_visiting(streams.into(), &mut |b| {
                log.push(b.cycle_pos, b.event_pos);
                true
            })
            .expect(FINISHES);
        (outcome, log)
    }

    /// Walks a clean run of `streams` once, stopping at each distinct
    /// listed loop step in ascending order, whatever order `steps` lists
    /// them in (step numbers as in a [`StepLog`] of the same streams). At
    /// each stop it hands `visit` the step and a checkpoint of the whole
    /// engine there, a resume base for [`Engine::run_resumed`]. The
    /// callback owns the checkpoint: dropping it before returning keeps
    /// one checkpoint alive at a time (a crash sweep), keeping it builds a
    /// set of resume bases (a crash search). The checkpoints carry what
    /// the walking engine has on: the transition log
    /// ([`Engine::enable_spec`]) and the probes. A `false` from `visit`
    /// ends the walk, and so does its last stop: the rest of the run is
    /// never simulated. A step the run never reaches is never visited.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count.
    pub fn walk(
        mut self,
        streams: impl Into<TraceSet>,
        steps: &[u64],
        mut visit: impl FnMut(u64, EngineCheckpoint) -> bool,
    ) {
        let mut steps = steps.to_vec();
        steps.sort_unstable();
        steps.dedup();
        if steps.is_empty() {
            return; // nowhere to stop
        }
        let mut stops = steps.into_iter().peekable();
        // The checkpoints seed crash runs, so the oracle records this run.
        self.track_txs = true;
        let _ = self.run_visiting(streams.into(), &mut |b| {
            if stops.next_if_eq(&b.step).is_none() {
                return true;
            }
            visit(b.step, b.checkpoint()) && stops.peek().is_some()
        });
    }

    /// Runs a clean run while capturing its [`ForkPoint`], from which
    /// [`Engine::run_continued`] runs longer streams that start with
    /// these. The outcome is the same as [`Engine::run`]'s.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count.
    pub fn run_forking(self, streams: impl Into<TraceSet>) -> (RunOutcome, ForkPoint) {
        let prefix = streams.into();
        let mut fork = None;
        let outcome = self
            .run_visiting(prefix.clone(), &mut |b| {
                // The first core to retire is the first whose next step a
                // longer stream would not take: every step so far is
                // common to both runs.
                if fork.is_none() && b.retiring {
                    fork = Some(b.checkpoint());
                }
                true
            })
            .expect(FINISHES);
        let cp = fork.expect("a clean run retires a core, and forks there");
        (outcome, ForkPoint { cp, prefix })
    }

    /// Runs `streams` clean from `fork` instead of t=0, consuming the fork
    /// as it restores. The engine's scheme must be a fresh instance of the
    /// forking run's scheme, and every stream and arrival schedule must
    /// start with the forking run's (checked in debug builds); the outcome
    /// is then byte-identical to running `streams` from scratch. The
    /// probe configuration comes from the fork, as it does on a resume.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count
    /// or from the fork's core count.
    pub fn run_continued(self, streams: impl Into<TraceSet>, fork: ForkPoint) -> RunOutcome {
        let streams = streams.into();
        debug_assert!(
            streams.starts_with(&fork.prefix),
            "a continued run's streams must start with the forking run's"
        );
        self.run_inner(streams, None, Start::Fork(Box::new(fork)), None)
            .expect(FINISHES)
    }

    /// Runs a crash plan starting from `checkpoint` instead of t=0. The
    /// streams must be the same ones the checkpointing run executed, and
    /// the checkpoint must [`precede`](EngineCheckpoint::precedes) the
    /// plan's trigger ([`CheckpointSet::nearest`] and
    /// [`StepLog::last_before`] guarantee it); the outcome is then
    /// byte-identical to running the plan from scratch with the
    /// checkpointing run's probes and transition log on, which the resumed
    /// run takes from the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count
    /// or from the checkpoint's core count, if the checkpoint lies at or
    /// past the plan's trigger, or if [`Engine::enable_spec`] was called
    /// but the checkpoint was captured without the transition log.
    pub fn run_resumed(
        self,
        streams: impl Into<TraceSet>,
        plan: CrashPlan,
        checkpoint: &EngineCheckpoint,
    ) -> RunOutcome {
        assert!(
            checkpoint.precedes(plan.trigger),
            "{checkpoint:?} is not before the crash at {:?}",
            plan.trigger
        );
        self.run_inner(
            streams.into(),
            Some(plan),
            Start::Checkpoint(checkpoint),
            None,
        )
        .expect(FINISHES)
    }

    /// The one hook of every clean-run capture: runs `streams` clean from
    /// t=0 and shows `visit` each loop boundary once, in step order,
    /// before the step it precedes. A `false` from `visit` ends the run
    /// there, with `None`. Crash runs take no visitor: their states past
    /// the cut differ per plan, so none is worth capturing.
    fn run_visiting(
        self,
        streams: TraceSet,
        visit: &mut dyn FnMut(&Boundary) -> bool,
    ) -> Option<RunOutcome> {
        self.run_inner(streams, None, Start::Scratch, Some(visit))
    }

    /// Runs to the end, or to a crash, and returns the outcome; `None`
    /// only when `visit`, which only clean runs take, ended the run.
    fn run_inner(
        mut self,
        streams: TraceSet,
        plan: Option<CrashPlan>,
        start: Start<'_>,
        mut visit: Option<&mut dyn FnMut(&Boundary) -> bool>,
    ) -> Option<RunOutcome> {
        assert_eq!(
            streams.cores(),
            self.machine.config.cores,
            "one transaction stream per core required"
        );
        let mut cores: Vec<CoreRun> = streams
            .streams()
            .iter()
            .enumerate()
            .map(|(i, txs)| CoreRun {
                id: CoreId::new(i),
                time: Cycles::ZERO,
                txs: Arc::clone(txs),
                tx_idx: 0,
                op_idx: 0,
                phase: Phase::BetweenTxs,
                txid: TxId::new(0),
                tag: TxTag::default(),
                cur_writes: WordImage::new(),
                committed: 0,
                arrivals: streams.arrivals().map(|a| a[i].clone()),
                sojourns: Vec::new(),
            })
            .collect();
        let saved = match start {
            Start::Scratch => None,
            Start::Checkpoint(cp) => {
                self.machine.restore(&cp.machine);
                assert!(
                    !self.oracle.logs_history() || cp.oracle.logs_history(),
                    "the transition log is on but the checkpoint carries none \
                     (enable it on the run that captures the checkpoint)"
                );
                self.oracle = cp.oracle.clone();
                self.scheme.restore_state(&*cp.scheme);
                Some(cp.cores.clone())
            }
            Start::Fork(fork) => {
                // Moved in rather than copied, and gone after this arm: a
                // fork kept alive would share the PM pages, and the run
                // would copy each one on its first write to it.
                let ForkPoint { cp, .. } = *fork;
                self.machine.restore_owned(cp.machine);
                self.scheme.restore_state(&*cp.scheme);
                Some(cp.cores)
            }
        };
        if let Some(saved) = saved {
            assert_eq!(
                saved.len(),
                cores.len(),
                "checkpoint core count must match the streams"
            );
            for (core, s) in cores.iter_mut().zip(saved) {
                core.resume(s);
            }
        }

        // Arming happens *after* a restore: the clean checkpointing run counts
        // events unarmed, and its prefix is byte-identical to an armed
        // run's (arming only sets the trip threshold), so the same
        // checkpoints serve every fault model. The checkpoint's
        // `event_pos < n` guarantees arming here cannot trip immediately.
        if let Some(CrashPlan {
            trigger: CrashTrigger::Event(n),
            ..
        }) = plan
        {
            self.machine.pm.arm_crash_at_event(n);
        }

        // Only a crash reads the oracle: a crash run, or a checkpointing
        // run whose checkpoints seed crash runs (it turned this on),
        // records every transaction; other clean runs skip the per-commit
        // record entirely.
        self.track_txs |= plan.is_some();
        let mut step = 0u64;

        // Pick the unfinished core with the smallest clock, ties broken by
        // core id — the keys `(clock, i)` are unique, so the minimum is
        // unambiguous. `clocks` mirrors each core's clock, `DONE` once it
        // finishes, so a scan reads one small array. A full scan is
        // O(cores) per step; since `step` only advances the stepped core's
        // clock, cache the winner alongside the runner-up's key and rescan
        // only when the stepped core finishes or its clock passes the
        // runner-up. The sentinel key compares above every real key, so a
        // lone core never rescans.
        const DONE: u64 = u64::MAX;
        const NO_KEY: (u64, usize) = (DONE, usize::MAX);
        let clock = |c: &CoreRun| match c.phase {
            Phase::Done => DONE,
            _ => c.time.as_u64(),
        };
        let mut clocks: Vec<u64> = cores.iter().map(clock).collect();
        let mut cached: Option<(usize, (u64, usize))> = None;
        loop {
            let ci = match cached {
                Some((i, runner_up)) if clocks[i] != DONE && (clocks[i], i) < runner_up => i,
                _ => {
                    // In core order, a clock beats an equal one already
                    // seen by its key only if it is lower.
                    let (mut best, mut runner_up) = (NO_KEY, NO_KEY);
                    for (i, &t) in clocks.iter().enumerate() {
                        if t < best.0 {
                            runner_up = best;
                            best = (t, i);
                        } else if t < runner_up.0 {
                            runner_up = (t, i);
                        }
                    }
                    if best == NO_KEY {
                        break;
                    }
                    cached = Some((best.1, runner_up));
                    best.1
                }
            };
            if let Some(visit) = &mut visit {
                let core = &cores[ci];
                let boundary = Boundary {
                    step,
                    // The winner's clock is the minimum unfinished clock,
                    // so this loop boundary *is* a position on the cycle
                    // axis.
                    cycle_pos: core.time,
                    event_pos: self.machine.pm.events().total(),
                    retiring: core.phase == Phase::BetweenTxs && core.tx_idx >= core.txs.len(),
                    engine: &self,
                    cores: &cores,
                };
                if !visit(&boundary) {
                    return None;
                }
            }
            match plan.map(|p| p.trigger) {
                Some(CrashTrigger::Cycle(crash)) if cores[ci].time >= crash => {
                    break; // power failed before this core's next op
                }
                Some(CrashTrigger::Event(_)) if self.machine.pm.power_tripped() => {
                    break; // the armed event count was reached
                }
                _ => {}
            }
            self.step(&mut cores[ci]);
            clocks[ci] = clock(&cores[ci]);
            step += 1;
            let now = cores[ci].time;
            self.scheme.on_tick(&mut self.machine, now);
        }

        let sim_cycles = cores.iter().map(|c| c.time).max().unwrap_or(Cycles::ZERO);

        let (crash, pm_stats, pm_image) = match plan {
            Some(plan) => {
                let crash_cycle = match plan.trigger {
                    CrashTrigger::Cycle(c) => c,
                    CrashTrigger::Event(_) => sim_cycles,
                };
                let (outcome, pm_stats, pm_image) =
                    self.crash_sequence(&mut cores, &plan, crash_cycle);
                (Some(outcome), pm_stats, pm_image)
            }
            None => {
                // Clean end of run: let the scheme finish lazy background
                // work (e.g. Silo's post-commit data-region updates), then
                // drain the ADR on-PM buffer so traffic stats cover all
                // writes.
                self.scheme.on_run_end(&mut self.machine, sim_cycles);
                let m = &mut *self.machine;
                m.pm.flush_all_probed(&mut m.probe, sim_cycles.as_u64());
                (None, self.machine.pm.stats(), self.machine.pm.clone())
            }
        };

        let breakdown = self.machine.probe.take_breakdown();
        if let Some(b) = &breakdown {
            // The accounting invariant: every cycle of every core's clock
            // is attributed to exactly one category. Violations are
            // engine/scheme attribution bugs; `evaluate check` re-validates
            // this on the emitted reports (assertions are compiled out in
            // release builds).
            for (i, c) in cores.iter().enumerate() {
                debug_assert_eq!(
                    b.core_total(i),
                    c.time.as_u64(),
                    "cycle breakdown must sum to core {i}'s clock"
                );
            }
        }
        // Open-system runs summarise the full sojourn multiset exactly:
        // merge every core's commit-ordered samples, sort once, take
        // nearest-rank percentiles. Closed-loop runs carry no schedules and
        // report `None`, keeping their output byte-identical.
        let latency = if cores.iter().any(|c| c.arrivals.is_some()) {
            let mut all: Vec<u64> = cores
                .iter()
                .flat_map(|c| c.sojourns.iter().copied())
                .collect();
            all.sort_unstable();
            Some(LatencyStats::from_sorted(&all))
        } else {
            None
        };
        let stats = SimStats {
            scheme: self.scheme.name(),
            cores: cores.len(),
            per_core: cores
                .iter()
                .map(|c| crate::CoreStats {
                    cycles: c.time,
                    txs_committed: c.committed,
                })
                .collect(),
            sim_cycles,
            txs_committed: cores.iter().map(|c| c.committed).sum(),
            pm: pm_stats,
            mc: self.machine.mc_stats_total(),
            cache: self.machine.caches.stats(),
            scheme_stats: self.scheme.stats(),
            breakdown,
            latency,
        };
        let outcome = RunOutcome {
            stats,
            crash,
            pm: pm_image,
            timeline: self.machine.probe.drain_timeline(),
            signature: self.machine.probe.take_signature(),
        };
        Some(outcome)
    }

    /// Executes one step (transaction boundary or single op) on `core`.
    fn step(&mut self, core: &mut CoreRun) {
        match core.phase {
            Phase::Done => {}
            Phase::BetweenTxs => {
                if core.tx_idx >= core.txs.len() {
                    core.phase = Phase::Done;
                    return;
                }
                // Open-system admission: the next transaction is not
                // eligible before its arrival cycle. The idle wait is
                // charged to Execute — the core is architecturally free
                // (no scheme stall), so the charge is scheme-independent
                // and the closed category set stays closed.
                if let Some(sched) = &core.arrivals {
                    let arrival = sched.arrivals[core.tx_idx];
                    if core.time.as_u64() < arrival {
                        let idle = arrival - core.time.as_u64();
                        core.time = Cycles::new(arrival);
                        self.machine
                            .probe
                            .charge(core.id.as_usize(), CycleCategory::Execute, idle);
                    }
                }
                // Tx_begin: the log generator latches (tid, txid), §III-B.
                core.txid = core.txid.next();
                core.tag = TxTag::new(core.id.thread(), core.txid);
                core.cur_writes.clear();
                let before = core.time;
                self.machine.probe.begin_claim_window();
                core.time =
                    self.scheme
                        .on_tx_begin(&mut self.machine, core.id, core.tag, core.time);
                self.machine.probe.charge_window(
                    core.id.as_usize(),
                    CycleCategory::CommitStall,
                    (core.time - before).as_u64(),
                );
                self.machine.probe.emit(
                    ProbeEventKind::TxBegin,
                    Some(core.id.as_usize() as u32),
                    core.time.as_u64(),
                    core.txid.as_u16() as u64,
                );
                core.phase = Phase::InTx;
                core.op_idx = 0;
            }
            Phase::InTx => {
                let tx = &core.txs[core.tx_idx];
                if core.op_idx < tx.ops().len() {
                    let op = tx.ops()[core.op_idx];
                    core.op_idx += 1;
                    self.exec_op(core, op);
                } else {
                    // Tx_end.
                    let before = core.time;
                    self.machine.probe.begin_claim_window();
                    core.time =
                        self.scheme
                            .on_tx_end(&mut self.machine, core.id, core.tag, core.time);
                    self.machine.probe.charge_window(
                        core.id.as_usize(),
                        CycleCategory::CommitStall,
                        (core.time - before).as_u64(),
                    );
                    if self.machine.pm.power_tripped() {
                        // Power died inside the commit sequence: whether
                        // the scheme persisted the commit marker before
                        // the cut is its own business. Either outcome is
                        // legal — atomically.
                        let event = self.machine.pm.events().total();
                        self.oracle.observe_ambiguous(core.record(false, event));
                        core.phase = Phase::Done;
                        return;
                    }
                    if self.track_txs {
                        let event = self.machine.pm.events().total();
                        self.oracle.observe(core.record(true, event));
                    }
                    core.committed += 1;
                    if let Some(sched) = &core.arrivals {
                        // Sojourn = queue wait + service: commit minus
                        // arrival. Setup transactions (below measure_from)
                        // are admitted but not user requests, so they are
                        // not recorded.
                        if core.tx_idx >= sched.measure_from {
                            core.sojourns
                                .push(core.time.as_u64() - sched.arrivals[core.tx_idx]);
                        }
                    }
                    self.machine.probe.emit(
                        ProbeEventKind::TxCommit,
                        Some(core.id.as_usize() as u32),
                        core.time.as_u64(),
                        core.txid.as_u16() as u64,
                    );
                    core.tx_idx += 1;
                    core.phase = Phase::BetweenTxs;
                }
            }
        }
    }

    fn exec_op(&mut self, core: &mut CoreRun, op: Op) {
        let issue = Cycles::new(self.machine.config.op_issue_cycles);
        let ci = core.id.as_usize();
        match op {
            Op::Compute(cycles) => {
                let delta = issue + Cycles::new(cycles as u64);
                core.time += delta;
                self.machine
                    .probe
                    .charge(ci, CycleCategory::Execute, delta.as_u64());
            }
            Op::Read(addr) => {
                let before = core.time;
                let acc = self.machine.caches.access(core.id, addr.line(), false);
                core.time += issue + acc.latency;
                if acc.filled_from_memory {
                    core.time = self.machine.pm_read_at(core.time, addr);
                }
                self.machine.probe.charge(
                    ci,
                    CycleCategory::Execute,
                    (core.time - before).as_u64(),
                );
                self.handle_evictions(core, &acc.pm_writebacks);
            }
            Op::Write(addr, new) => {
                self.machine.pm.note_event(EventKind::Store);
                let before = core.time;
                let acc = self.machine.caches.access(core.id, addr.line(), true);
                core.time += issue + acc.latency;
                if acc.filled_from_memory {
                    // Write-allocate: fetch the line before merging the store.
                    core.time = self.machine.pm_read_at(core.time, addr);
                }
                self.machine.probe.charge(
                    ci,
                    CycleCategory::Execute,
                    (core.time - before).as_u64(),
                );
                self.handle_evictions(core, &acc.pm_writebacks);
                let m = &mut *self.machine;
                let old = m.shadow.replace(addr, new, &m.pm);
                if self.track_txs {
                    core.cur_writes.insert(addr, new);
                    let event = self.machine.pm.events().total();
                    self.oracle.log_store(core.tag, addr, new, event);
                }
                let before = core.time;
                self.machine.probe.begin_claim_window();
                core.time =
                    self.machine
                        .shadow_store_hook(self.scheme, core.id, addr, old, new, core.time);
                self.machine.probe.charge_window(
                    ci,
                    CycleCategory::LogBufferFull,
                    (core.time - before).as_u64(),
                );
            }
        }
    }

    fn handle_evictions(&mut self, core: &mut CoreRun, lines: &[silo_types::LineAddr]) {
        let ci = core.id.as_usize();
        for &line in lines {
            let before = core.time;
            self.machine.probe.begin_claim_window();
            let (action, t) = self
                .scheme
                .on_evict(&mut self.machine, core.id, line, core.time);
            core.time = t;
            self.machine.probe.charge_window(
                ci,
                CycleCategory::WpqFull,
                (core.time - before).as_u64(),
            );
            if action == EvictAction::WriteBack {
                let coalesced = self.scheme.coalesces_pm_writes();
                let adm = self.machine.writeback_line(core.time, line, coalesced);
                // Evictions leave via write-back buffers; only WPQ
                // back-pressure reaches the core.
                self.machine.probe.charge(
                    ci,
                    CycleCategory::WpqFull,
                    (adm.admit - core.time).as_u64(),
                );
                core.time = adm.admit;
            }
        }
    }

    /// The full crash/recovery sequence. Returns the outcome together
    /// with the traffic-counter snapshot taken at the instant of power
    /// loss and the PM image exactly as the oracle verified it.
    fn crash_sequence(
        &mut self,
        cores: &mut [CoreRun],
        plan: &CrashPlan,
        crash_at: Cycles,
    ) -> (CrashOutcome, silo_pm::PmStats, silo_pm::PmDevice) {
        let mut inflight = 0;
        let event_at_cut = self.machine.pm.events().total();
        for core in cores.iter_mut() {
            if core.phase == Phase::InTx {
                let writes = std::mem::take(&mut core.cur_writes);
                self.oracle.observe_cut(core.tag, writes, event_at_cut);
                inflight += 1;
            }
            core.phase = Phase::Done;
        }
        // Volatile state dies with the power.
        self.machine.caches.invalidate_all();
        self.machine.shadow.clear();
        // Traffic counters freeze at the instant of power loss: the
        // battery drain and recovery are not part of the run's traffic.
        let pm_stats = self.machine.pm.stats();
        let events_at_crash = self.machine.pm.events();
        self.machine.probe.emit(
            ProbeEventKind::Crash,
            None,
            crash_at.as_u64(),
            events_at_crash.total(),
        );
        // Battery-backed flush under the plan's fault model, then the
        // final ADR drain on residual energy.
        self.machine.pm.begin_battery(&plan.fault);
        self.scheme.on_crash(&mut self.machine);
        let drain = self.machine.pm.battery_drain();
        // Power restored: recover, possibly re-crashed mid-way.
        self.machine.pm.begin_recovery(plan.recovery_crash_at);
        let mut recovery = self.scheme.recover(&mut self.machine);
        let mut double_crash = false;
        if self.machine.pm.power_tripped() {
            // Power failed again inside recovery. The scheme's
            // battery-backed structures were consumed by the first
            // `on_crash` (re-flushing would write an empty crash header
            // over the intact one), so only the ADR buffer drains before
            // the second — this time uninterrupted — recovery.
            double_crash = true;
            self.machine.pm.begin_battery(&FaultModel::perfect_adr());
            let _ = self.machine.pm.battery_drain();
            self.machine.pm.begin_recovery(None);
            recovery = self.scheme.recover(&mut self.machine);
        }
        self.machine.pm.end_recovery();
        self.machine.probe.emit(
            ProbeEventKind::Recovery,
            None,
            crash_at.as_u64(),
            recovery.replayed_words + recovery.revoked_words,
        );
        let consistency = self.oracle.verify(&self.machine.pm);
        let spec = self.oracle.logs_history().then(|| consistency.clone());
        let outcome = CrashOutcome {
            crash_at,
            recovery,
            consistency,
            committed_txs: self.oracle.tx_counts().0,
            inflight_txs: inflight,
            ambiguous_txs: self.oracle.ambiguous_txs(),
            events_at_crash,
            drain,
            double_crash,
            spec,
        };
        // `RunOutcome::pm` is cloned here, immediately after the verdict:
        // the image the oracle certified is the image callers see.
        (outcome, pm_stats, self.machine.pm.clone())
    }
}

impl Machine {
    /// Routes a store notification to the scheme. Separate method so the
    /// borrow of the scheme and the machine stay disjoint at the call site.
    fn shadow_store_hook(
        &mut self,
        scheme: &mut dyn LoggingScheme,
        core: CoreId,
        addr: PhysAddr,
        old: Word,
        new: Word,
        now: Cycles,
    ) -> Cycles {
        scheme.on_store(self, core, addr, old, new, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::NullScheme;
    use crate::WordEventKind;

    fn tx_writing(addrs: &[(u64, u64)]) -> Transaction {
        let mut b = Transaction::builder();
        for &(a, v) in addrs {
            b = b.write(PhysAddr::new(a), Word::new(v));
        }
        b.build()
    }

    #[test]
    fn single_core_commits_all_transactions() {
        let cfg = SimConfig::table_ii(1);
        let txs = vec![
            tx_writing(&[(0, 1)]),
            tx_writing(&[(8, 2)]),
            tx_writing(&[(16, 3)]),
        ];
        let mut scheme = NullScheme::default();
        let out = Engine::new(&cfg, &mut scheme).run(vec![txs], None);
        assert_eq!(out.stats.txs_committed, 3);
        assert!(out.crash.is_none());
        assert!(out.stats.sim_cycles > Cycles::ZERO);
    }

    #[test]
    fn multicore_runs_all_streams() {
        let cfg = SimConfig::table_ii(4);
        let streams: Vec<Vec<Transaction>> = (0..4)
            .map(|c| {
                (0..5)
                    .map(|i| tx_writing(&[((c * 4096 + i * 8) as u64, i as u64)]))
                    .collect()
            })
            .collect();
        let mut scheme = NullScheme::default();
        let out = Engine::new(&cfg, &mut scheme).run(streams, None);
        assert_eq!(out.stats.txs_committed, 20);
    }

    #[test]
    fn admission_delays_transactions_to_their_arrival_cycle() {
        let cfg = SimConfig::table_ii(1);
        let txs = vec![
            tx_writing(&[(0, 1)]),
            tx_writing(&[(8, 2)]),
            tx_writing(&[(16, 3)]),
        ];
        // Closed-loop reference: no schedule, no latency summary.
        let mut s = NullScheme::default();
        let closed = Engine::new(&cfg, &mut s).run(vec![txs.clone()], None);
        assert!(closed.stats.latency.is_none());

        // A far-future arrival stalls the core until the arrival cycle, so
        // the run takes at least that long and every sojourn is bounded by
        // the service time alone (the queue is empty at admission).
        let trace = crate::TraceSet::new(vec![txs])
            .with_arrivals(vec![ArrivalSchedule::new(vec![0, 50_000, 50_000], 1)]);
        let mut s = NullScheme::default();
        let open = Engine::new(&cfg, &mut s).run(&trace, None);
        assert_eq!(open.stats.txs_committed, 3);
        assert!(open.stats.sim_cycles.as_u64() >= 50_000);
        let l = open.stats.latency.expect("open-system run records latency");
        // Setup (index 0) is excluded by measure_from=1.
        assert_eq!(l.samples, 2);
        // Both measured txs arrive at 50k into an idle machine; their
        // sojourn is pure service time plus tx 2's queueing behind tx 1,
        // far below the 50k stall a from-arrival=0 accounting would show.
        assert!(
            l.max < 50_000,
            "sojourn should not include pre-arrival idle"
        );
        assert!(l.p50 > 0);
        assert!(l.p50 <= l.p99 && l.p99 <= l.p999 && l.p999 <= l.max);
    }

    #[test]
    fn admission_is_deterministic_and_checkpoint_safe() {
        let cfg = SimConfig::table_ii(2);
        let mk = || {
            let streams: Vec<Vec<Transaction>> = (0..2)
                .map(|c| {
                    (0..6)
                        .map(|i| tx_writing(&[((c * 4096 + i * 8) as u64, i as u64)]))
                        .collect()
                })
                .collect();
            crate::TraceSet::new(streams).with_arrivals(
                (0..2)
                    .map(|c| {
                        ArrivalSchedule::new(
                            (0..6).map(|i| i as u64 * (400 + c as u64 * 37)).collect(),
                            1,
                        )
                    })
                    .collect(),
            )
        };
        let mut s1 = NullScheme::default();
        let a = Engine::new(&cfg, &mut s1).run(mk(), None);
        let mut s2 = NullScheme::default();
        let b = Engine::new(&cfg, &mut s2).run(mk(), None);
        assert_eq!(a.stats.latency, b.stats.latency);
        assert!(a.stats.latency.expect("latency").samples == 10);
    }

    #[test]
    #[should_panic(expected = "one transaction stream per core")]
    fn stream_count_must_match_cores() {
        let cfg = SimConfig::table_ii(2);
        let mut scheme = NullScheme::default();
        let streams: Vec<Vec<Transaction>> = vec![vec![]];
        let _ = Engine::new(&cfg, &mut scheme).run(streams, None);
    }

    #[test]
    fn determinism_same_input_same_stats() {
        let cfg = SimConfig::table_ii(2);
        let streams = || {
            vec![
                vec![tx_writing(&[(0, 1), (64, 2)]), tx_writing(&[(128, 3)])],
                vec![
                    tx_writing(&[(4096, 4)]),
                    tx_writing(&[(8192, 5), (8200, 6)]),
                ],
            ]
        };
        let mut s1 = NullScheme::default();
        let a = Engine::new(&cfg, &mut s1).run(streams(), None);
        let mut s2 = NullScheme::default();
        let b = Engine::new(&cfg, &mut s2).run(streams(), None);
        assert_eq!(a.stats.sim_cycles, b.stats.sim_cycles);
        assert_eq!(a.stats.pm, b.stats.pm);
        assert_eq!(a.stats.mc.busy_cycles, b.stats.mc.busy_cycles);
    }

    #[test]
    fn crash_with_null_scheme_loses_committed_data() {
        // NullScheme never persists anything (no flushes, tiny footprint
        // stays cached), so committed writes are lost — the oracle must
        // catch that.
        let cfg = SimConfig::table_ii(1);
        let txs = vec![tx_writing(&[(0, 7)])];
        let mut scheme = NullScheme::default();
        let out = Engine::new(&cfg, &mut scheme).run(vec![txs], Some(Cycles::new(1_000_000)));
        let crash = out.crash.expect("crash requested");
        assert_eq!(crash.committed_txs, 1);
        assert!(!crash.consistency.is_consistent());
        assert_eq!(
            crash.consistency.violations[0].kind,
            "committed write lost or corrupted"
        );
    }

    #[test]
    fn per_core_stats_track_each_core() {
        let cfg = SimConfig::table_ii(2);
        let streams = vec![
            vec![tx_writing(&[(0, 1)]), tx_writing(&[(8, 2)])],
            vec![tx_writing(&[(1 << 20, 3)])],
        ];
        let mut scheme = NullScheme::default();
        let out = Engine::new(&cfg, &mut scheme).run(streams, None);
        assert_eq!(out.stats.per_core.len(), 2);
        assert_eq!(out.stats.per_core[0].txs_committed, 2);
        assert_eq!(out.stats.per_core[1].txs_committed, 1);
        assert_eq!(
            out.stats
                .per_core
                .iter()
                .map(|c| c.txs_committed)
                .sum::<u64>(),
            out.stats.txs_committed
        );
        assert!(out.stats.fairness().expect("both cores ran") >= 1.0);
    }

    #[test]
    fn crash_at_cycle_zero_runs_nothing() {
        let cfg = SimConfig::table_ii(1);
        let txs = vec![tx_writing(&[(0, 7)])];
        let mut scheme = NullScheme::default();
        let out = Engine::new(&cfg, &mut scheme).run(vec![txs], Some(Cycles::ZERO));
        assert_eq!(out.stats.txs_committed, 0);
        let crash = out.crash.expect("crash requested");
        assert!(
            crash.consistency.is_consistent(),
            "nothing ran, PM all-zero"
        );
    }

    #[test]
    fn recording_runs_keep_the_oracle_for_resumed_crashes() {
        // Clean runs leave the oracle empty, but a recording run's
        // checkpoints seed crash runs: a resumed crash must judge the same
        // transactions as one from scratch. NullScheme loses every
        // committed write, so the verdict names real violations.
        let cfg = SimConfig::table_ii(2);
        let streams = || -> Vec<Vec<Transaction>> {
            (0..2u64)
                .map(|c| {
                    (0..40)
                        .map(|i| tx_writing(&[(c * 4096 + i * 64, i + 1)]))
                        .collect()
                })
                .collect()
        };
        let policy = CheckpointPolicy {
            every_events: 4,
            every_cycles: 256,
            max: 64,
        };
        let mut s = NullScheme::default();
        let (clean, set) = Engine::new(&cfg, &mut s).run_recording(streams(), policy);
        let plan = CrashPlan::at_event(clean.pm.events().total() * 3 / 4);
        let cp = set
            .nearest(plan.trigger)
            .expect("a checkpoint precedes the crash");
        assert!(cp.event_pos() > 0, "the checkpoint carries a real prefix");

        let mut s1 = NullScheme::default();
        let scratch = Engine::new(&cfg, &mut s1).run_with_plan(streams(), Some(plan));
        let mut s2 = NullScheme::default();
        let resumed = Engine::new(&cfg, &mut s2).run_resumed(streams(), plan, cp);
        let (scratch, resumed) = (scratch.crash.unwrap(), resumed.crash.unwrap());
        assert!(!scratch.consistency.is_consistent());
        assert_eq!(scratch.consistency, resumed.consistency);
        assert_eq!(scratch.committed_txs, resumed.committed_txs);
    }

    #[test]
    fn reads_and_compute_advance_time_without_pm_writes() {
        let cfg = SimConfig::table_ii(1);
        let tx = Transaction::builder()
            .read(PhysAddr::new(0))
            .compute(100)
            .read(PhysAddr::new(0))
            .build();
        let mut scheme = NullScheme::default();
        let out = Engine::new(&cfg, &mut scheme).run(vec![vec![tx]], None);
        assert_eq!(out.stats.pm.accepted_writes, 0);
        // 1 cold miss (100 cyc PM read) + compute(100) + hit.
        assert!(out.stats.sim_cycles >= Cycles::new(200));
        assert_eq!(out.stats.pm.reads, 0, "timing-only read path");
        assert_eq!(out.stats.mc.reads, 1);
    }

    #[test]
    fn cold_store_pays_write_allocate_fetch() {
        let cfg = SimConfig::table_ii(1);
        let tx = tx_writing(&[(0, 1)]);
        let mut scheme = NullScheme::default();
        let out = Engine::new(&cfg, &mut scheme).run(vec![vec![tx]], None);
        // L1+L2+L3 lookups (44) + PM read (100) + issue cycles.
        assert!(out.stats.sim_cycles >= Cycles::new(144));
    }

    /// A minimal scheme for crash-path tests: optionally bypass-writes a
    /// marker at commit (so commits produce durability events), stages
    /// `crash_bytes` at `crash_addr` in `on_crash`, and replays a fixed
    /// word in `recover`.
    #[derive(Clone)]
    struct ProbeScheme {
        commit_addr: Option<PhysAddr>,
        crash_addr: PhysAddr,
        crash_bytes: usize,
        recover_words: Vec<(PhysAddr, Word)>,
        recover_calls: u64,
    }

    impl ProbeScheme {
        fn quiet() -> Self {
            ProbeScheme {
                commit_addr: None,
                crash_addr: PhysAddr::new(1 << 16),
                crash_bytes: 0,
                recover_words: Vec::new(),
                recover_calls: 0,
            }
        }
    }

    impl LoggingScheme for ProbeScheme {
        fn name(&self) -> &'static str {
            "Probe"
        }
        fn on_tx_begin(
            &mut self,
            _m: &mut Machine,
            _core: CoreId,
            _tag: TxTag,
            now: Cycles,
        ) -> Cycles {
            now
        }
        fn on_store(
            &mut self,
            _m: &mut Machine,
            _core: CoreId,
            _addr: PhysAddr,
            _old: Word,
            _new: Word,
            now: Cycles,
        ) -> Cycles {
            now
        }
        fn on_evict(
            &mut self,
            _m: &mut Machine,
            _core: CoreId,
            _line: silo_types::LineAddr,
            now: Cycles,
        ) -> (EvictAction, Cycles) {
            (EvictAction::WriteBack, now)
        }
        fn on_tx_end(
            &mut self,
            m: &mut Machine,
            _core: CoreId,
            _tag: TxTag,
            now: Cycles,
        ) -> Cycles {
            if let Some(addr) = self.commit_addr {
                m.pm_write_through(now, addr, &[0xCC; 8]);
            }
            now
        }
        fn on_crash(&mut self, m: &mut Machine) {
            if self.crash_bytes > 0 {
                m.pm.write(self.crash_addr, &vec![0xAB; self.crash_bytes]);
            }
        }
        fn recover(&mut self, m: &mut Machine) -> crate::RecoveryReport {
            self.recover_calls += 1;
            for &(addr, w) in &self.recover_words {
                m.pm.write(addr, &w.to_le_bytes());
            }
            crate::RecoveryReport::default()
        }
        fn stats(&self) -> crate::SchemeStats {
            crate::SchemeStats::default()
        }
        crate::impl_scheme_snapshot!();
    }

    #[test]
    fn the_visitor_sees_every_loop_boundary_once_in_step_order() {
        // Two cores of 12 two-store transactions: each transaction takes
        // a begin step, one step per op and an end step, and each core one
        // more step to retire, so the run has 2 * (12 * 4 + 1) boundaries.
        let cfg = SimConfig::table_ii(2);
        let streams = || -> TraceSet {
            let stream = |c: u64| -> Vec<Transaction> {
                (0..12)
                    .map(|i| tx_writing(&[(c * 4096 + i * 64, i + 1), (c * 4096 + i * 64 + 8, i)]))
                    .collect()
            };
            vec![stream(0), stream(1)].into()
        };
        let scheme = || {
            let mut s = ProbeScheme::quiet();
            s.commit_addr = Some(PhysAddr::new(1 << 18));
            s
        };
        let mut s = scheme();
        let (clean, log) = Engine::new(&cfg, &mut s).run_logging_steps(streams());
        assert_eq!(log.len(), 98);

        let mut seen = Vec::new();
        let mut s = scheme();
        let out = Engine::new(&cfg, &mut s).run_visiting(streams(), &mut |b| {
            seen.push((b.step, b.cycle_pos.as_u64(), b.event_pos, b.retiring));
            true
        });
        let out = out.expect("a visitor that never says false sees the run end");
        assert_eq!(out.stats.to_json(), clean.stats.to_json());
        let steps: Vec<u64> = seen.iter().map(|b| b.0).collect();
        assert_eq!(steps, (0..98).collect::<Vec<u64>>());
        let at: Vec<(u64, u64)> = seen.iter().map(|b| (b.1, b.2)).collect();
        let logged: Vec<(u64, u64)> = log.cycles.iter().copied().zip(log.events).collect();
        assert_eq!(at, logged);
        assert!(
            at.last().unwrap().1 > 24,
            "commits and stores count as events"
        );
        let retiring: Vec<u64> = seen.iter().filter(|b| b.3).map(|b| b.0).collect();
        assert_eq!(retiring.len(), 2, "each core retires once: {retiring:?}");

        // A `false` ends the run at that boundary: the step after it never
        // runs, and the run returns nothing.
        let mut shown = 0;
        let mut s = scheme();
        let out = Engine::new(&cfg, &mut s).run_visiting(streams(), &mut |b| {
            shown += 1;
            b.step < 40
        });
        assert!(out.is_none());
        assert_eq!(shown, 41);
    }

    #[test]
    fn crash_run_stats_freeze_at_power_loss() {
        // The headline regression: `on_crash` traffic (the battery drain)
        // must not count toward the run's traffic statistics, but it must
        // be present in the returned (oracle-verified) image.
        let cfg = SimConfig::table_ii(1);
        let mut scheme = ProbeScheme::quiet();
        scheme.crash_bytes = 64;
        let crash_addr = scheme.crash_addr;
        let out = Engine::new(&cfg, &mut scheme).run(
            vec![vec![tx_writing(&[(0, 7)])]],
            Some(Cycles::new(1_000_000)),
        );
        assert!(out.crash.is_some());
        // The run itself issued no PM writes (the tiny store stays
        // cached); the 64-byte on_crash write landed after the freeze.
        assert_eq!(out.stats.pm.accepted_writes, 0);
        assert_eq!(out.stats.pm.accepted_bytes, 0);
        // ...but the image the oracle verified carries it.
        assert_eq!(out.pm.peek(crash_addr, 64), vec![0xAB; 64]);
        assert!(
            out.pm.stats().accepted_writes > out.stats.pm.accepted_writes,
            "returned device counted the post-crash write"
        );
    }

    #[test]
    fn clean_run_traffic_still_includes_final_drain() {
        // Clean runs keep the old behavior: flush_all before stats.
        let cfg = SimConfig::table_ii(1);
        let mut scheme = ProbeScheme::quiet();
        scheme.commit_addr = Some(PhysAddr::new(1 << 18));
        let out = Engine::new(&cfg, &mut scheme).run(vec![vec![tx_writing(&[(0, 7)])]], None);
        assert!(out.crash.is_none());
        assert_eq!(out.stats.pm, out.pm.stats(), "snapshot == device counters");
        assert!(out.stats.pm.accepted_writes > 0);
    }

    #[test]
    fn event_indexed_crash_trips_at_exact_event() {
        let cfg = SimConfig::table_ii(1);
        let streams = || -> Vec<Vec<Transaction>> {
            vec![(0..20).map(|i| tx_writing(&[(i * 64, i + 1)])).collect()]
        };
        let mut clean_scheme = ProbeScheme::quiet();
        clean_scheme.commit_addr = Some(PhysAddr::new(1 << 18));
        let clean = Engine::new(&cfg, &mut clean_scheme).run(streams(), None);
        let total = clean.pm.events().total();
        assert!(total > 20, "stores + commit writes produce events");

        let mut committed_at = Vec::new();
        for n in [1, total / 3, total / 2, total - 1] {
            let mut scheme = ProbeScheme::quiet();
            scheme.commit_addr = Some(PhysAddr::new(1 << 18));
            let out = Engine::new(&cfg, &mut scheme)
                .run_with_plan(streams(), Some(CrashPlan::at_event(n)));
            let crash = out.crash.expect("crash injected");
            assert_eq!(
                crash.events_at_crash.total(),
                n,
                "power fails exactly at event {n}"
            );
            committed_at.push(crash.committed_txs);
        }
        assert!(
            committed_at.windows(2).all(|w| w[0] <= w[1]),
            "later crash points commit at least as much: {committed_at:?}"
        );
    }

    #[test]
    fn event_crash_runs_are_deterministic() {
        let cfg = SimConfig::table_ii(2);
        let streams = || {
            vec![
                vec![tx_writing(&[(0, 1), (64, 2)]), tx_writing(&[(128, 3)])],
                vec![tx_writing(&[(4096, 4)]), tx_writing(&[(8192, 5)])],
            ]
        };
        let run = || {
            let mut s = ProbeScheme::quiet();
            s.commit_addr = Some(PhysAddr::new(1 << 18));
            Engine::new(&cfg, &mut s).run_with_plan(streams(), Some(CrashPlan::at_event(5)))
        };
        let (a, b) = (run(), run());
        let (ca, cb) = (a.crash.unwrap(), b.crash.unwrap());
        assert_eq!(ca.events_at_crash, cb.events_at_crash);
        assert_eq!(ca.committed_txs, cb.committed_txs);
        assert_eq!(a.stats.pm, b.stats.pm);
    }

    #[test]
    fn commit_racing_power_failure_is_ambiguous_not_committed() {
        // Sweep the first few events; with a scheme that bypass-writes at
        // commit, some crash point lands inside `on_tx_end`.
        let cfg = SimConfig::table_ii(1);
        let mut saw_ambiguous = false;
        for n in 1..=8 {
            let mut scheme = ProbeScheme::quiet();
            scheme.commit_addr = Some(PhysAddr::new(1 << 18));
            let out = Engine::new(&cfg, &mut scheme).run_with_plan(
                vec![vec![tx_writing(&[(0, 7)])]],
                Some(CrashPlan::at_event(n)),
            );
            let crash = out.crash.expect("crash injected");
            if crash.ambiguous_txs > 0 {
                saw_ambiguous = true;
                assert_eq!(crash.committed_txs, 0, "ambiguous != committed");
                assert_eq!(crash.inflight_txs, 0, "ambiguous != inflight");
            }
        }
        assert!(saw_ambiguous, "some event index lands inside the commit");
    }

    #[test]
    fn double_crash_reruns_recovery_idempotently() {
        let cfg = SimConfig::table_ii(1);
        let mut scheme = ProbeScheme::quiet();
        scheme.recover_words = vec![
            (PhysAddr::new(1 << 16), Word::new(11)),
            (PhysAddr::new((1 << 16) + 8), Word::new(22)),
            (PhysAddr::new((1 << 16) + 16), Word::new(33)),
        ];
        let plan = CrashPlan::at_cycle(Cycles::new(1_000_000)).with_recovery_crash(1);
        let out = Engine::new(&cfg, &mut scheme)
            .run_with_plan(vec![vec![tx_writing(&[(0, 7)])]], Some(plan));
        let crash = out.crash.expect("crash injected");
        assert!(crash.double_crash, "recovery was re-crashed");
        assert_eq!(scheme.recover_calls, 2, "recovery ran twice");
        // The second, uninterrupted recovery applied all three words.
        assert_eq!(out.pm.peek_word(PhysAddr::new(1 << 16)), Word::new(11));
        assert_eq!(
            out.pm.peek_word(PhysAddr::new((1 << 16) + 16)),
            Word::new(33)
        );
    }

    #[test]
    fn bounded_battery_discards_staged_commits() {
        // A committed transaction whose data sits in the on-PM buffer is
        // lost when the residual-energy budget cannot drain it — the
        // oracle must catch the violation.
        let cfg = SimConfig::table_ii(1);
        let mut scheme = ProbeScheme::quiet();
        scheme.crash_bytes = 256; // staged ahead of nothing else
        let plan =
            CrashPlan::at_cycle(Cycles::new(1_000_000)).with_fault(FaultModel::bounded_battery(0));
        let out = Engine::new(&cfg, &mut scheme)
            .run_with_plan(vec![vec![tx_writing(&[(0, 7)])]], Some(plan));
        let crash = out.crash.expect("crash injected");
        assert!(crash.drain.discarded_lines > 0 || crash.drain.discarded_bytes > 0);
        assert_eq!(
            out.pm.peek(scheme.crash_addr, 8),
            vec![0; 8],
            "zero budget persists nothing from on_crash"
        );
    }

    #[test]
    fn spec_machine_agrees_with_oracle_and_localizes() {
        // NullScheme loses the committed write; with the transition log
        // on, `spec` repeats the oracle's verdict, which names the exact
        // word with its history.
        let cfg = SimConfig::table_ii(1);
        let txs = vec![tx_writing(&[(0, 7), (64, 8)])];
        let mut scheme = NullScheme::default();
        let mut engine = Engine::new(&cfg, &mut scheme);
        engine.enable_spec();
        engine.machine_mut().probe.enable_signature();
        let out = engine.run(vec![txs], Some(Cycles::new(1_000_000)));
        let crash = out.crash.expect("crash requested");
        assert_eq!(crash.spec.as_ref(), Some(&crash.consistency));
        assert!(!crash.consistency.is_consistent());
        let v = crash.consistency.first_offender().expect("violation");
        assert_eq!(v.addr, PhysAddr::new(0), "lowest offending word first");
        assert_eq!(v.legal, vec![Word::new(7)]);
        assert!(v.event > 0, "history carries the durability-event index");
        assert!(!v.history.is_empty());
        let sig = out.signature.expect("signature recorder enabled");
        assert!(sig.count() > 0, "tx/crash events produce coverage bits");
    }

    #[test]
    fn a_cores_next_transaction_does_not_inherit_the_last_ones_writes() {
        // One core commits word 0, then word 8, and is cut at its third
        // transaction's first store (word 16, the run's third event).
        // NullScheme persists nothing, so both committed words are lost,
        // and each one's history names only the transaction that wrote
        // it: a record that inherited the last transaction's writes would
        // re-commit word 0 and roll words 0 and 8 back at the cut.
        let cfg = SimConfig::table_ii(1);
        let txs = vec![
            tx_writing(&[(0, 1)]),
            tx_writing(&[(8, 2)]),
            tx_writing(&[(16, 3), (24, 4)]),
        ];
        let mut scheme = NullScheme::default();
        let mut engine = Engine::new(&cfg, &mut scheme);
        engine.enable_spec();
        let out = engine.run_with_plan(vec![txs], Some(CrashPlan::at_event(3)));
        let crash = out.crash.expect("crash injected");
        assert_eq!((crash.committed_txs, crash.inflight_txs), (2, 1));
        assert_eq!(crash.consistency.words_checked, 3);
        let seen: Vec<(u64, Vec<(WordEventKind, u16)>)> = crash
            .consistency
            .violations
            .iter()
            .map(|v| {
                let history = v.history.iter().map(|e| (e.kind, e.tag.txid().as_u16()));
                (v.addr.as_u64(), history.collect())
            })
            .collect();
        use WordEventKind::{Commit, Store};
        assert_eq!(
            seen,
            vec![
                (0, vec![(Store, 1), (Commit, 1)]),
                (8, vec![(Store, 2), (Commit, 2)]),
            ]
        );
    }

    #[test]
    fn spec_disabled_runs_report_none() {
        let cfg = SimConfig::table_ii(1);
        let txs = vec![tx_writing(&[(0, 7)])];
        let mut scheme = NullScheme::default();
        let out = Engine::new(&cfg, &mut scheme).run(vec![txs], Some(Cycles::new(1_000_000)));
        assert!(out.crash.expect("crash requested").spec.is_none());
        assert!(out.signature.is_none());
    }

    #[test]
    fn capacity_pressure_reaches_pm_through_evictions() {
        // Write far more distinct lines than the tiny-est real hierarchy
        // can hold... Table II L3 is 8 MB, too big to overflow cheaply, so
        // shrink the hierarchy.
        let mut cfg = SimConfig::table_ii(1);
        cfg.hierarchy.l1 = silo_cache::CacheConfig::new(2 * 64, 1);
        cfg.hierarchy.l2 = silo_cache::CacheConfig::new(2 * 64, 1);
        cfg.hierarchy.l3 = silo_cache::CacheConfig::new(4 * 64, 1);
        let txs: Vec<Transaction> = (0..64).map(|i| tx_writing(&[(i * 64, i + 1)])).collect();
        let mut scheme = NullScheme::default();
        let out = Engine::new(&cfg, &mut scheme).run(vec![txs], None);
        assert!(out.stats.cache.pm_writebacks > 0);
        assert!(out.stats.pm.accepted_writes > 0);
    }
}
