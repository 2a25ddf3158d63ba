//! The deterministic multicore execution engine.

use std::sync::Arc;

use silo_pm::{DrainReport, EventCounters, EventKind, FaultModel};
use silo_probe::{CycleCategory, ProbeEventKind, Signature};
use silo_types::{CoreId, Cycles, FxHashMap, PhysAddr, TxId, TxTag, Word};

use crate::schemes::{EvictAction, SchemeState};
use crate::spec::{SpecMachine, SpecReport};
use crate::stats::LatencyStats;
use crate::trace::ArrivalSchedule;
use crate::{
    ConsistencyReport, LoggingScheme, Machine, MachineState, Op, RecoveryReport, SimConfig,
    SimStats, Transaction, TxOracle, TxRecord, TxStreams,
};
use silo_types::Snapshot;

/// When a [`CrashPlan`] cuts power.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    /// The executable spec's per-word verdict on the recovered image;
    /// `None` unless [`Engine::enable_spec`] was called before the run.
    pub spec: Option<SpecReport>,
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

/// Captured execution state of one core: everything in `CoreRun` except the
/// shared (immutable) transaction stream, which the resuming caller supplies.
#[derive(Clone, Debug)]
struct CoreState {
    time: Cycles,
    tx_idx: usize,
    op_idx: usize,
    phase: Phase,
    txid: TxId,
    tag: TxTag,
    cur_writes: FxHashMap<u64, Word>,
    committed: u64,
    sojourns: Vec<u64>,
}

/// A full-machine checkpoint taken at an engine loop boundary of a clean
/// (crash-free) run. Positions on both crash axes are recorded so one
/// checkpoint set serves cycle-triggered *and* event-triggered crash plans.
pub struct EngineCheckpoint {
    /// Smallest unfinished core clock at capture. Valid as a resume base
    /// for [`CrashTrigger::Cycle(c)`] iff `cycle_pos < c` — the engine's
    /// minimum clock is non-decreasing and the crash check runs at the
    /// loop top, so no earlier iteration of the crashing run can have
    /// tripped.
    cycle_pos: Cycles,
    /// Total durability events counted at capture. Valid as a resume base
    /// for [`CrashTrigger::Event(n)`] iff `event_pos < n`.
    event_pos: u64,
    machine: MachineState,
    cores: Vec<CoreState>,
    oracle: TxOracle,
    scheme: Box<dyn SchemeState>,
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

    /// The latest checkpoint strictly before `trigger` on the trigger's
    /// own axis, or `None` (resimulate from t=0).
    pub fn nearest(&self, trigger: CrashTrigger) -> Option<&EngineCheckpoint> {
        match trigger {
            CrashTrigger::Cycle(c) => self
                .cps
                .iter()
                .filter(|cp| cp.cycle_pos < c)
                .max_by_key(|cp| (cp.cycle_pos, cp.event_pos)),
            CrashTrigger::Event(n) => self
                .cps
                .iter()
                .filter(|cp| cp.event_pos < n)
                .max_by_key(|cp| cp.event_pos),
        }
    }
}

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
    // Reused across transactions (cleared at tx_begin, never dropped), so
    // the steady-state hot loop allocates nothing per transaction.
    cur_writes: FxHashMap<u64, Word>,
    committed: u64,
    // Open-system admission: a transaction may not begin before
    // `arrivals.arrivals[tx_idx]`; `None` runs the classic closed loop.
    arrivals: Option<ArrivalSchedule>,
    // Per-commit sojourn (arrival → commit) times for measured
    // transactions, in commit order. Empty on closed-loop runs.
    sojourns: Vec<u64>,
}

impl CoreRun {
    fn record(&self, committed: bool) -> TxRecord {
        let mut writes: Vec<(PhysAddr, Word)> = self
            .cur_writes
            .iter()
            .map(|(&a, &w)| (PhysAddr::new(a), w))
            .collect();
        writes.sort_by_key(|(a, _)| a.as_u64());
        TxRecord {
            tag: self.tag,
            writes,
            committed,
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
    machine: Machine,
    scheme: &'a mut dyn LoggingScheme,
    oracle: TxOracle,
    spec: Option<SpecMachine>,
}

impl<'a> Engine<'a> {
    /// Builds an engine over a fresh machine.
    pub fn new(config: &SimConfig, scheme: &'a mut dyn LoggingScheme) -> Self {
        Engine {
            machine: Machine::new(config),
            scheme,
            oracle: TxOracle::default(),
            spec: None,
        }
    }

    /// Gives the scheme and tests access to the machine before a run (e.g.
    /// to pre-populate PM state).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Attaches the executable crash-consistency spec
    /// ([`SpecMachine`]): every durability event feeds the per-word
    /// legal-value model, and a crash outcome carries the spec's
    /// localized verdict alongside the oracle's. Off by default; not
    /// supported on checkpoint-resumed runs (the checkpoint does not
    /// carry spec state).
    pub fn enable_spec(&mut self) {
        self.spec = Some(SpecMachine::new());
    }

    /// Runs `streams[i]` on core `i`. With `crash_at = Some(c)`, power
    /// fails at cycle `c` with a perfect ADR drain — shorthand for
    /// [`run_with_plan`](Self::run_with_plan) with
    /// [`CrashPlan::at_cycle`].
    ///
    /// Accepts anything convertible to [`TxStreams`]: an owned
    /// `Vec<Vec<Transaction>>`, a [`crate::TraceSet`] (by value or
    /// reference — pointer bumps, no op copies), or pre-shared
    /// `Vec<Arc<[Transaction]>>`.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count.
    pub fn run(self, streams: impl Into<TxStreams>, crash_at: Option<Cycles>) -> RunOutcome {
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
        streams: impl Into<TxStreams>,
        plan: Option<CrashPlan>,
    ) -> RunOutcome {
        self.run_inner(streams.into(), plan, None, None).0
    }

    /// Runs a clean (crash-free) reference run while capturing periodic
    /// full-machine checkpoints per `policy`. The returned set feeds
    /// [`Engine::run_resumed`]; it is empty if the scheme does not support
    /// state snapshotting ([`LoggingScheme::snapshot_state`] returns
    /// `None`).
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count.
    pub fn run_recording(
        self,
        streams: impl Into<TxStreams>,
        policy: CheckpointPolicy,
    ) -> (RunOutcome, CheckpointSet) {
        self.run_inner(streams.into(), None, Some(policy), None)
    }

    /// Runs a crash plan starting from `checkpoint` instead of t=0. The
    /// streams must be the same ones the recording run executed, and the
    /// checkpoint must satisfy the trigger-axis validity rule
    /// ([`CheckpointSet::nearest`] guarantees it); the outcome is then
    /// byte-identical to running the plan from scratch.
    ///
    /// # Panics
    ///
    /// Panics if the stream count differs from the configured core count
    /// or from the checkpoint's core count, or if the checkpoint lies at
    /// or past the plan's trigger.
    pub fn run_resumed(
        self,
        streams: impl Into<TxStreams>,
        plan: CrashPlan,
        checkpoint: &EngineCheckpoint,
    ) -> RunOutcome {
        match plan.trigger {
            CrashTrigger::Cycle(c) => assert!(
                checkpoint.cycle_pos < c,
                "checkpoint at cycle {} is not before the crash cycle {}",
                checkpoint.cycle_pos.as_u64(),
                c.as_u64()
            ),
            CrashTrigger::Event(n) => assert!(
                checkpoint.event_pos < n,
                "checkpoint at event {} is not before the crash event {n}",
                checkpoint.event_pos
            ),
        }
        self.run_inner(streams.into(), Some(plan), None, Some(checkpoint))
            .0
    }

    fn run_inner(
        mut self,
        streams: TxStreams,
        plan: Option<CrashPlan>,
        policy: Option<CheckpointPolicy>,
        resume: Option<&EngineCheckpoint>,
    ) -> (RunOutcome, CheckpointSet) {
        assert_eq!(
            streams.len(),
            self.machine.config.cores,
            "one transaction stream per core required"
        );
        let mut scheds: Vec<Option<ArrivalSchedule>> = match streams.arrivals {
            Some(a) => {
                assert_eq!(
                    a.len(),
                    streams.streams.len(),
                    "one arrival schedule per stream required"
                );
                a.into_iter().map(Some).collect()
            }
            None => vec![None; streams.streams.len()],
        };
        let mut cores: Vec<CoreRun> = streams
            .streams
            .into_iter()
            .enumerate()
            .map(|(i, txs)| {
                let arrivals = scheds[i].take();
                if let Some(sched) = &arrivals {
                    assert_eq!(
                        sched.arrivals.len(),
                        txs.len(),
                        "core {i} arrival schedule length must match its stream"
                    );
                }
                CoreRun {
                    id: CoreId::new(i),
                    time: Cycles::ZERO,
                    txs,
                    tx_idx: 0,
                    op_idx: 0,
                    phase: Phase::BetweenTxs,
                    txid: TxId::new(0),
                    tag: TxTag::default(),
                    cur_writes: FxHashMap::default(),
                    committed: 0,
                    arrivals,
                    sojourns: Vec::new(),
                }
            })
            .collect();

        if let Some(cp) = resume {
            assert!(
                self.spec.is_none(),
                "the spec machine requires a from-scratch run (checkpoints do not carry spec state)"
            );
            assert_eq!(
                cp.cores.len(),
                cores.len(),
                "checkpoint core count must match the streams"
            );
            self.machine.restore(&cp.machine);
            for (core, s) in cores.iter_mut().zip(&cp.cores) {
                core.time = s.time;
                core.tx_idx = s.tx_idx;
                core.op_idx = s.op_idx;
                core.phase = s.phase;
                core.txid = s.txid;
                core.tag = s.tag;
                core.cur_writes.clone_from(&s.cur_writes);
                core.committed = s.committed;
                core.sojourns.clone_from(&s.sojourns);
            }
            self.oracle = cp.oracle.clone();
            self.scheme.restore_state(&*cp.scheme);
        }

        // Arming happens *after* a restore: the clean recording run counts
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

        // Checkpoints record only on clean runs with snapshot-capable
        // schemes; capturing mid-crash-plan states would be useless (the
        // suffix differs per plan) and is not requested by any caller.
        let mut recording = policy.filter(|_| plan.is_none());
        if recording.is_some() && self.scheme.snapshot_state().is_none() {
            recording = None;
        }
        let mut set = CheckpointSet::default();
        let (mut next_event_due, mut next_cycle_due) = recording
            .map(|p| (p.every_events, p.every_cycles))
            .unwrap_or((u64::MAX, u64::MAX));

        // Pick the unfinished core with the smallest clock, ties broken by
        // core id — the keys `(time, i)` are unique, so the minimum is
        // unambiguous. A full scan is O(cores) per step; since `step` only
        // advances the stepped core's clock, cache the winner alongside the
        // runner-up's key and rescan only when the stepped core finishes or
        // its clock passes the runner-up. The sentinel key compares above
        // every real key, so a lone core never rescans.
        const NO_KEY: (Cycles, usize) = (Cycles::new(u64::MAX), usize::MAX);
        let mut cached: Option<(usize, (Cycles, usize))> = None;
        loop {
            let ci = match cached {
                Some((i, runner_up))
                    if cores[i].phase != Phase::Done && (cores[i].time, i) < runner_up =>
                {
                    i
                }
                _ => {
                    let mut best: Option<(Cycles, usize)> = None;
                    let mut runner_up = NO_KEY;
                    for (i, c) in cores.iter().enumerate() {
                        if c.phase == Phase::Done {
                            continue;
                        }
                        let key = (c.time, i);
                        match best {
                            None => best = Some(key),
                            Some(b) if key < b => {
                                runner_up = b;
                                best = Some(key);
                            }
                            Some(_) if key < runner_up => runner_up = key,
                            Some(_) => {}
                        }
                    }
                    let Some((_, i)) = best else { break };
                    cached = Some((i, runner_up));
                    i
                }
            };
            if let Some(pol) = &mut recording {
                // The winner's clock is the minimum unfinished clock, so
                // this loop boundary *is* a position on the cycle axis.
                let min_time = cores[ci].time;
                let events_total = self.machine.pm.events().total();
                if events_total >= next_event_due || min_time.as_u64() >= next_cycle_due {
                    let scheme = self
                        .scheme
                        .snapshot_state()
                        .expect("snapshot capability checked before the loop");
                    set.cps.push(EngineCheckpoint {
                        cycle_pos: min_time,
                        event_pos: events_total,
                        machine: self.machine.snapshot(),
                        cores: cores
                            .iter()
                            .map(|c| CoreState {
                                time: c.time,
                                tx_idx: c.tx_idx,
                                op_idx: c.op_idx,
                                phase: c.phase,
                                txid: c.txid,
                                tag: c.tag,
                                cur_writes: c.cur_writes.clone(),
                                committed: c.committed,
                                sojourns: c.sojourns.clone(),
                            })
                            .collect(),
                        oracle: self.oracle.clone(),
                        scheme,
                    });
                    if set.cps.len() >= pol.max {
                        // Thin to every other checkpoint and slow both
                        // cadences, keeping the set bounded on long runs.
                        let mut keep = false;
                        set.cps.retain(|_| {
                            keep = !keep;
                            keep
                        });
                        pol.every_events = pol.every_events.saturating_mul(2);
                        pol.every_cycles = pol.every_cycles.saturating_mul(2);
                    }
                    next_event_due = events_total.saturating_add(pol.every_events);
                    next_cycle_due = min_time.as_u64().saturating_add(pol.every_cycles);
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
                let (pm, probe) = (&mut self.machine.pm, &mut self.machine.probe);
                pm.flush_all_probed(probe, sim_cycles.as_u64());
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
        (outcome, set)
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
                        self.oracle.observe_ambiguous(core.record(false));
                        if let Some(spec) = &mut self.spec {
                            let event = self.machine.pm.events().total();
                            spec.on_ambiguous(core.id.as_usize(), core.tag, event);
                        }
                        core.phase = Phase::Done;
                        return;
                    }
                    self.oracle.observe(core.record(true));
                    if let Some(spec) = &mut self.spec {
                        let event = self.machine.pm.events().total();
                        spec.on_commit(core.id.as_usize(), core.tag, event);
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
                let old = self.machine.shadow.load(addr, &self.machine.pm);
                self.machine.shadow.store(addr, new);
                core.cur_writes.insert(addr.word_aligned().as_u64(), new);
                if let Some(spec) = &mut self.spec {
                    let event = self.machine.pm.events().total();
                    spec.on_store(core.id.as_usize(), core.tag, addr, new, event);
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
                self.oracle.observe(core.record(false));
                if let Some(spec) = &mut self.spec {
                    spec.on_crash_inflight(core.id.as_usize(), core.tag, event_at_cut);
                }
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
        let spec = self.spec.as_ref().map(|s| s.verify(&self.machine.pm));
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
        let trace = crate::TraceSet::new("t", 1, 2, 0, vec![txs])
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
            crate::TraceSet::new("t", 2, 5, 0, streams).with_arrivals(
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
        // NullScheme loses the committed write; both the digest oracle and
        // the spec must flag it, and the spec names the exact word with
        // its history.
        let cfg = SimConfig::table_ii(1);
        let txs = vec![tx_writing(&[(0, 7), (64, 8)])];
        let mut scheme = NullScheme::default();
        let mut engine = Engine::new(&cfg, &mut scheme);
        engine.enable_spec();
        engine.machine_mut().probe.enable_signature();
        let out = engine.run(vec![txs], Some(Cycles::new(1_000_000)));
        let crash = out.crash.expect("crash requested");
        let spec = crash.spec.expect("spec enabled");
        assert_eq!(
            spec.is_consistent(),
            crash.consistency.is_consistent(),
            "spec and oracle must agree"
        );
        assert!(!spec.is_consistent());
        let v = spec.first_offender().expect("violation");
        assert_eq!(v.addr, PhysAddr::new(0), "lowest offending word first");
        assert_eq!(v.legal, vec![Word::new(7)]);
        assert!(v.event > 0, "history carries the durability-event index");
        assert!(!v.history.is_empty());
        let sig = out.signature.expect("signature recorder enabled");
        assert!(sig.count() > 0, "tx/crash events produce coverage bits");
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
