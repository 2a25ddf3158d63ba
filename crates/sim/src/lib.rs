//! Discrete-event multicore simulator for persistent-memory logging
//! schemes.
//!
//! This crate is the gem5 stand-in of the reproduction: it executes
//! per-core transactional operation streams ([`Transaction`]) over the
//! Table II machine ([`Machine`]: cache hierarchy + memory controller + PM
//! device + architectural shadow memory) under a pluggable hardware
//! logging scheme (the [`LoggingScheme`] trait, implemented by `silo-core`
//! for Silo itself and by `silo-baselines` for Base / FWB / MorLog / LAD).
//!
//! # Execution model
//!
//! Each core owns a local clock and executes its transactions op by op;
//! the [`Engine`] always advances the core with the smallest local time,
//! so cross-core contention on the shared memory controller is simulated
//! deterministically. Stores walk the cache hierarchy (write-allocate,
//! write-back); dirty lines evicted from L3 are routed to the scheme
//! (Silo's flush-bit hook, §III-D) and then to the memory controller.
//! Persistence follows ADR semantics: a write is durable once admitted to
//! the write pending queue.
//!
//! # Crash model
//!
//! [`Engine::run_with_plan`] injects a power failure per a [`CrashPlan`]:
//! either at a sampled cycle (cores halt at the preceding op boundary) or
//! at the N-th **durability event** — store, log-buffer drain, WPQ
//! admission, media line program — which enumerates the crash surface
//! densely instead of sampling it. At the cut, volatile state (caches,
//! architectural shadow) is discarded and the scheme's battery-backed
//! `on_crash` flush runs under the plan's [`FaultModel`]: the residual
//! energy budget bounds how many bytes the ADR drain persists, and an
//! in-flight line program may tear. `recover` then rebuilds the data
//! region — optionally re-crashed after N recovery writes (the
//! double-crash scenario, which recovery must survive idempotently). A
//! [`TxOracle`] built during execution checks the recovered PM image for
//! **atomic durability**: every committed transaction fully applied,
//! every uncommitted transaction fully absent, and a commit that raced
//! the power cut applied all-or-nothing. It is the one crash verdict:
//! each [`Violation`] names the word, its legal values and the rule it
//! broke, and with the oracle's transition log on
//! ([`Engine::enable_spec`]) the word's recent history too. On crash runs
//! the traffic counters freeze at the instant of power loss and
//! [`RunOutcome::pm`] is snapshotted immediately after the oracle's
//! verdict.
//!
//! # Shared prefixes
//!
//! Runs that share a prefix share its simulation. A crash sweep walks its
//! clean run once ([`Engine::walk`]), stopping at the last loop step
//! before each crash point that its [`StepLog`] names, and resumes the
//! point from the [`EngineCheckpoint`] lent there
//! ([`Engine::run_resumed`]); a steady-state delta continues its longer
//! clean run from the shorter run's [`ForkPoint`]
//! ([`Engine::run_continued`]). Both are byte-identical to running from
//! t=0. A checkpoint is a set of clones taken at a loop boundary: the
//! machine's components ([`Machine::snapshot`], the cache levels as
//! sparse copies), the cores, the oracle and the scheme. The step log,
//! the walk, the fork and the cadence recording
//! ([`Engine::run_recording`]) are each one visitor of the engine's loop
//! boundaries. Only runs that can crash, and checkpointing runs whose
//! checkpoints seed them, feed the oracle. A caller that runs many
//! engines can also share machines between them: [`Engine::on`] runs on a
//! machine the caller owns, [`Machine::reset`] to the state a new one
//! has, so its cache slabs are allocated once.
//!
//! # Examples
//!
//! ```
//! use silo_sim::{Engine, SimConfig, Transaction, schemes::NullScheme};
//! use silo_types::{PhysAddr, Word};
//!
//! let config = SimConfig::table_ii(1);
//! let tx = Transaction::builder()
//!     .write(PhysAddr::new(0), Word::new(1))
//!     .write(PhysAddr::new(8), Word::new(2))
//!     .build();
//! let mut scheme = NullScheme::default();
//! let outcome = Engine::new(&config, &mut scheme).run(vec![vec![tx]], None);
//! assert_eq!(outcome.stats.txs_committed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod machine;
mod ops;
mod oracle;
mod report;
pub mod schemes;
mod spec;
mod stats;
mod trace;

pub use config::SimConfig;
pub use engine::{
    CheckpointPolicy, CheckpointSet, CrashOutcome, CrashPlan, CrashTrigger, Engine,
    EngineCheckpoint, ForkPoint, RunOutcome, StepLog,
};
pub use machine::{Machine, MachineState, ShadowMem};
pub use ops::{Op, Transaction, TransactionBuilder};
pub use oracle::{ConsistencyReport, TxOracle, TxRecord, Violation, VIOLATION_KINDS};
pub use schemes::{EvictAction, LoggingScheme, RecoveryReport, SchemeState, SchemeStats};
pub use spec::{WordEvent, WordEventKind};
pub use stats::{CoreStats, LatencyStats, SimStats};
pub use trace::{ArrivalSchedule, TraceSet};

// Re-exported so scheme crates and tests can build [`CrashPlan`]s without
// depending on `silo-pm` directly.
pub use silo_pm::{DrainReport, EventCounters, EventKind, FaultModel};

// Re-exported so callers can enable/consume the observability layer (the
// [`Machine::probe`] hub) without depending on `silo-probe` directly.
pub use silo_probe::{
    CycleBreakdown, CycleCategory, ProbeEvent, ProbeEventKind, ProbeHub, SchemePhase, Signature,
    SignatureRecorder, DEFAULT_TIMELINE_CAPACITY, TIMELINE_SCHEMA_VERSION,
};
