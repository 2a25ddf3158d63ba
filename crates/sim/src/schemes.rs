//! The pluggable hardware-logging-scheme interface.
//!
//! Silo (`silo-core`) and the six baselines (`silo-baselines`) implement
//! [`LoggingScheme`]; the [`Engine`](crate::Engine) drives whichever it is
//! handed. The hook set mirrors the hardware events of the paper: a
//! transaction boundary reaching the log generator, a store retiring in
//! L1D, a dirty cacheline leaving the LLC toward the memory controller, a
//! commit, a power failure, and post-crash recovery.

use std::fmt;
use std::ops::Add;

use silo_types::{CoreId, Cycles, LineAddr, PhysAddr, TxTag, Word};

use crate::Machine;

/// What the engine should do with a dirty line evicted from the LLC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictAction {
    /// Write the line's architectural image to PM (the normal path; Silo
    /// additionally set flush-bits before returning this).
    WriteBack,
    /// The scheme absorbed the line into its own persistent structure
    /// (LAD's MC buffer); the engine must not write it to PM.
    Absorb,
}

/// What recovery did, for reporting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Log-region records scanned during recovery.
    pub scanned_records: u64,
    /// Words replayed from redo information (committed transactions).
    pub replayed_words: u64,
    /// Words revoked from undo information (uncommitted transactions).
    pub revoked_words: u64,
    /// Log entries discarded as stale/overflowed duplicates.
    pub discarded_logs: u64,
    /// Committed transactions identified in the log region.
    pub committed_txs: u64,
}

/// Counters every scheme reports; the source of Fig 13 and of the
/// log-traffic breakdowns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchemeStats {
    /// Log entries generated before any reduction (Fig 13 "total").
    pub log_entries_generated: u64,
    /// Entries dropped by log ignorance (`old == new`, §III-C).
    pub log_entries_ignored: u64,
    /// Entries merged into an existing same-address entry (§III-C).
    pub log_entries_merged: u64,
    /// Entries present in on-chip buffers at commit (Fig 13 "remaining"),
    /// accumulated across transactions.
    pub log_entries_remaining: u64,
    /// Log entries written to the PM log region (overflow or baseline
    /// logging).
    pub log_entries_written_to_pm: u64,
    /// Bytes of log data written to the PM log region.
    pub log_bytes_written_to_pm: u64,
    /// Log-buffer overflow events (§III-F).
    pub overflow_events: u64,
    /// Entries whose flush-bit was set by a cacheline eviction (§III-D).
    pub flush_bits_set: u64,
    /// In-place-update words flushed after commit (Silo's log-as-data path).
    pub inplace_update_words: u64,
    /// Transactions processed.
    pub transactions: u64,
}

impl SchemeStats {
    /// Average log entries generated per transaction (Fig 13 x-axis data).
    pub fn avg_generated_per_tx(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.log_entries_generated as f64 / self.transactions as f64
        }
    }

    /// Average entries remaining on chip per transaction (Fig 13).
    pub fn avg_remaining_per_tx(&self) -> f64 {
        if self.transactions == 0 {
            0.0
        } else {
            self.log_entries_remaining as f64 / self.transactions as f64
        }
    }

    /// Fraction of generated entries removed by ignorance + merging.
    pub fn reduction_ratio(&self) -> f64 {
        if self.log_entries_generated == 0 {
            0.0
        } else {
            (self.log_entries_ignored + self.log_entries_merged) as f64
                / self.log_entries_generated as f64
        }
    }
}

impl Add for SchemeStats {
    type Output = SchemeStats;

    fn add(self, r: SchemeStats) -> SchemeStats {
        SchemeStats {
            log_entries_generated: self.log_entries_generated + r.log_entries_generated,
            log_entries_ignored: self.log_entries_ignored + r.log_entries_ignored,
            log_entries_merged: self.log_entries_merged + r.log_entries_merged,
            log_entries_remaining: self.log_entries_remaining + r.log_entries_remaining,
            log_entries_written_to_pm: self.log_entries_written_to_pm + r.log_entries_written_to_pm,
            log_bytes_written_to_pm: self.log_bytes_written_to_pm + r.log_bytes_written_to_pm,
            overflow_events: self.overflow_events + r.overflow_events,
            flush_bits_set: self.flush_bits_set + r.flush_bits_set,
            inplace_update_words: self.inplace_update_words + r.inplace_update_words,
            transactions: self.transactions + r.transactions,
        }
    }
}

impl std::ops::Sub for SchemeStats {
    type Output = SchemeStats;

    /// Saturating per-field difference: delta pairs are only approximately
    /// nested (the shorter run's tail and end-of-run drain are its own),
    /// so each counter saturates at zero rather than panicking on
    /// underflow.
    fn sub(self, r: SchemeStats) -> SchemeStats {
        SchemeStats {
            log_entries_generated: self
                .log_entries_generated
                .saturating_sub(r.log_entries_generated),
            log_entries_ignored: self
                .log_entries_ignored
                .saturating_sub(r.log_entries_ignored),
            log_entries_merged: self.log_entries_merged.saturating_sub(r.log_entries_merged),
            log_entries_remaining: self
                .log_entries_remaining
                .saturating_sub(r.log_entries_remaining),
            log_entries_written_to_pm: self
                .log_entries_written_to_pm
                .saturating_sub(r.log_entries_written_to_pm),
            log_bytes_written_to_pm: self
                .log_bytes_written_to_pm
                .saturating_sub(r.log_bytes_written_to_pm),
            overflow_events: self.overflow_events.saturating_sub(r.overflow_events),
            flush_bits_set: self.flush_bits_set.saturating_sub(r.flush_bits_set),
            inplace_update_words: self
                .inplace_update_words
                .saturating_sub(r.inplace_update_words),
            transactions: self.transactions.saturating_sub(r.transactions),
        }
    }
}

impl fmt::Display for SchemeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} txs: {} logs generated ({} ignored, {} merged, {} remaining), \
             {} written to PM ({} B), {} overflows, {} flush-bits, {} IPU words",
            self.transactions,
            self.log_entries_generated,
            self.log_entries_ignored,
            self.log_entries_merged,
            self.log_entries_remaining,
            self.log_entries_written_to_pm,
            self.log_bytes_written_to_pm,
            self.overflow_events,
            self.flush_bits_set,
            self.inplace_update_words,
        )
    }
}

/// Opaque captured private state of one logging scheme, for shared-prefix
/// resimulation. `Machine` holds the scheme as `dyn LoggingScheme`, so the
/// snapshot must be object-safe: each scheme boxes its own concrete clone
/// behind this trait and downcasts on restore.
pub trait SchemeState: std::any::Any + Send + Sync {
    /// The boxed state as `Any`, for the scheme's downcast on restore.
    fn as_any(&self) -> &dyn std::any::Any;
}

impl<T: std::any::Any + Send + Sync> SchemeState for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Implements [`LoggingScheme::snapshot_state`] /
/// [`LoggingScheme::restore_state`] for a `Clone` scheme by boxing a full
/// clone of `Self`. Paste inside the scheme's `impl LoggingScheme` block.
#[macro_export]
macro_rules! impl_scheme_snapshot {
    () => {
        fn snapshot_state(&self) -> Box<dyn $crate::SchemeState> {
            Box::new(self.clone())
        }

        fn restore_state(&mut self, state: &dyn $crate::SchemeState) {
            let state = state
                .as_any()
                .downcast_ref::<Self>()
                .unwrap_or_else(|| panic!("{} restored from a foreign scheme state", self.name()));
            self.clone_from(state);
        }
    };
}

/// A hardware logging scheme plugged into the engine.
///
/// Timing contract: every hook receives the core-local clock `now` and
/// returns the clock after any stall the scheme puts on the critical path
/// (always `>= now`). Background work (log shipping, lazy data flushes)
/// should be charged to the memory controller, not to the returned clock.
///
/// Persistence contract: state a scheme keeps in battery-backed / ADR
/// structures survives [`LoggingScheme::on_crash`]; everything else must be
/// treated as lost. `on_crash` performs the battery-powered flush (§III-G);
/// [`LoggingScheme::recover`] then rebuilds a consistent PM data region.
pub trait LoggingScheme {
    /// Short scheme name ("Silo", "Base", ...), used in reports.
    fn name(&self) -> &'static str;

    /// Whether this scheme's PM writes use the on-PM coalescing buffer
    /// (§III-E — part of the Silo design; the baselines return `false`).
    fn coalesces_pm_writes(&self) -> bool {
        false
    }

    /// `Tx_begin` reached the log generator.
    fn on_tx_begin(&mut self, m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles;

    /// A transactional store retired in L1D with old value `old` and new
    /// value `new`. Returns the clock after any store-side stall.
    fn on_store(
        &mut self,
        m: &mut Machine,
        core: CoreId,
        addr: PhysAddr,
        old: Word,
        new: Word,
        now: Cycles,
    ) -> Cycles;

    /// A dirty cacheline is leaving the LLC toward the memory controller.
    fn on_evict(
        &mut self,
        m: &mut Machine,
        core: CoreId,
        line: LineAddr,
        now: Cycles,
    ) -> (EvictAction, Cycles);

    /// `Tx_end`: the transaction commits. Returns the clock after the
    /// commit-visible stall (the ordering constraints of Fig 3 live here).
    fn on_tx_end(&mut self, m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles;

    /// Periodic hook driven by the engine's global clock (FWB's force
    /// write-back and Silo's lazy in-place-update drain use this).
    /// Default: nothing.
    fn on_tick(&mut self, _m: &mut Machine, _now: Cycles) {}

    /// Called once when a run finishes *without* a crash, so schemes with
    /// lazy background work (Silo's post-commit data-region updates) can
    /// complete it before statistics are read. Default: nothing.
    fn on_run_end(&mut self, _m: &mut Machine, _now: Cycles) {}

    /// Power failure: flush battery-backed state to PM (timing-free — the
    /// battery is sized for exactly this, Table IV).
    fn on_crash(&mut self, m: &mut Machine);

    /// Post-crash recovery: rebuild a consistent data region from the PM
    /// log region and any surviving persistent structures.
    fn recover(&mut self, m: &mut Machine) -> RecoveryReport;

    /// Counter snapshot.
    fn stats(&self) -> SchemeStats;

    /// Captures the scheme's complete private state for checkpointing. A
    /// `Clone` scheme implements this and [`LoggingScheme::restore_state`]
    /// with [`impl_scheme_snapshot!`].
    fn snapshot_state(&self) -> Box<dyn SchemeState>;

    /// Restores private state captured by [`LoggingScheme::snapshot_state`]
    /// on the same scheme type.
    fn restore_state(&mut self, state: &dyn SchemeState);
}

/// A no-op scheme: no logging, no ordering, no recovery. Useful as the
/// "raw machine" reference in tests and as an upper bound on throughput.
///
/// It provides **no** atomic durability — its `recover` does nothing — so
/// it only appears in infrastructure tests, never in the paper figures.
#[derive(Debug, Default, Clone)]
pub struct NullScheme {
    stats: SchemeStats,
}

impl LoggingScheme for NullScheme {
    fn name(&self) -> &'static str {
        "Null"
    }

    fn on_tx_begin(&mut self, _m: &mut Machine, _core: CoreId, _tag: TxTag, now: Cycles) -> Cycles {
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
        _line: LineAddr,
        now: Cycles,
    ) -> (EvictAction, Cycles) {
        (EvictAction::WriteBack, now)
    }

    fn on_tx_end(&mut self, _m: &mut Machine, _core: CoreId, _tag: TxTag, now: Cycles) -> Cycles {
        self.stats.transactions += 1;
        now
    }

    fn on_crash(&mut self, _m: &mut Machine) {}

    fn recover(&mut self, _m: &mut Machine) -> RecoveryReport {
        RecoveryReport::default()
    }

    fn stats(&self) -> SchemeStats {
        self.stats
    }

    crate::impl_scheme_snapshot!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_stats_averages() {
        let s = SchemeStats {
            log_entries_generated: 100,
            log_entries_ignored: 30,
            log_entries_merged: 20,
            log_entries_remaining: 50,
            transactions: 10,
            ..SchemeStats::default()
        };
        assert!((s.avg_generated_per_tx() - 10.0).abs() < 1e-9);
        assert!((s.avg_remaining_per_tx() - 5.0).abs() < 1e-9);
        assert!((s.reduction_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_avoid_division_by_zero() {
        let s = SchemeStats::default();
        assert_eq!(s.avg_generated_per_tx(), 0.0);
        assert_eq!(s.avg_remaining_per_tx(), 0.0);
        assert_eq!(s.reduction_ratio(), 0.0);
    }

    #[test]
    fn stats_add_fieldwise() {
        let a = SchemeStats {
            log_entries_generated: 3,
            transactions: 1,
            ..SchemeStats::default()
        };
        let b = SchemeStats {
            log_entries_generated: 4,
            overflow_events: 2,
            transactions: 2,
            ..SchemeStats::default()
        };
        let c = a + b;
        assert_eq!(c.log_entries_generated, 7);
        assert_eq!(c.overflow_events, 2);
        assert_eq!(c.transactions, 3);
    }

    #[test]
    fn null_scheme_is_transparent() {
        let mut m = Machine::new(&crate::SimConfig::table_ii(1));
        let mut s = NullScheme::default();
        let t0 = Cycles::new(10);
        assert_eq!(
            s.on_tx_begin(&mut m, CoreId::new(0), TxTag::default(), t0),
            t0
        );
        assert_eq!(
            s.on_store(
                &mut m,
                CoreId::new(0),
                PhysAddr::new(0),
                Word::ZERO,
                Word::new(1),
                t0
            ),
            t0
        );
        let (act, t) = s.on_evict(&mut m, CoreId::new(0), LineAddr::default(), t0);
        assert_eq!(act, EvictAction::WriteBack);
        assert_eq!(t, t0);
        assert_eq!(
            s.on_tx_end(&mut m, CoreId::new(0), TxTag::default(), t0),
            t0
        );
        assert_eq!(s.stats().transactions, 1);
        assert!(!s.coalesces_pm_writes());
        assert_eq!(s.name(), "Null");
    }

    #[test]
    fn display_is_nonempty() {
        assert!(format!("{}", SchemeStats::default()).contains("txs"));
    }
}
