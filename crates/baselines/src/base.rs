//! Base: per-store log + cacheline flush (paper §VI-A).

use silo_core::LogEntry;
use silo_sim::{EvictAction, LoggingScheme, Machine, RecoveryReport, SchemeStats, SimConfig};
use silo_types::{CoreId, Cycles, LineAddr, PhysAddr, TxTag, Word};

use crate::common::{recover_areas, write_line, write_records, CoreCursor};

/// The hardware logging baseline: for **every** store it writes an
/// undo+redo log entry to the log region and flushes the updated cacheline
/// to the data region; commit waits for all of the transaction's persists
/// plus a commit record.
///
/// This is the `Base` configuration of the paper's evaluation — the
/// highest write traffic and the reference every figure normalizes to.
#[derive(Clone, Debug)]
pub struct BaseScheme {
    cores: Vec<CoreCursor>,
    stats: SchemeStats,
}

impl BaseScheme {
    /// Builds the baseline for `config`'s machine.
    pub fn new(config: &SimConfig) -> Self {
        BaseScheme {
            cores: (0..config.cores)
                .map(|i| CoreCursor::new(config, i))
                .collect(),
            stats: SchemeStats::default(),
        }
    }
}

impl LoggingScheme for BaseScheme {
    fn name(&self) -> &'static str {
        "Base"
    }

    fn on_tx_begin(&mut self, _m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles {
        let c = &mut self.cores[core.as_usize()];
        c.current_tag = Some(tag);
        c.persist_barrier = now;
        now
    }

    fn on_store(
        &mut self,
        m: &mut Machine,
        core: CoreId,
        addr: PhysAddr,
        old: Word,
        new: Word,
        now: Cycles,
    ) -> Cycles {
        let ci = core.as_usize();
        let Some(tag) = self.cores[ci].current_tag else {
            return now;
        };
        self.stats.log_entries_generated += 1;
        // Undo+redo log entry, persisted before the data flush (the FIFO
        // WPQ preserves the order).
        let entry = LogEntry::new(tag, addr.word_aligned(), old, new);
        let records = [entry.undo_record(), entry.redo_record()];
        let t_log = write_records(m, &mut self.cores[ci], &records, now);
        self.stats.log_entries_written_to_pm += 2;
        self.stats.log_bytes_written_to_pm += (2 * silo_core::RECORD_BYTES) as u64;
        // The corresponding updated cacheline is flushed for each write.
        let line = addr.line();
        m.caches.flush_line(core, line);
        let t_data = write_line(m, &mut self.cores[ci], line, t_log);
        // Flushes run in hardware background; the store only stalls when
        // the WPQ is full (admission back-pressure reaches the store
        // buffer). Commit pays the rest via the barrier.
        now.max(t_log).max(t_data)
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

    fn on_tx_end(&mut self, m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles {
        let ci = core.as_usize();
        self.stats.transactions += 1;
        // Commit record persists after everything else...
        let commit_admit = write_records(
            m,
            &mut self.cores[ci],
            &[silo_core::Record::id_tuple(tag)],
            now,
        );
        self.stats.log_entries_written_to_pm += 1;
        self.stats.log_bytes_written_to_pm += silo_core::RECORD_BYTES as u64;
        // ...and commit waits for every persist of the transaction.
        let done = self.cores[ci].barrier_wait(now).max(commit_admit);
        if m.pm.power_tripped() {
            // Power failed inside the commit sequence: the core died
            // before the truncation, so the crash header still bounds
            // the records recovery needs.
            return done;
        }
        // Data is durably in PM: the logs are truncated (register reset).
        self.cores[ci].area.truncate();
        self.cores[ci].current_tag = None;
        done
    }

    fn on_crash(&mut self, m: &mut Machine) {
        for c in &mut self.cores {
            c.crash(m);
        }
    }

    fn recover(&mut self, m: &mut Machine) -> RecoveryReport {
        recover_areas(m, &mut self.cores)
    }

    fn stats(&self) -> SchemeStats {
        self.stats
    }

    silo_sim::impl_scheme_snapshot!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_sim::{Engine, Transaction};

    fn tx(writes: &[(u64, u64)]) -> Transaction {
        let mut b = Transaction::builder();
        for &(a, v) in writes {
            b = b.write(PhysAddr::new(a), Word::new(v));
        }
        b.build()
    }

    #[test]
    fn every_store_writes_log_and_line() {
        let cfg = SimConfig::table_ii(1);
        let mut base = BaseScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut base).run(vec![vec![tx(&[(0, 1), (8, 2)])]], None);
        let s = out.stats;
        // 2 log-record writes + 2 line flushes + 1 commit record.
        assert_eq!(s.pm.log_region_writes, 3);
        assert_eq!(s.pm.data_region_writes, 2);
        assert_eq!(s.scheme_stats.log_entries_written_to_pm, 5);
        assert!(s.media_writes() >= 4, "no coalescing for the baseline");
    }

    #[test]
    fn commit_waits_for_persists() {
        let cfg = SimConfig::table_ii(1);
        let mut base = BaseScheme::new(&cfg);
        let writes: Vec<(u64, u64)> = (0..16).map(|i| (i * 8, i)).collect();
        let out = Engine::new(&cfg, &mut base).run(vec![vec![tx(&writes)]], None);
        assert_eq!(out.stats.txs_committed, 1);
    }

    #[test]
    fn crash_mid_tx_is_revoked() {
        let cfg = SimConfig::table_ii(1);
        let mut base = BaseScheme::new(&cfg);
        let writes: Vec<(u64, u64)> = (0..32).map(|i| (i * 8, 0xAB + i)).collect();
        let out = Engine::new(&cfg, &mut base).run(vec![vec![tx(&writes)]], Some(Cycles::new(300)));
        let crash = out.crash.expect("crash injected");
        assert_eq!(crash.committed_txs, 0);
        assert!(crash.consistency.is_consistent(), "{:?}", crash.consistency);
    }

    #[test]
    fn crash_after_commit_preserves_data() {
        let cfg = SimConfig::table_ii(1);
        let mut base = BaseScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut base)
            .run(vec![vec![tx(&[(0, 7)])]], Some(Cycles::new(1_000_000)));
        let crash = out.crash.expect("crash injected");
        assert_eq!(crash.committed_txs, 1);
        assert!(crash.consistency.is_consistent(), "{:?}", crash.consistency);
    }

    #[test]
    fn crash_probe_sweep_is_consistent() {
        for crash_at in (0..20_000).step_by(997) {
            let cfg = SimConfig::table_ii(2);
            let mut base = BaseScheme::new(&cfg);
            let s0: Vec<Transaction> = (0..5)
                .map(|i| tx(&[(i * 8, i + 1), (512 + i * 8, i + 9)]))
                .collect();
            let s1: Vec<Transaction> = (0..5).map(|i| tx(&[(1 << 16 | (i * 8), i + 50)])).collect();
            let out = Engine::new(&cfg, &mut base).run(vec![s0, s1], Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
        }
    }
}
