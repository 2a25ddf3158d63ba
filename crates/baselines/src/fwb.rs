//! FWB: hardware undo+redo logging with periodic cache force write-back
//! (Ogleari et al., HPCA'18; paper §II-D, §VI-A).

use silo_core::{LogEntry, Record, RECORD_BYTES};
use silo_sim::{EvictAction, LoggingScheme, Machine, RecoveryReport, SchemeStats, SimConfig};
use silo_types::{CoreId, Cycles, LineAddr, PhysAddr, TxTag, Word};

use crate::common::{recover_areas, write_records, CoreCursor};

/// FWB: every store writes an undo+redo log entry to the log region
/// *before* the data may persist; updated cachelines stay dirty in the
/// cache and reach PM through natural evictions and a periodic **force
/// write-back** sweep (every 3,000,000 cycles, §VI-A). Commit waits for
/// the transaction's log persists plus a commit record; log truncation
/// happens at sweep boundaries, once all covered data is durably in PM.
#[derive(Clone, Debug)]
pub struct FwbScheme {
    cores: Vec<CoreCursor>,
    /// Cycle of each core's newest log-region record.
    last_record: Vec<Cycles>,
    interval: u64,
    last_sweep: Cycles,
    sweeps: u64,
    stats: SchemeStats,
}

impl FwbScheme {
    /// Builds FWB for `config`'s machine (3 M-cycle interval from the
    /// config).
    pub fn new(config: &SimConfig) -> Self {
        FwbScheme {
            last_record: vec![Cycles::ZERO; config.cores],
            cores: (0..config.cores)
                .map(|i| CoreCursor::new(config, i))
                .collect(),
            interval: config.fwb_interval_cycles,
            last_sweep: Cycles::ZERO,
            sweeps: 0,
            stats: SchemeStats::default(),
        }
    }

    /// Number of force-write-back sweeps performed.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }
}

impl LoggingScheme for FwbScheme {
    fn name(&self) -> &'static str {
        "FWB"
    }

    fn on_tx_begin(&mut self, _m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles {
        let ci = core.as_usize();
        // If a force write-back swept the caches after this core's newest
        // record, all its covered data is durably in PM: the whole area is
        // truncatable at the next transaction boundary.
        if self.last_sweep > self.last_record[ci] && self.cores[ci].area.used_bytes() > 0 {
            self.cores[ci].area.truncate();
        }
        let c = &mut self.cores[ci];
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
        // Log forced to PM before the updated data for each write; the
        // data itself stays cached.
        let entry = LogEntry::new(tag, addr.word_aligned(), old, new);
        let records = [entry.undo_record(), entry.redo_record()];
        let t = write_records(m, &mut self.cores[ci], &records, now);
        self.last_record[ci] = self.last_record[ci].max(t);
        self.stats.log_entries_written_to_pm += 2;
        self.stats.log_bytes_written_to_pm += (2 * RECORD_BYTES) as u64;
        // Background logging; only WPQ-full admission stalls the store.
        now.max(t)
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
        let commit_admit = write_records(m, &mut self.cores[ci], &[Record::id_tuple(tag)], now);
        self.last_record[ci] = self.last_record[ci].max(now);
        self.stats.log_entries_written_to_pm += 1;
        self.stats.log_bytes_written_to_pm += RECORD_BYTES as u64;
        let done = self.cores[ci].barrier_wait(now).max(commit_admit);
        if m.pm.power_tripped() {
            // Power failed inside the commit sequence: the dead core
            // never cleared its transaction register.
            return done;
        }
        self.cores[ci].current_tag = None;
        done
    }

    fn on_tick(&mut self, m: &mut Machine, now: Cycles) {
        if now.saturating_sub(self.last_sweep) < Cycles::new(self.interval) {
            return;
        }
        self.last_sweep = now;
        self.sweeps += 1;
        // Force write-back: sweep every dirty line to PM. The sweep engine
        // is hardware background work that waits for WPQ slots, so its
        // writes chain through admission instead of flooding the queue.
        let lines = m.caches.force_writeback_all();
        let mut t = now;
        for line in lines {
            let image = m.line_image(line);
            t = t.max(m.pm_write_through(t, line.base(), &image).admit);
        }
        // ...after which every log covering a *finished* transaction is
        // truncatable. Areas with an in-flight transaction keep their undo
        // information (its partial data just persisted!).
        if m.pm.power_tripped() {
            // Power failed mid-sweep: some write-backs were dropped, so
            // the redo records they would have made obsolete must stay.
            return;
        }
        for c in &mut self.cores {
            if c.current_tag.is_none() {
                c.area.truncate();
            }
        }
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
    fn stores_log_but_do_not_flush_data() {
        let cfg = SimConfig::table_ii(1);
        let mut fwb = FwbScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut fwb).run(vec![vec![tx(&[(0, 1), (8, 2)])]], None);
        // 2 log writes + 1 commit record; data stayed in cache (no sweep in
        // such a short run, no eviction pressure).
        assert_eq!(out.stats.pm.log_region_writes, 3);
        assert_eq!(out.stats.pm.data_region_writes, 0);
    }

    #[test]
    fn sweep_writes_dirty_lines_and_truncates() {
        let mut cfg = SimConfig::table_ii(1);
        cfg.fwb_interval_cycles = 500; // force frequent sweeps in the test
        let mut fwb = FwbScheme::new(&cfg);
        let txs: Vec<Transaction> = (0..20).map(|i| tx(&[(i * 64, i + 1)])).collect();
        let out = Engine::new(&cfg, &mut fwb).run(vec![txs], None);
        let mut fwb2 = FwbScheme::new(&cfg); // for sweeps introspection
        let _ = &mut fwb2;
        assert!(out.stats.pm.data_region_writes > 0, "sweeps flushed data");
    }

    #[test]
    fn crash_before_sweep_replays_committed_data_from_redo() {
        // Data never left the cache; without redo replay it would be lost.
        let cfg = SimConfig::table_ii(1);
        let mut fwb = FwbScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut fwb).run(
            vec![vec![tx(&[(0, 7), (8, 9)])]],
            Some(Cycles::new(1_000_000)),
        );
        let crash = out.crash.expect("crash injected");
        assert_eq!(crash.committed_txs, 1);
        assert!(crash.recovery.replayed_words >= 2);
        assert!(crash.consistency.is_consistent(), "{:?}", crash.consistency);
    }

    #[test]
    fn crash_probe_sweep_is_consistent() {
        for crash_at in (0..20_000).step_by(1_313) {
            let mut cfg = SimConfig::table_ii(2);
            cfg.fwb_interval_cycles = 4_000; // sweeps interleave the crashes
            let mut fwb = FwbScheme::new(&cfg);
            let s0: Vec<Transaction> = (0..5)
                .map(|i| tx(&[(i * 8, i + 1), (512 + i * 8, i + 9)]))
                .collect();
            let s1: Vec<Transaction> = (0..5).map(|i| tx(&[(1 << 16 | (i * 8), i + 50)])).collect();
            let out = Engine::new(&cfg, &mut fwb).run(vec![s0, s1], Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
        }
    }
}
