//! Software write-ahead logging (paper Fig 1a, §II-B).
//!
//! The motivation baseline: logs are created by *program code* and
//! persisted with `clwb` + `sfence` before the corresponding data may be
//! written, so every log operation sits on the critical path — the paper
//! cites up to a 70 % throughput loss versus hardware logging. This scheme
//! exists to reproduce that motivation (see `evaluate motivation`); the
//! paper's evaluation section itself compares hardware designs only.

use std::collections::BTreeSet;

use silo_core::{LogEntry, Record, RECORD_BYTES};
use silo_sim::{EvictAction, LoggingScheme, Machine, RecoveryReport, SchemeStats, SimConfig};
use silo_types::{CoreId, Cycles, LineAddr, PhysAddr, TxTag, Word};

use crate::common::{recover_areas, write_line, write_records, CoreCursor};

/// Cycles of instruction overhead for composing a log entry in software
/// (address arithmetic, stores to the log cacheline, clwb issue).
const SW_LOG_COMPOSE_CYCLES: u64 = 30;

/// Software undo+redo logging: per store, the program composes a log
/// entry, `clwb`s it, and `sfence`s — stalling for the flush's memory
/// round trip — before the data store may proceed. At commit the program
/// `clwb`s every written data line, fences, persists a commit record, and
/// fences again (the full Fig 1a sequence), after which the logs are
/// truncatable.
#[derive(Clone, Debug)]
pub struct SwLogScheme {
    cores: Vec<CoreCursor>,
    written_lines: Vec<BTreeSet<LineAddr>>,
    /// clwb + sfence acknowledgment round trip to the memory controller.
    fence_cycles: u64,
    stats: SchemeStats,
}

impl SwLogScheme {
    /// Builds the software-logging baseline for `config`'s machine.
    pub fn new(config: &SimConfig) -> Self {
        SwLogScheme {
            cores: (0..config.cores)
                .map(|i| CoreCursor::new(config, i))
                .collect(),
            written_lines: vec![BTreeSet::new(); config.cores],
            // The fence waits for the MC's flush acknowledgment: one
            // memory round trip, same order as the device read latency.
            fence_cycles: config.memctrl.read_cycles,
            stats: SchemeStats::default(),
        }
    }
}

impl LoggingScheme for SwLogScheme {
    fn name(&self) -> &'static str {
        "SwLog"
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
        self.written_lines[ci].insert(addr.line());
        // Compose the entry in software...
        let t = now + Cycles::new(SW_LOG_COMPOSE_CYCLES);
        let entry = LogEntry::new(tag, addr.word_aligned(), old, new);
        let records = [entry.undo_record(), entry.redo_record()];
        // ...clwb it, and sfence: the store stream STALLS for the flush's
        // acknowledgment round trip before the data store may proceed
        // (Fig 1a's ordering) — the critical-path cost hardware logging
        // removes.
        let admitted = write_records(m, &mut self.cores[ci], &records, t);
        self.stats.log_entries_written_to_pm += 2;
        self.stats.log_bytes_written_to_pm += (2 * RECORD_BYTES) as u64;
        t.max(admitted) + Cycles::new(self.fence_cycles)
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
        // clwb every written data line, then fence: durability for the
        // in-place data before the logs may be truncated.
        let lines: Vec<LineAddr> = std::mem::take(&mut self.written_lines[ci])
            .into_iter()
            .collect();
        let mut t = now;
        for line in lines {
            m.caches.flush_line(core, line);
            t = t.max(write_line(m, &mut self.cores[ci], line, t));
        }
        t += Cycles::new(self.fence_cycles);
        // Commit record + final fence.
        let commit_admit = write_records(m, &mut self.cores[ci], &[Record::id_tuple(tag)], t);
        self.stats.log_entries_written_to_pm += 1;
        self.stats.log_bytes_written_to_pm += RECORD_BYTES as u64;
        let done =
            self.cores[ci].barrier_wait(t).max(commit_admit) + Cycles::new(self.fence_cycles);
        if m.pm.power_tripped() {
            // Power failed inside the commit sequence: the core died
            // before the post-commit truncation, so the crash header
            // still bounds the undo records recovery needs to revoke
            // (or, if the ID tuple landed, the redo records to replay).
            return done;
        }
        self.cores[ci].area.truncate();
        self.cores[ci].current_tag = None;
        done
    }

    fn on_crash(&mut self, m: &mut Machine) {
        for (ci, c) in self.cores.iter_mut().enumerate() {
            c.crash(m);
            self.written_lines[ci].clear();
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
    use crate::BaseScheme;
    use silo_sim::{Engine, Transaction};

    fn tx(writes: &[(u64, u64)]) -> Transaction {
        let mut b = Transaction::builder();
        for &(a, v) in writes {
            b = b.write(PhysAddr::new(a), Word::new(v));
        }
        b.build()
    }

    #[test]
    fn software_logging_is_slower_than_hardware_base() {
        // §II-B: "All log operations exist on the critical path, which
        // decreases the transaction throughput".
        let cfg = SimConfig::table_ii(1);
        let writes: Vec<(u64, u64)> = (0..10).map(|i| (i * 8, i + 1)).collect();
        let txs = || (0..30).map(|_| tx(&writes)).collect::<Vec<_>>();
        let mut sw = SwLogScheme::new(&cfg);
        let sw_out = Engine::new(&cfg, &mut sw).run(vec![txs()], None);
        let mut hw = BaseScheme::new(&cfg);
        let hw_out = Engine::new(&cfg, &mut hw).run(vec![txs()], None);
        assert!(
            sw_out.stats.throughput() < hw_out.stats.throughput(),
            "sw {} vs hw {}",
            sw_out.stats.throughput(),
            hw_out.stats.throughput()
        );
    }

    #[test]
    fn crash_sweep_is_consistent() {
        for crash_at in (100..15_000).step_by(1_733) {
            let cfg = SimConfig::table_ii(1);
            let mut sw = SwLogScheme::new(&cfg);
            let stream: Vec<Transaction> = (0..8)
                .map(|i| tx(&[(i * 8, i + 1), (512 + i * 8, i + 7)]))
                .collect();
            let out = Engine::new(&cfg, &mut sw).run(vec![stream], Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
        }
    }
}
