//! MorLog: morphable hardware logging (Wei et al., ISCA'20; paper §II-D,
//! §VI-A).

use silo_core::{LogBuffer, LogEntry, Record, RECORD_BYTES};
use silo_sim::{EvictAction, LoggingScheme, Machine, RecoveryReport, SchemeStats, SimConfig};
use silo_types::{CoreId, Cycles, LineAddr, PhysAddr, TxTag, Word};

use crate::common::{recover_areas, write_records, CoreCursor};

#[derive(Clone, Debug)]
struct MorCore {
    cursor: CoreCursor,
    buffer: LogBuffer,
}

/// MorLog: log entries accumulate and **merge** in an on-chip buffer
/// during execution, eliminating intermediate redo data; at commit the
/// surviving entries are written to the log region in one batch, choosing
/// the cheaper **morphable** record form per entry — undo-only when the
/// covered cacheline has already reached PM (its new data is durable),
/// undo+redo when the line is still dirty on chip. Commit waits for
/// draining these log writes ("MorLog waits for flushing all the logs in
/// the L1 cache and log buffers to PM before commit", §II-D); the
/// delay-persistence commit protocol is disabled, as in the paper's
/// evaluation (§VI-A).
///
/// Updated cachelines reach PM lazily through natural evictions — no
/// per-store data flush and no force write-back, which is why MorLog's
/// write traffic sits below FWB's by roughly the eliminated redo volume.
#[derive(Clone, Debug)]
pub struct MorLogScheme {
    cores: Vec<MorCore>,
    overflow_batch: usize,
    stats: SchemeStats,
}

impl MorLogScheme {
    /// Builds MorLog for `config`'s machine (log buffer sized like Silo's
    /// for an apples-to-apples on-chip budget).
    pub fn new(config: &SimConfig) -> Self {
        MorLogScheme {
            cores: (0..config.cores)
                .map(|i| MorCore {
                    cursor: CoreCursor::new(config, i),
                    buffer: LogBuffer::new(config.log_buffer_entries),
                })
                .collect(),
            overflow_batch: config.overflow_batch_entries(),
            stats: SchemeStats::default(),
        }
    }
}

impl LoggingScheme for MorLogScheme {
    fn name(&self) -> &'static str {
        "MorLog"
    }

    fn on_tx_begin(&mut self, _m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles {
        let c = &mut self.cores[core.as_usize()];
        debug_assert!(c.buffer.is_empty());
        c.cursor.current_tag = Some(tag);
        c.cursor.persist_barrier = now;
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
        let Some(tag) = self.cores[ci].cursor.current_tag else {
            return now;
        };
        self.stats.log_entries_generated += 1;
        let mut t = now;
        let entry = LogEntry::new(tag, addr.word_aligned(), old, new);
        if self.cores[ci].buffer.needs_overflow_for(&entry) {
            // Buffer overflow: flush the oldest entries as undo+redo
            // records so the transaction can keep running.
            self.stats.overflow_events += 1;
            let MorCore { cursor, buffer } = &mut self.cores[ci];
            let batch = buffer.take_overflow_batch(self.overflow_batch);
            // One hardware log write per entry; overflow flushing stalls
            // the store only via WPQ back-pressure on the last of them.
            let mut last = now;
            for e in &batch {
                last = write_records(m, cursor, &[e.undo_record(), e.redo_record()], now);
            }
            t = t.max(last);
            let n = 2 * batch.len();
            self.stats.log_entries_written_to_pm += n as u64;
            self.stats.log_bytes_written_to_pm += (n * RECORD_BYTES) as u64;
        }
        if self.cores[ci].buffer.insert(entry) == silo_core::InsertOutcome::Merged {
            // The merge is MorLog's redo-elimination: the intermediate redo
            // value will never be written to PM.
            self.stats.log_entries_merged += 1;
        }
        t
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
        self.stats.log_entries_remaining += self.cores[ci].buffer.len() as u64;
        // Morphable record selection: each entry is one hardware log write
        // (its undo half, plus the redo half only while the data line is
        // still dirty on chip — otherwise the redo write is eliminated,
        // the "morphable" saving). The ADR buffer keeps the entries until
        // the commit sequence finishes: a power failure mid-way must
        // still find them for `on_crash`'s undo flush.
        let MorCore { cursor, buffer } = &mut self.cores[ci];
        let mut n = 1;
        for e in buffer.entries() {
            let pair = [e.undo_record(), e.redo_record()];
            let records = if m.caches.line_dirty(core, e.addr().line()) {
                &pair[..]
            } else {
                &pair[..1]
            };
            write_records(m, cursor, records, now);
            n += records.len();
        }
        let commit_admit = write_records(m, cursor, &[Record::id_tuple(tag)], now);
        self.stats.log_entries_written_to_pm += n as u64;
        self.stats.log_bytes_written_to_pm += (n * RECORD_BYTES) as u64;
        let done = cursor.barrier_wait(now).max(commit_admit);
        if m.pm.power_tripped() {
            // Power failed inside the commit sequence: the ADR log buffer
            // still holds the entries for `on_crash`'s undo flush, and
            // the dead core never ran the post-commit cleanup.
            return done;
        }
        buffer.drain_all();
        cursor.current_tag = None;
        done
    }

    fn on_crash(&mut self, m: &mut Machine) {
        for c in &mut self.cores {
            // The in-flight transaction's buffered entries live in the ADR
            // log buffer; flush their undo halves so recovery can revoke
            // any partial updates already evicted to PM.
            if c.cursor.current_tag.is_some() && !c.buffer.is_empty() {
                let entries = c.buffer.drain_all();
                let addr = c.cursor.area.reserve(entries.len());
                let mut bytes = Vec::with_capacity(entries.len() * RECORD_BYTES);
                for e in &entries {
                    bytes.extend_from_slice(&e.undo_record().encode());
                }
                m.pm.write(addr, &bytes);
                self.stats.log_entries_written_to_pm += entries.len() as u64;
                self.stats.log_bytes_written_to_pm += bytes.len() as u64;
            }
            c.cursor.crash(m);
        }
    }

    fn recover(&mut self, m: &mut Machine) -> RecoveryReport {
        let cursors = self.cores.iter_mut().map(|c| &mut c.cursor);
        recover_areas(m, cursors)
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
    fn merging_eliminates_intermediate_redo_writes() {
        let cfg = SimConfig::table_ii(1);
        let mut mor = MorLogScheme::new(&cfg);
        // Three stores to one word: one surviving entry.
        let out = Engine::new(&cfg, &mut mor).run(vec![vec![tx(&[(0, 1), (0, 2), (0, 3)])]], None);
        let s = out.stats.scheme_stats;
        assert_eq!(s.log_entries_merged, 2);
        assert_eq!(s.log_entries_remaining, 1);
        // One undo + one redo + the ID tuple.
        assert_eq!(s.log_entries_written_to_pm, 3);
    }

    #[test]
    fn fewer_log_bytes_than_per_store_logging() {
        let cfg = SimConfig::table_ii(1);
        let writes: Vec<(u64, u64)> = (0..10).flat_map(|i| [(i * 8, i), (i * 8, i + 1)]).collect();
        let mut mor = MorLogScheme::new(&cfg);
        let mor_out = Engine::new(&cfg, &mut mor).run(vec![vec![tx(&writes)]], None);
        let mut base = crate::BaseScheme::new(&cfg);
        let base_out = Engine::new(&cfg, &mut base).run(vec![vec![tx(&writes)]], None);
        assert!(
            mor_out.stats.scheme_stats.log_bytes_written_to_pm
                < base_out.stats.scheme_stats.log_bytes_written_to_pm
        );
    }

    #[test]
    fn overflow_keeps_transaction_running() {
        let cfg = SimConfig::table_ii(1);
        let writes: Vec<(u64, u64)> = (0..30).map(|i| (i * 8, i + 1)).collect();
        let mut mor = MorLogScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut mor).run(vec![vec![tx(&writes)]], None);
        assert_eq!(out.stats.txs_committed, 1);
        assert!(out.stats.scheme_stats.overflow_events >= 1);
    }

    #[test]
    fn crash_probe_sweep_is_consistent() {
        for crash_at in (0..20_000).step_by(1_111) {
            let cfg = SimConfig::table_ii(2);
            let mut mor = MorLogScheme::new(&cfg);
            let s0: Vec<Transaction> = (0..5)
                .map(|i| tx(&[(i * 8, i + 1), (512 + i * 8, i + 9)]))
                .collect();
            let s1: Vec<Transaction> = (0..5).map(|i| tx(&[(1 << 16 | (i * 8), i + 50)])).collect();
            let out = Engine::new(&cfg, &mut mor).run(vec![s0, s1], Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
        }
    }
}
