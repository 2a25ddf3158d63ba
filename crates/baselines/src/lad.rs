//! LAD: distributed logless atomic durability (Gupta et al., MICRO'19;
//! paper §V, §VI-A).

use silo_core::{Record, RecordKind, RECORD_BYTES};
use silo_sim::{EvictAction, LoggingScheme, Machine, RecoveryReport, SchemeStats, SimConfig};
use silo_types::{
    CoreId, Cycles, FxHashSet, LineAddr, PhysAddr, TxTag, Word, LINE_BYTES, WORD_BYTES,
};

use crate::common::{recover_areas, write_records, CoreCursor};

#[derive(Clone, Debug)]
struct LadCore {
    cursor: CoreCursor,
    /// Cachelines written by the in-flight transaction.
    written_lines: FxHashSet<LineAddr>,
    /// Lines evicted mid-transaction and absorbed into the persistent MC
    /// buffer (discarded wholesale if the transaction never commits).
    absorbed: FxHashSet<LineAddr>,
    /// Pre-Prepare images of lines drained during the current commit.
    /// Until the Commit message, the MC buffer still tags these lines
    /// with the transaction; a power failure invalidates the tags, so
    /// the media must revert to these images (paper §V).
    prepared: Vec<(LineAddr, [u8; LINE_BYTES])>,
}

/// LAD: no logs in the common case. Updated cachelines evicted
/// mid-transaction are **absorbed** into a persistent MC buffer instead of
/// reaching PM; at commit the **Prepare** phase drains every still-dirty
/// transaction line from L1 through the hierarchy to the MC (stalling one
/// flush-chain latency per line — the cost Fig 12 charges LAD for), then
/// the **Commit** phase only sends messages. When the MC buffer
/// overflows, LAD falls back to **slow mode**: it reads the line's old
/// contents from PM, writes undo records for them, and lets the eviction
/// proceed to PM (paper §V point 3).
#[derive(Clone, Debug)]
pub struct LadScheme {
    cores: Vec<LadCore>,
    mc_buffer_capacity: usize,
    commit_msg_cycles: u64,
    flush_chain: Cycles,
    slow_mode_lines: u64,
    /// Completion times of prepared lines still occupying the MC buffer:
    /// LAD "stores the entire cacheline in MC" from Prepare until the
    /// media write completes, which is what makes its buffer "easily
    /// cause overflows" (paper §V).
    in_flight: std::collections::VecDeque<u64>,
    stats: SchemeStats,
}

impl LadScheme {
    /// Builds LAD for `config`'s machine (MC buffer capacity from
    /// `config.lad_mc_buffer_lines`).
    pub fn new(config: &SimConfig) -> Self {
        LadScheme {
            cores: (0..config.cores)
                .map(|i| LadCore {
                    cursor: CoreCursor::new(config, i),
                    written_lines: FxHashSet::default(),
                    absorbed: FxHashSet::default(),
                    prepared: Vec::new(),
                })
                .collect(),
            mc_buffer_capacity: config.lad_mc_buffer_lines,
            commit_msg_cycles: config.commit_ack_cycles,
            flush_chain: config.hierarchy.flush_chain_latency(),
            slow_mode_lines: 0,
            in_flight: std::collections::VecDeque::new(),
            stats: SchemeStats::default(),
        }
    }

    /// Lines that fell back to slow mode (MC buffer overflow).
    pub fn slow_mode_lines(&self) -> u64 {
        self.slow_mode_lines
    }

    /// MC-buffer lines held at `now`: absorbed evictions plus prepared
    /// lines whose media writes have not completed.
    fn mc_buffer_occupancy(&mut self, now: Cycles) -> usize {
        let t = now.as_u64();
        while self.in_flight.front().is_some_and(|&c| c <= t) {
            self.in_flight.pop_front();
        }
        let absorbed: usize = self.cores.iter().map(|c| c.absorbed.len()).sum();
        absorbed + self.in_flight.len()
    }
}

impl LoggingScheme for LadScheme {
    fn name(&self) -> &'static str {
        "LAD"
    }

    fn on_tx_begin(&mut self, _m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles {
        let c = &mut self.cores[core.as_usize()];
        debug_assert!(c.written_lines.is_empty() && c.absorbed.is_empty());
        debug_assert!(c.prepared.is_empty());
        c.cursor.current_tag = Some(tag);
        c.cursor.persist_barrier = now;
        now
    }

    fn on_store(
        &mut self,
        _m: &mut Machine,
        core: CoreId,
        addr: PhysAddr,
        _old: Word,
        _new: Word,
        now: Cycles,
    ) -> Cycles {
        let c = &mut self.cores[core.as_usize()];
        if c.cursor.current_tag.is_some() {
            c.written_lines.insert(addr.line());
        }
        now
    }

    fn on_evict(
        &mut self,
        m: &mut Machine,
        _core: CoreId,
        line: LineAddr,
        now: Cycles,
    ) -> (EvictAction, Cycles) {
        // Does the line belong to some in-flight transaction?
        let owner = self.cores.iter().position(|c| {
            c.cursor.current_tag.is_some()
                && (c.written_lines.contains(&line) || c.absorbed.contains(&line))
        });
        let Some(oi) = owner else {
            return (EvictAction::WriteBack, now); // committed data: normal path
        };
        if self.cores[oi].absorbed.contains(&line) {
            return (EvictAction::Absorb, now); // already buffered
        }
        if self.mc_buffer_occupancy(now) < self.mc_buffer_capacity {
            self.cores[oi].absorbed.insert(line);
            return (EvictAction::Absorb, now);
        }
        // Slow mode: read the old line from PM, write undo records for its
        // words, and let the partial update proceed to the data region.
        self.slow_mode_lines += 1;
        self.stats.overflow_events += 1;
        let done = m.pm_read_at(now, line.base());
        let mut old_image = [0u8; LINE_BYTES];
        m.pm.peek_into(line.base(), &mut old_image);
        let tag = self.cores[oi]
            .cursor
            .current_tag
            .expect("owner has an in-flight transaction");
        let (old_words, _) = old_image.as_chunks::<WORD_BYTES>();
        let records: [Record; LINE_BYTES / WORD_BYTES] = std::array::from_fn(|i| Record {
            kind: RecordKind::Undo,
            flush_bit: true,
            tag,
            addr: line.base().add((i * WORD_BYTES) as u64),
            data: Word::from_le_bytes(old_words[i]),
        });
        let n = records.len();
        let admitted = write_records(m, &mut self.cores[oi].cursor, &records, done);
        self.stats.log_entries_written_to_pm += n as u64;
        self.stats.log_bytes_written_to_pm += (n * RECORD_BYTES) as u64;
        (EvictAction::WriteBack, done.max(admitted))
    }

    fn on_tx_end(&mut self, m: &mut Machine, core: CoreId, _tag: TxTag, now: Cycles) -> Cycles {
        let ci = core.as_usize();
        self.stats.transactions += 1;
        let mut t = now;
        let mut written: Vec<LineAddr> = self.cores[ci].written_lines.iter().copied().collect();
        written.sort_unstable();
        // Prepare: drain the transaction's lines to the persistent MC
        // domain, then to PM. Each write chains through WPQ admission, so
        // a full queue back-pressures the drain.
        for line in written {
            let absorbed = self.cores[ci].absorbed.remove(&line);
            let needs_write = absorbed || m.caches.line_dirty(core, line);
            if !needs_write {
                continue; // the line reached PM through slow mode already
            }
            // The prepared line needs an MC-buffer slot until its media
            // write completes; overflowing forces the slow mode: read the
            // old line from PM while waiting for space (paper §V point 3).
            if self.mc_buffer_occupancy(t) >= self.mc_buffer_capacity {
                self.slow_mode_lines += 1;
                self.stats.overflow_events += 1;
                t = m.pm_read_at(t, line.base());
            }
            if !absorbed {
                // Still on chip: flush L1 -> L2 -> LLC -> MC, stalling the
                // core for the chain (the Prepare-phase cost).
                m.caches.flush_line(core, line);
                t += self.flush_chain;
            }
            // The MC buffer tags the prepared line with this transaction
            // until Commit; keep the pre-image so a power failure can
            // discard the tagged write (`on_crash`).
            let mut pre = [0u8; LINE_BYTES];
            m.pm.peek_into(line.base(), &mut pre);
            self.cores[ci].prepared.push((line, pre));
            let image = m.line_image(line);
            let adm = m.pm_write_through(t, line.base(), &image);
            self.cores[ci].cursor.cover(adm.admit);
            t = t.max(adm.admit);
            self.in_flight.push_back(adm.complete.as_u64());
        }
        // Commit phase: only messages.
        let done = self.cores[ci].cursor.barrier_wait(t) + Cycles::new(self.commit_msg_cycles);
        if m.pm.power_tripped() {
            // Power failed inside Prepare/Commit: the Commit message was
            // never sent, so the MC buffer's tags still cover the
            // `prepared` images for `on_crash` to discard, and the slow-
            // mode undo records stay bounded by the crash header.
            return done;
        }
        // Slow-mode undo logs are obsolete once the transaction commits.
        self.cores[ci].cursor.area.truncate();
        self.cores[ci].cursor.current_tag = None;
        self.cores[ci].written_lines.clear();
        self.cores[ci].absorbed.clear();
        self.cores[ci].prepared.clear();
        done
    }

    fn on_crash(&mut self, m: &mut Machine) {
        // Uncommitted absorbed lines are discarded with the MC buffer
        // tags; slow-mode undo records need their headers for recovery.
        // Lines drained during an interrupted Prepare are still tagged
        // with the uncommitted transaction, so the power failure reverts
        // them to their pre-Prepare images (paper §V).
        for c in &mut self.cores {
            if c.cursor.current_tag.is_some() {
                for (line, pre) in c.prepared.drain(..) {
                    m.pm.discard_to(line.base(), &pre);
                }
            }
            c.prepared.clear();
            c.cursor.crash(m);
            c.written_lines.clear();
            c.absorbed.clear();
        }
    }

    fn recover(&mut self, m: &mut Machine) -> RecoveryReport {
        // No ID tuples are ever written: every surviving record is an undo
        // of an uncommitted transaction's slow-mode line.
        let cursors = self.cores.iter_mut().map(|c| &mut c.cursor);
        let report = recover_areas(m, cursors);
        for c in &mut self.cores {
            c.prepared.clear();
        }
        report
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
    fn no_logs_in_the_common_case() {
        let cfg = SimConfig::table_ii(1);
        let mut lad = LadScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut lad).run(vec![vec![tx(&[(0, 1), (8, 2)])]], None);
        assert_eq!(out.stats.pm.log_region_writes, 0);
        // One line covers both words: one data write at Prepare.
        assert_eq!(out.stats.pm.data_region_writes, 1);
    }

    #[test]
    fn prepare_stalls_per_dirty_line() {
        let cfg = SimConfig::table_ii(1);
        // 8 distinct lines: prepare drains 8.
        let writes: Vec<(u64, u64)> = (0..8).map(|i| (i * 64, i + 1)).collect();
        let mut lad = LadScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut lad).run(vec![vec![tx(&writes)]], None);
        assert_eq!(out.stats.pm.data_region_writes, 8);
        // The commit stall grows with the line count: at least 8 chains.
        assert!(out.stats.sim_cycles >= Cycles::new(8 * 44));
    }

    #[test]
    fn crash_mid_tx_discards_unprepared_data() {
        let cfg = SimConfig::table_ii(1);
        let writes: Vec<(u64, u64)> = (0..32).map(|i| (i * 8, 0xCD + i)).collect();
        let mut lad = LadScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut lad).run(vec![vec![tx(&writes)]], Some(Cycles::new(300)));
        let crash = out.crash.expect("crash injected");
        assert_eq!(crash.committed_txs, 0);
        assert!(crash.consistency.is_consistent(), "{:?}", crash.consistency);
    }

    #[test]
    fn crash_after_commit_keeps_data() {
        let cfg = SimConfig::table_ii(1);
        let mut lad = LadScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut lad)
            .run(vec![vec![tx(&[(0, 5)])]], Some(Cycles::new(1_000_000)));
        let crash = out.crash.expect("crash injected");
        assert_eq!(crash.committed_txs, 1);
        assert!(crash.consistency.is_consistent(), "{:?}", crash.consistency);
    }

    #[test]
    fn crash_probe_sweep_is_consistent() {
        for crash_at in (0..20_000).step_by(1_531) {
            let cfg = SimConfig::table_ii(2);
            let mut lad = LadScheme::new(&cfg);
            let s0: Vec<Transaction> = (0..5)
                .map(|i| tx(&[(i * 8, i + 1), (512 + i * 8, i + 9)]))
                .collect();
            let s1: Vec<Transaction> = (0..5).map(|i| tx(&[(1 << 16 | (i * 8), i + 50)])).collect();
            let out = Engine::new(&cfg, &mut lad).run(vec![s0, s1], Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
        }
    }
}
