//! The full Silo design as a pluggable logging scheme.

use std::collections::VecDeque;

use silo_sim::{
    CycleCategory, EvictAction, LoggingScheme, Machine, ProbeEventKind, RecoveryReport,
    SchemeStats, SimConfig,
};
use silo_types::{CoreId, Cycles, LineAddr, PhysAddr, TxTag, Word};

use crate::{recovery, LogBuffer, LogEntry, Record, ThreadLogArea, RECORD_BYTES};

/// Feature switches for Silo's mechanisms, used by the ablation benches.
/// Defaults are the full paper design.
///
/// # Examples
///
/// ```
/// use silo_core::SiloOptions;
///
/// let full = SiloOptions::default();
/// assert!(full.log_ignorance && full.log_merging && full.onpm_coalescing);
/// let no_merge = SiloOptions { log_merging: false, ..SiloOptions::default() };
/// assert!(!no_merge.log_merging);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SiloOptions {
    /// Drop logs whose store does not change the word (§III-C).
    pub log_ignorance: bool,
    /// Merge same-word logs within a transaction (§III-C).
    pub log_merging: bool,
    /// Route PM writes through the on-PM coalescing buffer (§III-E).
    pub onpm_coalescing: bool,
    /// Track cacheline evictions with flush-bits (§III-D).
    pub flush_bit: bool,
    /// Cycles after commit before the log controller pushes the new data
    /// into the WPQ. The data is battery-safe meanwhile; this window is
    /// where §III-G's "committed but not yet flushed" redo case lives.
    pub ipu_drain_delay: u64,
    /// Overrides the overflow batch size (`None` = the §III-F formula,
    /// `N = floor(S / 18)`); used by the batching ablation.
    pub overflow_batch_override: Option<usize>,
    /// Capacity (in entries) of the log controller's pending
    /// in-place-update queue. Committed entries wait here for the WPQ;
    /// when the backlog exceeds this bound, the next commit stalls until
    /// the controller drains below it — the on-chip persistent domain is
    /// small (Table I), so the backlog cannot grow without bound.
    pub ipu_queue_entries: usize,
}

impl Default for SiloOptions {
    fn default() -> Self {
        SiloOptions {
            log_ignorance: true,
            log_merging: true,
            onpm_coalescing: true,
            flush_bit: true,
            ipu_drain_delay: 64,
            overflow_batch_override: None,
            ipu_queue_entries: 64,
        }
    }
}

/// A committed transaction's entries waiting for the background
/// in-place-update flush. Lives in the battery-backed domain.
#[derive(Clone, Debug)]
struct PendingIpu {
    tag: TxTag,
    ready: Cycles,
    // A queue, not a Vec: drains pop from the front one entry at a time
    // and can be interrupted mid-transaction, so front removal must be
    // O(1) rather than `remove(0)`'s O(n) shift.
    entries: VecDeque<LogEntry>,
}

/// How [`SiloScheme::flush_pending`] paces a drain — the two callers have
/// different timing semantics that must not be conflated.
#[derive(Clone, Copy, Debug)]
enum DrainPace {
    /// Background drain at a fixed clock: writes are admitted at `now`
    /// (WPQ admission latency is absorbed by the controller, not the
    /// core), and unless `force` is set the drain defers to WPQ
    /// back-pressure.
    Background {
        /// End-of-run drain: wait out back-pressure instead of deferring.
        force: bool,
    },
    /// Commit-stall drain (`on_tx_end` force-drain): the committing core
    /// is waiting, so each admission advances the clock, and the WPQ is
    /// not consulted — the stall itself is the back-pressure.
    CommitStall,
}

/// Per-core hardware state: the log buffer, the log-area cursor registers,
/// and the in-flight transaction marker.
#[derive(Clone, Debug)]
struct CoreLog {
    buffer: LogBuffer,
    area: ThreadLogArea,
    current_tag: Option<TxTag>,
    pending_ipu: VecDeque<PendingIpu>,
}

/// Silo: speculative hardware logging with "log as data" (paper §III).
///
/// In the failure-free fast path a transaction costs:
/// * per store — nothing on the critical path (log generation runs in
///   parallel with the next instruction; merging happens in the
///   background);
/// * at commit — an on-chip ACK round trip plus one log-buffer access,
///   after which the new data drains to the PM data region through the
///   write-coalescing on-PM buffer **without any log-region write**.
///
/// Rare cases: log-buffer overflow evicts batched undo records (§III-F); a
/// power failure triggers the selective flush (§III-G); `recover` replays /
/// revokes per Fig 10g.
///
/// See the crate-level example for usage.
#[derive(Clone, Debug)]
pub struct SiloScheme {
    options: SiloOptions,
    overflow_batch: usize,
    buffer_latency: Cycles,
    ack_cycles: u64,
    cores: Vec<CoreLog>,
    stats: SchemeStats,
}

impl SiloScheme {
    /// Builds the full Silo design for `config`'s machine.
    pub fn new(config: &SimConfig) -> Self {
        SiloScheme::with_options(config, SiloOptions::default())
    }

    /// Builds Silo with specific mechanisms toggled (ablations).
    pub fn with_options(config: &SimConfig, options: SiloOptions) -> Self {
        let cores = (0..config.cores)
            .map(|i| {
                let tid = CoreId::new(i).thread();
                CoreLog {
                    buffer: LogBuffer::new(config.log_buffer_entries),
                    area: ThreadLogArea::new(
                        config.thread_log_base(tid),
                        config.thread_log_end(tid),
                    ),
                    current_tag: None,
                    pending_ipu: VecDeque::new(),
                }
            })
            .collect();
        SiloScheme {
            overflow_batch: options
                .overflow_batch_override
                .unwrap_or_else(|| config.overflow_batch_entries())
                .max(1),
            options,
            buffer_latency: config.log_buffer_latency,
            ack_cycles: config.commit_ack_cycles,
            cores,
            stats: SchemeStats::default(),
        }
    }

    /// The active option set.
    pub fn options(&self) -> SiloOptions {
        self.options
    }

    /// Total battery-backed bytes currently holding unflushed new data
    /// (log buffers + pending in-place updates) — what the crash battery
    /// must be able to drain.
    pub fn battery_resident_entries(&self) -> usize {
        self.cores
            .iter()
            .map(|c| c.buffer.len() + c.pending_ipu.iter().map(|p| p.entries.len()).sum::<usize>())
            .sum()
    }

    /// All of a transaction's log traffic goes through its core's home MC
    /// (§III-D: "the log generator sends the logs from the same
    /// transaction to the same MC. Hence, the logs and in-place updates
    /// end up at the same MC.").
    fn pm_write(
        &self,
        m: &mut Machine,
        core: usize,
        now: Cycles,
        addr: PhysAddr,
        bytes: &[u8],
    ) -> Cycles {
        let mc = m.home_mc(CoreId::new(core));
        let adm = if self.options.onpm_coalescing {
            m.pm_write_coalesced_via(mc, now, addr, bytes)
        } else {
            m.pm_write_through_via(mc, now, addr, bytes)
        };
        adm.admit
    }

    /// Entries queued behind the in-place-update drain on `core`.
    fn backlog_entries(&self, ci: usize) -> usize {
        self.cores[ci]
            .pending_ipu
            .iter()
            .map(|p| p.entries.len())
            .sum()
    }

    /// Whether `core`'s home WPQ can take more background traffic at
    /// `now`. The log controller paces itself against the queue — it
    /// never oversubscribes the persist domain (its data is battery-safe
    /// while it waits).
    fn wpq_has_room(m: &mut Machine, core: usize, now: Cycles) -> bool {
        let mc = m.home_mc(CoreId::new(core));
        // The pacing check models the MC retiring serviced writes as of
        // the pacer's clock: an explicit state advance, not a side effect
        // of the (read-only) occupancy query.
        m.mcs[mc].retire(now);
        m.mcs[mc].occupancy(now) < m.config.memctrl.wpq_entries
    }

    /// The single pending-IPU drain loop, shared by the background hooks
    /// and the commit-stall path. Pops entries from the front of
    /// `pending`, skipping flush-bit-1 words (an eviction already carried
    /// them) and writing the rest in place. Checks power (and, per
    /// `pace`, WPQ back-pressure) *before* each pop; on a block, the
    /// unfinished remainder goes back to the front of the core's pending
    /// queue — battery-backed, so `on_crash` or a later hook finishes it.
    ///
    /// Returns the (possibly advanced) clock and whether the pending item
    /// drained completely.
    fn flush_pending(
        &mut self,
        m: &mut Machine,
        ci: usize,
        mut pending: PendingIpu,
        mut t: Cycles,
        pace: DrainPace,
    ) -> (Cycles, bool) {
        let mut written: u64 = 0;
        while let Some(&e) = pending.entries.front() {
            let blocked = m.pm.power_tripped()
                || match pace {
                    DrainPace::Background { force } => !force && !Self::wpq_has_room(m, ci, t),
                    DrainPace::CommitStall => false,
                };
            if blocked {
                self.cores[ci].pending_ipu.push_front(pending);
                return (t, false);
            }
            if e.flush_bit() {
                pending.entries.pop_front();
                continue;
            }
            let dropped = m.pm.dropped();
            let admit = self.pm_write(m, ci, t, e.addr(), &e.new_data().to_le_bytes());
            if m.pm.dropped() != dropped {
                // Power failed at this very admission: the device never
                // took the bytes. The controller keeps its copy until the
                // WPQ accepts a write, so the entry stays in the
                // battery-backed queue and `on_crash` flushes its redo
                // record instead — popping first would lose a committed
                // word with no trace for recovery to replay.
                self.cores[ci].pending_ipu.push_front(pending);
                return (t, false);
            }
            pending.entries.pop_front();
            if matches!(pace, DrainPace::CommitStall) {
                // The committing core waits out the in-place-update drain:
                // attribute that slice of the commit stall to `Drain`.
                m.probe
                    .claim(ci, CycleCategory::Drain, admit.saturating_sub(t).as_u64());
                t = t.max(admit);
            }
            self.stats.inplace_update_words += 1;
            written += 1;
        }
        if written > 0 {
            m.probe.emit(
                ProbeEventKind::BufferDrain,
                Some(ci as u32),
                t.as_u64(),
                written,
            );
        }
        (t, true)
    }

    /// Pushes ready post-commit new data into the WPQ (background work).
    /// Stops as soon as the WPQ fills; the remainder stays in the
    /// battery-backed pending queue and is retried at the next hook. When
    /// `force` is set (end of run), admission waits instead of deferring.
    fn drain_ready_ipu(&mut self, m: &mut Machine, now: Cycles, force: bool) {
        for ci in 0..self.cores.len() {
            loop {
                if m.pm.power_tripped() {
                    // Power failed: further in-place writes would drop
                    // silently. The pending queue is battery-backed, so
                    // whatever stays in it reaches PM via `on_crash`.
                    return;
                }
                let ready = matches!(
                    self.cores[ci].pending_ipu.front(),
                    Some(p) if force || p.ready <= now
                );
                if !ready {
                    break;
                }
                if !force && !Self::wpq_has_room(m, ci, now) {
                    return; // back-pressure: retry on a later hook
                }
                let pending = self.cores[ci]
                    .pending_ipu
                    .pop_front()
                    .expect("front checked above");
                let (_, drained) =
                    self.flush_pending(m, ci, pending, now, DrainPace::Background { force });
                if !drained {
                    return;
                }
            }
        }
    }

    /// §III-F: evicts a batch of undo logs to the thread's log area and
    /// writes the still-unflushed new data to the data region. Returns the
    /// time after any WPQ back-pressure — overflow flushing runs in
    /// parallel with execution (§III-F), but a full persist queue throttles
    /// the log generator and thus the store stream.
    fn handle_overflow(&mut self, m: &mut Machine, core: usize, now: Cycles) -> Cycles {
        self.stats.overflow_events += 1;
        let batch = self.cores[core]
            .buffer
            .take_overflow_batch(self.overflow_batch);
        debug_assert!(!batch.is_empty());
        m.probe.emit(
            ProbeEventKind::LogOverflow,
            Some(core as u32),
            now.as_u64(),
            batch.len() as u64,
        );
        // Batched, address-adjacent undo records: one buffer-line-sized
        // write to the log region.
        let addr = self.cores[core].area.reserve(batch.len());
        let mut bytes = Vec::with_capacity(batch.len() * RECORD_BYTES);
        let mut data_words: Vec<(PhysAddr, Word)> = Vec::new();
        for mut e in batch {
            if !e.flush_bit() {
                // Case 2: set the bit and persist the new data now to keep
                // durability if the transaction later commits.
                e.set_flush_bit();
                data_words.push((e.addr(), e.new_data()));
            }
            bytes.extend_from_slice(&e.undo_record().encode());
            self.stats.log_entries_written_to_pm += 1;
        }
        self.stats.log_bytes_written_to_pm += bytes.len() as u64;
        // Flushing overflowed logs and adding new logs proceed in parallel
        // (§III-F); only WPQ admission back-pressure reaches the core.
        let dropped = m.pm.dropped();
        let mut t = self.pm_write(m, core, now, addr, &bytes);
        if m.pm.dropped() != dropped {
            // Power failed at the batch write: the tail must not cover
            // bytes the device never received — a crash header bounding
            // them would expose stale records to the recovery scan.
            self.cores[core].area.rewind(bytes.len() / RECORD_BYTES);
        }
        for (waddr, word) in data_words {
            t = t.max(self.pm_write(m, core, t, waddr, &word.to_le_bytes()));
            self.stats.inplace_update_words += 1;
        }
        t
    }
}

impl LoggingScheme for SiloScheme {
    fn name(&self) -> &'static str {
        "Silo"
    }

    fn coalesces_pm_writes(&self) -> bool {
        self.options.onpm_coalescing
    }

    fn on_tx_begin(&mut self, m: &mut Machine, _core: CoreId, tag: TxTag, now: Cycles) -> Cycles {
        self.drain_ready_ipu(m, now, false);
        let core = &mut self.cores[tag.tid().as_u8() as usize];
        debug_assert!(core.buffer.is_empty(), "buffer deallocated at commit");
        core.current_tag = Some(tag);
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
        self.drain_ready_ipu(m, now, false);
        let ci = core.as_usize();
        let Some(tag) = self.cores[ci].current_tag else {
            return now; // non-transactional store: no logging
        };
        self.stats.log_entries_generated += 1;
        if self.options.log_ignorance && old == new {
            self.stats.log_entries_ignored += 1;
            m.probe.emit(
                ProbeEventKind::LogIgnore,
                Some(ci as u32),
                now.as_u64(),
                addr.as_u64(),
            );
            return now;
        }
        let entry = LogEntry::new(tag, addr.word_aligned(), old, new);
        let mut t = now;
        if self.options.log_merging {
            if self.cores[ci].buffer.needs_overflow_for(&entry) {
                t = self.handle_overflow(m, ci, t);
            }
            if self.cores[ci].buffer.insert(entry) == crate::InsertOutcome::Merged {
                self.stats.log_entries_merged += 1;
                m.probe.emit(
                    ProbeEventKind::LogMerge,
                    Some(ci as u32),
                    t.as_u64(),
                    addr.as_u64(),
                );
            }
        } else {
            // Ablation: no merge search; every store consumes a slot.
            if self.cores[ci].buffer.is_full() {
                t = self.handle_overflow(m, ci, t);
            }
            self.cores[ci].buffer.append(entry);
        }
        // Log generation overlaps the next instruction (§III-B): no stall
        // beyond overflow back-pressure.
        t
    }

    fn on_evict(
        &mut self,
        _m: &mut Machine,
        _core: CoreId,
        line: LineAddr,
        now: Cycles,
    ) -> (EvictAction, Cycles) {
        if self.options.flush_bit {
            // The comparators in every core's log buffer check the evicted
            // line address in parallel (§III-D).
            for core in &mut self.cores {
                self.stats.flush_bits_set += core.buffer.mark_line_evicted(line) as u64;
            }
        }
        (EvictAction::WriteBack, now)
    }

    fn on_tx_end(&mut self, m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles {
        self.drain_ready_ipu(m, now, false);
        let ci = core.as_usize();
        if m.pm.power_tripped() {
            // Power failed while the controller drained earlier commits:
            // this transaction's commit never reached the controller. Its
            // entries stay in the (battery-backed) log buffer, whose undo
            // halves `on_crash` flushes for recovery to revoke.
            return now;
        }
        self.stats.transactions += 1;
        self.stats.log_entries_remaining += self.cores[ci].buffer.len() as u64;
        // Commit: the log generator notifies the log controller and waits
        // only for the on-chip ACK; one log-buffer access sits on that
        // round trip (Fig 15's sensitivity lever).
        let mut commit_time = now + Cycles::new(self.ack_cycles) + self.buffer_latency;
        let entries = self.cores[ci].buffer.drain_all();
        if !entries.is_empty() {
            self.cores[ci].pending_ipu.push_back(PendingIpu {
                tag,
                ready: commit_time + Cycles::new(self.options.ipu_drain_delay),
                entries: entries.into(),
            });
        }
        // The pending queue is a small on-chip structure: if the WPQ has
        // starved it past capacity, this commit stalls while the
        // controller force-drains the oldest entries (rare-case
        // back-pressure; the common case never enters this loop).
        while !m.pm.power_tripped() && self.backlog_entries(ci) > self.options.ipu_queue_entries {
            let pending = self.cores[ci]
                .pending_ipu
                .pop_front()
                .expect("backlog positive implies a pending item");
            let (t, drained) =
                self.flush_pending(m, ci, pending, commit_time, DrainPace::CommitStall);
            commit_time = t;
            if !drained {
                // Power failed mid-drain: the battery-backed queue keeps
                // the remainder so `on_crash` flushes its redo + ID tuple.
                break;
            }
        }
        if m.pm.power_tripped() {
            // Power failed after the commit reached the controller: the
            // pending queue (battery-backed) carries the commit to PM via
            // `on_crash`; the dead core never ran the register reset.
            return commit_time;
        }
        // Overflowed logs are deleted after commit (§III-F): register reset.
        self.cores[ci].area.truncate();
        self.cores[ci].current_tag = None;
        self.drain_ready_ipu(m, commit_time, false);
        commit_time
    }

    fn on_tick(&mut self, m: &mut Machine, now: Cycles) {
        self.drain_ready_ipu(m, now, false);
    }

    fn on_run_end(&mut self, m: &mut Machine, now: Cycles) {
        self.drain_ready_ipu(m, now, true);
    }

    fn on_crash(&mut self, m: &mut Machine) {
        // Battery-powered selective flush (§III-G). Direct device writes:
        // the battery is sized for this (Table IV), no MC timing involved.
        for core in &mut self.cores {
            // Committed transactions whose new data had not drained yet:
            // flush redo logs (flush-bit 0) plus the ID tuple.
            while let Some(pending) = core.pending_ipu.pop_front() {
                let redo: Vec<Record> = pending
                    .entries
                    .iter()
                    .filter(|e| !e.flush_bit())
                    .map(|e| e.redo_record())
                    .collect();
                let total = redo.len() + 1;
                let addr = core.area.reserve(total);
                let mut bytes = Vec::with_capacity(total * RECORD_BYTES);
                for r in &redo {
                    bytes.extend_from_slice(&r.encode());
                }
                bytes.extend_from_slice(&Record::id_tuple(pending.tag).encode());
                m.pm.write(addr, &bytes);
                self.stats.log_entries_written_to_pm += total as u64;
                self.stats.log_bytes_written_to_pm += bytes.len() as u64;
            }
            // The in-flight transaction, if any: flush all undo logs to
            // revoke its partial updates.
            if core.current_tag.is_some() && !core.buffer.is_empty() {
                let entries = core.buffer.drain_all();
                let addr = core.area.reserve(entries.len());
                let mut bytes = Vec::with_capacity(entries.len() * RECORD_BYTES);
                for e in &entries {
                    bytes.extend_from_slice(&e.undo_record().encode());
                }
                m.pm.write(addr, &bytes);
                self.stats.log_entries_written_to_pm += entries.len() as u64;
                self.stats.log_bytes_written_to_pm += bytes.len() as u64;
            }
            core.area.write_crash_header(&mut m.pm);
            core.current_tag = None;
        }
    }

    fn recover(&mut self, m: &mut Machine) -> RecoveryReport {
        let areas: Vec<ThreadLogArea> = self.cores.iter().map(|c| c.area).collect();
        let report = recovery::recover(&mut m.pm, &areas);
        for core in &mut self.cores {
            core.area.truncate();
            core.pending_ipu.clear();
            core.current_tag = None;
            debug_assert!(core.buffer.is_empty());
        }
        report
    }

    fn stats(&self) -> SchemeStats {
        self.stats
    }

    silo_sim::impl_scheme_snapshot!();
}

const _: () = assert!(
    silo_types::WORD_BYTES == 8,
    "the log data field is one 64-bit word"
);

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
    fn failure_free_run_writes_zero_log_bytes() {
        let cfg = SimConfig::table_ii(1);
        let mut silo = SiloScheme::new(&cfg);
        let txs = vec![tx(&[(0, 1), (8, 2)]), tx(&[(64, 3)])];
        let out = Engine::new(&cfg, &mut silo).run(vec![txs], None);
        assert_eq!(out.stats.txs_committed, 2);
        assert_eq!(out.stats.pm.log_region_writes, 0, "log-as-data fast path");
        assert_eq!(out.stats.scheme_stats.log_bytes_written_to_pm, 0);
        assert_eq!(out.stats.scheme_stats.inplace_update_words, 3);
    }

    #[test]
    fn committed_data_reaches_pm_after_run() {
        let cfg = SimConfig::table_ii(1);
        let mut silo = SiloScheme::new(&cfg);
        let out = Engine::new(&cfg, &mut silo).run(vec![vec![tx(&[(0, 7), (128, 9)])]], None);
        assert_eq!(out.stats.txs_committed, 1);
        // RunOutcome has no machine access; verify through a fresh engine's
        // oracle-free path is not possible — instead rely on the PM stats:
        // two in-place-update words accepted.
        assert_eq!(out.stats.scheme_stats.inplace_update_words, 2);
        assert!(out.stats.pm.data_region_writes >= 2);
    }

    #[test]
    fn ignorance_skips_unchanged_stores() {
        let cfg = SimConfig::table_ii(1);
        let mut silo = SiloScheme::new(&cfg);
        // Second tx rewrites the same value: old == new once data landed.
        let txs = vec![tx(&[(0, 5)]), tx(&[(0, 5)])];
        let out = Engine::new(&cfg, &mut silo).run(vec![txs], None);
        let s = out.stats.scheme_stats;
        assert_eq!(s.log_entries_generated, 2);
        assert_eq!(s.log_entries_ignored, 1);
        assert_eq!(s.inplace_update_words, 1);
    }

    #[test]
    fn merging_collapses_same_word_stores() {
        let cfg = SimConfig::table_ii(1);
        let mut silo = SiloScheme::new(&cfg);
        let txs = vec![tx(&[(0, 1), (0, 2), (0, 3)])];
        let out = Engine::new(&cfg, &mut silo).run(vec![txs], None);
        let s = out.stats.scheme_stats;
        assert_eq!(s.log_entries_merged, 2);
        assert_eq!(s.log_entries_remaining, 1);
        assert_eq!(s.inplace_update_words, 1);
    }

    #[test]
    fn overflow_writes_batched_undo_records() {
        let cfg = SimConfig::table_ii(1);
        let mut silo = SiloScheme::new(&cfg);
        // 25 distinct words > 20-entry buffer: one overflow batch of 14.
        let writes: Vec<(u64, u64)> = (0..25).map(|i| (i * 8, i + 1)).collect();
        let out = Engine::new(&cfg, &mut silo).run(vec![vec![tx(&writes)]], None);
        let s = out.stats.scheme_stats;
        assert_eq!(s.overflow_events, 1);
        assert_eq!(s.log_entries_written_to_pm, 14);
        assert_eq!(s.log_bytes_written_to_pm, 14 * RECORD_BYTES as u64);
        assert!(out.stats.pm.log_region_writes > 0);
        // All 25 words still reach the data region: 14 at overflow + 11 at
        // commit.
        assert_eq!(s.inplace_update_words, 25);
        assert_eq!(out.stats.txs_committed, 1, "no abort on overflow (§III-F)");
    }

    #[test]
    fn crash_mid_transaction_revokes_partial_updates() {
        let cfg = SimConfig::table_ii(1);
        let mut silo = SiloScheme::new(&cfg);
        // Big transaction; crash while it runs.
        let writes: Vec<(u64, u64)> = (0..40).map(|i| (i * 8, 0xBEEF + i)).collect();
        let out = Engine::new(&cfg, &mut silo).run(vec![vec![tx(&writes)]], Some(Cycles::new(400)));
        let crash = out.crash.expect("crash injected");
        assert_eq!(
            crash.committed_txs, 0,
            "tx must still be in flight at the crash"
        );
        assert!(crash.consistency.is_consistent(), "{:?}", crash.consistency);
    }

    #[test]
    fn crash_after_commit_replays_redo_logs() {
        let cfg = SimConfig::table_ii(1);
        let mut silo = SiloScheme::with_options(
            &cfg,
            SiloOptions {
                // Large drain delay guarantees the crash lands in the
                // committed-but-unflushed window (§III-G case 2).
                ipu_drain_delay: 10_000_000,
                ..SiloOptions::default()
            },
        );
        let out = Engine::new(&cfg, &mut silo).run(
            vec![vec![tx(&[(0, 1), (8, 2)])]],
            Some(Cycles::new(1_000_000)),
        );
        let crash = out.crash.expect("crash injected");
        assert_eq!(crash.committed_txs, 1);
        assert_eq!(crash.recovery.committed_txs, 1);
        assert_eq!(crash.recovery.replayed_words, 2);
        assert!(crash.consistency.is_consistent(), "{:?}", crash.consistency);
    }

    #[test]
    fn crash_probe_across_many_cycles_is_always_consistent() {
        // Sweep crash points through the whole execution window.
        for crash_at in (0..30_000).step_by(1_777) {
            let cfg = SimConfig::table_ii(2);
            let mut silo = SiloScheme::new(&cfg);
            let s0: Vec<Transaction> = (0..6)
                .map(|i| tx(&[(i * 8, i + 1), (4096 + i * 8, i + 10)]))
                .collect();
            let s1: Vec<Transaction> = (0..6)
                .map(|i| tx(&[(1 << 20 | (i * 8), i + 100)]))
                .collect();
            let out = Engine::new(&cfg, &mut silo).run(vec![s0, s1], Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
        }
    }

    #[test]
    fn options_accessor_reflects_construction() {
        let cfg = SimConfig::table_ii(1);
        let opts = SiloOptions {
            flush_bit: false,
            ..SiloOptions::default()
        };
        let silo = SiloScheme::with_options(&cfg, opts);
        assert_eq!(silo.options(), opts);
        assert_eq!(silo.battery_resident_entries(), 0);
        assert!(silo.coalesces_pm_writes());
        assert_eq!(silo.name(), "Silo");
    }
}

#[cfg(test)]
mod battery_tests {
    use super::*;
    use silo_sim::{Engine, Transaction};

    fn tx(writes: &[(u64, u64)]) -> Transaction {
        let mut b = Transaction::builder();
        for &(a, v) in writes {
            b = b.write(PhysAddr::new(a), Word::new(v));
        }
        b.build()
    }

    /// The §III-G crash flush must fit the Table IV battery budget: what
    /// the battery drains is bounded by the on-chip persistent state (log
    /// buffers + bounded pending queue + ID tuples + area headers).
    #[test]
    fn crash_flush_fits_battery_budget() {
        let cores = 8;
        let cfg = SimConfig::table_ii(cores);
        let streams: Vec<Vec<Transaction>> = (0..cores)
            .map(|c| {
                (0..20u64)
                    .map(|i| {
                        let base = (c as u64) << 26;
                        let writes: Vec<(u64, u64)> =
                            (0..18).map(|w| (base + (i * 32 + w) * 8, w + 1)).collect();
                        tx(&writes)
                    })
                    .collect()
            })
            .collect();
        let mut silo = SiloScheme::with_options(
            &cfg,
            SiloOptions {
                ipu_drain_delay: 10_000_000, // keep pending queues loaded
                ..SiloOptions::default()
            },
        );
        let before_crash_writes = {
            let out = Engine::new(&cfg, &mut silo).run(streams.clone(), None);
            out.stats.pm.accepted_bytes
        };
        let _ = before_crash_writes;
        let mut silo2 = SiloScheme::with_options(
            &cfg,
            SiloOptions {
                ipu_drain_delay: 10_000_000,
                ..SiloOptions::default()
            },
        );
        let out = Engine::new(&cfg, &mut silo2).run(streams, Some(Cycles::new(30_000)));
        let crash = out.crash.expect("crash injected");
        assert!(crash.consistency.is_consistent());
        // Battery budget: per core, <= (buffer entries + pending bound + 1
        // ID tuple per pending tx) records + one header. Use a generous
        // structural bound and assert the flush stayed within it.
        let per_core_records = cfg.log_buffer_entries as u64
            + 64 // ipu_queue_entries default
            + 64; // one ID tuple per pending transaction, overestimated
        let budget_bytes = cores as u64 * (per_core_records * crate::RECORD_BYTES as u64 + 8);
        assert!(
            out.stats.scheme_stats.log_bytes_written_to_pm <= budget_bytes,
            "crash flush {} B exceeds battery budget {} B",
            out.stats.scheme_stats.log_bytes_written_to_pm,
            budget_bytes
        );
    }

    /// Read-only transactions commit with zero persistent work.
    #[test]
    fn read_only_transactions_are_free() {
        let cfg = SimConfig::table_ii(1);
        let mut silo = SiloScheme::new(&cfg);
        let txs: Vec<Transaction> = (0..5)
            .map(|i| {
                Transaction::builder()
                    .read(PhysAddr::new(i * 64))
                    .compute(10)
                    .build()
            })
            .collect();
        let out = Engine::new(&cfg, &mut silo).run(vec![txs], None);
        assert_eq!(out.stats.txs_committed, 5);
        assert_eq!(out.stats.pm.accepted_writes, 0);
        assert_eq!(out.stats.scheme_stats.log_entries_generated, 0);
    }

    /// A tiny pending-queue bound forces commit-time draining but never
    /// breaks correctness.
    #[test]
    fn tiny_ipu_queue_still_correct() {
        let cfg = SimConfig::table_ii(1);
        let mut silo = SiloScheme::with_options(
            &cfg,
            SiloOptions {
                ipu_queue_entries: 1,
                ipu_drain_delay: 1_000_000,
                ..SiloOptions::default()
            },
        );
        let txs: Vec<Transaction> = (0..10)
            .map(|i| tx(&[(i * 8, i + 1), (4096 + i * 8, i + 2)]))
            .collect();
        let out = Engine::new(&cfg, &mut silo).run(vec![txs], None);
        assert_eq!(out.stats.txs_committed, 10);
        // All words eventually reached PM.
        assert_eq!(out.stats.scheme_stats.inplace_update_words, 20);
        for i in 0..10u64 {
            assert_eq!(out.pm.peek_word(PhysAddr::new(i * 8)), Word::new(i + 1));
        }
    }
}
