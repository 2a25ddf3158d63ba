//! The composed PM DIMM: on-PM buffer in front of the media.

use silo_types::{PhysAddr, Word, BUF_LINE_BYTES, PAGE_BYTES, WORD_BYTES};

use crate::media::line_spans;
use crate::{
    DrainReport, EventCounters, EventKind, FaultModel, Media, OnPmBuffer, PmStats,
    DEFAULT_BUFFER_LINES,
};

/// Configuration of a [`PmDevice`].
///
/// # Examples
///
/// ```
/// use silo_pm::PmDeviceConfig;
///
/// let cfg = PmDeviceConfig {
///     buffer_lines: 16,
///     ..PmDeviceConfig::default()
/// };
/// assert_eq!(cfg.buffer_lines, 16);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmDeviceConfig {
    /// Number of 256 B lines in the on-PM buffer.
    pub buffer_lines: usize,
    /// First address of the log region; writes at or above it are counted
    /// as log-region traffic. `None` counts everything as data-region.
    pub log_region_start: Option<u64>,
}

impl Default for PmDeviceConfig {
    fn default() -> Self {
        PmDeviceConfig {
            buffer_lines: DEFAULT_BUFFER_LINES,
            log_region_start: None,
        }
    }
}

/// One page of a device's logical contents, as [`PmDevice::peek_page`]
/// reads it: the [`PAGE_BYTES`] that a page of the media and a page of a
/// [`silo_types::WordImage`] both cover.
#[derive(Clone, Debug)]
pub struct PmPage {
    bytes: [u8; PAGE_BYTES],
}

impl Default for PmPage {
    fn default() -> Self {
        PmPage {
            bytes: [0; PAGE_BYTES],
        }
    }
}

impl PmPage {
    /// The page's `w`-th little-endian word.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not below [`silo_types::PAGE_WORDS`].
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        let b = w * WORD_BYTES;
        u64::from_le_bytes(self.bytes[b..b + WORD_BYTES].try_into().expect("8 bytes"))
    }
}

/// The device's power state across the crash sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Power {
    /// Normal operation: writes stage with capacity pressure, durability
    /// events count toward an armed crash point.
    On,
    /// Post-power-loss, on residual energy: staged writes are unbounded
    /// (charged once at the final drain), write-through bytes charge the
    /// budget immediately.
    Battery,
    /// Recovery: every accepted write is one `RecoveryStep` event, so a
    /// sweep can re-crash mid-recovery.
    Recovery,
}

/// The simulated PM DIMM: [`OnPmBuffer`] staging in front of [`Media`],
/// with unified traffic accounting.
///
/// All writes — word-granular new data from Silo's log-update scheme,
/// 64 B cacheline evictions, and batched undo-log flushes — enter through
/// [`PmDevice::write`] and coalesce in the buffer (paper §III-E). Reads see
/// buffered data (read-through). Because both the buffer (ADR) and the media
/// are persistent across a crash, the device's logical contents — what
/// [`PmDevice::read`] returns — are exactly the post-crash state; crash
/// handling in the simulator just stops issuing writes.
///
/// # Examples
///
/// ```
/// use silo_pm::{PmDevice, PmDeviceConfig};
/// use silo_types::{PhysAddr, Word};
///
/// let mut pm = PmDevice::new(PmDeviceConfig::default());
/// pm.write_word(PhysAddr::new(64), Word::new(99));
/// assert_eq!(pm.read_word(PhysAddr::new(64)), Word::new(99));
/// ```
#[derive(Clone, Debug)]
pub struct PmDevice {
    media: Media,
    buffer: OnPmBuffer,
    config: PmDeviceConfig,
    accepted_writes: u64,
    accepted_bytes: u64,
    data_region_writes: u64,
    log_region_writes: u64,
    reads: u64,
    power: Power,
    /// Power has failed and no budget remains: writes silently drop.
    tripped: bool,
    /// Trip power when the total event count reaches this value.
    crash_at_event: Option<u64>,
    events: EventCounters,
    /// Residual-energy bytes left while `power == Battery`.
    battery_remaining: u64,
    /// Torn-line fault armed for the final drain.
    torn_keep: Option<usize>,
    /// Trip power when `events.recovery_steps` reaches this value.
    recovery_trip_at: Option<u64>,
    dropped_writes: u64,
    dropped_bytes: u64,
}

impl PmDevice {
    /// Creates a device from a configuration.
    pub fn new(config: PmDeviceConfig) -> Self {
        PmDevice {
            media: Media::new(),
            buffer: OnPmBuffer::new(config.buffer_lines),
            config,
            accepted_writes: 0,
            accepted_bytes: 0,
            data_region_writes: 0,
            log_region_writes: 0,
            reads: 0,
            power: Power::On,
            tripped: false,
            crash_at_event: None,
            events: EventCounters::default(),
            battery_remaining: u64::MAX,
            torn_keep: None,
            recovery_trip_at: None,
            dropped_writes: 0,
            dropped_bytes: 0,
        }
    }

    fn count_accepted(&mut self, addr: PhysAddr, len: usize) {
        self.accepted_writes += 1;
        self.accepted_bytes += len as u64;
        match self.config.log_region_start {
            Some(start) if addr.as_u64() >= start => self.log_region_writes += 1,
            _ => self.data_region_writes += 1,
        }
    }

    fn count_dropped(&mut self, len: usize) {
        self.dropped_writes += 1;
        self.dropped_bytes += len as u64;
    }

    fn is_log_addr(&self, addr: PhysAddr) -> bool {
        matches!(self.config.log_region_start, Some(start) if addr.as_u64() >= start)
    }

    /// Accepts a write of arbitrary size into the on-PM buffer.
    pub fn write(&mut self, addr: PhysAddr, bytes: &[u8]) {
        if self.tripped {
            self.count_dropped(bytes.len());
            return;
        }
        match self.power {
            Power::On => {
                // A log-region write is a log-buffer drain event; power may
                // fail just before it lands.
                if self.is_log_addr(addr) && self.note_event(EventKind::LogDrain) {
                    self.count_dropped(bytes.len());
                    return;
                }
                self.count_accepted(addr, bytes.len());
                let before = self.media.line_writes();
                self.buffer.write(addr, bytes, &mut self.media);
                for _ in before..self.media.line_writes() {
                    self.note_event(EventKind::LineProgram);
                }
            }
            Power::Battery => {
                // Residual energy: stage without capacity drains; the
                // budget is charged once, at `battery_drain`.
                self.count_accepted(addr, bytes.len());
                self.buffer.stage_unbounded(addr, bytes);
            }
            Power::Recovery => {
                self.count_accepted(addr, bytes.len());
                self.buffer.write(addr, bytes, &mut self.media);
                self.note_event(EventKind::RecoveryStep);
            }
        }
    }

    /// Accepts a write that **bypasses** the coalescing buffer and programs
    /// the media directly (split at buffer-line boundaries, one line
    /// program per touched line unless data-comparison-write suppresses
    /// it). This is the path of the baseline logging schemes, which do not
    /// have Silo's §III-E on-PM write-coalescing mechanism. Any staged copy
    /// of the bytes is patched so the two paths stay coherent.
    ///
    /// Returns the number of media line programs actually performed.
    pub fn write_through(&mut self, addr: PhysAddr, bytes: &[u8]) -> u64 {
        if self.tripped {
            self.count_dropped(bytes.len());
            return 0;
        }
        match self.power {
            Power::On => {
                if self.is_log_addr(addr) && self.note_event(EventKind::LogDrain) {
                    self.count_dropped(bytes.len());
                    return 0;
                }
                self.count_accepted(addr, bytes.len());
                let n = self.write_through_raw(addr, bytes);
                for _ in 0..n {
                    self.note_event(EventKind::LineProgram);
                }
                n
            }
            Power::Battery => {
                // Bypass writes program the media immediately, so they
                // charge the residual-energy budget as they happen.
                let keep = (self.battery_remaining.min(bytes.len() as u64)) as usize;
                self.battery_remaining -= keep as u64;
                if keep > 0 {
                    self.count_accepted(addr, keep);
                }
                if keep < bytes.len() {
                    self.count_dropped(bytes.len() - keep);
                    self.tripped = true;
                }
                if keep == 0 {
                    return 0;
                }
                self.write_through_raw(addr, &bytes[..keep])
            }
            Power::Recovery => {
                self.count_accepted(addr, bytes.len());
                let n = self.write_through_raw(addr, bytes);
                self.note_event(EventKind::RecoveryStep);
                n
            }
        }
    }

    /// The uncounted bypass path: patches staged copies and programs the
    /// media, split at buffer-line boundaries.
    fn write_through_raw(&mut self, addr: PhysAddr, bytes: &[u8]) -> u64 {
        self.buffer.patch_if_staged(addr, bytes);
        let before = self.media.line_writes();
        for (line, off, span) in line_spans(addr, bytes.len()) {
            let base = PhysAddr::new(line * BUF_LINE_BYTES as u64);
            self.media.write_masked(base, &bytes[span], off);
        }
        self.media.line_writes() - before
    }

    /// Accepts an 8 B word write (the Silo in-place-update granularity,
    /// §III-E: "each new data is atomically written to PM without wasting
    /// the bus width").
    pub fn write_word(&mut self, addr: PhysAddr, word: Word) {
        self.write(addr, &word.to_le_bytes());
    }

    /// Reads `len` bytes of the device's logical contents (buffer overrides
    /// media).
    pub fn read(&mut self, addr: PhysAddr, len: usize) -> Vec<u8> {
        self.reads += 1;
        self.buffer.read_through(addr, len, &self.media)
    }

    /// Reads one word.
    pub fn read_word(&mut self, addr: PhysAddr) -> Word {
        self.reads += 1;
        self.peek_word(addr)
    }

    /// Reads one little-endian `u64`.
    pub fn read_u64(&mut self, addr: PhysAddr) -> u64 {
        self.read_word(addr).as_u64()
    }

    /// Peeks at the logical contents without counting a read (for test
    /// oracles and recovery-verification code).
    pub fn peek(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        self.buffer.read_through(addr, len, &self.media)
    }

    /// [`peek`](Self::peek) into a caller-provided buffer — allocation-free
    /// bulk peeks for differential digests that scan a large footprint.
    pub fn peek_into(&self, addr: PhysAddr, out: &mut [u8]) {
        self.buffer.read_through_into(addr, out, &self.media);
    }

    /// Peeks page `index`, the [`PAGE_BYTES`] from `index * PAGE_BYTES`,
    /// into `out` without counting a read: one media page lookup, with the
    /// staged lines over the page laid on top. Each word reads as
    /// [`peek_word`](Self::peek_word) reads it. The crash verdict and the
    /// crash experiments' image digest read PM this way, a page per
    /// page of the words they check.
    pub fn peek_page(&self, index: u64, out: &mut PmPage) {
        self.peek_into(PhysAddr::new(index * PAGE_BYTES as u64), &mut out.bytes);
    }

    /// Peeks one word without counting a read. Allocation-free: this is
    /// the engine's per-load hot path, and an aligned word, the one it
    /// reads, is one media word merged with a staged line's chunk, if any.
    pub fn peek_word(&self, addr: PhysAddr) -> Word {
        if addr.is_word_aligned() {
            return Word::new(self.buffer.read_word_through(addr, &self.media));
        }
        let mut b = [0u8; WORD_BYTES];
        self.buffer.read_through_into(addr, &mut b, &self.media);
        Word::from_le_bytes(b)
    }

    /// Drains the on-PM buffer to the media.
    pub fn flush_all(&mut self) {
        self.buffer.flush_all(&mut self.media);
    }

    /// Drains the on-PM buffer to the media, emitting a `BufferDrain`
    /// event (arg = lines drained) to `probe` when it drained any.
    pub fn flush_all_probed(&mut self, probe: &mut silo_probe::ProbeHub, at: u64) {
        let drained = self.buffer.occupancy() as u64;
        self.buffer.flush_all(&mut self.media);
        if drained > 0 {
            probe.emit(silo_probe::ProbeEventKind::BufferDrain, None, at, drained);
        }
    }

    /// A snapshot of all traffic counters.
    pub fn stats(&self) -> PmStats {
        PmStats {
            accepted_writes: self.accepted_writes,
            accepted_bytes: self.accepted_bytes,
            data_region_writes: self.data_region_writes,
            log_region_writes: self.log_region_writes,
            media_line_writes: self.media.line_writes(),
            media_bits_programmed: self.media.bits_programmed(),
            dcw_suppressed: self.media.dcw_suppressed(),
            coalesced_hits: self.buffer.coalesced_hits(),
            buffer_fills: self.buffer.fills(),
            buffer_forced_drains: self.buffer.forced_drains(),
            reads: self.reads,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &PmDeviceConfig {
        &self.config
    }

    /// Per-line wear counters (endurance analysis; see
    /// [`WearTracker`](crate::WearTracker)), derived from the media's
    /// pages.
    pub fn wear(&self) -> crate::WearTracker {
        self.media.wear()
    }

    /// Arms an event-indexed crash point: power trips when the total
    /// durability-event count reaches `n`. The N-th event is the last to
    /// complete; everything after it drops. `n = 0` trips immediately —
    /// power fails before anything runs.
    pub fn arm_crash_at_event(&mut self, n: u64) {
        self.crash_at_event = Some(n);
        if n <= self.events.total() {
            self.tripped = true;
        }
    }

    /// Counts one durability event while power is on, returning whether
    /// the device is (now) tripped. Events are not counted on battery or
    /// once tripped; recovery counts only its own `RecoveryStep`s.
    pub fn note_event(&mut self, kind: EventKind) -> bool {
        if self.tripped {
            return true;
        }
        match (self.power, kind) {
            (Power::On, k) if k != EventKind::RecoveryStep => {
                self.events.bump(k);
                if self.crash_at_event == Some(self.events.total()) {
                    self.tripped = true;
                }
            }
            (Power::Recovery, EventKind::RecoveryStep) => {
                self.events.bump(kind);
                if self.recovery_trip_at == Some(self.events.recovery_steps) {
                    self.tripped = true;
                }
            }
            _ => {}
        }
        self.tripped
    }

    /// The durability events counted so far.
    pub fn events(&self) -> EventCounters {
        self.events
    }

    /// Whether power has failed: subsequent writes drop silently.
    pub fn power_tripped(&self) -> bool {
        self.tripped
    }

    /// Writes (and bytes) silently dropped after power failure.
    pub fn dropped(&self) -> (u64, u64) {
        (self.dropped_writes, self.dropped_bytes)
    }

    /// Crash-time discard of an uncommitted persistence-domain buffer
    /// entry: reverts the logical contents at `addr` to `bytes`, the
    /// image from before the discarded write. This models controllers
    /// that tag buffered lines with a transaction (LAD's MC buffer,
    /// paper §V) — power failure invalidates the tags, so writes the
    /// simulator already performed eagerly on the media were never
    /// architecturally valid. A bookkeeping rollback, not a new program:
    /// no events, no traffic counters, no fault-model budget.
    pub fn discard_to(&mut self, addr: PhysAddr, bytes: &[u8]) {
        self.buffer.patch_if_staged(addr, bytes);
        self.media.revert(addr, bytes);
    }

    /// Switches to residual-energy operation after power loss: staged
    /// writes become unbounded (charged at
    /// [`battery_drain`](Self::battery_drain)), bypass writes charge
    /// `fault`'s byte budget immediately, and the armed crash point no
    /// longer fires.
    pub fn begin_battery(&mut self, fault: &FaultModel) {
        self.power = Power::Battery;
        self.tripped = false;
        self.battery_remaining = fault.battery_budget_bytes.unwrap_or(u64::MAX);
        self.torn_keep = fault.torn_line_keep_bytes;
    }

    /// The final ADR drain on residual energy: pushes staged lines to the
    /// media within the remaining budget (applying any armed torn-line
    /// fault), then the device goes dark — every later write drops until
    /// [`begin_recovery`](Self::begin_recovery).
    pub fn battery_drain(&mut self) -> DrainReport {
        let report =
            self.buffer
                .crash_drain(&mut self.media, self.battery_remaining, self.torn_keep);
        self.battery_remaining = 0;
        self.torn_keep = None;
        self.tripped = true;
        report
    }

    /// Restores power for recovery. Each accepted write counts one
    /// `RecoveryStep` event; if `crash_after_steps` is set, power trips
    /// again right after that many steps — the double-crash fault.
    pub fn begin_recovery(&mut self, crash_after_steps: Option<u64>) {
        self.power = Power::Recovery;
        self.tripped = false;
        self.recovery_trip_at = crash_after_steps.map(|n| self.events.recovery_steps + n);
    }

    /// Ends recovery: normal powered operation resumes, with the crash
    /// point disarmed.
    pub fn end_recovery(&mut self) {
        self.power = Power::On;
        self.tripped = false;
        self.crash_at_event = None;
        self.recovery_trip_at = None;
        self.battery_remaining = u64::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write(PhysAddr::new(100), &[1, 2, 3]);
        assert_eq!(pm.read(PhysAddr::new(100), 3), vec![1, 2, 3]);
        assert_eq!(pm.stats().reads, 1);
    }

    #[test]
    fn word_round_trip() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(8), Word::new(0xfeed));
        assert_eq!(pm.read_word(PhysAddr::new(8)), Word::new(0xfeed));
        assert_eq!(pm.read_u64(PhysAddr::new(8)), 0xfeed);
    }

    #[test]
    fn region_classification() {
        let mut pm = PmDevice::new(PmDeviceConfig {
            log_region_start: Some(1 << 20),
            ..PmDeviceConfig::default()
        });
        pm.write(PhysAddr::new(0), &[1]);
        pm.write(PhysAddr::new(1 << 20), &[1]);
        pm.write(PhysAddr::new((1 << 20) + 64), &[1]);
        let s = pm.stats();
        assert_eq!(s.data_region_writes, 1);
        assert_eq!(s.log_region_writes, 2);
        assert_eq!(s.accepted_writes, 3);
    }

    #[test]
    fn no_boundary_counts_everything_as_data() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write(PhysAddr::new(1 << 30), &[1]);
        assert_eq!(pm.stats().data_region_writes, 1);
        assert_eq!(pm.stats().log_region_writes, 0);
    }

    #[test]
    fn peek_word_equals_the_generic_read_through() {
        let mut d = PmDevice::new(PmDeviceConfig::default());
        // Media words under lines 0 and 1, and one across a page boundary.
        d.write_through(PhysAddr::new(0), &[0x11; 512]);
        d.write_through(PhysAddr::new(4092), &[0x22; 8]);
        // Line 0 staged over part of one word and all of another; line 1
        // not staged.
        d.write(PhysAddr::new(18), &[0x33; 4]);
        d.write(PhysAddr::new(40), &[0x44; 8]);
        for addr in (0..600).chain(4085..4100).map(PhysAddr::new) {
            let mut want = [0u8; WORD_BYTES];
            want.copy_from_slice(&d.peek(addr, WORD_BYTES));
            assert_eq!(d.peek_word(addr), Word::from_le_bytes(want), "at {addr}");
        }
        assert_eq!(
            d.peek_word(PhysAddr::new(16)).as_u64(),
            0x1111_3333_3333_1111
        );
        assert_eq!(
            d.peek_word(PhysAddr::new(40)),
            Word::new(0x4444_4444_4444_4444)
        );
        assert_eq!(
            d.peek_word(PhysAddr::new(256)),
            Word::new(0x1111_1111_1111_1111)
        );
    }

    #[test]
    fn a_peeked_page_reads_each_word_as_peek_word_does() {
        let mut d = PmDevice::new(PmDeviceConfig::default());
        // Media under most of page 1, staged lines over parts of it, and
        // page 2 never written.
        d.write_through(PhysAddr::new(4096), &[0x11; 3000]);
        d.write(PhysAddr::new(4096 + 18), &[0x33; 4]);
        d.write(PhysAddr::new(4096 + 2040), &[0x44; 16]);
        d.write_word(PhysAddr::new(8184), Word::new(7));
        let mut page = PmPage::default();
        for index in [1, 2] {
            d.peek_page(index, &mut page);
            for w in 0..silo_types::PAGE_WORDS {
                let addr = PhysAddr::new(index * PAGE_BYTES as u64 + (w * WORD_BYTES) as u64);
                assert_eq!(page.word(w), d.peek_word(addr).as_u64(), "at {addr}");
            }
        }
        assert_eq!(page.word(0), 0, "page 2 reads as zero");
        assert_eq!(d.stats().reads, 0, "a peek counts no read");
    }

    #[test]
    fn peek_does_not_count_reads() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(0), Word::new(5));
        assert_eq!(pm.peek_word(PhysAddr::new(0)), Word::new(5));
        assert_eq!(pm.stats().reads, 0);
    }

    #[test]
    fn evicted_cacheline_after_in_place_update_is_dcw_free() {
        // The §III-D scenario: Silo's IPU wrote the words; the later
        // cacheline eviction carries identical bytes, so the media is not
        // programmed again.
        let mut pm = PmDevice::new(PmDeviceConfig {
            buffer_lines: 1, // force immediate drains so both writes hit media
            ..PmDeviceConfig::default()
        });
        // IPU: two modified words of line 0.
        pm.write_word(PhysAddr::new(0), Word::new(0xa1));
        pm.write_word(PhysAddr::new(8), Word::new(0xb2));
        // Unrelated line allocation drains line 0 to media.
        pm.write(PhysAddr::new(4096), &[1u8; 8]);
        let before = pm.stats().media_line_writes;
        // CE: the full 64B line with the same two modified words; other
        // words still zero (matching fresh media).
        let mut line = [0u8; 64];
        line[0..8].copy_from_slice(&Word::new(0xa1).to_le_bytes());
        line[8..16].copy_from_slice(&Word::new(0xb2).to_le_bytes());
        pm.write(PhysAddr::new(0), &line);
        pm.write(PhysAddr::new(8192), &[1u8; 8]); // drain line 0 again
        let after = pm.stats().media_line_writes;
        assert_eq!(after, before + 1, "only the 8192 drain programs media");
        assert!(pm.stats().dcw_suppressed >= 1);
    }

    #[test]
    fn write_through_programs_media_immediately() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let n = pm.write_through(PhysAddr::new(0), &[1u8; 8]);
        assert_eq!(n, 1);
        assert_eq!(pm.stats().media_line_writes, 1);
        assert_eq!(pm.read(PhysAddr::new(0), 8), vec![1u8; 8]);
    }

    #[test]
    fn write_through_does_not_coalesce_repeats() {
        // The baseline behaviour: flushing the same line per store costs a
        // media program per flush (the paper's Base traffic model).
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let mut line = [0u8; 64];
        for i in 0..4 {
            line[i] = i as u8 + 1;
            pm.write_through(PhysAddr::new(0), &line);
        }
        assert_eq!(pm.stats().media_line_writes, 4);
    }

    #[test]
    fn write_through_identical_is_dcw_suppressed() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        assert_eq!(pm.write_through(PhysAddr::new(0), &[5u8; 8]), 1);
        assert_eq!(pm.write_through(PhysAddr::new(0), &[5u8; 8]), 0);
    }

    #[test]
    fn write_through_splits_across_buffer_lines() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let n = pm.write_through(PhysAddr::new(250), &[9u8; 12]);
        assert_eq!(n, 2);
        assert_eq!(pm.read(PhysAddr::new(250), 12), vec![9u8; 12]);
    }

    #[test]
    fn write_through_keeps_staged_lines_coherent() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write(PhysAddr::new(0), &[1u8; 8]); // staged
        pm.write_through(PhysAddr::new(0), &[2u8; 8]); // bypass
                                                       // Read must see the write-through bytes, not the stale staged copy.
        assert_eq!(pm.read(PhysAddr::new(0), 8), vec![2u8; 8]);
        pm.flush_all();
        assert_eq!(pm.read(PhysAddr::new(0), 8), vec![2u8; 8]);
    }

    #[test]
    fn flush_all_persists_logical_contents() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write(PhysAddr::new(0), &[7; 16]);
        pm.flush_all();
        assert_eq!(pm.read(PhysAddr::new(0), 16), vec![7; 16]);
        assert_eq!(pm.stats().media_line_writes, 1);
    }

    #[test]
    fn wear_tracks_media_programs() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_through(PhysAddr::new(0), &[1u8; 8]);
        pm.write_through(PhysAddr::new(0), &[2u8; 8]);
        pm.write_through(PhysAddr::new(256), &[1u8; 8]);
        assert_eq!(pm.wear().total_programs(), 3);
        assert_eq!(pm.wear().max_wear(), 2);
        assert_eq!(pm.wear().lines_touched(), 2);
    }

    #[test]
    fn events_count_and_trip_at_armed_point() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.arm_crash_at_event(2);
        assert!(!pm.note_event(EventKind::Store));
        assert!(pm.note_event(EventKind::WpqAdmit), "second event trips");
        assert!(pm.power_tripped());
        // Tripped: no further counting, writes drop.
        assert!(pm.note_event(EventKind::Store));
        assert_eq!(pm.events().total(), 2);
        pm.write(PhysAddr::new(0), &[1; 8]);
        assert_eq!(pm.dropped(), (1, 8));
        assert_eq!(pm.peek(PhysAddr::new(0), 8), vec![0; 8]);
    }

    #[test]
    fn log_region_writes_count_log_drain_events() {
        let mut pm = PmDevice::new(PmDeviceConfig {
            log_region_start: Some(1 << 20),
            ..PmDeviceConfig::default()
        });
        pm.write(PhysAddr::new(0), &[1; 8]);
        pm.write(PhysAddr::new(1 << 20), &[1; 8]);
        pm.write_through(PhysAddr::new((1 << 20) + 256), &[1; 8]);
        let e = pm.events();
        assert_eq!(e.log_drains, 2);
        assert!(e.line_programs >= 1, "write_through programs the media");
    }

    #[test]
    fn battery_charges_bypass_writes_and_drains_staged() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write(PhysAddr::new(0), &[7; 8]); // staged pre-crash
        pm.begin_battery(&FaultModel::bounded_battery(16));
        pm.write_through(PhysAddr::new(256), &[8; 8]); // charges 8 bytes
        pm.write(PhysAddr::new(512), &[9; 8]); // staged, charged at drain
        let report = pm.battery_drain();
        // 8 bytes of budget left for 16 staged bytes: oldest line drains.
        assert_eq!(report.drained_lines, 1);
        assert_eq!(report.discarded_lines, 1);
        assert!(pm.power_tripped());
        assert_eq!(pm.peek(PhysAddr::new(0), 8), vec![7; 8]);
        assert_eq!(pm.peek(PhysAddr::new(256), 8), vec![8; 8]);
        assert_eq!(pm.peek(PhysAddr::new(512), 8), vec![0; 8], "lost");
    }

    #[test]
    fn battery_exhaustion_drops_bypass_suffix() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.begin_battery(&FaultModel::bounded_battery(4));
        let n = pm.write_through(PhysAddr::new(0), &[5; 8]);
        assert!(n >= 1, "the first 4 bytes still program");
        assert!(pm.power_tripped());
        assert_eq!(pm.peek(PhysAddr::new(0), 8), vec![5, 5, 5, 5, 0, 0, 0, 0]);
        pm.write_through(PhysAddr::new(64), &[6; 8]);
        assert_eq!(pm.peek(PhysAddr::new(64), 8), vec![0; 8]);
    }

    #[test]
    fn recovery_steps_count_and_double_crash_trips() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.begin_battery(&FaultModel::perfect_adr());
        pm.battery_drain();
        pm.begin_recovery(Some(2));
        pm.write(PhysAddr::new(0), &[1; 8]);
        pm.write(PhysAddr::new(8), &[2; 8]);
        assert!(pm.power_tripped(), "second recovery step trips");
        pm.write(PhysAddr::new(16), &[3; 8]);
        assert_eq!(pm.events().recovery_steps, 2);
        // The first two steps persisted (they are staged in ADR); the
        // third dropped.
        assert_eq!(pm.peek(PhysAddr::new(8), 8), vec![2; 8]);
        assert_eq!(pm.peek(PhysAddr::new(16), 8), vec![0; 8]);
        pm.end_recovery();
        assert!(!pm.power_tripped());
        pm.write(PhysAddr::new(16), &[3; 8]);
        assert_eq!(pm.peek(PhysAddr::new(16), 8), vec![3; 8]);
    }

    #[test]
    fn clean_operation_is_unaffected_by_event_counting() {
        let mut a = PmDevice::new(PmDeviceConfig::default());
        let mut b = PmDevice::new(PmDeviceConfig::default());
        b.note_event(EventKind::Store);
        b.note_event(EventKind::WpqAdmit);
        for pm in [&mut a, &mut b] {
            pm.write(PhysAddr::new(0), &[1; 64]);
            pm.write_through(PhysAddr::new(256), &[2; 8]);
            pm.flush_all();
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.peek(PhysAddr::new(0), 64), b.peek(PhysAddr::new(0), 64));
    }

    #[test]
    fn stats_accumulate_bytes() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write(PhysAddr::new(0), &[0; 8]);
        pm.write(PhysAddr::new(64), &[0; 64]);
        assert_eq!(pm.stats().accepted_bytes, 72);
        assert_eq!(pm.stats().accepted_writes, 2);
    }
}
