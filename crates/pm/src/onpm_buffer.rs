//! The internal DIMM write buffer where PM writes coalesce (paper §III-E).

use std::collections::VecDeque;

use silo_types::{FxHashMap, PhysAddr, BUF_LINE_BYTES};

use crate::media::{line_spans, LineMask, LINE_CHUNKS};
use crate::{DrainReport, Media};

/// Default number of 256 B lines in the on-PM buffer.
///
/// The paper cites the on-DIMM buffering of real PM hardware (\[50\], \[55\],
/// \[58\]); Optane's XPBuffer is 16 KB, i.e. 64 lines of 256 B. We use that as
/// the default; the paper's results depend only on the buffer being large
/// enough to hold the write burst of a committing transaction.
pub const DEFAULT_BUFFER_LINES: usize = 64;

/// The byte mask of bytes `lo..hi` of one eight-byte chunk
/// (`lo < hi <= 8`): `0xff` in each.
#[inline]
fn byte_span(lo: usize, hi: usize) -> u64 {
    (u64::MAX >> (64 - 8 * (hi - lo))) << (8 * lo)
}

/// One staged buffer line: its line index, its data bytes, and which of
/// them are valid as the chunk masks [`Media::program_line`] takes.
#[derive(Clone)]
struct Slot {
    line: u64,
    data: [u8; BUF_LINE_BYTES],
    mask: LineMask,
}

impl Slot {
    fn new(line: u64) -> Self {
        Slot {
            line,
            data: [0; BUF_LINE_BYTES],
            mask: [0; LINE_CHUNKS],
        }
    }

    /// Stages `bytes` at offset `off` of the line: last write wins.
    fn stage(&mut self, off: usize, bytes: &[u8]) {
        let end = off + bytes.len();
        silo_types::fixed_len!(b = bytes => self.data[off..end].copy_from_slice(b));
        let mut lo = off;
        while lo < end {
            let chunk = lo / 8;
            let hi = end.min(chunk * 8 + 8);
            self.mask[chunk] |= byte_span(lo - chunk * 8, hi - chunk * 8);
            lo = hi;
        }
    }

    /// Overlays the valid bytes at offset `off` onto `out`.
    fn read_into(&self, off: usize, out: &mut [u8]) {
        for (i, o) in out.iter_mut().enumerate() {
            let j = off + i;
            if self.mask[j / 8] >> (j % 8 * 8) & 0xff != 0 {
                *o = self.data[j];
            }
        }
    }

    fn valid_bytes(&self) -> u64 {
        self.mask
            .iter()
            .map(|m| u64::from(m.count_ones()))
            .sum::<u64>()
            / 8
    }

    /// Programs the bytes of the line that `mask` marks: all its valid
    /// ones, or a torn prefix of them.
    fn program(&self, media: &mut Media, mask: &LineMask) {
        let base = PhysAddr::new(self.line * BUF_LINE_BYTES as u64);
        media.program_line(base, &self.data, mask);
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (line, valid) = (self.line, self.valid_bytes());
        write!(f, "Slot(line {line}, {valid}/{BUF_LINE_BYTES} bytes valid)")
    }
}

/// The on-PM buffer: a small, ADR-protected staging area inside the PM DIMM
/// where incoming writes of any size coalesce into 256 B lines before being
/// programmed into the [`Media`] (paper §III-E, Fig 9).
///
/// All three coalescing cases of Fig 9 fall out of the byte-masked staging:
///
/// 1. **Overlapping words** (W1/W2/W3 sharing bytes): later bytes overwrite
///    earlier staged bytes in place — last write wins, order preserved.
/// 2. **Same line, disjoint words** (W4/W5): both land in one staged line
///    and cost a single media program.
/// 3. **Words sharing lines with cachelines** (W6): 8 B words and 64 B
///    cachelines stage into the same lines and drain together.
///
/// Capacity is bounded; allocating a new line when full drains the oldest
/// staged line (FIFO) to the media. Because the buffer sits in the ADR
/// domain, its contents survive a crash ("all the data will survive a crash
/// by using ADR", §III-E) — crash handling simply [flushes](Self::flush_all)
/// it.
///
/// Lines stage in slots of one ring, oldest first, which is the drain
/// order, and a map from line index to slot finds a staged line. A fill
/// takes the next slot of the ring and a drain gives back the oldest, so
/// staging allocates nothing once the ring holds `capacity` slots, and a
/// clone copies only the occupied ones.
///
/// # Examples
///
/// ```
/// use silo_pm::{Media, OnPmBuffer};
/// use silo_types::PhysAddr;
///
/// let mut media = Media::new();
/// let mut buf = OnPmBuffer::new(4);
/// buf.write(PhysAddr::new(400), &[1u8; 8], &mut media);  // W4 of Fig 9
/// buf.write(PhysAddr::new(408), &[2u8; 8], &mut media);  // W5: coalesces
/// buf.flush_all(&mut media);
/// assert_eq!(media.line_writes(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct OnPmBuffer {
    capacity: usize,
    /// The staged lines, oldest first.
    slots: VecDeque<Slot>,
    /// Staged line index → its slot's sequence number, which less
    /// `drained` is the slot's position in `slots`.
    index: FxHashMap<u64, u64>,
    /// Slots drained so far: the oldest slot's sequence number.
    drained: u64,
    coalesced_hits: u64,
    fills: u64,
    forced_drains: u64,
}

impl OnPmBuffer {
    /// Creates a buffer with `capacity` lines of 256 B.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "on-PM buffer needs at least one line");
        OnPmBuffer {
            capacity,
            slots: VecDeque::with_capacity(capacity),
            index: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            drained: 0,
            coalesced_hits: 0,
            fills: 0,
            forced_drains: 0,
        }
    }

    /// The staged slot of buffer line `line`, if any.
    fn slot(&self, line: u64) -> Option<&Slot> {
        let seq = *self.index.get(&line)?;
        Some(&self.slots[(seq - self.drained) as usize])
    }

    fn slot_mut(&mut self, line: u64) -> Option<&mut Slot> {
        let seq = *self.index.get(&line)?;
        Some(&mut self.slots[(seq - self.drained) as usize])
    }

    /// Stages buffer line `line` in a new slot, the youngest. A clone's
    /// ring holds only its occupied slots, so the first fill after one
    /// grows it back to `capacity` at once.
    fn fill(&mut self, line: u64) -> &mut Slot {
        self.slots
            .reserve(self.capacity.saturating_sub(self.slots.len()).max(1));
        let seq = self.drained + self.slots.len() as u64;
        self.index.insert(line, seq);
        self.slots.push_back(Slot::new(line));
        self.slots.back_mut().expect("just staged")
    }

    /// Takes the oldest staged line out of the buffer.
    fn pop_oldest(&mut self) -> Option<Slot> {
        let slot = self.slots.pop_front()?;
        self.index.remove(&slot.line);
        self.drained += 1;
        Some(slot)
    }

    /// Stages `bytes` at `addr`, splitting across buffer lines as needed.
    /// Capacity pressure drains the oldest staged line into `media`.
    pub fn write(&mut self, addr: PhysAddr, bytes: &[u8], media: &mut Media) {
        for (line, off, span) in line_spans(addr, bytes.len()) {
            self.write_within_line(line, off, &bytes[span], media);
        }
    }

    fn write_within_line(&mut self, line: u64, off: usize, bytes: &[u8], media: &mut Media) {
        debug_assert!(off + bytes.len() <= BUF_LINE_BYTES);
        if let Some(slot) = self.slot_mut(line) {
            slot.stage(off, bytes);
            self.coalesced_hits += 1;
            return;
        }
        if self.slots.len() == self.capacity {
            let oldest = self.pop_oldest().expect("a full buffer has an oldest line");
            oldest.program(media, &oldest.mask);
            self.forced_drains += 1;
        }
        self.fill(line).stage(off, bytes);
        self.fills += 1;
    }

    /// Drains every staged line to the media, oldest first. Used at the end
    /// of a simulation and when a crash triggers the ADR drain.
    pub fn flush_all(&mut self, media: &mut Media) {
        while let Some(slot) = self.pop_oldest() {
            slot.program(media, &slot.mask);
        }
        debug_assert!(self.index.is_empty());
    }

    /// Stages `bytes` without enforcing capacity — no forced media drains.
    /// This is the battery-powered write path: after power loss the
    /// scheme's `on_crash` records land in the ADR domain first and are
    /// charged against the residual-energy budget once, when
    /// [`crash_drain`](Self::crash_drain) pushes them to the media.
    pub fn stage_unbounded(&mut self, addr: PhysAddr, bytes: &[u8]) {
        for (line, off, span) in line_spans(addr, bytes.len()) {
            match self.slot_mut(line) {
                Some(slot) => slot.stage(off, &bytes[span]),
                None => self.fill(line).stage(off, &bytes[span]),
            }
        }
    }

    /// The post-crash ADR drain under a [`FaultModel`](crate::FaultModel):
    /// drains staged lines FIFO-oldest-first, charging each line's valid
    /// bytes against the residual-energy `budget`. The line on which the
    /// budget dies persists a torn prefix; every younger staged line is
    /// lost. If `torn_keep` is set, the program that was in flight at the
    /// instant of power loss (the FIFO head) first tears to its leading
    /// `torn_keep` valid bytes — the ADR copy survives, so a sufficient
    /// budget re-programs it in full.
    ///
    /// The buffer is empty afterwards regardless of what persisted.
    pub fn crash_drain(
        &mut self,
        media: &mut Media,
        budget: u64,
        torn_keep: Option<usize>,
    ) -> DrainReport {
        let mut report = DrainReport::default();
        if let (Some(keep), Some(head)) = (torn_keep, self.slots.front()) {
            if head.valid_bytes() > keep as u64 {
                head.program(media, &truncate_mask(&head.mask, keep as u64));
                report.torn_lines += 1;
            }
        }
        let mut remaining = budget;
        while let Some(slot) = self.pop_oldest() {
            let valid = slot.valid_bytes();
            if valid <= remaining {
                slot.program(media, &slot.mask);
                remaining -= valid;
                report.drained_lines += 1;
                report.drained_bytes += valid;
            } else if remaining > 0 {
                // The budget dies mid-program: a torn partial line.
                slot.program(media, &truncate_mask(&slot.mask, remaining));
                report.torn_lines += 1;
                report.drained_bytes += remaining;
                report.discarded_bytes += valid - remaining;
                remaining = 0;
            } else {
                report.discarded_lines += 1;
                report.discarded_bytes += valid;
            }
        }
        debug_assert!(self.index.is_empty());
        report
    }

    /// Reads `len` bytes at `addr`, with staged bytes overriding the media —
    /// the DIMM-internal read path sees buffered data.
    pub fn read_through(&self, addr: PhysAddr, len: usize, media: &Media) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_through_into(addr, &mut out, media);
        out
    }

    /// [`read_through`](Self::read_through) into a caller-provided buffer —
    /// the allocation-free word-read path of the engine's hot loop. Staged
    /// lines are looked up once per buffer line covered, not per byte.
    pub fn read_through_into(&self, addr: PhysAddr, out: &mut [u8], media: &Media) {
        media.read_into(addr, out);
        if self.slots.is_empty() {
            return;
        }
        for (line, off, span) in line_spans(addr, out.len()) {
            if let Some(slot) = self.slot(line) {
                slot.read_into(off, &mut out[span]);
            }
        }
    }

    /// The little-endian word at the word-aligned `addr`, staged bytes
    /// overriding the media's: one slot lookup, and the media's word as it
    /// is when no line is staged over it.
    pub fn read_word_through(&self, addr: PhysAddr, media: &Media) -> u64 {
        debug_assert!(addr.is_word_aligned(), "{addr} is not word-aligned");
        let stored = media.read_u64(addr);
        if self.slots.is_empty() {
            return stored;
        }
        match self.slot(addr.buf_line_index()) {
            None => stored,
            Some(slot) => {
                let off = addr.offset_in_buf_line();
                let valid = slot.mask[off / 8];
                let staged =
                    u64::from_le_bytes(slot.data[off..off + 8].try_into().expect("8 bytes"));
                (stored & !valid) | (staged & valid)
            }
        }
    }

    /// Updates any staged copy of the written bytes *without* allocating
    /// new lines — used by the write-through path to keep a staged line
    /// coherent with bytes that bypassed the buffer. Returns how many bytes
    /// were patched into staged lines. Staged lines are looked up once per
    /// buffer line covered, not per byte, and not at all when none is
    /// staged.
    pub fn patch_if_staged(&mut self, addr: PhysAddr, bytes: &[u8]) -> usize {
        if self.slots.is_empty() {
            return 0;
        }
        let mut patched = 0;
        for (line, off, span) in line_spans(addr, bytes.len()) {
            if let Some(slot) = self.slot_mut(line) {
                patched += span.len();
                slot.stage(off, &bytes[span]);
            }
        }
        patched
    }

    /// Number of writes that hit an already-staged line (Fig 9 coalescing).
    pub fn coalesced_hits(&self) -> u64 {
        self.coalesced_hits
    }

    /// Number of line allocations.
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Number of drains forced by capacity pressure.
    pub fn forced_drains(&self) -> u64 {
        self.forced_drains
    }

    /// Number of lines currently staged.
    pub fn occupancy(&self) -> usize {
        self.slots.len()
    }

    /// The configured capacity in lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A copy of `mask` keeping only its first `keep` valid bytes — the
/// persisted prefix of a torn line program.
fn truncate_mask(mask: &LineMask, mut keep: u64) -> LineMask {
    mask.map(|chunk| {
        let mut kept = 0;
        let mut rest = chunk;
        while rest != 0 && keep > 0 {
            let byte = 0xff << (rest.trailing_zeros() / 8 * 8);
            kept |= byte;
            rest &= !byte;
            keep -= 1;
        }
        kept
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Media, OnPmBuffer) {
        (Media::new(), OnPmBuffer::new(4))
    }

    #[test]
    fn fig9_case1_overlapping_words_coalesce_last_write_wins() {
        // W1 (addr 16), W2 (addr 24), W3 (addr 20) — W3 overlaps both.
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(16), &[0x11; 8], &mut media);
        buf.write(PhysAddr::new(24), &[0x22; 8], &mut media);
        buf.write(PhysAddr::new(20), &[0x33; 8], &mut media);
        buf.flush_all(&mut media);
        assert_eq!(media.line_writes(), 1, "one media program for the line");
        assert_eq!(media.read(PhysAddr::new(16), 4), vec![0x11; 4]);
        assert_eq!(media.read(PhysAddr::new(20), 8), vec![0x33; 8]);
        assert_eq!(media.read(PhysAddr::new(28), 4), vec![0x22; 4]);
    }

    #[test]
    fn fig9_case2_disjoint_words_share_one_program() {
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(400), &[4; 8], &mut media);
        buf.write(PhysAddr::new(410), &[5; 8], &mut media);
        buf.flush_all(&mut media);
        assert_eq!(media.line_writes(), 1);
        assert_eq!(buf.coalesced_hits(), 1);
    }

    #[test]
    fn fig9_case3_word_coalesces_with_cacheline() {
        let (mut media, mut buf) = setup();
        // 64B cacheline eviction at 512, then an 8B word at 576+8 lands in a
        // *different* line; a word at 520 lands in the same line.
        buf.write(PhysAddr::new(512), &[7u8; 64], &mut media);
        buf.write(PhysAddr::new(600), &[8u8; 8], &mut media);
        buf.write(PhysAddr::new(520), &[9u8; 8], &mut media);
        buf.flush_all(&mut media);
        // 512..768 is one buffer line (index 2); 600 is in the same 256B
        // line. So everything coalesced to one line program.
        assert_eq!(media.line_writes(), 1);
        assert_eq!(media.read(PhysAddr::new(520), 8), vec![9u8; 8]);
        assert_eq!(media.read(PhysAddr::new(528), 8), vec![7u8; 8]);
    }

    #[test]
    fn writes_crossing_buffer_lines_split() {
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(250), &[1u8; 12], &mut media);
        buf.flush_all(&mut media);
        assert_eq!(media.line_writes(), 2);
        assert_eq!(media.read(PhysAddr::new(250), 12), vec![1u8; 12]);
    }

    #[test]
    fn capacity_pressure_drains_fifo_order() {
        let (mut media, mut buf) = setup();
        for i in 0..5u64 {
            buf.write(PhysAddr::new(i * 256), &[i as u8 + 1; 8], &mut media);
        }
        // Capacity 4: staging the 5th line drained the 1st.
        assert_eq!(buf.forced_drains(), 1);
        assert_eq!(media.line_writes(), 1);
        assert_eq!(media.read(PhysAddr::new(0), 1), vec![1]);
        assert_eq!(buf.occupancy(), 4);
    }

    #[test]
    fn read_through_sees_staged_bytes() {
        let (mut media, mut buf) = setup();
        media.write_masked(PhysAddr::new(0), &[1, 2, 3, 4], 0);
        buf.write(PhysAddr::new(1), &[9, 9], &mut media);
        assert_eq!(
            buf.read_through(PhysAddr::new(0), 4, &media),
            vec![1, 9, 9, 4]
        );
    }

    #[test]
    fn flush_all_empties_buffer_and_persists() {
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(0), &[5; 8], &mut media);
        buf.write(PhysAddr::new(256), &[6; 8], &mut media);
        buf.flush_all(&mut media);
        assert_eq!(buf.occupancy(), 0);
        assert_eq!(media.read(PhysAddr::new(0), 8), vec![5; 8]);
        assert_eq!(media.read(PhysAddr::new(256), 8), vec![6; 8]);
    }

    #[test]
    fn flush_all_on_empty_buffer_is_noop() {
        let (mut media, mut buf) = setup();
        buf.flush_all(&mut media);
        assert_eq!(media.line_writes(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_rejected() {
        let _ = OnPmBuffer::new(0);
    }

    #[test]
    fn stage_unbounded_ignores_capacity() {
        let (mut media, mut buf) = setup();
        for i in 0..8u64 {
            buf.stage_unbounded(PhysAddr::new(i * 256), &[i as u8 + 1; 8]);
        }
        assert_eq!(buf.occupancy(), 8, "no capacity drains");
        assert_eq!(media.line_writes(), 0);
        buf.flush_all(&mut media);
        assert_eq!(media.line_writes(), 8);
        assert_eq!(media.read(PhysAddr::new(7 * 256), 1), vec![8]);
    }

    #[test]
    fn crash_drain_with_ample_budget_equals_flush() {
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(0), &[1; 8], &mut media);
        buf.write(PhysAddr::new(256), &[2; 8], &mut media);
        let report = buf.crash_drain(&mut media, u64::MAX, None);
        assert_eq!(report.drained_lines, 2);
        assert_eq!(report.drained_bytes, 16);
        assert_eq!(report.torn_lines, 0);
        assert_eq!(report.discarded_lines, 0);
        assert_eq!(buf.occupancy(), 0);
        assert_eq!(media.read(PhysAddr::new(256), 8), vec![2; 8]);
    }

    #[test]
    fn crash_drain_budget_discards_younger_lines() {
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(0), &[1; 8], &mut media);
        buf.write(PhysAddr::new(256), &[2; 8], &mut media);
        buf.write(PhysAddr::new(512), &[3; 8], &mut media);
        // 8-byte budget: oldest line drains, the rest is lost.
        let report = buf.crash_drain(&mut media, 8, None);
        assert_eq!(report.drained_lines, 1);
        assert_eq!(report.discarded_lines, 2);
        assert_eq!(report.discarded_bytes, 16);
        assert_eq!(buf.occupancy(), 0);
        assert_eq!(media.read(PhysAddr::new(0), 8), vec![1; 8]);
        assert_eq!(media.read(PhysAddr::new(256), 8), vec![0; 8], "lost");
    }

    #[test]
    fn crash_drain_partial_budget_tears_a_line() {
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(0), &[7; 16], &mut media);
        let report = buf.crash_drain(&mut media, 5, None);
        assert_eq!(report.torn_lines, 1);
        assert_eq!(report.drained_bytes, 5);
        assert_eq!(report.discarded_bytes, 11);
        assert_eq!(media.read(PhysAddr::new(0), 16), {
            let mut v = vec![7u8; 5];
            v.extend_from_slice(&[0; 11]);
            v
        });
    }

    #[test]
    fn torn_head_is_repaired_by_a_full_drain() {
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(0), &[9; 64], &mut media);
        // The in-flight program tears to 4 bytes, but the ADR copy
        // survives and the unlimited budget re-programs it in full.
        let report = buf.crash_drain(&mut media, u64::MAX, Some(4));
        assert_eq!(report.torn_lines, 1);
        assert_eq!(report.drained_lines, 1);
        assert_eq!(media.read(PhysAddr::new(0), 64), vec![9; 64]);
    }

    #[test]
    fn torn_head_with_zero_budget_loses_the_suffix() {
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(0), &[9; 64], &mut media);
        let report = buf.crash_drain(&mut media, 0, Some(4));
        assert_eq!(report.torn_lines, 1);
        assert_eq!(report.discarded_lines, 1);
        assert_eq!(media.read(PhysAddr::new(0), 4), vec![9; 4]);
        assert_eq!(media.read(PhysAddr::new(4), 60), vec![0; 60]);
    }

    #[test]
    fn undo_log_batch_fills_one_line() {
        // §III-F: 14 log entries × 18 B = 252 B fit one buffer line, so an
        // overflow batch costs a single media program.
        let (mut media, mut buf) = setup();
        let batch = vec![0xabu8; 14 * 18];
        buf.write(PhysAddr::new(1024), &batch, &mut media);
        buf.flush_all(&mut media);
        assert_eq!(media.line_writes(), 1);
    }

    #[test]
    fn patch_spanning_two_staged_lines_patches_both() {
        let (mut media, mut buf) = setup();
        buf.write(PhysAddr::new(0), &[1; 8], &mut media);
        buf.write(PhysAddr::new(256), &[2; 8], &mut media);
        // 6 bytes at the end of line 0 and 6 at the start of line 1.
        assert_eq!(buf.patch_if_staged(PhysAddr::new(250), &[7; 12]), 12);
        assert_eq!(buf.occupancy(), 2, "patching allocates no line");
        assert_eq!(
            buf.read_through(PhysAddr::new(248), 16, &media),
            [0, 0, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 2, 2]
        );
        buf.flush_all(&mut media);
        assert_eq!(media.read(PhysAddr::new(250), 12), vec![7; 12]);
        assert_eq!(media.read(PhysAddr::new(262), 2), vec![2; 2]);
    }

    /// The retained reference implementation: the buffer as it was before
    /// slots, each staged line two boxed arrays and its validity one flag
    /// per byte, kept so the slot ring can be differentially tested
    /// against it. Its only change is at the media boundary, where the
    /// flags widen to the chunk masks `Media::program_line` takes.
    mod reference {
        use std::collections::VecDeque;

        use silo_types::{FxHashMap, PhysAddr, BUF_LINE_BYTES};

        use crate::media::line_mask as masks;
        use crate::{DrainReport, Media};

        #[derive(Clone)]
        struct Staged {
            data: Box<[u8; BUF_LINE_BYTES]>,
            valid: Box<[bool; BUF_LINE_BYTES]>,
        }

        impl Staged {
            fn new() -> Self {
                Staged {
                    data: Box::new([0u8; BUF_LINE_BYTES]),
                    valid: Box::new([false; BUF_LINE_BYTES]),
                }
            }
        }

        #[derive(Clone)]
        pub struct RefBuffer {
            capacity: usize,
            lines: FxHashMap<u64, Staged>,
            fifo: VecDeque<u64>,
            pub coalesced_hits: u64,
            pub fills: u64,
            pub forced_drains: u64,
        }

        impl RefBuffer {
            pub fn new(capacity: usize) -> Self {
                RefBuffer {
                    capacity,
                    lines: FxHashMap::default(),
                    fifo: VecDeque::new(),
                    coalesced_hits: 0,
                    fills: 0,
                    forced_drains: 0,
                }
            }

            pub fn occupancy(&self) -> usize {
                self.lines.len()
            }

            pub fn write(&mut self, addr: PhysAddr, bytes: &[u8], media: &mut Media) {
                let mut cur = addr.as_u64();
                let mut rest = bytes;
                while !rest.is_empty() {
                    let off = (cur % BUF_LINE_BYTES as u64) as usize;
                    let chunk = rest.len().min(BUF_LINE_BYTES - off);
                    self.write_within_line(PhysAddr::new(cur), &rest[..chunk], media);
                    cur += chunk as u64;
                    rest = &rest[chunk..];
                }
            }

            fn write_within_line(&mut self, addr: PhysAddr, bytes: &[u8], media: &mut Media) {
                let idx = addr.buf_line_index();
                let off = addr.offset_in_buf_line();
                if let Some(staged) = self.lines.get_mut(&idx) {
                    staged.data[off..off + bytes.len()].copy_from_slice(bytes);
                    staged.valid[off..off + bytes.len()].fill(true);
                    self.coalesced_hits += 1;
                    return;
                }
                if self.lines.len() == self.capacity {
                    let oldest = self.fifo.pop_front().expect("fifo tracks every line");
                    self.drain_line(oldest, media);
                    self.forced_drains += 1;
                }
                let mut staged = Staged::new();
                staged.data[off..off + bytes.len()].copy_from_slice(bytes);
                staged.valid[off..off + bytes.len()].fill(true);
                self.lines.insert(idx, staged);
                self.fifo.push_back(idx);
                self.fills += 1;
            }

            fn drain_line(&mut self, idx: u64, media: &mut Media) {
                let staged = self.lines.remove(&idx).expect("staged");
                let base = PhysAddr::new(idx * BUF_LINE_BYTES as u64);
                media.program_line(base, &staged.data, &masks(&staged.valid));
            }

            pub fn flush_all(&mut self, media: &mut Media) {
                while let Some(idx) = self.fifo.pop_front() {
                    self.drain_line(idx, media);
                }
            }

            pub fn stage_unbounded(&mut self, addr: PhysAddr, bytes: &[u8]) {
                let mut cur = addr.as_u64();
                let mut rest = bytes;
                while !rest.is_empty() {
                    let off = (cur % BUF_LINE_BYTES as u64) as usize;
                    let chunk = rest.len().min(BUF_LINE_BYTES - off);
                    let idx = cur / BUF_LINE_BYTES as u64;
                    let staged = self.lines.entry(idx).or_insert_with(|| {
                        self.fifo.push_back(idx);
                        Staged::new()
                    });
                    staged.data[off..off + chunk].copy_from_slice(&rest[..chunk]);
                    staged.valid[off..off + chunk].fill(true);
                    cur += chunk as u64;
                    rest = &rest[chunk..];
                }
            }

            pub fn crash_drain(
                &mut self,
                media: &mut Media,
                budget: u64,
                torn_keep: Option<usize>,
            ) -> DrainReport {
                let mut report = DrainReport::default();
                if let Some(keep) = torn_keep {
                    if let Some(head) = self.fifo.front() {
                        let staged = &self.lines[head];
                        let valid_count = staged.valid.iter().filter(|&&v| v).count();
                        if valid_count > keep {
                            let mask = truncate(&staged.valid, keep);
                            let base = PhysAddr::new(head * BUF_LINE_BYTES as u64);
                            media.program_line(base, &staged.data, &masks(&mask));
                            report.torn_lines += 1;
                        }
                    }
                }
                let mut remaining = budget;
                while let Some(idx) = self.fifo.pop_front() {
                    let staged = self.lines.remove(&idx).expect("staged");
                    let valid_count = staged.valid.iter().filter(|&&v| v).count() as u64;
                    let base = PhysAddr::new(idx * BUF_LINE_BYTES as u64);
                    if valid_count <= remaining {
                        media.program_line(base, &staged.data, &masks(&staged.valid));
                        remaining -= valid_count;
                        report.drained_lines += 1;
                        report.drained_bytes += valid_count;
                    } else if remaining > 0 {
                        let mask = truncate(&staged.valid, remaining as usize);
                        media.program_line(base, &staged.data, &masks(&mask));
                        report.torn_lines += 1;
                        report.drained_bytes += remaining;
                        report.discarded_bytes += valid_count - remaining;
                        remaining = 0;
                    } else {
                        report.discarded_lines += 1;
                        report.discarded_bytes += valid_count;
                    }
                }
                report
            }

            pub fn read_through_into(&self, addr: PhysAddr, out: &mut [u8], media: &Media) {
                media.read_into(addr, out);
                let mut cur = addr.as_u64();
                let mut pos = 0;
                while pos < out.len() {
                    let off = (cur % BUF_LINE_BYTES as u64) as usize;
                    let chunk = (out.len() - pos).min(BUF_LINE_BYTES - off);
                    if let Some(staged) = self.lines.get(&(cur / BUF_LINE_BYTES as u64)) {
                        for i in 0..chunk {
                            if staged.valid[off + i] {
                                out[pos + i] = staged.data[off + i];
                            }
                        }
                    }
                    cur += chunk as u64;
                    pos += chunk;
                }
            }

            pub fn patch_if_staged(&mut self, addr: PhysAddr, bytes: &[u8]) -> usize {
                let mut patched = 0;
                let mut cur = addr.as_u64();
                let mut rest = bytes;
                while !rest.is_empty() {
                    let off = (cur % BUF_LINE_BYTES as u64) as usize;
                    let chunk = rest.len().min(BUF_LINE_BYTES - off);
                    if let Some(staged) = self.lines.get_mut(&(cur / BUF_LINE_BYTES as u64)) {
                        staged.data[off..off + chunk].copy_from_slice(&rest[..chunk]);
                        staged.valid[off..off + chunk].fill(true);
                        patched += chunk;
                    }
                    cur += chunk as u64;
                    rest = &rest[chunk..];
                }
                patched
            }
        }

        fn truncate(valid: &[bool; BUF_LINE_BYTES], keep: usize) -> [bool; BUF_LINE_BYTES] {
            let mut mask = *valid;
            let mut kept = 0;
            for m in mask.iter_mut() {
                if *m {
                    if kept < keep {
                        kept += 1;
                    } else {
                        *m = false;
                    }
                }
            }
            mask
        }
    }

    /// Seeded random `write`, `patch_if_staged`, `stage_unbounded`,
    /// `read_through_into`, `flush_all` and `crash_drain` calls (random
    /// budgets and torn prefixes) on the slot ring and on the reference,
    /// each in front of its own media: the same bytes read back, the same
    /// counters and drain reports after every call, and the same media
    /// bytes and wear at the end. Bytes come from a small alphabet, so
    /// data-comparison writes suppress programs often, and the ring is
    /// replaced by its clone now and then, which holds only its occupied
    /// slots.
    #[test]
    fn differential_vs_reference_buffer() {
        const SPAN: u64 = 40 * BUF_LINE_BYTES as u64; // 2.5 media pages
        for (case, capacity) in [1, 2, 4, 7, 64].into_iter().enumerate() {
            let mut rng = silo_types::SplitMix64::new(0x0b_0f + case as u64);
            let (mut media, mut reference_media) = (Media::new(), Media::new());
            let mut buf = OnPmBuffer::new(capacity);
            let mut reference = reference::RefBuffer::new(capacity);
            for step in 0..3000 {
                let addr = PhysAddr::new(rng.below(SPAN - 300));
                let long = rng.chance(1, 4);
                let len = 1 + rng.below(if long { 300 } else { 16 }) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| rng.below(3) as u8).collect();
                match rng.below(20) {
                    0..=6 => {
                        buf.write(addr, &bytes, &mut media);
                        reference.write(addr, &bytes, &mut reference_media);
                    }
                    7..=9 => assert_eq!(
                        buf.patch_if_staged(addr, &bytes),
                        reference.patch_if_staged(addr, &bytes),
                        "step {step}: patch at {addr}"
                    ),
                    10 | 11 => {
                        buf.stage_unbounded(addr, &bytes);
                        reference.stage_unbounded(addr, &bytes);
                    }
                    12..=16 => {
                        let (mut got, mut want) = (vec![9u8; len], vec![9u8; len]);
                        buf.read_through_into(addr, &mut got, &media);
                        reference.read_through_into(addr, &mut want, &reference_media);
                        assert_eq!(got, want, "step {step}: read at {addr}");
                    }
                    17 => {
                        buf.flush_all(&mut media);
                        reference.flush_all(&mut reference_media);
                    }
                    18 => {
                        let budget = match rng.below(4) {
                            0 => 0,
                            1 => rng.below(64),
                            2 => rng.below(2048),
                            _ => u64::MAX,
                        };
                        let torn = rng.chance(1, 2).then(|| rng.below(300) as usize);
                        assert_eq!(
                            buf.crash_drain(&mut media, budget, torn),
                            reference.crash_drain(&mut reference_media, budget, torn),
                            "step {step}: drain of {budget} bytes, torn {torn:?}"
                        );
                    }
                    _ => buf = buf.clone(),
                }
                assert_eq!(
                    (buf.fills(), buf.coalesced_hits(), buf.forced_drains()),
                    (
                        reference.fills,
                        reference.coalesced_hits,
                        reference.forced_drains
                    ),
                    "step {step}: counters"
                );
                assert_eq!(buf.occupancy(), reference.occupancy(), "step {step}");
                assert_eq!(
                    media.line_writes(),
                    reference_media.line_writes(),
                    "step {step}"
                );
            }
            assert_eq!(media.bits_programmed(), reference_media.bits_programmed());
            assert_eq!(media.dcw_suppressed(), reference_media.dcw_suppressed());
            assert_eq!(
                media.read(PhysAddr::ZERO, SPAN as usize),
                reference_media.read(PhysAddr::ZERO, SPAN as usize),
                "capacity {capacity}: media bytes"
            );
            let wear = |m: &Media| m.wear().hottest_lines(usize::MAX);
            assert_eq!(
                wear(&media),
                wear(&reference_media),
                "capacity {capacity}: wear"
            );
            // Every path ran: capacity pressure (the span holds 40 lines),
            // programs, coalescing.
            let pressed = capacity >= 40 || buf.forced_drains() > 0;
            let counts = (
                buf.forced_drains(),
                media.line_writes(),
                buf.coalesced_hits(),
            );
            assert!(
                pressed && counts.1 > 100 && counts.2 > 50,
                "capacity {capacity}: {counts:?}"
            );
        }
    }

    /// The hot paths' fixed lengths (a word, one and two log records, a
    /// cacheline) written, patched and staged at every offset of a buffer
    /// line, the tail offsets straddling into the next line, and read back
    /// at every offset, on the ring and on the reference: the same bytes,
    /// counters and drains.
    #[test]
    fn differential_fixed_lengths_at_every_offset() {
        for capacity in [1, 4, 64] {
            let mut rng = silo_types::SplitMix64::new(0xf1_7ed + capacity as u64);
            let (mut media, mut reference_media) = (Media::new(), Media::new());
            let mut buf = OnPmBuffer::new(capacity);
            let mut reference = reference::RefBuffer::new(capacity);
            for len in [8, 18, 36, 64] {
                for offset in 0..BUF_LINE_BYTES {
                    // A line of its own for each write, and a fixed one.
                    let line = [rng.below(12), 3][offset % 2] * BUF_LINE_BYTES as u64;
                    let addr = PhysAddr::new(line + offset as u64);
                    let bytes: Vec<u8> = (0..len).map(|_| rng.below(3) as u8).collect();
                    let what = format!("{len} bytes at {addr}, capacity {capacity}");
                    match offset % 3 {
                        0 => {
                            buf.write(addr, &bytes, &mut media);
                            reference.write(addr, &bytes, &mut reference_media);
                        }
                        1 => assert_eq!(
                            buf.patch_if_staged(addr, &bytes),
                            reference.patch_if_staged(addr, &bytes),
                            "{what}"
                        ),
                        _ => {
                            buf.stage_unbounded(addr, &bytes);
                            reference.stage_unbounded(addr, &bytes);
                        }
                    }
                    let (mut got, mut want) = (vec![9u8; len], vec![9u8; len]);
                    let at = PhysAddr::new(line + rng.below(BUF_LINE_BYTES as u64));
                    buf.read_through_into(at, &mut got, &media);
                    reference.read_through_into(at, &mut want, &reference_media);
                    assert_eq!(got, want, "{what}: read at {at}");
                    assert_eq!(
                        (buf.fills(), buf.coalesced_hits(), buf.forced_drains()),
                        (
                            reference.fills,
                            reference.coalesced_hits,
                            reference.forced_drains
                        ),
                        "{what}"
                    );
                }
                buf.flush_all(&mut media);
                reference.flush_all(&mut reference_media);
            }
            assert_eq!(media.line_writes(), reference_media.line_writes());
            assert_eq!(media.bits_programmed(), reference_media.bits_programmed());
            let span = 16 * BUF_LINE_BYTES;
            assert_eq!(
                media.read(PhysAddr::ZERO, span),
                reference_media.read(PhysAddr::ZERO, span),
                "capacity {capacity}: media bytes"
            );
        }
    }

    #[test]
    fn patch_counts_only_staged_bytes() {
        let (mut media, mut buf) = setup();
        // Nothing staged at all.
        assert_eq!(buf.patch_if_staged(PhysAddr::new(0), &[7; 64]), 0);
        // Line 0 staged, line 1 not: only line 0's 6 bytes are patched.
        buf.write(PhysAddr::new(0), &[1; 8], &mut media);
        assert_eq!(buf.patch_if_staged(PhysAddr::new(250), &[7; 12]), 6);
        // A write wholly outside the staged line patches nothing.
        assert_eq!(buf.patch_if_staged(PhysAddr::new(1024), &[7; 36]), 0);
        assert_eq!(buf.occupancy(), 1);
        buf.flush_all(&mut media);
        assert_eq!(media.line_writes(), 1);
        assert_eq!(media.read(PhysAddr::new(256), 6), vec![0; 6]);
        assert_eq!(media.read(PhysAddr::new(1024), 36), vec![0; 36]);
    }
}
