//! The internal DIMM write buffer where PM writes coalesce (paper §III-E).

use std::collections::VecDeque;

use silo_types::{FxHashMap, PhysAddr, BUF_LINE_BYTES};

use crate::{DrainReport, Media};

/// Default number of 256 B lines in the on-PM buffer.
///
/// The paper cites the on-DIMM buffering of real PM hardware (\[50\], \[55\],
/// \[58\]); Optane's XPBuffer is 16 KB, i.e. 64 lines of 256 B. We use that as
/// the default; the paper's results depend only on the buffer being large
/// enough to hold the write burst of a committing transaction.
pub const DEFAULT_BUFFER_LINES: usize = 64;

/// One staged buffer line: data bytes plus a per-byte valid mask.
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

impl std::fmt::Debug for Staged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let valid = self.valid.iter().filter(|&&v| v).count();
        write!(f, "Staged({valid}/{BUF_LINE_BYTES} bytes valid)")
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
    lines: FxHashMap<u64, Staged>,
    fifo: VecDeque<u64>,
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
            lines: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
            fifo: VecDeque::with_capacity(capacity),
            coalesced_hits: 0,
            fills: 0,
            forced_drains: 0,
        }
    }

    /// Stages `bytes` at `addr`, splitting across buffer lines as needed.
    /// Capacity pressure drains the oldest staged line into `media`.
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
        debug_assert!(off + bytes.len() <= BUF_LINE_BYTES);
        if let Some(staged) = self.lines.get_mut(&idx) {
            staged.data[off..off + bytes.len()].copy_from_slice(bytes);
            staged.valid[off..off + bytes.len()].fill(true);
            self.coalesced_hits += 1;
            return;
        }
        if self.lines.len() == self.capacity {
            let oldest = self
                .fifo
                .pop_front()
                .expect("fifo tracks every staged line");
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
        let staged = self
            .lines
            .remove(&idx)
            .expect("fifo entries always have a staged line");
        let base = PhysAddr::new(idx * BUF_LINE_BYTES as u64);
        media.program_line(base, &staged.data, &staged.valid);
    }

    /// Drains every staged line to the media, oldest first. Used at the end
    /// of a simulation and when a crash triggers the ADR drain.
    pub fn flush_all(&mut self, media: &mut Media) {
        while let Some(idx) = self.fifo.pop_front() {
            self.drain_line(idx, media);
        }
        debug_assert!(self.lines.is_empty());
    }

    /// Stages `bytes` without enforcing capacity — no forced media drains.
    /// This is the battery-powered write path: after power loss the
    /// scheme's `on_crash` records land in the ADR domain first and are
    /// charged against the residual-energy budget once, when
    /// [`crash_drain`](Self::crash_drain) pushes them to the media.
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
        if let Some(keep) = torn_keep {
            if let Some(head) = self.fifo.front() {
                let staged = &self.lines[head];
                let valid_count = staged.valid.iter().filter(|&&v| v).count();
                if valid_count > keep {
                    let mask = truncate_mask(&staged.valid, keep);
                    let base = PhysAddr::new(head * BUF_LINE_BYTES as u64);
                    media.program_line(base, &staged.data, &mask);
                    report.torn_lines += 1;
                }
            }
        }
        let mut remaining = budget;
        while let Some(idx) = self.fifo.pop_front() {
            let staged = self
                .lines
                .remove(&idx)
                .expect("fifo entries always have a staged line");
            let valid_count = staged.valid.iter().filter(|&&v| v).count() as u64;
            let base = PhysAddr::new(idx * BUF_LINE_BYTES as u64);
            if valid_count <= remaining {
                media.program_line(base, &staged.data, &staged.valid);
                remaining -= valid_count;
                report.drained_lines += 1;
                report.drained_bytes += valid_count;
            } else if remaining > 0 {
                // The budget dies mid-program: a torn partial line.
                let mask = truncate_mask(&staged.valid, remaining as usize);
                media.program_line(base, &staged.data, &mask);
                report.torn_lines += 1;
                report.drained_bytes += remaining;
                report.discarded_bytes += valid_count - remaining;
                remaining = 0;
            } else {
                report.discarded_lines += 1;
                report.discarded_bytes += valid_count;
            }
        }
        debug_assert!(self.lines.is_empty());
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
        if self.lines.is_empty() {
            return;
        }
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

    /// Updates any staged copy of the written bytes *without* allocating
    /// new lines — used by the write-through path to keep a staged line
    /// coherent with bytes that bypassed the buffer. Returns how many bytes
    /// were patched into staged lines. Staged lines are looked up once per
    /// buffer line covered, not per byte, and not at all when none is
    /// staged.
    pub fn patch_if_staged(&mut self, addr: PhysAddr, bytes: &[u8]) -> usize {
        if self.lines.is_empty() {
            return 0;
        }
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
        self.lines.len()
    }

    /// The configured capacity in lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A copy of `valid` keeping only the first `keep` set bytes — the
/// persisted prefix of a torn line program.
fn truncate_mask(valid: &[bool; BUF_LINE_BYTES], keep: usize) -> [bool; BUF_LINE_BYTES] {
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
