//! The physical PCM media with bit-level data-comparison-write accounting.
//!
//! Storage follows the flat paged-image model of the NVMain lineage this
//! simulator replaces: a page table of 4 KiB slabs instead of a
//! general-purpose hash table per 256 B line. Each page holds its bytes
//! inline, so a new page is one allocation and a program follows one
//! pointer to them. Pages are held in [`Arc`], so
//! cloning the media (the engine's `RunOutcome::pm` snapshot, crashfuzz's
//! per-crash-point images) is copy-on-write — the clone costs one page-table
//! copy and refcount bumps, and only pages written *after* the snapshot are
//! ever duplicated. Each page carries its lines' wear counters, so a
//! program is one page-table lookup, and [`Media::wear`] derives a
//! [`WearTracker`] from the pages when one is asked for.

use std::ops::Range;
use std::sync::Arc;

use silo_types::{FxHashMap, PhysAddr, BUF_LINE_BYTES, PAGE_BYTES};

use crate::WearTracker;

/// Buffer lines per page. Must match the width of [`Page::touched`].
const LINES_PER_PAGE: usize = PAGE_BYTES / BUF_LINE_BYTES;

/// One 4 KiB slab of media plus a per-buffer-line materialization bitmap
/// (`LINES_PER_PAGE` == 16 bits) and per-line program counts. The bitmap
/// preserves the reference `HashMap`-media notion of a "touched" line —
/// lines count toward the footprint as soon as any write (even a fully
/// DCW-suppressed one) or crash-time revert addresses them.
#[derive(Clone, Debug)]
struct Page {
    data: [u8; PAGE_BYTES],
    touched: u16,
    /// Programs of each line: its wear.
    programs: [u64; LINES_PER_PAGE],
}

impl Page {
    fn zeroed() -> Self {
        Page {
            data: [0u8; PAGE_BYTES],
            touched: 0,
            programs: [0; LINES_PER_PAGE],
        }
    }
}

/// The phase-change-memory physical media.
///
/// Storage is sparse: only 4 KiB pages that have ever been programmed are
/// materialized, so a 16 GB address space (paper Table II) costs memory
/// proportional to the touched footprint.
///
/// Writes arrive from the [on-PM buffer](crate::OnPmBuffer) at buffer-line
/// granularity with a per-byte valid mask (read-modify-write, paper §III-E).
/// A **data-comparison-write** check (paper \[62\]) compares the incoming
/// bytes with the stored ones: if no bit changes, the media is not
/// programmed at all and the write is not counted — the mechanism Silo
/// relies on to make post-commit cacheline evictions free (§III-D, CE/IPU
/// timing scenario 3). The comparison runs against the shared page, so a
/// suppressed write never triggers a copy-on-write page duplication.
///
/// # Examples
///
/// ```
/// use silo_pm::Media;
/// use silo_types::PhysAddr;
///
/// let mut m = Media::new();
/// let wrote = m.write_masked(PhysAddr::new(0), &[1, 2, 3], 0);
/// assert!(wrote);
/// // Re-writing identical bytes is suppressed by data-comparison-write.
/// assert!(!m.write_masked(PhysAddr::new(0), &[1, 2, 3], 0));
/// assert_eq!(m.read(PhysAddr::new(1), 2), vec![2, 3]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Media {
    pages: FxHashMap<u64, Arc<Page>>,
    touched_count: usize,
    line_writes: u64,
    bits_programmed: u64,
    dcw_suppressed: u64,
}

#[inline]
fn split_line(line_idx: u64) -> (u64, usize) {
    (
        line_idx / LINES_PER_PAGE as u64,
        (line_idx % LINES_PER_PAGE as u64) as usize,
    )
}

/// The buffer-line spans of the `len` bytes at `addr`, in address order:
/// each buffer line the bytes cover, the offset in that line of the first
/// byte that falls in it, and the range of the bytes that does. Every
/// split of a write or read at buffer-line boundaries goes through this;
/// it allocates nothing.
#[inline]
pub(crate) fn line_spans(
    addr: PhysAddr,
    len: usize,
) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let start = addr.as_u64();
    let mut pos = 0;
    std::iter::from_fn(move || {
        (pos < len).then(|| {
            let at = start + pos as u64;
            let off = (at % BUF_LINE_BYTES as u64) as usize;
            let span = pos..len.min(pos + BUF_LINE_BYTES - off);
            pos = span.end;
            (at / BUF_LINE_BYTES as u64, off, span)
        })
    })
}

/// Eight-byte chunks per buffer line: the unit of the DCW compare, and of
/// a staged line's validity ([`LineMask`]).
pub const LINE_CHUNKS: usize = BUF_LINE_BYTES / 8;

/// Which bytes of a buffer line a program applies: one little-endian
/// byte mask per eight-byte chunk, `0xff` in each valid byte.
pub type LineMask = [u64; LINE_CHUNKS];

/// Per-byte valid flags as the chunk masks [`Media::program_line`] takes:
/// how the reference implementations the tests keep, which flag bytes,
/// reach the media.
#[cfg(test)]
pub(crate) fn line_mask(valid: &[bool; BUF_LINE_BYTES]) -> LineMask {
    std::array::from_fn(|i| {
        (0..8).fold(0, |m, j| {
            m | (u64::from(valid[i * 8 + j]) * (0xff << (8 * j)))
        })
    })
}

/// The little-endian `u64` in the first eight bytes of `bytes`.
#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// The bits that differ between `old` and `new` (equal lengths): the bits a
/// data-comparison write programs, counted eight bytes at a time. A chunk
/// that did not change is skipped before its bits are counted, so a write
/// DCW suppresses counts none.
#[inline]
fn changed_bits(old: &[u8], new: &[u8]) -> u64 {
    let (old_chunks, new_chunks) = (old.chunks_exact(8), new.chunks_exact(8));
    let (old_tail, new_tail) = (old_chunks.remainder(), new_chunks.remainder());
    let mut bits: u64 = old_chunks
        .zip(new_chunks)
        .map(|(o, n)| diff_bits(le_u64(o) ^ le_u64(n)))
        .sum();
    if !old_tail.is_empty() {
        let (mut o, mut n) = ([0u8; 8], [0u8; 8]);
        o[..old_tail.len()].copy_from_slice(old_tail);
        n[..new_tail.len()].copy_from_slice(new_tail);
        bits += diff_bits(u64::from_le_bytes(o) ^ u64::from_le_bytes(n));
    }
    bits
}

/// The set bits of one chunk's difference, counted only when it has any.
#[inline]
fn diff_bits(diff: u64) -> u64 {
    if diff == 0 {
        0
    } else {
        u64::from(diff.count_ones())
    }
}

impl Media {
    /// Creates empty (all-zero) media.
    pub fn new() -> Self {
        Media::default()
    }

    /// Mutable access to one buffer line, materializing (and, under a live
    /// snapshot, copy-on-write-duplicating) its page and marking the line
    /// touched.
    #[inline]
    fn line_slab(&mut self, line_idx: u64) -> &mut [u8] {
        let (page_idx, slot) = split_line(line_idx);
        let entry = self
            .pages
            .entry(page_idx)
            .or_insert_with(|| Arc::new(Page::zeroed()));
        let page = Arc::make_mut(entry);
        let bit = 1u16 << slot;
        if page.touched & bit == 0 {
            page.touched |= bit;
            self.touched_count += 1;
        }
        &mut page.data[slot * BUF_LINE_BYTES..(slot + 1) * BUF_LINE_BYTES]
    }

    /// Programs `bytes` starting at the byte address `base + offset`,
    /// where `base` must be buffer-line aligned when `offset` is the offset
    /// within that line. Returns `true` if the media was actually programmed
    /// (at least one bit changed), `false` if data-comparison-write
    /// suppressed it.
    ///
    /// The write must not cross a buffer-line boundary — the on-PM buffer
    /// splits larger writes before they reach the media.
    ///
    /// # Panics
    ///
    /// Panics if `offset + bytes.len()` exceeds the buffer-line size.
    pub fn write_masked(&mut self, line_base: PhysAddr, bytes: &[u8], offset: usize) -> bool {
        assert!(
            offset + bytes.len() <= BUF_LINE_BYTES,
            "media write crosses a buffer-line boundary: offset {offset} + len {}",
            bytes.len()
        );
        let line_idx = line_base.buf_line_index();
        silo_types::fixed_len!(b = bytes => {
            let range = offset..offset + b.len();
            self.program(
                line_idx,
                |line| changed_bits(&line[range.clone()], b),
                |line| line[range.clone()].copy_from_slice(b),
            )
        })
    }

    /// Programs one full buffer line in a single read-modify-write cycle,
    /// applying only the bytes `mask` marks valid. Returns `true` if the
    /// media was programmed (any valid byte changed any bit); a fully
    /// unchanged program is suppressed by data-comparison-write and counts
    /// nothing.
    ///
    /// This is the path the [on-PM buffer](crate::OnPmBuffer) uses when it
    /// drains a staged line: however many words, cachelines, and log-batch
    /// fragments coalesced into the line, the media sees **one** program —
    /// the write-amplification reduction of paper §III-E.
    ///
    /// # Panics
    ///
    /// Panics if `line_base` is not buffer-line aligned.
    pub fn program_line(
        &mut self,
        line_base: PhysAddr,
        data: &[u8; BUF_LINE_BYTES],
        masks: &LineMask,
    ) -> bool {
        assert_eq!(
            line_base.buf_line_aligned(),
            line_base,
            "program_line requires a buffer-line-aligned base"
        );
        self.program(
            line_base.buf_line_index(),
            |line| {
                masks
                    .iter()
                    .enumerate()
                    .map(|(i, m)| diff_bits((le_u64(&line[i * 8..]) ^ le_u64(&data[i * 8..])) & m))
                    .sum()
            },
            |line| {
                for (i, m) in masks.iter().enumerate() {
                    let chunk = &mut line[i * 8..i * 8 + 8];
                    let merged = (le_u64(chunk) & !m) | (le_u64(&data[i * 8..]) & m);
                    chunk.copy_from_slice(&merged.to_le_bytes());
                }
            },
        )
    }

    /// One media program of buffer line `line_idx`, with one page-table
    /// lookup: `compare` counts the bits the write would change in the
    /// stored line, and `apply` writes it and counts one program of the
    /// line unless that count is zero, in which case data-comparison-write
    /// suppresses it. Either way the line is marked touched. The compare
    /// reads the page while it may still be shared with a snapshot, so a
    /// suppressed write to an already-touched line copies no page.
    #[inline]
    fn program(
        &mut self,
        line_idx: u64,
        compare: impl FnOnce(&[u8]) -> u64,
        apply: impl FnOnce(&mut [u8]),
    ) -> bool {
        let (page_idx, slot) = split_line(line_idx);
        let page = self
            .pages
            .entry(page_idx)
            .or_insert_with(|| Arc::new(Page::zeroed()));
        let range = slot * BUF_LINE_BYTES..(slot + 1) * BUF_LINE_BYTES;
        let changed_bits = compare(&page.data[range.clone()]);
        let bit = 1u16 << slot;
        let first_touch = page.touched & bit == 0;
        if changed_bits == 0 && !first_touch {
            self.dcw_suppressed += 1;
            return false;
        }
        // One copy-on-write check per program.
        let page = Arc::make_mut(page);
        if first_touch {
            page.touched |= bit;
            self.touched_count += 1;
        }
        if changed_bits == 0 {
            self.dcw_suppressed += 1;
            return false;
        }
        apply(&mut page.data[range]);
        page.programs[slot] += 1;
        self.line_writes += 1;
        self.bits_programmed += changed_bits;
        true
    }

    /// Reverts stored bytes without a program cycle: the crash-time
    /// rollback of writes whose persistence-domain tags were invalidated
    /// (e.g. LAD's MC buffer discarding an uncommitted transaction's
    /// prepared lines). Counts no line write, no programmed bits, no wear:
    /// the cells were already programmed once when the write was modeled
    /// eagerly; this only corrects which image is architecturally valid.
    /// May cross buffer-line boundaries.
    pub fn revert(&mut self, addr: PhysAddr, bytes: &[u8]) {
        for (line, off, span) in line_spans(addr, bytes.len()) {
            let slab = self.line_slab(line);
            slab[off..off + span.len()].copy_from_slice(&bytes[span]);
        }
    }

    /// Reads bytes starting at `addr` into `out`, without allocating.
    /// Unprogrammed media reads as zero. Reads may cross buffer-line (and
    /// page) boundaries.
    pub fn read_into(&self, addr: PhysAddr, out: &mut [u8]) {
        let (page, off) = (
            addr.as_u64() / PAGE_BYTES as u64,
            addr.as_u64() as usize % PAGE_BYTES,
        );
        if off + out.len() <= PAGE_BYTES {
            // Within one page: one lookup, and a fixed-size copy for the
            // usual lengths.
            let page = self.pages.get(&page);
            silo_types::fixed_len!(mut o = out => match page {
                Some(p) => o.copy_from_slice(&p.data[off..off + o.len()]),
                None => o.fill(0),
            });
            return;
        }
        let mut cur = addr.as_u64();
        let mut pos = 0;
        while pos < out.len() {
            let off = (cur % PAGE_BYTES as u64) as usize;
            let chunk = (out.len() - pos).min(PAGE_BYTES - off);
            match self.pages.get(&(cur / PAGE_BYTES as u64)) {
                Some(p) => out[pos..pos + chunk].copy_from_slice(&p.data[off..off + chunk]),
                None => out[pos..pos + chunk].fill(0),
            }
            cur += chunk as u64;
            pos += chunk;
        }
    }

    /// Reads `len` bytes starting at `addr`. Unprogrammed media reads as
    /// zero. Reads may cross buffer-line boundaries.
    pub fn read(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.read_into(addr, &mut out);
        out
    }

    /// Reads one little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        let a = addr.as_u64();
        let off = (a % PAGE_BYTES as u64) as usize;
        if off + 8 <= PAGE_BYTES {
            match self.pages.get(&(a / PAGE_BYTES as u64)) {
                Some(p) => u64::from_le_bytes(p.data[off..off + 8].try_into().expect("8 bytes")),
                None => 0,
            }
        } else {
            let mut b = [0u8; 8];
            self.read_into(addr, &mut b);
            u64::from_le_bytes(b)
        }
    }

    /// Number of media line programs performed (the paper Fig 11 metric).
    pub fn line_writes(&self) -> u64 {
        self.line_writes
    }

    /// Total bits actually programmed across all writes.
    pub fn bits_programmed(&self) -> u64 {
        self.bits_programmed
    }

    /// Number of writes fully suppressed by data-comparison-write.
    pub fn dcw_suppressed(&self) -> u64 {
        self.dcw_suppressed
    }

    /// Number of distinct buffer lines ever materialized (footprint).
    pub fn touched_lines(&self) -> usize {
        self.touched_count
    }

    /// Number of materialized 4 KiB pages (page-table size).
    pub fn touched_pages(&self) -> usize {
        self.pages.len()
    }

    /// Per-line wear counters (endurance analysis), read from the pages.
    pub fn wear(&self) -> WearTracker {
        let mut wear = WearTracker::new();
        for (&page, p) in &self.pages {
            for (slot, &programs) in p.programs.iter().enumerate() {
                wear.record_programs(page * LINES_PER_PAGE as u64 + slot as u64, programs);
            }
        }
        wear
    }

    /// How many pages are currently shared with at least one snapshot
    /// (clone) — i.e. would be duplicated by the next write to them.
    #[cfg(test)]
    fn shared_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_media_reads_zero() {
        let m = Media::new();
        assert_eq!(m.read(PhysAddr::new(12345), 4), vec![0, 0, 0, 0]);
        assert_eq!(m.read_u64(PhysAddr::new(0)), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = Media::new();
        m.write_masked(PhysAddr::new(512), &[9, 8, 7, 6], 10);
        assert_eq!(m.read(PhysAddr::new(522), 4), vec![9, 8, 7, 6]);
    }

    #[test]
    fn dcw_suppresses_identical_writes() {
        let mut m = Media::new();
        assert!(m.write_masked(PhysAddr::new(0), &[1, 1], 0));
        assert!(!m.write_masked(PhysAddr::new(0), &[1, 1], 0));
        assert_eq!(m.line_writes(), 1);
        assert_eq!(m.dcw_suppressed(), 1);
    }

    #[test]
    fn dcw_counts_only_changed_bits() {
        let mut m = Media::new();
        m.write_masked(PhysAddr::new(0), &[0b0000_0001], 0);
        assert_eq!(m.bits_programmed(), 1);
        m.write_masked(PhysAddr::new(0), &[0b0000_0011], 0);
        assert_eq!(m.bits_programmed(), 2); // only one new bit flipped
    }

    #[test]
    fn writing_zeros_to_fresh_media_is_suppressed() {
        // Fresh media is all-zero, so a zero write changes no bits.
        let mut m = Media::new();
        assert!(!m.write_masked(PhysAddr::new(64), &[0, 0, 0], 0));
        assert_eq!(m.line_writes(), 0);
    }

    #[test]
    fn reads_cross_buffer_line_boundaries() {
        let mut m = Media::new();
        m.write_masked(PhysAddr::new(0), &[0xaa], 255); // last byte of line 0
        m.write_masked(PhysAddr::new(256), &[0xbb], 0); // first byte of line 1
        assert_eq!(m.read(PhysAddr::new(255), 2), vec![0xaa, 0xbb]);
    }

    #[test]
    fn reads_cross_page_boundaries() {
        let mut m = Media::new();
        m.write_masked(PhysAddr::new(4095), &[0xcc], 255); // last byte of page 0
        m.write_masked(PhysAddr::new(4096), &[0xdd], 0); // first byte of page 1
        assert_eq!(m.read(PhysAddr::new(4095), 2), vec![0xcc, 0xdd]);
        assert_eq!(m.touched_pages(), 2);
        // read_u64 straddling the page boundary takes the slow path.
        let mut expect = [0u8; 8];
        expect[3] = 0xcc;
        expect[4] = 0xdd;
        assert_eq!(m.read_u64(PhysAddr::new(4092)), u64::from_le_bytes(expect));
    }

    #[test]
    #[should_panic(expected = "crosses a buffer-line boundary")]
    fn writes_may_not_cross_buffer_lines() {
        let mut m = Media::new();
        m.write_masked(PhysAddr::new(0), &[1, 2], 255);
    }

    #[test]
    fn footprint_is_sparse() {
        let mut m = Media::new();
        m.write_masked(PhysAddr::new(0), &[1], 0);
        m.write_masked(PhysAddr::new(1 << 30), &[1], 0);
        assert_eq!(m.touched_lines(), 2);
    }

    #[test]
    fn suppressed_writes_still_materialize_the_line() {
        // Footprint parity with the reference HashMap media: a fully
        // DCW-suppressed write still counts the line as touched.
        let mut m = Media::new();
        assert!(!m.write_masked(PhysAddr::new(0), &[0, 0], 0));
        assert_eq!(m.touched_lines(), 1);
        assert_eq!(m.touched_pages(), 1);
    }

    #[test]
    fn program_line_counts_one_write_for_many_fragments() {
        let mut m = Media::new();
        let mut data = [0u8; BUF_LINE_BYTES];
        let mut valid = [false; BUF_LINE_BYTES];
        // Three disjoint fragments (two words and a half-cacheline) in one
        // staged line...
        for i in 0..8 {
            data[i] = 0x11;
            valid[i] = true;
        }
        for i in 16..24 {
            data[i] = 0x22;
            valid[i] = true;
        }
        for i in 128..160 {
            data[i] = 0x33;
            valid[i] = true;
        }
        // ...cost exactly one media line write.
        assert!(m.program_line(PhysAddr::new(0), &data, &line_mask(&valid)));
        assert_eq!(m.line_writes(), 1);
        assert_eq!(m.read(PhysAddr::new(16), 8), vec![0x22; 8]);
        // Invalid bytes were not touched.
        assert_eq!(m.read(PhysAddr::new(8), 8), vec![0; 8]);
    }

    #[test]
    fn program_line_identical_content_suppressed() {
        let mut m = Media::new();
        let mut data = [0u8; BUF_LINE_BYTES];
        let mut valid = [false; BUF_LINE_BYTES];
        data[0] = 5;
        valid[0] = true;
        assert!(m.program_line(PhysAddr::new(256), &data, &line_mask(&valid)));
        assert!(!m.program_line(PhysAddr::new(256), &data, &line_mask(&valid)));
        assert_eq!(m.line_writes(), 1);
        assert_eq!(m.dcw_suppressed(), 1);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn program_line_requires_alignment() {
        let mut m = Media::new();
        let data = [0u8; BUF_LINE_BYTES];
        m.program_line(PhysAddr::new(8), &data, &[0; LINE_CHUNKS]);
    }

    #[test]
    fn read_u64_little_endian() {
        let mut m = Media::new();
        m.write_masked(PhysAddr::new(0), &42u64.to_le_bytes(), 8);
        assert_eq!(m.read_u64(PhysAddr::new(8)), 42);
    }

    #[test]
    fn snapshots_are_copy_on_write() {
        let mut m = Media::new();
        for line in 0..32u64 {
            m.write_masked(PhysAddr::new(line * 256), &[line as u8 + 1], 0);
        }
        assert_eq!(m.touched_pages(), 2);
        let snap = m.clone();
        assert_eq!(m.shared_pages(), 2, "clone shares every page");
        // Writing one line after the snapshot duplicates only its page.
        m.write_masked(PhysAddr::new(0), &[0xff], 0);
        assert_eq!(m.shared_pages(), 1, "only the written page was copied");
        // The snapshot still sees the pre-write bytes; the live media sees
        // the new ones.
        assert_eq!(snap.read(PhysAddr::new(0), 1), vec![1]);
        assert_eq!(m.read(PhysAddr::new(0), 1), vec![0xff]);
        // A DCW-suppressed write to an already-touched shared page must not
        // duplicate it.
        let before = m.shared_pages();
        assert!(!m.write_masked(PhysAddr::new(16 * 256), &[17], 0));
        assert_eq!(m.shared_pages(), before, "suppressed write copied a page");
    }

    #[test]
    fn snapshot_counters_are_independent() {
        let mut m = Media::new();
        m.write_masked(PhysAddr::new(0), &[1], 0);
        let snap = m.clone();
        m.write_masked(PhysAddr::new(256), &[2], 0);
        assert_eq!(m.line_writes(), 2);
        assert_eq!(snap.line_writes(), 1);
        assert_eq!(snap.touched_lines(), 1);
        assert_eq!(m.touched_lines(), 2);
    }

    /// The retained reference implementation: the pre-paging
    /// `HashMap<line, Box<[u8; 256]>>` media, kept verbatim so the paged
    /// implementation can be differentially tested against it.
    mod reference {
        use std::collections::HashMap;

        use silo_types::{PhysAddr, BUF_LINE_BYTES};

        #[derive(Clone, Debug, Default)]
        pub struct RefMedia {
            lines: HashMap<u64, Box<[u8; BUF_LINE_BYTES]>>,
            /// Programs per line.
            programs: HashMap<u64, u64>,
            line_writes: u64,
            bits_programmed: u64,
            dcw_suppressed: u64,
        }

        impl RefMedia {
            pub fn write_masked(
                &mut self,
                line_base: PhysAddr,
                bytes: &[u8],
                offset: usize,
            ) -> bool {
                assert!(offset + bytes.len() <= BUF_LINE_BYTES);
                let idx = line_base.buf_line_index();
                let line = self
                    .lines
                    .entry(idx)
                    .or_insert_with(|| Box::new([0u8; BUF_LINE_BYTES]));
                let target = &mut line[offset..offset + bytes.len()];
                let changed_bits: u64 = target
                    .iter()
                    .zip(bytes)
                    .map(|(old, new)| (old ^ new).count_ones() as u64)
                    .sum();
                if changed_bits == 0 {
                    self.dcw_suppressed += 1;
                    return false;
                }
                target.copy_from_slice(bytes);
                self.line_writes += 1;
                self.bits_programmed += changed_bits;
                *self.programs.entry(idx).or_default() += 1;
                true
            }

            pub fn program_line(
                &mut self,
                line_base: PhysAddr,
                data: &[u8; BUF_LINE_BYTES],
                valid: &[bool; BUF_LINE_BYTES],
            ) -> bool {
                assert_eq!(line_base.buf_line_aligned(), line_base);
                let idx = line_base.buf_line_index();
                let line = self
                    .lines
                    .entry(idx)
                    .or_insert_with(|| Box::new([0u8; BUF_LINE_BYTES]));
                let mut changed_bits = 0u64;
                for i in 0..BUF_LINE_BYTES {
                    if valid[i] {
                        changed_bits += (line[i] ^ data[i]).count_ones() as u64;
                    }
                }
                if changed_bits == 0 {
                    self.dcw_suppressed += 1;
                    return false;
                }
                for i in 0..BUF_LINE_BYTES {
                    if valid[i] {
                        line[i] = data[i];
                    }
                }
                self.line_writes += 1;
                self.bits_programmed += changed_bits;
                *self.programs.entry(idx).or_default() += 1;
                true
            }

            pub fn revert(&mut self, addr: PhysAddr, bytes: &[u8]) {
                let mut cur = addr.as_u64();
                let mut rest = bytes;
                while !rest.is_empty() {
                    let off = (cur % BUF_LINE_BYTES as u64) as usize;
                    let chunk = rest.len().min(BUF_LINE_BYTES - off);
                    let idx = cur / BUF_LINE_BYTES as u64;
                    let line = self
                        .lines
                        .entry(idx)
                        .or_insert_with(|| Box::new([0u8; BUF_LINE_BYTES]));
                    line[off..off + chunk].copy_from_slice(&rest[..chunk]);
                    cur += chunk as u64;
                    rest = &rest[chunk..];
                }
            }

            pub fn read(&self, addr: PhysAddr, len: usize) -> Vec<u8> {
                let mut out = Vec::with_capacity(len);
                let mut cur = addr.as_u64();
                let mut remaining = len;
                while remaining > 0 {
                    let line_idx = cur / BUF_LINE_BYTES as u64;
                    let off = (cur % BUF_LINE_BYTES as u64) as usize;
                    let chunk = remaining.min(BUF_LINE_BYTES - off);
                    match self.lines.get(&line_idx) {
                        Some(line) => out.extend_from_slice(&line[off..off + chunk]),
                        None => out.extend(std::iter::repeat_n(0u8, chunk)),
                    }
                    cur += chunk as u64;
                    remaining -= chunk;
                }
                out
            }

            pub fn line_writes(&self) -> u64 {
                self.line_writes
            }

            pub fn bits_programmed(&self) -> u64 {
                self.bits_programmed
            }

            pub fn dcw_suppressed(&self) -> u64 {
                self.dcw_suppressed
            }

            pub fn touched_lines(&self) -> usize {
                self.lines.len()
            }

            /// Every programmed line's count, hottest first, ties by line.
            pub fn hottest_lines(&self) -> Vec<(u64, u64)> {
                let mut v: Vec<(u64, u64)> = self.programs.iter().map(|(&l, &c)| (l, c)).collect();
                v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                v
            }
        }
    }

    /// One random operation applied identically to both implementations,
    /// after which their program counters must agree. Every byte is drawn
    /// on its own from a small alphabet, so DCW suppression is common and a
    /// compare or merge that slips by a byte within an eight-byte chunk
    /// changes a count or the image.
    fn apply_random_op(
        rng: &mut silo_types::SplitMix64,
        paged: &mut Media,
        reference: &mut reference::RefMedia,
    ) {
        const SPAN: u64 = 4 * PAGE_BYTES as u64; // a few pages of address space
        match rng.next_u64() % 5 {
            // write_masked with random length/offset inside one line
            0 | 1 => {
                let line =
                    (rng.next_u64() % (SPAN / BUF_LINE_BYTES as u64)) * BUF_LINE_BYTES as u64;
                let offset = (rng.next_u64() % 200) as usize;
                let len = 1 + (rng.next_u64() % (BUF_LINE_BYTES as u64 - offset as u64)) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() % 4) as u8).collect();
                let a = PhysAddr::new(line);
                assert_eq!(
                    paged.write_masked(a, &bytes, offset),
                    reference.write_masked(a, &bytes, offset),
                    "write_masked program/suppress divergence at {a}"
                );
            }
            // program_line with a random valid mask
            2 => {
                let line =
                    (rng.next_u64() % (SPAN / BUF_LINE_BYTES as u64)) * BUF_LINE_BYTES as u64;
                let mut data = [0u8; BUF_LINE_BYTES];
                let mut valid = [false; BUF_LINE_BYTES];
                for i in 0..BUF_LINE_BYTES {
                    if rng.next_u64().is_multiple_of(3) {
                        valid[i] = true;
                        data[i] = (rng.next_u64() % 4) as u8;
                    }
                }
                let a = PhysAddr::new(line);
                assert_eq!(
                    paged.program_line(a, &data, &line_mask(&valid)),
                    reference.program_line(a, &data, &valid),
                    "program_line divergence at {a}"
                );
            }
            // revert (crash-time discard_to path), may cross lines/pages
            3 => {
                let start = rng.next_u64() % (SPAN - 600);
                let len = 1 + (rng.next_u64() % 512) as usize;
                let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() % 4) as u8).collect();
                paged.revert(PhysAddr::new(start), &bytes);
                reference.revert(PhysAddr::new(start), &bytes);
            }
            // read, may cross lines/pages
            _ => {
                let start = rng.next_u64() % (SPAN - 600);
                let len = 1 + (rng.next_u64() % 512) as usize;
                let a = PhysAddr::new(start);
                assert_eq!(paged.read(a, len), reference.read(a, len), "read at {a}");
            }
        }
        assert_eq!(paged.line_writes(), reference.line_writes());
        assert_eq!(paged.bits_programmed(), reference.bits_programmed());
        assert_eq!(paged.dcw_suppressed(), reference.dcw_suppressed());
    }

    #[test]
    fn differential_vs_reference_hashmap_media() {
        // 4000 random store/program/revert/read ops against the retained
        // reference implementation: identical images, identical program
        // counters. Identical `line_writes` implies identical
        // `LineProgram` durability-event counts, since the device derives
        // those events from line-write deltas.
        let mut rng = silo_types::SplitMix64::new(0x51_70);
        let mut paged = Media::new();
        let mut reference = reference::RefMedia::default();
        for _ in 0..4000 {
            apply_random_op(&mut rng, &mut paged, &mut reference);
        }
        assert_eq!(paged.line_writes(), reference.line_writes());
        assert_eq!(paged.bits_programmed(), reference.bits_programmed());
        assert_eq!(paged.dcw_suppressed(), reference.dcw_suppressed());
        assert_eq!(paged.touched_lines(), reference.touched_lines());
        assert_eq!(
            paged.wear().hottest_lines(usize::MAX),
            reference.hottest_lines()
        );
        assert_eq!(paged.wear().total_programs(), reference.line_writes());
        // Full-image sweep over the exercised span.
        let span = 4 * PAGE_BYTES;
        assert_eq!(
            paged.read(PhysAddr::ZERO, span),
            reference.read(PhysAddr::ZERO, span),
            "final images diverge"
        );
    }

    /// The hot paths' fixed lengths (a word, one and two log records, a
    /// cacheline) written at every offset of a buffer line that fits them
    /// and read back at every offset, so each read of the line's tail
    /// crosses into the next line, and across a page boundary: the same
    /// programs, suppressions and bytes as the reference.
    #[test]
    fn differential_fixed_lengths_at_every_offset() {
        let mut rng = silo_types::SplitMix64::new(0xf1_7ed);
        let mut paged = Media::new();
        let mut reference = reference::RefMedia::default();
        // The last line of page 0 and the first of page 1, then a line
        // inside page 2.
        let lines = [
            PAGE_BYTES - BUF_LINE_BYTES,
            PAGE_BYTES,
            2 * PAGE_BYTES + BUF_LINE_BYTES,
        ];
        for len in [8, 18, 36, 64] {
            for &line in &lines {
                let base = PhysAddr::new(line as u64);
                for offset in 0..=BUF_LINE_BYTES - len {
                    // Every fourth write rewrites what is stored, which DCW
                    // suppresses.
                    let bytes: Vec<u8> = match offset % 4 {
                        0 => reference.read(base.add(offset as u64), len),
                        _ => (0..len).map(|_| rng.below(3) as u8).collect(),
                    };
                    assert_eq!(
                        paged.write_masked(base, &bytes, offset),
                        reference.write_masked(base, &bytes, offset),
                        "{len} bytes at {base} + {offset}"
                    );
                }
                for offset in 0..BUF_LINE_BYTES {
                    let a = base.add(offset as u64);
                    let mut got = vec![0xee; len];
                    paged.read_into(a, &mut got);
                    assert_eq!(got, reference.read(a, len), "{len}-byte read at {a}");
                }
            }
        }
        assert_eq!(paged.line_writes(), reference.line_writes());
        assert_eq!(paged.bits_programmed(), reference.bits_programmed());
        assert_eq!(paged.dcw_suppressed(), reference.dcw_suppressed());
        assert!(paged.dcw_suppressed() > 100, "suppressed writes ran");
        let span = 4 * PAGE_BYTES;
        assert_eq!(
            paged.read(PhysAddr::ZERO, span),
            reference.read(PhysAddr::ZERO, span)
        );
    }

    #[test]
    fn differential_holds_across_cow_snapshots() {
        // Same differential, but the paged media is snapshotted mid-stream
        // so every later write exercises the Arc::make_mut COW path.
        let mut rng = silo_types::SplitMix64::new(0xc0_77);
        let mut paged = Media::new();
        let mut reference = reference::RefMedia::default();
        let mut snapshots = Vec::new();
        for step in 0..3000 {
            if step % 500 == 250 {
                snapshots.push((paged.clone(), reference.clone()));
            }
            apply_random_op(&mut rng, &mut paged, &mut reference);
        }
        let span = 4 * PAGE_BYTES;
        assert_eq!(
            paged.read(PhysAddr::ZERO, span),
            reference.read(PhysAddr::ZERO, span)
        );
        assert_eq!(paged.touched_lines(), reference.touched_lines());
        // Every frozen snapshot must still match its reference twin — the
        // COW writes since must not have leaked into shared pages.
        for (snap, ref_snap) in &snapshots {
            assert_eq!(
                snap.read(PhysAddr::ZERO, span),
                ref_snap.read(PhysAddr::ZERO, span),
                "a post-snapshot write leaked into a frozen snapshot"
            );
            assert_eq!(snap.line_writes(), ref_snap.line_writes());
            assert_eq!(
                snap.wear().hottest_lines(usize::MAX),
                ref_snap.hottest_lines()
            );
        }
    }
}
