//! The simulated PM heap and the transaction recorder workloads build on.

use silo_sim::{Op, Transaction};
use silo_types::{PhysAddr, Word, WordImage, WORD_BYTES};

/// A bump allocator over one core's private slice of the PM data region.
///
/// Real PM programs allocate from a persistent heap (the paper's workloads
/// use PMDK's `libpmemobj`); a bump allocator reproduces the property that
/// matters for the memory system — consecutive allocations land at
/// increasing, non-reused addresses — without the allocator's own metadata
/// traffic, which the paper's evaluation also excludes.
///
/// # Examples
///
/// ```
/// use silo_workloads::PmHeap;
///
/// let mut heap = PmHeap::new(0x100_0000, 1 << 20);
/// let a = heap.alloc(24);
/// let b = heap.alloc(8);
/// assert!(b.as_u64() >= a.as_u64() + 24);
/// assert!(a.is_word_aligned());
/// ```
#[derive(Clone, Debug)]
pub struct PmHeap {
    cursor: u64,
    end: u64,
}

impl PmHeap {
    /// Creates a heap over `[base, base + size)`.
    ///
    /// # Panics
    ///
    /// Panics if the region is empty or `base` is not word-aligned.
    pub fn new(base: u64, size: u64) -> Self {
        assert!(size > 0, "empty heap region");
        assert_eq!(
            base % WORD_BYTES as u64,
            0,
            "heap base must be word-aligned"
        );
        PmHeap {
            cursor: base,
            end: base + size,
        }
    }

    /// Allocates `bytes`, word-aligned.
    ///
    /// # Panics
    ///
    /// Panics when the region is exhausted.
    pub fn alloc(&mut self, bytes: u64) -> PhysAddr {
        self.alloc_aligned(bytes, WORD_BYTES as u64)
    }

    /// Allocates `bytes` at an `align`-byte boundary (power of two).
    ///
    /// # Panics
    ///
    /// Panics when the region is exhausted or `align` is not a power of
    /// two.
    pub fn alloc_aligned(&mut self, bytes: u64, align: u64) -> PhysAddr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.cursor + align - 1) & !(align - 1);
        let rounded = (bytes.max(1) + WORD_BYTES as u64 - 1) & !(WORD_BYTES as u64 - 1);
        assert!(base + rounded <= self.end, "PM heap exhausted");
        self.cursor = base + rounded;
        PhysAddr::new(base)
    }

    /// Bytes still available.
    pub fn remaining(&self) -> u64 {
        self.end - self.cursor
    }
}

/// Records a workload's execution into transaction traces.
///
/// The recorder holds the workload's logical view of PM (so data-structure
/// code can read back what it wrote across transactions) in a paged
/// [`WordImage`], where a load or a store is one page lookup and a word
/// never written reads as zero, and it captures every access as an [`Op`].
/// A way for setup writes to bypass op recording is not offered on
/// purpose: everything the structure does is a transaction, as in the
/// paper's benchmarks.
///
/// # Examples
///
/// ```
/// use silo_workloads::TxRecorder;
/// use silo_types::PhysAddr;
///
/// let mut rec = TxRecorder::new();
/// rec.write_u64(PhysAddr::new(8), 42);
/// assert_eq!(rec.read_u64(PhysAddr::new(8)), 42);
/// let tx = rec.finish_tx();
/// assert_eq!(tx.ops().len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TxRecorder {
    mem: WordImage,
    ops: Vec<Op>,
}

impl TxRecorder {
    /// Creates an empty recorder (all PM logically zero).
    pub fn new() -> Self {
        TxRecorder::default()
    }

    /// Reads a word, recording the load.
    pub fn read_u64(&mut self, addr: PhysAddr) -> u64 {
        let a = addr.word_aligned();
        self.ops.push(Op::Read(a));
        self.peek_u64(a)
    }

    /// Reads a word *without* recording a load (for generator-internal
    /// decisions that real hardware would have made from registers).
    pub fn peek_u64(&self, addr: PhysAddr) -> u64 {
        self.mem.get(addr).map_or(0, Word::as_u64)
    }

    /// Writes a word, recording the store.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        let a = addr.word_aligned();
        self.ops.push(Op::Write(a, Word::new(value)));
        self.mem.insert(a, Word::new(value));
    }

    /// Records pure compute cycles (hash computation, comparisons...).
    pub fn compute(&mut self, cycles: u32) {
        self.ops.push(Op::Compute(cycles));
    }

    /// Closes the current transaction and returns it.
    pub fn finish_tx(&mut self) -> Transaction {
        Transaction::new(std::mem::take(&mut self.ops))
    }

    /// Ops recorded in the current (unfinished) transaction.
    pub fn pending_ops(&self) -> usize {
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_is_monotonic_and_aligned() {
        let mut h = PmHeap::new(0, 1 << 16);
        let mut last = 0;
        for i in 1..50 {
            let a = h.alloc(i);
            assert!(a.is_word_aligned());
            assert!(a.as_u64() >= last);
            last = a.as_u64() + i;
        }
    }

    #[test]
    fn aligned_alloc_respects_alignment() {
        let mut h = PmHeap::new(0, 1 << 16);
        h.alloc(3);
        let a = h.alloc_aligned(64, 64);
        assert_eq!(a.as_u64() % 64, 0);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn heap_exhaustion_panics() {
        let mut h = PmHeap::new(0, 64);
        h.alloc(65);
    }

    #[test]
    fn recorder_round_trips_values() {
        let mut r = TxRecorder::new();
        assert_eq!(r.read_u64(PhysAddr::new(0)), 0);
        r.write_u64(PhysAddr::new(0), 7);
        assert_eq!(r.read_u64(PhysAddr::new(0)), 7);
        assert_eq!(r.peek_u64(PhysAddr::new(0)), 7);
    }

    #[test]
    fn recorder_emits_program_order() {
        let mut r = TxRecorder::new();
        r.write_u64(PhysAddr::new(8), 1);
        r.compute(3);
        r.read_u64(PhysAddr::new(8));
        let tx = r.finish_tx();
        assert!(matches!(tx.ops()[0], Op::Write(_, _)));
        assert!(matches!(tx.ops()[1], Op::Compute(3)));
        assert!(matches!(tx.ops()[2], Op::Read(_)));
        assert_eq!(r.pending_ops(), 0, "finish_tx drains the buffer");
    }

    #[test]
    fn values_persist_across_transactions() {
        let mut r = TxRecorder::new();
        r.write_u64(PhysAddr::new(16), 9);
        let _tx1 = r.finish_tx();
        assert_eq!(r.peek_u64(PhysAddr::new(16)), 9);
    }

    #[test]
    fn unaligned_addresses_are_word_rounded() {
        let mut r = TxRecorder::new();
        r.write_u64(PhysAddr::new(13), 5);
        assert_eq!(r.read_u64(PhysAddr::new(8)), 5);
    }
}
