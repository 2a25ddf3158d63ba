//! The log entry (paper Fig 6) and its PM wire encoding.

use silo_types::{LineAddr, PhysAddr, ThreadId, TxId, TxTag, Word};

/// Size of one undo *or* redo record in the PM log region: 10 B metadata
/// (flags, tid, txid, 48-bit address) + one 8 B data word. The paper's
/// §III-F "each undo log entry is only 18B (including the log metadata and
/// the old data)".
pub const RECORD_BYTES: usize = 18;

/// Alias kept for readability at call sites dealing with overflow batches.
pub const UNDO_ENTRY_BYTES: usize = RECORD_BYTES;

/// An on-chip undo+redo log entry (Fig 6): both the old and the new word,
/// plus the metadata identifying the producing transaction.
///
/// On chip the entry is 26 B of payload; when written to the PM log region
/// it is split into 18 B undo or redo [`Record`]s, because a crash flush
/// never needs both halves for the same entry (§III-G: undo for
/// uncommitted, redo for committed transactions).
///
/// # Examples
///
/// ```
/// use silo_core::LogEntry;
/// use silo_types::{PhysAddr, ThreadId, TxId, TxTag, Word};
///
/// let e = LogEntry::new(
///     TxTag::new(ThreadId::new(1), TxId::new(3)),
///     PhysAddr::new(0x40),
///     Word::new(0xA0), // old
///     Word::new(0xA1), // new
/// );
/// assert!(!e.flush_bit());
/// assert_eq!(e.addr(), PhysAddr::new(0x40));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LogEntry {
    tag: TxTag,
    addr: PhysAddr,
    old: Word,
    new: Word,
    flush_bit: bool,
}

impl LogEntry {
    /// Creates an entry for a store of `new` over `old` at `addr`
    /// (word-aligned), with the flush-bit clear.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not word-aligned — the log generator always
    /// records word-granular store addresses.
    pub fn new(tag: TxTag, addr: PhysAddr, old: Word, new: Word) -> Self {
        assert!(
            addr.is_word_aligned(),
            "log data address must be word-aligned"
        );
        LogEntry {
            tag,
            addr,
            old,
            new,
            flush_bit: false,
        }
    }

    /// The producing transaction's `(tid, txid)`.
    pub fn tag(&self) -> TxTag {
        self.tag
    }

    /// Physical address of the logged word.
    pub fn addr(&self) -> PhysAddr {
        self.addr
    }

    /// The pre-store value (undo data).
    pub fn old(&self) -> Word {
        self.old
    }

    /// The post-store value (redo data).
    pub fn new_data(&self) -> Word {
        self.new
    }

    /// Whether a cacheline eviction already carried this entry's new data
    /// to PM (§III-D): if set, the new data is *not* flushed at commit.
    pub fn flush_bit(&self) -> bool {
        self.flush_bit
    }

    /// Sets the flush-bit (called when the containing cacheline is evicted
    /// or when the entry overflows, §III-F case 2).
    pub fn set_flush_bit(&mut self) {
        self.flush_bit = true;
    }

    /// Merges a newer store to the same address into this entry: keeps the
    /// oldest `old`, adopts the newest `new` (§III-C log merging).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the addresses or tags differ — hardware
    /// comparators only merge within the same word and transaction.
    pub fn merge(&mut self, newer: &LogEntry) {
        debug_assert_eq!(self.addr, newer.addr, "merge requires equal addresses");
        debug_assert_eq!(self.tag, newer.tag, "no merging across transactions");
        self.new = newer.new;
    }

    /// Whether the logged word lies in cacheline `line` (the comparison the
    /// flush-bit comparators make by shifting the addr field, §III-D).
    pub fn in_line(&self, line: LineAddr) -> bool {
        line.contains(self.addr)
    }

    /// The undo half as a PM record.
    pub fn undo_record(&self) -> Record {
        Record {
            kind: RecordKind::Undo,
            flush_bit: self.flush_bit,
            tag: self.tag,
            addr: self.addr,
            data: self.old,
        }
    }

    /// The redo half as a PM record.
    pub fn redo_record(&self) -> Record {
        Record {
            kind: RecordKind::Redo,
            flush_bit: self.flush_bit,
            tag: self.tag,
            addr: self.addr,
            data: self.new,
        }
    }
}

/// Kind tag of a PM log-region record.
///
/// The encoding reserves 0 for "unwritten PM" so a scan can never confuse
/// erased space with a record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// Old-data record: revoke on recovery if the transaction did not
    /// commit.
    Undo = 1,
    /// New-data record: replay on recovery if the transaction committed.
    Redo = 2,
    /// Commit marker: the "(tid, txid)" ID tuple of §III-G.
    IdTuple = 3,
}

impl RecordKind {
    fn from_bits(bits: u8) -> Option<RecordKind> {
        match bits {
            1 => Some(RecordKind::Undo),
            2 => Some(RecordKind::Redo),
            3 => Some(RecordKind::IdTuple),
            _ => None,
        }
    }
}

/// One 18 B record in the PM log region.
///
/// Layout (little-endian):
///
/// ```text
/// byte 0      flags: bits 0-1 = kind, bit 7 = flush-bit
/// byte 1      tid
/// bytes 2-3   txid
/// bytes 4-9   addr (48 bits)
/// bytes 10-17 data word (old for undo, new for redo, zero for ID tuples)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// What the record is.
    pub kind: RecordKind,
    /// The flush-bit as flushed (distinguishes overflowed undo logs from
    /// redo logs of committed transactions during recovery, §III-G).
    pub flush_bit: bool,
    /// Producing transaction.
    pub tag: TxTag,
    /// Logged word address (zero for ID tuples).
    pub addr: PhysAddr,
    /// Old or new word (zero for ID tuples).
    pub data: Word,
}

impl Record {
    /// A commit-marker record for `tag`.
    pub fn id_tuple(tag: TxTag) -> Record {
        Record {
            kind: RecordKind::IdTuple,
            flush_bit: false,
            tag,
            addr: PhysAddr::ZERO,
            data: Word::ZERO,
        }
    }

    /// Serializes to the 18 B wire format.
    #[inline]
    pub fn encode(&self) -> [u8; RECORD_BYTES] {
        // Bytes 0..8 and 8..10 as two little-endian words, so a record is
        // three stores: kind and flush bit, thread id, transaction id,
        // then the address's low 48 bits, then the data word.
        let addr = self.addr.as_u64();
        let head = u64::from(self.kind as u8 | if self.flush_bit { 0x80 } else { 0 })
            | u64::from(self.tag.tid().as_u8()) << 8
            | u64::from(self.tag.txid().as_u16()) << 16
            | (addr & 0xffff_ffff) << 32;
        let mut out = [0u8; RECORD_BYTES];
        out[..8].copy_from_slice(&head.to_le_bytes());
        out[8..10].copy_from_slice(&((addr >> 32) as u16).to_le_bytes());
        out[10..].copy_from_slice(&self.data.to_le_bytes());
        out
    }

    /// Parses a record; `None` for unwritten space (kind bits 0) or a
    /// corrupt kind.
    pub fn decode(bytes: &[u8; RECORD_BYTES]) -> Option<Record> {
        let kind = RecordKind::from_bits(bytes[0] & 0x03)?;
        let flush_bit = bytes[0] & 0x80 != 0;
        let tid = ThreadId::new(bytes[1]);
        let txid = TxId::new(u16::from_le_bytes([bytes[2], bytes[3]]));
        let mut addr_bytes = [0u8; 8];
        addr_bytes[..6].copy_from_slice(&bytes[4..10]);
        let addr = PhysAddr::new(u64::from_le_bytes(addr_bytes));
        let data = Word::from_le_bytes(bytes[10..18].try_into().expect("8 bytes"));
        Some(Record {
            kind,
            flush_bit,
            tag: TxTag::new(tid, txid),
            addr,
            data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag() -> TxTag {
        TxTag::new(ThreadId::new(5), TxId::new(1234))
    }

    fn entry() -> LogEntry {
        LogEntry::new(tag(), PhysAddr::new(0x1238), Word::new(10), Word::new(20))
    }

    #[test]
    fn entry_accessors() {
        let e = entry();
        assert_eq!(e.tag(), tag());
        assert_eq!(e.old(), Word::new(10));
        assert_eq!(e.new_data(), Word::new(20));
        assert!(!e.flush_bit());
    }

    #[test]
    #[should_panic(expected = "word-aligned")]
    fn unaligned_entry_rejected() {
        let _ = LogEntry::new(tag(), PhysAddr::new(3), Word::ZERO, Word::ZERO);
    }

    #[test]
    fn merge_keeps_oldest_old_newest_new() {
        let mut a = entry();
        let b = LogEntry::new(tag(), PhysAddr::new(0x1238), Word::new(20), Word::new(30));
        a.merge(&b);
        assert_eq!(a.old(), Word::new(10));
        assert_eq!(a.new_data(), Word::new(30));
    }

    #[test]
    fn line_matching_shifts_the_addr_field() {
        let e = entry(); // word at 0x1238, line 0x1200
        assert!(e.in_line(LineAddr::containing(PhysAddr::new(0x1200))));
        assert!(e.in_line(LineAddr::containing(PhysAddr::new(0x123f))));
        assert!(!e.in_line(LineAddr::containing(PhysAddr::new(0x1240))));
    }

    #[test]
    fn records_split_the_entry() {
        let mut e = entry();
        e.set_flush_bit();
        let u = e.undo_record();
        assert_eq!(u.kind, RecordKind::Undo);
        assert_eq!(u.data, Word::new(10));
        assert!(u.flush_bit);
        let r = e.redo_record();
        assert_eq!(r.kind, RecordKind::Redo);
        assert_eq!(r.data, Word::new(20));
    }

    #[test]
    fn record_round_trips_through_wire_format() {
        for kind in [RecordKind::Undo, RecordKind::Redo, RecordKind::IdTuple] {
            let rec = Record {
                kind,
                flush_bit: kind == RecordKind::Undo,
                tag: tag(),
                addr: PhysAddr::new(0x00de_adbe_ef00 & !7),
                data: Word::new(0x1122_3344_5566_7788),
            };
            let decoded = Record::decode(&rec.encode()).expect("valid record");
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn unwritten_space_decodes_to_none() {
        assert_eq!(Record::decode(&[0u8; RECORD_BYTES]), None);
    }

    #[test]
    fn id_tuple_carries_only_the_tag() {
        let t = Record::id_tuple(tag());
        assert_eq!(t.kind, RecordKind::IdTuple);
        assert_eq!(t.addr, PhysAddr::ZERO);
        assert_eq!(t.data, Word::ZERO);
        let rt = Record::decode(&t.encode()).expect("valid");
        assert_eq!(rt.tag, tag());
    }

    #[test]
    fn forty_eight_bit_addresses_survive_encoding() {
        let rec = Record {
            kind: RecordKind::Redo,
            flush_bit: false,
            tag: tag(),
            addr: PhysAddr::new(((1u64 << 48) - 8) & !7),
            data: Word::ZERO,
        };
        let decoded = Record::decode(&rec.encode()).expect("valid");
        assert_eq!(decoded.addr, rec.addr);
    }

    #[test]
    fn record_size_matches_paper() {
        assert_eq!(RECORD_BYTES, 18);
        assert_eq!(entry().undo_record().encode().len(), 18);
    }
}
