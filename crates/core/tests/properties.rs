//! Property tests: log-buffer merge invariants, record codec, and
//! recovery correctness on randomly generated log regions.

use std::collections::HashMap;

use silo_core::{
    recover_log_region, InsertOutcome, LogBuffer, LogEntry, Record, RecordKind, ThreadLogArea,
    RECORD_BYTES,
};
use silo_pm::{PmDevice, PmDeviceConfig};
use silo_types::prop::check;
use silo_types::{PhysAddr, ThreadId, TxId, TxTag, Word};

fn tag(tid: u8, txid: u16) -> TxTag {
    TxTag::new(ThreadId::new(tid), TxId::new(txid))
}

/// After any insert sequence (within one transaction), the buffer
/// holds at most one entry per word address, with the FIRST old value
/// and the LAST new value of that word.
#[test]
fn merge_keeps_oldest_old_and_newest_new() {
    check("merge_keeps_oldest_old_and_newest_new", 256, |g| {
        let stores = g.vec(1..20, |g| (g.range(0..12), g.u64()));
        let t = tag(0, 1);
        let mut buf = LogBuffer::new(32);
        let mut first_old: HashMap<u64, Word> = HashMap::new();
        let mut last_new: HashMap<u64, Word> = HashMap::new();
        let mut current: HashMap<u64, Word> = HashMap::new();
        for (slot, value) in &stores {
            let addr = PhysAddr::new(slot * 8);
            let old = current.get(slot).copied().unwrap_or(Word::ZERO);
            let new = Word::new(*value);
            buf.insert(LogEntry::new(t, addr, old, new));
            first_old.entry(*slot).or_insert(old);
            last_new.insert(*slot, new);
            current.insert(*slot, new);
        }
        let mut seen = std::collections::HashSet::new();
        for e in buf.entries() {
            let slot = e.addr().as_u64() / 8;
            assert!(seen.insert(slot), "duplicate entry for one word");
            assert_eq!(e.old(), first_old[&slot]);
            assert_eq!(e.new_data(), last_new[&slot]);
        }
        assert_eq!(buf.len(), first_old.len());
    });
}

/// Entries from different transactions never merge.
#[test]
fn no_cross_transaction_merging() {
    check("no_cross_transaction_merging", 256, |g| {
        let txids = g.vec(2..16, |g| g.range(1..5) as u16);
        let mut buf = LogBuffer::new(64);
        let mut appended = 0;
        let mut seen = std::collections::HashSet::new();
        for txid in &txids {
            let outcome = buf.insert(LogEntry::new(
                tag(0, *txid),
                PhysAddr::new(0),
                Word::ZERO,
                Word::new(*txid as u64),
            ));
            if seen.insert(*txid) {
                assert_eq!(outcome, InsertOutcome::Appended);
                appended += 1;
            } else {
                assert_eq!(outcome, InsertOutcome::Merged);
            }
        }
        assert_eq!(buf.len(), appended);
    });
}

/// The 18 B wire codec round-trips every representable record.
#[test]
fn record_codec_roundtrip() {
    check("record_codec_roundtrip", 256, |g| {
        let rec = Record {
            kind: match g.range(1..4) {
                1 => RecordKind::Undo,
                2 => RecordKind::Redo,
                _ => RecordKind::IdTuple,
            },
            flush_bit: g.bool(),
            tag: tag(g.range(0..1 << 8) as u8, g.range(0..1 << 16) as u16),
            addr: PhysAddr::new(g.range(0..1 << 45) * 8),
            data: Word::new(g.u64()),
        };
        assert_eq!(Record::decode(&rec.encode()), Some(rec));
    });
}

/// Recovery semantics on random log regions: committed transactions'
/// redo records replay in order (last write wins); uncommitted
/// transactions' undo records unwind in reverse (first old wins);
/// recovery is idempotent.
#[test]
fn recovery_replays_and_revokes_correctly() {
    check("recovery_replays_and_revokes_correctly", 256, |g| {
        let committed = g.bool();
        let entries = g.vec(1..12, |g| (g.range(0..6), g.u64(), g.u64()));
        const BASE: u64 = 0x10_000;
        let t = tag(1, 7);
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let mut area = ThreadLogArea::new(PhysAddr::new(BASE), PhysAddr::new(BASE + 0x10_000));

        // Data region state "at the crash": the newest value of each word.
        let mut first_old: HashMap<u64, u64> = HashMap::new();
        let mut last_new: HashMap<u64, u64> = HashMap::new();
        let mut records = Vec::new();
        for (slot, old, new) in &entries {
            first_old.entry(*slot).or_insert(*old);
            last_new.insert(*slot, *new);
            records.push(Record {
                kind: if committed {
                    RecordKind::Redo
                } else {
                    RecordKind::Undo
                },
                flush_bit: false,
                tag: t,
                addr: PhysAddr::new(slot * 8),
                data: Word::new(if committed { *new } else { *old }),
            });
        }
        if committed {
            records.push(Record::id_tuple(t));
        }
        let addr = area.reserve(records.len());
        let mut bytes = Vec::with_capacity(records.len() * RECORD_BYTES);
        for r in &records {
            bytes.extend_from_slice(&r.encode());
        }
        pm.write(addr, &bytes);
        area.write_crash_header(&mut pm);

        recover_log_region(&mut pm, &[PhysAddr::new(BASE)]);
        for (slot, _, _) in &entries {
            let expected = if committed {
                last_new[slot]
            } else {
                first_old[slot]
            };
            assert_eq!(
                pm.peek_word(PhysAddr::new(slot * 8)).as_u64(),
                expected,
                "slot {slot}"
            );
        }
        // Idempotence.
        let again = recover_log_region(&mut pm, &[PhysAddr::new(BASE)]);
        assert_eq!(again.replayed_words + again.revoked_words, 0);
    });
}

/// Flush-bit matching flips exactly the entries in the evicted line.
#[test]
fn flush_bit_matches_exactly_the_line() {
    check("flush_bit_matches_exactly_the_line", 256, |g| {
        let slots = g.vec(1..20, |g| g.range(0..32));
        let evict_line = g.range(0..4);
        let t = tag(0, 1);
        let mut buf = LogBuffer::new(32);
        let mut expect = 0;
        let mut distinct = std::collections::HashSet::new();
        for slot in &slots {
            let addr = PhysAddr::new(slot * 8); // 8 words per 64B line
            if distinct.insert(*slot) && slot / 8 == evict_line {
                expect += 1;
            }
            buf.insert(LogEntry::new(t, addr, Word::ZERO, Word::new(1)));
        }
        let line = silo_types::LineAddr::containing(PhysAddr::new(evict_line * 64));
        assert_eq!(buf.mark_line_evicted(line), expect);
        assert_eq!(
            buf.mark_line_evicted(line),
            0,
            "second eviction flips nothing"
        );
    });
}
