//! Post-crash recovery from the PM log region (§III-G, Fig 10g).

use silo_pm::PmDevice;
use silo_sim::RecoveryReport;
use silo_types::{FxHashSet, TxTag};

use crate::{Record, RecordKind, ThreadLogArea};

/// Recovers the PM data region from the per-thread log `areas`.
///
/// Classification follows the paper exactly:
///
/// 1. ID tuples name the committed transactions.
/// 2. Records whose `(tid, txid)` is in the committed set are **redo**
///    logs; those with flush-bit 0 are replayed (forward, in log order).
///    Overflowed undo logs of committed transactions carry flush-bit 1 and
///    are discarded.
/// 3. All other records are **undo** logs of uncommitted transactions and
///    are revoked in *reverse* log order, so a word overflowed and
///    re-logged within one transaction unwinds to its original value.
///
/// Headers are cleared afterwards, making recovery idempotent.
pub fn recover(pm: &mut PmDevice, areas: &[ThreadLogArea]) -> RecoveryReport {
    let mut report = RecoveryReport::default();
    // Each area is read once; pass 2 writes only data words and each
    // area's own header, never another area's records.
    let records: Vec<Vec<Record>> = areas.iter().map(|area| area.scan(pm)).collect();

    // Pass 1: find every committed transaction across all areas.
    let mut committed: FxHashSet<TxTag> = FxHashSet::default();
    for rec in records.iter().flatten() {
        report.scanned_records += 1;
        if rec.kind == RecordKind::IdTuple {
            committed.insert(rec.tag);
        }
    }
    report.committed_txs = committed.len() as u64;

    // Pass 2: replay / revoke per area.
    for (area, records) in areas.iter().zip(&records) {
        // Redo replay, forward order.
        for rec in records {
            match rec.kind {
                RecordKind::IdTuple => {}
                RecordKind::Redo if committed.contains(&rec.tag) && !rec.flush_bit => {
                    pm.write(rec.addr, &rec.data.to_le_bytes());
                    report.replayed_words += 1;
                }
                _ if committed.contains(&rec.tag) => {
                    // Overflowed undo logs of committed transactions
                    // (flush-bit 1) and already-flushed redo data.
                    report.discarded_logs += 1;
                }
                _ => {}
            }
        }
        // Undo revoke, reverse order.
        for rec in records.iter().rev() {
            if rec.kind == RecordKind::Undo && !committed.contains(&rec.tag) {
                pm.write(rec.addr, &rec.data.to_le_bytes());
                report.revoked_words += 1;
            }
        }
        ThreadLogArea::clear_header(pm, area.base());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Record, RECORD_BYTES};
    use silo_pm::PmDeviceConfig;
    use silo_types::{PhysAddr, ThreadId, TxId, Word};

    const BASE: u64 = 0x10_000;

    fn tag(tid: u8, txid: u16) -> TxTag {
        TxTag::new(ThreadId::new(tid), TxId::new(txid))
    }

    fn area(base: u64) -> ThreadLogArea {
        ThreadLogArea::new(PhysAddr::new(base), PhysAddr::new(base + 0x10_000))
    }

    fn write_area(pm: &mut PmDevice, base: u64, records: &[Record]) {
        let mut area = area(base);
        let addr = area.reserve(records.len());
        let mut bytes = Vec::with_capacity(records.len() * RECORD_BYTES);
        for r in records {
            bytes.extend_from_slice(&r.encode());
        }
        pm.write(addr, &bytes);
        area.write_crash_header(pm);
    }

    fn undo(t: TxTag, addr: u64, old: u64, fb: bool) -> Record {
        Record {
            kind: RecordKind::Undo,
            flush_bit: fb,
            tag: t,
            addr: PhysAddr::new(addr),
            data: Word::new(old),
        }
    }

    fn redo(t: TxTag, addr: u64, new: u64) -> Record {
        Record {
            kind: RecordKind::Redo,
            flush_bit: false,
            tag: t,
            addr: PhysAddr::new(addr),
            data: Word::new(new),
        }
    }

    #[test]
    fn committed_tx_redo_is_replayed() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let t = tag(0, 3);
        write_area(
            &mut pm,
            BASE,
            &[
                redo(t, 0x100, 0xA2),
                redo(t, 0x108, 0xC1),
                Record::id_tuple(t),
            ],
        );
        let report = recover(&mut pm, &[area(BASE)]);
        assert_eq!(report.committed_txs, 1);
        assert_eq!(report.replayed_words, 2);
        assert_eq!(pm.peek_word(PhysAddr::new(0x100)), Word::new(0xA2));
        assert_eq!(pm.peek_word(PhysAddr::new(0x108)), Word::new(0xC1));
    }

    #[test]
    fn uncommitted_tx_undo_is_revoked() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        // Partial update leaked to the data region before the crash.
        pm.write_word(PhysAddr::new(0x200), Word::new(0xD1));
        let t = tag(1, 7);
        write_area(&mut pm, BASE, &[undo(t, 0x200, 0xD0, true)]);
        let report = recover(&mut pm, &[area(BASE)]);
        assert_eq!(report.revoked_words, 1);
        assert_eq!(pm.peek_word(PhysAddr::new(0x200)), Word::new(0xD0));
    }

    #[test]
    fn overflowed_undo_of_committed_tx_is_discarded() {
        // Fig 10g: committed Tx3's redo logs replay; its earlier overflowed
        // undo logs (flush-bit 1) must be identified and skipped.
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(0x300), Word::new(0xB1)); // current value
        let t = tag(0, 3);
        write_area(
            &mut pm,
            BASE,
            &[
                undo(t, 0x300, 0xB0, true), // overflowed undo: must NOT revoke
                redo(t, 0x300, 0xB2),
                Record::id_tuple(t),
            ],
        );
        let report = recover(&mut pm, &[area(BASE)]);
        assert_eq!(report.discarded_logs, 1);
        assert_eq!(pm.peek_word(PhysAddr::new(0x300)), Word::new(0xB2));
    }

    #[test]
    fn reverse_undo_unwinds_relogged_words() {
        // One tx overflowed a word's undo log, then re-logged a later store
        // to the same word. Reverse application restores the ORIGINAL value.
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(0x400), Word::new(3)); // value at crash
        let t = tag(0, 9);
        write_area(
            &mut pm,
            BASE,
            &[
                undo(t, 0x400, 1, true),  // original value 1 (overflowed first)
                undo(t, 0x400, 2, false), // later store saw 2
            ],
        );
        recover(&mut pm, &[area(BASE)]);
        assert_eq!(pm.peek_word(PhysAddr::new(0x400)), Word::new(1));
    }

    #[test]
    fn mixed_threads_fig10_scenario() {
        // Thread 1's Tx3 committed (replay A1->A2, C0->C1); thread 2's Tx2
        // did not (revoke D1->D0, F1->F0).
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let a = 0x1000;
        let c = 0x1100;
        let d = 0x1200;
        let f = 0x1300;
        pm.write_word(PhysAddr::new(a), Word::new(0xA1));
        pm.write_word(PhysAddr::new(d), Word::new(0xD1));
        pm.write_word(PhysAddr::new(f), Word::new(0xF1));
        let t1 = tag(1, 3);
        let t2 = tag(2, 2);
        write_area(
            &mut pm,
            BASE,
            &[redo(t1, a, 0xA2), redo(t1, c, 0xC1), Record::id_tuple(t1)],
        );
        write_area(
            &mut pm,
            BASE + 0x10_000,
            &[undo(t2, d, 0xD0, true), undo(t2, f, 0xF0, true)],
        );
        let report = recover(&mut pm, &[area(BASE), area(BASE + 0x10_000)]);
        assert_eq!(report.replayed_words, 2);
        assert_eq!(report.revoked_words, 2);
        assert_eq!(pm.peek_word(PhysAddr::new(a)), Word::new(0xA2));
        assert_eq!(pm.peek_word(PhysAddr::new(c)), Word::new(0xC1));
        assert_eq!(pm.peek_word(PhysAddr::new(d)), Word::new(0xD0));
        assert_eq!(pm.peek_word(PhysAddr::new(f)), Word::new(0xF0));
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let t = tag(0, 1);
        write_area(&mut pm, BASE, &[redo(t, 0x100, 5), Record::id_tuple(t)]);
        let first = recover(&mut pm, &[area(BASE)]);
        assert_eq!(first.replayed_words, 1);
        let second = recover(&mut pm, &[area(BASE)]);
        assert_eq!(second.replayed_words, 0, "headers were cleared");
        assert_eq!(pm.peek_word(PhysAddr::new(0x100)), Word::new(5));
    }

    #[test]
    fn empty_region_recovers_to_nothing() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let report = recover(&mut pm, &[area(BASE)]);
        assert_eq!(report, RecoveryReport::default());
    }
}
