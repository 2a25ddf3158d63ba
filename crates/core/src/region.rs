//! A thread's private area in the distributed PM log region (§III-B).

use silo_pm::PmDevice;
use silo_types::PhysAddr;

use crate::{Record, RECORD_BYTES};

/// Bytes reserved at the start of each thread's log area for the crash
/// header.
pub const AREA_HEADER_BYTES: usize = 8;

/// The per-area crash header: a little-endian `u64` counting the valid
/// record bytes that follow it.
///
/// In the common failure-free case the header is never written — the
/// head/tail cursor lives in on-chip flip-flops (Table I, "Log head and
/// tail: 16B per core") and commit truncates the log by resetting the
/// register. The battery-powered crash flush persists the header so
/// recovery knows how far to scan; recovery clears it when done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AreaHeader {
    /// Valid record bytes after the header.
    pub valid_bytes: u64,
}

impl AreaHeader {
    /// Reads the header at `base`.
    pub fn read(pm: &PmDevice, base: PhysAddr) -> AreaHeader {
        let mut bytes = [0u8; AREA_HEADER_BYTES];
        pm.peek_into(base, &mut bytes);
        AreaHeader {
            valid_bytes: u64::from_le_bytes(bytes),
        }
    }

    /// Writes the header at `base` (battery path: direct device write).
    pub fn write(&self, pm: &mut PmDevice, base: PhysAddr) {
        pm.write(base, &self.valid_bytes.to_le_bytes());
    }
}

/// The on-chip cursor over one thread's log area: two registers (head =
/// area base, tail = next free offset) plus the area bound.
///
/// # Examples
///
/// ```
/// use silo_core::{ThreadLogArea, AREA_HEADER_BYTES, RECORD_BYTES};
/// use silo_types::PhysAddr;
///
/// let mut area = ThreadLogArea::new(PhysAddr::new(0x1000), PhysAddr::new(0x2000));
/// let first = area.reserve(2); // room for two records
/// assert_eq!(first.as_u64(), 0x1000 + AREA_HEADER_BYTES as u64);
/// assert_eq!(area.used_records(), 2);
/// area.truncate(); // commit: logs deleted by a register reset
/// assert_eq!(area.used_records(), 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadLogArea {
    base: PhysAddr,
    end: PhysAddr,
    /// Next free byte offset, relative to `base + AREA_HEADER_BYTES`.
    tail: u64,
}

impl ThreadLogArea {
    /// Creates a cursor over `[base, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the area cannot hold the header plus at least one record.
    pub fn new(base: PhysAddr, end: PhysAddr) -> Self {
        assert!(
            end.as_u64() >= base.as_u64() + (AREA_HEADER_BYTES + RECORD_BYTES) as u64,
            "log area too small"
        );
        ThreadLogArea { base, end, tail: 0 }
    }

    /// Reserves space for `records` consecutive records; returns the PM
    /// address to write them at and advances the tail register.
    ///
    /// # Panics
    ///
    /// Panics if the area is exhausted (16 MiB holds ~930 k records; a
    /// transaction that overflows that is outside the design envelope).
    pub fn reserve(&mut self, records: usize) -> PhysAddr {
        let addr = self.base.add(AREA_HEADER_BYTES as u64 + self.tail);
        let bytes = (records * RECORD_BYTES) as u64;
        assert!(
            addr.as_u64() + bytes <= self.end.as_u64(),
            "thread log area exhausted"
        );
        self.tail += bytes;
        addr
    }

    /// Commit truncation: resets the tail register; no PM write happens.
    pub fn truncate(&mut self) {
        self.tail = 0;
    }

    /// Rolls back the latest reservation of `records` records: the write
    /// behind it was dropped at power failure, so the tail must not cover
    /// bytes the device never received — a crash header bounding them
    /// would expose stale records of earlier, truncated transactions to
    /// the recovery scan.
    pub fn rewind(&mut self, records: usize) {
        let bytes = (records * RECORD_BYTES) as u64;
        debug_assert!(self.tail >= bytes, "rewind past the area base");
        self.tail = self.tail.saturating_sub(bytes);
    }

    /// Records currently reserved.
    pub fn used_records(&self) -> usize {
        self.tail as usize / RECORD_BYTES
    }

    /// Valid bytes currently reserved.
    pub fn used_bytes(&self) -> u64 {
        self.tail
    }

    /// The area base (header location).
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Persists the crash header describing the current tail (battery
    /// path).
    pub fn write_crash_header(&self, pm: &mut PmDevice) {
        AreaHeader {
            valid_bytes: self.tail,
        }
        .write(pm, self.base);
    }

    /// Bytes of records the area can hold after its header.
    fn capacity_bytes(&self) -> u64 {
        self.end.as_u64() - self.base.as_u64() - AREA_HEADER_BYTES as u64
    }

    /// Reads back all valid records according to the persisted header
    /// (recovery path), with one device read of the records the header
    /// bounds, or of the whole area when the header claims more.
    /// Unparseable slots terminate the scan defensively.
    pub fn scan(&self, pm: &PmDevice) -> Vec<Record> {
        let header = AreaHeader::read(pm, self.base);
        let n = header.valid_bytes.min(self.capacity_bytes()) as usize / RECORD_BYTES;
        let mut bytes = vec![0u8; n * RECORD_BYTES];
        pm.peek_into(self.base.add(AREA_HEADER_BYTES as u64), &mut bytes);
        bytes
            .chunks_exact(RECORD_BYTES)
            .map_while(|slot| Record::decode(slot.try_into().expect("one record")))
            .collect()
    }

    /// Clears the crash header after recovery completes.
    pub fn clear_header(pm: &mut PmDevice, base: PhysAddr) {
        AreaHeader { valid_bytes: 0 }.write(pm, base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_pm::PmDeviceConfig;
    use silo_types::{ThreadId, TxId, TxTag, Word};

    fn area() -> ThreadLogArea {
        ThreadLogArea::new(PhysAddr::new(0x10_000), PhysAddr::new(0x20_000))
    }

    fn record(txid: u16, addr: u64, data: u64) -> Record {
        Record {
            kind: crate::RecordKind::Undo,
            flush_bit: false,
            tag: TxTag::new(ThreadId::new(0), TxId::new(txid)),
            addr: PhysAddr::new(addr),
            data: Word::new(data),
        }
    }

    #[test]
    fn reserve_advances_contiguously() {
        let mut a = area();
        let r1 = a.reserve(14);
        let r2 = a.reserve(1);
        assert_eq!(
            r2.as_u64(),
            r1.as_u64() + 14 * RECORD_BYTES as u64,
            "batches are address-adjacent (§III-F)"
        );
        assert_eq!(a.used_records(), 15);
    }

    #[test]
    fn truncate_resets_without_pm_traffic() {
        let mut a = area();
        a.reserve(5);
        a.truncate();
        assert_eq!(a.used_bytes(), 0);
        let next = a.reserve(1);
        assert_eq!(next.as_u64(), 0x10_000 + AREA_HEADER_BYTES as u64);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhausted_area_panics() {
        let mut a = ThreadLogArea::new(PhysAddr::new(0), PhysAddr::new(64));
        a.reserve(4);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_area_rejected() {
        let _ = ThreadLogArea::new(PhysAddr::new(0), PhysAddr::new(8));
    }

    #[test]
    fn crash_header_round_trip_and_scan() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let mut a = area();
        // Write two records at reserved offsets (the battery flush path).
        let addr = a.reserve(2);
        let recs = [record(1, 0x100, 11), record(1, 0x108, 22)];
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.encode());
        }
        pm.write(addr, &bytes);
        a.write_crash_header(&mut pm);

        let scanned = a.scan(&pm);
        assert_eq!(scanned, recs.to_vec());
    }

    #[test]
    fn scan_without_header_sees_nothing() {
        let pm = PmDevice::new(PmDeviceConfig::default());
        assert!(area().scan(&pm).is_empty());
    }

    #[test]
    fn stale_records_beyond_header_are_ignored() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let mut a = area();
        // Two records persisted...
        let addr = a.reserve(2);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&record(1, 0x100, 1).encode());
        bytes.extend_from_slice(&record(1, 0x108, 2).encode());
        pm.write(addr, &bytes);
        a.write_crash_header(&mut pm);
        // ...then a "previous run" record lingering after them.
        let stale = a.base().add((AREA_HEADER_BYTES + 2 * RECORD_BYTES) as u64);
        pm.write(stale, &record(9, 0x900, 9).encode());
        assert_eq!(a.scan(&pm).len(), 2);
    }

    #[test]
    fn a_header_past_the_area_scans_only_the_area() {
        // A two-record area whose header claims a third record's bytes:
        // the record stored past the area's end stays unread.
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let base = 0x10_000;
        let end = base + (AREA_HEADER_BYTES + 2 * RECORD_BYTES) as u64;
        let mut a = ThreadLogArea::new(PhysAddr::new(base), PhysAddr::new(end));
        assert_eq!(a.capacity_bytes(), 2 * RECORD_BYTES as u64);
        let addr = a.reserve(2);
        let mut bytes = Vec::new();
        for i in 0..3 {
            bytes.extend_from_slice(&record(1, 0x100 + 8 * i, i).encode());
        }
        pm.write(addr, &bytes);
        AreaHeader {
            valid_bytes: 3 * RECORD_BYTES as u64,
        }
        .write(&mut pm, a.base());
        assert_eq!(a.scan(&pm).len(), 2);
        AreaHeader {
            valid_bytes: u64::MAX,
        }
        .write(&mut pm, a.base());
        assert_eq!(a.scan(&pm).len(), 2, "a garbage header reads one area");
    }

    #[test]
    fn clear_header_hides_records_from_future_scans() {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let mut a = area();
        let addr = a.reserve(1);
        pm.write(addr, &record(1, 0x100, 1).encode());
        a.write_crash_header(&mut pm);
        assert_eq!(a.scan(&pm).len(), 1);
        ThreadLogArea::clear_header(&mut pm, a.base());
        assert!(a.scan(&pm).is_empty());
    }
}
