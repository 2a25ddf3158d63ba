//! State shared by the logging baselines: per-core log cursors and the
//! commit persist barrier.

use silo_core::{recover_log_region, Record, ThreadLogArea, RECORD_BYTES};
use silo_sim::{Machine, RecoveryReport, SimConfig};
use silo_types::{CoreId, Cycles, TxTag, LINE_BYTES, WORD_BYTES};

/// Per-core bookkeeping common to the log-cursor baselines: the thread's log
/// area cursor, the in-flight transaction, and the latest WPQ admission
/// time the commit barrier must wait for.
#[derive(Clone, Debug)]
pub(crate) struct CoreCursor {
    pub area: ThreadLogArea,
    pub current_tag: Option<TxTag>,
    /// Latest persist (WPQ admission) of this transaction's writes; the
    /// ordering constraints of Fig 3 make commit wait for it.
    pub persist_barrier: Cycles,
}

impl CoreCursor {
    pub fn new(config: &SimConfig, core: usize) -> Self {
        let tid = CoreId::new(core).thread();
        CoreCursor {
            area: ThreadLogArea::new(config.thread_log_base(tid), config.thread_log_end(tid)),
            current_tag: None,
            persist_barrier: Cycles::ZERO,
        }
    }

    /// Raises the barrier to cover a new admission.
    pub fn cover(&mut self, admitted: Cycles) {
        self.persist_barrier = self.persist_barrier.max(admitted);
    }

    /// Commit wait: the later of `now` and the barrier.
    pub fn barrier_wait(&self, now: Cycles) -> Cycles {
        now.max(self.persist_barrier)
    }

    /// Power failure: writes the area's crash header, which bounds the
    /// records recovery reads, and forgets the in-flight transaction.
    pub fn crash(&mut self, m: &mut Machine) {
        self.area.write_crash_header(&mut m.pm);
        self.current_tag = None;
    }
}

/// The recovery every log-cursor baseline shares: replay or revoke what
/// the cores' log areas hold, then truncate each core's area.
pub(crate) fn recover_areas<'c>(
    m: &mut Machine,
    cursors: impl IntoIterator<Item = &'c mut CoreCursor>,
) -> RecoveryReport {
    let cursors: Vec<&mut CoreCursor> = cursors.into_iter().collect();
    let areas: Vec<ThreadLogArea> = cursors.iter().map(|c| c.area).collect();
    let report = recover_log_region(&mut m.pm, &areas);
    for c in cursors {
        c.area.truncate();
    }
    report
}

/// The most records one write request carries: one per word of a
/// cacheline (LAD's eviction undo image).
const MAX_RECORDS_PER_WRITE: usize = LINE_BYTES / WORD_BYTES;

/// Writes `records` contiguously into the core's log area via the
/// write-through path, as one PM write request (one media program),
/// raising the persist barrier. Returns the admission time.
pub(crate) fn write_records(
    m: &mut Machine,
    cursor: &mut CoreCursor,
    records: &[Record],
    now: Cycles,
) -> Cycles {
    debug_assert!(!records.is_empty());
    assert!(
        records.len() <= MAX_RECORDS_PER_WRITE,
        "{} records in one log write",
        records.len()
    );
    let addr = cursor.area.reserve(records.len());
    let mut buf = [0u8; MAX_RECORDS_PER_WRITE * RECORD_BYTES];
    let (slots, _) = buf.as_chunks_mut::<RECORD_BYTES>();
    for (slot, r) in slots.iter_mut().zip(records) {
        *slot = r.encode();
    }
    let bytes = &buf[..records.len() * RECORD_BYTES];
    let dropped = m.pm.dropped();
    let adm = m.pm_write_through(now, addr, bytes);
    if m.pm.dropped() != dropped {
        // Power failed at this write: the device never received the
        // records, so the reservation must not survive into the crash
        // header (it would bound stale bytes of earlier transactions).
        cursor.area.rewind(records.len());
    }
    cursor.cover(adm.admit);
    adm.admit
}

/// Writes a full-cacheline architectural image via write-through and
/// raises the barrier (the per-store data flush of Base, the sweeps of
/// FWB, LAD's commit drain).
pub(crate) fn write_line(
    m: &mut Machine,
    cursor: &mut CoreCursor,
    line: silo_types::LineAddr,
    now: Cycles,
) -> Cycles {
    let image = m.line_image(line);
    let adm = m.pm_write_through(now, line.base(), &image);
    cursor.cover(adm.admit);
    adm.admit
}
