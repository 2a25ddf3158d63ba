//! Fault models for crash injection: what the PM device does — and fails
//! to do — in the instants after power is cut.
//!
//! The ideal crash model ("perfect ADR") assumes the on-PM buffer drains
//! completely and every in-flight line program completes. Real hardware is
//! weaker on both counts: the residual-energy budget bounds how many bytes
//! the ADR domain can push to the media (the paper's Table IV battery
//! sizing), and a line program interrupted mid-pulse persists only a prefix
//! of its byte mask (a *torn* line). [`FaultModel`] makes both knobs
//! explicit so crash sweeps can explore the full failure surface instead of
//! assuming the best case.

/// A durability-relevant event the device counts while power is on.
///
/// Event-indexed crash points (`PmDevice::arm_crash_at_event`) trip power
/// at the N-th event, enumerating the crash surface densely: every store,
/// every log drain, every WPQ admission, every media line program and every
/// recovery step is a distinct instant a sweep can cut power at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A core retired a transactional store.
    Store,
    /// A write request was admitted to a memory-controller WPQ.
    WpqAdmit,
    /// A log-buffer drain wrote records into the PM log region.
    LogDrain,
    /// The media programmed a 256 B line.
    LineProgram,
    /// A recovery-time PM write (replay or revoke) was applied.
    RecoveryStep,
}

/// Per-kind tallies of the durability events seen so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Retired transactional stores.
    pub stores: u64,
    /// WPQ admissions.
    pub wpq_admits: u64,
    /// Log-buffer drains into the log region.
    pub log_drains: u64,
    /// Media line programs.
    pub line_programs: u64,
    /// Recovery-time writes.
    pub recovery_steps: u64,
}

impl EventCounters {
    /// Total events across all kinds — the index space of event-indexed
    /// crash points.
    pub fn total(&self) -> u64 {
        self.stores + self.wpq_admits + self.log_drains + self.line_programs + self.recovery_steps
    }

    /// Bumps the counter for `kind`.
    pub(crate) fn bump(&mut self, kind: EventKind) {
        match kind {
            EventKind::Store => self.stores += 1,
            EventKind::WpqAdmit => self.wpq_admits += 1,
            EventKind::LogDrain => self.log_drains += 1,
            EventKind::LineProgram => self.line_programs += 1,
            EventKind::RecoveryStep => self.recovery_steps += 1,
        }
    }
}

/// What the ADR domain manages to persist between power loss and the
/// media going dark.
///
/// The two knobs compose: a bounded battery with a torn head line models a
/// crash that interrupts an in-flight line program *and* leaves too little
/// energy to drain the rest of the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultModel {
    /// Bytes of staged/`on_crash` data the residual-energy budget can push
    /// to the media after power loss (Table IV battery sizing). `None`
    /// models a perfectly sized battery: everything drains.
    pub battery_budget_bytes: Option<u64>,
    /// If set, the line program in flight at power loss tears: only the
    /// first `keep` valid bytes of the oldest staged line persist from the
    /// interrupted pulse. The ADR copy of the line survives, so a
    /// sufficient battery re-programs it completely; tearing is only
    /// observable when the budget runs out first.
    pub torn_line_keep_bytes: Option<usize>,
}

impl FaultModel {
    /// The ideal model: the full buffer drains, no program tears.
    pub fn perfect_adr() -> Self {
        FaultModel {
            battery_budget_bytes: None,
            torn_line_keep_bytes: None,
        }
    }

    /// A torn in-flight line program persisting only its first `keep`
    /// valid bytes (with an otherwise perfect battery).
    pub fn torn_line(keep: usize) -> Self {
        FaultModel {
            battery_budget_bytes: None,
            torn_line_keep_bytes: Some(keep),
        }
    }

    /// A bounded residual-energy budget of `bytes` for the post-crash
    /// drain (no tearing).
    pub fn bounded_battery(bytes: u64) -> Self {
        FaultModel {
            battery_budget_bytes: Some(bytes),
            torn_line_keep_bytes: None,
        }
    }

    /// Adds a torn in-flight line program to this model.
    pub fn with_torn_line(mut self, keep: usize) -> Self {
        self.torn_line_keep_bytes = Some(keep);
        self
    }

    /// Adds a bounded battery budget to this model.
    pub fn with_battery_budget(mut self, bytes: u64) -> Self {
        self.battery_budget_bytes = Some(bytes);
        self
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::perfect_adr()
    }
}

/// What a post-crash battery drain accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Staged lines fully programmed to the media.
    pub drained_lines: u64,
    /// Valid bytes those programs carried.
    pub drained_bytes: u64,
    /// Line programs that tore (persisted a strict prefix of their mask).
    pub torn_lines: u64,
    /// Staged lines lost entirely when the budget ran out.
    pub discarded_lines: u64,
    /// Valid bytes those lost lines held.
    pub discarded_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_total_sums_kinds() {
        let mut c = EventCounters::default();
        c.bump(EventKind::Store);
        c.bump(EventKind::Store);
        c.bump(EventKind::WpqAdmit);
        c.bump(EventKind::LogDrain);
        c.bump(EventKind::LineProgram);
        c.bump(EventKind::RecoveryStep);
        assert_eq!(c.stores, 2);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn constructors_compose() {
        let m = FaultModel::bounded_battery(512).with_torn_line(17);
        assert_eq!(m.battery_budget_bytes, Some(512));
        assert_eq!(m.torn_line_keep_bytes, Some(17));
        assert_eq!(FaultModel::default(), FaultModel::perfect_adr());
        assert_eq!(FaultModel::torn_line(3).torn_line_keep_bytes, Some(3));
    }
}
