//! Write-traffic accounting for the PM device.

use std::fmt;
use std::ops::Sub;

/// A snapshot of PM traffic counters.
///
/// [`PmStats::media_line_writes`] is the paper Fig 11 metric ("the number of
/// write requests to the PM physical media"). Accepted-write counters split
/// by destination region let the figures distinguish log-region traffic
/// (pure logging overhead) from data-region traffic.
///
/// Snapshots subtract ([`Sub`]), so a per-phase delta is
/// `device.stats() - before`.
///
/// # Examples
///
/// ```
/// use silo_pm::PmStats;
///
/// let before = PmStats::default();
/// let after = PmStats { accepted_writes: 10, ..PmStats::default() };
/// assert_eq!((after - before).accepted_writes, 10);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmStats {
    /// Write requests accepted by the DIMM (any size).
    pub accepted_writes: u64,
    /// Bytes across all accepted writes.
    pub accepted_bytes: u64,
    /// Accepted writes destined for the data region.
    pub data_region_writes: u64,
    /// Accepted writes destined for the log region.
    pub log_region_writes: u64,
    /// Line programs actually performed on the media (Fig 11 metric).
    pub media_line_writes: u64,
    /// Bits physically programmed (data-comparison-write granularity).
    pub media_bits_programmed: u64,
    /// Line programs fully suppressed by data-comparison-write.
    pub dcw_suppressed: u64,
    /// Writes that coalesced into an already-staged on-PM buffer line.
    pub coalesced_hits: u64,
    /// On-PM buffer line allocations.
    pub buffer_fills: u64,
    /// On-PM buffer drains forced by capacity pressure.
    pub buffer_forced_drains: u64,
    /// Read requests served.
    pub reads: u64,
}

impl PmStats {
    /// The counters as a JSON object (experiment reports).
    pub fn to_json(&self) -> silo_types::JsonValue {
        silo_types::JsonValue::object()
            .field("accepted_writes", self.accepted_writes)
            .field("accepted_bytes", self.accepted_bytes)
            .field("data_region_writes", self.data_region_writes)
            .field("log_region_writes", self.log_region_writes)
            .field("media_line_writes", self.media_line_writes)
            .field("media_bits_programmed", self.media_bits_programmed)
            .field("dcw_suppressed", self.dcw_suppressed)
            .field("coalesced_hits", self.coalesced_hits)
            .field("buffer_fills", self.buffer_fills)
            .field("buffer_forced_drains", self.buffer_forced_drains)
            .field("reads", self.reads)
            .build()
    }

    /// Rebuilds a snapshot from its [`PmStats::to_json`] form. `None` if
    /// any counter is missing or not an exact integer (the result store
    /// treats that as a corrupt entry and recomputes).
    pub fn from_json(v: &silo_types::JsonValue) -> Option<PmStats> {
        let u = |key: &str| v.get(key).and_then(silo_types::JsonValue::as_u64);
        Some(PmStats {
            accepted_writes: u("accepted_writes")?,
            accepted_bytes: u("accepted_bytes")?,
            data_region_writes: u("data_region_writes")?,
            log_region_writes: u("log_region_writes")?,
            media_line_writes: u("media_line_writes")?,
            media_bits_programmed: u("media_bits_programmed")?,
            dcw_suppressed: u("dcw_suppressed")?,
            coalesced_hits: u("coalesced_hits")?,
            buffer_fills: u("buffer_fills")?,
            buffer_forced_drains: u("buffer_forced_drains")?,
            reads: u("reads")?,
        })
    }
}

impl Sub for PmStats {
    type Output = PmStats;

    /// Saturating per-field difference: delta pairs are only approximately
    /// nested (the shorter run's tail and end-of-run drain are its own),
    /// so each counter saturates at zero rather than panicking on
    /// underflow.
    fn sub(self, rhs: PmStats) -> PmStats {
        PmStats {
            accepted_writes: self.accepted_writes.saturating_sub(rhs.accepted_writes),
            accepted_bytes: self.accepted_bytes.saturating_sub(rhs.accepted_bytes),
            data_region_writes: self
                .data_region_writes
                .saturating_sub(rhs.data_region_writes),
            log_region_writes: self.log_region_writes.saturating_sub(rhs.log_region_writes),
            media_line_writes: self.media_line_writes.saturating_sub(rhs.media_line_writes),
            media_bits_programmed: self
                .media_bits_programmed
                .saturating_sub(rhs.media_bits_programmed),
            dcw_suppressed: self.dcw_suppressed.saturating_sub(rhs.dcw_suppressed),
            coalesced_hits: self.coalesced_hits.saturating_sub(rhs.coalesced_hits),
            buffer_fills: self.buffer_fills.saturating_sub(rhs.buffer_fills),
            buffer_forced_drains: self
                .buffer_forced_drains
                .saturating_sub(rhs.buffer_forced_drains),
            reads: self.reads.saturating_sub(rhs.reads),
        }
    }
}

impl fmt::Display for PmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accepted {} writes ({} B; data {}, log {}), media {} line programs \
             ({} bits), dcw-suppressed {}, coalesced {}, reads {}",
            self.accepted_writes,
            self.accepted_bytes,
            self.data_region_writes,
            self.log_region_writes,
            self.media_line_writes,
            self.media_bits_programmed,
            self.dcw_suppressed,
            self.coalesced_hits,
            self.reads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtraction_is_fieldwise() {
        let a = PmStats {
            accepted_writes: 10,
            accepted_bytes: 80,
            media_line_writes: 3,
            reads: 7,
            ..PmStats::default()
        };
        let b = PmStats {
            accepted_writes: 4,
            accepted_bytes: 32,
            media_line_writes: 1,
            reads: 2,
            ..PmStats::default()
        };
        let d = a - b;
        assert_eq!(d.accepted_writes, 6);
        assert_eq!(d.accepted_bytes, 48);
        assert_eq!(d.media_line_writes, 2);
        assert_eq!(d.reads, 5);
    }

    #[test]
    fn display_is_nonempty() {
        let s = format!("{}", PmStats::default());
        assert!(s.contains("accepted 0 writes"));
    }
}
