//! Per-line wear tracking and PM lifetime estimation.
//!
//! The paper's first motivation for cutting log writes is endurance:
//! "the write traffic significantly increases, which exacerbates the
//! write endurance of PM and hence shortens the PM lifetime" (§I). This
//! module quantifies that: every media line program bumps the touched
//! line's wear counter, and [`WearTracker::lifetime_estimate`] converts
//! the observed peak write rate into a device lifetime under a given
//! cell-endurance budget.
//!
//! The [media](crate::Media) counts each line's programs in the page that
//! holds the line, and derives a tracker from its pages on demand
//! ([`Media::wear`](crate::Media::wear)), so no tracker rides along in
//! every snapshot of the media.

use silo_types::FxHashMap;

/// Typical phase-change-memory cell endurance (program cycles before
/// failure), the commonly cited 10⁸ figure for PCM.
pub const PCM_CELL_ENDURANCE: u64 = 100_000_000;

/// Tracks how many times each on-PM-buffer line has been programmed.
///
/// # Examples
///
/// ```
/// use silo_pm::WearTracker;
///
/// let mut wear = WearTracker::new();
/// wear.record_program(3);
/// wear.record_program(3);
/// wear.record_program(9);
/// assert_eq!(wear.max_wear(), 2);
/// assert_eq!(wear.total_programs(), 3);
/// // max / mean = 2 / 1.5
/// assert!((wear.wear_imbalance() - 4.0 / 3.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WearTracker {
    /// Programs per line, for every line programmed at least once.
    lines: FxHashMap<u64, u64>,
    total: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        WearTracker::default()
    }

    /// Records one program of buffer line `line_index`.
    pub fn record_program(&mut self, line_index: u64) {
        self.record_programs(line_index, 1);
    }

    /// Records `programs` programs of buffer line `line_index`.
    pub fn record_programs(&mut self, line_index: u64, programs: u64) {
        if programs > 0 {
            *self.lines.entry(line_index).or_default() += programs;
            self.total += programs;
        }
    }

    /// Total line programs observed.
    pub fn total_programs(&self) -> u64 {
        self.total
    }

    /// Distinct lines ever programmed.
    pub fn lines_touched(&self) -> usize {
        self.lines.len()
    }

    /// The most-programmed line's count — the wear-leveling worst case
    /// that bounds device lifetime.
    pub fn max_wear(&self) -> u64 {
        self.lines.values().copied().max().unwrap_or(0)
    }

    /// Mean programs across touched lines.
    pub fn mean_wear(&self) -> f64 {
        if self.lines.is_empty() {
            0.0
        } else {
            self.total as f64 / self.lines.len() as f64
        }
    }

    /// `max / mean` wear — 1.0 is perfectly level, larger is worse.
    pub fn wear_imbalance(&self) -> f64 {
        let mean = self.mean_wear();
        if mean == 0.0 {
            0.0
        } else {
            self.max_wear() as f64 / mean
        }
    }

    /// The `n` most-worn lines, hottest first: `(line_index, programs)`.
    pub fn hottest_lines(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.lines.iter().map(|(&l, &c)| (l, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Device lifetime estimate in simulated seconds, assuming the hottest
    /// line keeps its observed program rate and cells endure
    /// `cell_endurance` programs. Returns `None` when nothing was written.
    ///
    /// `elapsed_seconds` is the simulated wall-clock the counts were
    /// gathered over.
    pub fn lifetime_estimate(&self, elapsed_seconds: f64, cell_endurance: u64) -> Option<f64> {
        let max = self.max_wear();
        if max == 0 || elapsed_seconds <= 0.0 {
            return None;
        }
        let rate = max as f64 / elapsed_seconds; // programs/s on the hottest line
        Some(cell_endurance as f64 / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_is_zero() {
        let w = WearTracker::new();
        assert_eq!(w.total_programs(), 0);
        assert_eq!(w.max_wear(), 0);
        assert_eq!(w.mean_wear(), 0.0);
        assert_eq!(w.wear_imbalance(), 0.0);
        assert!(w.hottest_lines(5).is_empty());
        assert_eq!(w.lifetime_estimate(1.0, PCM_CELL_ENDURANCE), None);
    }

    #[test]
    fn counts_accumulate_per_line() {
        let mut w = WearTracker::new();
        for _ in 0..5 {
            w.record_program(1);
        }
        w.record_program(2);
        assert_eq!(w.total_programs(), 6);
        assert_eq!(w.lines_touched(), 2);
        assert_eq!(w.max_wear(), 5);
        assert!((w.mean_wear() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn hottest_lines_sorted_desc_with_stable_ties() {
        let mut w = WearTracker::new();
        w.record_program(7);
        w.record_program(7);
        w.record_program(3);
        w.record_program(3);
        w.record_program(9);
        assert_eq!(w.hottest_lines(2), vec![(3, 2), (7, 2)]);
        assert_eq!(w.hottest_lines(10).len(), 3);
    }

    #[test]
    fn lines_in_distinct_pages_do_not_collide() {
        // Line 16 is slot 0 of the media's second page, as line 0 is of
        // its first.
        let mut w = WearTracker::new();
        w.record_program(0);
        w.record_program(16);
        w.record_program(16);
        assert_eq!(w.lines_touched(), 2);
        assert_eq!(w.max_wear(), 2);
        assert_eq!(w.hottest_lines(2), vec![(16, 2), (0, 1)]);
    }

    #[test]
    fn programs_record_in_bulk_as_one_by_one() {
        let mut w = WearTracker::new();
        w.record_programs(0, 1);
        w.record_programs(64, 2);
        w.record_programs(7, 0); // no program, no line
        assert_eq!(w.lines_touched(), 2);
        assert_eq!(w.total_programs(), 3);
        assert_eq!(w.hottest_lines(3), vec![(64, 2), (0, 1)]);
    }

    #[test]
    fn clones_are_independent() {
        let mut w = WearTracker::new();
        w.record_program(5);
        let snap = w.clone();
        w.record_program(5);
        w.record_program(6);
        assert_eq!(w.total_programs(), 3);
        assert_eq!(snap.total_programs(), 1);
        assert_eq!(snap.max_wear(), 1);
        assert_eq!(snap.lines_touched(), 1);
        assert_eq!(w.lines_touched(), 2);
    }

    #[test]
    fn lifetime_scales_inversely_with_rate() {
        let mut w = WearTracker::new();
        for _ in 0..100 {
            w.record_program(0);
        }
        // 100 programs/s on the hottest line, 10^8 endurance -> 10^6 s.
        let life = w
            .lifetime_estimate(1.0, PCM_CELL_ENDURANCE)
            .expect("writes happened");
        assert!((life - 1e6).abs() / 1e6 < 1e-9);
        let slower = w
            .lifetime_estimate(10.0, PCM_CELL_ENDURANCE)
            .expect("writes happened");
        assert!((slower - 1e7).abs() / 1e7 < 1e-9);
    }
}
