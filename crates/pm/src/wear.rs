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
//! Like the [media](crate::Media) itself, the counters are stored in
//! `Arc`-shared pages so that cloning a tracker (part of every
//! `RunOutcome::pm` snapshot) is copy-on-write rather than a deep copy of
//! one entry per touched line.

use std::sync::Arc;

use silo_types::FxHashMap;

/// Typical phase-change-memory cell endurance (program cycles before
/// failure), the commonly cited 10⁸ figure for PCM.
pub const PCM_CELL_ENDURANCE: u64 = 100_000_000;

/// Wear counters per page: 64 lines × 8 B = one 512 B slab.
const LINES_PER_PAGE: usize = 64;

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
    pages: FxHashMap<u64, Arc<[u64; LINES_PER_PAGE]>>,
    /// Distinct lines with a non-zero count, maintained incrementally so
    /// [`lines_touched`](Self::lines_touched) stays O(1).
    touched: usize,
    total: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        WearTracker::default()
    }

    /// Records one program of buffer line `line_index`.
    pub fn record_program(&mut self, line_index: u64) {
        let entry = self
            .pages
            .entry(line_index / LINES_PER_PAGE as u64)
            .or_insert_with(|| Arc::new([0u64; LINES_PER_PAGE]));
        let counter = &mut Arc::make_mut(entry)[(line_index % LINES_PER_PAGE as u64) as usize];
        if *counter == 0 {
            self.touched += 1;
        }
        *counter += 1;
        self.total += 1;
    }

    /// Iterates all `(line_index, programs)` pairs with non-zero counts, in
    /// map (unspecified) order — callers that render must sort.
    fn iter_counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().flat_map(|(&page, counts)| {
            counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(move |(slot, &c)| (page * LINES_PER_PAGE as u64 + slot as u64, c))
        })
    }

    /// Total line programs observed.
    pub fn total_programs(&self) -> u64 {
        self.total
    }

    /// Distinct lines ever programmed.
    pub fn lines_touched(&self) -> usize {
        self.touched
    }

    /// The most-programmed line's count — the wear-leveling worst case
    /// that bounds device lifetime.
    pub fn max_wear(&self) -> u64 {
        self.pages
            .values()
            .flat_map(|counts| counts.iter().copied())
            .max()
            .unwrap_or(0)
    }

    /// Mean programs across touched lines.
    pub fn mean_wear(&self) -> f64 {
        if self.touched == 0 {
            0.0
        } else {
            self.total as f64 / self.touched as f64
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
        let mut v: Vec<(u64, u64)> = self.iter_counts().collect();
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
        let mut w = WearTracker::new();
        w.record_program(0);
        w.record_program(LINES_PER_PAGE as u64); // slot 0 of the next page
        w.record_program(LINES_PER_PAGE as u64);
        assert_eq!(w.lines_touched(), 2);
        assert_eq!(w.max_wear(), 2);
        assert_eq!(w.hottest_lines(2), vec![(LINES_PER_PAGE as u64, 2), (0, 1)]);
    }

    #[test]
    fn clone_is_copy_on_write_and_independent() {
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
