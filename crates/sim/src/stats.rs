//! Aggregated simulation statistics.

use silo_cache::HierarchyStats;
use silo_memctrl::MemCtrlStats;
use silo_pm::PmStats;
use silo_probe::CycleBreakdown;
use silo_types::Cycles;

use crate::SchemeStats;

/// Per-core execution summary (fairness analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// The core's final local clock.
    pub cycles: Cycles,
    /// Transactions the core committed.
    pub txs_committed: u64,
}

/// Exact sojourn-time (queue + service) latency summary for open-system
/// runs.
///
/// Built from the complete multiset of per-transaction sojourn times —
/// no histogram bucketing or sampling — so percentiles are exact and the
/// summary is bit-for-bit deterministic for a given trace and scheme.
/// Percentiles use the nearest-rank definition: the p-th percentile is
/// `sorted[ceil(p/100 * n) - 1]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of measured transactions (setup transactions excluded).
    pub samples: u64,
    /// Sum of all sojourn times, for mean derivation.
    pub total_cycles: u64,
    /// Median sojourn, cycles.
    pub p50: u64,
    /// 99th-percentile sojourn, cycles.
    pub p99: u64,
    /// 99.9th-percentile sojourn, cycles.
    pub p999: u64,
    /// Worst-case sojourn, cycles.
    pub max: u64,
}

impl LatencyStats {
    /// Summarises a sorted (nondecreasing) slice of sojourn samples.
    /// Returns the all-zero summary for an empty slice.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the slice is not sorted.
    pub fn from_sorted(sorted: &[u64]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        if sorted.is_empty() {
            return LatencyStats::default();
        }
        let rank = |permille: u64| {
            // Nearest rank: ceil(permille/1000 * n), 1-based, as an index.
            let n = sorted.len() as u64;
            let r = (permille * n).div_ceil(1000).max(1);
            sorted[(r - 1) as usize]
        };
        LatencyStats {
            samples: sorted.len() as u64,
            total_cycles: sorted.iter().sum(),
            p50: rank(500),
            p99: rank(990),
            p999: rank(999),
            max: *sorted.last().expect("nonempty"),
        }
    }

    /// Mean sojourn in cycles (0.0 with no samples).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_cycles as f64 / self.samples as f64
        }
    }
}

/// Everything a run produced, in one snapshot.
///
/// The two paper-headline metrics:
///
/// * **Write traffic** (Fig 11): [`SimStats::media_writes`] — line programs
///   on the PM physical media.
/// * **Throughput** (Fig 12): [`SimStats::throughput`] — committed
///   transactions per kilocycle of simulated wall-clock.
#[derive(Clone, Debug)]
pub struct SimStats {
    /// Scheme that produced the run.
    pub scheme: &'static str,
    /// Core count.
    pub cores: usize,
    /// Per-core breakdown (empty in delta snapshots).
    pub per_core: Vec<CoreStats>,
    /// Simulated wall-clock: the latest core-local time at the end.
    pub sim_cycles: Cycles,
    /// Transactions that reached `Tx_end`.
    pub txs_committed: u64,
    /// PM device counters.
    pub pm: PmStats,
    /// Memory-controller counters.
    pub mc: MemCtrlStats,
    /// Cache-hierarchy counters.
    pub cache: HierarchyStats,
    /// Logging-scheme counters.
    pub scheme_stats: SchemeStats,
    /// Per-core cycle attribution; present only when the machine's cycle
    /// accountant was enabled for the run. `None` keeps probe-off reports
    /// byte-identical to pre-observability output.
    pub breakdown: Option<CycleBreakdown>,
    /// Sojourn-time summary; present only when the run's streams carried
    /// an open-system arrival schedule. `None` keeps closed-loop reports
    /// byte-identical to pre-arrival-layer output.
    pub latency: Option<LatencyStats>,
}

impl SimStats {
    /// Media line programs (the Fig 11 metric).
    pub fn media_writes(&self) -> u64 {
        self.pm.media_line_writes
    }

    /// Committed transactions per 1000 simulated cycles (the Fig 12
    /// metric; absolute scale is arbitrary, figures normalize to Base).
    pub fn throughput(&self) -> f64 {
        if self.sim_cycles.as_u64() == 0 {
            0.0
        } else {
            self.txs_committed as f64 * 1000.0 / self.sim_cycles.as_u64() as f64
        }
    }

    /// Media writes per committed transaction.
    pub fn media_writes_per_tx(&self) -> f64 {
        if self.txs_committed == 0 {
            0.0
        } else {
            self.media_writes() as f64 / self.txs_committed as f64
        }
    }

    /// Fairness: the ratio of the slowest to the fastest core's committed
    /// transaction count (1.0 = perfectly fair). `None` without per-core
    /// data or with an idle core.
    pub fn fairness(&self) -> Option<f64> {
        let min = self.per_core.iter().map(|c| c.txs_committed).min()?;
        let max = self.per_core.iter().map(|c| c.txs_committed).max()?;
        if min == 0 {
            return None;
        }
        Some(max as f64 / min as f64)
    }
}

impl SimStats {
    /// The difference between this run and an `earlier` run that executed
    /// a strict prefix of the same deterministic workload — the
    /// steady-state measurement trick the figure generators use to exclude
    /// the setup transaction: run N and 2N transactions, subtract. The 2N
    /// run need not start from t=0: continued from the N run's
    /// [`ForkPoint`](crate::ForkPoint) by
    /// [`Engine::run_continued`](crate::Engine::run_continued), it yields
    /// the same statistics, and the prefix the two runs share is
    /// simulated once.
    ///
    /// # Panics
    ///
    /// Panics if the runs disagree on scheme or core count.
    pub fn delta_from(&self, earlier: &SimStats) -> SimStats {
        assert_eq!(self.scheme, earlier.scheme, "runs must use one scheme");
        assert_eq!(self.cores, earlier.cores, "runs must use one core count");
        SimStats {
            scheme: self.scheme,
            cores: self.cores,
            per_core: Vec::new(),
            sim_cycles: self.sim_cycles.saturating_sub(earlier.sim_cycles),
            txs_committed: self.txs_committed.saturating_sub(earlier.txs_committed),
            pm: self.pm - earlier.pm,
            mc: self.mc - earlier.mc,
            cache: self.cache - earlier.cache,
            scheme_stats: self.scheme_stats - earlier.scheme_stats,
            // A breakdown delta would mix the prefix run's attribution
            // into the suffix; steady-state measurements drop it. The
            // `profile` experiment uses full runs for exact breakdowns.
            breakdown: None,
            // Percentiles do not subtract; open-system latency runs are
            // always measured as full runs with setup excluded via
            // `ArrivalSchedule::measure_from`.
            latency: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SimStats {
        SimStats {
            scheme: "Test",
            cores: 2,
            per_core: vec![
                CoreStats {
                    cycles: Cycles::new(2000),
                    txs_committed: 6,
                },
                CoreStats {
                    cycles: Cycles::new(1500),
                    txs_committed: 4,
                },
            ],
            sim_cycles: Cycles::new(2000),
            txs_committed: 10,
            pm: PmStats {
                media_line_writes: 40,
                ..PmStats::default()
            },
            mc: MemCtrlStats::default(),
            cache: HierarchyStats::default(),
            scheme_stats: SchemeStats::default(),
            breakdown: None,
            latency: None,
        }
    }

    #[test]
    fn throughput_is_txs_per_kilocycle() {
        assert!((stats().throughput() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn media_writes_per_tx() {
        assert!((stats().media_writes_per_tx() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_guards() {
        let mut s = stats();
        s.sim_cycles = Cycles::ZERO;
        s.txs_committed = 0;
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.media_writes_per_tx(), 0.0);
    }

    #[test]
    fn fairness_ratio() {
        let s = stats();
        assert!((s.fairness().expect("per-core data") - 1.5).abs() < 1e-9);
        let mut empty = stats();
        empty.per_core.clear();
        assert_eq!(empty.fairness(), None);
    }

    /// Independent nearest-rank reference implementation.
    fn nearest_rank(sorted: &[u64], permille: u64) -> u64 {
        let n = sorted.len() as u64;
        let mut rank = (permille * n).div_ceil(1000);
        if rank == 0 {
            rank = 1;
        }
        sorted[(rank - 1) as usize]
    }

    #[test]
    fn percentiles_match_a_sorted_reference() {
        // Sizes chosen to straddle the interesting rank boundaries:
        // n=1 (all percentiles collapse), n=100 (p99 is the last element),
        // n=1000 (p999 is the last element), n=1001 (it no longer is).
        for n in [1usize, 2, 3, 10, 99, 100, 101, 999, 1000, 1001, 4096] {
            let sorted: Vec<u64> = (0..n as u64).map(|i| i * 3 + 7).collect();
            let l = LatencyStats::from_sorted(&sorted);
            assert_eq!(l.samples, n as u64, "n={n}");
            assert_eq!(l.p50, nearest_rank(&sorted, 500), "p50 n={n}");
            assert_eq!(l.p99, nearest_rank(&sorted, 990), "p99 n={n}");
            assert_eq!(l.p999, nearest_rank(&sorted, 999), "p999 n={n}");
            assert_eq!(l.max, *sorted.last().unwrap(), "max n={n}");
            assert_eq!(l.total_cycles, sorted.iter().sum::<u64>(), "sum n={n}");
        }
    }

    #[test]
    fn percentiles_with_duplicates_and_empty() {
        assert_eq!(LatencyStats::from_sorted(&[]), LatencyStats::default());
        let l = LatencyStats::from_sorted(&[5, 5, 5, 5]);
        assert_eq!((l.p50, l.p99, l.p999, l.max), (5, 5, 5, 5));
        assert!((l.mean() - 5.0).abs() < 1e-9);
        assert_eq!(LatencyStats::default().mean(), 0.0);
    }
}
