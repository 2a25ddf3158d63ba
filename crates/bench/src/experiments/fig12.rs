//! Fig 12: normalized transaction throughput, five schemes × seven
//! benchmarks × {1, 2, 4, 8} cores (§VI-C).

use silo_sim::SimStats;

use crate::exp::{ExpKind, ExperimentSpec, GridSpec};
use crate::{FIG11_BENCHMARKS, SCHEMES};

fn throughput(stats: &SimStats) -> f64 {
    stats.throughput()
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig12",
        description:
            "transaction throughput, normalized to Base (5 schemes x 7 benchmarks x 1/2/4/8 cores)",
        default_txs: 10_000,
        flags: &[],
        kind: ExpKind::Grid(GridSpec {
            title: "Fig 12: transaction throughput, normalized to Base",
            schemes: &SCHEMES,
            benchmarks: &FIG11_BENCHMARKS,
            core_counts: &[1, 2, 4, 8],
            metric_name: "throughput",
            metric: throughput,
            reference: 0,
        }),
    }
}
