//! Fig 12: normalized transaction throughput over Fig 11's grid, five
//! schemes × seven benchmarks × {1, 2, 4, 8} cores (§VI-C).

use silo_sim::SimStats;
use silo_types::JsonValue;

use super::fig11::{build, render_grid};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec};

fn render(_p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    render_grid(
        "Fig 12: transaction throughput, normalized to Base",
        "throughput",
        SimStats::throughput,
        cells,
        out,
    )
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig12",
        description:
            "transaction throughput, normalized to Base (5 schemes x 7 benchmarks x 1/2/4/8 cores)",
        default_txs: 10_000,
        flags: &[],
        build,
        render,
    }
}
