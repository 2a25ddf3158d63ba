//! Fig 13: the number of total and remaining on-chip log entries per
//! transaction under Silo's log ignorance and merging (§III-C), which
//! sizes the 20-entry log buffer (§VI-D).

use std::fmt::Write as _;

use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, RunSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec, Taken};

const NAMES: [&str; 7] = [
    "Array", "Btree", "Hash", "Queue", "RBtree", "TPCC-mix", "YCSB",
];
const CORES: usize = 8;

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES).max(1);
    NAMES
        .iter()
        .map(|&name| {
            CellSpec::new(
                CellLabel::swc("Silo", name, CORES),
                p.seed,
                CellWork::Delta(RunSpec::table_ii(
                    "Silo",
                    WorkloadSpec::plain(name),
                    CORES,
                    txs_per_core,
                )),
            )
        })
        .collect()
}

fn render(_p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(
        out,
        "Fig 13: on-chip log entries per transaction (Silo, 8 cores)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10}{:>8}{:>11}{:>9}{:>9}{:>11}",
        "workload", "total", "remaining", "ignored", "merged", "reduction"
    )
    .unwrap();
    let (mut sum_total, mut sum_remaining, mut sum_reduction) = (0.0, 0.0, 0.0);
    let mut rows = Vec::new();
    for name in NAMES {
        let s = taken.next_stats().scheme_stats;
        let total = s.avg_generated_per_tx();
        let remaining = s.avg_remaining_per_tx();
        sum_total += total;
        sum_remaining += remaining;
        sum_reduction += s.reduction_ratio();
        writeln!(
            out,
            "{:<10}{:>8.1}{:>11.1}{:>9.1}{:>9.1}{:>10.1}%",
            name,
            total,
            remaining,
            s.log_entries_ignored as f64 / s.transactions as f64,
            s.log_entries_merged as f64 / s.transactions as f64,
            100.0 * s.reduction_ratio()
        )
        .unwrap();
        rows.push(
            JsonValue::object()
                .field("workload", name)
                .field("total_per_tx", total)
                .field("remaining_per_tx", remaining)
                .field("reduction", s.reduction_ratio())
                .build(),
        );
    }
    writeln!(
        out,
        "{:<10}{:>8.1}{:>11.1}{:>28.1}%   (paper: 64.3% average reduction; Hash max 20 remaining)",
        "Average",
        sum_total / NAMES.len() as f64,
        sum_remaining / NAMES.len() as f64,
        100.0 * sum_reduction / NAMES.len() as f64
    )
    .unwrap();
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .field("avg_reduction", sum_reduction / NAMES.len() as f64)
        .build()
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig13",
        description: "on-chip log entries per transaction under log ignorance and merging (sizes the 20-entry buffer)",
        default_txs: 10_000,
        flags: &[],
        kind: ExpKind::Custom { build, render },
    }
}
