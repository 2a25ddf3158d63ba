//! Fig 4: the write size (bytes) of one transaction across eleven
//! workloads — the observation motivating the small on-chip log buffer
//! (§II-E).

use std::fmt::Write as _;

use silo_types::JsonValue;
use silo_workloads::fig4_set;

use crate::cellspec::{CellSpec, CellWork};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec, Taken};

fn build(p: &ExpParams) -> Vec<CellSpec> {
    fig4_set()
        .into_iter()
        .map(|w| {
            CellSpec::new(
                CellLabel {
                    workload: w.name().to_string(),
                    ..CellLabel::default()
                },
                p.seed,
                CellWork::TraceStats {
                    workload: w.name().to_string(),
                    txs: p.txs,
                },
            )
        })
        .collect()
}

fn render(_p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(out, "Fig 4: write size (B) per transaction").unwrap();
    writeln!(
        out,
        "{:<10}{:>10}{:>10}{:>10}",
        "workload", "avg B", "max B", "avg words"
    )
    .unwrap();
    let mut grand_total = 0.0;
    let mut rows = Vec::new();
    for (label, _) in cells {
        let c = taken.next();
        let (avg, max, avg_words) = (c.value("avg_b"), c.value("max_b"), c.value("avg_words"));
        grand_total += avg;
        writeln!(
            out,
            "{:<10}{:>10.1}{:>10}{:>10.1}",
            label.workload, avg, max as usize, avg_words
        )
        .unwrap();
        rows.push(
            JsonValue::object()
                .field("workload", label.workload.as_str())
                .field("avg_bytes", avg)
                .field("max_bytes", max)
                .field("avg_words", avg_words)
                .build(),
        );
    }
    writeln!(
        out,
        "{:<10}{:>10.1}   (paper: generally < 512 B per transaction)",
        "Average",
        grand_total / cells.len() as f64
    )
    .unwrap();
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .field("avg_bytes_overall", grand_total / cells.len() as f64)
        .build()
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig04",
        description: "write size per transaction across eleven workloads (motivation for the small log buffer)",
        default_txs: 2_000,
        flags: &[],
        build,
        render,
    }
}
