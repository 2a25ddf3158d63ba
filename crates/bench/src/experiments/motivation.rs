//! Motivation study (paper §II-B, Fig 1): software logging versus
//! hardware logging on one core — software WAL's clwb + sfence per log
//! entry sit on the critical path; hardware logging overlaps them with
//! execution.

use std::fmt::Write as _;

use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, RunSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec, Taken};

const NAMES: [&str; 4] = ["Hash", "Queue", "TPCC", "Bank"];
const VARIANTS: [&str; 4] = ["SwLog", "eADR-sw", "Base", "Silo"];
const CORES: usize = 1; // the motivation is per-thread critical-path cost

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for name in NAMES {
        for variant in VARIANTS {
            // The label keeps the figure's short "eADR-sw" legend; the
            // executed scheme is the registry's full name.
            let scheme = match variant {
                "eADR-sw" => "eADR-SwLog",
                other => other,
            };
            cells.push(CellSpec::new(
                CellLabel::swc(variant, name, CORES),
                p.seed,
                CellWork::Delta(RunSpec::table_ii(
                    scheme,
                    WorkloadSpec::plain(name),
                    CORES,
                    p.txs,
                )),
            ));
        }
    }
    cells
}

fn render(_p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(
        out,
        "Motivation (Fig 1 / §II-B, §II-C): software vs hardware logging, 1 core"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "workload", "SwLog tp", "eADR-sw tp", "Base tp", "Silo tp", "sw loss"
    )
    .unwrap();
    let mut rows = Vec::new();
    for name in NAMES {
        let tp: Vec<f64> = VARIANTS
            .iter()
            .map(|_| taken.next_stats().throughput())
            .collect();
        let (sw, eadr, hw, silo) = (tp[0], tp[1], tp[2], tp[3]);
        writeln!(
            out,
            "{:<10}{:>12.4}{:>12.4}{:>12.4}{:>12.4}{:>11.1}%",
            name,
            sw,
            eadr,
            hw,
            silo,
            100.0 * (1.0 - sw / hw),
        )
        .unwrap();
        rows.push(
            JsonValue::object()
                .field("workload", name)
                .field("swlog_tp", sw)
                .field("eadr_sw_tp", eadr)
                .field("base_tp", hw)
                .field("silo_tp", silo)
                .field("sw_loss", 1.0 - sw / hw)
                .build(),
        );
    }
    writeln!(
        out,
        "(paper: software logging decreases throughput by up to 70% [28];"
    )
    .unwrap();
    writeln!(
        out,
        " eADR removes the fences but log appends still pollute the cache, §II-C)"
    )
    .unwrap();
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "motivation",
        description: "software vs hardware logging on one core (Fig 1 motivation)",
        default_txs: 2_000,
        flags: &[],
        kind: ExpKind::Custom { build, render },
    }
}
