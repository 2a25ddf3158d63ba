//! Fig 11: normalized write traffic to the PM physical media, for five
//! schemes × seven benchmarks × {1, 2, 4, 8} cores (§VI-B). Fig 12 plots
//! throughput over the same grid, so the grid's build and render live
//! here for both.

use std::fmt::Write as _;

use silo_sim::SimStats;
use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, RunSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec, Taken};
use crate::{format_normalized, FIG11_BENCHMARKS, SCHEMES};

/// The grid's core counts: one normalized table each.
const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The column every row is normalized to: `Base`, the first of [`SCHEMES`].
const REFERENCE: usize = 0;

/// The grid's cells, by core count, benchmark and scheme: each a
/// steady-state delta on the stock Table II machine. Fig 11 and Fig 12
/// build content-identical specs, so they share one set of memoized
/// results.
pub(crate) fn build(p: &ExpParams) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for cores in CORE_COUNTS {
        let txs_per_core = (p.txs / cores).max(1);
        for bench in FIG11_BENCHMARKS {
            for scheme in SCHEMES {
                let run =
                    RunSpec::table_ii(scheme, WorkloadSpec::plain(bench), cores, txs_per_core);
                let label = CellLabel::swc(scheme, bench, cores);
                cells.push(CellSpec::new(label, p.seed, CellWork::Delta(run)));
            }
        }
    }
    cells
}

/// Renders the grid under `title`: `metric` of every cell, one table per
/// core count with each benchmark's row normalized to `Base`, and the
/// report's values under `metric_name`.
pub(crate) fn render_grid(
    title: &str,
    metric_name: &str,
    metric: fn(&SimStats) -> f64,
    cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(out, "{title}").unwrap();
    let benches: Vec<String> = FIG11_BENCHMARKS.iter().map(|s| s.to_string()).collect();
    let mut tables = Vec::new();
    for cores in CORE_COUNTS {
        let rows: Vec<Vec<f64>> = FIG11_BENCHMARKS
            .iter()
            .map(|_| SCHEMES.iter().map(|_| metric(taken.next_stats())).collect())
            .collect();
        let heading = format!("({cores} core{})", if cores == 1 { "" } else { "s" });
        out.push_str(&format_normalized(
            &heading, &benches, &SCHEMES, &rows, REFERENCE,
        ));
        tables.push(table_json(cores, &rows));
    }
    JsonValue::object()
        .field("metric", metric_name)
        .field("reference", SCHEMES[REFERENCE])
        .field("tables", JsonValue::Arr(tables))
        .build()
}

/// One normalized per-core-count table as JSON.
fn table_json(cores: usize, rows: &[Vec<f64>]) -> JsonValue {
    let norm_rows: Vec<JsonValue> = FIG11_BENCHMARKS
        .iter()
        .zip(rows)
        .map(|(bench, row)| {
            let norm = row[REFERENCE];
            JsonValue::object()
                .field("workload", *bench)
                .field("raw", JsonValue::array(row.iter().copied()))
                .field(
                    "normalized",
                    JsonValue::array(row.iter().map(|v| if norm == 0.0 { 0.0 } else { v / norm })),
                )
                .build()
        })
        .collect();
    JsonValue::object()
        .field("cores", cores)
        .field("schemes", JsonValue::array(SCHEMES))
        .field("rows", JsonValue::Arr(norm_rows))
        .build()
}

fn render(_p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    render_grid(
        "Fig 11: write traffic to PM (media line programs), normalized to Base",
        "media_writes",
        |stats| stats.media_writes() as f64,
        cells,
        out,
    )
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig11",
        description: "write traffic to the PM media, normalized to Base (5 schemes x 7 benchmarks x 1/2/4/8 cores)",
        default_txs: 10_000,
        flags: &[],
        build,
        render,
    }
}
