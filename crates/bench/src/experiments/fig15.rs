//! Fig 15: transaction throughput sensitivity to the log-buffer access
//! latency, swept from 8 to 128 cycles (§VI-G). The buffer sits off the
//! critical path, so throughput should stay nearly flat.

use std::fmt::Write as _;

use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, ConfigDelta, RunSpec, SchemeSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec, Taken};

const NAMES: [&str; 7] = ["Array", "Btree", "Hash", "Queue", "RBtree", "TPCC", "YCSB"];
const CORES: usize = 8;

fn latencies() -> Vec<u64> {
    (1..=16).map(|i| i * 8).collect()
}

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES).max(1);
    let mut cells = Vec::new();
    for name in NAMES {
        for lat in latencies() {
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("latency={lat}")),
                p.seed,
                CellWork::Full {
                    run: RunSpec {
                        scheme: SchemeSpec::Named("Silo".to_string()),
                        workload: WorkloadSpec::plain(name),
                        cores: CORES,
                        txs_per_core,
                        config: ConfigDelta {
                            log_buffer_latency: Some(lat),
                            ..ConfigDelta::default()
                        },
                    },
                    record_throughput: true,
                },
            ));
        }
    }
    cells
}

fn render(_p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let lats = latencies();
    let mut taken = Taken::new(cells);
    writeln!(
        out,
        "Fig 15: normalized throughput vs log-buffer latency (Silo, 8 cores)"
    )
    .unwrap();
    write!(out, "{:<10}", "latency").unwrap();
    for l in &lats {
        write!(out, "{l:>7}").unwrap();
    }
    writeln!(out).unwrap();

    let mut rows = Vec::new();
    for name in NAMES {
        let row: Vec<f64> = lats.iter().map(|_| taken.next().value("tp")).collect();
        write!(out, "{name:<10}").unwrap();
        for v in &row {
            write!(out, "{:>7.3}", v / row[0]).unwrap();
        }
        writeln!(out).unwrap();
        rows.push(
            JsonValue::object()
                .field("workload", name)
                .field(
                    "normalized",
                    JsonValue::array(row.iter().map(|v| v / row[0])),
                )
                .build(),
        );
    }
    writeln!(
        out,
        "(each row normalized to its own 8-cycle value; paper: -3.3% at 128 cycles)"
    )
    .unwrap();
    JsonValue::object()
        .field("latencies", JsonValue::array(lats.iter().copied()))
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig15",
        description: "throughput sensitivity to log-buffer access latency (8-128 cycles)",
        default_txs: 4_000,
        flags: &[],
        build,
        render,
    }
}
