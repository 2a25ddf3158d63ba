//! Quick-look comparison utility: one table of absolute and normalized
//! throughput and write traffic for chosen workloads and core count
//! (`--bench`, `--cores`). Not a paper figure — a debugging/exploration
//! tool.

use std::fmt::Write as _;

use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, RunSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec, Taken};
use crate::flags::{BENCH, CORES};
use crate::SCHEMES;

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for name in &p.benches {
        for s in SCHEMES {
            cells.push(CellSpec::new(
                CellLabel::swc(s, name, p.cores),
                p.seed,
                CellWork::Delta(RunSpec::table_ii(
                    s,
                    WorkloadSpec::plain(name),
                    p.cores,
                    p.txs,
                )),
            ));
        }
    }
    cells
}

fn render(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let (txs, cores) = (p.txs, p.cores);
    let mut taken = Taken::new(cells);
    let mut groups = Vec::new();
    for name in &p.benches {
        writeln!(
            out,
            "== {name} ({cores} cores, {txs} txs/core, steady state) =="
        )
        .unwrap();
        let mut base_tp = 0.0;
        let mut base_wr = 0.0;
        let mut rows = Vec::new();
        for s in SCHEMES {
            let stats = taken.next_stats();
            let tp = stats.throughput();
            let wr = stats.media_writes() as f64;
            if s == "Base" {
                base_tp = tp;
                base_wr = wr;
            }
            writeln!(
                out,
                "  {s:<7} tp {tp:>9.4} ({:>5.2}x)   media {wr:>9.0} ({:>5.2} of Base)   overflows {:>6}",
                tp / base_tp,
                wr / base_wr,
                stats.scheme_stats.overflow_events,
            )
            .unwrap();
            rows.push(
                JsonValue::object()
                    .field("scheme", s)
                    .field("throughput", tp)
                    .field("tp_vs_base", tp / base_tp)
                    .field("media_writes", wr)
                    .field("media_vs_base", wr / base_wr)
                    .build(),
            );
        }
        groups.push(
            JsonValue::object()
                .field("workload", name.as_str())
                .field("rows", JsonValue::Arr(rows))
                .build(),
        );
    }
    JsonValue::object()
        .field("cores", p.cores)
        .field("workloads", JsonValue::Arr(groups))
        .build()
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "compare",
        description: "quick-look scheme comparison on chosen workloads/cores (debug utility)",
        default_txs: 200,
        flags: &[CORES, BENCH],
        build,
        render,
    }
}
