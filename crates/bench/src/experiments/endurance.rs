//! Endurance study (extension beyond the paper's figures): per-scheme PM
//! wear and lifetime estimates, quantifying §I's motivation that log
//! writes "exacerbate the write endurance of PM and hence shorten the PM
//! lifetime".
//!
//! The wear ledger lives on the engine output, not on `SimStats`, so the
//! executor's [`CellWork::Wear`] recipe extracts the wear-derived numbers
//! and carries them as named metrics.

use std::fmt::Write as _;

use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, RunSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec, Taken};
use crate::SCHEMES;

const BENCHES: [&str; 3] = ["Hash", "TPCC", "YCSB"];
const CORES: usize = 8;

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES).max(1);
    let mut cells = Vec::new();
    for bench in BENCHES {
        for s in SCHEMES {
            cells.push(CellSpec::new(
                CellLabel::swc(s, bench, CORES),
                p.seed,
                CellWork::Wear(RunSpec::table_ii(
                    s,
                    WorkloadSpec::plain(bench),
                    CORES,
                    txs_per_core,
                )),
            ));
        }
    }
    cells
}

fn render(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(
        out,
        "Endurance: PM wear by scheme (8 cores, {} txs, 1e8-cycle PCM cells)",
        p.txs
    )
    .unwrap();
    let mut benches_json = Vec::new();
    for bench in BENCHES {
        writeln!(out, "\n== {bench} ==").unwrap();
        writeln!(
            out,
            "{:<8}{:>12}{:>12}{:>12}{:>18}{:>16}",
            "scheme", "programs", "max wear", "imbalance", "hottest line", "lifetime"
        )
        .unwrap();
        let mut base_life = 0.0;
        let mut rows = Vec::new();
        for s in SCHEMES {
            let c = taken.next();
            let life = c.value("life");
            if s == "Base" {
                base_life = life;
            }
            writeln!(
                out,
                "{:<8}{:>12}{:>12}{:>12.2}{:>12}:{:<6}{:>9.1} d ({:>5.1}x)",
                s,
                c.value("programs") as u64,
                c.value("max_wear") as u64,
                c.value("imbalance"),
                c.value("hot_line") as u64,
                c.value("hot_count") as u64,
                life / 86_400.0,
                life / base_life,
            )
            .unwrap();
            rows.push(
                JsonValue::object()
                    .field("scheme", s)
                    .field("programs", c.value("programs"))
                    .field("imbalance", c.value("imbalance"))
                    .field("lifetime_days", life / 86_400.0)
                    .field("lifetime_vs_base", life / base_life)
                    .build(),
            );
        }
        benches_json.push(
            JsonValue::object()
                .field("workload", bench)
                .field("rows", JsonValue::Arr(rows))
                .build(),
        );
    }
    writeln!(
        out,
        "\n(lifetime = cell endurance / hottest-line program rate, continuous load)"
    )
    .unwrap();
    JsonValue::object()
        .field("benchmarks", JsonValue::Arr(benches_json))
        .build()
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "endurance",
        description: "PM wear and lifetime estimates per scheme (endurance extension)",
        default_txs: 2_000,
        flags: &[],
        kind: ExpKind::Custom { build, render },
    }
}
