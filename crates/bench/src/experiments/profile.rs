//! `profile`: per-scheme cycle-attribution breakdowns.
//!
//! Runs every implemented scheme on the selected workloads with the
//! machine's cycle accountant enabled and renders, per workload, a table
//! of where each scheme's core cycles go: executing, stalled on commit,
//! backed up behind the log buffer, waiting on a full WPQ, or waiting out
//! the commit-time in-place-update drain. This is the paper's headline
//! *explanation* layer — Fig 11/12 say *that* Silo beats the baselines;
//! the breakdown says *where* the others spend the difference.
//!
//! Cells run **full** simulations (setup transaction included, no
//! steady-state delta), so the accounting invariant is exact:
//! `sum(categories) == total core cycles`, hard-asserted at render time
//! (not `debug_assert` — CI runs release builds) and re-validated on the
//! emitted reports by `evaluate check`.

use std::fmt::Write as _;

use silo_sim::CycleCategory;
use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, RunSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec, Taken};
use crate::flags::{BENCH, CORES};
use crate::ALL_SCHEMES;

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / p.cores).max(1);
    let mut cells = Vec::new();
    for bench in &p.benches {
        for scheme in ALL_SCHEMES {
            cells.push(CellSpec::new(
                CellLabel::swc(scheme, bench, p.cores),
                p.seed,
                CellWork::Profiled(RunSpec::table_ii(
                    scheme,
                    WorkloadSpec::plain(bench),
                    p.cores,
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
        "Cycle breakdown by stall source ({} cores, full runs, % of total core cycles)",
        p.cores
    )
    .unwrap();
    let mut rows_json = Vec::new();
    for bench in &p.benches {
        writeln!(out, "\n{bench}").unwrap();
        write!(out, "{:<11}{:>14}", "", "total_cycles").unwrap();
        for cat in CycleCategory::ALL {
            write!(out, "{:>16}", cat.name()).unwrap();
        }
        writeln!(out).unwrap();
        for scheme in ALL_SCHEMES {
            let stats = taken.next_stats();
            let b = stats
                .breakdown
                .as_ref()
                .expect("profile cells run with accounting enabled");
            // The tentpole invariant, enforced unconditionally: every
            // cycle of every core's clock is attributed to exactly one
            // category. (debug_assert_eq! in the engine is compiled out
            // of the release builds CI measures with.)
            for (i, core) in stats.per_core.iter().enumerate() {
                assert_eq!(
                    b.core_total(i),
                    core.cycles.as_u64(),
                    "{scheme}/{bench}: breakdown must sum to core {i}'s clock"
                );
            }
            let total = b.total();
            write!(out, "{scheme:<11}{total:>14}").unwrap();
            let mut cats = JsonValue::object();
            for cat in CycleCategory::ALL {
                let cycles = b.category_total(cat);
                let pct = if total == 0 {
                    0.0
                } else {
                    cycles as f64 * 100.0 / total as f64
                };
                write!(out, "{pct:>15.1}%").unwrap();
                cats = cats.field(cat.name(), cycles);
            }
            writeln!(out).unwrap();
            rows_json.push(
                JsonValue::object()
                    .field("scheme", scheme)
                    .field("workload", bench.as_str())
                    .field("total_cycles", total)
                    .field("categories", cats.build())
                    .build(),
            );
        }
    }
    JsonValue::object()
        .field("invariant", "sum(categories) == total core cycles")
        .field("rows", JsonValue::Arr(rows_json))
        .build()
}

/// The `profile` experiment spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "profile",
        description: "per-scheme cycle-attribution breakdown (observability layer)",
        default_txs: 2_000,
        flags: &[CORES, BENCH],
        build,
        render,
    }
}
