//! `latency`: open-system sojourn-latency percentiles under offered load.
//!
//! Every throughput figure in the paper is closed-loop: cores issue the
//! next transaction the instant the previous one commits, so the numbers
//! say how fast each scheme *can* go but nothing about the latency an
//! individual request observes when load arrives on its own clock. This
//! experiment opens the loop: each workload is wrapped in an
//! [`OpenLoop`](silo_workloads::OpenLoop) Poisson arrival process at a
//! sweep of offered loads (mean inter-arrival gap per core), the engine
//! admits each transaction no earlier than its arrival cycle, and the
//! exact sojourn recorder reports p50/p99/p999/max commit latency.
//!
//! Two sections:
//!
//! 1. **Offered-load sweep** — every selected workload × every scheme ×
//!    three per-core mean gaps, from saturating to light load. Near
//!    saturation the queue, not the scheme's raw commit path, dominates
//!    the tail, which is exactly where the schemes separate.
//! 2. **Multi-tenant bursts** — the 2048-client zipfian mix under on-off
//!    bursty arrivals, the pattern where log buffers drain during
//!    silences and the head of each burst sees a cold pipe.
//!
//! All schedules are integer-exact and seed-deterministic, so this report
//! is byte-identical at any `--jobs` level like every other experiment.

use std::fmt::Write as _;

use silo_types::JsonValue;
use silo_workloads::ArrivalProcess;

use crate::cellspec::{CellSpec, CellWork, RunSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec, Taken};
use crate::flags::{BENCH, CORES};
use crate::ALL_SCHEMES;

/// Per-core mean inter-arrival gaps of the Poisson sweep, in cycles,
/// heaviest load first. The low end sits below most schemes' per-tx
/// service time (queues build; tails blow up), the high end well above it
/// (latency collapses to the bare commit path).
const MEAN_GAPS: &[u64] = &[500, 2_000, 8_000];

/// The multi-tenant burst shape: 64-transaction bursts at a 200-cycle
/// in-burst mean gap, separated by 50 k cycles of silence.
const MT_BURSTY: ArrivalProcess = ArrivalProcess::Bursty {
    mean_gap: 200,
    burst: 64,
    idle_gap: 50_000,
};

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / p.cores).max(1);
    let mut cells = Vec::new();
    for bench in &p.benches {
        for &gap in MEAN_GAPS {
            for scheme in ALL_SCHEMES {
                cells.push(CellSpec::new(
                    CellLabel::swc(scheme, bench, p.cores).with_param(format!("gap={gap}")),
                    p.seed,
                    CellWork::Full {
                        run: RunSpec::table_ii(
                            scheme,
                            WorkloadSpec::open(bench, ArrivalProcess::Poisson { mean_gap: gap }),
                            p.cores,
                            txs_per_core,
                        ),
                        record_throughput: false,
                    },
                ));
            }
        }
    }
    for scheme in ALL_SCHEMES {
        cells.push(CellSpec::new(
            CellLabel::swc(scheme, "zipfmix-mt", p.cores).with_param(MT_BURSTY.ident()),
            p.seed,
            CellWork::Full {
                run: RunSpec::table_ii(
                    scheme,
                    WorkloadSpec::open("zipfmix-mt", MT_BURSTY),
                    p.cores,
                    txs_per_core,
                ),
                record_throughput: false,
            },
        ));
    }
    cells
}

/// Renders one scheme row and returns its JSON record.
fn render_row(
    out: &mut String,
    taken: &mut Taken,
    scheme: &str,
    workload: &str,
    process: &ArrivalProcess,
) -> JsonValue {
    let stats = taken.next_stats();
    let l = stats
        .latency
        .expect("open-system cells always record latency");
    writeln!(
        out,
        "{scheme:<11}{:>9}{:>12.1}{:>10}{:>10}{:>10}{:>12}",
        l.samples,
        l.mean(),
        l.p50,
        l.p99,
        l.p999,
        l.max
    )
    .unwrap();
    JsonValue::object()
        .field("scheme", scheme)
        .field("workload", workload)
        .field("arrival", process.ident())
        .field("samples", l.samples)
        .field("mean", l.mean())
        .field("p50", l.p50)
        .field("p99", l.p99)
        .field("p999", l.p999)
        .field("max", l.max)
        .build()
}

fn render(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(
        out,
        "Open-system sojourn latency ({} cores, Poisson arrivals, cycles from arrival to commit)",
        p.cores
    )
    .unwrap();
    let mut rows_json = Vec::new();
    for bench in &p.benches {
        for &gap in MEAN_GAPS {
            let process = ArrivalProcess::Poisson { mean_gap: gap };
            writeln!(out, "\n{bench} @ mean gap {gap} cycles/core").unwrap();
            writeln!(
                out,
                "{:<11}{:>9}{:>12}{:>10}{:>10}{:>10}{:>12}",
                "", "samples", "mean", "p50", "p99", "p999", "max"
            )
            .unwrap();
            for scheme in ALL_SCHEMES {
                rows_json.push(render_row(out, &mut taken, scheme, bench, &process));
            }
        }
    }
    writeln!(
        out,
        "\nzipfmix-mt (2048 tenants) @ bursty arrivals ({})",
        MT_BURSTY.ident()
    )
    .unwrap();
    writeln!(
        out,
        "{:<11}{:>9}{:>12}{:>10}{:>10}{:>10}{:>12}",
        "", "samples", "mean", "p50", "p99", "p999", "max"
    )
    .unwrap();
    for scheme in ALL_SCHEMES {
        rows_json.push(render_row(
            out,
            &mut taken,
            scheme,
            "zipfmix-mt",
            &MT_BURSTY,
        ));
    }
    JsonValue::object()
        .field("unit", "cycles from arrival to commit")
        .field("rows", JsonValue::Arr(rows_json))
        .build()
}

/// The `latency` experiment spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "latency",
        description: "open-system sojourn-latency percentiles vs offered load (arrival layer)",
        default_txs: 2_000,
        flags: &[CORES, BENCH],
        build,
        render,
    }
}
