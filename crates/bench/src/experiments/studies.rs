//! The four parameter/behaviour studies: log-buffer capacity (§VI-D),
//! multiple memory controllers (§III-D), on-PM buffer capacity (§III-E),
//! and recovery cost after crashes at varying points (§III-G).

use std::fmt::Write as _;

use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, ConfigDelta, RunSpec, SchemeSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec, Taken};

const CORES: usize = 8;

// ----------------------------------------------------------- buffer capacity

const CAP_BENCHES: [&str; 3] = ["Hash", "TPCC", "YCSB"];
const CAPACITIES: [usize; 5] = [5, 10, 20, 40, 80];

fn build_buffer_capacity(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES).max(1);
    let mut cells = Vec::new();
    for name in CAP_BENCHES {
        for entries in CAPACITIES {
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("entries={entries}")),
                p.seed,
                CellWork::Delta(RunSpec {
                    scheme: SchemeSpec::Named("Silo".to_string()),
                    workload: WorkloadSpec::plain(name),
                    cores: CORES,
                    txs_per_core,
                    config: ConfigDelta {
                        log_buffer_entries: Some(entries),
                        ..ConfigDelta::default()
                    },
                }),
            ));
        }
    }
    cells
}

fn render_buffer_capacity(
    _p: &ExpParams,
    cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(out, "Log-buffer capacity study (Silo, 8 cores)").unwrap();
    writeln!(
        out,
        "{:<10}{:>9}{:>14}{:>13}{:>13}{:>12}",
        "workload", "entries", "overflows/tx", "log wr/tx", "media/tx", "throughput"
    )
    .unwrap();
    let mut rows = Vec::new();
    for name in CAP_BENCHES {
        for entries in CAPACITIES {
            let stats = taken.next_stats();
            let s = &stats.scheme_stats;
            let n = s.transactions as f64;
            writeln!(
                out,
                "{:<10}{:>9}{:>14.2}{:>13.2}{:>13.2}{:>12.4}",
                name,
                entries,
                s.overflow_events as f64 / n,
                s.log_entries_written_to_pm as f64 / n,
                stats.media_writes() as f64 / n,
                stats.throughput()
            )
            .unwrap();
            rows.push(
                JsonValue::object()
                    .field("workload", name)
                    .field("entries", entries)
                    .field("overflows_per_tx", s.overflow_events as f64 / n)
                    .field("media_per_tx", stats.media_writes() as f64 / n)
                    .field("throughput", stats.throughput())
                    .build(),
            );
        }
    }
    writeln!(
        out,
        "(paper: 20 entries cover the max surviving footprint, Fig 13 / Table I)"
    )
    .unwrap();
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// Log-buffer capacity study spec.
pub fn buffer_capacity() -> ExperimentSpec {
    ExperimentSpec {
        name: "study_buffer_capacity",
        description: "per-core log buffer sized 5-80 entries: overflow rate, traffic, throughput",
        default_txs: 4_000,
        flags: &[],
        build: build_buffer_capacity,
        render: render_buffer_capacity,
    }
}

// ------------------------------------------------------------------ multi-MC

const MC_BENCHES: [&str; 4] = ["Hash", "Queue", "TPCC", "YCSB"];
const MC_COUNTS: [usize; 3] = [1, 2, 4];

fn build_multi_mc(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES).max(1);
    let mut cells = Vec::new();
    for name in MC_BENCHES {
        for mcs in MC_COUNTS {
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("mcs={mcs}")),
                p.seed,
                CellWork::Delta(RunSpec {
                    scheme: SchemeSpec::Named("Silo".to_string()),
                    workload: WorkloadSpec::plain(name),
                    cores: CORES,
                    txs_per_core,
                    config: ConfigDelta {
                        num_mcs: Some(mcs),
                        ..ConfigDelta::default()
                    },
                }),
            ));
        }
    }
    cells
}

fn render_multi_mc(
    _p: &ExpParams,
    cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(
        out,
        "Multi-MC study (Silo, 8 cores): throughput vs controller count"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10}{:>10}{:>10}{:>10}{:>14}",
        "workload", "1 MC", "2 MCs", "4 MCs", "4-MC speedup"
    )
    .unwrap();
    let mut rows = Vec::new();
    for name in MC_BENCHES {
        let row: Vec<f64> = MC_COUNTS
            .iter()
            .map(|_| taken.next_stats().throughput())
            .collect();
        writeln!(
            out,
            "{:<10}{:>10.4}{:>10.4}{:>10.4}{:>13.2}x",
            name,
            row[0],
            row[1],
            row[2],
            row[2] / row[0]
        )
        .unwrap();
        rows.push(
            JsonValue::object()
                .field("workload", name)
                .field("throughput", JsonValue::array(row.iter().copied()))
                .field("speedup_4mc", row[2] / row[0])
                .build(),
        );
    }
    writeln!(
        out,
        "(no coordination between controllers: per-transaction MC affinity, §III-D)"
    )
    .unwrap();
    JsonValue::object()
        .field(
            "mc_counts",
            JsonValue::array(MC_COUNTS.iter().map(|&m| m as u64)),
        )
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// Multi-MC study spec.
pub fn multi_mc() -> ExperimentSpec {
    ExperimentSpec {
        name: "study_multi_mc",
        description: "Silo with 1/2/4 memory controllers: scaling without cross-MC coordination",
        default_txs: 4_000,
        flags: &[],
        build: build_multi_mc,
        render: render_multi_mc,
    }
}

// --------------------------------------------------------------- on-PM buffer

const ONPM_BENCHES: [&str; 4] = ["Hash", "Queue", "TPCC", "YCSB"];
const ONPM_LINES: [usize; 4] = [4, 16, 64, 256];

fn build_onpm_buffer(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES).max(1);
    let mut cells = Vec::new();
    for name in ONPM_BENCHES {
        for lines in ONPM_LINES {
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("lines={lines}")),
                p.seed,
                CellWork::Delta(RunSpec {
                    scheme: SchemeSpec::Named("Silo".to_string()),
                    workload: WorkloadSpec::plain(name),
                    cores: CORES,
                    txs_per_core,
                    config: ConfigDelta {
                        onpm_buffer_lines: Some(lines),
                        ..ConfigDelta::default()
                    },
                }),
            ));
        }
    }
    cells
}

fn render_onpm_buffer(
    _p: &ExpParams,
    cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(out, "On-PM buffer capacity study (Silo, 8 cores)").unwrap();
    writeln!(
        out,
        "{:<10}{:>8}{:>13}{:>15}{:>14}",
        "workload", "lines", "media/tx", "coalesced/tx", "forced drains"
    )
    .unwrap();
    let mut rows = Vec::new();
    for name in ONPM_BENCHES {
        for lines in ONPM_LINES {
            let stats = taken.next_stats();
            let n = stats.txs_committed as f64;
            writeln!(
                out,
                "{:<10}{:>8}{:>13.2}{:>15.2}{:>14}",
                name,
                lines,
                stats.media_writes() as f64 / n,
                stats.pm.coalesced_hits as f64 / n,
                stats.pm.buffer_forced_drains
            )
            .unwrap();
            rows.push(
                JsonValue::object()
                    .field("workload", name)
                    .field("lines", lines)
                    .field("media_per_tx", stats.media_writes() as f64 / n)
                    .field("coalesced_per_tx", stats.pm.coalesced_hits as f64 / n)
                    .build(),
            );
        }
    }
    writeln!(
        out,
        "(64 lines = a 16 KB buffer, the Optane XPBuffer scale this model defaults to)"
    )
    .unwrap();
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// On-PM buffer capacity study spec.
pub fn onpm_buffer() -> ExperimentSpec {
    ExperimentSpec {
        name: "study_onpm_buffer",
        description: "on-PM coalescing buffer sized 4-256 lines: media programs and drains",
        default_txs: 4_000,
        flags: &[],
        build: build_onpm_buffer,
        render: render_onpm_buffer,
    }
}

// ------------------------------------------------------------------- recovery

const CRASH_CYCLES: [u64; 6] = [1_000, 5_000, 20_000, 80_000, 320_000, 1_280_000];
const RECOVERY_CORES: usize = 4;

fn build_recovery(p: &ExpParams) -> Vec<CellSpec> {
    CRASH_CYCLES
        .iter()
        .map(|&crash_at| {
            CellSpec::new(
                CellLabel::swc("Silo", "TPCC", RECOVERY_CORES)
                    .with_param(format!("crash_at={crash_at}")),
                p.seed,
                CellWork::Recovery {
                    txs: p.txs,
                    crash_at,
                },
            )
        })
        .collect()
}

fn render_recovery(
    _p: &ExpParams,
    cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(out, "Recovery study (Silo, 4 cores, TPCC)").unwrap();
    writeln!(
        out,
        "{:<12}{:>10}{:>10}{:>10}{:>10}{:>10}{:>14}",
        "crash cycle", "committed", "in-flight", "scanned", "replayed", "revoked", "recovery (us)"
    )
    .unwrap();
    let mut rows = Vec::new();
    for crash_at in CRASH_CYCLES {
        let c = taken.next();
        writeln!(
            out,
            "{:<12}{:>10}{:>10}{:>10}{:>10}{:>10}{:>14.2}",
            crash_at,
            c.value("committed") as u64,
            c.value("inflight") as u64,
            c.value("scanned") as u64,
            c.value("replayed") as u64,
            c.value("revoked") as u64,
            c.value("us")
        )
        .unwrap();
        rows.push(
            JsonValue::object()
                .field("crash_cycle", crash_at)
                .field("committed", c.value("committed"))
                .field("scanned", c.value("scanned"))
                .field("recovery_us", c.value("us"))
                .build(),
        );
    }
    writeln!(
        out,
        "(recovery scales with surviving log records, not with PM size or history)"
    )
    .unwrap();
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// Recovery study spec.
pub fn recovery() -> ExperimentSpec {
    ExperimentSpec {
        name: "study_recovery",
        description: "recovery cost after crashes at varying cycles (selective-flush survivors)",
        default_txs: 1_000,
        flags: &[],
        build: build_recovery,
        render: render_recovery,
    }
}
