//! The four ablation studies: overflow batch size (§III-F), on-PM buffer
//! coalescing (§III-E), the flush-bit (§III-D), and the log reduction
//! mechanisms (§III-C). Each cell stores its full run statistics; render
//! derives every printed column from them.

use std::fmt::Write as _;

use silo_core::SiloOptions;
use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, ConfigDelta, RunSpec, SchemeSpec, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec, Taken};

const SEVEN: [&str; 7] = ["Array", "Btree", "Hash", "Queue", "RBtree", "TPCC", "YCSB"];
const CORES: usize = 8;

// ---------------------------------------------------------------- batch size

const BATCHES: [usize; 3] = [1, 4, 14];

fn build_batch_size(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES / 4).max(1);
    let mut cells = Vec::new();
    for name in ["Hash", "TPCC"] {
        for batch in BATCHES {
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("batch={batch}")),
                p.seed,
                CellWork::Delta(RunSpec {
                    scheme: SchemeSpec::Silo(SiloOptions {
                        overflow_batch_override: Some(batch),
                        // Coalescing off isolates the batching effect: with
                        // the on-PM buffer active, sequential overflow
                        // records coalesce regardless of batch size (see
                        // DESIGN.md ablation notes).
                        onpm_coalescing: false,
                        ..SiloOptions::default()
                    }),
                    workload: WorkloadSpec::batched(name, 4),
                    cores: CORES,
                    txs_per_core,
                    config: ConfigDelta::default(),
                }),
            ));
        }
    }
    cells
}

fn render_batch_size(
    _p: &ExpParams,
    cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(
        out,
        "Ablation: overflow batch size (Silo, 8 cores, 4x-batched transactions)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10}{:>7}{:>14}{:>13}{:>12}",
        "workload", "batch", "overflows/tx", "media/tx", "throughput"
    )
    .unwrap();
    let mut rows = Vec::new();
    for name in ["Hash", "TPCC"] {
        for batch in BATCHES {
            let stats = taken.next_stats();
            let s = &stats.scheme_stats;
            writeln!(
                out,
                "{:<10}{:>7}{:>14.2}{:>13.2}{:>12.4}",
                name,
                batch,
                s.overflow_events as f64 / s.transactions as f64,
                stats.media_writes() as f64 / s.transactions as f64,
                stats.throughput()
            )
            .unwrap();
            rows.push(
                JsonValue::object()
                    .field("workload", name)
                    .field("batch", batch)
                    .field(
                        "overflows_per_tx",
                        s.overflow_events as f64 / s.transactions as f64,
                    )
                    .field(
                        "media_per_tx",
                        stats.media_writes() as f64 / s.transactions as f64,
                    )
                    .field("throughput", stats.throughput())
                    .build(),
            );
        }
    }
    writeln!(
        out,
        "(§III-F: larger batches fit whole on-PM buffer lines, cutting amplification)"
    )
    .unwrap();
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// Overflow batch-size ablation spec.
pub fn batch_size() -> ExperimentSpec {
    ExperimentSpec {
        name: "ablation_batch_size",
        description: "overflow batch size 1/4/14 on overflow-heavy batched transactions",
        default_txs: 2_000,
        flags: &[],
        build: build_batch_size,
        render: render_batch_size,
    }
}

// ---------------------------------------------------------------- coalescing

fn build_coalescing(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES).max(1);
    let mut cells = Vec::new();
    for name in SEVEN {
        for coalescing in [true, false] {
            let variant = if coalescing { "on" } else { "off" };
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("coalescing={variant}")),
                p.seed,
                CellWork::Delta(RunSpec {
                    scheme: SchemeSpec::Silo(SiloOptions {
                        onpm_coalescing: coalescing,
                        ..SiloOptions::default()
                    }),
                    workload: WorkloadSpec::plain(name),
                    cores: CORES,
                    txs_per_core,
                    config: ConfigDelta::default(),
                }),
            ));
        }
    }
    cells
}

fn render_coalescing(
    _p: &ExpParams,
    cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(out, "Ablation: on-PM buffer coalescing (Silo, 8 cores)").unwrap();
    writeln!(
        out,
        "{:<10}{:>14}{:>14}{:>9}{:>14}{:>14}",
        "workload", "media/tx on", "media/tx off", "ratio", "tp on", "tp off"
    )
    .unwrap();
    let mut rows = Vec::new();
    for name in SEVEN {
        let on = taken.next_stats();
        let off = taken.next_stats();
        let m_on = on.media_writes() as f64 / on.txs_committed as f64;
        let m_off = off.media_writes() as f64 / off.txs_committed as f64;
        writeln!(
            out,
            "{:<10}{:>14.2}{:>14.2}{:>9.2}{:>14.4}{:>14.4}",
            name,
            m_on,
            m_off,
            m_off / m_on,
            on.throughput(),
            off.throughput()
        )
        .unwrap();
        rows.push(
            JsonValue::object()
                .field("workload", name)
                .field("media_per_tx_on", m_on)
                .field("media_per_tx_off", m_off)
                .field("ratio", m_off / m_on)
                .build(),
        );
    }
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// On-PM buffer coalescing ablation spec.
pub fn coalescing() -> ExperimentSpec {
    ExperimentSpec {
        name: "ablation_coalescing",
        description: "Silo with the on-PM write-coalescing buffer on vs off",
        default_txs: 2_000,
        flags: &[],
        build: build_coalescing,
        render: render_coalescing,
    }
}

// ------------------------------------------------------------------ flushbit

fn build_flushbit(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES / 16).max(1);
    let mut cells = Vec::new();
    for name in SEVEN {
        for fb in [true, false] {
            let variant = if fb { "on" } else { "off" };
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("flushbit={variant}")),
                p.seed,
                CellWork::Delta(RunSpec {
                    scheme: SchemeSpec::Silo(SiloOptions {
                        flush_bit: fb,
                        ..SiloOptions::default()
                    }),
                    workload: WorkloadSpec::batched(name, 16),
                    cores: CORES,
                    txs_per_core,
                    config: ConfigDelta {
                        tiny_hierarchy: true,
                        ..ConfigDelta::default()
                    },
                }),
            ));
        }
    }
    cells
}

fn render_flushbit(
    _p: &ExpParams,
    cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(out, "Ablation: flush-bit under eviction pressure").unwrap();
    writeln!(out, "(Silo, 8 cores, 8KB LLC, 16x-batched transactions)").unwrap();
    writeln!(
        out,
        "{:<10}{:>12}{:>13}{:>13}{:>14}",
        "workload", "variant", "flushbits/tx", "IPU/tx", "accepted/tx"
    )
    .unwrap();
    let mut rows = Vec::new();
    for name in SEVEN {
        for vname in ["on", "off"] {
            let stats = taken.next_stats();
            let s = &stats.scheme_stats;
            writeln!(
                out,
                "{:<10}{:>12}{:>13.2}{:>13.2}{:>14.2}",
                name,
                vname,
                s.flush_bits_set as f64 / s.transactions as f64,
                s.inplace_update_words as f64 / s.transactions as f64,
                stats.pm.accepted_writes as f64 / s.transactions as f64,
            )
            .unwrap();
            rows.push(
                JsonValue::object()
                    .field("workload", name)
                    .field("variant", vname)
                    .field(
                        "flushbits_per_tx",
                        s.flush_bits_set as f64 / s.transactions as f64,
                    )
                    .field(
                        "accepted_per_tx",
                        stats.pm.accepted_writes as f64 / s.transactions as f64,
                    )
                    .build(),
            );
        }
    }
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// Flush-bit ablation spec.
pub fn flushbit() -> ExperimentSpec {
    ExperimentSpec {
        name: "ablation_flushbit",
        description: "flush-bit on vs off under eviction pressure (tiny hierarchy, 16x batches)",
        default_txs: 2_000,
        flags: &[],
        build: build_flushbit,
        render: render_flushbit,
    }
}

// ------------------------------------------------------------- log reduction

const LOG_VARIANTS: [&str; 4] = ["full", "no-ignore", "no-merge", "neither"];

fn log_options(variant: &str) -> SiloOptions {
    match variant {
        "full" => SiloOptions::default(),
        "no-ignore" => SiloOptions {
            log_ignorance: false,
            ..SiloOptions::default()
        },
        "no-merge" => SiloOptions {
            log_merging: false,
            ..SiloOptions::default()
        },
        "neither" => SiloOptions {
            log_ignorance: false,
            log_merging: false,
            ..SiloOptions::default()
        },
        other => panic!("unknown log-reduction variant {other}"),
    }
}

fn build_log_reduction(p: &ExpParams) -> Vec<CellSpec> {
    let txs_per_core = (p.txs / CORES).max(1);
    let mut cells = Vec::new();
    for name in SEVEN {
        for vname in LOG_VARIANTS {
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("variant={vname}")),
                p.seed,
                CellWork::Delta(RunSpec {
                    scheme: SchemeSpec::Silo(log_options(vname)),
                    workload: WorkloadSpec::plain(name),
                    cores: CORES,
                    txs_per_core,
                    config: ConfigDelta::default(),
                }),
            ));
        }
    }
    cells
}

fn render_log_reduction(
    _p: &ExpParams,
    cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let mut taken = Taken::new(cells);
    writeln!(out, "Ablation: log reduction mechanisms (Silo, 8 cores)").unwrap();
    writeln!(
        out,
        "{:<10}{:>11}{:>13}{:>13}{:>12}",
        "workload", "variant", "remaining/tx", "overflows/tx", "media/tx"
    )
    .unwrap();
    let mut rows = Vec::new();
    for name in SEVEN {
        for vname in LOG_VARIANTS {
            let stats = taken.next_stats();
            let s = &stats.scheme_stats;
            writeln!(
                out,
                "{:<10}{:>11}{:>13.1}{:>13.3}{:>12.2}",
                name,
                vname,
                s.avg_remaining_per_tx(),
                s.overflow_events as f64 / s.transactions as f64,
                stats.media_writes() as f64 / s.transactions as f64,
            )
            .unwrap();
            rows.push(
                JsonValue::object()
                    .field("workload", name)
                    .field("variant", vname)
                    .field("remaining_per_tx", s.avg_remaining_per_tx())
                    .field(
                        "media_per_tx",
                        stats.media_writes() as f64 / s.transactions as f64,
                    )
                    .build(),
            );
        }
    }
    JsonValue::object()
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// Log-reduction ablation spec.
pub fn log_reduction() -> ExperimentSpec {
    ExperimentSpec {
        name: "ablation_log_reduction",
        description:
            "log ignorance and merging contributions: full / no-ignore / no-merge / neither",
        default_txs: 2_000,
        flags: &[],
        build: build_log_reduction,
        render: render_log_reduction,
    }
}
