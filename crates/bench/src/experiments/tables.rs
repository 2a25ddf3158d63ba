//! Tables I, II, and IV: hardware overhead, simulated configuration, and
//! battery requirements. These run no simulation — they print from the
//! live config/overhead structs so the tables can never drift from the
//! code — so each builds zero cells and does all its work in render.

use std::fmt::Write as _;

use silo_core::{
    HwOverhead, CAP_ENERGY_DENSITY_WH_PER_CM3, FLUSH_ENERGY_NJ_PER_BYTE,
    LI_ENERGY_DENSITY_WH_PER_CM3,
};
use silo_sim::SimConfig;
use silo_types::JsonValue;

use crate::cellspec::CellSpec;
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec};

fn build_none(_p: &ExpParams) -> Vec<CellSpec> {
    Vec::new()
}

fn render_table1(
    _p: &ExpParams,
    _cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let hw = HwOverhead::paper(8);
    writeln!(out, "Table I: hardware overhead of Silo").unwrap();
    writeln!(out, "{:<22}{:<20}Size", "Component", "Type").unwrap();
    writeln!(
        out,
        "{:<22}{:<20}{} entries, {} B per core",
        "Log buffer", "SRAM", hw.entries_per_core, hw.log_buffer_bytes_per_core
    )
    .unwrap();
    writeln!(
        out,
        "{:<22}{:<20}{} comparators per log buffer",
        "64-bit comparators", "CMOS cells", hw.comparators_per_core
    )
    .unwrap();
    writeln!(
        out,
        "{:<22}{:<20}{:.3e} mm^3 per log buffer (Li thin-film)",
        "Battery",
        "Lithium thin-film",
        hw.battery_volume_mm3(LI_ENERGY_DENSITY_WH_PER_CM3) / hw.cores as f64
    )
    .unwrap();
    writeln!(
        out,
        "{:<22}{:<20}{} B per core",
        "Log head and tail", "Flip-flops", hw.head_tail_bytes_per_core
    )
    .unwrap();
    writeln!(
        out,
        "\ntotals for {} cores: {} B battery-backed SRAM, {:.1} uJ crash-flush energy",
        hw.cores,
        hw.total_flush_bytes(),
        hw.flush_energy_uj()
    )
    .unwrap();
    JsonValue::object()
        .field("cores", hw.cores)
        .field("entries_per_core", hw.entries_per_core)
        .field("log_buffer_bytes_per_core", hw.log_buffer_bytes_per_core)
        .field("comparators_per_core", hw.comparators_per_core)
        .field("total_flush_bytes", hw.total_flush_bytes())
        .field("flush_energy_uj", hw.flush_energy_uj())
        .build()
}

fn render_table2(
    _p: &ExpParams,
    _cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let c = SimConfig::table_ii(8);
    writeln!(out, "Table II: configurations of the simulated system").unwrap();
    writeln!(out, "Processor").unwrap();
    writeln!(
        out,
        "  Cores              {} cores, x86-64 model, 2 GHz",
        c.cores
    )
    .unwrap();
    writeln!(
        out,
        "  L1 D Cache         private, 64B per line, {}KB, 8-way, {} cycles",
        c.hierarchy.l1.size_bytes / 1024,
        c.hierarchy.l1_latency.as_u64()
    )
    .unwrap();
    writeln!(
        out,
        "  L2 Cache           private, 64B per line, {}KB, 8-way, {} cycles",
        c.hierarchy.l2.size_bytes / 1024,
        c.hierarchy.l2_latency.as_u64()
    )
    .unwrap();
    writeln!(
        out,
        "  L3 Cache           shared, 64B per line, {}MB, 16-way, {} cycles",
        c.hierarchy.l3.size_bytes / (1024 * 1024),
        c.hierarchy.l3_latency.as_u64()
    )
    .unwrap();
    writeln!(
        out,
        "  Memory Controller  FRFCFS, {}-entry WPQ in ADR domain, {} banks",
        c.memctrl.wpq_entries, c.memctrl.banks
    )
    .unwrap();
    writeln!(
        out,
        "  Log Buffer         {} entries (680B) per core, FIFO, {} cycles, battery backed",
        c.log_buffer_entries,
        c.log_buffer_latency.as_u64()
    )
    .unwrap();
    writeln!(out, "Persistent Memory").unwrap();
    writeln!(
        out,
        "  Capacity           16GB phase-change memory (modelled sparsely)"
    )
    .unwrap();
    writeln!(
        out,
        "  Latency            read / write: {} / {} ns ({} / {} cycles)",
        c.memctrl.read_cycles / 2,
        c.memctrl.media_write_cycles / 2,
        c.memctrl.read_cycles,
        c.memctrl.media_write_cycles
    )
    .unwrap();
    writeln!(
        out,
        "  On-PM buffer       {} lines x 256B, write coalescing (Silo path)",
        c.onpm_buffer_lines
    )
    .unwrap();
    writeln!(
        out,
        "  Log region         starts at {} GiB, {} MiB per thread",
        c.log_region_start >> 30,
        c.thread_log_area_bytes >> 20
    )
    .unwrap();
    JsonValue::object()
        .field("config_fingerprint", c.fingerprint())
        .build()
}

fn render_table4(
    _p: &ExpParams,
    _cells: &[(CellLabel, CellOutcome)],
    out: &mut String,
) -> JsonValue {
    let silo = HwOverhead::paper(8);
    // eADR flushes the dirty blocks (45%) of the whole 10,496 KB cache
    // hierarchy of Table II; BBB flushes 8 cores x 32 x 64B buffers.
    let rows = [
        ("eADR", 10_496.0),
        ("BBB", 16.0),
        ("Silo", silo.total_flush_bytes() as f64 / 1024.0),
    ];
    writeln!(out, "Table IV: battery requirements (8 cores)").unwrap();
    writeln!(
        out,
        "{:<8}{:>12}{:>14}{:>22}{:>22}",
        "", "Flush (KB)", "Energy (uJ)", "Cap (mm^3; mm^2)", "Li (mm^3; mm^2)"
    )
    .unwrap();
    let mut json_rows = Vec::new();
    for (name, flush_kb) in rows {
        let flush_bytes = if name == "eADR" {
            flush_kb * 1024.0 * 0.45 // dirty fraction
        } else {
            flush_kb * 1024.0
        };
        let energy_uj = flush_bytes * FLUSH_ENERGY_NJ_PER_BYTE / 1000.0;
        let vol = |density: f64| energy_uj / 3.6e9 / density * 1000.0;
        let cap_v = vol(CAP_ENERGY_DENSITY_WH_PER_CM3);
        let li_v = vol(LI_ENERGY_DENSITY_WH_PER_CM3);
        writeln!(
            out,
            "{:<8}{:>12.4}{:>14.1}{:>11.3};{:>10.3}{:>11.4};{:>10.4}",
            name,
            flush_kb,
            energy_uj,
            cap_v,
            cap_v.powf(2.0 / 3.0),
            li_v,
            li_v.powf(2.0 / 3.0),
        )
        .unwrap();
        json_rows.push(
            JsonValue::object()
                .field("scheme", name)
                .field("flush_kb", flush_kb)
                .field("energy_uj", energy_uj)
                .field("cap_mm3", cap_v)
                .field("li_mm3", li_v)
                .build(),
        );
    }
    writeln!(
        out,
        "(paper: eADR 54,377 uJ / Cap 151 mm^3; BBB 194 uJ; Silo 62 uJ / Cap 0.17 mm^3)"
    )
    .unwrap();
    JsonValue::object()
        .field("rows", JsonValue::Arr(json_rows))
        .build()
}

/// Table I spec.
pub fn table1() -> ExperimentSpec {
    ExperimentSpec {
        name: "table1",
        description: "hardware overhead of Silo in the processor (no simulation)",
        default_txs: 0,
        flags: &[],
        build: build_none,
        render: render_table1,
    }
}

/// Table II spec.
pub fn table2() -> ExperimentSpec {
    ExperimentSpec {
        name: "table2",
        description: "simulated system configuration, printed from the live config structs",
        default_txs: 0,
        flags: &[],
        build: build_none,
        render: render_table2,
    }
}

/// Table IV spec.
pub fn table4() -> ExperimentSpec {
    ExperimentSpec {
        name: "table4",
        description: "battery requirements of eADR, BBB, and Silo (no simulation)",
        default_txs: 0,
        flags: &[],
        build: build_none,
        render: render_table4,
    }
}
