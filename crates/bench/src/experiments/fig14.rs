//! Fig 14: Silo's behaviour on large transactions whose write sets are
//! 1–16× the log-buffer size (§VI-F): (a) normalized throughput, (b)
//! normalized PM write traffic, both relative to the 1× configuration of
//! the same benchmark.
//!
//! Larger write sets are built by batching k of a workload's transactions
//! into one (the write-set multiplier); throughput is measured per inner
//! operation so the batching itself does not distort the metric.

use std::fmt::Write as _;

use silo_core::SiloScheme;
use silo_sim::{Engine, ForkPoint, SimConfig, Transaction};
use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, WorkloadSpec};
use crate::exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec, Taken};
use crate::{batch_stream, finish, EventTraceSink, TraceCache};

const MULTS: [usize; 5] = [1, 2, 4, 8, 16];
const NAMES: [&str; 7] = ["Array", "Btree", "Hash", "Queue", "RBtree", "TPCC", "YCSB"];
/// The cores every Fig 14 run simulates.
pub(crate) const CORES: usize = 8;
/// The measured transactions of core 0 whose average write set sizes the
/// batches.
const PROBE_TXS: usize = 50;

/// Executor of [`CellWork::LargeTx`] units: the multiplier cells of one
/// workload, budget and seed (equal [`CellSpec::unit_key`]s). Each cell's
/// recipe: size the 1x batch from the average write set of core 0's
/// first 50 measured transactions, so that 1x roughly fills the 20-entry
/// log buffer; batch `mult` times that many transactions into each
/// emitted one, enough batches for `txs / 8` inner transactions per core
/// (at least one); run Silo in full on 8 cores, setup included; and
/// store throughput and PM writes per inner operation.
///
/// The unit shares all but the batching. It fetches one 8-core trace: a
/// stream does not depend on the core count, so core 0's is the probe,
/// and a smaller budget's streams start a larger one's, so each cell's
/// inner streams are a prefix of the trace's. It runs the setup
/// transactions alone once and forks where the first core finishes its
/// own: every cell's run takes the same steps until then. Then each
/// cell batches its prefix, continues from that fork on the unit's one
/// machine, and drops its streams. So the unit holds one trace, one
/// fork, one machine and one cell's batched streams at a time, and every
/// outcome equals the cell's run from scratch.
pub(crate) fn execute_large_txs(unit: &[&CellSpec]) -> Vec<CellOutcome> {
    let first = unit[0];
    debug_assert!(
        unit.iter().all(|cell| cell.unit_key() == first.unit_key()),
        "one unit's cells share their workload, budget and seed"
    );
    let CellWork::LargeTx {
        ref workload, txs, ..
    } = first.work
    else {
        unreachable!("not a large-transaction cell: {:?}", first.work)
    };
    let w = WorkloadSpec::plain(workload).instantiate();
    let cache = TraceCache::global();
    let per_core = txs / CORES;
    let budget = per_core.max(PROBE_TXS);
    let mut trace = cache.get_or_build(&*w, CORES, budget, first.seed);
    let probe = &trace.streams()[0][1..=PROBE_TXS];
    let words: usize = probe.iter().map(|t| t.write_set_words()).sum();
    let group_1x = ((20.0 / (words as f64 / PROBE_TXS as f64)).ceil() as usize).max(1);
    // Each cell's batch and its inner transactions per core: whole
    // batches, at least one.
    let shapes: Vec<(usize, usize)> = unit
        .iter()
        .map(|cell| {
            let CellWork::LargeTx { mult, .. } = cell.work else {
                unreachable!("checked above")
            };
            let group = group_1x * mult;
            (group, per_core.max(group) / group * group)
        })
        .collect();
    let longest = shapes.iter().map(|&(_, inner)| inner).max().unwrap_or(0);
    if longest > budget {
        trace = cache.get_or_build(&*w, CORES, longest, first.seed);
    }

    let config = SimConfig::table_ii(CORES);
    let mut lease = crate::runner::lease(&config);
    let [machine] = &mut *lease;
    let fork = {
        #[cfg(test)]
        tests::SETUP_RUNS.with(|n| n.set(n.get() + 1));
        let setup: Vec<Vec<Transaction>> =
            trace.streams().iter().map(|s| s[..1].to_vec()).collect();
        let mut silo = SiloScheme::new(&config);
        let mut engine = Engine::on(&mut *machine, &mut silo);
        // The continuations take the probes from the fork: each sinks
        // its own timeline, and nothing reads the setup run's.
        EventTraceSink::global().attach(engine.machine_mut());
        engine.run_forking(setup).1
    };
    let mut run = |from: ForkPoint, (group, inner): (usize, usize)| {
        let streams: Vec<Vec<Transaction>> = trace
            .streams()
            .iter()
            .map(|s| batch_stream(&s[..=inner], group))
            .collect();
        let mut silo = SiloScheme::new(&config);
        let stats = finish(Engine::on(&mut *machine, &mut silo).run_continued(streams, from));
        let ops = stats.txs_committed * group as u64;
        let overflow = stats.scheme_stats.overflow_events;
        let tp = ops as f64 / stats.sim_cycles.as_u64() as f64;
        let wr = stats.media_writes() as f64 / ops as f64;
        CellOutcome::from_stats(stats)
            .with_value("tp", tp)
            .with_value("wr", wr)
            .with_value("overflow", overflow as f64)
    };
    // Every cell but the last continues from a clone; the last takes the
    // fork itself, so no page it writes is still shared.
    let (&last, rest) = shapes.split_last().expect("a unit has a cell");
    let mut outcomes: Vec<CellOutcome> =
        rest.iter().map(|&shape| run(fork.clone(), shape)).collect();
    outcomes.push(run(fork, last));
    outcomes
}

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for name in NAMES {
        for mult in MULTS {
            cells.push(CellSpec::new(
                CellLabel::swc("Silo", name, CORES).with_param(format!("mult={mult}")),
                p.seed,
                CellWork::LargeTx {
                    workload: name.to_string(),
                    mult,
                    txs: p.txs,
                },
            ));
        }
    }
    cells
}

fn render(_p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let mut taken = Taken::new(cells);
    let mut tp: Vec<Vec<f64>> = Vec::new();
    let mut wr: Vec<Vec<f64>> = Vec::new();
    let mut overflow_note = String::new();
    for name in NAMES {
        let mut tp_row = Vec::new();
        let mut wr_row = Vec::new();
        for mult in MULTS {
            let c = taken.next();
            tp_row.push(c.value("tp"));
            wr_row.push(c.value("wr"));
            if mult == 16 {
                overflow_note.push_str(&format!(" {name}:{}", c.value("overflow") as u64));
            }
        }
        tp.push(tp_row);
        wr.push(wr_row);
    }

    writeln!(
        out,
        "Fig 14a: normalized throughput vs write-set size (Silo, 8 cores)"
    )
    .unwrap();
    write_rows(out, &NAMES, &tp);
    writeln!(
        out,
        "\nFig 14b: normalized PM write traffic vs write-set size"
    )
    .unwrap();
    write_rows(out, &NAMES, &wr);
    writeln!(out, "\noverflow events at 16x:{overflow_note}").unwrap();
    writeln!(
        out,
        "(paper: throughput -7.4% on average at 16x; write traffic up to 1.9x)"
    )
    .unwrap();

    let matrix = |rows: &[Vec<f64>]| {
        JsonValue::Arr(
            NAMES
                .iter()
                .zip(rows)
                .map(|(name, row)| {
                    JsonValue::object()
                        .field("workload", *name)
                        .field(
                            "normalized",
                            JsonValue::array(row.iter().map(|v| v / row[0])),
                        )
                        .build()
                })
                .collect(),
        )
    };
    JsonValue::object()
        .field(
            "multipliers",
            JsonValue::array(MULTS.iter().map(|&m| m as u64)),
        )
        .field("throughput", matrix(&tp))
        .field("write_traffic", matrix(&wr))
        .build()
}

fn write_rows(out: &mut String, names: &[&str], rows: &[Vec<f64>]) {
    write!(out, "{:<10}", "").unwrap();
    for m in MULTS {
        write!(out, "{:>8}", format!("{m}x")).unwrap();
    }
    writeln!(out).unwrap();
    let mut avg = vec![0.0; MULTS.len()];
    for (name, row) in names.iter().zip(rows) {
        write!(out, "{name:<10}").unwrap();
        for (i, v) in row.iter().enumerate() {
            let norm = v / row[0];
            avg[i] += norm;
            write!(out, "{norm:>8.3}").unwrap();
        }
        writeln!(out).unwrap();
    }
    write!(out, "{:<10}", "Average").unwrap();
    for a in &avg {
        write!(out, "{:>8.3}", a / names.len() as f64).unwrap();
    }
    writeln!(out).unwrap();
}

/// The registered spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fig14",
        description: "Silo on large transactions: throughput and write traffic vs 1-16x write-set multipliers",
        default_txs: 4_000,
        flags: &[],
        build,
        render,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Setup runs this thread's units ran.
        pub(super) static SETUP_RUNS: Cell<u64> = const { Cell::new(0) };
    }

    /// The setup runs `f` ran on this thread.
    fn setup_runs<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = SETUP_RUNS.with(Cell::get);
        let out = f();
        (out, SETUP_RUNS.with(Cell::get) - before)
    }

    #[test]
    fn a_unit_runs_one_setup_whatever_its_size() {
        let cells: Vec<CellSpec> = MULTS
            .iter()
            .map(|&mult| {
                let work = CellWork::LargeTx {
                    workload: "Queue".into(),
                    mult,
                    txs: 40,
                };
                CellSpec::new(CellLabel::default(), 42, work)
            })
            .collect();
        for n in 1..=cells.len() {
            let unit: Vec<&CellSpec> = cells[..n].iter().collect();
            let (outcomes, setups) = setup_runs(|| execute_large_txs(&unit));
            assert_eq!((outcomes.len(), setups), (n, 1), "a unit of {n}");
        }
        let (_, setups) = setup_runs(|| cells.iter().map(CellSpec::execute).count());
        assert_eq!(setups, 5, "a cell alone is a unit of one");
        // The runner hands each workload's five multipliers over as one
        // unit: one setup run per workload.
        let mut p = ExpParams::defaults(&spec());
        p.txs = 40;
        let (done, setups) = setup_runs(|| crate::run_cells(spec().build(&p), 1));
        assert_eq!((done.len(), setups), (35, 7));
    }
}
