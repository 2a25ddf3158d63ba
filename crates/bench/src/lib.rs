//! Shared harness and experiment framework behind the `evaluate` binary.
//!
//! Every experiment in this repository is an [`exp::ExperimentSpec`] in the
//! [`registry`]: a declarative description of the simulation grid plus a
//! render function reproducing the paper's tables. The [`runner`] fans the
//! independent grid cells across worker threads, [`report`] persists JSON
//! reports, and `evaluate` (the one binary, `src/bin/evaluate.rs`) resolves
//! experiments by registry name and drives it all, after [`flags`] has
//! checked its command line against every flag table.
//!
//! Every cell runs through [`CellSpec::execute`], whose recipes share the
//! simulation primitives here: [`make_scheme`] instantiates a scheme by
//! name, [`TraceCache`] resolves a workload's per-core transaction streams,
//! and [`run_delta_with`] and [`run_with_scheme`] run the engine and return
//! its statistics. Figures normalize exactly as the paper does (to `Base`,
//! or to a reference configuration).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellspec;
pub mod exp;
pub mod experiments;
pub mod flags;
pub mod probe;
pub mod registry;
pub mod report;
pub mod result_store;
pub mod runner;
pub mod trace_cache;

pub use cellspec::{
    CellSpec, CellWork, ConfigDelta, FaultSpec, RunOptions, RunSpec, SchemeSpec, WorkloadSpec,
};
pub use exp::{CellLabel, CellOutcome, ExpParams, ExperimentSpec};
pub use flags::{Flag, Invocation, Line, UsageError};
pub use probe::{run_profiled, EventTraceSink};
pub use report::{
    render_finished, render_finished_checked, run_experiment, write_report, ExperimentError,
    ExperimentRun,
};
pub use result_store::{ResultStore, ResultStoreStats, Served};
pub use runner::{default_jobs, run_cells, TraceScope};
pub use trace_cache::{TraceCache, TraceCacheStats, TraceKey};

use silo_baselines::{
    BaseScheme, EadrSwLogScheme, FwbScheme, LadScheme, MorLogScheme, SwLogScheme,
};
use silo_core::SiloScheme;
use silo_sim::{Engine, LoggingScheme, RunOutcome, SimConfig, SimStats, TraceSet, Transaction};
use silo_workloads::Workload;

/// The evaluated designs, in the paper's legend order.
pub const SCHEMES: [&str; 5] = ["Base", "FWB", "MorLog", "LAD", "Silo"];

/// Every implemented scheme, including the software baselines that the
/// figure legends omit. This is the crash-fuzzing sweep set.
pub const ALL_SCHEMES: [&str; 7] = [
    "Base",
    "FWB",
    "MorLog",
    "LAD",
    "SwLog",
    "eADR-SwLog",
    "Silo",
];

/// The figure benchmarks, in the paper's x-axis order.
pub const FIG11_BENCHMARKS: [&str; 7] =
    ["Array", "Btree", "Hash", "Queue", "RBtree", "TPCC", "YCSB"];

/// Instantiates a scheme by its legend name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn make_scheme(name: &str, config: &SimConfig) -> Box<dyn LoggingScheme> {
    match name {
        "Base" => Box::new(BaseScheme::new(config)),
        "FWB" => Box::new(FwbScheme::new(config)),
        "MorLog" => Box::new(MorLogScheme::new(config)),
        "LAD" => Box::new(LadScheme::new(config)),
        "SwLog" => Box::new(SwLogScheme::new(config)),
        "eADR-SwLog" => Box::new(EadrSwLogScheme::new(config)),
        "Silo" => Box::new(SiloScheme::new(config)),
        other => panic!("unknown scheme {other}"),
    }
}

/// Steady-state delta measurement: runs `workload` at N and at 2N
/// transactions per core and returns the difference, which excludes the
/// setup transaction and any cold-start effects. This is how every figure,
/// ablation and study cell measures. The factory must produce equivalent
/// fresh schemes for both runs.
///
/// The two runs are the same simulation until the N-run's first core runs
/// out of transactions, so that shared prefix is simulated once: the
/// N-run captures its [`ForkPoint`](silo_sim::ForkPoint) there and the
/// 2N-run continues from it. This needs the 2N trace to start with the N
/// trace, streams and arrival schedules alike (every registered generator
/// does; a diurnal arrival ramp does not), which the trace cache checks
/// once per trace pair ([`TraceCache::get_or_build_pair`]); otherwise the
/// 2N-run starts from t=0. Either way the result equals
/// `long.delta_from(&short)` of two from-scratch runs. Both runs use one
/// machine ([`Engine::on`] resets it between them), which a worker of
/// the runner lends from its pool, so a cell builds no cache slab.
pub fn run_delta_with(
    config: &SimConfig,
    mut factory: impl FnMut() -> Box<dyn LoggingScheme>,
    workload: &dyn Workload,
    txs_per_core: usize,
    seed: u64,
) -> SimStats {
    let (short_trace, long_trace, extends) =
        TraceCache::global().get_or_build_pair(workload, config.cores, txs_per_core, seed);
    let mut lease = runner::lease(config);
    let [machine] = &mut *lease;
    let (short, fork) = {
        let mut scheme = factory();
        let engine = traced(Engine::on(machine, scheme.as_mut()));
        if extends {
            let (outcome, fork) = engine.run_forking(&short_trace);
            (finish(outcome), Some(fork))
        } else {
            (finish(engine.run(&short_trace, None)), None)
        }
    };
    let mut scheme = factory();
    let engine = traced(Engine::on(machine, scheme.as_mut()));
    let long = match fork {
        Some(fork) => engine.run_continued(&long_trace, fork),
        None => engine.run(&long_trace, None),
    };
    finish(long).delta_from(&short)
}

/// Runs pre-generated streams under an explicit scheme instance. When the
/// process-wide [`EventTraceSink`] is enabled (`--trace-events`), the
/// run's event timeline drains into the trace file.
pub fn run_with_scheme(
    scheme: &mut dyn LoggingScheme,
    config: &SimConfig,
    streams: impl Into<TraceSet>,
) -> SimStats {
    finish(traced(Engine::new(config, scheme)).run(streams, None))
}

/// `engine`, its timeline feeding the [`EventTraceSink`] when it is on.
fn traced(mut engine: Engine<'_>) -> Engine<'_> {
    EventTraceSink::global().attach(engine.machine_mut());
    engine
}

/// Sinks a finished run's timeline and keeps only its statistics, so the
/// run's PM image is dropped here rather than held by the caller.
pub(crate) fn finish(outcome: RunOutcome) -> SimStats {
    probe::sink_outcome(&outcome);
    outcome.stats
}

/// Renders a normalized table: one row per benchmark, one column per
/// scheme, each cell `value[bench][scheme] / value[bench][reference]`.
///
/// An empty benchmark list renders the title and header only — no
/// `Average` row, so no 0/0 `NaN` cells.
pub fn format_normalized(
    title: &str,
    benches: &[String],
    schemes: &[&str],
    values: &[Vec<f64>],
    reference: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "\n{title}").unwrap();
    write!(out, "{:<10}", "").unwrap();
    for s in schemes {
        write!(out, "{s:>9}").unwrap();
    }
    writeln!(out).unwrap();
    if benches.is_empty() {
        return out;
    }
    let mut sums = vec![0.0; schemes.len()];
    for (b, row) in benches.iter().zip(values) {
        write!(out, "{b:<10}").unwrap();
        let norm = row[reference];
        for (i, v) in row.iter().enumerate() {
            let x = if norm == 0.0 { 0.0 } else { v / norm };
            sums[i] += x;
            write!(out, "{x:>9.3}").unwrap();
        }
        writeln!(out).unwrap();
    }
    write!(out, "{:<10}", "Average").unwrap();
    for s in &sums {
        write!(out, "{:>9.3}", s / benches.len() as f64).unwrap();
    }
    writeln!(out).unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_workloads::workload_by_name;

    #[test]
    fn all_schemes_instantiate() {
        let cfg = SimConfig::table_ii(2);
        for s in ALL_SCHEMES {
            assert_eq!(make_scheme(s, &cfg).name(), s);
        }
        assert!(SCHEMES.iter().all(|s| ALL_SCHEMES.contains(s)));
    }

    #[test]
    #[should_panic(expected = "unknown scheme")]
    fn unknown_scheme_panics() {
        make_scheme("Nope", &SimConfig::table_ii(1));
    }

    #[test]
    fn smoke_run_every_scheme_on_one_workload() {
        let w = workload_by_name("Bank").expect("bank exists");
        let config = SimConfig::table_ii(1);
        let trace = TraceCache::global().get_or_build(&*w, 1, 20, 42);
        for s in SCHEMES {
            let stats = run_with_scheme(make_scheme(s, &config).as_mut(), &config, &trace);
            assert_eq!(stats.txs_committed, 21, "{s}: setup + 20 txs");
            assert!(stats.sim_cycles.as_u64() > 0);
        }
    }
}

/// Wraps a workload so that every `group` consecutive measured
/// transactions execute as **one** transaction, multiplying the write set:
/// the batch knob of [`WorkloadSpec::batched`] (the overflow ablations).
/// Fig 14's large-transaction cells batch the same way, but from
/// prefixes of the one trace their execution unit fetches, so their
/// batched streams never enter the [`TraceCache`].
pub struct Batched<W> {
    inner: W,
    group: usize,
}

impl<W: Workload> Batched<W> {
    /// Groups `group` inner transactions per emitted transaction.
    ///
    /// # Panics
    ///
    /// Panics if `group` is zero.
    pub fn new(inner: W, group: usize) -> Self {
        assert!(group > 0, "group must be positive");
        Batched { inner, group }
    }
}

impl<W: Workload> Workload for Batched<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn trace_ident(&self) -> String {
        format!("{}[batch={}]", self.inner.trace_ident(), self.group)
    }

    fn raw_streams(&self, cores: usize, txs_per_core: usize, seed: u64) -> Vec<Vec<Transaction>> {
        // The inner trace resolves through the cache, as every trace a
        // cell fetches does, so it joins the cell's trace family.
        let inner =
            TraceCache::global().get_or_build(&self.inner, cores, txs_per_core * self.group, seed);
        inner
            .streams()
            .iter()
            .map(|stream| batch_stream(stream, self.group))
            .collect()
    }
}

/// One stream as [`Batched`] emits it: the setup transaction as it is,
/// then the ops of every `group` consecutive transactions as one
/// transaction, and a shorter last group if `group` does not divide the
/// rest.
pub(crate) fn batch_stream(stream: &[Transaction], group: usize) -> Vec<Transaction> {
    let mut iter = stream.iter();
    let mut out = Vec::with_capacity(1 + stream.len().saturating_sub(1).div_ceil(group));
    if let Some(setup) = iter.next() {
        out.push(setup.clone());
    }
    let mut ops = Vec::new();
    let mut n = 0;
    for tx in iter {
        ops.extend_from_slice(tx.ops());
        n += 1;
        if n == group {
            out.push(Transaction::new(std::mem::take(&mut ops)));
            n = 0;
        }
    }
    if !ops.is_empty() {
        out.push(Transaction::new(ops));
    }
    out
}

#[cfg(test)]
mod batched_tests {
    use super::*;
    use silo_workloads::BankWorkload;

    #[test]
    fn batching_multiplies_write_sets() {
        let plain = BankWorkload::default().raw_streams(1, 8, 1);
        let batched = Batched::new(BankWorkload::default(), 4).raw_streams(1, 2, 1);
        // Same setup tx; 2 batched txs covering the same 8 inner txs.
        assert_eq!(batched[0].len(), 3);
        let plain_words: usize = plain[0][1..].iter().map(|t| t.store_count()).sum();
        let batched_words: usize = batched[0][1..].iter().map(|t| t.store_count()).sum();
        assert_eq!(plain_words, batched_words);
        assert!(batched[0][1].store_count() >= 3 * plain[0][1].store_count());
    }

    #[test]
    fn empty_benchmark_list_renders_without_nan() {
        let out = format_normalized("(0 cores)", &[], &["Base", "Silo"], &[], 0);
        assert!(out.contains("(0 cores)"));
        assert!(out.contains("Base"));
        assert!(!out.contains("NaN"), "no 0/0 Average row: {out:?}");
        assert!(!out.contains("Average"));
    }

    #[test]
    fn format_and_print_normalized_agree_on_populated_tables() {
        let benches = vec!["Hash".to_string(), "TPCC".to_string()];
        let values = vec![vec![10.0, 5.0], vec![8.0, 2.0]];
        let out = format_normalized("(2 cores)", &benches, &["Base", "Silo"], &values, 0);
        assert!(out.contains("Hash          1.000    0.500"));
        assert!(out.contains("Average       1.000    0.375"));
        assert!(out.ends_with('\n'));
    }
}
