//! The declarative experiment layer: specs, grid sweeps, and cells.
//!
//! Every figure, table, ablation, and study in this repository is described
//! by an [`ExperimentSpec`]: a name, defaults, and either a declarative
//! [`GridSpec`] (scheme set × workload set × core counts with a metric
//! extractor and a normalization reference — the Fig 11/12 shape) or a
//! custom pair of functions that build the experiment's independent
//! simulation [`CellSpec`]s and render the finished results.
//!
//! The split into *build* → *run* → *render* is what makes the runner
//! parallel without changing a byte of output: cells carry no ordering
//! dependencies, the runner slots each outcome back at its cell index, and
//! rendering consumes outcomes strictly in cell order. Cells are pure data
//! ([`CellSpec`]), so the runner also memoizes them through the persistent
//! [`ResultStore`](crate::ResultStore).

use std::fmt::Write as _;

use silo_sim::SimStats;
use silo_types::JsonValue;

use crate::cellspec::{CellSpec, CellWork, RunSpec, WorkloadSpec};
use crate::flags::{Flag, Line};
use crate::format_normalized;

/// Runtime parameters of one experiment invocation.
#[derive(Clone, Debug)]
pub struct ExpParams {
    /// Transaction budget (each experiment interprets it exactly as its
    /// pre-framework binary did — usually total transactions split across
    /// cores).
    pub txs: usize,
    /// Workload generation seed.
    pub seed: u64,
    /// Core count (`--cores`: `compare`, `profile` and `latency`).
    pub cores: usize,
    /// Workload selection (`--bench`: `compare`, `profile`, `latency`,
    /// `crashfuzz` and `fuzz`).
    pub benches: Vec<String>,
    /// The whole command line: program, experiment, then flags. The crash
    /// experiments read their own flags from it through [`ExpParams::line`].
    /// Empty by default.
    pub extra: Vec<String>,
}

impl ExpParams {
    /// Defaults for a spec: its transaction budget, seed 42, and the
    /// `--cores`/`--bench` defaults.
    pub fn defaults(spec: &ExperimentSpec) -> Self {
        ExpParams {
            txs: spec.default_txs,
            seed: 42,
            cores: 8,
            benches: vec!["Hash".into(), "TPCC".into(), "YCSB".into()],
            extra: Vec::new(),
        }
    }

    /// The flags of [`extra`](ExpParams::extra). Panics on a line the
    /// flag tables reject, as [`Invocation::parse`](crate::Invocation)
    /// does before anything is built.
    pub fn line(&self) -> Line {
        let flags = self.extra.get(2..).unwrap_or_default();
        Line::split(flags).unwrap_or_else(|err| panic!("unchecked command line: {err}"))
    }
}

/// Identifies one independent simulation within an experiment's grid.
#[derive(Clone, Debug, Default)]
pub struct CellLabel {
    /// Scheme legend name (empty when not scheme-indexed).
    pub scheme: String,
    /// Workload name (empty when not workload-indexed).
    pub workload: String,
    /// Core count of the simulated machine (0 when no machine runs).
    pub cores: usize,
    /// Free-form extra coordinate, e.g. `latency=16` or `batch=4`.
    pub param: String,
}

impl CellLabel {
    /// Label for a scheme × workload × cores cell.
    pub fn swc(scheme: &str, workload: &str, cores: usize) -> Self {
        CellLabel {
            scheme: scheme.to_string(),
            workload: workload.to_string(),
            cores,
            ..CellLabel::default()
        }
    }

    /// Adds the free-form parameter coordinate.
    pub fn with_param(mut self, param: impl Into<String>) -> Self {
        self.param = param.into();
        self
    }

    /// Human-readable cell identity for error messages: the non-empty
    /// coordinates joined, e.g. `Silo/TPCC/8c/batch=4`.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if !self.scheme.is_empty() {
            parts.push(self.scheme.clone());
        }
        if !self.workload.is_empty() {
            parts.push(self.workload.clone());
        }
        if self.cores > 0 {
            parts.push(format!("{}c", self.cores));
        }
        if !self.param.is_empty() {
            parts.push(self.param.clone());
        }
        if parts.is_empty() {
            parts.push("<unlabeled>".to_string());
        }
        parts.join("/")
    }
}

/// What one cell produced: the raw run statistics (when a simulation ran)
/// plus any named metrics computed inside the cell.
#[derive(Clone, Debug, Default)]
pub struct CellOutcome {
    /// Raw statistics of the run, persisted in full into the JSON report.
    pub stats: Option<SimStats>,
    /// Named derived metrics (insertion-ordered).
    pub values: Vec<(String, f64)>,
    /// Which cell produced this outcome ([`CellLabel::describe`]), stamped
    /// by the runner so accessor failures name the cell instead of dying
    /// anonymously. Display-only: never serialized, never compared.
    pub origin: String,
}

impl CellOutcome {
    /// Wraps a bare run.
    pub fn from_stats(stats: SimStats) -> Self {
        CellOutcome {
            stats: Some(stats),
            ..CellOutcome::default()
        }
    }

    /// Appends a named metric.
    pub fn with_value(mut self, key: &str, value: f64) -> Self {
        self.values.push((key.to_string(), value));
        self
    }

    /// Looks up a named metric.
    ///
    /// # Panics
    ///
    /// Panics if the metric was not recorded — that is a bug in the
    /// experiment's build/render pairing, not a runtime condition. The
    /// message names the cell, the requested key, and what *was* recorded.
    pub fn value(&self, key: &str) -> f64 {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| {
                let recorded: Vec<&str> = self.values.iter().map(|(k, _)| k.as_str()).collect();
                panic!(
                    "cell {origin}: metric {key:?} not recorded (recorded: {recorded:?})",
                    origin = self.origin_or_unknown(),
                )
            })
    }

    /// The run statistics.
    ///
    /// # Panics
    ///
    /// Panics if the cell carried no simulation; the message names the
    /// cell.
    pub fn stats(&self) -> &SimStats {
        self.stats.as_ref().unwrap_or_else(|| {
            panic!(
                "cell {origin}: ran no simulation, no stats recorded",
                origin = self.origin_or_unknown(),
            )
        })
    }

    fn origin_or_unknown(&self) -> &str {
        if self.origin.is_empty() {
            "<unknown>"
        } else {
            &self.origin
        }
    }
}

/// In-order reader over finished cells, for render functions that walk the
/// grid in the same nested-loop order the build function used.
pub struct Taken<'a> {
    cells: &'a [(CellLabel, CellOutcome)],
    next: usize,
}

impl<'a> Taken<'a> {
    /// Starts at the first cell.
    pub fn new(cells: &'a [(CellLabel, CellOutcome)]) -> Self {
        Taken { cells, next: 0 }
    }

    /// The next outcome in cell order.
    ///
    /// # Panics
    ///
    /// Panics if the build function produced fewer cells than the render
    /// function consumes.
    #[allow(clippy::should_implement_trait)] // not an Iterator: panics at the end by design
    pub fn next(&mut self) -> &'a CellOutcome {
        let cell = self
            .cells
            .get(self.next)
            .unwrap_or_else(|| panic!("render consumed more cells than built ({})", self.next));
        self.next += 1;
        &cell.1
    }

    /// The next outcome's run statistics.
    pub fn next_stats(&mut self) -> &'a SimStats {
        self.next().stats()
    }
}

/// The declarative scheme × workload × cores sweep (the paper's Fig 11/12
/// shape): every combination runs
/// [`run_delta_with`](crate::run_delta_with), the chosen metric is
/// extracted, and each (workload, cores) row is normalized to the
/// reference scheme column.
pub struct GridSpec {
    /// Headline printed before the first table.
    pub title: &'static str,
    /// Scheme columns, legend order.
    pub schemes: &'static [&'static str],
    /// Workload rows, x-axis order.
    pub benchmarks: &'static [&'static str],
    /// One normalized table per core count.
    pub core_counts: &'static [usize],
    /// Metric key used in the JSON report.
    pub metric_name: &'static str,
    /// Extracts the plotted metric from a finished run.
    pub metric: fn(&SimStats) -> f64,
    /// Index into `schemes` of the normalization reference column.
    pub reference: usize,
}

/// How an experiment produces its cells and its output.
pub enum ExpKind {
    /// A declarative grid sweep.
    Grid(GridSpec),
    /// Hand-written build/render functions (ablations, studies, tables).
    Custom {
        /// Expands the parameters into independent cell specs.
        build: fn(&ExpParams) -> Vec<CellSpec>,
        /// Renders the text output (byte-identical to the pre-framework
        /// binary) and returns the experiment's derived values for the
        /// report.
        render: fn(&ExpParams, &[(CellLabel, CellOutcome)], &mut String) -> JsonValue,
    },
}

/// A registered experiment: everything `evaluate` needs to list, run,
/// render, and persist it.
pub struct ExperimentSpec {
    /// Registry name (`fig11`, `ablation_flushbit`, ...).
    pub name: &'static str,
    /// One-line description for `evaluate list`.
    pub description: &'static str,
    /// Default transaction budget (the pre-framework binary's default).
    pub default_txs: usize,
    /// The flags only this experiment reads, beyond [`COMMON`](crate::flags::COMMON).
    pub flags: &'static [Flag],
    /// Grid or custom behaviour.
    pub kind: ExpKind,
}

impl ExperimentSpec {
    /// Expands the parameters into this experiment's independent cell
    /// specs. Grid cells are steady-state deltas on the stock Table II
    /// machine — two grids sweeping the same axes (fig11/fig12) produce
    /// content-identical specs and share one set of memoized results.
    pub fn build(&self, p: &ExpParams) -> Vec<CellSpec> {
        match &self.kind {
            ExpKind::Custom { build, .. } => build(p),
            ExpKind::Grid(grid) => {
                let mut cells = Vec::new();
                for &cores in grid.core_counts {
                    let txs_per_core = (p.txs / cores).max(1);
                    for bench in grid.benchmarks {
                        for scheme in grid.schemes {
                            cells.push(CellSpec::new(
                                CellLabel::swc(scheme, bench, cores),
                                p.seed,
                                CellWork::Delta(RunSpec::table_ii(
                                    scheme,
                                    WorkloadSpec::plain(bench),
                                    cores,
                                    txs_per_core,
                                )),
                            ));
                        }
                    }
                }
                cells
            }
        }
    }

    /// Renders the finished cells into the experiment's text output and
    /// returns its derived (normalized) values for the JSON report.
    pub fn render(
        &self,
        p: &ExpParams,
        cells: &[(CellLabel, CellOutcome)],
        out: &mut String,
    ) -> JsonValue {
        match &self.kind {
            ExpKind::Custom { render, .. } => render(p, cells, out),
            ExpKind::Grid(grid) => {
                let mut taken = Taken::new(cells);
                writeln!(out, "{}", grid.title).unwrap();
                let mut tables = Vec::new();
                for &cores in grid.core_counts {
                    let mut rows = Vec::new();
                    for _bench in grid.benchmarks {
                        let row: Vec<f64> = grid
                            .schemes
                            .iter()
                            .map(|_| (grid.metric)(taken.next_stats()))
                            .collect();
                        rows.push(row);
                    }
                    out.push_str(&format_normalized(
                        &format!("({cores} core{})", if cores == 1 { "" } else { "s" }),
                        &grid
                            .benchmarks
                            .iter()
                            .map(|s| s.to_string())
                            .collect::<Vec<_>>(),
                        grid.schemes,
                        &rows,
                        grid.reference,
                    ));
                    tables.push(grid_table_json(grid, cores, &rows));
                }
                JsonValue::object()
                    .field("metric", grid.metric_name)
                    .field("reference", grid.schemes[grid.reference])
                    .field("tables", JsonValue::Arr(tables))
                    .build()
            }
        }
    }
}

/// One normalized per-core-count table as JSON.
fn grid_table_json(grid: &GridSpec, cores: usize, rows: &[Vec<f64>]) -> JsonValue {
    let norm_rows: Vec<JsonValue> = grid
        .benchmarks
        .iter()
        .zip(rows)
        .map(|(bench, row)| {
            let norm = row[grid.reference];
            JsonValue::object()
                .field("workload", *bench)
                .field("raw", JsonValue::array(row.iter().copied()))
                .field(
                    "normalized",
                    JsonValue::array(row.iter().map(|v| if norm == 0.0 { 0.0 } else { v / norm })),
                )
                .build()
        })
        .collect();
    JsonValue::object()
        .field("cores", cores)
        .field("schemes", JsonValue::array(grid.schemes.iter().copied()))
        .field("rows", JsonValue::Arr(norm_rows))
        .build()
}
