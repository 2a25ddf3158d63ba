//! The parallel cell runner.
//!
//! An experiment's cells are independent simulations, so the runner fans
//! them out across `std::thread::scope` workers pulling from a shared
//! atomic cursor (no dependencies, no channels) and slots every outcome
//! back at its cell index. Output is therefore byte-identical to a serial
//! run regardless of worker count or scheduling: rendering only ever sees
//! the in-order slice.
//!
//! Every cell resolves through the process-wide [`ResultStore`]: with the
//! store enabled, a cell whose spec hash this build has computed before
//! skips trace generation and simulation entirely; disabled (the default
//! outside the CLI), the spec executes directly. Either way the runner
//! stamps the outcome's `origin` with the cell label so downstream
//! accessor failures name their cell.
//!
//! A [`TraceScope`] holds each generated trace only as long as the cells
//! that read it: before any cell runs, it counts the cells of each trace
//! family (`CellSpec::family`) on the process-wide [`TraceCache`], and
//! every finished cell, executed or served, counts its family down. The
//! cache drops a family's traces at zero, so the fig11 grid, whose five
//! scheme cells of one (benchmark, cores) pair run side by side, keeps
//! about one pair of traces per worker instead of all 56. [`run_cells`]
//! opens a scope over its own cells; `evaluate` opens one over every
//! experiment it runs, so fig12 reads the traces fig11 generated.
//!
//! A cell is a pure function of its spec, and every spec the flag table
//! lets through can run, so a panic inside a cell is a bug and propagates
//! to the caller: a debug assertion in a crash cell (the resume-vs-scratch
//! check) must fail the run that hits it. The scope's traces go with it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cellspec::CellSpec;
use crate::exp::{CellLabel, CellOutcome};
use crate::trace_cache::TraceRun;
use crate::{ResultStore, TraceCache};

/// The machine's available parallelism (the `--jobs` default).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs every cell spec and returns `(label, outcome)` pairs in cell
/// order, in a [`TraceScope`] of its own.
///
/// `jobs <= 1` runs serially on the calling thread; any larger value
/// spawns `min(jobs, cells.len())` scoped workers. A panic inside a cell
/// propagates to the caller either way. A trace that one family reads is
/// generated once per call and dropped after the family's last cell.
pub fn run_cells(cells: Vec<CellSpec>, jobs: usize) -> Vec<(CellLabel, CellOutcome)> {
    TraceScope::open(&cells).run_cells(cells, jobs)
}

/// The span a generated trace can live in: every cell that will run in
/// it, counted by trace family before the first runs. A trace goes after
/// the last cell of its family, so an invocation that opens one scope
/// over several experiments generates a trace they share once, and holds
/// it no longer than its last reader. Dropping the scope, on return or
/// unwind, drops whatever its cells left.
pub struct TraceScope(TraceRun<'static>);

impl TraceScope {
    /// Opens a scope over `cells`: every cell its [`TraceScope::run_cells`]
    /// calls will run. Counting generates nothing.
    pub fn open<'a>(cells: impl IntoIterator<Item = &'a CellSpec>) -> TraceScope {
        TraceScope(TraceCache::global().open_run(cells.into_iter().map(CellSpec::family)))
    }

    /// Runs every cell spec, each one the scope counted when it opened,
    /// as [`run_cells`] does.
    pub fn run_cells(&self, cells: Vec<CellSpec>, jobs: usize) -> Vec<(CellLabel, CellOutcome)> {
        let store = ResultStore::global();
        let run = |spec: &CellSpec| self.0.cell(spec.family(), || store.get_or_run(spec));
        let outcomes: Vec<CellOutcome> = if jobs <= 1 || cells.len() <= 1 {
            cells.iter().map(run).collect()
        } else {
            let workers = jobs.min(cells.len());
            let slots: Vec<Mutex<Option<CellOutcome>>> =
                cells.iter().map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = cells.get(i) else { break };
                        *slots[i].lock().unwrap() = Some(run(spec));
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
                .collect()
        };

        cells
            .into_iter()
            .zip(outcomes)
            .map(|(spec, mut outcome)| {
                outcome.origin = spec.label.describe();
                (spec.label, outcome)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cellspec::CellWork;
    use crate::exp::CellLabel;

    /// Simulation-free cells with distinct workloads and uneven trace
    /// sizes, so parallel completion order scrambles but each outcome
    /// still carries its own index.
    fn counting_cells(n: usize) -> Vec<CellSpec> {
        (0..n)
            .map(|i| {
                CellSpec::new(
                    CellLabel::default().with_param(format!("i={i}")),
                    42,
                    CellWork::TraceStats {
                        workload: "Bank".into(),
                        txs: n - i,
                    },
                )
            })
            .collect()
    }

    /// A cell whose execution panics (unknown workload at trace time).
    fn poisoned_cell() -> CellSpec {
        CellSpec::new(
            CellLabel::default().with_param("poisoned"),
            42,
            CellWork::TraceStats {
                workload: "NoSuchWorkload".into(),
                txs: 1,
            },
        )
    }

    #[test]
    fn outcomes_slot_back_in_cell_order() {
        for jobs in [1, 2, 8] {
            let done = run_cells(counting_cells(17), jobs);
            assert_eq!(done.len(), 17);
            for (i, (label, outcome)) in done.iter().enumerate() {
                assert_eq!(label.param, format!("i={i}"), "jobs={jobs}");
                // txs = 17 - i measured transactions went into the trace.
                assert!(outcome.value("avg_b") > 0.0, "jobs={jobs} i={i}");
                assert_eq!(outcome.origin, format!("i={i}"), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_cells(counting_cells(9), 1);
        let parallel = run_cells(counting_cells(9), 8);
        for ((la, a), (lb, b)) in serial.iter().zip(&parallel) {
            assert_eq!(la.param, lb.param);
            assert_eq!(a.values, b.values);
        }
    }

    #[test]
    fn oversubscribed_jobs_are_capped() {
        let done = run_cells(counting_cells(3), 64);
        assert_eq!(done.len(), 3);
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_cells(Vec::new(), 8).is_empty());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn missing_metric_panic_names_the_cell() {
        let done = run_cells(counting_cells(1), 1);
        let err = std::panic::catch_unwind(|| done[0].1.value("nope")).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("i=0"), "names the cell: {msg}");
        assert!(msg.contains("\"nope\""), "names the key: {msg}");
        assert!(msg.contains("avg_b"), "lists recorded keys: {msg}");
    }

    #[test]
    fn missing_stats_panic_names_the_cell() {
        let done = run_cells(counting_cells(1), 1);
        let err = std::panic::catch_unwind(|| done[0].1.stats().clone()).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("i=0"), "names the cell: {msg}");
        assert!(msg.contains("no simulation"), "{msg}");
    }

    #[test]
    fn propagate_policy_still_dies() {
        // A panicking cell kills the run: with its own message serially,
        // and through the worker scope in parallel.
        let err = std::panic::catch_unwind(|| run_cells(vec![poisoned_cell()], 1)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("NoSuchWorkload"), "{msg}");
        let mut cells = counting_cells(4);
        cells.insert(2, poisoned_cell());
        assert!(std::panic::catch_unwind(|| run_cells(cells, 4)).is_err());
    }
}
