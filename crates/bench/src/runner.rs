//! The parallel cell runner.
//!
//! An experiment's cells are independent simulations, so the runner fans
//! them out across `std::thread::scope` workers pulling from a shared
//! atomic cursor (no dependencies, no channels) and slots every outcome
//! back at its cell index. Output is therefore byte-identical to a serial
//! run regardless of worker count or scheduling: rendering only ever sees
//! the in-order slice.
//!
//! The cursor hands out execution units, not cells: the cells of one
//! `CellSpec::unit_key` (the fault cells of one crash target, or the
//! multiplier cells of one Fig 14 workload) go to one worker together, in
//! the order of each unit's first cell, and run in one call that shares
//! their common work; every other cell is a unit of one. Nothing a unit's
//! call builds outlives it but its machines: each worker keeps the ones
//! its cells ran on (`lease`) and lends them to its next cells, whose
//! engines reset them, so a run builds the cache slabs of each geometry
//! once per worker instead of once per cell, and drops them when the
//! worker ends.
//!
//! Every unit resolves through the process-wide [`ResultStore`]: with the
//! store enabled, a cell whose spec hash this build has computed before
//! skips trace generation and simulation entirely, and only the unit's
//! other cells execute; disabled (the default outside the CLI), the unit
//! executes directly. Either way the runner stamps each outcome's `origin`
//! with its cell's label so downstream accessor failures name their cell.
//!
//! A [`TraceScope`] holds each generated trace only as long as the cells
//! that read it: before any cell runs, it counts the cells of each trace
//! family (`CellSpec::family`) on the process-wide [`TraceCache`], and
//! every finished cell, executed or served, counts its family down (a
//! unit's cells share one family, and count it down together). The
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

use std::cell::RefCell;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use silo_sim::{Machine, SimConfig};

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
/// spawns one scoped worker per execution unit, at most `jobs`, each
/// running whole units. A panic inside a cell
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
        let units = units(&cells);
        let slots: Vec<Mutex<Option<CellOutcome>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        // A unit's cells share their trace family (the workload, cores
        // and seed their unit key names).
        let run = |unit: &[usize]| {
            let specs: Vec<&CellSpec> = unit.iter().map(|&i| &cells[i]).collect();
            let family = specs[0].family();
            let outcomes = self
                .0
                .cells(family, specs.len(), || store.get_or_run_unit(&specs));
            for (&i, (outcome, _)) in unit.iter().zip(outcomes) {
                *slots[i].lock().expect("a slot's one writer never panics") = Some(outcome);
            }
        };
        if jobs <= 1 || units.len() <= 1 {
            as_worker(|| units.iter().for_each(|unit| run(unit)));
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs.min(units.len()) {
                    scope.spawn(|| {
                        as_worker(|| loop {
                            let u = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(unit) = units.get(u) else { break };
                            run(unit);
                        })
                    });
                }
            });
        }

        cells
            .into_iter()
            .zip(slots)
            .map(|(spec, slot)| {
                let slot = slot.into_inner().expect("a slot's one writer never panics");
                let mut outcome = slot.expect("every unit filled its slots");
                outcome.origin = spec.label.describe();
                (spec.label, outcome)
            })
            .collect()
    }
}

thread_local! {
    /// The idle machines of the worker on this thread; `None` outside a
    /// worker.
    static MACHINES: RefCell<Option<Vec<Machine>>> = const { RefCell::new(None) };
}

/// Runs `work` as a worker: the machines its cells lease ([`lease`])
/// come back to this thread's pool for its next cells, and the pool is
/// dropped when `work` returns or unwinds.
fn as_worker<R>(work: impl FnOnce() -> R) -> R {
    struct Pool;
    impl Drop for Pool {
        fn drop(&mut self) {
            MACHINES.with_borrow_mut(|pool| *pool = None);
        }
    }
    MACHINES.with_borrow_mut(|pool| *pool = Some(Vec::new()));
    let _pool = Pool;
    work()
}

/// `N` machines of one configuration that a cell runs its engines on
/// ([`lease`]).
pub(crate) struct Lease<const N: usize>(Option<[Machine; N]>);

/// Leases `N` machines of `config`, to be run only through
/// [`Engine::on`](silo_sim::Engine::on), whose reset makes each the idle
/// machine [`Machine::new`] builds from `config`. Inside a worker they
/// come from its pool with `config` set (the reset keeps the cache slabs
/// of every geometry `config` shares) and go back to it when the lease
/// drops; a pool short of machines, or a call outside any worker (a cell
/// executed directly), builds them.
pub(crate) fn lease<const N: usize>(config: &SimConfig) -> Lease<N> {
    Lease(Some(std::array::from_fn(|_| {
        match MACHINES.with_borrow_mut(|pool| pool.as_mut().and_then(Vec::pop)) {
            Some(mut machine) => {
                machine.config.clone_from(config);
                machine
            }
            None => Machine::new(config),
        }
    })))
}

impl<const N: usize> std::ops::Deref for Lease<N> {
    type Target = [Machine; N];

    fn deref(&self) -> &[Machine; N] {
        self.0.as_ref().expect("held until dropped")
    }
}

impl<const N: usize> std::ops::DerefMut for Lease<N> {
    fn deref_mut(&mut self) -> &mut [Machine; N] {
        self.0.as_mut().expect("held until dropped")
    }
}

impl<const N: usize> Drop for Lease<N> {
    fn drop(&mut self) {
        let machines = self.0.take().expect("dropped once");
        MACHINES.with_borrow_mut(|pool| {
            if let Some(pool) = pool {
                pool.extend(machines);
            }
        });
    }
}

/// The execution units of `cells`, each a list of cell indices: the cells
/// of one [`CellSpec::unit_key`] together, every other cell alone, in the
/// order of each unit's first cell.
fn units(cells: &[CellSpec]) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut by_key: HashMap<u64, usize> = HashMap::new();
    for (i, cell) in cells.iter().enumerate() {
        match cell.unit_key() {
            Some(key) => match by_key.entry(key) {
                Entry::Occupied(u) => units[*u.get()].push(i),
                Entry::Vacant(slot) => {
                    slot.insert(units.len());
                    units.push(vec![i]);
                }
            },
            None => units.push(vec![i]),
        }
    }
    units
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
    fn a_crash_targets_fault_cells_form_one_unit_in_first_appearance_order() {
        use crate::cellspec::FaultSpec;
        let sweep = |scheme: &str, fault, seed| {
            let work = CellWork::CrashSweep {
                scheme: scheme.into(),
                workload: "Hash".into(),
                txs_per_core: 8,
                fault,
                points: 4,
                point: None,
            };
            CellSpec::new(CellLabel::default(), seed, work)
        };
        let cells = vec![
            sweep("Silo", FaultSpec::OpBoundary, 42),
            counting_cells(1).remove(0),
            sweep("Base", FaultSpec::OpBoundary, 42),
            sweep("Silo", FaultSpec::TornLine(64), 42),
            sweep("Silo", FaultSpec::Battery(64), 43),
            counting_cells(1).remove(0),
            sweep("Silo", FaultSpec::Battery(64), 42),
        ];
        assert_eq!(
            units(&cells),
            [vec![0, 3, 6], vec![1], vec![2], vec![4], vec![5]]
        );
    }

    /// An outcome's statistics and values, bit for bit.
    fn exact(outcome: &CellOutcome) -> (Option<String>, Vec<(String, u64)>) {
        let stats = outcome.stats.as_ref().map(|s| s.to_json().to_string());
        let values = outcome.values.iter();
        (
            stats,
            values.map(|(k, v)| (k.clone(), v.to_bits())).collect(),
        )
    }

    #[test]
    fn pooled_machines_run_cells_as_new_ones_do() {
        use crate::cellspec::{ConfigDelta, FaultSpec, RunSpec, WorkloadSpec};
        let delta = |scheme: &str, workload: &str, cores, config| {
            let mut run = RunSpec::table_ii(scheme, WorkloadSpec::plain(workload), cores, 6);
            run.config = config;
            CellWork::Delta(run)
        };
        let tiny = ConfigDelta {
            tiny_hierarchy: true,
            num_mcs: Some(2),
            ..ConfigDelta::default()
        };
        // One worker runs them all, so every cell after the first leases
        // a machine another geometry or kind of cell used last; the sweep
        // leases two at once.
        let works = vec![
            delta("Silo", "Hash", 8, ConfigDelta::default()),
            delta("Base", "Array", 1, tiny),
            CellWork::CrashSweep {
                scheme: "LAD".into(),
                workload: "Hash".into(),
                txs_per_core: 4,
                fault: FaultSpec::Battery(64),
                points: 2,
                point: None,
            },
            CellWork::LargeTx {
                workload: "Queue".into(),
                mult: 2,
                txs: 40,
            },
            CellWork::Fuzz {
                scheme: "Silo".into(),
                workload: "Hash".into(),
                txs_per_core: 4,
                execs: 3,
                fault: None,
                crash_event: None,
                recovery_crash: None,
                arrival: None,
            },
            delta("LAD", "TPCC", 2, ConfigDelta::default()),
        ];
        let cells: Vec<CellSpec> = works
            .into_iter()
            .map(|work| CellSpec::new(CellLabel::default(), 7, work))
            .collect();
        let pooled = run_cells(cells.clone(), 1);
        for (cell, (_, outcome)) in cells.iter().zip(&pooled) {
            // Outside any worker a cell builds machines of its own.
            assert_eq!(exact(outcome), exact(&cell.execute()), "{:?}", cell.work);
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
