//! Run-scoped cache of generated workload traces.
//!
//! The experiment matrix sweeps the *same* trace across many schemes,
//! core-count columns, crash points, and parameter settings — the fig11
//! grid alone resolves each `(workload, cores, txs, seed)` trace once per
//! scheme, and `evaluate crashfuzz` once per crash point. The
//! [`TraceCache`] makes that sharing structural: every resolution goes
//! through [`TraceCache::get_or_build`], which generates a given key
//! **exactly once per run** (even under concurrent `--jobs` workers)
//! and hands out pointer-bump [`TraceSet`] clones afterwards.
//!
//! A trace lives only as long as the cells that read it. Before a run
//! (a [`TraceScope`]: one `evaluate` invocation, or one [`run_cells`]
//! call) starts a cell, it counts the cells that name each trace family,
//! the (workload, cores, seed) a cell's work names (`TraceFamily`,
//! `TraceCache::open_run`). Every trace a cell fetches belongs to its
//! cell's family, and the cache drops a trace when the last cell of every
//! family that fetched it has finished, executed or served from the
//! result store, or when the run ends or unwinds. Consumers keep
//! their clones while they run. A fetch outside any run (tests,
//! perfbench's tracer) stays resident for the process.
//!
//! "Exactly once per run" holds for a key that the cells of one family
//! read; a key that two families read would be generated again when every
//! cell of the first had finished before the second fetched it. Every
//! recipe fetches only traces of its own cell's workload, cores and seed,
//! so no key has two families: fig14 reads its batch-sizing probe from
//! its unit's 8-core trace, not from a one-core trace that a one-core
//! grid cell reads too. `evaluate all` generates its 122 keys at `--txs
//! 40` and its 119 at `--txs 50` once each; a `[trace-cache]` line whose
//! `G` exceeded its `K` would show a key built twice.
//!
//! Keys are [`TraceKey`]: the workload's [`trace_ident`]
//! (every generation-affecting parameter, not just the display name) plus
//! `(cores, txs_per_core, seed)`. Invalidation is by key — a different
//! parameter is a different key, so stale entries cannot be observed; a
//! changed *generator* changes results only across processes, where no
//! cache survives anyway.
//!
//! [`trace_ident`]: silo_workloads::Workload::trace_ident
//! [`run_cells`]: crate::run_cells
//! [`TraceScope`]: crate::TraceScope

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use silo_sim::TraceSet;
use silo_workloads::Workload;

/// Full identity of a generated trace. Equal keys generate identical
/// streams (generation is deterministic), so one cached artifact serves
/// all equal-key requests.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// [`Workload::trace_ident`] of the generating workload.
    pub ident: String,
    /// Core count the trace was generated for.
    pub cores: usize,
    /// Measured transactions per core.
    pub txs_per_core: usize,
    /// Generation seed.
    pub seed: u64,
}

/// The traces one cell reads: the workload its work names (compared
/// case-insensitively, as [`silo_workloads::workload_by_name`] resolves
/// it), its core count and its seed. Every trace the cell fetches belongs
/// to it, whatever that trace's own budget: a delta cell's N and 2N
/// traces, a fig14 unit's 8-core trace, the crash shrinker's halved
/// traces.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct TraceFamily {
    workload: String,
    cores: usize,
    seed: u64,
}

impl TraceFamily {
    /// The family of `workload` on `cores` cores under `seed`.
    pub(crate) fn new(workload: &str, cores: usize, seed: u64) -> Self {
        TraceFamily {
            workload: workload.to_ascii_lowercase(),
            cores,
            seed,
        }
    }
}

/// Counter snapshot for diagnostics, CI smokes, and the exactly-once
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Times a generator actually ran.
    pub generations: u64,
    /// Requests served from an already-built trace.
    pub hits: u64,
    /// Keys resolved: the distinct keys each run fetched, summed over
    /// runs, plus the keys fetched outside any run. A run that generated
    /// one of its keys twice would leave `generations` above it.
    pub unique_keys: u64,
    /// The most traces resident at once.
    pub peak_resident: u64,
    /// Traces resident now.
    pub resident: u64,
}

/// Keyed, thread-safe, process-wide store of immutable [`TraceSet`]s.
///
/// Each key owns one `OnceLock` slot. The state lock is held only to
/// resolve a key to its slot and to count cells, and generation runs in
/// the slot's `get_or_init`, so concurrent requests for *different* keys
/// generate in parallel while concurrent requests for the *same* key
/// block until the single generation finishes. A generator that panics
/// leaves its slot empty for the next request.
#[derive(Default)]
pub struct TraceCache {
    hits: AtomicU64,
    generations: AtomicU64,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    slots: HashMap<TraceKey, Slot>,
    /// The runs in progress, by id.
    runs: HashMap<u64, RunState>,
    /// [`TraceCacheStats::unique_keys`].
    resolved: u64,
    /// [`TraceCacheStats::peak_resident`].
    peak: usize,
}

/// One key's trace and what keeps it resident.
#[derive(Default)]
struct Slot {
    trace: Arc<OnceLock<TraceSet>>,
    /// Whether the trace starts with its key's trace at half the budget
    /// ([`TraceCache::get_or_build_pair`]), once a pair asked.
    extends_half: Arc<OnceLock<bool>>,
    /// The families whose cells fetched it; it goes when the last ends.
    families: Vec<TraceFamily>,
    /// Fetched outside any run: resident for the process.
    pinned: bool,
}

#[derive(Default)]
struct RunState {
    /// The run's cells of each family that have yet to finish.
    pending: HashMap<TraceFamily, usize>,
    /// The distinct keys the run's cells fetched.
    keys: HashSet<TraceKey>,
}

impl State {
    /// Drops from each slot the families that no run still has a cell of
    /// to finish, and every slot left with none unless it is pinned.
    fn sweep(&mut self) {
        let State { slots, runs, .. } = self;
        let live = |f: &TraceFamily| runs.values().any(|r| r.pending.contains_key(f));
        slots.retain(|_, slot| {
            slot.families.retain(live);
            slot.pinned || !slot.families.is_empty()
        });
    }
}

/// Run ids, unique across caches, so a cell's context never matches a
/// run of another cache.
static NEXT_RUN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The run id and family of the cell this thread is running. An id
    /// whose run has ended matches no run, so a cell that panics leaves
    /// nothing stale behind.
    static CELL: RefCell<Option<(u64, TraceFamily)>> = const { RefCell::new(None) };
}

impl TraceCache {
    /// A fresh, empty cache (tests; production code uses
    /// [`TraceCache::global`]).
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The process-wide instance every bench-layer resolution goes
    /// through.
    pub fn global() -> &'static TraceCache {
        static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
        GLOBAL.get_or_init(TraceCache::new)
    }

    /// The state; the lock guards bookkeeping that cannot panic halfway,
    /// so a poisoned lock still holds whole state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolves `(workload, cores, txs_per_core, seed)` to its trace,
    /// generating it if (and only if) no resident slot holds the key. The
    /// returned [`TraceSet`] is a pointer-bump clone of the cached
    /// artifact. Inside a run's cell the trace joins the cell's family;
    /// outside any run it stays resident for the process.
    pub fn get_or_build(
        &self,
        workload: &dyn Workload,
        cores: usize,
        txs_per_core: usize,
        seed: u64,
    ) -> TraceSet {
        self.fetch(workload, cores, txs_per_core, seed).0
    }

    /// The trace pair of a steady-state delta: the traces of
    /// `(workload, cores, txs_per_core, seed)` and of twice that budget,
    /// each resolved as [`TraceCache::get_or_build`] resolves it, and
    /// whether the longer starts with the shorter
    /// ([`TraceSet::starts_with`]). The answer stays with the longer
    /// trace, so the deep compare runs once per pair, not once per cell
    /// that asks.
    pub fn get_or_build_pair(
        &self,
        workload: &dyn Workload,
        cores: usize,
        txs_per_core: usize,
        seed: u64,
    ) -> (TraceSet, TraceSet, bool) {
        let short = self.get_or_build(workload, cores, txs_per_core, seed);
        let (long, extends_half) = self.fetch(workload, cores, txs_per_core * 2, seed);
        let extends = *extends_half.get_or_init(|| {
            #[cfg(test)]
            tests::PAIR_COMPARES.with(|n| n.set(n.get() + 1));
            long.starts_with(&short)
        });
        (short, long, extends)
    }

    /// [`TraceCache::get_or_build`], plus the slot's memo of whether the
    /// trace extends its half-budget trace.
    fn fetch(
        &self,
        workload: &dyn Workload,
        cores: usize,
        txs_per_core: usize,
        seed: u64,
    ) -> (TraceSet, Arc<OnceLock<bool>>) {
        let key = TraceKey {
            ident: workload.trace_ident(),
            cores,
            txs_per_core,
            seed,
        };
        let cell = CELL.with(|c| c.borrow().clone());
        let (slot, extends_half) = {
            let mut state = self.lock();
            let State {
                slots,
                runs,
                resolved,
                peak,
            } = &mut *state;
            let slot = slots.entry(key.clone()).or_default();
            match cell.and_then(|(id, family)| Some((runs.get_mut(&id)?, family))) {
                Some((run, family)) => {
                    if !slot.families.contains(&family) {
                        slot.families.push(family);
                    }
                    if run.keys.insert(key) {
                        *resolved += 1;
                    }
                }
                None if !slot.pinned => {
                    slot.pinned = true;
                    *resolved += 1;
                }
                None => {}
            }
            let trace = (Arc::clone(&slot.trace), Arc::clone(&slot.extends_half));
            *peak = (*peak).max(slots.len());
            trace
        };
        let mut generated = false;
        let trace = slot.get_or_init(|| {
            generated = true;
            self.generations.fetch_add(1, Ordering::Relaxed);
            workload.build_trace(cores, txs_per_core, seed)
        });
        if !generated {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (trace.clone(), extends_half)
    }

    /// Opens a run whose cells name `families`, one entry per cell: each
    /// family's traces stay resident until the run's last cell of it
    /// finishes, or the run ends. Counting generates nothing.
    pub(crate) fn open_run(&self, families: impl IntoIterator<Item = TraceFamily>) -> TraceRun<'_> {
        let mut run = RunState::default();
        for family in families {
            *run.pending.entry(family).or_default() += 1;
        }
        let id = NEXT_RUN.fetch_add(1, Ordering::Relaxed);
        self.lock().runs.insert(id, run);
        TraceRun { cache: self, id }
    }

    /// Aggregate counters over the whole cache.
    pub fn stats(&self) -> TraceCacheStats {
        let state = self.lock();
        TraceCacheStats {
            generations: self.generations.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            unique_keys: state.resolved,
            peak_resident: state.peak as u64,
            resident: state.slots.len() as u64,
        }
    }
}

/// A run in progress on a [`TraceCache`], from [`TraceCache::open_run`].
/// Dropping it, when the run returns or unwinds, releases the families of
/// the cells that never finished.
pub(crate) struct TraceRun<'c> {
    cache: &'c TraceCache,
    id: u64,
}

impl TraceRun<'_> {
    /// Runs `cells` of the run's counted cells of `family` in one call,
    /// `unit`, on this thread: the traces it fetches join `family`, which
    /// counts down by `cells` when `unit` returns and drops the traces no
    /// other live family holds at zero.
    pub(crate) fn cells<R>(
        &self,
        family: TraceFamily,
        cells: usize,
        unit: impl FnOnce() -> R,
    ) -> R {
        CELL.with(|c| *c.borrow_mut() = Some((self.id, family.clone())));
        let out = unit();
        CELL.with(|c| *c.borrow_mut() = None);
        let mut state = self.cache.lock();
        let pending = &mut state.runs.get_mut(&self.id).expect("open run").pending;
        let left = pending.get_mut(&family).expect("a counted family");
        *left -= cells;
        if *left == 0 {
            pending.remove(&family);
            state.sweep();
        }
        out
    }
}

impl Drop for TraceRun<'_> {
    fn drop(&mut self) {
        // Only this drop removes the run; it must not panic while a
        // failed cell unwinds.
        let mut state = self.cache.lock();
        state.runs.remove(&self.id);
        state.sweep();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_workloads::BankWorkload;
    use std::cell::Cell;

    thread_local! {
        /// Deep trace-pair compares this thread ran.
        pub(super) static PAIR_COMPARES: Cell<u64> = const { Cell::new(0) };
    }

    #[test]
    fn a_pair_compares_its_traces_once_however_many_ask() {
        use crate::cellspec::WorkloadSpec;
        use silo_workloads::ArrivalProcess;
        let cache = TraceCache::new();
        let bank = BankWorkload::default();
        let diurnal = WorkloadSpec::open(
            "Hash",
            ArrivalProcess::Diurnal {
                start_gap: 2000,
                end_gap: 100,
            },
        )
        .instantiate();
        // Bank's 2N trace extends its N trace; a diurnal ramp's arrivals
        // do not, and its pair says so, to take the from-t=0 path.
        for (w, extends) in [(&bank as &dyn Workload, true), (&*diurnal, false)] {
            let before = PAIR_COMPARES.with(Cell::get);
            for _ in 0..5 {
                let (short, long, answer) = cache.get_or_build_pair(w, 2, 6, 42);
                assert_eq!(answer, extends, "{}", w.trace_ident());
                assert_eq!(long.starts_with(&short), extends);
                assert_eq!(short, cache.get_or_build(w, 2, 6, 42));
                assert_eq!(long, cache.get_or_build(w, 2, 12, 42));
            }
            assert_eq!(PAIR_COMPARES.with(Cell::get) - before, 1);
        }
    }

    #[test]
    fn same_key_generates_once_and_hits_after() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let a = cache.get_or_build(&w, 1, 4, 99);
        let b = cache.get_or_build(&w, 1, 4, 99);
        assert!(Arc::ptr_eq(&a.streams()[0], &b.streams()[0]));
        let stats = cache.stats();
        assert_eq!(stats.generations, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.unique_keys, 1);
    }

    #[test]
    fn different_params_are_different_keys() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let _ = cache.get_or_build(&w, 1, 4, 99);
        let _ = cache.get_or_build(&w, 1, 8, 99);
        let _ = cache.get_or_build(&w, 2, 4, 99);
        let _ = cache.get_or_build(&w, 1, 4, 100);
        assert_eq!(cache.stats().generations, 4);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn equal_keys_give_equal_traces_and_seeds_differ() {
        let w = BankWorkload::default();
        let a = TraceCache::new().get_or_build(&w, 1, 4, 42);
        let b = TraceCache::new().get_or_build(&w, 1, 4, 42);
        assert!(!Arc::ptr_eq(&a.streams()[0], &b.streams()[0]));
        assert_eq!(a, b);
        let c = TraceCache::new().get_or_build(&w, 1, 4, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn concurrent_same_key_requests_generate_exactly_once() {
        let cache = TraceCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let w = BankWorkload::default();
                    let _ = cache.get_or_build(&w, 2, 6, 7_777);
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.unique_keys, 1);
        assert_eq!(stats.generations, 1, "8 racing workers, one generation");
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn a_panicking_generator_leaves_its_slot_empty_for_the_next_request() {
        /// Panics on its first generation, then builds the Bank trace.
        struct FlakyOnce(std::sync::atomic::AtomicBool);
        impl Workload for FlakyOnce {
            fn name(&self) -> &'static str {
                "Flaky"
            }
            fn trace_ident(&self) -> String {
                "Flaky".into()
            }
            fn raw_streams(
                &self,
                cores: usize,
                txs_per_core: usize,
                seed: u64,
            ) -> Vec<Vec<silo_sim::Transaction>> {
                assert!(
                    self.0.swap(true, Ordering::Relaxed),
                    "first generation fails"
                );
                BankWorkload::default().raw_streams(cores, txs_per_core, seed)
            }
        }
        let cache = TraceCache::new();
        let w = FlakyOnce(Default::default());
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&w, 1, 4, 5)
        }));
        assert!(first.is_err());
        let trace = cache.get_or_build(&w, 1, 4, 5);
        assert_eq!(trace, BankWorkload::default().build_trace(1, 4, 5));
        let stats = cache.stats();
        assert_eq!(
            (stats.generations, stats.hits, stats.unique_keys),
            (2, 0, 1)
        );
    }

    /// `(generations, hits, unique keys, peak resident, resident)`.
    fn counts(cache: &TraceCache) -> (u64, u64, u64, u64, u64) {
        let s = cache.stats();
        (
            s.generations,
            s.hits,
            s.unique_keys,
            s.peak_resident,
            s.resident,
        )
    }

    #[test]
    fn a_unit_counts_down_every_cell_it_ran() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let family = TraceFamily::new("Bank", 1, 1);
        let run = cache.open_run([family.clone(), family.clone(), family.clone()]);
        run.cells(family.clone(), 2, || cache.get_or_build(&w, 1, 4, 1));
        assert_eq!(cache.stats().resident, 1, "a cell of the family is left");
        run.cells(family, 1, || cache.get_or_build(&w, 1, 4, 1));
        assert_eq!(
            cache.stats().resident,
            0,
            "the unit and the last cell ran all three"
        );
        assert_eq!(counts(&cache), (1, 1, 1, 1, 0));
    }

    #[test]
    fn a_familys_traces_go_when_its_last_counted_cell_finishes() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let (one, two) = (
            TraceFamily::new("Bank", 1, 1),
            TraceFamily::new("Bank", 2, 1),
        );
        let run = cache.open_run([one.clone(), two.clone(), one.clone()]);
        run.cells(one.clone(), 1, || {
            cache.get_or_build(&w, 1, 4, 1);
            cache.get_or_build(&w, 1, 8, 1);
        });
        assert_eq!(cache.stats().resident, 2, "a cell of the family is left");
        // Names compare case-insensitively: this is the family's last cell.
        run.cells(TraceFamily::new("BANK", 1, 1), 1, || {
            cache.get_or_build(&w, 1, 8, 1)
        });
        assert_eq!(cache.stats().resident, 0);
        run.cells(two, 1, || cache.get_or_build(&w, 2, 4, 1));
        assert_eq!(counts(&cache), (3, 1, 3, 2, 0));
        drop(run);
        assert_eq!(counts(&cache), (3, 1, 3, 2, 0));
    }

    #[test]
    fn a_clone_a_consumer_holds_outlives_its_slot() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let family = TraceFamily::new("Bank", 1, 3);
        let run = cache.open_run([family.clone()]);
        let held = run.cells(family, 1, || cache.get_or_build(&w, 1, 6, 3));
        assert_eq!(cache.stats().resident, 0);
        drop(run);
        assert_eq!(held, w.build_trace(1, 6, 3));
    }

    #[test]
    fn racing_workers_of_one_family_generate_once() {
        let cache = TraceCache::new();
        let family = TraceFamily::new("Bank", 2, 7_777);
        let run = cache.open_run(vec![family.clone(); 8]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    run.cells(family.clone(), 1, || {
                        cache.get_or_build(&BankWorkload::default(), 2, 6, 7_777)
                    })
                });
            }
        });
        assert_eq!(
            counts(&cache),
            (1, 7, 1, 1, 0),
            "8 racing cells, one generation"
        );
    }

    #[test]
    fn a_key_two_families_share_stays_until_both_end() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let (probe, grid) = (
            TraceFamily::new("Bank", 8, 11),
            TraceFamily::new("Bank", 1, 11),
        );
        let run = cache.open_run([probe.clone(), grid.clone()]);
        let (fetched, ended) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                run.cells(probe, 1, || {
                    cache.get_or_build(&w, 1, 4, 11);
                    fetched.wait();
                    ended.wait();
                })
            });
            run.cells(grid, 1, || {
                fetched.wait();
                cache.get_or_build(&w, 1, 4, 11)
            });
            assert_eq!(cache.stats().resident, 1, "the other family still reads it");
            ended.wait();
        });
        assert_eq!(counts(&cache), (1, 1, 1, 1, 0));
    }

    #[test]
    fn a_run_that_panics_releases_its_counts() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let family = TraceFamily::new("Bank", 1, 5);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let run = cache.open_run(vec![family.clone(); 3]);
            run.cells(family.clone(), 1, || cache.get_or_build(&w, 1, 4, 5));
            run.cells(family.clone(), 1, || {
                cache.get_or_build(&w, 1, 4, 5);
                panic!("the cell fails")
            })
        }));
        assert!(failed.is_err());
        assert_eq!(counts(&cache), (1, 1, 1, 1, 0));
        // The failed cell left no context behind: this fetch is outside
        // any run, so it stays.
        cache.get_or_build(&w, 1, 4, 5);
        assert_eq!(counts(&cache), (2, 1, 2, 1, 1));
    }

    #[test]
    fn a_fetch_outside_any_run_stays_resident() {
        let cache = TraceCache::new();
        let w = BankWorkload::default();
        let pinned = cache.get_or_build(&w, 1, 4, 9);
        let family = TraceFamily::new("Bank", 1, 9);
        let run = cache.open_run([family.clone()]);
        let in_run = run.cells(family, 1, || cache.get_or_build(&w, 1, 4, 9));
        drop(run);
        assert!(Arc::ptr_eq(&pinned.streams()[0], &in_run.streams()[0]));
        assert_eq!(counts(&cache), (1, 1, 2, 1, 1));
    }
}
