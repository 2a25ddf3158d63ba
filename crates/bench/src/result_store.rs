//! The persistent memoized result store behind incremental `evaluate`.
//!
//! Generalizes the in-process [`TraceCache`](crate::TraceCache) idea to
//! *finished cell outcomes*, persisted across processes: every cell is
//! keyed by its code fingerprint and spec hash, and its outcome is written
//! to `target/result-store/<code-fp>/<spec>.json` after first execution. A
//! warm `evaluate` run re-renders every report byte-identically from one
//! file read per cell: it generates no trace and simulates nothing.
//!
//! The store is **two-tier**: an in-memory map of decoded
//! [`CellOutcome`]s sits in front of the on-disk entries, so a cell that
//! one process needs twice (fig11 and fig12 share their grid, racing
//! workers share a key) is decoded or executed once. The map is
//! unbounded: one `evaluate` process never runs enough distinct cells for
//! its size to matter.
//!
//! Invalidation is conservative and needs no dependency tracking:
//!
//! * **code fingerprint** — a build-script hash of every workspace source
//!   file (`crates/bench/build.rs`); entries live under a per-fingerprint
//!   directory, so *any* source change makes the whole store cold (and
//!   `evaluate store-gc` deletes the orphaned fingerprint directories);
//! * **spec hash** — every execution-relevant parameter of the cell.
//!
//! The two name every trace a cell consumes: generators are workspace
//! sources and read nothing but the generation parameters the spec hash
//! covers, so hashing the traces themselves would add nothing to the key.
//!
//! Corrupt, truncated, or otherwise unparseable entries are treated as
//! misses and recomputed (counted as `invalidated`). Writes go through a
//! unique temp file plus an atomic rename, so a crashed or racing process
//! can never leave a half-written entry that later parses.
//!
//! The memory tier gives each spec hash one slot and holds the map lock
//! only to resolve it. A request locks its cells' slots, fills the empty
//! ones and only then lets go, so a spec is read or executed **exactly
//! once** per process even when racing workers request it, while distinct
//! cells execute concurrently. A cell that panics leaves its slot empty,
//! so a caller that catches the panic (a test's `catch_unwind`) can
//! request it again.
//!
//! The runner requests an execution unit's cells together
//! (`CellSpec::unit_key`: the fault cells of one crash target, or the
//! multiplier cells of one Fig 14 workload). Each cell
//! is served and counted as it would be alone, from memory, then from its
//! own disk entry; the cells neither holds execute together in one
//! `CellSpec::execute_unit` call, and each persists to its own entry.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use silo_sim::SimStats;
use silo_types::JsonValue;

use crate::cellspec::CellSpec;
use crate::exp::CellOutcome;

/// On-disk entry format version; bumped on any layout change so old
/// entries read as corrupt (and recompute) instead of misparsing.
const STORE_VERSION: u64 = 3;

/// Process-wide persistent store of finished cell outcomes.
pub struct ResultStore {
    /// Serving and recording toggle. **Starts disabled**: unit tests and
    /// library consumers never touch the filesystem unless the CLI (or a
    /// test) opts in.
    enabled: AtomicBool,
    dir: PathBuf,
    fingerprint: String,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    memory_hits: AtomicU64,
    /// The memory tier: one slot per spec hash, holding the outcome this
    /// process decoded or executed for it.
    memory: Mutex<HashMap<u64, Arc<Mutex<Option<CellOutcome>>>>>,
}

/// Store effectiveness counters (the `[result-store]` stderr line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResultStoreStats {
    /// Cells served from memory or disk without executing.
    pub hits: u64,
    /// Cells executed because no entry existed.
    pub misses: u64,
    /// Cells executed because their entry was corrupt or unreadable.
    pub invalidated: u64,
    /// The subset of `hits` served from the in-memory tier (no disk I/O).
    pub memory_hits: u64,
}

/// Where a [`ResultStore::get_or_run_traced`] outcome came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Served {
    /// The in-memory tier: microseconds, no disk touched.
    Memory,
    /// Decoded from an on-disk entry: no simulation ran.
    Disk,
    /// Executed fresh (miss, invalidated entry, disabled store, or an
    /// uncacheable spec).
    Executed,
}

impl Served {
    /// Stable lower-case name (`"memory"`, `"disk"`, `"executed"`).
    pub fn name(&self) -> &'static str {
        match self {
            Served::Memory => "memory",
            Served::Disk => "disk",
            Served::Executed => "executed",
        }
    }
}

impl ResultStore {
    /// The process-wide store: `target/result-store` (or the
    /// `SILO_RESULT_STORE` directory override, read once at first use),
    /// keyed by this build's source fingerprint. Disabled until the CLI
    /// enables it.
    pub fn global() -> &'static ResultStore {
        static GLOBAL: OnceLock<ResultStore> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let dir = std::env::var_os("SILO_RESULT_STORE")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("target/result-store"));
            ResultStore::new(dir, env!("SILO_CODE_FINGERPRINT"))
        })
    }

    /// A store rooted at `dir` for the given code fingerprint (tests use
    /// private instances; the CLI uses [`ResultStore::global`]).
    pub fn new(dir: PathBuf, fingerprint: &str) -> ResultStore {
        ResultStore {
            enabled: AtomicBool::new(false),
            dir,
            fingerprint: fingerprint.to_string(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            memory_hits: AtomicU64::new(0),
            memory: Mutex::new(HashMap::new()),
        }
    }

    /// Turns serving and recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether the store serves and records outcomes.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Effectiveness counters so far.
    pub fn stats(&self) -> ResultStoreStats {
        ResultStoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
        }
    }

    /// The outcome of `spec`: served from memory, then disk, then computed
    /// by [`CellSpec::execute`] (and persisted). See
    /// [`ResultStore::get_or_run_traced`] for the provenance-reporting
    /// variant.
    pub fn get_or_run(&self, spec: &CellSpec) -> CellOutcome {
        self.get_or_run_traced(spec).0
    }

    /// [`ResultStore::get_or_run`] plus where the outcome came from.
    /// Disabled, it executes unconditionally and touches nothing.
    /// Uncacheable specs ([`CellSpec::cacheable`] — the corpus-mutating
    /// `fuzz` cells) also execute unconditionally: replaying a stored
    /// outcome would skip the corpus side effects the cell exists to
    /// produce.
    ///
    /// The spec's memory slot is filled once, so concurrent requests for
    /// the same spec read or run it exactly once per process; the others
    /// wait for it and are served from memory.
    pub fn get_or_run_traced(&self, spec: &CellSpec) -> (CellOutcome, Served) {
        let mut alone = self.get_or_run_unit(&[spec]);
        alone.pop().expect("one outcome per cell")
    }

    /// The outcomes of one execution unit's cells (equal
    /// [`CellSpec::unit_key`]s), in order, each served and counted as
    /// [`ResultStore::get_or_run_traced`] serves it alone. The cells that
    /// neither memory nor disk holds execute together in one
    /// [`CellSpec::execute_unit`] call.
    pub(crate) fn get_or_run_unit(&self, unit: &[&CellSpec]) -> Vec<(CellOutcome, Served)> {
        if !self.enabled() || !unit.iter().all(|spec| spec.cacheable()) {
            let outcomes = CellSpec::execute_unit(unit);
            return outcomes
                .into_iter()
                .map(|o| (o, Served::Executed))
                .collect();
        }
        let keys: Vec<u64> = unit.iter().map(|spec| spec.spec_hash()).collect();
        // The unit's distinct cells in spec-hash order: racing requests
        // whose units share cells lock their common slots in one order, so
        // neither holds a slot the other waits on first.
        let mut cells: Vec<(u64, &CellSpec)> =
            keys.iter().copied().zip(unit.iter().copied()).collect();
        cells.sort_by_key(|&(key, _)| key);
        cells.dedup_by_key(|&mut (key, _)| key);
        let slots: Vec<Arc<Mutex<Option<CellOutcome>>>> = {
            let mut memory = self.memory.lock().expect("result store map poisoned");
            let slot = |&(key, _): &(u64, &CellSpec)| Arc::clone(memory.entry(key).or_default());
            cells.iter().map(slot).collect()
        };
        // A panic leaves the slot it interrupted empty, never half made.
        let mut held: Vec<MutexGuard<'_, Option<CellOutcome>>> = slots
            .iter()
            .map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let mut served = vec![Served::Memory; cells.len()];
        let mut missing = Vec::new();
        for (d, &(key, spec)) in cells.iter().enumerate() {
            if held[d].is_none() {
                match self.read(spec, key) {
                    Some(outcome) => (*held[d], served[d]) = (Some(outcome), Served::Disk),
                    None => missing.push(d),
                }
            }
        }
        let run: Vec<&CellSpec> = missing.iter().map(|&d| cells[d].1).collect();
        for (&d, outcome) in missing.iter().zip(CellSpec::execute_unit(&run)) {
            let key = cells[d].0;
            // Persistence is best-effort: a read-only disk degrades the
            // store to in-memory memoization, it never fails the
            // experiment.
            let _ = self.persist(&self.entry_path(key), encode_entry(&outcome, key));
            (*held[d], served[d]) = (Some(outcome), Served::Executed);
        }
        // A cell is served where its slot's outcome came from; a repeat
        // of it in the unit, like a racing request, from memory.
        keys.iter()
            .map(|key| {
                let d = cells.binary_search_by_key(key, |&(key, _)| key);
                let d = d.expect("a cell of the unit");
                let from = std::mem::replace(&mut served[d], Served::Memory);
                if from == Served::Memory {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.memory_hits.fetch_add(1, Ordering::Relaxed);
                }
                (held[d].clone().expect("every slot filled"), from)
            })
            .collect()
    }

    /// The outcome of `spec` from its disk entry, counted as a hit, or
    /// `None` when there is no usable entry, counted as a miss (no entry)
    /// or invalidated (an unreadable entry, or one that does not decode
    /// into what `spec` records).
    fn read(&self, spec: &CellSpec, key: u64) -> Option<CellOutcome> {
        let counter = match std::fs::read_to_string(self.entry_path(key)) {
            Ok(text) => match decode_entry(&text, key, spec.records_stats()) {
                Some(outcome) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(outcome);
                }
                // Corrupt/truncated/stale-format entry: recompute (and
                // overwrite it with a good one).
                None => &self.invalidated,
            },
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => &self.misses,
            // Unreadable entry (permissions, I/O error): same as corrupt.
            Err(_) => &self.invalidated,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// `<dir>/<code fingerprint>/<spec hash>.json`.
    fn entry_path(&self, key: u64) -> PathBuf {
        self.dir
            .join(&self.fingerprint)
            .join(format!("{key:016x}.json"))
    }

    /// Atomic write: unique temp file in the same directory, then rename.
    /// Racing processes write identical bytes, so last-rename-wins is
    /// harmless; a crash mid-write leaves only a `.tmp.*` file that no
    /// reader ever opens.
    fn persist(&self, path: &Path, text: String) -> std::io::Result<()> {
        let dir = path.parent().expect("entry path has a parent");
        std::fs::create_dir_all(dir)?;
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }

    /// Deletes every per-fingerprint subdirectory whose fingerprint is not
    /// this build's (`evaluate store-gc`). Only directories named like a
    /// fingerprint (16 lowercase hex digits) are touched, so pointing
    /// `SILO_RESULT_STORE` at a shared directory never deletes its other
    /// contents. Returns `(directories removed, entries removed)`, where
    /// an entry is a `*.json` file.
    pub fn gc(&self) -> std::io::Result<(usize, usize)> {
        let mut dirs = 0;
        let mut files = 0;
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok((0, 0)),
            Err(err) => return Err(err),
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !path.is_dir() || !is_fingerprint(&name) || name == self.fingerprint {
                continue;
            }
            files += std::fs::read_dir(&path)
                .map(|entries| {
                    entries
                        .flatten()
                        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                        .count()
                })
                .unwrap_or(0);
            std::fs::remove_dir_all(&path)?;
            dirs += 1;
        }
        Ok((dirs, files))
    }
}

/// Whether a directory name has the shape of a code fingerprint: the 16
/// lowercase hex digits `build.rs` stamps.
fn is_fingerprint(name: &str) -> bool {
    name.len() == 16
        && name
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Serializes an outcome for the store. Metric values are stored as the
/// `f64` **bit pattern** (a JSON integer): the report layer formats the
/// floats, so the store must reproduce them bit-exactly — including the
/// non-finite values (`endurance` stores `inf` lifetimes) that JSON text
/// cannot carry as numbers.
fn encode_entry(outcome: &CellOutcome, key: u64) -> String {
    let values = JsonValue::Arr(
        outcome
            .values
            .iter()
            .map(|(k, v)| JsonValue::Arr(vec![JsonValue::Str(k.clone()), v.to_bits().into()]))
            .collect(),
    );
    let mut obj = JsonValue::object()
        .field("v", STORE_VERSION)
        .field("spec", format!("{key:016x}"))
        .field("values", values);
    if let Some(stats) = &outcome.stats {
        obj = obj.field("stats", stats.to_json());
    }
    let mut text = obj.build().to_string();
    text.push('\n');
    text
}

/// Rebuilds an outcome from its stored form, for a cell that records
/// statistics iff `with_stats` ([`CellSpec::records_stats`]). `None` on
/// *any* anomaly — wrong version, an entry that names another spec hash (a
/// file copied or renamed into place), malformed values, statistics where
/// the cell records none or none where it does, unknown scheme, or a stats
/// counter that fails the strict [`SimStats::from_json`] parse — and the
/// caller recomputes.
fn decode_entry(text: &str, key: u64, with_stats: bool) -> Option<CellOutcome> {
    let v = JsonValue::parse(text).ok()?;
    if v.get("v").and_then(JsonValue::as_u64) != Some(STORE_VERSION)
        || v.get("spec").and_then(JsonValue::as_str) != Some(&format!("{key:016x}"))
    {
        return None;
    }
    let mut values = Vec::new();
    for pair in v.get("values")?.as_array()? {
        let [k, bits] = pair.as_array()? else {
            return None;
        };
        values.push((k.as_str()?.to_string(), f64::from_bits(bits.as_u64()?)));
    }
    let stats = match (v.get("stats"), with_stats) {
        (Some(s), true) => {
            // SimStats stores its scheme as `&'static str`: intern the
            // stored name against the known-scheme table first. An unknown
            // name means a stale or foreign entry — recompute.
            let name = s.get("scheme").and_then(JsonValue::as_str)?;
            let interned = crate::ALL_SCHEMES.iter().find(|s| **s == name)?;
            Some(SimStats::from_json(s, interned)?)
        }
        (None, false) => None,
        _ => return None,
    };
    Some(CellOutcome {
        stats,
        values,
        ..CellOutcome::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cellspec::{CellWork, FaultSpec, RunSpec, WorkloadSpec};
    use crate::exp::CellLabel;

    /// Fingerprint-shaped names (16 lowercase hex digits), so `gc` treats
    /// the test stores' directories exactly as it treats a build's.
    const FP_TEST: &str = "00000000000000aa";
    const FP_NEW: &str = "00000000000000bb";

    fn tmp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!(
            "silo-result-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::new(dir, FP_TEST)
    }

    fn small_spec(txs: usize) -> CellSpec {
        CellSpec::new(
            CellLabel::swc("Silo", "Bank", 1),
            42,
            CellWork::Delta(RunSpec::table_ii(
                "Silo",
                WorkloadSpec::plain("Bank"),
                1,
                txs,
            )),
        )
    }

    #[test]
    fn disabled_store_executes_and_touches_nothing() {
        let store = tmp_store("disabled");
        let spec = small_spec(3);
        let (out, served) = store.get_or_run_traced(&spec);
        assert!(out.stats.is_some());
        assert_eq!(served, Served::Executed);
        assert_eq!(
            store.stats(),
            ResultStoreStats {
                hits: 0,
                misses: 0,
                invalidated: 0,
                memory_hits: 0
            }
        );
        assert!(!store.dir.exists(), "disabled store must not write");
    }

    #[test]
    fn outcomes_round_trip_bit_exactly() {
        let stats = {
            let spec = small_spec(2);
            spec.execute().stats.clone().unwrap()
        };
        let outcome = CellOutcome {
            stats: Some(stats),
            values: vec![
                ("tp".into(), 0.1 + 0.2),
                ("life".into(), f64::INFINITY),
                ("nan".into(), f64::NAN),
                ("neg".into(), -0.0),
            ],
            ..CellOutcome::default()
        };
        let key = 0xdead_beef;
        let text = encode_entry(&outcome, key);
        let back = decode_entry(&text, key, true).expect("round trip");
        assert_eq!(back.values.len(), outcome.values.len());
        for ((ka, va), (kb, vb)) in outcome.values.iter().zip(&back.values) {
            assert_eq!(ka, kb);
            assert_eq!(va.to_bits(), vb.to_bits(), "{ka} must survive bit-exactly");
        }
        assert_eq!(
            back.stats.as_ref().unwrap().to_json().to_string(),
            outcome.stats.as_ref().unwrap().to_json().to_string()
        );
        // A key mismatch (same bytes under another name) is rejected.
        assert!(decode_entry(&text, key ^ 1, true).is_none());
    }

    #[test]
    fn warm_hits_skip_execution_and_survive_processes() {
        let store = tmp_store("warm");
        store.set_enabled(true);
        let spec = small_spec(4);
        let (cold, cold_served) = store.get_or_run_traced(&spec);
        assert_eq!(store.stats().misses, 1);
        assert_eq!(cold_served, Served::Executed);
        // Same process: served from the memory tier.
        let (warm, warm_served) = store.get_or_run_traced(&spec);
        assert_eq!(store.stats().hits, 1);
        assert_eq!(store.stats().memory_hits, 1);
        assert_eq!(warm_served, Served::Memory);
        // "New process": fresh store over the same directory reads disk.
        let fresh = ResultStore::new(store.dir.clone(), FP_TEST);
        fresh.set_enabled(true);
        let (disk, disk_served) = fresh.get_or_run_traced(&spec);
        assert_eq!(disk_served, Served::Disk);
        assert_eq!(
            fresh.stats(),
            ResultStoreStats {
                hits: 1,
                misses: 0,
                invalidated: 0,
                memory_hits: 0
            }
        );
        for out in [&warm, &disk] {
            assert_eq!(
                out.stats().to_json().to_string(),
                cold.stats().to_json().to_string()
            );
        }
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn corrupt_entries_recompute_instead_of_crashing() {
        let store = tmp_store("corrupt");
        store.set_enabled(true);
        let spec = small_spec(5);
        let good = store.get_or_run(&spec);
        let path = store.entry_path(spec.spec_hash());
        let full = std::fs::read_to_string(&path).expect("entry written");
        // The version-1 layout: this entry with a trace fingerprint beside
        // the spec hash.
        let spec_field = format!("\"spec\":\"{:016x}\",", spec.spec_hash());
        let v1 = full.replacen(
            &format!("{{\"v\":{STORE_VERSION},{spec_field}"),
            &format!("{{\"v\":1,{spec_field}\"trace\":\"00000000deadbeef\","),
            1,
        );
        assert!(v1.starts_with("{\"v\":1,"), "{v1}");
        // The version-2 layout's failed cell: an error and no values.
        let v2_failed = format!(
            "{{\"v\":2,{spec_field}\"values\":[],\"error\":\"unknown workload \\\"Nope\\\"\"}}\n"
        );
        // Another spec's entry, copied into this one's place.
        let other = small_spec(6);
        store.get_or_run(&other);
        let misplaced = std::fs::read_to_string(store.entry_path(other.spec_hash()))
            .expect("other entry written");
        for bad in [
            "",                                        // empty
            "{",                                       // malformed JSON
            &full[..full.len() / 2],                   // truncated mid-entry
            "{\"v\":999}",                             // future version
            &v1,                                       // version 1
            &v2_failed,                                // version 2, failed cell
            &misplaced,                                // names another spec
            &full.replace("Silo", "Nope"),             // unknown scheme
            &full.replace("sim_cycles", "sim_cyclez"), // renamed counter
        ] {
            std::fs::write(&path, bad).expect("inject corruption");
            let fresh = ResultStore::new(store.dir.clone(), FP_TEST);
            fresh.set_enabled(true);
            let out = fresh.get_or_run(&spec);
            assert_eq!(
                fresh.stats().invalidated,
                1,
                "corrupt entry counts as invalidated: {bad:?}"
            );
            assert_eq!(
                out.stats().to_json().to_string(),
                good.stats().to_json().to_string()
            );
            // The recompute heals the entry on disk.
            assert_eq!(std::fs::read_to_string(&path).expect("rewritten"), full);
        }
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn an_entry_carries_statistics_iff_its_cell_records_them() {
        let spec = small_spec(3);
        let key = spec.spec_hash();
        let with = encode_entry(&spec.execute(), key);
        let without = encode_entry(&CellOutcome::default().with_value("x", 1.0), key);
        assert!(decode_entry(&with, key, true).is_some());
        assert!(decode_entry(&without, key, false).is_some());
        assert!(decode_entry(&without, key, true).is_none(), "stats missing");
        assert!(
            decode_entry(&with, key, false).is_none(),
            "stats unasked for"
        );
    }

    /// A crash sweep cell of a small Silo target under `fault`.
    fn sweep_spec(fault: FaultSpec) -> CellSpec {
        let work = CellWork::CrashSweep {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 4,
            fault,
            points: 2,
            point: None,
        };
        CellSpec::new(CellLabel::default(), 42, work)
    }

    #[test]
    fn racing_units_that_share_cells_resolve_each_cell_once() {
        let store = tmp_store("units");
        store.set_enabled(true);
        let [a, b, c] = [
            FaultSpec::OpBoundary,
            FaultSpec::TornLine(64),
            FaultSpec::Battery(1 << 16),
        ]
        .map(sweep_spec);
        // Overlapping units in different orders, one with a cell twice.
        let units: [Vec<&CellSpec>; 4] = [vec![&a, &b, &c], vec![&c, &b], vec![&b], vec![&a, &a]];
        let requested: usize = units.iter().map(Vec::len).sum();
        let start = std::sync::Barrier::new(units.len());
        let served: Vec<Vec<(CellOutcome, Served)>> = std::thread::scope(|scope| {
            let racers: Vec<_> = units
                .iter()
                .map(|unit| {
                    scope.spawn(|| {
                        start.wait();
                        store.get_or_run_unit(unit)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let s = store.stats();
        assert_eq!(s.misses, 3, "each cell executed once");
        assert_eq!(
            (s.hits, s.memory_hits),
            (requested as u64 - 3, requested as u64 - 3)
        );
        for (unit, served) in units.iter().zip(&served) {
            for (spec, (outcome, _)) in unit.iter().zip(served) {
                let alone = spec.execute();
                assert_eq!(outcome.values, alone.values);
            }
        }
        assert_eq!(
            served[3][1].1,
            Served::Memory,
            "a repeated cell is served from memory"
        );
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn a_partly_stored_unit_executes_only_its_missing_cells() {
        let store = tmp_store("partial");
        store.set_enabled(true);
        let cells = [FaultSpec::OpBoundary, FaultSpec::TornLine(64)].map(sweep_spec);
        let unit: Vec<&CellSpec> = cells.iter().collect();
        let cold = store.get_or_run_unit(&unit);
        std::fs::remove_file(store.entry_path(cells[1].spec_hash())).expect("an entry");
        let fresh = ResultStore::new(store.dir.clone(), FP_TEST);
        fresh.set_enabled(true);
        let warm = fresh.get_or_run_unit(&unit);
        let served: Vec<Served> = warm.iter().map(|(_, from)| *from).collect();
        assert_eq!(served, [Served::Disk, Served::Executed]);
        let s = fresh.stats();
        assert_eq!((s.hits, s.misses, s.invalidated), (1, 1, 0));
        for ((a, _), (b, _)) in cold.iter().zip(&warm) {
            assert_eq!(a.values, b.values);
        }
        assert!(store.entry_path(cells[1].spec_hash()).exists(), "rewritten");
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn an_entry_lives_at_its_fingerprint_and_spec_hash() {
        let store = tmp_store("path");
        store.set_enabled(true);
        let spec = small_spec(9);
        store.get_or_run(&spec);
        let entries: Vec<PathBuf> = std::fs::read_dir(store.dir.join(FP_TEST))
            .expect("fingerprint dir")
            .flatten()
            .map(|e| e.path())
            .collect();
        let want = store
            .dir
            .join(FP_TEST)
            .join(format!("{:016x}.json", spec.spec_hash()));
        assert_eq!(entries, std::slice::from_ref(&want));
        let entry = JsonValue::parse(&std::fs::read_to_string(&want).expect("entry"))
            .expect("entry parses");
        assert_eq!(
            entry.get("v").and_then(JsonValue::as_u64),
            Some(STORE_VERSION)
        );
        assert!(entry.get("trace").is_none(), "no trace field in the key");
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn code_fingerprint_change_misses_and_gc_prunes() {
        let store = tmp_store("gc");
        store.set_enabled(true);
        let spec = small_spec(6);
        store.get_or_run(&spec);
        assert_eq!(store.stats().misses, 1);
        // A "rebuilt" store with a different fingerprint cannot see the
        // old entry: cold miss, fresh directory.
        let rebuilt = ResultStore::new(store.dir.clone(), FP_NEW);
        rebuilt.set_enabled(true);
        rebuilt.get_or_run(&spec);
        assert_eq!(
            rebuilt.stats(),
            ResultStoreStats {
                hits: 0,
                misses: 1,
                invalidated: 0,
                memory_hits: 0
            }
        );
        assert!(store.dir.join(FP_TEST).is_dir());
        assert!(store.dir.join(FP_NEW).is_dir());
        // GC from the rebuilt store's perspective drops the stale subdir.
        let (dirs, files) = rebuilt.gc().expect("gc");
        assert_eq!((dirs, files), (1, 1));
        assert!(!store.dir.join(FP_TEST).exists());
        assert!(store.dir.join(FP_NEW).is_dir());
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn exactly_once_under_racing_workers() {
        let store = tmp_store("race");
        store.set_enabled(true);
        let spec = small_spec(7);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| store.get_or_run(&spec).stats().to_json().to_string()))
                .collect();
            let outs: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(outs.windows(2).all(|w| w[0] == w[1]));
        });
        let s = store.stats();
        assert_eq!(s.misses, 1, "one execution");
        assert_eq!(s.hits, 7, "everyone else waits and hits");
        assert_eq!(s.memory_hits, 7, "racers are served from memory");
        let _ = std::fs::remove_dir_all(&store.dir);
    }

    #[test]
    fn poisoned_slot_recovers_for_the_next_request() {
        let store = tmp_store("poison");
        store.set_enabled(true);
        // A spec whose execution panics (unknown workload) leaves its slot
        // empty; the identical request afterwards must execute (and panic)
        // again instead of wedging or serving a half-made outcome.
        let bad = CellSpec::new(
            CellLabel::default().with_param("bad"),
            42,
            CellWork::TraceStats {
                workload: "NoSuchWorkload".into(),
                txs: 2,
            },
        );
        for _ in 0..2 {
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.get_or_run(&bad)))
                    .unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "?".into());
            assert!(msg.contains("NoSuchWorkload"), "{msg}");
        }
        assert_eq!(store.stats().misses, 2, "each request executed the cell");
        // A well-formed spec still resolves through the same store.
        let good = store.get_or_run(&small_spec(8));
        assert!(good.stats.is_some());
        let _ = std::fs::remove_dir_all(&store.dir);
    }
}
