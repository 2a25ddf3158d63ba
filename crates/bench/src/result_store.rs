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
//! Like the trace cache, the map lock only resolves the key to a slot;
//! per-slot locks serialize execution of one cell so a spec is executed
//! **exactly once** per process even when racing workers request it, while
//! distinct cells execute concurrently. Every lock recovers from
//! poisoning: a cell panic that a caller catches (a test's
//! `catch_unwind`) must not wedge the store for later requests.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use silo_sim::SimStats;
use silo_types::JsonValue;

use crate::cellspec::CellSpec;
use crate::exp::CellOutcome;

/// On-disk entry format version; bumped on any layout change so old
/// entries read as corrupt (and recompute) instead of misparsing.
const STORE_VERSION: u64 = 2;

/// Locks a mutex, recovering the data if a previous holder panicked: a
/// captured cell panic poisons the slot it executed under, and the next
/// request must still be servable.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

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
    /// Per-spec-hash execution locks.
    slots: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    /// The memory tier: every outcome this process decoded or executed,
    /// by spec hash.
    memory: Mutex<HashMap<u64, CellOutcome>>,
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
            slots: Mutex::new(HashMap::new()),
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

    /// A memory-tier hit for `key`, counted, or `None`.
    fn memory_get(&self, key: u64) -> Option<CellOutcome> {
        let outcome = lock_recovering(&self.memory).get(&key)?.clone();
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.memory_hits.fetch_add(1, Ordering::Relaxed);
        Some(outcome)
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
    /// The slot lock is held across execution, so concurrent requests for
    /// the same spec run it exactly once per process.
    pub fn get_or_run_traced(&self, spec: &CellSpec) -> (CellOutcome, Served) {
        if !self.enabled() || !spec.cacheable() {
            return (spec.execute(), Served::Executed);
        }
        let key = spec.spec_hash();
        if let Some(outcome) = self.memory_get(key) {
            return (outcome, Served::Memory);
        }
        let slot = {
            let mut map = lock_recovering(&self.slots);
            Arc::clone(map.entry(key).or_default())
        };
        let _running = lock_recovering(&slot);
        // Whoever held the slot before us filled the memory tier.
        if let Some(outcome) = self.memory_get(key) {
            return (outcome, Served::Memory);
        }
        let path = self.entry_path(key);
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                if let Some(outcome) = decode_entry(&text, key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    lock_recovering(&self.memory).insert(key, outcome.clone());
                    return (outcome, Served::Disk);
                }
                // Corrupt/truncated/stale-format entry: recompute (and
                // overwrite it below with a good one).
                self.invalidated.fetch_add(1, Ordering::Relaxed);
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            // Unreadable entry (permissions, I/O error): same as corrupt.
            Err(_) => {
                self.invalidated.fetch_add(1, Ordering::Relaxed);
            }
        }
        let outcome = spec.execute();
        // Persistence is best-effort: a read-only disk degrades the store
        // to in-memory memoization, it never fails the experiment.
        let _ = self.persist(&path, encode_entry(&outcome, key));
        lock_recovering(&self.memory).insert(key, outcome.clone());
        (outcome, Served::Executed)
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
    if let Some(error) = &outcome.error {
        obj = obj.field("error", error.as_str());
    }
    let mut text = obj.build().to_string();
    text.push('\n');
    text
}

/// Rebuilds an outcome from its stored form. `None` on *any* anomaly —
/// wrong version, an entry that names another spec hash (a file copied or
/// renamed into place), malformed values, unknown scheme, or a stats
/// counter that fails the strict [`SimStats::from_json`] parse — and the
/// caller recomputes.
fn decode_entry(text: &str, key: u64) -> Option<CellOutcome> {
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
    let stats = match v.get("stats") {
        Some(s) => {
            // SimStats stores its scheme as `&'static str`: intern the
            // stored name against the known-scheme table first. An unknown
            // name means a stale or foreign entry — recompute.
            let name = s.get("scheme").and_then(JsonValue::as_str)?;
            let interned = crate::ALL_SCHEMES.iter().find(|s| **s == name)?;
            Some(SimStats::from_json(s, interned)?)
        }
        None => None,
    };
    let error = match v.get("error") {
        Some(e) => Some(e.as_str()?.to_string()),
        None => None,
    };
    Some(CellOutcome {
        stats,
        values,
        error,
        ..CellOutcome::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cellspec::{CellWork, RunSpec, WorkloadSpec};
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
        let back = decode_entry(&text, key).expect("round trip");
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
        assert!(decode_entry(&text, key ^ 1).is_none());
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
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                // Poison the store's internal locks by panicking while a
                // get_or_run execution is in flight on this thread.
            }
        }
        let store = tmp_store("poison");
        store.set_enabled(true);
        // A spec whose execution panics (unknown workload) poisons the
        // slot lock it ran under; the identical request afterwards must
        // still execute (and panic again) instead of wedging.
        let bad = CellSpec::new(
            CellLabel::default().with_param("bad"),
            42,
            CellWork::TraceStats {
                workload: "NoSuchWorkload".into(),
                txs: 2,
            },
        );
        for _ in 0..2 {
            let _bomb = Bomb;
            let err =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.get_or_run(&bad)))
                    .unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "?".into());
            assert!(msg.contains("NoSuchWorkload"), "{msg}");
        }
        // A well-formed spec still resolves through the same store.
        let good = store.get_or_run(&small_spec(8));
        assert!(good.stats.is_some());
        let _ = std::fs::remove_dir_all(&store.dir);
    }
}
