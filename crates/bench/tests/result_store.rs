//! End-to-end result-store behaviour through the `evaluate` binary.
//!
//! The unit tests in `result_store.rs` cover the store in isolation;
//! these drive the real CLI with `SILO_RESULT_STORE` pointed at a scratch
//! directory and assert the store's contract: warm (memoized) runs emit
//! byte-identical stdout and reports to cold runs at any `--jobs` and
//! generate no trace, corruption degrades to recomputation, and entries
//! stamped by another build are invisible until `store-gc` prunes them
//! (and only them).

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch root for one test: `<tmp>/<tag>-<pid>/{store,json}`.
fn scratch(tag: &str) -> (PathBuf, PathBuf) {
    let root = std::env::temp_dir().join(format!("silo-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    (root.join("store"), root.join("json"))
}

/// Runs `evaluate <args>` against `store`, returning (stdout, stderr).
fn evaluate(store: &Path, json_dir: &Path, args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_evaluate"))
        .args(args)
        .arg("--json-dir")
        .arg(json_dir)
        .env("SILO_RESULT_STORE", store)
        .output()
        .expect("spawn evaluate");
    assert!(
        out.status.success(),
        "evaluate {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

/// The report with the run-dependent envelope (`jobs`, `wall_ms`) removed.
fn stripped_report(json_dir: &Path, experiment: &str) -> String {
    let text = std::fs::read_to_string(json_dir.join(format!("{experiment}.json")))
        .expect("report written");
    let text = text.trim_end();
    let i = text.rfind(",\"jobs\":").expect("report envelope present");
    format!("{}}}", &text[..i])
}

/// The numbers on a run's stderr line that starts with `prefix`.
fn counts(stderr: &str, prefix: &str) -> Vec<u64> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("{prefix} line on stderr"));
    line.split_whitespace()
        .filter_map(|w| w.trim_end_matches(',').parse().ok())
        .collect()
}

/// The `(hits, misses, invalidated)` triple from a run's stderr.
fn store_counts(stderr: &str) -> (u64, u64, u64) {
    let nums = counts(stderr, "[result-store]");
    (nums[0], nums[1], nums[2])
}

/// How many traces a run generated, from its `[trace-cache] K unique
/// keys, G generated, H hits` line.
fn traces_generated(stderr: &str) -> u64 {
    counts(stderr, "[trace-cache]")[1]
}

#[test]
fn cold_and_warm_reports_are_byte_identical_across_jobs() {
    let (store, json) = scratch("warm");
    for (experiment, args) in [
        ("fig11", &["fig11", "--txs", "24"] as &[&str]),
        ("profile", &["profile", "--txs", "24", "--bench", "Hash"]),
    ] {
        let cold_json = json.join("cold");
        let (cold_out, cold_err) = evaluate(&store, &cold_json, &[args, &["--jobs", "8"]].concat());
        let (_, _, cold_inv) = store_counts(&cold_err);
        assert_eq!(cold_inv, 0, "{experiment}: fresh store invalidated entries");
        let cold_report = stripped_report(&cold_json, experiment);

        for jobs in ["1", "8"] {
            let warm_json = json.join(format!("warm{jobs}"));
            let (warm_out, warm_err) =
                evaluate(&store, &warm_json, &[args, &["--jobs", jobs]].concat());
            let (hits, misses, _) = store_counts(&warm_err);
            assert!(
                hits > 0,
                "{experiment}: warm run at --jobs {jobs} never hit"
            );
            assert_eq!(misses, 0, "{experiment}: warm run at --jobs {jobs} missed");
            assert_eq!(
                traces_generated(&warm_err),
                0,
                "{experiment}: warm run at --jobs {jobs} generated traces"
            );
            assert_eq!(warm_out, cold_out, "{experiment}: stdout drifted warm");
            assert_eq!(
                stripped_report(&warm_json, experiment),
                cold_report,
                "{experiment}: report drifted warm at --jobs {jobs}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(store.parent().expect("scratch root"));
}

#[test]
fn corrupted_entries_fall_back_to_recompute() {
    let (store, json) = scratch("corrupt");
    let args = ["fig13", "--txs", "24", "--jobs", "4"];
    let (cold_out, _) = evaluate(&store, &json.join("cold"), &args);
    let cold_report = stripped_report(&json.join("cold"), "fig13");

    // Garble one entry and truncate another; the rest stay warm.
    let fp_dir = std::fs::read_dir(&store)
        .expect("store populated")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.is_dir())
        .expect("fingerprint dir");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&fp_dir)
        .expect("entries")
        .flatten()
        .map(|e| e.path())
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 2,
        "fig13 persisted {} entries",
        entries.len()
    );
    std::fs::write(&entries[0], "{\"v\":1,").expect("truncate entry");
    std::fs::write(&entries[1], "not json at all").expect("garble entry");

    let (warm_out, warm_err) = evaluate(&store, &json.join("warm"), &args);
    let (hits, misses, invalidated) = store_counts(&warm_err);
    assert_eq!(invalidated, 2, "both corrupted entries detected");
    assert_eq!(misses, 0);
    assert!(hits > 0, "untouched entries still serve");
    assert_eq!(warm_out, cold_out, "corruption changed the output");
    assert_eq!(
        stripped_report(&json.join("warm"), "fig13"),
        cold_report,
        "corruption changed the report"
    );
    let _ = std::fs::remove_dir_all(store.parent().expect("scratch root"));
}

#[test]
fn stale_fingerprint_dirs_miss_and_store_gc_prunes_them() {
    let (store, json) = scratch("gc");
    let args = ["fig13", "--txs", "24", "--jobs", "4"];
    let (cold_out, _) = evaluate(&store, &json.join("cold"), &args);

    // Pretend the entries came from another build: a renamed fingerprint
    // directory must be invisible (all misses, fresh recompute) …
    let fp_dir = std::fs::read_dir(&store)
        .expect("store populated")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.is_dir())
        .expect("fingerprint dir");
    let entry_count = std::fs::read_dir(&fp_dir).expect("entries").count();
    let stale = store.join("0123456789abcdef");
    std::fs::rename(&fp_dir, &stale).expect("rename fingerprint dir");

    let (rerun_out, rerun_err) = evaluate(&store, &json.join("rerun"), &args);
    let (hits, misses, _) = store_counts(&rerun_err);
    assert_eq!(hits, 0, "stale-fingerprint entries must not serve");
    assert!(misses > 0);
    assert_eq!(rerun_out, cold_out, "recompute diverged from cold run");

    // … and `store-gc` removes exactly the stale directory. A directory
    // that merely shares the store root (SILO_RESULT_STORE pointed at a
    // build tree) is not a fingerprint and must survive, and a stray
    // non-entry file in the stale directory is not counted as an entry.
    let bystander = store.join("release").join("deps").join("important");
    std::fs::create_dir_all(&bystander).expect("create bystander dir");
    std::fs::write(stale.join("notes.txt"), "not an entry").expect("write stray file");
    let (gc_out, _) = evaluate(&store, &json.join("gc"), &["store-gc"]);
    assert_eq!(
        gc_out.trim(),
        format!("result store gc: removed 1 stale fingerprint dirs, {entry_count} entries")
    );
    assert!(!stale.exists(), "stale dir survived gc");
    assert!(fp_dir.exists(), "live fingerprint dir was pruned");
    assert!(bystander.exists(), "gc deleted a non-fingerprint directory");
    let _ = std::fs::remove_dir_all(store.parent().expect("scratch root"));
}
