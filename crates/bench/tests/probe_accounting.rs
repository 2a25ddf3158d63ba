//! Contract tests for the cycle-accounting observability layer.
//!
//! Three guarantees are pinned here:
//!
//! 1. **The invariant** — a profiled run attributes *every* cycle of every
//!    core's clock: `sum(categories) == core clock`, per core and in the
//!    totals, for every scheme on a small workload grid.
//! 2. **Zero cost when off** — unprofiled runs carry no breakdown and
//!    their JSON reports are free of the `breakdown` key, even after a
//!    profiled run in the same process (no global-state leak).
//! 3. **The timeline schema** — every drained JSONL event line parses and
//!    matches the versioned schema (`v`, `at`, `core`, `kind`, `arg`).

use std::process::Command;

use silo_bench::{make_scheme, run_profiled, run_with_scheme, TraceCache, ALL_SCHEMES};
use silo_sim::{CycleCategory, Engine, SimConfig, DEFAULT_TIMELINE_CAPACITY};
use silo_types::JsonValue;
use silo_workloads::workload_by_name;

const GRID: [&str; 2] = ["Hash", "Bank"];

#[test]
fn breakdown_sums_to_core_clocks_for_every_scheme() {
    for scheme in ALL_SCHEMES {
        for bench in GRID {
            let w = workload_by_name(bench).expect("registered workload");
            let stats = run_profiled(scheme, w.as_ref(), 2, 12, 42);
            let b = stats
                .breakdown
                .as_ref()
                .unwrap_or_else(|| panic!("{scheme}/{bench}: profiled run lost its breakdown"));
            assert_eq!(b.per_core.len(), stats.per_core.len());
            for (i, core) in stats.per_core.iter().enumerate() {
                assert_eq!(
                    b.core_total(i),
                    core.cycles.as_u64(),
                    "{scheme}/{bench}: core {i} cycles not fully attributed"
                );
            }
            let clock_sum: u64 = stats.per_core.iter().map(|c| c.cycles.as_u64()).sum();
            assert_eq!(
                b.total(),
                clock_sum,
                "{scheme}/{bench}: grand total drifted"
            );
            let column_sum: u64 = CycleCategory::ALL
                .iter()
                .map(|&c| b.category_total(c))
                .sum();
            assert_eq!(
                column_sum, clock_sum,
                "{scheme}/{bench}: column totals drifted"
            );
        }
    }
}

#[test]
fn unprofiled_runs_stay_breakdown_free_even_after_profiling() {
    let w = workload_by_name("Hash").expect("registered workload");
    // Profile first: per-run accounting must not leak into later runs.
    let profiled = run_profiled("Silo", w.as_ref(), 2, 8, 7);
    assert!(profiled.breakdown.is_some());

    let config = SimConfig::table_ii(2);
    let trace = TraceCache::global().get_or_build(&*w, 2, 8, 7);
    let plain = run_with_scheme(make_scheme("Silo", &config).as_mut(), &config, &trace);
    assert!(plain.breakdown.is_none(), "accounting leaked across runs");
    let json = plain.to_json().to_string();
    assert!(
        !json.contains("breakdown"),
        "probe-off report JSON must be byte-identical to the pre-probe format"
    );
}

#[test]
fn timeline_lines_match_the_versioned_schema() {
    const KNOWN_KINDS: [&str; 9] = [
        "tx_begin",
        "tx_commit",
        "log_merge",
        "log_ignore",
        "log_overflow",
        "buffer_drain",
        "wpq_admit",
        "crash",
        "recovery",
    ];
    let cores = 2;
    let config = SimConfig::table_ii(cores);
    let w = workload_by_name("Hash").expect("registered workload");
    let trace = silo_bench::TraceCache::global().get_or_build(w.as_ref(), cores, 10, 3);
    let mut scheme = silo_bench::make_scheme("Silo", &config);
    let mut engine = Engine::new(&config, scheme.as_mut());
    engine
        .machine_mut()
        .probe
        .enable_timeline(DEFAULT_TIMELINE_CAPACITY);
    let outcome = engine.run(&trace, None);
    let (lines, dropped) = outcome.timeline.expect("timeline enabled");
    assert!(!lines.is_empty(), "a Silo run must record events");
    assert!(
        lines.len() as u64 + dropped >= lines.len() as u64,
        "dropped count must not underflow"
    );
    let mut kinds_seen = std::collections::BTreeSet::new();
    for line in &lines {
        let v = JsonValue::parse(line)
            .unwrap_or_else(|e| panic!("timeline line is not valid JSON ({e}): {line}"));
        assert_eq!(
            v.get("v").and_then(JsonValue::as_f64),
            Some(1.0),
            "schema version: {line}"
        );
        assert!(
            v.get("at").and_then(JsonValue::as_f64).is_some(),
            "missing at: {line}"
        );
        assert!(
            v.get("arg").and_then(JsonValue::as_f64).is_some(),
            "missing arg: {line}"
        );
        match v.get("core") {
            Some(JsonValue::Null) | Some(JsonValue::Uint(_)) => {}
            other => panic!("core must be u32 or null, got {other:?}: {line}"),
        }
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("missing kind: {line}"));
        assert!(KNOWN_KINDS.contains(&kind), "unknown kind {kind}: {line}");
        kinds_seen.insert(kind.to_string());
    }
    assert!(
        kinds_seen.contains("tx_commit"),
        "a committed run must log commits, saw only {kinds_seen:?}"
    );
}

fn evaluate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_evaluate"))
}

/// `evaluate check` must accept a clean profile report and reject one with
/// a corrupted breakdown. The corruption bumps the first per-core category
/// cell by 7, which breaks the row sum, a column total, and the grand
/// total at once.
#[test]
fn check_validates_breakdowns_end_to_end() {
    let dir = std::env::temp_dir().join(format!("silo-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = evaluate()
        .args(["profile", "--txs", "24", "--bench", "Hash", "--jobs", "2"])
        .arg("--json-dir")
        .arg(&dir)
        // Keep the test hermetic: the memoized outcomes land in the
        // scratch dir, not in a target/result-store relative to the cwd.
        .env("SILO_RESULT_STORE", dir.join("store"))
        .output()
        .expect("run evaluate profile");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = dir.join("profile.json");

    let ok = evaluate()
        .arg("check")
        .arg(&report)
        .output()
        .expect("check");
    assert_eq!(ok.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(stdout.contains("breakdowns validated"), "{stdout:?}");

    // Corrupt one attributed cycle count inside the first breakdown.
    let text = std::fs::read_to_string(&report).expect("read report");
    let pc = text.find("\"per_core\":[[").expect("breakdown per_core");
    let start = pc + "\"per_core\":[[".len();
    let end = start
        + text[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("digits end");
    let n: u64 = text[start..end].parse().expect("numeric cell");
    let corrupted = format!("{}{}{}", &text[..start], n + 7, &text[end..]);
    let bad_path = dir.join("profile-corrupt.json");
    std::fs::write(&bad_path, corrupted).expect("write corrupted report");

    let bad = evaluate()
        .arg("check")
        .arg(&bad_path)
        .output()
        .expect("check corrupted");
    assert_eq!(bad.status.code(), Some(1), "corruption must fail the check");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("categories sum"),
        "names the problem: {stderr:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
