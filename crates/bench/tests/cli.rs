//! CLI contract tests for the `evaluate` driver binary.

use std::path::PathBuf;
use std::process::Command;

use silo_types::JsonValue;

fn evaluate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_evaluate"))
}

/// A per-test scratch directory under the target dir (removed on entry so
/// reruns start clean; left behind on failure for inspection).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `evaluate` and asserts a usage error: exit 2, an `error:` line
/// containing `needle` (the offending flag or value), and no experiment
/// output before the check.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = evaluate()
        .args(args)
        .arg("--no-result-store")
        .output()
        .expect("run evaluate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr:?}");
    assert!(
        stderr.contains("error:") && stderr.contains(needle),
        "{args:?}: error names {needle}: {stderr:?}"
    );
    assert!(out.stdout.is_empty(), "{args:?}: no experiment output");
}

#[test]
fn jobs_zero_is_rejected_with_exit_2() {
    assert_usage_error(&["fig11", "--jobs", "0"], "--jobs");
}

#[test]
fn bad_cores_txs_and_benchmarks_are_rejected_with_exit_2() {
    // Unchecked, --cores 0 divides by zero, --cores 0 or 256 trips
    // SimConfig's core-count assert, and --txs 0 prints NaN averages.
    for (args, needle) in [
        (&["profile", "--cores", "0"][..], "--cores"),
        (&["latency", "--cores", "0"], "--cores"),
        (&["compare", "--cores", "0"], "--cores"),
        (&["compare", "--cores", "256"], "--cores"),
        (&["fig04", "--txs", "0"], "--txs"),
        (
            &["compare", "--bench", "Nope"],
            "unknown benchmark \"Nope\"",
        ),
    ] {
        assert_usage_error(args, needle);
    }
}

#[test]
fn unwritable_event_trace_exits_1() {
    // /dev/full accepts the open and fails every write.
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let out = evaluate()
        .args([
            "fig13",
            "--txs",
            "40",
            "--jobs",
            "1",
            "--no-result-store",
            "--trace-events",
            "/dev/full",
        ])
        .output()
        .expect("run evaluate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr:?}");
    assert!(
        stderr.contains("error:") && stderr.contains("event trace /dev/full"),
        "{stderr:?}"
    );
    assert!(out.stdout.is_empty(), "no experiment ran");
}

#[test]
fn a_serial_fig11_holds_one_familys_traces_at_a_time() {
    // Five adjacent scheme cells read each (benchmark, cores) pair's N and
    // 2N traces and no later cell reads them, so a serial grid never
    // holds more than that one pair.
    let dir = scratch("trace-lifetime");
    let out = evaluate()
        .args(["fig11", "--txs", "40", "--jobs", "1", "--no-result-store"])
        .arg("--json-dir")
        .arg(&dir)
        .output()
        .expect("run evaluate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("[trace-cache] "))
        .unwrap_or_else(|| panic!("a [trace-cache] line: {stderr}"));
    let peak: u64 = line
        .strip_suffix(" peak resident")
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("a peak resident count: {line}"));
    assert!(
        line.starts_with("[trace-cache] 56 unique keys, 56 generated, "),
        "{line}"
    );
    assert!((1..=2).contains(&peak), "{line}");
}

#[test]
fn unknown_experiment_is_rejected_with_exit_2() {
    let out = evaluate().arg("no_such_experiment").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_experiment"), "{stderr:?}");
}

#[test]
fn render_failure_exits_4() {
    // The flag table refuses every line a cell could not run, so a render
    // failure comes from an untrusted store entry instead: a cold run
    // fills a scratch store, every entry is rewritten to one that decodes
    // but holds no statistics, and the warm run that replays them must
    // exit 4 with a `render failed` line naming the cell, not abort with
    // a panic's 101.
    let dir = scratch("render-failure");
    let store = dir.join("store");
    let run = || {
        evaluate()
            .args(["compare", "--txs", "8", "--cores", "1", "--bench", "Hash"])
            .args(["--jobs", "2", "--json-dir"])
            .arg(dir.join("reports"))
            .env("SILO_RESULT_STORE", &store)
            .output()
            .expect("run evaluate")
    };
    let cold = run();
    assert!(cold.status.success(), "{:?}", cold);
    let mut entries = 0;
    for fingerprint in std::fs::read_dir(&store).expect("store written").flatten() {
        for entry in std::fs::read_dir(fingerprint.path())
            .expect("entries")
            .flatten()
        {
            let path = entry.path();
            let text = std::fs::read_to_string(&path).expect("read entry");
            let v = JsonValue::parse(&text).expect("entry is JSON");
            let hollow = JsonValue::object()
                .field("v", 3u64)
                .field(
                    "spec",
                    v.get("spec").and_then(JsonValue::as_str).expect("spec"),
                )
                .field("values", JsonValue::Arr(Vec::new()))
                .build();
            std::fs::write(&path, format!("{hollow}\n")).expect("rewrite entry");
            entries += 1;
        }
    }
    assert_eq!(entries, 5, "one entry per compare cell");
    let out = run();
    assert_eq!(out.status.code(), Some(4), "render failure is exit 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: render failed: cell Base/Hash/1c"),
        "{stderr:?}"
    );
    assert!(out.stdout.is_empty(), "nothing rendered");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2_before_anything_runs() {
    // Each line is refused with one `error:` line naming its token, and
    // leaves no report, trace file, or store entry behind: the scratch
    // directory it runs in stays empty.
    for (line, token) in [
        ("fig04 --txz 100", "--txz"),
        ("fig04 --bench Nope", "--bench"),
        ("fig04 --fault battery", "--fault"),
        ("fig13 --cores 4", "--cores"),
        ("fig04 --txs 10 --txs 20", "--txs"),
        ("fig04 100", "100"),
        ("fig04 --json-dir --no-result-store", "--json-dir"),
        ("latency --bench Nope", "Nope"),
        ("profile --bench Nope", "Nope"),
        (
            "crashfuzz --fault battery --battery-byte 64",
            "--battery-byte",
        ),
        ("crashfuzz --fault torn", "torn"),
        ("crashfuzz --points", "--points"),
        ("fuzz --fault op-boundary", "op-boundary"),
        ("crashfuzz --fault adr", "adr"),
        ("fig04 --trace-events events.jsonl --txz 1", "--txz"),
    ] {
        let dir = scratch("usage");
        let out = evaluate()
            .args(line.split_whitespace())
            .current_dir(&dir)
            .env("SILO_RESULT_STORE", dir.join("store"))
            .output()
            .expect("run evaluate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr:?}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert!(
            lines.len() == 1 && lines[0].starts_with("error:") && lines[0].contains(token),
            "{line}: one error line naming {token}: {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{line}: no experiment output");
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("scratch")
            .flatten()
            .collect();
        assert!(left.is_empty(), "{line}: left {left:?} behind");
    }
}

#[test]
fn list_includes_crashfuzz() {
    let out = evaluate().arg("list").output().expect("run");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("crashfuzz"), "{stdout:?}");
}

#[test]
fn check_rejects_documents_that_are_not_reports() {
    // A missing or non-integer counter must be a violation, never a 0
    // that happens to balance.
    let bad_counter = r#"{"experiment":"profile","cells":[{"stats":{
        "per_core":[{"cycles":"x"}],
        "breakdown":{"categories":["execute"],"per_core":[[]],
                     "totals":{"execute":0,"total":0}}}}]}"#;
    let dir = std::env::temp_dir().join(format!("silo-check-shape-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (name, doc) in [
        ("empty-object", "{}"),
        ("array", "[1,2]"),
        ("bad-counter", bad_counter),
    ] {
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, doc).expect("write document");
        let out = evaluate().arg("check").arg(&path).output().expect("run");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name} must fail the check: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(out.stdout.is_empty(), "{name}: no ok line");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
