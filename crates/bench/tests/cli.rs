//! CLI contract tests for the `evaluate` driver binary.

use std::process::Command;

fn evaluate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_evaluate"))
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
fn unknown_experiment_is_rejected_with_exit_2() {
    let out = evaluate().arg("no_such_experiment").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no_such_experiment"), "{stderr:?}");
}

#[test]
fn render_failure_exits_4() {
    let out = evaluate()
        .args([
            "profile",
            "--txs",
            "8",
            "--bench",
            "Hash",
            "--jobs",
            "2",
            "--no-result-store",
        ])
        .env("SILO_TEST_RENDER_PANIC", "1")
        .output()
        .expect("run evaluate");
    assert_eq!(out.status.code(), Some(4), "render failure is exit 4");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("render failed"), "{stderr:?}");
}

#[test]
fn failed_cell_exits_3_under_catch_cell_panics() {
    // An unknown workload panics inside the cell; --catch-cell-panics
    // records it as a failed outcome and the run exits 3 naming the cell
    // instead of aborting with the panic's 101.
    let out = evaluate()
        .args([
            "latency",
            "--txs",
            "8",
            "--bench",
            "NoSuchWorkload",
            "--jobs",
            "2",
            "--catch-cell-panics",
            "--no-result-store",
        ])
        .output()
        .expect("run evaluate");
    assert_eq!(out.status.code(), Some(3), "cell failure is exit 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cell"), "{stderr:?}");
    assert!(stderr.contains("NoSuchWorkload"), "{stderr:?}");
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
