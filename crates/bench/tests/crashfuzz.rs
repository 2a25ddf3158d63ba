//! End-to-end test of crashfuzz's shrinker: an undersized battery on
//! Silo must be caught, shrunk to a pinned minimal repro, and that repro
//! command, fed back through the CLI verbatim, must violate again.

use std::path::PathBuf;
use std::process::Command;

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

#[test]
fn shrunk_battery_repro_is_pinned_and_replays() {
    let dir = scratch("crashfuzz-repro");
    let out = evaluate()
        .args([
            "crashfuzz",
            "--txs",
            "16",
            "--bench",
            "Hash",
            "--scheme",
            "Silo",
        ])
        .args(["--fault", "battery", "--battery-bytes", "64"])
        .arg("--no-result-store")
        .arg("--json-dir")
        .arg(dir.join("sweep"))
        .output()
        .expect("run evaluate crashfuzz");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let repro = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("minimal repro: "))
        .unwrap_or_else(|| panic!("violation prints a repro command:\n{stdout}"));
    assert_eq!(
        repro,
        "evaluate crashfuzz --scheme Silo --bench Hash --txs 2 --seed 42 \
         --fault battery --battery-bytes 64 --point 1020"
    );

    let args: Vec<&str> = repro
        .strip_prefix("evaluate ")
        .expect("repro names the binary")
        .split_whitespace()
        .collect();
    let replay = evaluate()
        .args(&args)
        .arg("--no-result-store")
        .arg("--json-dir")
        .arg(dir.join("replay"))
        .output()
        .expect("run repro");
    assert!(
        replay.status.success(),
        "{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let replay_stdout = String::from_utf8_lossy(&replay.stdout);
    assert!(
        replay_stdout
            .lines()
            .any(|l| l.starts_with("total: ") && !l.starts_with("total: 0 violations")),
        "repro did not reproduce the violation:\n{replay_stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
