//! End-to-end tests of the coverage-guided crash search and its one
//! verdict: with the oracle's per-word transition log on, the verdict must
//! hold across the clean scheme matrix and localize an injected battery
//! violation to the exact word, and the CLI's corpus entries and printed
//! repro commands must replay bit-for-bit.

use std::path::PathBuf;
use std::process::Command;

use silo_bench::{make_scheme, TraceCache, ALL_SCHEMES};
use silo_sim::{ConsistencyReport, CrashPlan, Engine, FaultModel, RunOutcome, SimConfig};
use silo_types::JsonValue;
use silo_workloads::workload_by_name;

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

/// Runs one crash plan with the transition log on, and returns the run
/// and its verdict, which `CrashOutcome::spec` must repeat.
fn judged_crash(
    scheme: &str,
    config: &SimConfig,
    streams: &silo_sim::TraceSet,
    plan: CrashPlan,
) -> (RunOutcome, ConsistencyReport) {
    let mut s = make_scheme(scheme, config);
    let mut engine = Engine::new(config, s.as_mut());
    engine.enable_spec();
    let out = engine.run_with_plan(streams, Some(plan));
    let crash = out.crash.clone().expect("crash injected");
    assert_eq!(crash.spec, Some(crash.consistency.clone()), "{scheme}");
    (out, crash.consistency)
}

/// On every scheme of the clean matrix, under every event-indexed fault
/// model, the one verdict must be "consistent" (these schemes are
/// correct), and `CrashOutcome::spec` must agree with it.
#[test]
fn spec_agrees_with_oracle_across_the_clean_matrix() {
    let config = SimConfig::table_ii(2);
    let w = workload_by_name("Hash").expect("Hash workload");
    let streams = TraceCache::global().get_or_build(&w, 2, 8, 42);
    for scheme in ALL_SCHEMES {
        let mut s = make_scheme(scheme, &config);
        let clean = Engine::new(&config, s.as_mut()).run(&streams, None);
        let total = clean.pm.events().total();
        assert!(total > 2, "{scheme}: too few durability events to crash");
        for fault in [
            FaultModel::perfect_adr(),
            FaultModel::torn_line(64),
            FaultModel::bounded_battery(64 * 1024),
        ] {
            for event in [total / 4, total / 2, (3 * total) / 4] {
                let plan = CrashPlan::at_event(event.max(1)).with_fault(fault);
                let (_, verdict) = judged_crash(scheme, &config, &streams, plan);
                assert!(
                    verdict.is_consistent(),
                    "{scheme} @ event {event}: clean scheme violated: {:?}",
                    verdict.violations
                );
                assert!(verdict.words_checked > 0, "{scheme}: checked no words");
            }
        }
    }
}

/// An undersized battery on Silo must violate, and the verdict must
/// localize the failure to a word of the recovered image, with the legal
/// value set excluding the recovered value and an event history attached.
#[test]
fn battery_violation_is_localized_to_the_exact_word() {
    let config = SimConfig::table_ii(2);
    let w = workload_by_name("Hash").expect("Hash workload");
    let streams = TraceCache::global().get_or_build(&w, 2, 8, 42);
    let mut s = make_scheme("Silo", &config);
    let clean = Engine::new(&config, s.as_mut()).run(&streams, None);
    let total = clean.pm.events().total();
    let plan = CrashPlan::at_event(total / 8).with_fault(FaultModel::bounded_battery(64));
    let (out, verdict) = judged_crash("Silo", &config, &streams, plan);
    assert!(
        !verdict.is_consistent(),
        "64 B battery must break Silo recovery"
    );
    let first = verdict.first_offender().expect("at least one violation");
    // The first offender is the lowest flagged address...
    for v in &verdict.violations {
        assert!(
            first.addr <= v.addr,
            "first_offender is not the lowest word"
        );
    }
    // ...names the value the recovered image holds there...
    assert_eq!(
        first.actual,
        out.pm.peek_word(first.addr),
        "recovered values disagree"
    );
    // ...and carries the evidence: an illegal value plus word history.
    assert!(
        !first.legal.contains(&first.actual),
        "violation lists the recovered value as legal"
    );
    assert!(
        !first.history.is_empty(),
        "violation carries no word-event history"
    );
    assert!(first.event > 0, "violation has no event index");
}

/// A corpus entry written by one search replays bit-for-bit: feeding its
/// recorded candidate back through the CLI as an exact `--crash-event`
/// run must reproduce the entry's coverage-signature digest.
#[test]
fn corpus_entry_replays_to_its_recorded_signature() {
    let dir = scratch("fuzz-corpus-replay");
    let corpus = dir.join("corpus");
    let out = evaluate()
        .args(["fuzz", "--txs", "16", "--seed", "42", "--bench", "Hash"])
        .args(["--scheme", "Silo", "--execs", "8", "--no-result-store"])
        .arg("--corpus")
        .arg(&corpus)
        .arg("--json-dir")
        .arg(dir.join("search"))
        .output()
        .expect("run evaluate fuzz");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let cell_dir = corpus.join("Hash").join("Silo");
    let mut entries: Vec<_> = std::fs::read_dir(&cell_dir)
        .expect("corpus cell dir exists")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .map(|e| e.path())
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "search persisted no corpus entries");
    let entry = JsonValue::parse(&std::fs::read_to_string(&entries[0]).expect("read entry"))
        .expect("entry is valid JSON");
    let fault = entry
        .get("fault")
        .and_then(JsonValue::as_str)
        .expect("fault");
    let arg = entry.get("arg").and_then(JsonValue::as_u64).expect("arg");
    let event = entry
        .get("event")
        .and_then(JsonValue::as_u64)
        .expect("event");
    let sig = entry.get("sig").and_then(JsonValue::as_str).expect("sig");

    let mut replay = evaluate();
    replay
        .args(["fuzz", "--txs", "16", "--seed", "42", "--bench", "Hash"])
        .args([
            "--scheme",
            "Silo",
            "--execs",
            "1",
            "--no-corpus",
            "--no-result-store",
        ])
        .args(["--fault", fault])
        .args(["--crash-event", &event.to_string()]);
    match fault {
        "battery" => {
            replay.args(["--battery-bytes", &arg.to_string()]);
        }
        "torn-line" => {
            replay.args(["--torn-keep", &arg.to_string()]);
        }
        _ => {}
    }
    if let Some(rc) = entry.get("rc").and_then(JsonValue::as_u64) {
        replay.args(["--recovery-crash", &rc.to_string()]);
    }
    let replay_out = replay
        .arg("--json-dir")
        .arg(dir.join("replay"))
        .output()
        .expect("run replay");
    assert!(
        replay_out.status.success(),
        "{}",
        String::from_utf8_lossy(&replay_out.stderr)
    );
    let report =
        JsonValue::parse(&std::fs::read_to_string(dir.join("replay").join("fuzz.json")).unwrap())
            .expect("replay report parses");
    let rows = report
        .get("derived")
        .expect("derived summary")
        .get("rows")
        .and_then(JsonValue::as_array)
        .expect("rows");
    let replay_sig = rows[0]
        .get("signature")
        .and_then(JsonValue::as_str)
        .expect("signature field");
    assert_eq!(
        replay_sig, sig,
        "replayed candidate produced a different coverage signature"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The printed `minimal repro:` command — including the arrival-process
/// ident for open-system runs — must reproduce the violation and the
/// first-offending-word line verbatim when fed back through the CLI.
#[test]
fn emitted_repro_round_trips_through_the_cli() {
    let dir = scratch("fuzz-repro-roundtrip");
    let out = evaluate()
        .args(["fuzz", "--txs", "16", "--seed", "42", "--bench", "Hash"])
        .args([
            "--scheme",
            "Silo",
            "--fault",
            "battery",
            "--battery-bytes",
            "64",
        ])
        .args(["--execs", "6", "--arrival", "poisson2000"])
        .args(["--no-corpus", "--no-result-store"])
        .arg("--json-dir")
        .arg(dir.join("search"))
        .output()
        .expect("run evaluate fuzz");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("total: 0 violations"),
        "undersized battery found nothing:\n{stdout}"
    );
    let word_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("first offending word:"))
        .expect("violation names its first offending word")
        .trim()
        .to_string();
    let repro = stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("minimal repro: evaluate "))
        .expect("violation prints a repro command");
    assert!(
        repro.contains("--arrival poisson2000"),
        "repro dropped the arrival ident: {repro}"
    );

    let mut args: Vec<&str> = repro.split_whitespace().collect();
    args.extend(["--no-result-store"]);
    let replay_out = evaluate()
        .args(&args)
        .arg("--json-dir")
        .arg(dir.join("replay"))
        .output()
        .expect("run repro");
    assert!(
        replay_out.status.success(),
        "{}",
        String::from_utf8_lossy(&replay_out.stderr)
    );
    let replay_stdout = String::from_utf8_lossy(&replay_out.stdout);
    assert!(
        replay_stdout.contains("total: 1 violations across 1 executions"),
        "repro did not reproduce exactly one violation:\n{replay_stdout}"
    );
    assert!(
        replay_stdout.contains(&word_line),
        "repro localized a different word:\nwant {word_line}\ngot:\n{replay_stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
