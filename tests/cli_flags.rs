//! The `evaluate` command line against its flag tables.
//!
//! Every command line that scripts, CI, the nightly workflow, the
//! benchmark harness and the two repro printers run must be accepted, and
//! every line below that asks for a flag no experiment reads, a value out
//! of range, or a name nothing knows must be a usage error naming its
//! token — checked before any experiment is built.

use silo_bench::{registry, Invocation, UsageError};

/// `evaluate <line>` parsed against the tables.
fn parse(line: &str) -> Result<Invocation, UsageError> {
    let argv: Vec<String> = std::iter::once("evaluate")
        .chain(line.split_whitespace())
        .map(str::to_string)
        .collect();
    Invocation::parse(&argv)
}

#[test]
fn every_line_that_must_keep_working_is_accepted() {
    let lines = [
        // scripts/ci.sh smoke
        "all --txs 40 --jobs 2 --no-result-store --no-corpus --json-dir target/reports-ci-all",
        "fig11 --txs 600 --jobs 2 --no-result-store --json-dir target/reports-ci-fig11",
        "fig14 --txs 600 --jobs 2 --no-result-store --json-dir target/reports-ci-fig14",
        "fig11 --txs 200 --jobs 2 --json-dir target/reports-ci-smoke",
        "fig11 --txs 200 --jobs 8 --no-result-store --json-dir target/reports-ci-cache/cached",
        "fig11 --txs 200 --jobs 1 --no-trace-cache --no-result-store \
         --json-dir target/reports-ci-cache/uncached",
        "fig11 --txs 200 --jobs 4 --json-dir target/reports-ci-store/cold",
        "profile --txs 120 --jobs 2 --json-dir target/reports-ci-profile",
        "profile --txs 60 --bench Hash --jobs 2 --trace-events target/ci-events.jsonl \
         --json-dir target/reports-ci-events",
        "profile --txs 600 --jobs 8 --no-result-store --json-dir target/reports-ci-det/j8",
        "latency --txs 240 --bench Hash --jobs 1 --no-result-store --json-dir target/lat/j1",
        "crashfuzz --txs 16 --bench Hash --no-result-store --no-checkpoints --jobs 2 \
         --json-dir target/reports-ci-gold/nockpt-j2",
        "crashfuzz --txs 16 --bench Hash --no-result-store --jobs 8 --json-dir target/gold",
        "crashfuzz --txs 16 --bench Hash --jobs 2",
        "crashfuzz --txs 16 --bench Hash --scheme Silo --fault battery --battery-bytes 64 \
         --jobs 2",
        "crashfuzz --txs 16 --bench msqueue --jobs 2",
        "crashfuzz --txs 16 --bench treiber --jobs 2",
        "crashfuzz --txs 16 --bench zipfmix --jobs 2",
        // scripts/ci.sh fuzz
        "fuzz --txs 16 --bench Hash --scheme Silo --fault battery --battery-bytes 64 \
         --execs 8 --no-corpus --jobs 2",
        "fuzz --txs 16 --execs 6 --jobs 1 --no-result-store --corpus target/ci-fuzz-corpus-j1 \
         --json-dir target/reports-ci-fuzz/j1",
        // scripts/ci.sh bench
        "crashfuzz --txs 8000 --points 96 --jobs 1 --scheme Silo --bench Hash \
         --fault op-boundary --no-result-store --json-dir target/reports-ci-ckpt/ckpt",
        "crashfuzz --txs 8000 --points 96 --jobs 1 --scheme Silo --bench Hash \
         --fault op-boundary --no-result-store --no-checkpoints \
         --json-dir target/reports-ci-ckpt/scratch",
        "fuzz --no-corpus --txs 200 --jobs 1 --no-result-store --json-dir target/fuzz-rss",
        // .github/workflows/fuzz-nightly.yml
        "fuzz --txs 32 --execs 256 --jobs 4 --no-result-store --corpus target/fuzz-corpus \
         --json-dir target/reports-nightly",
        // perfbench/run.py
        "fig11 --txs 600 --seed 42 --jobs 2 --json-dir run/figgrid",
        "fig12 --txs 600 --seed 7 --jobs 2 --json-dir run/warm",
        "fig14 --txs 600 --seed 42 --jobs 2 --json-dir run/figgrid",
        "crashfuzz --seed 42 --jobs 2 --json-dir run/crash",
        "fuzz --no-corpus --seed 42 --jobs 2 --json-dir run/crash",
        // crashfuzz's repro printer, under each fault model
        "crashfuzz --scheme Silo --bench Hash --txs 2 --seed 42 --fault battery \
         --battery-bytes 64 --point 1020",
        "crashfuzz --scheme LAD --bench zipfmix --txs 16 --seed 42 --fault torn-line \
         --torn-keep 64 --point 1169",
        "crashfuzz --scheme Base --bench Hash --txs 4 --seed 7 --fault op-boundary \
         --point 52000",
        // fuzz's repro printer, with and without the optional flags
        "fuzz --scheme Silo --bench Hash --txs 16 --seed 42 --fault battery \
         --battery-bytes 64 --crash-event 312 --recovery-crash 3 --arrival poisson2000 \
         --execs 1 --no-corpus",
        "fuzz --scheme Silo --bench Hash --txs 16 --seed 42 --fault torn-line --torn-keep 48 \
         --crash-event 9 --execs 1 --no-corpus",
        "fuzz --scheme SwLog --bench treiber --txs 16 --seed 42 --fault adr --crash-event 17 \
         --arrival bursty200x64i50000 --execs 1 --no-corpus",
    ];
    for line in lines {
        if let Err(err) = parse(line) {
            panic!("`evaluate {line}` must be accepted: {err}");
        }
    }
}

#[test]
fn accepted_lines_reach_the_experiments_as_typed_values() {
    let inv = parse(
        "crashfuzz --scheme Silo --bench Hash,msqueue --txs 2 --seed 9 --fault battery \
         --battery-bytes 64 --point 1020",
    )
    .expect("repro line");
    assert_eq!(inv.specs.len(), 1);
    let p = inv.params(&inv.specs[0]);
    assert_eq!((p.txs, p.seed), (2, 9));
    assert_eq!(p.benches, ["Hash", "msqueue"]);
    assert_eq!(inv.line.int("--point"), Some(1020));
    assert_eq!(inv.line.text("--fault"), Some("battery"));
    let cells = inv.specs[0].build(&p);
    assert_eq!(cells.len(), 2, "one Silo battery cell per workload");

    let all = parse("all --txs 40 --no-corpus").expect("the `all` pin");
    assert_eq!(all.specs.len(), registry::all().len());
    for spec in &all.specs {
        assert_eq!(all.params(spec).txs, 40, "{}", spec.name);
    }
}

#[test]
fn every_bad_line_is_a_usage_error_naming_its_token() {
    for (line, token) in [
        (
            "crashfuzz --bench Hash --scheme Silo --fault battery --battery-byte 64",
            "--battery-byte",
        ),
        ("fig13 --cores 4", "--cores"),
        ("fig04 --txz 100", "--txz"),
        ("fig04 --bench Nope", "--bench"),
        ("fig04 --fault battery", "--fault"),
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
        // Ranges, companions, and `all`, where a value must satisfy every
        // experiment that declares the flag.
        ("fig04 --txs 0", "--txs"),
        ("fig11 --jobs 0", "--jobs"),
        ("compare --cores 256", "--cores"),
        ("crashfuzz --points 0", "--points"),
        ("fuzz --execs 0", "--execs"),
        ("crashfuzz --torn-keep 257", "--torn-keep"),
        ("crashfuzz --point 5", "--point"),
        ("fuzz --crash-event 5", "--crash-event"),
        ("fuzz --fault adr --crash-event 0", "--crash-event"),
        ("fuzz --fault adr --recovery-crash 2", "--recovery-crash"),
        (
            "fuzz --fault battery --crash-event 1777 --recovery-crash 0",
            "--recovery-crash",
        ),
        ("fuzz --arrival poisson", "poisson"),
        ("crashfuzz --scheme Silo,Nope", "Nope"),
        ("all --fault adr", "adr"),
        ("all --fault op-boundary", "op-boundary"),
        ("fig04 --seed 4x", "4x"),
        ("nosuch --txs 1", "nosuch"),
    ] {
        match parse(line) {
            Ok(_) => panic!("`evaluate {line}` must be rejected"),
            Err(err) => assert!(
                err.to_string().contains(token),
                "`evaluate {line}`: {err:?} does not name {token}"
            ),
        }
    }
}
