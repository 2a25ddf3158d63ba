//! `evaluate`, the repository's one entry point: runs any registered
//! experiment (or all of them) across parallel workers and writes one
//! JSON report per experiment.
//!
//! ```text
//! evaluate <experiment|all> [flags]
//! evaluate list
//! evaluate check <report.json>
//! evaluate store-gc
//! ```
//!
//! Experiments resolve by registry name (`fig11`, case-insensitively).
//! The whole command line is checked against the flag tables
//! (`silo_bench::flags`, printed by `evaluate --help`) before anything
//! runs; a line they reject is one `error:` line and exit 2. The text
//! output is identical at any `--jobs`. Reports land in `target/reports/`
//! unless `--json-dir` says otherwise; progress lines go to stderr so
//! stdout stays comparable.

use std::path::Path;

use silo_bench::{
    default_jobs, flags, registry, run_experiment_checked, write_report, EventTraceSink,
    ExperimentSpec, Invocation, ResultStore, TraceCache,
};
use silo_types::JsonValue;

const USAGE: &str = "\
usage: evaluate <experiment|all> [flags]
       evaluate list
       evaluate check <report.json>
       evaluate store-gc

Every flag is checked before anything runs: an unknown, repeated,
valueless, out-of-range or undeclared flag, a stray argument, or an
unknown name is an error (exit 2). A render failure (a stored outcome
that lacks what the report reads, say) exits 4.

check validates a report: a string \"experiment\", a \"cells\" array, and
exact integer counters in every cycle breakdown (exit 1 otherwise).

Cell outcomes are memoized on disk under target/result-store/ (override
with SILO_RESULT_STORE=<dir>), keyed by code fingerprint and spec hash,
so re-evaluating unchanged work replays stored results without
generating a trace; `evaluate store-gc` prunes entries left by old
builds.

Run `evaluate list` for the registered experiments.";

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Some("-h" | "--help") => println!("{USAGE}\n\n{}", flags::help()),
        Some("list") => {
            for spec in registry::all() {
                println!("{:<24}{}", spec.name, spec.description);
            }
        }
        Some("check") => check(args.get(2).map(String::as_str)),
        Some("store-gc") => match ResultStore::global().gc() {
            Ok((dirs, files)) => {
                println!("result store gc: removed {dirs} stale fingerprint dirs, {files} entries")
            }
            Err(err) => {
                eprintln!("error: result store gc: {err}");
                std::process::exit(1);
            }
        },
        Some(_) => {
            let invocation = Invocation::parse(&args).unwrap_or_else(|err| {
                eprintln!("error: {err}");
                std::process::exit(2);
            });
            evaluate(&invocation);
        }
    }
}

/// Runs a checked invocation's experiments, after switching the result
/// store and the event trace as its flags say.
fn evaluate(invocation: &Invocation) {
    let line = &invocation.line;
    let trace_events = line.text("--trace-events");
    if let Some(path) = trace_events {
        if let Err(err) = EventTraceSink::global().enable(Path::new(path)) {
            eprintln!("error: opening event trace {path}: {err}");
            std::process::exit(1);
        }
    }
    // A replayed outcome emits no events, so a run that asks for the
    // timeline must compute every cell fresh.
    ResultStore::global().set_enabled(!line.switch("--no-result-store") && trace_events.is_none());
    for spec in &invocation.specs {
        run(spec, invocation);
    }
    if let Some(path) = trace_events {
        if let Err(err) = EventTraceSink::global().finish() {
            eprintln!("error: writing event trace {path}: {err}");
            std::process::exit(1);
        }
    }
}

fn run(spec: &ExperimentSpec, invocation: &Invocation) {
    let line = &invocation.line;
    let params = invocation.params(spec);
    let jobs = line.int("--jobs").map_or_else(default_jobs, |j| j as usize);
    let dir = line.text("--json-dir").unwrap_or("target/reports");

    let start = std::time::Instant::now();
    let run = run_experiment_checked(spec, &params, jobs).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        std::process::exit(4);
    });
    print!("{}", run.text);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    // Cumulative process-wide counts; stderr so stdout stays comparable.
    let (c, store) = (TraceCache::global().stats(), ResultStore::global());
    let s = store.stats();
    eprintln!(
        "[trace-cache] {} unique keys, {} generated, {} hits",
        c.unique_keys, c.generations, c.hits
    );
    eprintln!(
        "[result-store] {} hits, {} misses, {} invalidated{}",
        s.hits,
        s.misses,
        s.invalidated,
        if store.enabled() { "" } else { " (disabled)" }
    );
    match write_report(&run, Path::new(dir), jobs, wall_ms) {
        Ok(path) => eprintln!(
            "[{}] done in {:.0} ms ({} jobs), report {}",
            spec.name,
            wall_ms,
            jobs,
            path.display()
        ),
        Err(err) => {
            eprintln!("error: writing report for {}: {err}", spec.name);
            std::process::exit(1);
        }
    }
}

fn check(path: Option<&str>) {
    let Some(path) = path else {
        eprintln!("usage: evaluate check <report.json>");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
        eprintln!("error: reading {path}: {err}");
        std::process::exit(1);
    });
    let v = JsonValue::parse(&text).unwrap_or_else(|err| {
        eprintln!("error: {path} is not well-formed JSON: {err}");
        std::process::exit(1);
    });
    let (Some(name), Some(cells)) = (
        v.get("experiment").and_then(JsonValue::as_str),
        v.get("cells").and_then(JsonValue::as_array),
    ) else {
        eprintln!(
            "error: {path} is not a report (needs a string \"experiment\" and a \"cells\" array)"
        );
        std::process::exit(1);
    };
    let mut breakdowns = 0usize;
    let mut violations = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let Some(stats) = cell.get("stats") else {
            continue;
        };
        let Some(b) = stats.get("breakdown") else {
            continue;
        };
        breakdowns += 1;
        violations.extend(breakdown_violations(i, stats, b));
    }
    if !violations.is_empty() {
        for msg in &violations {
            eprintln!("error: {path}: {msg}");
        }
        std::process::exit(1);
    }
    if breakdowns > 0 {
        println!(
            "{path}: ok (experiment {name}, {} cells, {breakdowns} breakdowns validated)",
            cells.len()
        );
    } else {
        println!("{path}: ok (experiment {name}, {} cells)", cells.len());
    }
}

/// Reads an exact cycle counter, recording a violation when it is missing
/// or not an unsigned integer (so a damaged counter never reads as 0).
fn counter(v: Option<&JsonValue>, what: impl FnOnce() -> String, out: &mut Vec<String>) -> u64 {
    v.and_then(JsonValue::as_u64).unwrap_or_else(|| {
        out.push(format!("{} is missing or not an integer", what()));
        0
    })
}

/// Validates one cell's cycle-attribution invariant: each per-core
/// category row holds one counter per category and sums to that core's
/// reported clock, per-category totals match the column sums, and the
/// grand total matches everything.
fn breakdown_violations(cell: usize, stats: &JsonValue, b: &JsonValue) -> Vec<String> {
    let mut out = Vec::new();
    let categories: Vec<String> = b
        .get("categories")
        .and_then(JsonValue::as_array)
        .map(|cs| {
            cs.iter()
                .filter_map(|c| c.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    let (Some(rows), Some(cores)) = (
        b.get("per_core").and_then(JsonValue::as_array),
        stats.get("per_core").and_then(JsonValue::as_array),
    ) else {
        out.push(format!(
            "cell {cell}: breakdown.per_core or per_core is not an array"
        ));
        return out;
    };
    if rows.len() != cores.len() {
        out.push(format!(
            "cell {cell}: breakdown covers {} cores but per_core reports {}",
            rows.len(),
            cores.len()
        ));
        return out;
    }
    // Sums in u128: adversarial counters near u64::MAX must not overflow.
    let mut columns = vec![0u128; categories.len()];
    for (i, (row, core)) in rows.iter().zip(cores).enumerate() {
        let cycles = counter(
            core.get("cycles"),
            || format!("cell {cell}: per_core[{i}].cycles"),
            &mut out,
        );
        let row = row.as_array().unwrap_or(&[]);
        if row.len() != categories.len() {
            out.push(format!(
                "cell {cell}: core {i} breakdown row has {} counters for {} categories",
                row.len(),
                categories.len()
            ));
            continue;
        }
        let mut sum = 0u128;
        for (k, x) in row.iter().enumerate() {
            let n = counter(
                Some(x),
                || format!("cell {cell}: core {i} {} counter", categories[k]),
                &mut out,
            );
            sum += u128::from(n);
            columns[k] += u128::from(n);
        }
        if sum != u128::from(cycles) {
            out.push(format!(
                "cell {cell}: core {i} categories sum to {sum}, clock is {cycles}"
            ));
        }
    }
    let Some(totals) = b.get("totals") else {
        out.push(format!("cell {cell}: breakdown has no totals object"));
        return out;
    };
    for (cat, &column) in categories.iter().zip(&columns) {
        let reported = counter(
            totals.get(cat),
            || format!("cell {cell}: totals.{cat}"),
            &mut out,
        );
        if u128::from(reported) != column {
            out.push(format!(
                "cell {cell}: totals.{cat} is {reported}, column sums to {column}"
            ));
        }
    }
    let grand: u128 = columns.iter().sum();
    let total = counter(
        totals.get("total"),
        || format!("cell {cell}: totals.total"),
        &mut out,
    );
    if u128::from(total) != grand {
        out.push(format!(
            "cell {cell}: totals.total is {total}, categories sum to {grand}"
        ));
    }
    out
}
