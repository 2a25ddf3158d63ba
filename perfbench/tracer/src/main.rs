//! Traced in-process replay of one perfbench workload.
//!
//! `run.py --trace 1` spawns this program once per workload, each in a
//! fresh process, so the trace cache and the result store's memory tier
//! start cold exactly as they do for the timed `evaluate` invocations.
//! It rebuilds the workload's cells through `registry::find` and
//! `ExperimentSpec::build`, then repeats every cell's recipe serially
//! through the public calls of each layer, recording a span around each
//! call. That replay is the traced pass (pass 0). Probes the pass cannot
//! contain run afterwards as pass 1: one `run_cells` at the untraced job
//! count, cold result-store writes, from-scratch and spec-enabled crash
//! executions, and setup-only and cycle-profiled engine runs.
//!
//! Every replayed cell is checked against the untraced pass's report
//! (`--reports`): simulated statistics must match cell by cell, and the
//! re-rendered report body must match. Spans, counters and mismatches
//! go to `--out` as one JSON document, from which `run.py` derives the
//! per-layer metrics.
//!
//! ```text
//! perfbench-tracer <figgrid|crash|warm> --seed S --txs N --jobs J
//!                  --reports DIR --out FILE [--store DIR]
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use silo_bench::{
    make_scheme, registry, render_finished, run_cells, run_profiled, write_report, Batched,
    CellLabel, CellOutcome, CellSpec, CellWork, ExpParams, ExperimentSpec, FaultSpec, ResultStore,
    SchemeSpec, Served, TraceCache, TraceCacheStats, FIG11_BENCHMARKS,
};
use silo_sim::{
    CheckpointPolicy, CheckpointSet, CrashPlan, CycleCategory, Engine, FaultModel, RunOutcome,
    SimConfig, TraceSet, Transaction,
};
use silo_types::{Cycles, JsonValue};
use silo_workloads::{workload_by_name, Workload};

/// Core count of the fig14 large-transaction cells.
const LARGE_TX_CORES: usize = 8;
/// Core count of the crashfuzz and fuzz cells.
const CRASH_CORES: usize = 2;

/// One timed call: `[start, end)` in nanoseconds since the program
/// started, the enclosing span, and the pass it belongs to.
struct Span {
    name: String,
    start: u64,
    end: u64,
    parent: Option<usize>,
    pass: u64,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u64,
    counters: BTreeMap<String, f64>,
    mismatches: Vec<String>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span. A span named `<layer>.<call>` is time spent in
/// that layer; other names (`pass`, `experiment:..`, `cell:..`) only
/// group their children.
fn span<T>(name: impl Into<String>, f: impl FnOnce() -> T) -> T {
    let name = name.into();
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.spans.len();
        let (parent, pass) = (r.open.last().copied(), r.pass);
        r.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            pass,
        });
        r.open.push(id);
        id
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[id].end = now_ns();
        r.open.pop();
    });
    out
}

fn count(name: &str, n: f64) {
    REC.with(|r| *r.borrow_mut().counters.entry(name.to_string()).or_default() += n);
}

fn mismatch(msg: String) {
    eprintln!("mismatch: {msg}");
    REC.with(|r| r.borrow_mut().mismatches.push(msg));
}

fn start_probes() {
    REC.with(|r| r.borrow_mut().pass = 1);
}

/// Forwards to the wrapped workload and times trace generation. The trace
/// cache calls `build_trace` only on a miss, so each
/// `workloads.build_trace` span is one generated trace.
struct Timed<W>(W);

impl<W: Workload> Workload for Timed<W> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn trace_ident(&self) -> String {
        self.0.trace_ident()
    }

    fn raw_streams(&self, cores: usize, txs_per_core: usize, seed: u64) -> Vec<Vec<Transaction>> {
        self.0.raw_streams(cores, txs_per_core, seed)
    }

    fn build_trace(&self, cores: usize, txs_per_core: usize, seed: u64) -> TraceSet {
        count("workloads.traces", 1.0);
        span("workloads.build_trace", || {
            self.0.build_trace(cores, txs_per_core, seed)
        })
    }
}

fn workload(name: &str) -> Timed<Box<dyn Workload>> {
    Timed(workload_by_name(name).unwrap_or_else(|| panic!("unknown workload {name:?}")))
}

/// Resolves a trace through the process-wide cache, as every cell does.
fn trace(w: &dyn Workload, cores: usize, txs_per_core: usize, seed: u64) -> TraceSet {
    span("trace_cache.get", || {
        TraceCache::global().get_or_build(w, cores, txs_per_core, seed)
    })
}

/// One `Engine::run` with a fresh scheme, as the cells run it.
fn engine_run(scheme: &str, config: &SimConfig, trace: &TraceSet) -> RunOutcome {
    let out = span(format!("engine.run:{scheme}"), || {
        let mut s = make_scheme(scheme, config);
        Engine::new(config, s.as_mut()).run(trace, None)
    });
    count("engine.events", out.pm.events().total() as f64);
    out
}

struct Args {
    workload: String,
    seed: u64,
    txs: usize,
    jobs: usize,
    reports: PathBuf,
    out: PathBuf,
    store: Option<PathBuf>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let number = |flag: &str| -> u64 {
        let raw = value(flag).unwrap_or_else(|| usage(&format!("{flag} is required")));
        raw.parse()
            .unwrap_or_else(|_| usage(&format!("invalid value {raw:?} for {flag}")))
    };
    let workload = argv.first().cloned().unwrap_or_default();
    if !matches!(workload.as_str(), "figgrid" | "crash" | "warm") {
        usage(&format!("unknown workload {workload:?}"));
    }
    Args {
        workload,
        seed: number("--seed"),
        txs: number("--txs") as usize,
        jobs: number("--jobs").max(1) as usize,
        reports: value("--reports")
            .map(PathBuf::from)
            .unwrap_or_else(|| usage("--reports is required")),
        out: value("--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| usage("--out is required")),
        store: value("--store").map(PathBuf::from),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench-tracer <figgrid|crash|warm> --seed S --txs N --jobs J \
         --reports DIR --out FILE [--store DIR]"
    );
    std::process::exit(2);
}

/// The experiment, its parameters and its cells, exactly as the timed
/// `evaluate` invocation builds them: the figure experiments take
/// `--txs`, the crash experiments keep their defaults, and `fuzz` runs
/// without a corpus.
fn build(name: &str, args: &Args) -> (ExperimentSpec, ExpParams, Vec<CellSpec>) {
    let spec = registry::find(name).unwrap_or_else(|| panic!("{name} is not registered"));
    let mut p = ExpParams::defaults(&spec);
    p.seed = args.seed;
    p.extra = vec!["evaluate".to_string(), name.to_string()];
    match name {
        "crashfuzz" => {}
        "fuzz" => p.extra.push("--no-corpus".to_string()),
        _ => p.txs = args.txs,
    }
    let cells = spec.build(&p);
    (spec, p, cells)
}

fn read_report(dir: &Path, name: &str) -> JsonValue {
    let path = dir.join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    JsonValue::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

/// A report without its run envelope (`jobs`, `wall_ms`).
fn body(report: &JsonValue) -> String {
    match report {
        JsonValue::Obj(fields) => JsonValue::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "jobs" && k != "wall_ms")
                .cloned()
                .collect(),
        )
        .to_string(),
        other => other.to_string(),
    }
}

fn report_cell(report: &JsonValue, i: usize) -> &JsonValue {
    report
        .get("cells")
        .and_then(JsonValue::as_array)
        .and_then(|cells| cells.get(i))
        .unwrap_or_else(|| panic!("report has no cell {i}"))
}

fn cell_value(cell: &JsonValue, key: &str) -> f64 {
    cell.get("values")
        .and_then(|v| v.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("report cell has no value {key:?}"))
}

/// The replayed statistics must be the ones the timed invocation reported.
fn check_stats(report: &JsonValue, i: usize, label: &CellLabel, outcome: &CellOutcome) {
    let want = report_cell(report, i)
        .get("stats")
        .map(JsonValue::to_string);
    let got = outcome.stats.as_ref().map(|s| s.to_json().to_string());
    if want != got {
        mismatch(format!(
            "{}: simulated statistics differ from the report",
            label.describe()
        ));
    }
}

/// Renders and writes the report as the CLI does. Returns its body, which
/// [`check_body`] compares with the timed invocation's after the pass.
fn render(
    spec: &ExperimentSpec,
    p: &ExpParams,
    finished: &[(CellLabel, CellOutcome)],
    args: &Args,
) -> JsonValue {
    let run = span("report.render", || render_finished(spec, p, finished));
    let dir = args.out.with_extension("reports");
    span("report.write", || write_report(&run, &dir, args.jobs, 0.0))
        .unwrap_or_else(|e| panic!("writing {} report: {e}", spec.name));
    run.body
}

/// The replayed cells' statistics and the re-rendered report body must be
/// the timed invocation's.
fn check_replay(
    name: &str,
    finished: &[(CellLabel, CellOutcome)],
    rendered: &JsonValue,
    report: &JsonValue,
) {
    for (i, (label, outcome)) in finished.iter().enumerate() {
        check_stats(report, i, label, outcome);
    }
    if rendered.to_string() != body(report) {
        mismatch(format!(
            "{name}: re-rendered report differs from the timed one"
        ));
    }
}

/// The timed invocations' reports, read before the traced pass starts so
/// that parsing them is not counted in it.
fn read_reports(args: &Args, names: &[&str]) -> Vec<JsonValue> {
    names
        .iter()
        .map(|n| read_report(&args.reports, n))
        .collect()
}

/// Replays a figure cell: a steady-state delta (fig11) or a fig14
/// large-transaction run.
fn replay_figure_cell(cell: &CellSpec) -> CellOutcome {
    match &cell.work {
        CellWork::Delta(run) => {
            let SchemeSpec::Named(scheme) = &run.scheme else {
                panic!("grid cells run named schemes")
            };
            assert!(
                run.workload.batch == 1 && run.workload.arrival.is_none(),
                "grid cells run plain workloads"
            );
            let config = run.config.resolve(run.cores);
            let w = workload(&run.workload.name);
            let short = trace(&w, run.cores, run.txs_per_core, cell.seed);
            let short = engine_run(scheme, &config, &short);
            let long = trace(&w, run.cores, run.txs_per_core * 2, cell.seed);
            let long = engine_run(scheme, &config, &long);
            count(
                "engine.delta_events",
                (short.pm.events().total() + long.pm.events().total()) as f64,
            );
            CellOutcome::from_stats(long.stats.delta_from(&short.stats))
        }
        CellWork::LargeTx {
            workload: name,
            mult,
            txs,
        } => {
            // The fig14 recipe: size the batch from a 50-transaction probe
            // trace so that 1x fills the 20-entry log buffer, then run Silo.
            let probe = trace(&workload(name), 1, 50, cell.seed);
            let probe0 = &probe.streams()[0];
            let avg_words = probe0[1..]
                .iter()
                .map(|t| t.write_set_words())
                .sum::<usize>() as f64
                / (probe0.len() - 1) as f64;
            let group = ((20.0 / avg_words).ceil() as usize).max(1) * mult;
            let outer = (txs / LARGE_TX_CORES).max(group) / group;
            let batched = Timed(Batched::new(workload(name), group));
            let t = trace(&batched, LARGE_TX_CORES, outer, cell.seed);
            let stats = engine_run("Silo", &SimConfig::table_ii(LARGE_TX_CORES), &t).stats;
            let ops = stats.txs_committed * group as u64;
            let overflow = stats.scheme_stats.overflow_events;
            let tp = ops as f64 / stats.sim_cycles.as_u64() as f64;
            let wr = stats.media_writes() as f64 / ops as f64;
            CellOutcome::from_stats(stats)
                .with_value("tp", tp)
                .with_value("wr", wr)
                .with_value("overflow", overflow as f64)
        }
        other => panic!("figure cells are deltas or large transactions, not {other:?}"),
    }
}

/// Resolves the traces `CellSpec::trace_fingerprint` asks for, so their
/// generation is timed before the result store computes the key.
fn resolve_key_traces(cell: &CellSpec) {
    match &cell.work {
        CellWork::Delta(run) => {
            let w = workload(&run.workload.name);
            trace(&w, run.cores, run.txs_per_core, cell.seed);
            trace(&w, run.cores, run.txs_per_core * 2, cell.seed);
        }
        CellWork::LargeTx { workload: name, .. } => {
            trace(&workload(name), 1, 50, cell.seed);
        }
        other => panic!("warm cells are deltas or large transactions, not {other:?}"),
    }
}

/// The crash plan crashfuzz derives from a cell's fault model.
fn plan_for(fault: FaultSpec, point: u64) -> CrashPlan {
    match fault {
        FaultSpec::OpBoundary => CrashPlan::at_cycle(Cycles::new(point)),
        FaultSpec::TornLine(keep) => {
            CrashPlan::at_event(point).with_fault(FaultModel::torn_line(keep))
        }
        FaultSpec::Battery(bytes) => {
            CrashPlan::at_event(point).with_fault(FaultModel::bounded_battery(bytes))
        }
    }
}

/// The crash points a crashfuzz cell scanned, read from the timed report.
fn report_points(report: &JsonValue, i: usize) -> Vec<u64> {
    let cell = report_cell(report, i);
    (0..cell_value(cell, "points") as usize)
        .map(|j| cell_value(cell, &format!("p{j}_at")) as u64)
        .collect()
}

/// A clean reference run and its checkpoints, shared by the fault-model
/// cells of one scheme and workload as crashfuzz shares them.
type CleanRuns = HashMap<(String, String, usize), (RunOutcome, CheckpointSet)>;

fn replay_crash_sweep(cell: &CellSpec, i: usize, report: &JsonValue, clean: &mut CleanRuns) {
    let CellWork::CrashSweep {
        scheme,
        workload: name,
        txs_per_core,
        fault,
        ..
    } = &cell.work
    else {
        panic!("crashfuzz cells are sweeps")
    };
    let config = SimConfig::table_ii(CRASH_CORES);
    let streams = trace(&workload(name), CRASH_CORES, *txs_per_core, cell.seed);
    let key = (scheme.clone(), name.clone(), *txs_per_core);
    let (out, ckpts) = clean.entry(key).or_insert_with(|| {
        let recorded = span("checkpoint.record", || {
            let mut s = make_scheme(scheme, &config);
            Engine::new(&config, s.as_mut()).run_recording(&streams, CheckpointPolicy::default())
        });
        count("checkpoint.count", recorded.1.len() as f64);
        recorded
    });
    check_stats(
        report,
        i,
        &cell.label,
        &CellOutcome::from_stats(out.stats.clone()),
    );
    for (j, point) in report_points(report, i).into_iter().enumerate() {
        let plan = plan_for(*fault, point);
        let run = match ckpts.nearest(plan.trigger) {
            Some(cp) => {
                count("crash.resumed", 1.0);
                span("crash.resume", || {
                    let mut s = make_scheme(scheme, &config);
                    Engine::new(&config, s.as_mut()).run_resumed(&streams, plan, cp)
                })
            }
            None => span("crash.scratch", || {
                let mut s = make_scheme(scheme, &config);
                Engine::new(&config, s.as_mut()).run_with_plan(&streams, Some(plan))
            }),
        };
        count("crash.execs", 1.0);
        let violations = run
            .crash
            .as_ref()
            .expect("crash injected")
            .consistency
            .violations
            .len();
        let reported = cell_value(report_cell(report, i), &format!("p{j}_viol"));
        if violations > 0 || reported != 0.0 {
            mismatch(format!(
                "{} point {point}: {violations} violations replayed, {reported} reported",
                cell.label.describe()
            ));
        }
    }
}

fn figgrid(args: &Args) -> (TraceCacheStats, Vec<String>) {
    let names = ["fig11", "fig14"];
    let reports = read_reports(args, &names);
    let mut built = Vec::new();
    let mut replayed = Vec::new();
    span("pass", || {
        for name in names {
            span(format!("experiment:{name}"), || {
                let (spec, p, cells) = build(name, args);
                let mut finished = Vec::new();
                for cell in &cells {
                    let outcome = span(format!("cell:{}", cell.label.describe()), || {
                        replay_figure_cell(cell)
                    });
                    finished.push((cell.label.clone(), outcome));
                }
                let body = render(&spec, &p, &finished, args);
                replayed.push((finished, body));
                built.push((name, cells));
            });
        }
    });
    for ((name, (finished, body)), report) in names.iter().zip(&replayed).zip(&reports) {
        check_replay(name, finished, body, report);
    }
    let cache = TraceCache::global().stats();
    start_probes();
    runner_probe(args, &built);
    let fig11 = &built[0].1;
    // Setup-only runs: the same traces with 0 measured transactions bound
    // what an optimisation of the steady state alone can save.
    for cell in fig11 {
        let CellWork::Delta(run) = &cell.work else {
            continue;
        };
        let SchemeSpec::Named(scheme) = &run.scheme else {
            continue;
        };
        let config = run.config.resolve(run.cores);
        let w = workload_by_name(&run.workload.name).expect("grid workload");
        let t = TraceCache::global().get_or_build(&w, run.cores, 0, cell.seed);
        let out = span("probe.setup_only", || {
            let mut s = make_scheme(scheme, &config);
            Engine::new(&config, s.as_mut()).run(&t, None)
        });
        // A delta cell runs the setup twice: once in each of its two runs.
        count("probe.setup_events", 2.0 * out.pm.events().total() as f64);
    }
    for bench in FIG11_BENCHMARKS {
        let w = workload_by_name(bench).expect("figure workload");
        for scheme in ["Silo", "Base"] {
            let stats = span(format!("probe.profiled:{scheme}"), || {
                run_profiled(scheme, &*w, 8, (args.txs / 8).max(1), args.seed)
            });
            let b = stats.breakdown.expect("profiled runs carry a breakdown");
            for cat in CycleCategory::ALL {
                count(
                    &format!("cycles.{}.{scheme}", cat.name()),
                    b.category_total(cat) as f64,
                );
            }
        }
    }
    // Cold store writes against plain execution of the same 8-core cells.
    let store_dir = args.store.as_ref().expect("figgrid needs --store");
    let store = ResultStore::global();
    store.set_enabled(true);
    for cell in fig11.iter().filter(|c| c.label.cores == 8) {
        span("probe.store_cold", || store.get_or_run(cell));
        span("probe.execute", || cell.execute());
    }
    store.set_enabled(false);
    (cache, fingerprint_dirs(store_dir))
}

fn crash(args: &Args) -> (TraceCacheStats, Vec<String>) {
    let names = ["crashfuzz", "fuzz"];
    let reports = read_reports(args, &names);
    let mut built = Vec::new();
    let mut sweeps = Vec::new();
    let mut clean = CleanRuns::new();
    span("pass", || {
        for (name, report) in names.into_iter().zip(reports) {
            span(format!("experiment:{name}"), || {
                let (_, _, cells) = build(name, args);
                for (i, cell) in cells.iter().enumerate() {
                    span(format!("cell:{}", cell.label.describe()), || {
                        match &cell.work {
                            CellWork::CrashSweep { .. } => {
                                replay_crash_sweep(cell, i, &report, &mut clean);
                                sweeps.push((cell.clone(), report_points(&report, i)));
                            }
                            CellWork::Fuzz {
                                workload: name,
                                txs_per_core,
                                arrival: None,
                                ..
                            } => {
                                trace(&workload(name), CRASH_CORES, *txs_per_core, cell.seed);
                                let out = span("crash.fuzz", || cell.execute());
                                count("crash.execs", out.value("execs"));
                                if out.value("viols") != 0.0 {
                                    mismatch(format!(
                                        "{}: fuzz found violations",
                                        cell.label.describe()
                                    ));
                                }
                                check_stats(&report, i, &cell.label, &out);
                            }
                            other => panic!("unexpected crash cell {other:?}"),
                        }
                    });
                }
                built.push((name, cells));
            });
        }
    });
    let cache = TraceCache::global().stats();
    start_probes();
    runner_probe(args, &built);
    // The same crash points from t=0, without and with the spec machine.
    for (cell, points) in &sweeps {
        let CellWork::CrashSweep {
            scheme,
            workload: name,
            txs_per_core,
            fault,
            ..
        } = &cell.work
        else {
            continue;
        };
        let config = SimConfig::table_ii(CRASH_CORES);
        let w = workload_by_name(name).expect("crash workload");
        let streams = TraceCache::global().get_or_build(&w, CRASH_CORES, *txs_per_core, cell.seed);
        for &point in points {
            let plan = plan_for(*fault, point);
            span("probe.scratch", || {
                let mut s = make_scheme(scheme, &config);
                Engine::new(&config, s.as_mut()).run_with_plan(&streams, Some(plan))
            });
            let out = span("probe.spec", || {
                let mut s = make_scheme(scheme, &config);
                let mut engine = Engine::new(&config, s.as_mut());
                engine.enable_spec();
                engine.run_with_plan(&streams, Some(plan))
            });
            let spec_ok = out
                .crash
                .as_ref()
                .and_then(|c| c.spec.as_ref())
                .is_some_and(|s| s.is_consistent());
            if !spec_ok {
                mismatch(format!(
                    "{} point {point}: the spec machine flags the recovered image",
                    cell.label.describe()
                ));
            }
        }
    }
    (cache, Vec::new())
}

fn warm(args: &Args) -> (TraceCacheStats, Vec<String>) {
    let store_dir = args.store.clone().expect("warm needs --store");
    let fingerprints = fingerprint_dirs(&store_dir);
    let [fingerprint] = fingerprints.as_slice() else {
        panic!("the warm store must hold exactly one code fingerprint: {fingerprints:?}")
    };
    let names = ["fig11", "fig12", "fig14"];
    let reports = read_reports(args, &names);
    let mut built = Vec::new();
    let mut replayed = Vec::new();
    span("pass", || {
        for name in names {
            span(format!("experiment:{name}"), || {
                let (spec, p, cells) = build(name, args);
                // A fresh store per experiment: each timed invocation is a
                // new process whose memory tier starts empty.
                let store = ResultStore::new(store_dir.clone(), fingerprint);
                store.set_enabled(true);
                let mut finished = Vec::new();
                for cell in &cells {
                    let outcome = span(format!("cell:{}", cell.label.describe()), || {
                        resolve_key_traces(cell);
                        let (outcome, served) =
                            span("result_store.read", || store.get_or_run_traced(cell));
                        if served != Served::Disk {
                            mismatch(format!(
                                "{}: served by {}, not from disk",
                                cell.label.describe(),
                                served.name()
                            ));
                        }
                        outcome
                    });
                    finished.push((cell.label.clone(), outcome));
                }
                let body = render(&spec, &p, &finished, args);
                replayed.push((finished, body));
                if name != "fig12" {
                    built.push((name, cells));
                }
            });
        }
    });
    for ((name, (finished, body)), report) in names.iter().zip(&replayed).zip(&reports) {
        check_replay(name, finished, body, report);
    }
    let cache = TraceCache::global().stats();
    start_probes();
    // fig12 shares fig11's cells, which the global store's memory tier
    // would serve after fig11; the runner probe leaves it out.
    ResultStore::global().set_enabled(true);
    runner_probe(args, &built);
    ResultStore::global().set_enabled(false);
    (cache, fingerprints)
}

/// One `run_cells` per experiment at the untraced job count; `run.py`
/// compares its wall time with the serial cell time of the pass.
fn runner_probe(args: &Args, built: &[(&str, Vec<CellSpec>)]) {
    for (name, cells) in built {
        span(format!("probe.run_cells:{name}"), || {
            run_cells(cells.clone(), args.jobs)
        });
    }
}

/// The code-fingerprint directories under a result store.
fn fingerprint_dirs(store: &Path) -> Vec<String> {
    let mut dirs: Vec<String> = std::fs::read_dir(store)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().is_dir())
                .filter_map(|e| e.file_name().into_string().ok())
                .collect()
        })
        .unwrap_or_default();
    dirs.sort();
    dirs
}

fn write_output(args: &Args, cache: TraceCacheStats, fingerprints: Vec<String>) {
    let doc = REC.with(|r| {
        let r = r.borrow();
        let spans = r.spans.iter().map(|s| {
            JsonValue::Arr(vec![
                s.name.as_str().into(),
                s.start.into(),
                s.end.into(),
                s.parent.map_or(JsonValue::Null, JsonValue::from),
                s.pass.into(),
            ])
        });
        JsonValue::object()
            .field("workload", args.workload.as_str())
            .field("jobs", args.jobs)
            .field("spans", JsonValue::Arr(spans.collect()))
            .field(
                "counters",
                JsonValue::Obj(
                    r.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Float(*v)))
                        .collect(),
                ),
            )
            .field(
                "trace_cache",
                JsonValue::object()
                    .field("generations", cache.generations)
                    .field("hits", cache.hits)
                    .field("unique_keys", cache.unique_keys)
                    .build(),
            )
            .field("store_fingerprints", JsonValue::array(fingerprints))
            .field(
                "mismatches",
                JsonValue::array(r.mismatches.iter().map(String::as_str)),
            )
            .build()
    });
    std::fs::write(&args.out, format!("{doc}\n"))
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.out.display()));
}

fn main() {
    let args = parse_args();
    // The process-wide result store reads its directory once, at first use.
    if let Some(store) = &args.store {
        std::env::set_var("SILO_RESULT_STORE", store);
    }
    now_ns();
    let (cache, fingerprints) = match args.workload.as_str() {
        "figgrid" => figgrid(&args),
        "crash" => crash(&args),
        _ => warm(&args),
    };
    write_output(&args, cache, fingerprints);
}
