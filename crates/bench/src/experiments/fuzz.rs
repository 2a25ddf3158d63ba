//! `fuzz`: coverage-guided crash search with an executable per-word
//! crash-consistency spec.
//!
//! Where `crashfuzz` scans evenly spaced crash points, `fuzz` *searches*
//! the crash surface: a corpus of `(fault model, crash event, recovery
//! crash)` candidates is mutated libFuzzer-style toward novel probe-event
//! **coverage signatures** — the set of `(previous event kind, event kind,
//! scheme phase)` features the [`silo_sim::Signature`] recorder observes
//! around the crash. A candidate that lights up new features joins the
//! corpus; a boring one is discarded. The whole search is a pure function
//! of one seed: the mutation RNG is seeded from `(seed, scheme,
//! workload)`, candidates run in a fixed order, and the report is
//! byte-identical at any `--jobs`.
//!
//! Every recovered image is checked twice: by the digest-level
//! [`silo_sim::TxOracle`] and by the executable per-word spec
//! ([`silo_sim::SpecMachine`]), which localizes a divergence to the first
//! offending word with its event index. A violation is printed as a
//! copy-paste runnable `evaluate fuzz ... --crash-event N --execs 1
//! --no-corpus` command (arrival-process idents included for zoo
//! workloads).
//!
//! The corpus persists under `target/fuzz-corpus/<workload>/<scheme>/`
//! (override with `--corpus DIR`, disable with `--no-corpus`), one JSON
//! file per interesting candidate named by its signature digest, so a
//! nightly run resumes where the last one stopped.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use silo_sim::{
    CrashPlan, CrashTrigger, Engine, EngineCheckpoint, FaultModel, RunOutcome, Signature,
    SimConfig, TraceSet,
};
use silo_types::{Fnv1a, JsonValue, Xoshiro256};
use silo_workloads::{workload_by_name, ArrivalProcess};

use crate::cellspec::{CellSpec, CellWork, FaultSpec};
use crate::exp::{CellLabel, CellOutcome, ExpKind, ExpParams, ExperimentSpec};
use crate::flags::{
    any, schemes, Flag, Line, Value::*, BATTERY_BYTES, BENCH, DEFAULT_BATTERY_BYTES,
    DEFAULT_TORN_KEEP, MAX, SCHEME, TORN_KEEP,
};
use crate::{make_scheme, TraceCache};

/// Two cores, like `crashfuzz`: cheap, but still cross-core interleaving.
pub(crate) const CORES: usize = 2;
/// Default execution budget per cell (`--execs` overrides).
const DEFAULT_EXECS: u64 = 24;
/// Deterministic seed candidates per fault model: evenly spaced events.
const SEED_POINTS: u64 = 4;
/// Violations recorded in full (event/fault/word detail) per cell.
const MAX_RECORDED: usize = 8;
/// Corpus entry format version.
const CORPUS_VERSION: u64 = 1;
/// The spec machine's violation kinds, indexable for the value list.
const SPEC_KINDS: [&str; 3] = [
    "committed write lost or corrupted",
    "partial update of uncommitted transaction survived",
    "ambiguous commit applied partially (torn commit)",
];

/// One fault model of the search. All triggers are event-indexed: the
/// crash-event axis is the dense durability-event enumeration, so the
/// cycle-sampled op-boundary trigger of `crashfuzz` has no place here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// Perfect ADR drain at the crash.
    Adr,
    /// The in-flight line program keeps `keep` bytes.
    Torn(usize),
    /// The ADR drain persists at most `bytes` bytes.
    Battery(u64),
}

impl Fault {
    /// In a Fuzz cell every trigger is event-indexed, so the otherwise
    /// cycle-sampled `OpBoundary` tag is free to denote the parameterless
    /// perfect-ADR model — the inverse of [`Fault::to_spec`].
    fn from_spec(spec: FaultSpec) -> Fault {
        match spec {
            FaultSpec::OpBoundary => Fault::Adr,
            FaultSpec::TornLine(keep) => Fault::Torn(keep),
            FaultSpec::Battery(bytes) => Fault::Battery(bytes),
        }
    }

    fn to_spec(self) -> FaultSpec {
        match self {
            Fault::Adr => FaultSpec::OpBoundary,
            Fault::Torn(keep) => FaultSpec::TornLine(keep),
            Fault::Battery(bytes) => FaultSpec::Battery(bytes),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Fault::Adr => "adr",
            Fault::Torn(_) => "torn-line",
            Fault::Battery(_) => "battery",
        }
    }

    fn describe(self) -> String {
        match self {
            Fault::Adr => "adr".to_string(),
            Fault::Torn(keep) => format!("torn-line(keep={keep})"),
            Fault::Battery(bytes) => format!("battery({bytes} B)"),
        }
    }

    fn model(self) -> FaultModel {
        match self {
            Fault::Adr => FaultModel::perfect_adr(),
            Fault::Torn(keep) => FaultModel::torn_line(keep),
            Fault::Battery(bytes) => FaultModel::bounded_battery(bytes),
        }
    }

    /// Parameter as a plain number (0 for the parameterless ADR model).
    fn arg(self) -> u64 {
        match self {
            Fault::Adr => 0,
            Fault::Torn(keep) => keep as u64,
            Fault::Battery(bytes) => bytes,
        }
    }

    fn kind_index(self) -> u64 {
        match self {
            Fault::Adr => 0,
            Fault::Torn(_) => 1,
            Fault::Battery(_) => 2,
        }
    }

    fn from_parts(kind: u64, arg: u64) -> Option<Fault> {
        match kind {
            0 => Some(Fault::Adr),
            1 => Some(Fault::Torn(arg as usize)),
            2 => Some(Fault::Battery(arg)),
            _ => None,
        }
    }

    fn from_name(name: &str, arg: u64) -> Option<Fault> {
        match name {
            "adr" => Some(Fault::Adr),
            "torn-line" => Some(Fault::Torn(arg as usize)),
            "battery" => Some(Fault::Battery(arg)),
            _ => None,
        }
    }

    /// The extra repro flags beyond `--fault <name>`.
    fn repro_flags(self) -> String {
        match self {
            Fault::Adr => String::new(),
            Fault::Torn(keep) => format!(" --torn-keep {keep}"),
            Fault::Battery(bytes) => format!(" --battery-bytes {bytes}"),
        }
    }
}

/// One crash-search candidate: where to cut power, under which fault, and
/// whether to re-crash recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Candidate {
    fault: Fault,
    event: u64,
    recovery_crash: Option<u64>,
}

impl Candidate {
    fn plan(self) -> CrashPlan {
        let mut plan = CrashPlan::at_event(self.event).with_fault(self.fault.model());
        if let Some(steps) = self.recovery_crash {
            plan = plan.with_recovery_crash(steps);
        }
        plan
    }
}

const FAULT: Flag = Flag::new("--fault", OneOf(&["adr", "torn-line", "battery"]))
    .help("search one fault model (default: all three)");
const EXECS: Flag = Flag::new("--execs", Int(1, MAX)).help("runs per cell (default 24)");
const CRASH_EVENT: Flag = Flag::new("--crash-event", Int(0, MAX))
    .requires("--fault")
    .help("replay one candidate crashing at this durability event");
const RECOVERY_CRASH: Flag = Flag::new("--recovery-crash", Int(0, MAX))
    .requires("--crash-event")
    .help("re-crash its recovery after this many writes");
const ARRIVAL: Flag = Flag::new(
    "--arrival",
    Name("ident", |n| ArrivalProcess::parse(n).is_some()),
)
.help("arrivals: closed, poisson<G>, bursty<G>x<B>i<I> or diurnal<S>-<E>");
const CORPUS: Flag =
    Flag::new("--corpus", Name("dir", any)).help("corpus root (default target/fuzz-corpus)");
const NO_CORPUS: Flag = Flag::new("--no-corpus", Switch).help("read and write no corpus");

/// The fault model `--fault` restricts the search to, with its
/// `--torn-keep` or `--battery-bytes` knob.
fn fault(line: &Line) -> Option<Fault> {
    let name = line.text(FAULT.name)?;
    let arg = match name {
        "torn-line" => line.int(TORN_KEEP.name).unwrap_or(DEFAULT_TORN_KEEP),
        _ => line
            .int(BATTERY_BYTES.name)
            .unwrap_or(DEFAULT_BATTERY_BYTES),
    };
    Fault::from_name(name, arg)
}

/// What one candidate run produced.
#[derive(Clone, Debug, PartialEq)]
struct CandidateRun {
    signature: Signature,
    /// Oracle verdict on the recovered image.
    oracle_ok: bool,
    /// Spec-machine verdict, with the first offending word when bad.
    spec_ok: bool,
    first_word: Option<(u64, u64, usize)>, // (addr, word event, kind index)
}

impl CandidateRun {
    fn of(out: RunOutcome) -> CandidateRun {
        let crash = out.crash.as_ref().expect("crash injected");
        let spec = crash.spec.as_ref().expect("spec machine enabled");
        let first_word = spec.first_offender().map(|v| {
            let kind = SPEC_KINDS
                .iter()
                .position(|k| *k == v.kind)
                .expect("spec kind is in the table");
            (v.addr.as_u64(), v.event, kind)
        });
        CandidateRun {
            signature: out.signature.expect("signature recorder enabled"),
            oracle_ok: crash.consistency.is_consistent(),
            spec_ok: spec.is_consistent(),
            first_word,
        }
    }
}

/// An engine with the spec machine and the signature recorder on, as
/// every candidate run and the walk that checkpoints for them need.
fn judging_engine<'s>(
    scheme: &'s mut dyn silo_sim::LoggingScheme,
    config: &SimConfig,
) -> Engine<'s> {
    let mut engine = Engine::new(config, scheme);
    engine.enable_spec();
    engine.machine_mut().probe.enable_signature();
    engine
}

/// Runs one candidate from t=0.
fn run_from_scratch(
    scheme: &str,
    config: &SimConfig,
    streams: &TraceSet,
    cand: Candidate,
) -> CandidateRun {
    let mut s = make_scheme(scheme, config);
    CandidateRun::of(judging_engine(s.as_mut(), config).run_with_plan(streams, Some(cand.plan())))
}

/// Runs one candidate with the spec machine and the signature recorder
/// on, resumed from the latest of `checkpoints` (ascending, taken by one
/// walk of the clean run with both on) strictly before its crash event,
/// or from scratch when none precedes it. Either way the run is the same
/// as one from t=0: debug builds re-run every resumed candidate from
/// scratch and assert it.
fn run_candidate(
    scheme: &str,
    config: &SimConfig,
    streams: &TraceSet,
    checkpoints: &[EngineCheckpoint],
    cand: Candidate,
) -> CandidateRun {
    let Some(cp) = checkpoints
        .iter()
        .rev()
        .find(|cp| cp.event_pos() < cand.event)
    else {
        return run_from_scratch(scheme, config, streams, cand);
    };
    let mut s = make_scheme(scheme, config);
    let run =
        CandidateRun::of(Engine::new(config, s.as_mut()).run_resumed(streams, cand.plan(), cp));
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        run,
        run_from_scratch(scheme, config, streams, cand),
        "resume-vs-scratch divergence: {scheme} {cand:?}"
    );
    run
}

/// The resume bases of one cell: one walk of its clean run, with the spec
/// machine and the signature recorder on, keeps the checkpoint at the
/// last loop step before each of the `events` (at most one per event,
/// fewer where two share a step), in ascending order.
fn walk_checkpoints(
    scheme: &str,
    config: &SimConfig,
    streams: &TraceSet,
    steps: &silo_sim::StepLog,
    events: &[u64],
) -> Vec<EngineCheckpoint> {
    let stops: Vec<u64> = events
        .iter()
        .filter_map(|&n| steps.last_before(CrashTrigger::Event(n)))
        .collect();
    let mut kept = Vec::new();
    let mut s = make_scheme(scheme, config);
    judging_engine(s.as_mut(), config).walk(streams, &stops, |_, cp| {
        kept.push(cp);
        true
    });
    kept
}

/// FNV-1a 64 over the cell identity, seeding the mutation RNG.
fn rng_seed(seed: u64, scheme: &str, workload: &str, arrival: Option<&str>) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(seed);
    h.write(scheme.as_bytes());
    h.write(&[0]);
    h.write(workload.as_bytes());
    h.write(&[0]);
    h.write(arrival.unwrap_or("").as_bytes());
    h.finish()
}

/// Evenly spaced interior points, like crashfuzz, floored to event 1.
fn spaced(total: u64, k: u64) -> Vec<u64> {
    (0..k)
        .map(|i| ((total * (2 * i + 1)) / (2 * k)).max(1))
        .collect()
}

/// One mutation step: nudge, resample, or retarget the base candidate.
/// Restricted searches (`--fault`) never leave their fault kind.
fn mutate(rng: &mut Xoshiro256, base: Candidate, total: u64, restricted: bool) -> Candidate {
    let mut c = base;
    let total = total.max(1);
    match rng.next_u64() % 6 {
        0 => c.event = (c.event + 1 + rng.next_u64() % 16).min(total),
        1 => c.event = c.event.saturating_sub(1 + rng.next_u64() % 16).max(1),
        2 => c.event = 1 + rng.next_u64() % total,
        3 if !restricted => {
            // Rotate the fault kind, entering each with its default knob.
            c.fault = match c.fault {
                Fault::Adr => Fault::Torn(DEFAULT_TORN_KEEP as usize),
                Fault::Torn(_) => Fault::Battery(DEFAULT_BATTERY_BYTES),
                Fault::Battery(_) => Fault::Adr,
            };
        }
        3 | 4 => {
            // Tweak the fault knob in place (ADR has none: resample).
            c.fault = match c.fault {
                Fault::Adr => {
                    c.event = 1 + rng.next_u64() % total;
                    Fault::Adr
                }
                Fault::Torn(keep) => {
                    let keep = if rng.next_u64().is_multiple_of(2) {
                        (keep + 16).min(248)
                    } else {
                        keep.saturating_sub(16).max(8)
                    };
                    Fault::Torn(keep)
                }
                Fault::Battery(bytes) => {
                    let bytes = if rng.next_u64().is_multiple_of(2) {
                        (bytes * 2).min(1 << 22)
                    } else {
                        (bytes / 2).max(16)
                    };
                    Fault::Battery(bytes)
                }
            };
        }
        _ => {
            c.recovery_crash = match c.recovery_crash {
                None => Some(1 + rng.next_u64() % 8),
                Some(_) => None,
            };
        }
    }
    c
}

/// Serializes a corpus entry (one interesting candidate + the coverage
/// signature digest its run produced).
fn encode_entry(cand: Candidate, sig_digest: &str) -> String {
    let mut obj = JsonValue::object()
        .field("v", CORPUS_VERSION)
        .field("fault", cand.fault.name())
        .field("arg", cand.fault.arg())
        .field("event", cand.event);
    if let Some(rc) = cand.recovery_crash {
        obj = obj.field("rc", rc);
    }
    let mut text = obj.field("sig", sig_digest).build().to_string();
    text.push('\n');
    text
}

/// Rebuilds a candidate from its stored form; `None` on any anomaly (the
/// entry is skipped, not fatal — a stale corpus must never kill a run).
fn decode_entry(text: &str) -> Option<Candidate> {
    let v = JsonValue::parse(text).ok()?;
    if v.get("v").and_then(JsonValue::as_u64) != Some(CORPUS_VERSION) {
        return None;
    }
    let name = v.get("fault").and_then(JsonValue::as_str)?;
    let arg = v.get("arg").and_then(JsonValue::as_u64)?;
    let event = v.get("event").and_then(JsonValue::as_u64)?.max(1);
    let recovery_crash = match v.get("rc") {
        Some(rc) => Some(rc.as_u64()?),
        None => None,
    };
    Some(Candidate {
        fault: Fault::from_name(name, arg)?,
        event,
        recovery_crash,
    })
}

/// Loads the persisted corpus of one cell, sorted by file name so the
/// replay order (and therefore the whole search) is deterministic.
fn load_corpus(dir: &Path, restriction: Option<Fault>) -> Vec<Candidate> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut names: Vec<String> = entries
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort_unstable();
    names
        .into_iter()
        .filter_map(|n| std::fs::read_to_string(dir.join(n)).ok())
        .filter_map(|text| decode_entry(&text))
        .filter(|c| match restriction {
            Some(f) => c.fault.kind_index() == f.kind_index(),
            None => true,
        })
        .collect()
}

/// Persists one interesting candidate under its signature digest.
/// Best-effort, like the result store: a read-only disk degrades
/// persistence, never the search.
fn persist_entry(dir: &Path, cand: Candidate, sig_digest: &str) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{sig_digest}.json"));
    let tmp = dir.join(format!("{sig_digest}.tmp.{}", std::process::id()));
    if std::fs::write(&tmp, encode_entry(cand, sig_digest)).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Executor entry point for [`CellWork::Fuzz`]: one cell's full search —
/// clean reference run, one walk of it keeping a checkpoint before each
/// seed event, corpus + deterministic seeds, mutation loop to the
/// execution budget, every candidate resumed from the latest checkpoint
/// before its event, double-checked verdict on every recovered image.
/// Interesting candidates persist under `corpus` when one is given.
pub(crate) fn execute_fuzz(cell: &CellSpec) -> CellOutcome {
    let CellWork::Fuzz {
        ref scheme,
        ref workload,
        txs_per_core,
        execs,
        fault,
        crash_event,
        recovery_crash,
        ref arrival,
        ref corpus,
    } = cell.work
    else {
        unreachable!("not a crash search: {:?}", cell.work)
    };
    let (arrival, seed) = (arrival.as_deref(), cell.seed);
    let restriction = fault.map(Fault::from_spec);
    if workload_by_name(workload).is_none() {
        return CellOutcome::failed(format!(
            "unknown workload {workload:?} in cell {scheme}/{workload}/txs={txs_per_core}"
        ));
    }
    if let Some(ident) = arrival {
        if ArrivalProcess::parse(ident).is_none() {
            return CellOutcome::failed(format!(
                "unparseable arrival ident {ident:?} in cell \
                 {scheme}/{workload}/txs={txs_per_core}"
            ));
        }
    }
    let config = SimConfig::table_ii(CORES);
    // Same construction the trace fingerprint hashes, so the streams the
    // search crashes are exactly the streams the cell key describes.
    let w = crate::cellspec::fuzz_workload_spec(workload, arrival).instantiate();
    let streams = TraceCache::global().get_or_build(&*w, CORES, txs_per_core, seed);
    // Clean reference run: fixes the durability-event axis length, and
    // logs each loop step's position on it for the walk below.
    let (clean, steps) = {
        let mut s = make_scheme(scheme, &config);
        Engine::new(&config, s.as_mut()).run_logging_steps(&streams)
    };
    let total = clean.pm.events().total();
    // The seed events (or the one replayed event) are where the walk of
    // the clean run keeps its checkpoints; every candidate resumes from
    // the latest one before its own event.
    let seed_events = match crash_event {
        Some(event) => vec![event.max(1)],
        None => spaced(total, SEED_POINTS),
    };
    let checkpoints = walk_checkpoints(scheme, &config, &streams, &steps, &seed_events);
    drop(steps);

    // Initial candidates: the persisted corpus (sorted), then the evenly
    // spaced deterministic seeds per allowed fault model. A fixed
    // --crash-event collapses the whole search to one exact candidate.
    let cell_dir = corpus.as_ref().map(|root| root.join(workload).join(scheme));
    let mut initial: Vec<Candidate> = Vec::new();
    match crash_event {
        Some(_) => initial.push(Candidate {
            fault: restriction.expect("--crash-event requires one --fault"),
            event: seed_events[0],
            recovery_crash,
        }),
        None => {
            if let Some(dir) = &cell_dir {
                initial.extend(load_corpus(dir, restriction));
            }
            let seed_faults = match restriction {
                Some(f) => vec![f],
                None => vec![
                    Fault::Adr,
                    Fault::Torn(DEFAULT_TORN_KEEP as usize),
                    Fault::Battery(DEFAULT_BATTERY_BYTES),
                ],
            };
            for f in seed_faults {
                for &event in &seed_events {
                    initial.push(Candidate {
                        fault: f,
                        event,
                        recovery_crash: None,
                    });
                }
            }
            initial.dedup();
        }
    }

    let mut coverage = Signature::default();
    let mut corpus: Vec<Candidate> = Vec::new();
    let mut executed = 0u64;
    let mut violations: Vec<(Candidate, CandidateRun)> = Vec::new();
    let mut violation_count = 0u64;
    let mut run_one = |cand: Candidate,
                       coverage: &mut Signature,
                       corpus: &mut Vec<Candidate>,
                       executed: &mut u64| {
        let run = run_candidate(scheme, &config, &streams, &checkpoints, cand);
        *executed += 1;
        if !run.oracle_ok || !run.spec_ok {
            violation_count += 1;
            if violations.len() < MAX_RECORDED && !violations.iter().any(|(c, _)| *c == cand) {
                violations.push((cand, run.clone()));
            }
        }
        // Violating candidates merge too: a crash that breaks recovery is
        // the most interesting neighborhood to keep mutating around.
        if coverage.merge(&run.signature) > 0 && !corpus.contains(&cand) {
            if let Some(dir) = &cell_dir {
                persist_entry(dir, cand, &run.signature.digest());
            }
            corpus.push(cand);
        }
    };
    for cand in initial {
        if executed >= execs {
            break;
        }
        run_one(cand, &mut coverage, &mut corpus, &mut executed);
    }
    let mut rng = Xoshiro256::seeded(rng_seed(seed, scheme, workload, arrival));
    while executed < execs && !corpus.is_empty() && crash_event.is_none() {
        let base = corpus[(rng.next_u64() % corpus.len() as u64) as usize];
        let cand = mutate(&mut rng, base, total, restriction.is_some());
        run_one(cand, &mut coverage, &mut corpus, &mut executed);
    }

    let digest = coverage.digest();
    let (hi, lo) = {
        let d = u64::from_str_radix(&digest, 16).expect("digest is 16 hex chars");
        ((d >> 32) as u32, d as u32)
    };
    let mut out = CellOutcome::from_stats(clean.stats.clone())
        .with_value("execs", executed as f64)
        .with_value("corpus", corpus.len() as f64)
        .with_value("cov", coverage.count() as f64)
        .with_value("cov_hi", hi as f64)
        .with_value("cov_lo", lo as f64)
        .with_value("viols", violation_count as f64)
        .with_value("recorded", violations.len() as f64);
    for (i, (cand, run)) in violations.iter().enumerate() {
        out = out
            .with_value(&format!("v{i}_event"), cand.event as f64)
            .with_value(&format!("v{i}_fault"), cand.fault.kind_index() as f64)
            .with_value(&format!("v{i}_arg"), cand.fault.arg() as f64)
            .with_value(
                &format!("v{i}_rc"),
                cand.recovery_crash.map(|r| r as f64).unwrap_or(-1.0),
            )
            .with_value(
                &format!("v{i}_oracle"),
                if run.oracle_ok { 0.0 } else { 1.0 },
            )
            .with_value(&format!("v{i}_spec"), if run.spec_ok { 0.0 } else { 1.0 });
        if let Some((addr, wevent, kind)) = run.first_word {
            out = out
                .with_value(&format!("v{i}_addr_hi"), (addr >> 32) as u32 as f64)
                .with_value(&format!("v{i}_addr_lo"), addr as u32 as f64)
                .with_value(&format!("v{i}_wevent"), wevent as f64)
                .with_value(&format!("v{i}_kind"), kind as f64);
        }
    }
    out
}

fn build(p: &ExpParams) -> Vec<CellSpec> {
    let line = p.line();
    let txs_per_core = (p.txs / CORES).max(1);
    let arrival = line.text(ARRIVAL.name);
    let corpus = (!line.switch(NO_CORPUS.name))
        .then(|| PathBuf::from(line.text(CORPUS.name).unwrap_or("target/fuzz-corpus")));
    let mut cells = Vec::new();
    for bench in &p.benches {
        for scheme in schemes(&line) {
            let mut label = CellLabel::swc(&scheme, bench, CORES);
            if let Some(ident) = arrival {
                label = label.with_param(format!("arrival={ident}"));
            }
            cells.push(CellSpec::new(
                label,
                p.seed,
                CellWork::Fuzz {
                    scheme,
                    workload: bench.clone(),
                    txs_per_core,
                    execs: line.int(EXECS.name).unwrap_or(DEFAULT_EXECS),
                    fault: fault(&line).map(Fault::to_spec),
                    crash_event: line.int(CRASH_EVENT.name),
                    recovery_crash: line.int(RECOVERY_CRASH.name),
                    arrival: arrival.map(str::to_string),
                    corpus: corpus.clone(),
                },
            ));
        }
    }
    cells
}

fn render(p: &ExpParams, cells: &[(CellLabel, CellOutcome)], out: &mut String) -> JsonValue {
    let line = p.line();
    let arrival = line.text(ARRIVAL.name);
    let txs_per_core = (p.txs / CORES).max(1);
    writeln!(out, "Coverage-guided crash search ({CORES} cores)").unwrap();
    let faults = match fault(&line) {
        Some(f) => f.describe(),
        None => {
            format!("adr, torn-line(keep={DEFAULT_TORN_KEEP}), battery({DEFAULT_BATTERY_BYTES} B)")
        }
    };
    let arrival_note = arrival
        .map(|a| format!(", arrival {a}"))
        .unwrap_or_default();
    writeln!(
        out,
        "{} txs/core, seed {}, budget {} execs/cell, faults: {}{}",
        txs_per_core,
        p.seed,
        line.int(EXECS.name).unwrap_or(DEFAULT_EXECS),
        faults,
        arrival_note
    )
    .unwrap();
    writeln!(
        out,
        "{:<12}{:<10}{:>6}{:>8}{:>10}  {:<18}{:>10}",
        "scheme", "bench", "execs", "corpus", "coverage", "signature", "violations"
    )
    .unwrap();

    let mut total_execs = 0u64;
    let mut total_violations = 0u64;
    let mut rows = Vec::new();
    // Every violation's report block, printed after the total line.
    let mut blocks = String::new();
    for (label, outcome) in cells {
        if let Some(err) = &outcome.error {
            writeln!(out, "ERROR {:<12}{:<10}{err}", label.scheme, label.workload).unwrap();
            rows.push(
                JsonValue::object()
                    .field("scheme", label.scheme.as_str())
                    .field("workload", label.workload.as_str())
                    .field("error", err.as_str())
                    .build(),
            );
            continue;
        }
        let execs = outcome.value("execs") as u64;
        let corpus = outcome.value("corpus") as u64;
        let cov = outcome.value("cov") as u64;
        let digest = format!(
            "{:08x}{:08x}",
            outcome.value("cov_hi") as u32,
            outcome.value("cov_lo") as u32
        );
        let viols = outcome.value("viols") as u64;
        total_execs += execs;
        total_violations += viols;
        writeln!(
            out,
            "{:<12}{:<10}{:>6}{:>8}{:>10}  {:<18}{:>10}",
            label.scheme, label.workload, execs, corpus, cov, digest, viols
        )
        .unwrap();
        let mut row = JsonValue::object()
            .field("scheme", label.scheme.as_str())
            .field("workload", label.workload.as_str())
            .field("execs", execs as f64)
            .field("corpus", corpus as f64)
            .field("coverage_bits", cov as f64)
            .field("signature", digest.as_str())
            .field("violations", viols as f64);
        if viols > 0 {
            let mut row_repros = Vec::new();
            for i in 0..outcome.value("recorded") as usize {
                let v = |key: &str| outcome.value(&format!("v{i}_{key}"));
                let fault = Fault::from_parts(v("fault") as u64, v("arg") as u64)
                    .expect("stored fault kind is valid");
                let (event, rc) = (v("event") as u64, v("rc"));
                let arrival_flag = arrival.map_or(String::new(), |a| format!(" --arrival {a}"));
                let rc_flag = (rc >= 0.0).then(|| format!(" --recovery-crash {}", rc as u64));
                let rc_flag = rc_flag.unwrap_or_default();
                let repro = format!(
                    "evaluate fuzz --scheme {} --bench {} --txs {} --seed {} \
                     --fault {}{} --crash-event {event}{rc_flag}{arrival_flag} \
                     --execs 1 --no-corpus",
                    label.scheme,
                    label.workload,
                    txs_per_core * CORES,
                    p.seed,
                    fault.name(),
                    fault.repro_flags(),
                );
                write!(
                    blocks,
                    "VIOLATION {} / {} / {} @ event {event}",
                    label.scheme,
                    label.workload,
                    fault.describe()
                )
                .unwrap();
                if rc >= 0.0 {
                    write!(blocks, " (recovery re-crash after {} writes)", rc as u64).unwrap();
                }
                blocks.push('\n');
                if outcome
                    .values
                    .iter()
                    .any(|(k, _)| *k == format!("v{i}_wevent"))
                {
                    let addr = ((v("addr_hi") as u64) << 32) | v("addr_lo") as u64;
                    let (kind, wevent) = (SPEC_KINDS[v("kind") as usize], v("wevent") as u64);
                    writeln!(
                        blocks,
                        "  first offending word: {addr:#018x} ({kind}, word event {wevent})"
                    )
                    .unwrap();
                }
                writeln!(blocks, "  minimal repro: {repro}").unwrap();
                row_repros.push(JsonValue::Str(repro));
            }
            row = row.field("repros", JsonValue::Arr(row_repros));
        }
        rows.push(row.build());
    }
    writeln!(
        out,
        "total: {total_violations} violations across {total_execs} executions"
    )
    .unwrap();
    out.push_str(&blocks);
    JsonValue::object()
        .field("total_violations", total_violations as f64)
        .field("executions", total_execs as f64)
        .field("rows", JsonValue::Arr(rows))
        .build()
}

/// The `fuzz` spec.
pub fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "fuzz",
        description: "coverage-guided crash search with the per-word executable spec",
        default_txs: 16,
        flags: &[
            BENCH,
            SCHEME,
            FAULT,
            TORN_KEEP,
            BATTERY_BYTES,
            EXECS,
            CRASH_EVENT,
            RECOVERY_CRASH,
            ARRIVAL,
            CORPUS,
            NO_CORPUS,
        ],
        kind: ExpKind::Custom { build, render },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Silo/Hash search cell with no corpus.
    fn search(execs: u64, fault: Option<FaultSpec>) -> CellSpec {
        let work = CellWork::Fuzz {
            scheme: "Silo".into(),
            workload: "Hash".into(),
            txs_per_core: 8,
            execs,
            fault,
            crash_event: None,
            recovery_crash: None,
            arrival: None,
            corpus: None,
        };
        CellSpec::new(CellLabel::default(), 42, work)
    }

    #[test]
    fn spaced_points_never_hit_event_zero() {
        assert_eq!(spaced(100, 4), vec![12, 37, 62, 87]);
        assert!(spaced(1, 4).iter().all(|&e| e >= 1));
        assert!(spaced(0, 4).iter().all(|&e| e >= 1));
    }

    #[test]
    fn corpus_entries_round_trip() {
        for cand in [
            Candidate {
                fault: Fault::Adr,
                event: 17,
                recovery_crash: None,
            },
            Candidate {
                fault: Fault::Torn(48),
                event: 3,
                recovery_crash: Some(5),
            },
            Candidate {
                fault: Fault::Battery(64),
                event: 999,
                recovery_crash: None,
            },
        ] {
            let text = encode_entry(cand, "0123456789abcdef");
            assert_eq!(decode_entry(&text), Some(cand), "{text}");
        }
        assert_eq!(decode_entry(""), None);
        assert_eq!(decode_entry("{\"v\":999}"), None);
        assert_eq!(
            decode_entry("{\"v\":1,\"fault\":\"nope\",\"arg\":0,\"event\":1}"),
            None
        );
    }

    #[test]
    fn mutation_is_deterministic_and_stays_in_bounds() {
        let base = Candidate {
            fault: Fault::Battery(64),
            event: 50,
            recovery_crash: None,
        };
        let run = || {
            let mut rng = Xoshiro256::seeded(7);
            let mut c = base;
            let mut trail = Vec::new();
            for _ in 0..64 {
                c = mutate(&mut rng, c, 100, true);
                assert!(c.event >= 1 && c.event <= 100, "event {c:?} out of axis");
                assert!(
                    matches!(c.fault, Fault::Battery(_)),
                    "restricted mutation left its fault kind: {c:?}"
                );
                trail.push(c);
            }
            trail
        };
        assert_eq!(run(), run());
        // Unrestricted mutation reaches every fault kind.
        let mut rng = Xoshiro256::seeded(7);
        let mut c = base;
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..256 {
            c = mutate(&mut rng, c, 100, false);
            kinds.insert(c.fault.kind_index());
        }
        assert_eq!(kinds.len(), 3, "mutation never rotated to some fault kind");
    }

    #[test]
    fn rng_seed_separates_cells() {
        let a = rng_seed(42, "Silo", "Hash", None);
        assert_ne!(a, rng_seed(42, "Base", "Hash", None));
        assert_ne!(a, rng_seed(42, "Silo", "TPCC", None));
        assert_ne!(a, rng_seed(43, "Silo", "Hash", None));
        assert_ne!(a, rng_seed(42, "Silo", "Hash", Some("poisson2000")));
        assert_eq!(a, rng_seed(42, "Silo", "Hash", None));
    }

    #[test]
    fn single_candidate_search_finds_battery_violation() {
        // The undersized battery must violate at a mid-stream event on
        // Silo, and the spec machine must agree with the oracle.
        let out = execute_fuzz(&search(6, Some(FaultSpec::Battery(64))));
        assert!(out.error.is_none());
        assert!(out.value("viols") > 0.0, "64 B battery must violate");
        assert!(out.value("v0_oracle") == 1.0 || out.value("v0_spec") == 1.0);
    }

    #[test]
    fn search_is_a_pure_function_of_its_inputs() {
        let run = || {
            let out = execute_fuzz(&search(10, None));
            (
                out.value("execs"),
                out.value("corpus"),
                out.value("cov"),
                out.value("cov_hi"),
                out.value("cov_lo"),
                out.value("viols"),
            )
        };
        assert_eq!(run(), run());
    }
}
