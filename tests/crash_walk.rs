//! A crash sweep walks its clean run once.
//!
//! A plain clean run logs where each of its loop steps lies on both crash
//! axes ([`StepLog`]). Each crash point picks the last step strictly
//! before its trigger, and one walk of the clean run ([`Engine::walk`])
//! stops at those steps and hands each stop's checkpoint to the points
//! that resume from it. A point resumed this way must be byte-identical
//! to the same crash plan run from t=0: same `SimStats`, same oracle
//! verdict, same recovered image. A point with no earlier step runs from
//! scratch. A walk with the oracle's transition log and the signature
//! recorder on hands out checkpoints that carry both, so a crash search
//! can keep a few and resume every candidate from them: those candidates
//! must judge the recovered image exactly as a run from t=0 does.
//!
//! A crash cell runs all its engines on machines it owns
//! ([`Engine::on`]): each run resets the machine or restores it from a
//! checkpoint, so one machine taken through any sequence of plans must
//! give the outcomes new machines give.
//!
//! The two crash experiments' cells run here through the cell executor
//! too. Their crash runs resume from the walk, and a debug build re-runs
//! each resumed run from t=0 and asserts it is the same run, so this
//! suite is where that check runs.

use silo::sim::{
    CrashPlan, CrashTrigger, Engine, EngineCheckpoint, FaultModel, LoggingScheme, Machine, Op,
    RunOutcome, SimConfig, StepLog, TraceSet,
};
use silo::types::{Cycles, PhysAddr};
use silo::workloads::{workload_by_name, Workload};
use silo_bench::{make_scheme, CellLabel, CellSpec, CellWork, FaultSpec};

const CORES: usize = 2;
const TXS_PER_CORE: usize = 12;
const SEED: u64 = 42;
const SCHEMES: [&str; 3] = ["Silo", "Base", "MorLog"];

fn trace() -> TraceSet {
    workload_by_name("Hash")
        .expect("registered workload")
        .build_trace(CORES, TXS_PER_CORE, SEED)
}

/// Every word address the trace writes, sorted.
fn footprint(trace: &TraceSet) -> Vec<PhysAddr> {
    let mut addrs: Vec<u64> = trace
        .streams()
        .iter()
        .flat_map(|s| s.iter())
        .flat_map(|tx| tx.ops())
        .filter_map(|op| match op {
            Op::Write(a, _) => Some(a.as_u64()),
            _ => None,
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs.into_iter().map(PhysAddr::new).collect()
}

fn logged(name: &str, config: &SimConfig, trace: &TraceSet) -> (RunOutcome, StepLog) {
    let mut s = make_scheme(name, config);
    Engine::new(config, s.as_mut()).run_logging_steps(trace)
}

/// The steps one walk stops at, in order, with `stop_after` ending it.
fn stops(name: &str, steps: &[u64], stop_after: Option<u64>) -> Vec<u64> {
    let config = SimConfig::table_ii(CORES);
    let trace = trace();
    let mut s = make_scheme(name, &config);
    let mut seen = Vec::new();
    Engine::new(&config, s.as_mut()).walk(&trace, steps, |step, _| {
        seen.push(step);
        Some(step) != stop_after
    });
    seen
}

/// Runs each plan the way a crash sweep does: resumed through one walk
/// from the last step before it, or from scratch when no step precedes
/// it. Returns each plan's outcome with the step it resumed from.
fn sweep(
    name: &str,
    config: &SimConfig,
    trace: &TraceSet,
    log: &StepLog,
    plans: &[CrashPlan],
) -> Vec<(Option<u64>, RunOutcome)> {
    let at: Vec<Option<u64>> = plans.iter().map(|p| log.last_before(p.trigger)).collect();
    let mut outcomes: Vec<Option<RunOutcome>> = plans
        .iter()
        .zip(&at)
        .map(|(&plan, step)| {
            step.is_none().then(|| {
                let mut s = make_scheme(name, config);
                Engine::new(config, s.as_mut()).run_with_plan(trace, Some(plan))
            })
        })
        .collect();
    let steps: Vec<u64> = at.iter().flatten().copied().collect();
    let mut s = make_scheme(name, config);
    Engine::new(config, s.as_mut()).walk(trace, &steps, |step, cp| {
        for (i, &plan) in plans.iter().enumerate() {
            if at[i] == Some(step) {
                let mut s = make_scheme(name, config);
                outcomes[i] = Some(Engine::new(config, s.as_mut()).run_resumed(trace, plan, &cp));
            }
        }
        true
    });
    at.into_iter()
        .zip(outcomes)
        .map(|(step, out)| (step, out.expect("every plan ran")))
        .collect()
}

#[test]
fn walked_points_on_both_axes_equal_their_runs_from_scratch() {
    let config = SimConfig::table_ii(CORES);
    let trace = trace();
    let fp = footprint(&trace);
    for name in SCHEMES {
        let (clean, log) = logged(name, &config, &trace);
        let cycles = clean.stats.sim_cycles.as_u64();
        let events = clean.pm.events().total();
        let mut plans = Vec::new();
        for k in 1..=4 {
            plans.push(CrashPlan::at_cycle(Cycles::new(cycles * k / 5)));
            plans.push(
                CrashPlan::at_event(events * k / 5)
                    .with_fault(FaultModel::bounded_battery(64 * 1024)),
            );
            plans.push(
                CrashPlan::at_event(events * k / 5 + 1).with_fault(FaultModel::torn_line(64)),
            );
        }
        for ((step, resumed), plan) in sweep(name, &config, &trace, &log, &plans)
            .into_iter()
            .zip(&plans)
        {
            let what = format!("{name} @ {:?}", plan.trigger);
            assert!(step.is_some(), "{what}: no step precedes an interior point");
            let mut s = make_scheme(name, &config);
            let scratch = Engine::new(&config, s.as_mut()).run_with_plan(&trace, Some(*plan));
            assert_eq!(
                scratch.stats.to_json().to_string(),
                resumed.stats.to_json().to_string(),
                "{what}: SimStats diverged"
            );
            let (a, b) = (scratch.crash.unwrap(), resumed.crash.unwrap());
            assert_eq!(
                a.consistency, b.consistency,
                "{what}: oracle verdict diverged"
            );
            assert!(a.consistency.is_consistent(), "{what}: {:?}", a.consistency);
            assert_eq!(
                a.ambiguous_txs, b.ambiguous_txs,
                "{what}: ambiguity diverged"
            );
            for &addr in &fp {
                assert_eq!(
                    scratch.pm.peek_word(addr),
                    resumed.pm.peek_word(addr),
                    "{what}: recovered word {addr:?} diverged"
                );
            }
        }
    }
}

#[test]
fn stops_arrive_once_each_in_ascending_step_order() {
    for name in SCHEMES {
        assert_eq!(
            stops(name, &[40, 7, 40, 19, 7], None),
            [7, 19, 40],
            "{name}"
        );
        assert!(stops(name, &[], None).is_empty(), "{name}");
    }
}

#[test]
fn a_false_from_the_callback_ends_the_walk() {
    assert_eq!(stops("Silo", &[5, 10, 15, 20], Some(10)), [5, 10]);
    assert_eq!(stops("MorLog", &[5, 10, 15, 20], Some(5)), [5]);
}

#[test]
fn a_point_with_no_earlier_step_runs_from_scratch() {
    let config = SimConfig::table_ii(CORES);
    let trace = trace();
    let (clean, log) = logged("Silo", &config, &trace);
    // Boundary 0 is t=0 on both axes: only a trigger at 0 has no step
    // strictly before it; any later one resumes.
    assert_eq!(log.last_before(CrashTrigger::Cycle(Cycles::ZERO)), None);
    assert_eq!(log.last_before(CrashTrigger::Event(0)), None);
    assert!(log.last_before(CrashTrigger::Event(1)).is_some());
    assert!(log
        .last_before(CrashTrigger::Cycle(Cycles::new(1)))
        .is_some());
    // A trigger past the run's end resumes from its last step.
    let past = clean.pm.events().total() + 1;
    assert_eq!(
        log.last_before(CrashTrigger::Event(past)),
        Some(log.len() as u64 - 1)
    );

    let plans = [
        CrashPlan::at_cycle(Cycles::ZERO),
        CrashPlan::at_cycle(Cycles::new(clean.stats.sim_cycles.as_u64() / 2)),
    ];
    let swept = sweep("Silo", &config, &trace, &log, &plans);
    assert_eq!(swept[0].0, None, "the t=0 point runs from scratch");
    assert!(swept[1].0.is_some(), "the later point resumes");
    let crash = swept[0].1.crash.as_ref().expect("crash injected");
    assert_eq!(swept[0].1.stats.txs_committed, 0, "nothing ran before t=0");
    assert!(crash.consistency.is_consistent());
}

/// An engine with the transition log and the signature recorder on, the
/// way the crash search judges every candidate.
fn judging<'s>(scheme: &'s mut dyn LoggingScheme, config: &SimConfig) -> Engine<'s> {
    judged(Engine::new(config, scheme))
}

/// `engine` with the transition log and the signature recorder on.
fn judged(mut engine: Engine<'_>) -> Engine<'_> {
    engine.enable_spec();
    engine.machine_mut().probe.enable_signature();
    engine
}

#[test]
fn kept_checkpoints_resume_the_spec_machine_and_signature() {
    let config = SimConfig::table_ii(CORES);
    let trace = trace();
    let mut cases = Vec::new();
    for name in ["Silo", "Base", "LAD"] {
        for fault in [
            FaultModel::perfect_adr(),
            FaultModel::torn_line(64),
            FaultModel::bounded_battery(64 * 1024),
        ] {
            cases.push((name, fault));
        }
    }
    // An undersized battery breaks Silo's recovery, so localization and
    // history are compared on real violations too.
    cases.push(("Silo", FaultModel::bounded_battery(64)));
    let (mut violated, mut double_crashed) = (0, 0);
    for (name, fault) in cases {
        let (clean, log) = logged(name, &config, &trace);
        let events = clean.pm.events().total();
        let plans: Vec<CrashPlan> = (1..=4)
            .map(|k| {
                let plan = CrashPlan::at_event(events * k / 5).with_fault(fault);
                // The last one also re-crashes recovery.
                if k == 4 {
                    plan.with_recovery_crash(1)
                } else {
                    plan
                }
            })
            .collect();
        let stops: Vec<u64> = plans
            .iter()
            .map(|p| log.last_before(p.trigger).expect("interior point"))
            .collect();
        let mut kept = Vec::new();
        let mut s = make_scheme(name, &config);
        judging(s.as_mut(), &config).walk(&trace, &stops, |_, cp| {
            kept.push(cp);
            true
        });
        assert_eq!(kept.len(), 4, "{name}: one kept checkpoint per stop");
        for plan in &plans {
            let what = format!("{name} {:?} @ {:?}", fault, plan.trigger);
            let CrashTrigger::Event(n) = plan.trigger else {
                unreachable!()
            };
            let cp = kept
                .iter()
                .rev()
                .find(|cp| cp.event_pos() < n)
                .expect("a kept checkpoint precedes every interior point");
            // The checkpoint turns the transition log and the signature
            // recorder on: nothing is enabled on the resuming engine.
            let mut s = make_scheme(name, &config);
            let resumed = Engine::new(&config, s.as_mut()).run_resumed(&trace, *plan, cp);
            let mut s = make_scheme(name, &config);
            let scratch = judging(s.as_mut(), &config).run_with_plan(&trace, Some(*plan));
            assert_eq!(
                scratch.signature.expect("signature on").digest(),
                resumed.signature.expect("signature carried").digest(),
                "{what}: signature diverged"
            );
            let (a, b) = (scratch.crash.unwrap(), resumed.crash.unwrap());
            assert_eq!(
                a.consistency, b.consistency,
                "{what}: oracle verdict diverged"
            );
            assert_eq!(a.spec.as_ref(), Some(&a.consistency), "{what}: log off");
            assert_eq!(b.spec, a.spec, "{what}: the checkpoint carried no log");
            if let Some(v) = a.consistency.first_offender() {
                assert!(!v.history.is_empty(), "{what}: violation without history");
                violated += 1;
            }
            double_crashed += a.double_crash as usize;
        }
    }
    assert!(violated > 0, "the 64 B battery never violated");
    assert!(double_crashed > 0, "no plan re-crashed recovery");
}

/// What a crash run must reproduce exactly, whichever machine it ran on:
/// its statistics, its verdict and whether the transition log was on
/// (`spec`), its recovery, whether recovery re-crashed, its coverage
/// signature and its recovered footprint.
fn observed(out: &RunOutcome, fp: &[PhysAddr]) -> impl PartialEq + std::fmt::Debug {
    let crash = out.crash.clone().expect("crash injected");
    (
        out.stats.to_json().to_string(),
        crash.consistency,
        crash.spec,
        crash.recovery,
        crash.double_crash,
        out.signature.map(|s| s.digest()),
        fp.iter().map(|&a| out.pm.peek_word(a)).collect::<Vec<_>>(),
    )
}

#[test]
fn one_reused_machine_runs_every_plan_as_a_new_machine_does() {
    let config = SimConfig::table_ii(CORES);
    let trace = trace();
    let fp = footprint(&trace);
    let (mut violated, mut double_crashed) = (0, 0);
    for name in ["Silo", "Base", "LAD"] {
        // One machine for everything: the clean run, the walk, and every
        // crash run after it, resumed or from scratch.
        let mut machine = Machine::new(&config);
        let mut s = make_scheme(name, &config);
        let (clean, log) = Engine::on(&mut machine, s.as_mut()).run_logging_steps(&trace);
        let events = clean.pm.events().total();
        let at = |k: u64| events * k / 5;
        let stops: Vec<u64> = (1..=4)
            .map(|k| {
                log.last_before(CrashTrigger::Event(at(k)))
                    .expect("interior")
            })
            .collect();
        let mut kept: Vec<EngineCheckpoint> = Vec::new();
        let mut s = make_scheme(name, &config);
        // The walk ends at its last stop, leaving its signature recorder
        // on the machine's probe: the next run must not see it.
        judged(Engine::on(&mut machine, s.as_mut())).walk(&trace, &stops, |_, cp| {
            kept.push(cp);
            true
        });
        assert_eq!(kept.len(), 4, "{name}: one kept checkpoint per stop");

        // `None` runs from scratch; a judging scratch run has the
        // transition log and signature on, as a kept checkpoint does. The
        // first plan judges nothing, so a signature recorder left over
        // from the walk would show in its outcome.
        let battery = FaultModel::bounded_battery(64 * 1024);
        let mut plans: Vec<(CrashPlan, Option<usize>, bool)> = vec![
            (
                CrashPlan::at_event(at(5) / 2).with_fault(FaultModel::torn_line(64)),
                None,
                false,
            ),
            (CrashPlan::at_event(at(3) + 1), Some(2), true),
            (
                CrashPlan::at_event(at(1) + 2).with_fault(battery),
                Some(0),
                true,
            ),
            (
                CrashPlan::at_event(at(4) + 1).with_recovery_crash(1),
                Some(3),
                true,
            ),
            (CrashPlan::at_event(at(2) + 3), None, true),
            (
                CrashPlan::at_event(at(2) + 1)
                    .with_fault(FaultModel::torn_line(0))
                    .with_recovery_crash(2),
                Some(1),
                true,
            ),
        ];
        if name == "Silo" {
            let undersized = FaultModel::bounded_battery(64);
            plans.insert(
                3,
                (
                    CrashPlan::at_event(at(4) + 2).with_fault(undersized),
                    Some(3),
                    true,
                ),
            );
        }
        for (plan, from, judge) in plans {
            let what = format!("{name} {plan:?} from {from:?}");
            let mut s = make_scheme(name, &config);
            let engine = Engine::on(&mut machine, s.as_mut());
            let reused = match from {
                Some(i) => engine.run_resumed(&trace, plan, &kept[i]),
                None if judge => judged(engine).run_with_plan(&trace, Some(plan)),
                None => engine.run_with_plan(&trace, Some(plan)),
            };
            let mut s = make_scheme(name, &config);
            let engine = Engine::new(&config, s.as_mut());
            let fresh =
                if judge { judged(engine) } else { engine }.run_with_plan(&trace, Some(plan));
            assert_eq!(observed(&reused, &fp), observed(&fresh, &fp), "{what}");
            let crash = fresh.crash.expect("crash injected");
            violated += !crash.consistency.is_consistent() as usize;
            double_crashed += crash.double_crash as usize;
        }
    }
    assert!(violated > 0, "the 64 B battery never violated");
    assert!(double_crashed > 0, "no plan re-crashed recovery");
}

/// The `crashfuzz` cell behind the pinned battery repro (`evaluate
/// crashfuzz --txs 16 --bench Hash --scheme Silo --fault battery
/// --battery-bytes 64`): its sweep finds the violation, and shrinking
/// lands on the repro's 2 transactions and crash event 1020.
#[test]
fn the_sweep_cell_shrinks_to_the_pinned_battery_repro() {
    let work = CellWork::CrashSweep {
        scheme: "Silo".into(),
        workload: "Hash".into(),
        txs_per_core: 8,
        fault: FaultSpec::Battery(64),
        points: 4,
        point: None,
        checkpoints: true,
    };
    let out = CellSpec::new(CellLabel::default(), SEED, work).execute();
    assert_eq!(out.value("shrunk_txs"), 2.0);
    assert_eq!(out.value("shrunk_point"), 1020.0);
}

/// The `fuzz` cell of `evaluate fuzz --txs 16 --bench Hash --scheme Silo
/// --fault battery --battery-bytes 64 --execs 8 --no-corpus`: its first
/// recorded violation is the one the command prints first.
#[test]
fn the_search_cell_records_its_first_violation_at_event_1777() {
    let work = CellWork::Fuzz {
        scheme: "Silo".into(),
        workload: "Hash".into(),
        txs_per_core: 8,
        execs: 8,
        fault: Some(FaultModel::bounded_battery(64)),
        crash_event: None,
        recovery_crash: None,
        arrival: None,
        corpus: None,
    };
    let out = CellSpec::new(CellLabel::default(), SEED, work).execute();
    assert_eq!(out.value("execs"), 8.0);
    assert!(
        out.value("recorded") >= 1.0,
        "the 64 B battery must violate"
    );
    assert_eq!(out.value("v0_event"), 1777.0);
}
