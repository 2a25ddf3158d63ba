//! Reproducibility: identical seeds produce bit-identical simulations for
//! every scheme, and different seeds genuinely change the workload.

use silo::baselines::{BaseScheme, FwbScheme, LadScheme, MorLogScheme};
use silo::core::SiloScheme;
use silo::sim::{Engine, LoggingScheme, SimConfig, SimStats};
use silo::workloads::{workload_by_name, Workload};

fn run(scheme_idx: usize, seed: u64) -> SimStats {
    let config = SimConfig::table_ii(4);
    let mut scheme: Box<dyn LoggingScheme> = match scheme_idx {
        0 => Box::new(BaseScheme::new(&config)),
        1 => Box::new(FwbScheme::new(&config)),
        2 => Box::new(MorLogScheme::new(&config)),
        3 => Box::new(LadScheme::new(&config)),
        _ => Box::new(SiloScheme::new(&config)),
    };
    let w = workload_by_name("TPCC").expect("tpcc");
    let streams = w.raw_streams(4, 60, seed);
    Engine::new(&config, scheme.as_mut())
        .run(streams, None)
        .stats
}

#[test]
fn same_seed_same_everything() {
    for scheme_idx in 0..5 {
        let a = run(scheme_idx, 99);
        let b = run(scheme_idx, 99);
        assert_eq!(a.sim_cycles, b.sim_cycles, "scheme {scheme_idx}");
        assert_eq!(a.txs_committed, b.txs_committed, "scheme {scheme_idx}");
        assert_eq!(a.pm, b.pm, "scheme {scheme_idx}");
        assert_eq!(a.mc, b.mc, "scheme {scheme_idx}");
        assert_eq!(a.cache, b.cache, "scheme {scheme_idx}");
        assert_eq!(a.scheme_stats, b.scheme_stats, "scheme {scheme_idx}");
    }
}

#[test]
fn different_seed_different_execution() {
    let a = run(4, 1);
    let b = run(4, 2);
    assert_eq!(a.txs_committed, b.txs_committed, "same workload size");
    assert_ne!(
        (a.sim_cycles, a.pm.accepted_bytes),
        (b.sim_cycles, b.pm.accepted_bytes),
        "different seeds must explore different address streams"
    );
}

#[test]
fn crash_runs_are_deterministic_too() {
    use silo::types::Cycles;
    let config = SimConfig::table_ii(2);
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let mut scheme = SiloScheme::new(&config);
            let w = workload_by_name("Btree").expect("btree");
            let streams = w.raw_streams(2, 50, 5);
            let out = Engine::new(&config, &mut scheme).run(streams, Some(Cycles::new(9_999)));
            let crash = out.crash.expect("crash injected");
            (
                crash.committed_txs,
                crash.inflight_txs,
                crash.recovery,
                out.stats.pm,
            )
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}

/// A run forked at the shared prefix and the runs continued from the fork
/// and from a clone of it each equal the same run from scratch, for every
/// scheme, closed-loop and open-loop: statistics with cycle accounting
/// (and sojourn latency), the event timeline and the PM image.
#[test]
fn forked_and_continued_runs_equal_runs_from_scratch() {
    use silo::baselines::{EadrSwLogScheme, SwLogScheme};
    use silo::sim::{Op, RunOutcome, TraceSet, DEFAULT_TIMELINE_CAPACITY};
    use silo::types::PhysAddr;
    use silo::workloads::{ArrivalProcess, OpenLoop};

    type MakeScheme = fn(&SimConfig) -> Box<dyn LoggingScheme>;
    const CORES: usize = 4;
    let config = SimConfig::table_ii(CORES);
    let schemes: [MakeScheme; 7] = [
        |c| Box::new(BaseScheme::new(c)),
        |c| Box::new(FwbScheme::new(c)),
        |c| Box::new(MorLogScheme::new(c)),
        |c| Box::new(LadScheme::new(c)),
        |c| Box::new(SwLogScheme::new(c)),
        |c| Box::new(EadrSwLogScheme::new(c)),
        |c| Box::new(SiloScheme::new(c)),
    ];
    fn engine<'a>(config: &SimConfig, scheme: &'a mut dyn LoggingScheme) -> Engine<'a> {
        let mut e = Engine::new(config, scheme);
        e.machine_mut().probe.enable_accounting(config.cores);
        e.machine_mut()
            .probe
            .enable_timeline(DEFAULT_TIMELINE_CAPACITY);
        e
    }
    let from_scratch = |make: MakeScheme, trace: &TraceSet| {
        let mut s = make(&config);
        engine(&config, s.as_mut()).run(trace, None)
    };

    let workloads: [Box<dyn Workload>; 2] = [
        workload_by_name("TPCC").expect("tpcc"),
        Box::new(OpenLoop::new(
            workload_by_name("TPCC").expect("tpcc"),
            ArrivalProcess::Poisson { mean_gap: 3000 },
        )),
    ];
    for w in &workloads {
        let short = w.build_trace(CORES, 12, 3);
        let long = w.build_trace(CORES, 24, 3);
        assert!(long.starts_with(&short));
        let mut footprint: Vec<u64> = long
            .streams()
            .iter()
            .flat_map(|s| s.iter())
            .flat_map(|tx| tx.ops())
            .filter_map(|op| match op {
                Op::Write(a, _) => Some(a.as_u64()),
                _ => None,
            })
            .collect();
        footprint.sort_unstable();
        footprint.dedup();
        let assert_same = |scratch: &RunOutcome, fork: &RunOutcome, what: &str| {
            assert_eq!(
                scratch.stats.to_json().to_string(),
                fork.stats.to_json().to_string(),
                "{what}: statistics"
            );
            assert!(scratch.stats.breakdown.is_some(), "accounting is on");
            assert_eq!(scratch.timeline, fork.timeline, "{what}: timeline");
            for &a in &footprint {
                let a = PhysAddr::new(a);
                assert_eq!(
                    scratch.pm.peek_word(a),
                    fork.pm.peek_word(a),
                    "{what}: {a:?}"
                );
            }
        };

        for make in schemes {
            let what = format!("{} / {}", make(&config).name(), w.trace_ident());
            let mut s = make(&config);
            let (forked, fork) = engine(&config, s.as_mut()).run_forking(&short);
            assert!(
                fork.event_pos() > 0 && fork.event_pos() < forked.pm.events().total(),
                "{what}: the fork lies inside the short run"
            );
            assert_same(
                &from_scratch(make, &short),
                &forked,
                &format!("{what} short"),
            );

            // A clone continues as the fork does, and leaves the fork whole
            // for the run that takes it.
            let scratch = from_scratch(make, &long);
            let mut s = make(&config);
            let cloned = engine(&config, s.as_mut()).run_continued(&long, fork.clone());
            assert_same(&scratch, &cloned, &format!("{what} long, from a clone"));
            let mut s = make(&config);
            let continued = engine(&config, s.as_mut()).run_continued(&long, fork);
            assert_same(&scratch, &continued, &format!("{what} long"));
        }
    }
}
