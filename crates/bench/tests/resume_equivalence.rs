//! Contract tests for checkpointed crash resimulation.
//!
//! The headline invariant: a crash run resumed from a clean-run checkpoint
//! is **byte-identical** to the same crash plan executed from scratch —
//! same `SimStats` JSON (including the probe cycle breakdown), same oracle
//! verdict, same recovered PM image — for every scheme and every fault
//! model. A checkpoint is a set of clones, so the round-trip tests below
//! pin the building block: `clone_from` a clone taken earlier reproduces
//! the media's and the device's captured state exactly, under randomized
//! operation sequences. The cadence recording (`Engine::run_recording`)
//! keeps its checkpoint positions, pinned on one case. The steady-state
//! delta's fork (one run continued from another's last shared state) is
//! held to the same standard against two runs from scratch.

use silo_bench::{make_scheme, run_delta_with, run_with_scheme, Batched, TraceCache, ALL_SCHEMES};
use silo_core::{SiloOptions, SiloScheme};
use silo_pm::{Media, PmDevice, PmDeviceConfig};
use silo_sim::{
    CheckpointPolicy, CrashPlan, Engine, FaultModel, LoggingScheme, RunOutcome, SimConfig, SimStats,
};
use silo_types::{Cycles, PhysAddr, SplitMix64};
use silo_workloads::{workload_by_name, ArrivalProcess, OpenLoop, Workload};

const CORES: usize = 2;
const TXS_PER_CORE: usize = 16;
const SEED: u64 = 11;

/// Dense checkpoints so even a small test run resumes from a real prefix.
fn dense_policy() -> CheckpointPolicy {
    CheckpointPolicy {
        every_events: 8,
        every_cycles: 512,
        max: 64,
    }
}

/// Every word address the trace writes, in sorted order.
fn footprint(trace: &silo_sim::TraceSet) -> Vec<PhysAddr> {
    let mut addrs: Vec<u64> = trace
        .streams()
        .iter()
        .flat_map(|s| s.iter())
        .flat_map(|tx| tx.ops())
        .filter_map(|op| match op {
            silo_sim::Op::Write(a, _) => Some(a.as_u64()),
            _ => None,
        })
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs.into_iter().map(PhysAddr::new).collect()
}

fn assert_identical(scratch: &RunOutcome, resumed: &RunOutcome, fp: &[PhysAddr], what: &str) {
    assert_eq!(
        scratch.stats.to_json().to_string(),
        resumed.stats.to_json().to_string(),
        "{what}: SimStats (incl. probe breakdown) diverged"
    );
    let (s, r) = (
        scratch.crash.as_ref().expect("crash injected"),
        resumed.crash.as_ref().expect("crash injected"),
    );
    assert_eq!(
        s.consistency.violations.len(),
        r.consistency.violations.len(),
        "{what}: oracle verdict diverged"
    );
    assert_eq!(
        s.ambiguous_txs, r.ambiguous_txs,
        "{what}: ambiguity diverged"
    );
    for &a in fp {
        assert_eq!(
            scratch.pm.peek_word(a),
            resumed.pm.peek_word(a),
            "{what}: recovered image diverged at {a:?}"
        );
    }
}

/// Resume-vs-scratch equality across every scheme × every fault model,
/// with probe cycle accounting enabled so the comparison also covers the
/// checkpointed observability state.
#[test]
fn resume_matches_scratch_for_every_scheme_and_fault() {
    let config = SimConfig::table_ii(CORES);
    let w = workload_by_name("Hash").expect("registered workload");
    let trace = TraceCache::global().get_or_build(w.as_ref(), CORES, TXS_PER_CORE, SEED);
    let fp = footprint(&trace);

    for scheme in ALL_SCHEMES {
        let mut s = make_scheme(scheme, &config);
        let mut engine = Engine::new(&config, s.as_mut());
        engine.machine_mut().probe.enable_accounting(CORES);
        let (clean, ckpts) = engine.run_recording(&trace, dense_policy());
        assert!(
            !ckpts.is_empty(),
            "{scheme}: dense policy captured no checkpoints"
        );

        let cycle_total = clean.stats.sim_cycles.as_u64();
        let event_total = clean.pm.events().total();
        let plans = [
            CrashPlan::at_cycle(Cycles::new(cycle_total * 3 / 4)),
            CrashPlan::at_event(event_total * 3 / 4).with_fault(FaultModel::torn_line(64)),
            CrashPlan::at_event(event_total * 3 / 4)
                .with_fault(FaultModel::bounded_battery(64 * 1024)),
        ];
        for plan in plans {
            let cp = ckpts
                .nearest(plan.trigger)
                .unwrap_or_else(|| panic!("{scheme}: no checkpoint before {:?}", plan.trigger));
            let what = format!("{scheme} @ {:?}", plan.trigger);

            let mut s1 = make_scheme(scheme, &config);
            let mut e1 = Engine::new(&config, s1.as_mut());
            e1.machine_mut().probe.enable_accounting(CORES);
            let scratch = e1.run_with_plan(&trace, Some(plan));

            let mut s2 = make_scheme(scheme, &config);
            let mut e2 = Engine::new(&config, s2.as_mut());
            e2.machine_mut().probe.enable_accounting(CORES);
            let resumed = e2.run_resumed(&trace, plan, cp);

            assert_identical(&scratch, &resumed, &fp, &what);
        }
    }
}

/// Any checkpoint whose position precedes the crash point must yield the
/// same outcome as the nearest one — they are all states of the same
/// deterministic prefix.
#[test]
fn every_valid_checkpoint_yields_the_same_outcome() {
    let config = SimConfig::table_ii(CORES);
    let w = workload_by_name("Bank").expect("registered workload");
    let trace = TraceCache::global().get_or_build(w.as_ref(), CORES, TXS_PER_CORE, SEED);
    let fp = footprint(&trace);

    let mut s = make_scheme("Silo", &config);
    let (clean, ckpts) = Engine::new(&config, s.as_mut()).run_recording(&trace, dense_policy());
    let n = clean.pm.events().total() * 3 / 4;
    let plan = CrashPlan::at_event(n).with_fault(FaultModel::bounded_battery(64 * 1024));

    let mut s0 = make_scheme("Silo", &config);
    let scratch = Engine::new(&config, s0.as_mut()).run_with_plan(&trace, Some(plan));

    let mut resumed_any = 0;
    for cp in ckpts.iter().filter(|cp| cp.event_pos() < n) {
        let mut s1 = make_scheme("Silo", &config);
        let resumed = Engine::new(&config, s1.as_mut()).run_resumed(&trace, plan, cp);
        assert_identical(
            &scratch,
            &resumed,
            &fp,
            &format!("Silo event {n} from checkpoint at event {}", cp.event_pos()),
        );
        resumed_any += 1;
    }
    assert!(resumed_any > 0, "no checkpoint preceded event {n}");
}

/// The cadence recording keeps its checkpoint positions: perfbench's
/// tracer reports their count and resumes its crash points from them, so
/// a change to the cadence or the thinning moves its numbers. Silo on
/// 2-core Hash, 24 transactions per core, seed 42: the default policy
/// (29 checkpoints, no thinning) and one that thins three times.
#[test]
fn recording_keeps_its_checkpoint_positions() {
    let config = SimConfig::table_ii(2);
    let w = workload_by_name("Hash").expect("registered workload");
    let trace = TraceCache::global().get_or_build(w.as_ref(), 2, 24, 42);
    let positions = |policy| {
        let mut s = make_scheme("Silo", &config);
        let (_, set) = Engine::new(&config, s.as_mut()).run_recording(&trace, policy);
        let at: Vec<(u64, u64)> = set
            .iter()
            .map(|cp| (cp.event_pos(), cp.cycle_pos().as_u64()))
            .collect();
        assert_eq!(at.len(), set.len());
        at
    };
    #[rustfmt::skip]
    let default = [
        (77, 1303), (672, 6342), (1216, 10777), (1780, 15297), (2402, 20391),
        (2941, 24711), (3486, 29235), (4030, 33550), (4696, 38979), (5208, 43174),
        (5731, 47479), (6243, 51594), (6761, 55729), (7273, 59764), (7794, 63710),
        (8319, 67795), (9087, 73952), (9599, 78067), (10111, 81937), (10638, 85878),
        (11150, 89875), (11666, 94035), (12182, 98153), (12697, 102170), (13211, 106165),
        (13738, 110408), (14250, 114753), (14762, 118923), (15274, 123268),
    ];
    assert_eq!(positions(CheckpointPolicy::default()), default);
    let thinning = CheckpointPolicy {
        every_events: 16,
        every_cycles: 1024,
        max: 8,
    };
    #[rustfmt::skip]
    let thinned = [
        (16, 334), (2712, 22828), (5293, 43858), (7353, 60339),
        (10452, 84620), (12500, 100740), (14548, 117281),
    ];
    assert_eq!(positions(thinning), thinned);
}

/// The same delta the fork replaces: the N-run and the 2N-run, each from
/// t=0, subtracted.
fn delta_from_scratch(
    config: &SimConfig,
    make: impl Fn() -> Box<dyn LoggingScheme>,
    w: &dyn Workload,
    txs: usize,
) -> SimStats {
    let cache = TraceCache::global();
    let short = run_with_scheme(
        make().as_mut(),
        config,
        cache.get_or_build(w, config.cores, txs, SEED),
    );
    let long = run_with_scheme(
        make().as_mut(),
        config,
        cache.get_or_build(w, config.cores, 2 * txs, SEED),
    );
    long.delta_from(&short)
}

/// Whether `run_delta_with` can fork `w` (its 2N trace starts with the N
/// one) rather than fall back to two runs from t=0.
fn forks(w: &dyn Workload, cores: usize, txs: usize) -> bool {
    let cache = TraceCache::global();
    cache
        .get_or_build(w, cores, 2 * txs, SEED)
        .starts_with(&cache.get_or_build(w, cores, txs, SEED))
}

/// `run_delta_with` simulates the prefix its two runs share once and
/// forks; its delta must equal the two-runs-from-scratch delta exactly.
#[test]
fn forked_delta_matches_two_runs_from_scratch() {
    const TXS: usize = 8;
    for cores in [1, 2, 8] {
        let config = SimConfig::table_ii(cores);
        for name in ["Array", "Btree", "TPCC", "YCSB", "zipfmix"] {
            let w = workload_by_name(name).expect("registered workload");
            assert!(forks(w.as_ref(), cores, TXS), "{name} extends");
            for scheme in ALL_SCHEMES {
                let make = || make_scheme(scheme, &config);
                assert_eq!(
                    run_delta_with(&config, make, w.as_ref(), TXS, SEED)
                        .to_json()
                        .to_string(),
                    delta_from_scratch(&config, make, w.as_ref(), TXS)
                        .to_json()
                        .to_string(),
                    "{scheme} / {name} / {cores} cores"
                );
            }
        }
    }

    // An ablation's Silo options, a batched workload, and the diurnal
    // ramp, whose arrivals do not extend and so take the from-t=0 path.
    let config = &SimConfig::table_ii(2);
    let no_merging = SiloOptions {
        log_merging: false,
        onpm_coalescing: false,
        ..SiloOptions::default()
    };
    let diurnal = ArrivalProcess::Diurnal {
        start_gap: 2000,
        end_gap: 100,
    };
    let check =
        |what: &str, w: &dyn Workload, make: &dyn Fn() -> Box<dyn LoggingScheme>, extends| {
            assert_eq!(forks(w, 2, TXS), extends, "{what}");
            assert_eq!(
                run_delta_with(config, make, w, TXS, SEED)
                    .to_json()
                    .to_string(),
                delta_from_scratch(config, make, w, TXS)
                    .to_json()
                    .to_string(),
                "{what}"
            );
        };
    check(
        "Silo without merging / Hash",
        &*workload_by_name("Hash").expect("hash"),
        &|| Box::new(SiloScheme::with_options(config, no_merging)),
        true,
    );
    check(
        "Silo / TPCC batched by 4",
        &Batched::new(workload_by_name("TPCC").expect("tpcc"), 4),
        &|| make_scheme("Silo", config),
        true,
    );
    check(
        "Base / diurnal Hash",
        &OpenLoop::new(workload_by_name("Hash").expect("hash"), diurnal),
        &|| make_scheme("Base", config),
        false,
    );
}

/// Randomized clone round-trip on the wear-tracked media: clone, observe,
/// mutate arbitrarily, `clone_from` the clone — every observable must match
/// the capture-time value.
#[test]
fn paged_media_snapshot_round_trip_randomized() {
    const LINE: u64 = 256;
    const LINES: u64 = 64;
    let mut rng = SplitMix64::new(0x5110_c0de);
    for _trial in 0..8 {
        let mut media = Media::new();
        let scribble = |media: &mut Media, rng: &mut SplitMix64| {
            for _ in 0..32 {
                let base = PhysAddr::new((rng.next_u64() % LINES) * LINE);
                let offset = (rng.next_u64() % 31) as usize * 8;
                let len = (8 + (rng.next_u64() % 3) as usize * 8).min(256 - offset);
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                media.write_masked(base, &bytes, offset);
            }
        };
        scribble(&mut media, &mut rng);

        let snap = media.clone();
        let image: Vec<Vec<u8>> = (0..LINES)
            .map(|i| media.read(PhysAddr::new(i * LINE), LINE as usize))
            .collect();
        let counters = (
            media.line_writes(),
            media.bits_programmed(),
            media.dcw_suppressed(),
            media.touched_lines(),
            media.touched_pages(),
            media.wear().total_programs(),
            media.wear().max_wear(),
        );

        scribble(&mut media, &mut rng);
        media.clone_from(&snap);

        for (i, want) in image.iter().enumerate() {
            assert_eq!(
                &media.read(PhysAddr::new(i as u64 * LINE), LINE as usize),
                want,
                "line {i} not restored"
            );
        }
        assert_eq!(
            (
                media.line_writes(),
                media.bits_programmed(),
                media.dcw_suppressed(),
                media.touched_lines(),
                media.touched_pages(),
                media.wear().total_programs(),
                media.wear().max_wear(),
            ),
            counters,
            "media counters not restored"
        );
    }
}

/// Randomized clone round-trip on the full device: buffer staging, drains,
/// traffic stats, and durability-event counters all restore.
#[test]
fn pm_device_snapshot_round_trip_randomized() {
    let mut rng = SplitMix64::new(0xd1_90_be_ef);
    for _trial in 0..8 {
        let mut dev = PmDevice::new(PmDeviceConfig::default());
        let scribble = |dev: &mut PmDevice, rng: &mut SplitMix64| {
            for _ in 0..48 {
                let addr = PhysAddr::new((rng.next_u64() % 2048) * 8);
                dev.write(addr, &rng.next_u64().to_le_bytes());
                if rng.next_u64().is_multiple_of(13) {
                    dev.flush_all();
                }
            }
        };
        scribble(&mut dev, &mut rng);

        let snap = dev.clone();
        let peeks: Vec<(PhysAddr, u64)> = (0..2048)
            .map(|i| {
                let a = PhysAddr::new(i * 8);
                (a, dev.peek_word(a).as_u64())
            })
            .collect();
        let stats = dev.stats();
        let events = dev.events().total();

        scribble(&mut dev, &mut rng);
        dev.clone_from(&snap);

        for &(a, want) in &peeks {
            assert_eq!(
                dev.peek_word(a).as_u64(),
                want,
                "word at {a:?} not restored"
            );
        }
        assert_eq!(dev.stats(), stats, "traffic stats not restored");
        assert_eq!(dev.events().total(), events, "event counters not restored");
    }
}
