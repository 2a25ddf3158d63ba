//! Every workload runs to completion under every scheme, and the Fig 4
//! premise (small write sets) holds for the whole suite.

use silo::baselines::{BaseScheme, FwbScheme, LadScheme, MorLogScheme};
use silo::core::SiloScheme;
use silo::sim::{Engine, LoggingScheme, SimConfig};
use silo::workloads::{fig4_set, workload_by_name, ArrivalProcess, OpenLoop, Workload};

fn schemes(config: &SimConfig) -> Vec<Box<dyn LoggingScheme>> {
    vec![
        Box::new(BaseScheme::new(config)),
        Box::new(FwbScheme::new(config)),
        Box::new(MorLogScheme::new(config)),
        Box::new(LadScheme::new(config)),
        Box::new(SiloScheme::new(config)),
    ]
}

#[test]
fn every_workload_commits_under_every_scheme() {
    let cores = 2;
    let txs = 40;
    for workload in fig4_set() {
        let config = SimConfig::table_ii(cores);
        for mut scheme in schemes(&config) {
            let name = scheme.name();
            let streams = workload.raw_streams(cores, txs, 3);
            let expected: u64 = streams.iter().map(|s| s.len() as u64).sum();
            let out = Engine::new(&config, scheme.as_mut()).run(streams, None);
            assert_eq!(
                out.stats.txs_committed,
                expected,
                "[{name} / {}]",
                workload.name()
            );
            assert!(out.stats.sim_cycles.as_u64() > 0);
        }
    }
}

#[test]
fn fig4_premise_write_sets_are_small() {
    // §II-E: "the write size is generally less than 0.5 KB per
    // transaction" — the observation that justifies a 20-entry buffer.
    for workload in fig4_set() {
        let streams = workload.raw_streams(1, 300, 4);
        let measured = &streams[0][1..];
        let avg: f64 = measured
            .iter()
            .map(|t| t.write_set_bytes() as f64)
            .sum::<f64>()
            / measured.len() as f64;
        assert!(
            avg < 520.0,
            "[{}] average write set {avg:.0} B exceeds the paper's premise",
            workload.name()
        );
        assert!(
            avg > 0.0 || workload.name() == "TATP",
            "[{}] workload writes nothing?",
            workload.name()
        );
    }
}

#[test]
fn per_core_streams_touch_disjoint_regions() {
    for workload in fig4_set() {
        let streams = workload.raw_streams(4, 20, 9);
        let mut seen: Vec<std::collections::BTreeSet<u64>> = Vec::new();
        for stream in &streams {
            let mut region = std::collections::BTreeSet::new();
            for tx in stream {
                for op in tx.ops() {
                    if let silo::sim::Op::Write(a, _) = op {
                        region.insert(a.as_u64() / silo::workloads::CORE_REGION_BYTES);
                    }
                }
            }
            seen.push(region);
        }
        for i in 0..seen.len() {
            for j in i + 1..seen.len() {
                assert!(
                    seen[i].is_disjoint(&seen[j]),
                    "[{}] cores {i} and {j} share 64MiB regions",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn multicore_partitioning_mirrors_multi_mc_affinity() {
    // §III-D's multiple-MC argument: logs and in-place updates of one
    // transaction always target the same controller because one thread
    // executes the whole transaction. In the model this shows up as a
    // per-core log area and a per-core data region; verify a multi-core
    // Silo run keeps each thread's log-region traffic inside its own area.
    let cores = 4;
    let config = SimConfig::table_ii(cores);
    let mut scheme = SiloScheme::new(&config);
    // Two hash inserts per transaction: ~38 surviving entries, well past
    // the 20-entry buffer, so §III-F overflow batches hit the log region.
    let w = silo::workloads::HashWorkload {
        buckets: 64,
        setup_inserts: 0,
        mix: silo::workloads::HashMix::InsertOnly,
    };
    let streams = w.raw_streams(cores, 200, 5);
    let batched: Vec<_> = streams
        .into_iter()
        .map(|stream| {
            stream
                .chunks(2)
                .map(|pair| {
                    let mut ops = Vec::new();
                    for tx in pair {
                        ops.extend_from_slice(tx.ops());
                    }
                    silo::sim::Transaction::new(ops)
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let expected: u64 = batched.iter().map(|s| s.len() as u64).sum();
    let out = Engine::new(&config, &mut scheme).run(batched, None);
    // Overflows happened and were all serviced without aborts.
    assert!(out.stats.scheme_stats.overflow_events > 0);
    assert!(out.stats.pm.log_region_writes > 0);
    assert_eq!(out.stats.txs_committed, expected);
}

#[test]
fn multi_mc_silo_is_consistent_and_scales() {
    // §III-D: Silo needs no cross-controller coordination — results stay
    // correct with multiple MCs, and MC-bound workloads speed up.
    use silo::types::Cycles;
    let w = silo::workloads::TpccWorkload::default();
    let mut tp = Vec::new();
    for mcs in [1usize, 2] {
        let mut config = SimConfig::table_ii(4);
        config.num_mcs = mcs;
        let mut scheme = SiloScheme::new(&config);
        let streams = w.raw_streams(4, 150, 7);
        let out = Engine::new(&config, &mut scheme).run(streams, None);
        assert_eq!(out.stats.txs_committed, (150 + 1) * 4);
        tp.push(out.stats.throughput());
    }
    assert!(tp[1] >= tp[0] * 0.99, "more controllers never hurt: {tp:?}");

    // And crash consistency holds with 2 controllers.
    let mut config = SimConfig::table_ii(4);
    config.num_mcs = 2;
    let mut scheme = SiloScheme::new(&config);
    let streams = w.raw_streams(4, 150, 7);
    let out = Engine::new(&config, &mut scheme).run(streams, Some(Cycles::new(60_000)));
    let crash = out.crash.expect("crash injected");
    assert!(
        crash.consistency.is_consistent(),
        "{:?}",
        crash.consistency.violations
    );
}

/// Every row of the workload registry: the Fig 4 eleven, the tpcc-mix
/// alias and the memento-style zoo.
const REGISTRY_ROWS: [&str; 16] = [
    "array",
    "btree",
    "hash",
    "queue",
    "rbtree",
    "tpcc",
    "ycsb",
    "rtree",
    "ctrie",
    "tatp",
    "bank",
    "tpcc-mix",
    "msqueue",
    "treiber",
    "zipfmix",
    "zipfmix-mt",
];

/// Whether `long`'s streams and arrival schedules start with `short`'s,
/// compared transaction by transaction and cycle by cycle.
fn extends(long: &silo::sim::TraceSet, short: &silo::sim::TraceSet) -> bool {
    let streams = long.cores() == short.cores()
        && long
            .streams()
            .iter()
            .zip(short.streams())
            .all(|(l, s)| l.len() >= s.len() && l[..s.len()] == s[..]);
    let arrivals = match (long.arrivals(), short.arrivals()) {
        (None, None) => true,
        (Some(l), Some(s)) => l.iter().zip(s).all(|(l, s)| {
            l.measure_from == s.measure_from
                && l.arrivals.len() >= s.arrivals.len()
                && l.arrivals[..s.arrivals.len()] == s.arrivals[..]
        }),
        _ => false,
    };
    let both = streams && arrivals;
    assert_eq!(
        long.starts_with(short),
        both,
        "TraceSet::starts_with agrees"
    );
    both
}

#[test]
fn doubling_the_budget_extends_every_stream() {
    // The steady-state delta simulates the prefix an N-run shares with
    // its 2N-run once and forks; that is exact only while every generator
    // is prefix-extensive. Fig 14 reads each multiplier's inner streams
    // as a prefix of one longer trace, so any larger budget must extend
    // a smaller one, not only its double (50 -> 75: the probe's budget
    // and `--txs 600`'s; 64 -> 72: two multipliers' inner budgets).
    assert!(fig4_set()
        .iter()
        .all(|w| REGISTRY_ROWS.contains(&w.name().to_ascii_lowercase().as_str())));
    for name in REGISTRY_ROWS {
        let w = workload_by_name(name).expect("registry row resolves");
        for cores in [1, 2, 8] {
            for (txs, longer) in [(1, 2), (7, 14), (75, 150), (50, 75), (64, 72)] {
                for seed in [42, 7] {
                    let short = w.build_trace(cores, txs, seed);
                    let long = w.build_trace(cores, longer, seed);
                    assert!(
                        extends(&long, &short),
                        "[{name}] {cores} cores, {txs} -> {longer} txs, seed {seed}"
                    );
                }
            }
        }
    }
}

#[test]
fn a_cores_stream_does_not_depend_on_the_core_count() {
    // Fig 14 sizes its batches from core 0 of its 8-core trace, which
    // must be the one-core trace's stream, and reads every core's setup
    // as its stream's first transaction.
    for name in REGISTRY_ROWS {
        let w = workload_by_name(name).expect("registry row resolves");
        for seed in [42, 7] {
            let traces = [1, 2, 8].map(|cores| w.build_trace(cores, 20, seed));
            for trace in &traces {
                assert!(
                    trace.streams().iter().all(|s| s.len() == 1 + 20),
                    "[{name}] seed {seed}: one setup transaction, then the budget"
                );
            }
            for (i, stream) in traces[2].streams().iter().enumerate() {
                for smaller in &traces[..2] {
                    if let Some(same) = smaller.streams().get(i) {
                        assert!(same == stream, "[{name}] seed {seed}: core {i}");
                    }
                }
            }
        }
    }
}

#[test]
fn open_loop_arrivals_extend_except_the_diurnal_ramp() {
    for process in [
        ArrivalProcess::Poisson { mean_gap: 500 },
        ArrivalProcess::Bursty {
            mean_gap: 100,
            burst: 8,
            idle_gap: 5000,
        },
    ] {
        for name in ["hash", "zipfmix"] {
            let w = OpenLoop::new(workload_by_name(name).expect("row"), process.clone());
            for cores in [1, 2, 8] {
                for txs in [1, 7, 75] {
                    let short = w.build_trace(cores, txs, 42);
                    let long = w.build_trace(cores, 2 * txs, 42);
                    assert!(
                        short.arrivals().is_some(),
                        "open-loop traces carry arrivals"
                    );
                    assert!(
                        extends(&long, &short),
                        "[{name} @ {}] {cores} cores, {txs} txs",
                        process.ident()
                    );
                }
            }
        }
    }
    // The ramp interpolates across the whole measured budget, so doubling
    // it changes the early gaps: the delta must run its 2N trace from t=0.
    let diurnal = OpenLoop::new(
        workload_by_name("hash").expect("row"),
        ArrivalProcess::Diurnal {
            start_gap: 2000,
            end_gap: 100,
        },
    );
    let short = diurnal.build_trace(2, 20, 42);
    let long = diurnal.build_trace(2, 40, 42);
    assert!(
        long.streams()
            .iter()
            .zip(short.streams())
            .all(|(l, s)| l[..s.len()] == s[..]),
        "the transactions still extend"
    );
    assert!(!extends(&long, &short), "the arrival cycles do not");
}
