//! Invariants on the *shape* of the paper's headline results: the
//! orderings of Fig 11 (write traffic) and Fig 12 (throughput) and the
//! scalability claim, checked at reduced transaction counts so the suite
//! stays fast.

use silo::core::SiloScheme;
use silo::sim::{Engine, SimConfig, SimStats};
use silo::workloads::{workload_by_name, Workload};
use silo_bench::{make_scheme, run_delta_with};

/// Steady-state measurement: the 2N-run of a deterministic stream minus
/// its N-run, excluding the setup transaction. This is the figure
/// generators' own recipe, and it equals two runs from scratch.
fn run(scheme_name: &str, bench: &str, cores: usize, txs: usize) -> SimStats {
    let config = SimConfig::table_ii(cores);
    let w = workload_by_name(bench).expect("benchmark exists");
    run_delta_with(
        &config,
        || make_scheme(scheme_name, &config),
        w.as_ref(),
        txs,
        42,
    )
}

#[test]
fn fig11_shape_write_traffic_ordering_8_cores() {
    for bench in ["Hash", "TPCC", "YCSB"] {
        let base = run("Base", bench, 8, 150).media_writes() as f64;
        let fwb = run("FWB", bench, 8, 150).media_writes() as f64;
        let morlog = run("MorLog", bench, 8, 150).media_writes() as f64;
        let lad = run("LAD", bench, 8, 150).media_writes() as f64;
        let silo = run("Silo", bench, 8, 150).media_writes() as f64;
        assert!(fwb < base, "[{bench}] FWB below Base");
        assert!(morlog <= fwb * 1.01, "[{bench}] MorLog at or below FWB");
        assert!(lad < morlog, "[{bench}] LAD below MorLog");
        assert!(silo < morlog, "[{bench}] Silo below MorLog");
        // Headline: Silo cuts most of MorLog's traffic (paper: 76.5%).
        assert!(
            silo < 0.5 * morlog,
            "[{bench}] Silo {silo} vs MorLog {morlog}: expected large reduction"
        );
    }
}

#[test]
fn fig12_shape_throughput_ordering_8_cores() {
    // YCSB is excluded from the LAD > FWB check: its transactions touch a
    // single cacheline, so LAD's fixed Prepare drain is not amortized
    // (see EXPERIMENTS.md); all other orderings hold everywhere.
    for bench in ["Hash", "TPCC", "YCSB"] {
        let base = run("Base", bench, 8, 150).throughput();
        let fwb = run("FWB", bench, 8, 150).throughput();
        let lad = run("LAD", bench, 8, 150).throughput();
        let silo = run("Silo", bench, 8, 150).throughput();
        assert!(fwb > base, "[{bench}] FWB above Base");
        if bench != "YCSB" {
            assert!(lad > fwb, "[{bench}] LAD above FWB");
        }
        if bench != "TPCC" {
            // TPCC is this reproduction's one documented deviation: its
            // write sets overflow Silo's log buffer ~2x per transaction,
            // and the §III-F undo batches cost more here than in the
            // paper's memory system (see EXPERIMENTS.md).
            assert!(silo > lad, "[{bench}] Silo above LAD (paper: 1.5x)");
        }
        assert!(silo > 2.0 * base, "[{bench}] Silo well above Base");
    }
}

#[test]
fn fig12_shape_silo_advantage_grows_with_cores() {
    // "When using more CPU cores, Silo achieves higher throughput
    // improvements" (§VI-C).
    for bench in ["Hash", "YCSB"] {
        let speedup_1 =
            run("Silo", bench, 1, 300).throughput() / run("Base", bench, 1, 300).throughput();
        let speedup_8 =
            run("Silo", bench, 8, 80).throughput() / run("Base", bench, 8, 80).throughput();
        assert!(
            speedup_8 > speedup_1 * 1.5,
            "[{bench}] speedup must grow with cores: 1-core {speedup_1:.2}x, 8-core {speedup_8:.2}x"
        );
    }
}

#[test]
fn silo_writes_no_logs_in_failure_free_runs() {
    // Workloads parameterized with tiny setup transactions so nothing
    // overflows the 20-entry buffer — the pure common case. (A giant
    // setup transaction overflows and correctly writes §III-F undo
    // batches; the overflow path has its own tests.)
    let config = SimConfig::table_ii(1);
    let workloads: Vec<(&str, Box<dyn Workload>)> = vec![
        (
            "Bank",
            Box::new(silo::workloads::BankWorkload {
                accounts: 8,
                initial_balance: 100,
            }),
        ),
        (
            "TATP",
            Box::new(silo::workloads::TatpWorkload { subscribers: 4 }),
        ),
        (
            "Queue",
            Box::new(silo::workloads::QueueWorkload { setup_elements: 1 }),
        ),
    ];
    for (name, w) in workloads {
        let mut scheme = SiloScheme::new(&config);
        let streams = w.raw_streams(1, 100, 21);
        let out = Engine::new(&config, &mut scheme).run(streams, None);
        assert_eq!(
            out.stats.scheme_stats.overflow_events, 0,
            "[{name}] no overflow"
        );
        assert_eq!(
            out.stats.pm.log_region_writes, 0,
            "[{name}] the common case must write zero log bytes"
        );
    }
}

#[test]
fn baselines_always_write_logs() {
    for scheme in ["Base", "FWB", "MorLog"] {
        let stats = run(scheme, "Bank", 1, 50);
        assert!(
            stats.pm.log_region_writes > 0,
            "[{scheme}] conservative logging writes the log region every tx"
        );
    }
}

#[test]
fn lad_like_silo_writes_no_logs_but_stalls_at_commit() {
    let lad = run("LAD", "Queue", 1, 200);
    let silo = run("Silo", "Queue", 1, 200);
    assert_eq!(lad.pm.log_region_writes, 0, "LAD is logless in-common-case");
    // The Prepare drain makes LAD slower than Silo even at one core on a
    // low-locality workload (§VI-C's Array/Queue argument).
    assert!(
        silo.throughput() > lad.throughput(),
        "Silo {} vs LAD {}",
        silo.throughput(),
        lad.throughput()
    );
}

#[test]
fn write_traffic_accounting_is_internally_consistent() {
    for scheme in ["Base", "FWB", "MorLog", "LAD", "Silo"] {
        let stats = run(scheme, "Hash", 2, 100);
        let s = stats.pm;
        assert_eq!(
            s.accepted_writes,
            s.data_region_writes + s.log_region_writes,
            "[{scheme}] region split covers all accepted writes"
        );
        // A write-through request spanning an on-PM buffer line boundary
        // programs up to two lines; staged writes program one per fill.
        assert!(
            s.media_line_writes <= 2 * s.accepted_writes + s.buffer_fills,
            "[{scheme}] media programs bounded by write activity"
        );
    }
}
