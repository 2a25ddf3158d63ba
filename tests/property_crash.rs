//! Property test: atomic durability holds for random transaction streams
//! crashed at random cycles inside the run, under every logging scheme.
//!
//! This is the repository's strongest correctness statement: whatever the
//! write pattern and wherever the power fails, the recovered PM image is
//! all-or-nothing per transaction.

use silo::baselines::{
    BaseScheme, EadrSwLogScheme, FwbScheme, LadScheme, MorLogScheme, SwLogScheme,
};
use silo::core::{SiloOptions, SiloScheme};
use silo::sim::{Engine, LoggingScheme, SimConfig, Transaction};
use silo::types::prop::{check, Gen};
use silo::types::{Cycles, PhysAddr, Word};

/// A compact random workload description: per core, a list of
/// transactions, each a list of (word slot, value) writes.
type Spec = Vec<Vec<Vec<(u64, u64)>>>;

fn spec(g: &mut Gen) -> Spec {
    g.vec(1..3, |g| {
        g.vec(1..6, |g| {
            g.vec(1..10, |g| (g.range(0..24), g.range(1..1_000_000)))
        })
    })
}

fn build_streams(spec: &Spec) -> Vec<Vec<Transaction>> {
    spec.iter()
        .enumerate()
        .map(|(core, stream)| {
            // Per-core disjoint slot pools satisfy the isolation assumption.
            let base = core as u64 * (1 << 20);
            stream
                .iter()
                .map(|writes| {
                    let mut b = Transaction::builder();
                    for &(slot, value) in writes {
                        b = b.write(PhysAddr::new(base + slot * 8), Word::new(value));
                    }
                    b.build()
                })
                .collect()
        })
        .collect()
}

/// Runs `spec` clean under `make`'s scheme, then crashes it at a cycle
/// drawn from `0..` the clean run's length, so the cut lands inside the
/// run, and checks the recovered image.
fn check_scheme(g: &mut Gen, make: impl Fn(&SimConfig) -> Box<dyn LoggingScheme>, spec: &Spec) {
    let config = SimConfig::table_ii(spec.len());
    let mut scheme = make(&config);
    let clean = Engine::new(&config, scheme.as_mut()).run(build_streams(spec), None);
    let crash_at = g.range(0..clean.stats.sim_cycles.as_u64().max(1));
    let mut scheme = make(&config);
    let name = scheme.name();
    let out =
        Engine::new(&config, scheme.as_mut()).run(build_streams(spec), Some(Cycles::new(crash_at)));
    let crash = out.crash.expect("crash injected");
    assert!(
        crash.consistency.is_consistent(),
        "[{}] crash at {}: {:?}",
        name,
        crash_at,
        crash.consistency.violations
    );
}

/// Checks `make`'s scheme on 48 random specs, each crashed at a random
/// cycle of its run.
fn recovers_any_random_crash(name: &str, make: impl Fn(&SimConfig) -> Box<dyn LoggingScheme>) {
    check(name, 48, |g| {
        let spec = spec(g);
        check_scheme(g, &make, &spec);
    });
}

#[test]
fn silo_recovers_any_random_crash() {
    recovers_any_random_crash("silo_recovers_any_random_crash", |c| {
        Box::new(SiloScheme::new(c))
    });
}

#[test]
fn silo_with_slow_drain_recovers_any_random_crash() {
    check("silo_with_slow_drain_recovers_any_random_crash", 48, |g| {
        let spec = spec(g);
        let drain = g.pick(&[0u64, 64, 100_000, u64::MAX / 2]);
        check_scheme(
            g,
            |c| {
                Box::new(SiloScheme::with_options(
                    c,
                    SiloOptions {
                        ipu_drain_delay: drain,
                        ..SiloOptions::default()
                    },
                ))
            },
            &spec,
        );
    });
}

#[test]
fn base_recovers_any_random_crash() {
    recovers_any_random_crash("base_recovers_any_random_crash", |c| {
        Box::new(BaseScheme::new(c))
    });
}

#[test]
fn fwb_recovers_any_random_crash() {
    recovers_any_random_crash("fwb_recovers_any_random_crash", |c| {
        Box::new(FwbScheme::new(c))
    });
}

#[test]
fn morlog_recovers_any_random_crash() {
    recovers_any_random_crash("morlog_recovers_any_random_crash", |c| {
        Box::new(MorLogScheme::new(c))
    });
}

#[test]
fn lad_recovers_any_random_crash() {
    recovers_any_random_crash("lad_recovers_any_random_crash", |c| {
        Box::new(LadScheme::new(c))
    });
}

#[test]
fn swlog_recovers_any_random_crash() {
    recovers_any_random_crash("swlog_recovers_any_random_crash", |c| {
        Box::new(SwLogScheme::new(c))
    });
}

#[test]
fn eadr_swlog_recovers_any_random_crash() {
    recovers_any_random_crash("eadr_swlog_recovers_any_random_crash", |c| {
        Box::new(EadrSwLogScheme::new(c))
    });
}

/// Transactions big enough to overflow Silo's log buffer several times
/// over, crashed anywhere in the run.
#[test]
fn silo_overflowing_transactions_recover() {
    check("silo_overflowing_transactions_recover", 48, |g| {
        let words = g.range(30..200);
        let txs = g.range(1..4);
        let spec: Spec = vec![(0..txs)
            .map(|t| (0..words).map(|i| (i, t * 1_000 + i + 1)).collect())
            .collect()];
        check_scheme(g, |c| Box::new(SiloScheme::new(c)), &spec);
    });
}
