//! Open-system arrival processes and the [`OpenLoop`] workload wrapper.
//!
//! Every stock workload is a *closed loop*: each core retires its next
//! transaction the instant the previous one commits, so the simulator
//! reproduces the paper's throughput figures but says nothing about the
//! latency an individual request observes under load. An
//! [`ArrivalProcess`] turns any workload into an *open system*: each
//! measured transaction is stamped with an absolute arrival cycle, the
//! engine refuses to begin it earlier, and the per-transaction sojourn
//! (queue wait + service) feeds the exact percentile recorder in
//! `silo-sim::stats`.
//!
//! All processes are seed-deterministic and integer-exact: the exponential
//! sampler behind [`ArrivalProcess::Poisson`] uses von Neumann's
//! uniform-comparison algorithm instead of `-ln(U)`, so schedules are
//! bit-identical across machines, worker counts, and optimisation levels —
//! no floating-point transcendentals anywhere on the reproducibility path.

use silo_sim::{ArrivalSchedule, TraceSet, Transaction};
use silo_types::Xoshiro256;

use crate::Workload;

/// Seed salt so arrival RNG streams never collide with workload RNG
/// streams derived from the same `(seed, core)` pair.
const ARRIVAL_SALT: u64 = 0x61_72_72_69_76_65; // "arrive"

/// When transactions arrive at a core, in cycles.
///
/// `mean_gap`-style parameters are *per-core inter-arrival means*: the
/// per-core offered load is `1 / mean_gap` transactions per cycle, and the
/// machine-wide offered load multiplies by the core count.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ArrivalProcess {
    /// The classic closed loop: no schedule at all, next transaction starts
    /// at commit. Wrapping a workload with this is a no-op, which lets
    /// sweeps include the closed loop as a degenerate "infinite load"
    /// point without a separate code path.
    ClosedLoop,
    /// Memoryless arrivals with exponentially distributed inter-arrival
    /// gaps of mean `mean_gap` cycles (an M/D-ish open system; the "D" is
    /// whatever the scheme's service time turns out to be).
    Poisson {
        /// Mean inter-arrival gap in cycles.
        mean_gap: u64,
    },
    /// On-off traffic: bursts of `burst` arrivals with Poisson gaps of mean
    /// `mean_gap`, separated by fixed `idle_gap`-cycle silences — the
    /// pattern under which log buffers drain between bursts and the first
    /// transactions of a burst see a cold pipe.
    Bursty {
        /// Mean inter-arrival gap within a burst, cycles.
        mean_gap: u64,
        /// Arrivals per burst.
        burst: u64,
        /// Silence between bursts, cycles.
        idle_gap: u64,
    },
    /// A deterministic load ramp: the inter-arrival gap interpolates
    /// linearly from `start_gap` to `end_gap` across the measured
    /// transactions, modelling a diurnal swell (or ebb) within one run.
    Diurnal {
        /// Gap before the first measured transaction, cycles.
        start_gap: u64,
        /// Gap before the last measured transaction, cycles.
        end_gap: u64,
    },
}

impl ArrivalProcess {
    /// Compact stable identity, embedded in trace idents and cell labels.
    /// Two processes with equal idents generate identical schedules for
    /// equal `(cores, txs, seed)`.
    pub fn ident(&self) -> String {
        match self {
            ArrivalProcess::ClosedLoop => "closed".into(),
            ArrivalProcess::Poisson { mean_gap } => format!("poisson{mean_gap}"),
            ArrivalProcess::Bursty {
                mean_gap,
                burst,
                idle_gap,
            } => format!("bursty{mean_gap}x{burst}i{idle_gap}"),
            ArrivalProcess::Diurnal { start_gap, end_gap } => {
                format!("diurnal{start_gap}-{end_gap}")
            }
        }
    }

    /// Parses an [`ident`](Self::ident) string back into its process —
    /// the exact inverse, so repro commands can carry arrival processes
    /// as one CLI token (`closed`, `poisson500`, `bursty100x8i5000`,
    /// `diurnal2000-100`). `None` on anything `ident` cannot produce.
    pub fn parse(ident: &str) -> Option<ArrivalProcess> {
        fn num(s: &str) -> Option<u64> {
            // Reject empty, signs, and leading-zero ambiguity-free enough:
            // plain decimal digits only, as `ident` formats them.
            if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            s.parse().ok()
        }
        if ident == "closed" {
            return Some(ArrivalProcess::ClosedLoop);
        }
        if let Some(rest) = ident.strip_prefix("poisson") {
            return Some(ArrivalProcess::Poisson {
                mean_gap: num(rest)?,
            });
        }
        if let Some(rest) = ident.strip_prefix("bursty") {
            let (gap, rest) = rest.split_once('x')?;
            let (burst, idle) = rest.split_once('i')?;
            return Some(ArrivalProcess::Bursty {
                mean_gap: num(gap)?,
                burst: num(burst)?,
                idle_gap: num(idle)?,
            });
        }
        if let Some(rest) = ident.strip_prefix("diurnal") {
            let (start, end) = rest.split_once('-')?;
            return Some(ArrivalProcess::Diurnal {
                start_gap: num(start)?,
                end_gap: num(end)?,
            });
        }
        None
    }

    /// The arrival schedule for one core: one absolute nondecreasing cycle
    /// per transaction. The `setup` leading transactions arrive at cycle 0
    /// (they build the structure and are excluded from measurement);
    /// `measured` transactions follow. `None` for [`ClosedLoop`]
    /// (no admission control at all).
    ///
    /// [`ClosedLoop`]: ArrivalProcess::ClosedLoop
    pub fn schedule(
        &self,
        core: usize,
        setup: usize,
        measured: usize,
        seed: u64,
    ) -> Option<Vec<u64>> {
        if matches!(self, ArrivalProcess::ClosedLoop) {
            return None;
        }
        let mut rng = Xoshiro256::seeded(
            seed ^ ARRIVAL_SALT ^ (core as u64).wrapping_mul(0x9e37_79b9_97f4_a7c5),
        );
        let mut arrivals = vec![0u64; setup];
        arrivals.reserve(measured);
        let mut now = 0u64;
        match *self {
            ArrivalProcess::ClosedLoop => unreachable!("handled above"),
            ArrivalProcess::Poisson { mean_gap } => {
                for _ in 0..measured {
                    now = now.saturating_add(exp_gap(&mut rng, mean_gap));
                    arrivals.push(now);
                }
            }
            ArrivalProcess::Bursty {
                mean_gap,
                burst,
                idle_gap,
            } => {
                let burst = burst.max(1);
                for i in 0..measured as u64 {
                    if i > 0 && i % burst == 0 {
                        now = now.saturating_add(idle_gap);
                    }
                    now = now.saturating_add(exp_gap(&mut rng, mean_gap));
                    arrivals.push(now);
                }
            }
            ArrivalProcess::Diurnal { start_gap, end_gap } => {
                for i in 0..measured as u64 {
                    // Linear interpolation in u128 so huge gaps cannot
                    // overflow; i ranges over 0..measured, denominator is
                    // the last index (or 1 for a single transaction).
                    let den = (measured as u64).saturating_sub(1).max(1) as u128;
                    let (lo, hi) = (start_gap as u128, end_gap as u128);
                    let gap = if hi >= lo {
                        lo + (hi - lo) * i as u128 / den
                    } else {
                        lo - (lo - hi) * i as u128 / den
                    };
                    now = now.saturating_add(gap as u64);
                    arrivals.push(now);
                }
            }
        }
        Some(arrivals)
    }
}

/// An exponentially distributed inter-arrival gap with mean `mean_gap`
/// cycles, sampled by von Neumann's algorithm: draw uniforms and count the
/// length of the initial strictly-descending run; an odd run length
/// accepts `integer_part + first_uniform` as an Exp(1) variate, an even
/// one increments the integer part and retries. Only `u64` comparisons and
/// one `u128` multiply — no floats, so the result is exactly reproducible
/// everywhere.
fn exp_gap(rng: &mut Xoshiro256, mean_gap: u64) -> u64 {
    if mean_gap == 0 {
        return 0;
    }
    let mut whole = 0u64;
    let frac = loop {
        let first = rng.next_u64();
        let mut prev = first;
        let mut run = 1u64;
        loop {
            let next = rng.next_u64();
            if next < prev {
                prev = next;
                run += 1;
            } else {
                break;
            }
        }
        if run % 2 == 1 {
            break first;
        }
        whole += 1;
    };
    // gap = mean * (whole + frac/2^64), rounded down, in u128 to avoid
    // overflow for any realistic mean.
    let scaled = (mean_gap as u128 * frac as u128) >> 64;
    mean_gap.saturating_mul(whole).saturating_add(scaled as u64)
}

/// Wraps any workload with an [`ArrivalProcess`], producing open-system
/// traces: identical transaction content, plus a per-core arrival schedule
/// attached to the [`TraceSet`]. Setup transactions arrive at cycle 0 and
/// are excluded from latency measurement.
#[derive(Clone, Debug)]
pub struct OpenLoop<W> {
    inner: W,
    process: ArrivalProcess,
}

impl<W: Workload> OpenLoop<W> {
    /// Wraps `inner` with `process`.
    pub fn new(inner: W, process: ArrivalProcess) -> Self {
        OpenLoop { inner, process }
    }
}

impl<W: Workload> Workload for OpenLoop<W> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn trace_ident(&self) -> String {
        // ClosedLoop is a true no-op, so it keeps the inner ident and the
        // trace cache shares entries with unwrapped runs.
        match self.process {
            ArrivalProcess::ClosedLoop => self.inner.trace_ident(),
            _ => format!("{}@{}", self.inner.trace_ident(), self.process.ident()),
        }
    }

    fn raw_streams(&self, cores: usize, txs_per_core: usize, seed: u64) -> Vec<Vec<Transaction>> {
        self.inner.raw_streams(cores, txs_per_core, seed)
    }

    fn build_trace(&self, cores: usize, txs_per_core: usize, seed: u64) -> TraceSet {
        let base = self.inner.build_trace(cores, txs_per_core, seed);
        if matches!(self.process, ArrivalProcess::ClosedLoop) {
            return base;
        }
        let scheds = base
            .streams()
            .iter()
            .enumerate()
            .map(|(core, stream)| {
                let setup = stream.len() - txs_per_core;
                let arrivals = self
                    .process
                    .schedule(core, setup, txs_per_core, seed)
                    .expect("non-closed process always yields a schedule");
                ArrivalSchedule::new(arrivals, setup)
            })
            .collect();
        base.with_arrivals(scheds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueueWorkload;

    #[test]
    fn schedules_are_deterministic_per_seed_and_core() {
        for p in [
            ArrivalProcess::Poisson { mean_gap: 500 },
            ArrivalProcess::Bursty {
                mean_gap: 100,
                burst: 8,
                idle_gap: 5_000,
            },
            ArrivalProcess::Diurnal {
                start_gap: 2_000,
                end_gap: 100,
            },
        ] {
            let a = p.schedule(3, 1, 256, 42).expect("schedule");
            let b = p.schedule(3, 1, 256, 42).expect("schedule");
            assert_eq!(a, b, "{}", p.ident());
            if !matches!(p, ArrivalProcess::Diurnal { .. }) {
                // Randomized processes decorrelate cores; the diurnal ramp
                // is deliberately a synchronized machine-wide swell.
                let other_core = p.schedule(4, 1, 256, 42).expect("schedule");
                assert_ne!(a, other_core, "cores must not share schedules");
            }
            assert!(a.windows(2).all(|w| w[0] <= w[1]), "nondecreasing");
            assert_eq!(a.len(), 257);
            assert_eq!(a[0], 0, "setup arrives at cycle 0");
        }
    }

    #[test]
    fn closed_loop_is_a_no_op() {
        assert_eq!(ArrivalProcess::ClosedLoop.schedule(0, 1, 10, 7), None);
        let plain = QueueWorkload::default().build_trace(2, 10, 42);
        let wrapped = OpenLoop::new(QueueWorkload::default(), ArrivalProcess::ClosedLoop);
        assert_eq!(wrapped.build_trace(2, 10, 42), plain);
        assert_eq!(
            wrapped.trace_ident(),
            QueueWorkload::default().trace_ident(),
            "closed loop shares trace-cache entries with the unwrapped workload"
        );
    }

    #[test]
    fn open_traces_attach_schedules_without_changing_ops() {
        let w = OpenLoop::new(
            QueueWorkload::default(),
            ArrivalProcess::Poisson { mean_gap: 300 },
        );
        let trace = w.build_trace(2, 20, 42);
        let plain = QueueWorkload::default().build_trace(2, 20, 42);
        assert_eq!(trace.streams(), plain.streams(), "ops are untouched");
        assert_ne!(trace, plain);
        let scheds = trace.arrivals().expect("schedules attached");
        assert_eq!(scheds.len(), 2);
        for (sched, stream) in scheds.iter().zip(trace.streams()) {
            assert_eq!(sched.arrivals.len(), stream.len());
            assert_eq!(sched.measure_from, stream.len() - 20);
        }
        assert!(w.trace_ident().contains("@poisson300"));
    }

    #[test]
    fn poisson_gaps_have_roughly_the_requested_mean() {
        let mut rng = Xoshiro256::seeded(9);
        let n = 20_000u64;
        let total: u64 = (0..n).map(|_| exp_gap(&mut rng, 1_000)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (900.0..1100.0).contains(&mean),
            "sample mean {mean} far from 1000"
        );
    }

    #[test]
    fn bursty_inserts_idle_gaps_between_bursts() {
        let p = ArrivalProcess::Bursty {
            mean_gap: 10,
            burst: 4,
            idle_gap: 100_000,
        };
        let a = p.schedule(0, 0, 12, 1).expect("schedule");
        // Gaps at burst boundaries (indices 4 and 8) dwarf in-burst gaps.
        assert!(a[4] - a[3] >= 100_000);
        assert!(a[8] - a[7] >= 100_000);
        assert!(a[3] - a[0] < 1_000);
    }

    #[test]
    fn diurnal_ramps_monotonically() {
        let p = ArrivalProcess::Diurnal {
            start_gap: 1_000,
            end_gap: 100,
        };
        let a = p.schedule(0, 0, 100, 1).expect("schedule");
        let first_gap = a[1] - a[0];
        let last_gap = a[99] - a[98];
        assert!(first_gap > last_gap, "{first_gap} should exceed {last_gap}");
        assert!(last_gap >= 100);
        // The reverse ramp works too.
        let up = ArrivalProcess::Diurnal {
            start_gap: 100,
            end_gap: 1_000,
        };
        let b = up.schedule(0, 0, 100, 1).expect("schedule");
        assert!(b[99] - b[98] > b[1] - b[0]);
    }

    #[test]
    fn idents_are_unique_per_configuration() {
        let ids: Vec<String> = [
            ArrivalProcess::ClosedLoop,
            ArrivalProcess::Poisson { mean_gap: 100 },
            ArrivalProcess::Poisson { mean_gap: 200 },
            ArrivalProcess::Bursty {
                mean_gap: 100,
                burst: 4,
                idle_gap: 50,
            },
            ArrivalProcess::Bursty {
                mean_gap: 100,
                burst: 5,
                idle_gap: 50,
            },
            ArrivalProcess::Diurnal {
                start_gap: 1,
                end_gap: 2,
            },
        ]
        .iter()
        .map(ArrivalProcess::ident)
        .collect();
        let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn parse_round_trips_every_ident() {
        for p in [
            ArrivalProcess::ClosedLoop,
            ArrivalProcess::Poisson { mean_gap: 500 },
            ArrivalProcess::Bursty {
                mean_gap: 100,
                burst: 8,
                idle_gap: 5_000,
            },
            ArrivalProcess::Diurnal {
                start_gap: 2_000,
                end_gap: 100,
            },
            ArrivalProcess::Diurnal {
                start_gap: 0,
                end_gap: 0,
            },
        ] {
            let ident = p.ident();
            assert_eq!(
                ArrivalProcess::parse(&ident),
                Some(p),
                "ident {ident} must parse back"
            );
        }
    }

    #[test]
    fn parse_rejects_malformed_idents() {
        for bad in [
            "",
            "close",
            "closedx",
            "poisson",
            "poisson-5",
            "poisson5x",
            "bursty100",
            "bursty100x8",
            "burstyx8i5",
            "diurnal100",
            "diurnal-100-200",
            "diurnal100-",
            "uniform100",
        ] {
            assert_eq!(ArrivalProcess::parse(bad), None, "{bad:?} must not parse");
        }
    }
}
