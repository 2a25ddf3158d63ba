//! Immutable, shareable workload trace artifacts.
//!
//! A [`TraceSet`] is the first-class form of "the input to a simulation
//! run", and the one type the [`Engine`](crate::Engine) consumes: one
//! operation stream per core, frozen behind `Arc`s, plus an arrival
//! schedule per core when the trace is open-system. Cloning a `TraceSet`
//! is a handful of pointer bumps, so one generated trace can be swept
//! across many schemes, crash points, and worker threads without
//! re-running the generator or copying ops.

use std::sync::Arc;

use crate::ops::Transaction;

/// Per-core open-system arrival schedule: one absolute arrival cycle per
/// transaction in the core's stream.
///
/// A transaction is not eligible to begin before its arrival cycle; the
/// engine records its **sojourn** (queue + service) time from arrival to
/// commit. `measure_from` excludes leading setup transactions from latency
/// recording — they arrive at cycle 0 and are not user requests.
///
/// Schedules are frozen behind an `Arc` so cloning a trace or fanning it
/// out across workers stays a pointer bump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalSchedule {
    /// Absolute, nondecreasing arrival cycle per transaction (setup
    /// transactions included, at cycle 0).
    pub arrivals: Arc<[u64]>,
    /// Index of the first transaction whose sojourn is measured; earlier
    /// transactions (setup) are admitted but not recorded.
    pub measure_from: usize,
}

impl ArrivalSchedule {
    /// Freezes a per-core schedule.
    ///
    /// # Panics
    ///
    /// Panics if the arrival cycles are not nondecreasing — an out-of-order
    /// schedule would let a later transaction be admitted before an earlier
    /// one and break the in-stream ordering the oracle assumes.
    pub fn new(arrivals: Vec<u64>, measure_from: usize) -> Self {
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrival schedule must be nondecreasing"
        );
        ArrivalSchedule {
            arrivals: arrivals.into(),
            measure_from,
        }
    }
}

/// An immutable set of per-core transaction streams, with an arrival
/// schedule per stream when the trace is open-system.
///
/// Construction freezes the streams behind `Arc<[Transaction]>`; all reads
/// go through shared slices and every clone is a pointer bump. A trace is
/// nothing but its streams and schedules: the trace cache's key names it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSet {
    streams: Arc<[Arc<[Transaction]>]>,
    arrivals: Option<Arc<[ArrivalSchedule]>>,
}

impl TraceSet {
    /// Freezes freshly generated streams, one per core, into a closed-loop
    /// trace.
    pub fn new(streams: Vec<Vec<Transaction>>) -> Self {
        TraceSet {
            streams: streams.into_iter().map(Arc::from).collect(),
            arrivals: None,
        }
    }

    /// Attaches per-core arrival schedules to a closed-loop trace, turning
    /// it into an open-system trace.
    ///
    /// # Panics
    ///
    /// Panics if the schedule count does not match the core count, or any
    /// schedule's length does not match its stream's transaction count.
    pub fn with_arrivals(mut self, arrivals: Vec<ArrivalSchedule>) -> Self {
        assert_eq!(
            arrivals.len(),
            self.streams.len(),
            "arrival schedule count must match the trace core count"
        );
        for (core, (sched, stream)) in arrivals.iter().zip(self.streams.iter()).enumerate() {
            assert_eq!(
                sched.arrivals.len(),
                stream.len(),
                "core {core} arrival schedule length must match its stream"
            );
        }
        self.arrivals = Some(arrivals.into());
        self
    }

    /// The per-core arrival schedules, if this is an open-system trace.
    pub fn arrivals(&self) -> Option<&[ArrivalSchedule]> {
        self.arrivals.as_deref()
    }

    /// The per-core streams, one shared slice per core.
    pub fn streams(&self) -> &[Arc<[Transaction]>] {
        &self.streams
    }

    /// Number of per-core streams.
    pub fn cores(&self) -> usize {
        self.streams.len()
    }

    /// Whether every stream of this trace starts with the same-numbered
    /// stream of `prefix`, and every arrival schedule with `prefix`'s
    /// (same setup count, same leading arrival cycles). A clean run of
    /// this trace then repeats a clean run of `prefix` step for step
    /// until the first core runs out of `prefix`'s transactions, which is
    /// what lets [`Engine::run_continued`](crate::Engine::run_continued)
    /// continue from `prefix`'s fork point.
    pub fn starts_with(&self, prefix: &TraceSet) -> bool {
        let arrivals_extend = match (self.arrivals(), prefix.arrivals()) {
            (None, None) => true,
            (Some(a), Some(p)) => {
                a.len() == p.len()
                    && a.iter().zip(p).all(|(a, p)| {
                        a.measure_from == p.measure_from && a.arrivals.starts_with(&p.arrivals)
                    })
            }
            _ => false,
        };
        arrivals_extend
            && self.streams.len() == prefix.streams.len()
            && self
                .streams
                .iter()
                .zip(prefix.streams.iter())
                .all(|(s, p)| s.starts_with(p))
    }
}

/// Freezes owned streams ([`TraceSet::new`]), so tests can hand the
/// engine plain `Vec`s.
impl From<Vec<Vec<Transaction>>> for TraceSet {
    fn from(streams: Vec<Vec<Transaction>>) -> Self {
        TraceSet::new(streams)
    }
}

/// A pointer-bump clone, so a caller keeps its trace after a run.
impl From<&TraceSet> for TraceSet {
    fn from(trace: &TraceSet) -> Self {
        trace.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::NullScheme;
    use crate::{Engine, SimConfig};
    use silo_types::{PhysAddr, Word};

    fn tx(writes: &[(u64, u64)]) -> Transaction {
        let mut b = Transaction::builder();
        for &(a, v) in writes {
            b = b.write(PhysAddr::new(a), Word::new(v));
        }
        b.build()
    }

    // A trace is nothing but its streams and schedules, so `==` is its
    // whole identity: the next five tests (named for the content digest
    // that `==` replaced) check that it sees every part of a trace.

    #[test]
    fn identical_streams_hash_identically() {
        let mk = || vec![vec![tx(&[(0, 1), (8, 2)])], vec![tx(&[(64, 3)])]];
        assert_eq!(TraceSet::new(mk()), TraceSet::new(mk()));
    }

    #[test]
    fn different_content_hashes_differently() {
        let a = TraceSet::new(vec![vec![tx(&[(0, 1)])]]);
        let b = TraceSet::new(vec![vec![tx(&[(0, 2)])]]);
        assert_ne!(a, b);
    }

    #[test]
    fn stream_boundaries_affect_the_hash() {
        let one = TraceSet::new(vec![vec![tx(&[(0, 1)]), tx(&[(8, 2)])]]);
        let joined = TraceSet::new(vec![vec![tx(&[(0, 1), (8, 2)])]]);
        let two = TraceSet::new(vec![vec![tx(&[(0, 1)])], vec![tx(&[(8, 2)])]]);
        assert_ne!(one, joined, "transaction boundaries count");
        assert_ne!(one, two, "stream boundaries count");
    }

    #[test]
    fn arrivals_change_the_hash_and_flow_into_streams() {
        let closed = TraceSet::new(vec![vec![tx(&[(0, 1)]), tx(&[(8, 2)])]]);
        let open = |arrivals: Vec<u64>, measure_from| {
            closed
                .clone()
                .with_arrivals(vec![ArrivalSchedule::new(arrivals, measure_from)])
        };
        let poisson = open(vec![0, 100], 1);
        assert_ne!(poisson, closed);
        assert_ne!(poisson, open(vec![0, 101], 1));
        assert_ne!(poisson, open(vec![0, 100], 0));
        assert_eq!(poisson.streams(), closed.streams());
        // The engine's input conversion keeps the schedules.
        let s: TraceSet = (&poisson).into();
        assert_eq!(s.arrivals().expect("open")[0].arrivals.as_ref(), &[0, 100]);
        let c: TraceSet = (&closed).into();
        assert!(c.arrivals().is_none());
    }

    #[test]
    fn to_vecs_round_trips_content() {
        let a = TraceSet::new(vec![vec![tx(&[(0, 1), (8, 2)])]]);
        let owned: Vec<Vec<Transaction>> = a.streams().iter().map(|s| s.to_vec()).collect();
        assert_eq!(TraceSet::new(owned), a);
    }

    #[test]
    fn clone_shares_streams() {
        let a = TraceSet::new(vec![vec![tx(&[(0, 1)])]]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.streams, &b.streams));
        let c: TraceSet = (&a).into();
        assert!(Arc::ptr_eq(&c.streams()[0], &a.streams()[0]));
    }

    #[test]
    #[should_panic(expected = "one transaction stream per core")]
    fn mismatched_core_count_rejected() {
        let trace = TraceSet::new(vec![vec![tx(&[(0, 1)])]]);
        Engine::new(&SimConfig::table_ii(2), &mut NullScheme::default()).run(&trace, None);
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn out_of_order_arrivals_rejected() {
        let _ = ArrivalSchedule::new(vec![10, 5], 0);
    }

    #[test]
    #[should_panic(expected = "match its stream")]
    fn arrival_length_mismatch_rejected() {
        let t = TraceSet::new(vec![vec![tx(&[(0, 1)])]]);
        let _ = t.with_arrivals(vec![ArrivalSchedule::new(vec![0, 1], 0)]);
    }
}
