//! Immutable, shareable workload trace artifacts.
//!
//! A [`TraceSet`] is the first-class form of "the input to a simulation
//! run": one operation stream per core, frozen behind `Arc`s, plus the
//! provenance that produced it (workload identity, core count,
//! transactions per core, RNG seed) and a content hash over every op.
//! Cloning a `TraceSet` — or converting it into the [`TxStreams`] the
//! [`Engine`](crate::Engine) consumes — is a handful of pointer bumps, so
//! one generated trace can be swept across many schemes, crash points, and
//! worker threads without re-running the generator or copying ops.

use std::sync::Arc;

use crate::ops::{Op, Transaction};

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

/// Where a [`TraceSet`] came from: the full generation key plus a content
/// hash of the resulting streams.
///
/// Two traces built from the same `(workload, cores, txs_per_core, seed)`
/// must have equal `content_hash` — generation is deterministic — and the
/// hash gives consumers (caches, reports, tests) a cheap identity check
/// that does not require walking the ops again.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceProvenance {
    /// Workload identity, including any generation-affecting parameters
    /// (e.g. `"Hash/buckets=1024,setup=4096,mix=ReadHeavy"`), not just the
    /// display name — two configurations of one workload type must not
    /// alias.
    pub workload: String,
    /// Number of per-core streams.
    pub cores: usize,
    /// Measured transactions generated per core (setup transactions are
    /// part of the stream but counted by the generator, not here).
    pub txs_per_core: usize,
    /// RNG seed the generator was invoked with.
    pub seed: u64,
    /// FNV-1a hash over every op of every transaction of every stream.
    pub content_hash: u64,
}

/// An immutable set of per-core transaction streams with provenance.
///
/// Construction freezes the streams behind `Arc<[Transaction]>`; all reads
/// go through shared slices and every clone is a pointer bump.
#[derive(Clone, Debug)]
pub struct TraceSet {
    streams: Arc<[Arc<[Transaction]>]>,
    arrivals: Option<Arc<[ArrivalSchedule]>>,
    provenance: TraceProvenance,
}

impl TraceSet {
    /// Freezes freshly generated streams into a trace artifact.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len() != cores` — a trace that does not match
    /// its own provenance would poison every downstream cache key.
    pub fn new(
        workload: impl Into<String>,
        cores: usize,
        txs_per_core: usize,
        seed: u64,
        streams: Vec<Vec<Transaction>>,
    ) -> Self {
        assert_eq!(
            streams.len(),
            cores,
            "trace stream count must match its provenance core count"
        );
        let content_hash = hash_streams(&streams);
        let streams: Arc<[Arc<[Transaction]>]> = streams
            .into_iter()
            .map(Arc::from)
            .collect::<Vec<_>>()
            .into();
        TraceSet {
            streams,
            arrivals: None,
            provenance: TraceProvenance {
                workload: workload.into(),
                cores,
                txs_per_core,
                seed,
                content_hash,
            },
        }
    }

    /// Attaches per-core arrival schedules to a closed-loop trace, turning
    /// it into an open-system trace. The schedules are folded into the
    /// content hash so open and closed variants of one trace never alias
    /// in a content-addressed cache.
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
        self.provenance.content_hash = hash_arrivals(self.provenance.content_hash, &arrivals);
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

    /// The generation key and content hash.
    pub fn provenance(&self) -> &TraceProvenance {
        &self.provenance
    }

    /// FNV-1a hash over the full op content (see [`TraceProvenance`]).
    pub fn content_hash(&self) -> u64 {
        self.provenance.content_hash
    }

    /// Number of per-core streams.
    pub fn cores(&self) -> usize {
        self.streams.len()
    }

    /// Total transactions across all streams (setup included).
    pub fn total_transactions(&self) -> usize {
        self.streams.iter().map(|s| s.len()).sum()
    }

    /// Whether every stream of this trace starts with the same-numbered
    /// stream of `prefix`, and every arrival schedule with `prefix`'s
    /// (same setup count, same leading arrival cycles). A clean run of
    /// this trace then repeats a clean run of `prefix` step for step
    /// until the first core runs out of `prefix`'s transactions, which is
    /// what lets [`Engine::run_continued`](crate::Engine::run_continued)
    /// continue from `prefix`'s fork point.
    pub fn starts_with(&self, prefix: &TraceSet) -> bool {
        TxStreams::from(self).starts_with(&prefix.into())
    }

    /// Materialises owned `Vec`s for legacy callers. Transactions
    /// themselves still share their ops, so this clones pointers, not op
    /// buffers.
    pub fn to_vecs(&self) -> Vec<Vec<Transaction>> {
        self.streams.iter().map(|s| s.to_vec()).collect()
    }
}

/// The engine's input form: one shared transaction stream per core.
///
/// Everything stream-shaped converts into this — owned
/// `Vec<Vec<Transaction>>` (freezing each stream), a [`TraceSet`] (pointer
/// bumps), or pre-shared `Vec<Arc<[Transaction]>>` — so
/// [`Engine::run`](crate::Engine::run) accepts all of them without the
/// caller cloning ops.
#[derive(Clone, Debug)]
pub struct TxStreams {
    pub(crate) streams: Vec<Arc<[Transaction]>>,
    /// Per-core arrival schedules; `None` runs the classic closed loop.
    pub(crate) arrivals: Option<Vec<ArrivalSchedule>>,
}

impl TxStreams {
    /// Number of per-core streams.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether there are no streams at all.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Whether the streams carry an open-system arrival schedule.
    pub fn is_open(&self) -> bool {
        self.arrivals.is_some()
    }

    /// [`TraceSet::starts_with`] over engine inputs.
    pub(crate) fn starts_with(&self, prefix: &TxStreams) -> bool {
        let arrivals_extend = match (&self.arrivals, &prefix.arrivals) {
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
                .zip(&prefix.streams)
                .all(|(s, p)| s.starts_with(p))
    }
}

impl From<Vec<Vec<Transaction>>> for TxStreams {
    fn from(streams: Vec<Vec<Transaction>>) -> Self {
        TxStreams {
            streams: streams.into_iter().map(Arc::from).collect(),
            arrivals: None,
        }
    }
}

impl From<Vec<Arc<[Transaction]>>> for TxStreams {
    fn from(streams: Vec<Arc<[Transaction]>>) -> Self {
        TxStreams {
            streams,
            arrivals: None,
        }
    }
}

impl From<&TraceSet> for TxStreams {
    fn from(trace: &TraceSet) -> Self {
        TxStreams {
            streams: trace.streams.to_vec(),
            arrivals: trace.arrivals.as_ref().map(|a| a.to_vec()),
        }
    }
}

impl From<TraceSet> for TxStreams {
    fn from(trace: TraceSet) -> Self {
        (&trace).into()
    }
}

/// FNV-1a over a canonical little-endian encoding of every op, with
/// per-stream and per-transaction length separators so `[[a],[b]]` and
/// `[[a,b]]` hash differently.
fn hash_streams(streams: &[Vec<Transaction>]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(streams.len() as u64);
    for stream in streams {
        h.write_u64(stream.len() as u64);
        for tx in stream {
            h.write_u64(tx.ops().len() as u64);
            for op in tx.ops() {
                match op {
                    Op::Read(addr) => {
                        h.write_u64(0);
                        h.write_u64(addr.as_u64());
                    }
                    Op::Write(addr, value) => {
                        h.write_u64(1);
                        h.write_u64(addr.as_u64());
                        h.write_u64(value.as_u64());
                    }
                    Op::Compute(cycles) => {
                        h.write_u64(2);
                        h.write_u64(u64::from(*cycles));
                    }
                }
            }
        }
    }
    h.finish()
}

/// Folds per-core arrival schedules into an existing stream content hash.
/// A marker word separates the op content from the schedule so a trace
/// with arrivals can never collide with a closed-loop trace whose op
/// content happens to continue with the same words.
fn hash_arrivals(stream_hash: u64, arrivals: &[ArrivalSchedule]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(stream_hash);
    h.write_u64(0x6172_7269_7661_6c73); // "arrivals"
    h.write_u64(arrivals.len() as u64);
    for sched in arrivals {
        h.write_u64(sched.measure_from as u64);
        h.write_u64(sched.arrivals.len() as u64);
        for &cycle in sched.arrivals.iter() {
            h.write_u64(cycle);
        }
    }
    h.finish()
}

/// Dependency-free 64-bit FNV-1a.
struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a {
            state: Self::OFFSET_BASIS,
        }
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.state = (self.state ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_types::{PhysAddr, Word};

    fn tx(writes: &[(u64, u64)]) -> Transaction {
        let mut b = Transaction::builder();
        for &(a, v) in writes {
            b = b.write(PhysAddr::new(a), Word::new(v));
        }
        b.build()
    }

    #[test]
    fn identical_streams_hash_identically() {
        let mk = || vec![vec![tx(&[(0, 1), (8, 2)])], vec![tx(&[(64, 3)])]];
        let a = TraceSet::new("w", 2, 1, 7, mk());
        let b = TraceSet::new("w", 2, 1, 7, mk());
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.provenance(), b.provenance());
    }

    #[test]
    fn different_content_hashes_differently() {
        let a = TraceSet::new("w", 1, 1, 7, vec![vec![tx(&[(0, 1)])]]);
        let b = TraceSet::new("w", 1, 1, 7, vec![vec![tx(&[(0, 2)])]]);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn stream_boundaries_affect_the_hash() {
        let one = TraceSet::new("w", 1, 2, 7, vec![vec![tx(&[(0, 1)]), tx(&[(8, 2)])]]);
        let two = TraceSet::new("w", 2, 1, 7, vec![vec![tx(&[(0, 1)])], vec![tx(&[(8, 2)])]]);
        assert_ne!(one.content_hash(), two.content_hash());
    }

    #[test]
    fn clone_shares_streams() {
        let a = TraceSet::new("w", 1, 1, 7, vec![vec![tx(&[(0, 1)])]]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.streams, &b.streams));
        let s: TxStreams = (&a).into();
        assert!(Arc::ptr_eq(&s.streams[0], &a.streams()[0]));
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn mismatched_core_count_rejected() {
        let _ = TraceSet::new("w", 2, 1, 7, vec![vec![tx(&[(0, 1)])]]);
    }

    #[test]
    fn arrivals_change_the_hash_and_flow_into_streams() {
        let closed = TraceSet::new("w", 1, 1, 7, vec![vec![tx(&[(0, 1)]), tx(&[(8, 2)])]]);
        let open = closed
            .clone()
            .with_arrivals(vec![ArrivalSchedule::new(vec![0, 100], 1)]);
        assert_ne!(closed.content_hash(), open.content_hash());
        let s: TxStreams = (&open).into();
        assert!(s.is_open());
        assert_eq!(s.arrivals.as_ref().unwrap()[0].arrivals.as_ref(), &[0, 100]);
        let c: TxStreams = (&closed).into();
        assert!(!c.is_open());
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn out_of_order_arrivals_rejected() {
        let _ = ArrivalSchedule::new(vec![10, 5], 0);
    }

    #[test]
    #[should_panic(expected = "match its stream")]
    fn arrival_length_mismatch_rejected() {
        let t = TraceSet::new("w", 1, 1, 7, vec![vec![tx(&[(0, 1)])]]);
        let _ = t.with_arrivals(vec![ArrivalSchedule::new(vec![0, 1], 0)]);
    }

    #[test]
    fn to_vecs_round_trips_content() {
        let a = TraceSet::new("w", 1, 1, 7, vec![vec![tx(&[(0, 1), (8, 2)])]]);
        let b = TraceSet::new("w", 1, 1, 7, a.to_vecs());
        assert_eq!(a.content_hash(), b.content_hash());
    }
}
