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
    /// Hash over every op of every transaction of every stream: each
    /// `u64` of a canonical encoding folds in with one multiply-and-shift
    /// mix (see `WordHash`), so changing any one word changes the digest.
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

    /// Hash over the full op content (see [`TraceProvenance`]).
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

/// [`WordHash`] over a canonical encoding of every op, with per-stream and
/// per-transaction length separators so `[[a],[b]]` and `[[a,b]]` hash
/// differently.
fn hash_streams(streams: &[Vec<Transaction>]) -> u64 {
    let mut h = WordHash::new();
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
    let mut h = WordHash::new();
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

/// The trace content hasher: a word at a time, where FNV-1a took eight byte
/// steps per word. Each `u64` folds in as `state = mix(state ^ word)`, with
/// `mix` one 64-bit multiply by an odd constant followed by an xor-shift.
/// Both steps are bijections on `u64`, so for a fixed rest of the input
/// every word maps to a distinct digest: flipping any bit of any one word
/// always changes the hash. `finish` mixes once more so the last word's
/// high bits spread too.
struct WordHash {
    state: u64,
}

impl WordHash {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn new() -> Self {
        WordHash { state: Self::SEED }
    }

    #[inline]
    fn mix(x: u64) -> u64 {
        let x = x.wrapping_mul(Self::K);
        x ^ (x >> 32)
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.state = Self::mix(self.state ^ value);
    }

    fn finish(&self) -> u64 {
        Self::mix(self.state)
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

    /// Two streams mixing every op kind, as raw ops per transaction.
    fn sample() -> Vec<Vec<Vec<Op>>> {
        let read = |a: u64| Op::Read(PhysAddr::new(a));
        let write = |a: u64, v: u64| Op::Write(PhysAddr::new(a), Word::new(v));
        vec![
            vec![
                vec![read(0x40), write(0x48, 0xdead_beef), Op::Compute(7)],
                vec![write(0x1000, 3), read(0x1008)],
            ],
            vec![vec![Op::Compute(12), write(0x2000, u64::MAX), read(0x2008)]],
        ]
    }

    fn hash_of(streams: &[Vec<Vec<Op>>]) -> u64 {
        let streams: Vec<Vec<Transaction>> = streams
            .iter()
            .map(|s| s.iter().map(|ops| Transaction::new(ops.clone())).collect())
            .collect();
        TraceSet::new("w", streams.len(), 1, 7, streams).content_hash()
    }

    /// Applies `variants` to every op of `sample()` in turn and asserts
    /// each variant changes the hash; returns how many were checked.
    fn assert_every_variant_rehashes(variants: impl Fn(Op) -> Vec<Op>) -> usize {
        let base = sample();
        let h = hash_of(&base);
        let mut checked = 0;
        for (s, stream) in base.iter().enumerate() {
            for (t, ops) in stream.iter().enumerate() {
                for (i, &op) in ops.iter().enumerate() {
                    for variant in variants(op) {
                        let mut changed = base.clone();
                        changed[s][t][i] = variant;
                        assert_ne!(hash_of(&changed), h, "{op:?} -> {variant:?}");
                        checked += 1;
                    }
                }
            }
        }
        checked
    }

    #[test]
    fn flipping_any_single_bit_of_an_op_changes_the_hash() {
        let checked = assert_every_variant_rehashes(|op| match op {
            // Addresses are 48-bit; store addresses stay word-aligned.
            Op::Read(a) => (0..48)
                .map(|b| Op::Read(PhysAddr::new(a.as_u64() ^ 1 << b)))
                .collect(),
            Op::Write(a, v) => (3..48)
                .map(|b| Op::Write(PhysAddr::new(a.as_u64() ^ 1 << b), v))
                .chain((0..64).map(|b| Op::Write(a, Word::new(v.as_u64() ^ 1 << b))))
                .collect(),
            Op::Compute(c) => (0..32).map(|b| Op::Compute(c ^ 1 << b)).collect(),
        });
        assert_eq!(checked, 3 * 48 + 3 * (45 + 64) + 2 * 32);
    }

    #[test]
    fn changing_an_ops_kind_changes_the_hash() {
        // The same payload under another kind, and a store turned into a
        // load of its address.
        assert_every_variant_rehashes(|op| match op {
            Op::Read(a) => vec![
                Op::Compute(a.as_u64() as u32),
                Op::Write(a.word_aligned(), Word::ZERO),
            ],
            Op::Write(a, v) => vec![Op::Read(a), Op::Compute(v.as_u64() as u32)],
            Op::Compute(c) => vec![Op::Read(PhysAddr::new(c.into()))],
        });
    }

    #[test]
    fn moving_a_transaction_or_stream_boundary_changes_the_hash() {
        let base = sample();
        let h = hash_of(&base);
        // The first transaction's last op moves into the second.
        let mut moved_op = base.clone();
        let op = moved_op[0][0].pop().unwrap();
        moved_op[0][1].insert(0, op);
        assert_ne!(hash_of(&moved_op), h);
        // One transaction splits in two, same ops in the same order.
        let mut split = base.clone();
        let tail = split[1][0].split_off(1);
        split[1].push(tail);
        assert_ne!(hash_of(&split), h);
        // The first stream's last transaction moves to the second stream.
        let mut moved_tx = base.clone();
        let tx = moved_tx[0].pop().unwrap();
        moved_tx[1].insert(0, tx);
        assert_ne!(hash_of(&moved_tx), h);
    }

    #[test]
    fn every_arrival_cycle_and_the_setup_count_fold_into_the_hash() {
        let closed = TraceSet::new("w", 1, 1, 7, vec![vec![tx(&[(0, 1)]), tx(&[(8, 2)])]]);
        let open = |arrivals: Vec<u64>, measure_from| {
            closed
                .clone()
                .with_arrivals(vec![ArrivalSchedule::new(arrivals, measure_from)])
                .content_hash()
        };
        let h = open(vec![0, 100], 1);
        assert_ne!(h, closed.content_hash());
        assert_ne!(h, open(vec![0, 100], 0));
        for b in 0..64 {
            assert_ne!(h, open(vec![0, 100 ^ 1 << b], 1), "arrival bit {b}");
        }
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
