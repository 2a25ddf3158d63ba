//! Transactional persistent-memory workloads for the Silo evaluation.
//!
//! Eleven workloads, mirroring paper Table III (micro + macro benchmarks)
//! and the Fig 4 write-size study set:
//!
//! | Workload | Transaction | Paper source |
//! |---|---|---|
//! | [`ArrayWorkload`] | randomly swap two 64 B elements | micro \[2\], \[27\], ... |
//! | [`BtreeWorkload`] | random insert into a B-tree | micro |
//! | [`HashWorkload`] | random insert into a hash table | micro |
//! | [`QueueWorkload`] | enqueue + dequeue | micro |
//! | [`RbtreeWorkload`] | random insert into a red-black tree | micro |
//! | [`TpccWorkload`] | TPC-C New-Order (or the full five-type mix) | Whisper |
//! | [`YcsbWorkload`] | key-value ops, 20 % read / 80 % update | Whisper |
//! | [`RtreeWorkload`] | radix-tree insert | PMDK |
//! | [`CtrieWorkload`] | crit-bit trie insert | PMDK |
//! | [`TatpWorkload`] | TATP subscriber updates | TATP \[21\] |
//! | [`BankWorkload`] | balance transfer | \[4\] |
//!
//! Beyond the paper set, the memento-style zoo adds [`MsQueueWorkload`]
//! (Michael-Scott queue), [`TreiberWorkload`] (Treiber stack), and
//! [`MixWorkload`] (zipfian multi-tenant key-value mix), and any workload
//! can be lifted into an open system by wrapping it in [`OpenLoop`] with an
//! [`ArrivalProcess`] — the engine then admits each transaction no earlier
//! than its arrival cycle and reports exact sojourn-latency percentiles.
//!
//! Every workload is a *real data structure* implemented over a simulated
//! PM heap: transactions are generated by executing inserts/updates
//! against the structure through a [`TxRecorder`], which captures the
//! word-granular store trace the `silo-sim` engine replays. Per-core
//! address spaces are disjoint (the paper's §III-A isolation assumption),
//! and generation is fully deterministic per seed.
//!
//! # Examples
//!
//! ```
//! use silo_workloads::{Workload, HashWorkload};
//!
//! let streams = HashWorkload::default().raw_streams(2, 10, 42);
//! assert_eq!(streams.len(), 2);
//! // setup transaction + 10 measured transactions per core
//! assert!(streams[0].len() >= 10);
//! let again = HashWorkload::default().raw_streams(2, 10, 42);
//! assert_eq!(streams, again); // deterministic per seed
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod arrival;
mod bank;
mod btree;
mod ctrie;
mod hash;
mod heap;
mod mix;
mod msqueue;
mod queue;
mod rbtree;
mod registry;
mod rtree;
mod tatp;
mod tpcc;
mod treiber;
mod ycsb;

pub use array::ArrayWorkload;
pub use arrival::{ArrivalProcess, OpenLoop};
pub use bank::BankWorkload;
pub use btree::BtreeWorkload;
pub use ctrie::CtrieWorkload;
pub use hash::{HashMix, HashWorkload};
pub use heap::{PmHeap, TxRecorder};
pub use mix::MixWorkload;
pub use msqueue::MsQueueWorkload;
pub use queue::QueueWorkload;
pub use rbtree::RbtreeWorkload;
pub use registry::{fig11_set, fig4_set, workload_by_name, CORE_REGION_BYTES};
pub use rtree::RtreeWorkload;
pub use tatp::TatpWorkload;
pub use tpcc::{TpccMix, TpccWorkload};
pub use treiber::TreiberWorkload;
pub use ycsb::YcsbWorkload;

use silo_sim::{TraceSet, Transaction};

/// A transactional workload that generates per-core op traces.
///
/// The primary product is [`build_trace`](Workload::build_trace): an
/// immutable [`TraceSet`] carrying shared per-core streams plus the full
/// generation provenance, so one generated trace can be swept across
/// schemes and crash points without regeneration. Callers that only need
/// raw per-core `Vec`s use [`raw_streams`](Workload::raw_streams)
/// directly.
pub trait Workload {
    /// Short name used in figure rows ("Array", "TPCC", ...).
    fn name(&self) -> &'static str;

    /// Stable identity of this workload *configuration*, encoding every
    /// generation-affecting parameter (e.g.
    /// `"Hash/buckets=1024,setup=4096,mix=InsertOnly"`). Two instances
    /// with equal `trace_ident` must generate identical streams for equal
    /// `(cores, txs_per_core, seed)` — this string is the workload part of
    /// every trace-cache key, so a lossy identity would alias distinct
    /// traces (the display [`name`](Workload::name) alone is lossy: both
    /// TPCC mixes share `"TPCC"`).
    fn trace_ident(&self) -> String;

    /// Generates one raw transaction stream per core: a setup prefix
    /// (building the initial structure) followed by `txs_per_core`
    /// measured transactions. Streams across cores touch disjoint PM
    /// regions. Implementation detail of
    /// [`build_trace`](Workload::build_trace) — callers should prefer the
    /// trace form.
    fn raw_streams(&self, cores: usize, txs_per_core: usize, seed: u64) -> Vec<Vec<Transaction>>;

    /// Generates and freezes the streams into an immutable, shareable
    /// [`TraceSet`] stamped with its provenance.
    ///
    /// ```
    /// use silo_workloads::{Workload, HashWorkload};
    ///
    /// let trace = HashWorkload::default().build_trace(2, 10, 42);
    /// assert_eq!(trace.provenance().cores, 2);
    /// let again = HashWorkload::default().build_trace(2, 10, 42);
    /// assert_eq!(trace.content_hash(), again.content_hash());
    /// ```
    fn build_trace(&self, cores: usize, txs_per_core: usize, seed: u64) -> TraceSet {
        TraceSet::new(
            self.trace_ident(),
            cores,
            txs_per_core,
            seed,
            self.raw_streams(cores, txs_per_core, seed),
        )
    }
}

impl Workload for Box<dyn Workload> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn trace_ident(&self) -> String {
        self.as_ref().trace_ident()
    }

    fn raw_streams(&self, cores: usize, txs_per_core: usize, seed: u64) -> Vec<Vec<Transaction>> {
        self.as_ref().raw_streams(cores, txs_per_core, seed)
    }

    // Forwarded explicitly: the default method would rebuild from
    // `raw_streams` and silently drop an override like [`OpenLoop`]'s
    // (which attaches arrival schedules) behind the Box.
    fn build_trace(&self, cores: usize, txs_per_core: usize, seed: u64) -> TraceSet {
        self.as_ref().build_trace(cores, txs_per_core, seed)
    }
}
