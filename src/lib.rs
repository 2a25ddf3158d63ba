//! # Silo — speculative hardware logging for atomic durability in PM
//!
//! A full-system Rust reproduction of *Silo: Speculative Hardware Logging
//! for Atomic Durability in Persistent Memory* (HPCA 2023), re-exporting
//! the whole workspace behind one facade:
//!
//! * [`core`] — the Silo design itself ([`core::SiloScheme`]).
//! * [`baselines`] — Base, FWB, MorLog and LAD, the paper's comparison
//!   targets, plus the software WAL (SwLog) and its eADR variant.
//! * [`sim`] — the multicore discrete-event simulator with crash
//!   injection and the atomic-durability oracle. It also re-exports the
//!   observability layer of `silo-probe` (cycle accounting, the event
//!   timeline, coverage signatures).
//! * [`pm`], [`cache`], [`memctrl`] — the memory-system substrates.
//! * [`workloads`] — the eleven transactional benchmarks of the paper,
//!   the msqueue, treiber and zipfmix zoo, and open-system arrivals.
//! * [`types`] — shared value types.
//!
//! # Quickstart
//!
//! ```
//! use silo::core::SiloScheme;
//! use silo::sim::{Engine, SimConfig, Transaction};
//! use silo::types::{PhysAddr, Word};
//!
//! // A one-core Table II machine running one transaction under Silo.
//! let config = SimConfig::table_ii(1);
//! let mut scheme = SiloScheme::new(&config);
//! let tx = Transaction::builder()
//!     .write(PhysAddr::new(0), Word::new(1))
//!     .write(PhysAddr::new(8), Word::new(2))
//!     .build();
//! let out = Engine::new(&config, &mut scheme).run(vec![vec![tx]], None);
//! assert_eq!(out.stats.txs_committed, 1);
//! // The fast path wrote no logs to PM at all.
//! assert_eq!(out.stats.pm.log_region_writes, 0);
//! ```
//!
//! See `examples/` for crash-recovery, YCSB, banking and overflow-stress
//! walkthroughs, and `crates/bench` for `evaluate`, the one binary that
//! regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use silo_baselines as baselines;
pub use silo_cache as cache;
pub use silo_core as core;
pub use silo_memctrl as memctrl;
pub use silo_pm as pm;
pub use silo_sim as sim;
pub use silo_types as types;
pub use silo_workloads as workloads;
