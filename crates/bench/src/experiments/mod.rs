//! The registered experiments: every figure, table, ablation, and study
//! of the paper's evaluation, plus the crash-search and observability
//! utilities, one spec each.
//!
//! Each module exposes `spec()` (or several, for grouped modules). The
//! build functions enumerate cells in exactly the order the pre-framework
//! serial binaries executed their simulations, and the render functions
//! reproduce those binaries' output byte for byte.

pub mod ablations;
pub mod compare;
pub mod crashfuzz;
pub mod endurance;
pub mod fig04;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fuzz;
pub mod latency;
pub mod motivation;
pub mod profile;
pub mod studies;
pub mod tables;
