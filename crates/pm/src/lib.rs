//! Persistent-memory device model for the Silo simulator.
//!
//! This crate is the stand-in for the NVMain PCM model the paper evaluates
//! on (Table II: 16 GB phase-change memory, 50 / 150 ns read / write). It
//! models the two layers of the PM DIMM that the paper's write-traffic
//! results depend on:
//!
//! * [`Media`] — the physical PCM media. Writes land at on-PM-buffer-line
//!   granularity via read-modify-write, and a bit-level
//!   **data-comparison-write** scheme (paper §III-D, citing \[62\]) suppresses
//!   programs whose bits are unchanged — this is what makes a cacheline
//!   eviction after an in-place log update free.
//! * [`OnPmBuffer`] — the internal DIMM buffer (paper §III-E) with 256 B
//!   lines where 8 B new-data words, 64 B cachelines, and 18 B undo-log
//!   batch entries **coalesce** before reaching the media. All three
//!   coalescing cases of Fig 9 fall out of byte-masked staging.
//! * [`PmDevice`] — the composition of the two plus traffic accounting
//!   ([`PmStats`]), with an optional data/log region boundary so the figures
//!   can split traffic by destination.
//!
//! The evaluation metric of paper Fig 11 — "the number of write requests to
//! the PM physical media" — is [`PmStats::media_line_writes`].
//!
//! # Examples
//!
//! ```
//! use silo_pm::{PmDevice, PmDeviceConfig};
//! use silo_types::PhysAddr;
//!
//! let mut pm = PmDevice::new(PmDeviceConfig::default());
//! pm.write(PhysAddr::new(16), &7u64.to_le_bytes());  // W1 of Fig 9
//! pm.write(PhysAddr::new(24), &8u64.to_le_bytes());  // W2: same buffer line
//! assert_eq!(pm.read_u64(PhysAddr::new(16)), 7);
//! pm.flush_all();
//! // The two words shared one on-PM buffer line: a single media write.
//! assert_eq!(pm.stats().media_line_writes, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod fault;
mod media;
mod onpm_buffer;
mod stats;
mod wear;

pub use device::{PmDevice, PmDeviceConfig, PmPage};
pub use fault::{DrainReport, EventCounters, EventKind, FaultModel};
pub use media::{LineMask, Media};
pub use onpm_buffer::{OnPmBuffer, DEFAULT_BUFFER_LINES};
pub use stats::PmStats;
pub use wear::{WearTracker, PCM_CELL_ENDURANCE};
