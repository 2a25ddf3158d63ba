//! Common value types for the Silo persistent-memory simulator.
//!
//! This crate is the bottom of the workspace dependency graph. It defines the
//! vocabulary every other crate speaks:
//!
//! * [`PhysAddr`] — a byte-granular physical address into simulated persistent
//!   memory, with word/line/buffer-line alignment helpers.
//! * [`Word`] — the 8-byte unit of a CPU store, the granularity at which the
//!   Silo log records data (paper §III-B, Fig 6).
//! * [`ThreadId`] / [`TxId`] / [`TxTag`] — the 8-bit thread id and 16-bit
//!   transaction id carried in every log entry, and their pairing used as the
//!   commit "ID tuple" during recovery (paper §III-G).
//! * [`Cycles`] — simulation time at the paper's 2 GHz clock, with nanosecond
//!   conversions for the Table II latencies.
//! * [`SplitMix64`] / [`Xoshiro256`] — small deterministic RNGs so that every
//!   simulation run is exactly reproducible from a seed.
//! * [`FxHashMap`] / [`FxHashSet`] — hot-path maps over the in-tree,
//!   seed-free [`hash::FxHasher`], an order of magnitude cheaper than
//!   SipHash for the simulator's small integer keys.
//! * [`WordImage`] — a paged, copy-on-write image of written words, the
//!   storage of the machine's architectural shadow and of the workload
//!   recorder's logical memory.
//! * [`prop`] — the seeded property-test harness every crate's property
//!   suites run on.
//! * [`fixed_len!`] — re-slices a byte slice at the lengths of the hot
//!   paths' copies (a word, one or two log records, a cacheline), so they
//!   compile to moves instead of `memcpy` calls.
//!
//! # Examples
//!
//! ```
//! use silo_types::{PhysAddr, Word, WORD_BYTES, LINE_BYTES};
//!
//! let a = PhysAddr::new(0x1234);
//! assert_eq!(a.word_aligned(), PhysAddr::new(0x1230));
//! assert_eq!(a.line_index(), 0x1234 / LINE_BYTES as u64);
//! assert_eq!(Word::from_le_bytes([1, 0, 0, 0, 0, 0, 0, 0]).as_u64(), 1);
//! assert_eq!(WORD_BYTES, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod bytes;
mod cycles;
pub mod hash;
mod ids;
mod image;
pub mod json;
pub mod prop;
mod rng;
mod word;

pub use addr::{LineAddr, PhysAddr, BUF_LINE_BYTES, LINE_BYTES, WORD_BYTES};
pub use cycles::{Cycles, CLOCK_GHZ};
pub use hash::{Fnv1a, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{CoreId, ThreadId, TxId, TxTag};
pub use image::{mask_words, PageMask, PageView, WordImage, PAGE_BYTES, PAGE_WORDS};
pub use json::{JsonObject, JsonValue};
pub use rng::{SplitMix64, Xoshiro256};
pub use word::Word;
