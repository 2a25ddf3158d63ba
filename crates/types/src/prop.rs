//! A seeded property-test harness over [`Xoshiro256`].
//!
//! [`check`] runs a property a fixed number of times, each case on a
//! generator seeded from the property's name and the case's index, so
//! every run of the suite tries exactly the same inputs. A property states
//! its claim with the standard `assert!` macros. When a case fails, the
//! harness runs the same seed again with the generator's size bound halved,
//! and again, down to every range collapsed to its low end, and reports the
//! smallest size that still fails, with the [`Gen::new`] call that replays
//! it.
//!
//! # Examples
//!
//! ```
//! use silo_types::prop::check;
//!
//! check("reversing twice is the identity", 64, |g| {
//!     let v = g.vec(0..20, |g| g.range(0..1000));
//!     let mut w = v.clone();
//!     w.reverse();
//!     w.reverse();
//!     assert_eq!(v, w);
//! });
//! ```

use std::hash::Hasher;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use crate::{Fnv1a, SplitMix64, Xoshiro256};

/// How many times a failing case's size bound is halved. Past 64 halvings
/// every range, `u64`s included, is cut to its low end.
const MAX_HALVINGS: u32 = 64;

/// The value source a property draws its case from.
///
/// At size `1/2^halvings` every range and length draws from the first
/// `1/2^halvings` of its span (at least one value), and [`Gen::u64`] from
/// `0..2^(64 - halvings)`; [`Gen::bool`] is unbounded.
#[derive(Debug)]
pub struct Gen {
    rng: Xoshiro256,
    halvings: u32,
}

impl Gen {
    /// A generator for `seed` at size `1/2^halvings` (0 is full size). A
    /// failure report names both, so this replays the failing case.
    pub fn new(seed: u64, halvings: u32) -> Self {
        Gen {
            rng: Xoshiro256::seeded(seed),
            halvings,
        }
    }

    /// A value in `r`, drawn from its first `1/2^halvings`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is empty.
    pub fn range(&mut self, r: Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range {r:?}");
        let span = (r.end - r.start).checked_shr(self.halvings).unwrap_or(0);
        r.start + self.rng.below(span.max(1))
    }

    /// Any `u64`, drawn from `0..2^(64 - halvings)`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64().checked_shr(self.halvings).unwrap_or(0)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// One of `items`, drawn from the first `1/2^halvings` of the slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.range(0..items.len() as u64) as usize].clone()
    }

    /// A vector whose length is drawn from `len` as [`Gen::range`] draws,
    /// each element from `item`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is empty.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len.start as u64..len.end as u64) as usize;
        (0..n).map(|_| item(self)).collect()
    }
}

/// The fixed seed of case `case` of the property named `name`.
fn case_seed(name: &str, case: u32) -> u64 {
    let mut h = Fnv1a::new();
    h.write(name.as_bytes());
    SplitMix64::new(h.finish() ^ u64::from(case)).next_u64()
}

/// Runs `prop` on `cases` cases of the property named `name`, case `i` on
/// `Gen::new(case_seed(name, i), 0)`.
///
/// # Panics
///
/// Panics on the first failing case, with a message naming the property,
/// the case, its seed and the smallest failing size found by halving, and
/// the property's own panic message at that size.
pub fn check(name: &str, cases: u32, prop: impl Fn(&mut Gen)) {
    let run = |seed, halvings| {
        panic::catch_unwind(AssertUnwindSafe(|| prop(&mut Gen::new(seed, halvings))))
            .map_err(|payload| message(&*payload))
    };
    for case in 0..cases {
        let seed = case_seed(name, case);
        let Err(mut failure) = run(seed, 0) else {
            continue;
        };
        let mut smallest = 0;
        for halvings in 1..=MAX_HALVINGS {
            if let Err(msg) = run(seed, halvings) {
                (smallest, failure) = (halvings, msg);
            }
        }
        panic!(
            "property `{name}` failed on case {case} of {cases} (seed {seed:#018x}); \
             smallest failing size 1/2^{smallest}, replay with \
             `Gen::new({seed:#018x}, {smallest})`: {failure}"
        );
    }
}

/// The text of a panic payload (`panic!` with a literal or a format).
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "(non-string panic payload)".to_string())
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};

    use super::*;

    #[test]
    fn every_case_runs_on_its_fixed_seed() {
        let seen = RefCell::new(Vec::new());
        let ran = Cell::new(0);
        check("fixed seeds", 32, |g| {
            ran.set(ran.get() + 1);
            seen.borrow_mut().push(g.u64());
        });
        assert_eq!(ran.get(), 32);
        let expected: Vec<u64> = (0..32)
            .map(|case| Gen::new(case_seed("fixed seeds", case), 0).u64())
            .collect();
        assert_eq!(*seen.borrow(), expected);
        assert_ne!(case_seed("fixed seeds", 0), case_seed("other name", 0));
    }

    #[test]
    fn draws_stay_in_range_and_shrink_with_the_size_bound() {
        let mut full = Gen::new(1, 0);
        let mut half = Gen::new(1, 1);
        let mut floor = Gen::new(1, MAX_HALVINGS);
        for _ in 0..1000 {
            assert!((10..20).contains(&full.range(10..20)));
            assert!((10..15).contains(&half.range(10..20)));
            assert_eq!(floor.range(10..20), 10);
            assert!(half.u64() < 1 << 63);
            assert_eq!(floor.u64(), 0);
            assert_eq!(floor.pick(&['a', 'b']), 'a');
            assert_eq!(floor.vec(1..200, |g| g.bool()).len(), 1);
        }
    }

    #[test]
    fn a_planted_failure_names_its_seed_and_shrinks() {
        // Fails at full size on all but a 1000/2^20 share of cases, and can
        // only fail while the size bound leaves more than 1000 values.
        let planted = |g: &mut Gen| assert!(g.range(0..1 << 20) < 1000, "planted");
        let payload = panic::catch_unwind(|| check("planted", 16, planted))
            .expect_err("the planted property fails");
        let report = message(&*payload);
        assert!(
            report.starts_with("property `planted` failed on case 0 of 16"),
            "{report}"
        );
        let seed = case_seed("planted", 0);
        assert!(report.contains(&format!("(seed {seed:#018x})")), "{report}");
        assert!(report.ends_with(": planted"), "{report}");
        let halvings: u32 = report
            .split("smallest failing size 1/2^")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .expect("the report names a size");
        assert!((1..=10).contains(&halvings), "{report}");
        let replay = panic::catch_unwind(|| planted(&mut Gen::new(seed, halvings)));
        assert!(replay.is_err(), "the reported size replays the failure");
    }
}
