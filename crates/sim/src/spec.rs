//! The executable spec's per-word transition log.
//!
//! With the log on ([`TxOracle::with_history`](crate::TxOracle::with_history),
//! which [`Engine::enable_spec`](crate::Engine::enable_spec) turns on), the
//! oracle records each word's stores, commits and raced commits as they
//! happen, stamped with durability-event indices, and every [`Violation`]
//! of its verdict carries the offending word's recent transitions: those
//! and, last, the rollbacks of the crash's cut, which the verdict adds for
//! the offending words alone. The log explains a verdict; it does not change one: the
//! oracle's acceptance rules are the same with it on or off.

use silo_types::{FxHashMap, PhysAddr, TxTag, Word};

use crate::oracle::Violation;

/// Most recent per-word transitions a violation carries. Older ones are
/// dropped (and counted): the interesting history of a crash is the
/// recent past.
pub(crate) const HISTORY_CAP: usize = 8;

/// What a per-word history entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WordEventKind {
    /// The word was stored by an in-flight transaction (value = new).
    Store,
    /// The word's transaction committed (value = the committed value).
    Commit,
    /// The word's transaction was cut by the crash; it must roll back
    /// (value = the rollback value).
    Rollback,
    /// The word's commit raced the power failure: all-or-nothing
    /// (value = the would-be-committed value).
    Ambiguous,
}

impl WordEventKind {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WordEventKind::Store => "store",
            WordEventKind::Commit => "commit",
            WordEventKind::Rollback => "rollback",
            WordEventKind::Ambiguous => "ambiguous",
        }
    }
}

/// One transition in a word's history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WordEvent {
    /// Durability-event index (the engine's global event counter) at the
    /// transition.
    pub event: u64,
    /// The transaction that drove the transition; its thread is the core.
    pub tag: TxTag,
    /// Transition kind.
    pub kind: WordEventKind,
    /// The value associated with the transition (see [`WordEventKind`]).
    pub value: Word,
}

/// Every word's transitions in the order they happened, keyed by word:
/// one append-only list with all words interleaved, so a checkpoint copies
/// it in one allocation rather than one per written word.
#[derive(Clone, Debug, Default)]
pub(crate) struct TransitionLog(Vec<(u64, WordEvent)>);

impl TransitionLog {
    /// Appends `e`, a transition of the word at `addr`.
    pub(crate) fn push(&mut self, addr: PhysAddr, e: WordEvent) {
        self.0.push((addr.word_aligned().as_u64(), e));
    }

    /// Fills in each violation's history in one backward pass: an
    /// offending word's last [`HISTORY_CAP`] transitions, the count of
    /// older ones, and the event of the latest. `after` names the
    /// transitions of a word that follow every logged one, latest first
    /// (the cut's rollbacks, which the log does not hold).
    pub(crate) fn attach(
        &self,
        violations: &mut [Violation],
        after: impl Fn(PhysAddr) -> Vec<WordEvent>,
    ) {
        if violations.is_empty() {
            return;
        }
        let mut recent: FxHashMap<u64, (Vec<WordEvent>, u64)> = violations
            .iter()
            .map(|v| {
                let mut history = after(v.addr);
                let dropped = history.len().saturating_sub(HISTORY_CAP) as u64;
                history.truncate(HISTORY_CAP);
                (v.addr.as_u64(), (history, dropped))
            })
            .collect();
        for (key, e) in self.0.iter().rev() {
            if let Some((history, dropped)) = recent.get_mut(key) {
                if history.len() < HISTORY_CAP {
                    history.push(*e);
                } else {
                    *dropped += 1;
                }
            }
        }
        for v in violations {
            let (history, dropped) = &recent[&v.addr.as_u64()];
            v.event = history.first().map_or(0, |e| e.event);
            v.history = history.iter().rev().copied().collect();
            v.dropped_history = *dropped;
        }
    }
}

/// The oracle with its log on, fed as the engine feeds it: each store as
/// it happens, then the transaction's record at its commit, its cut or
/// the commit that raced the power failure.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TxOracle, TxRecord};
    use silo_pm::{PmDevice, PmDeviceConfig};
    use silo_types::{ThreadId, TxId};
    use WordEventKind::{Ambiguous, Commit, Rollback, Store};

    fn tag(tid: u8, txid: u16) -> TxTag {
        TxTag::new(ThreadId::new(tid), TxId::new(txid))
    }

    fn store(oracle: &mut TxOracle, t: TxTag, addr: u64, value: u64, event: u64) {
        oracle.log_store(t, PhysAddr::new(addr), Word::new(value), event);
    }

    fn record(t: TxTag, writes: &[(u64, u64)], committed: bool, event: u64) -> TxRecord {
        TxRecord {
            tag: t,
            writes: writes
                .iter()
                .map(|&(a, v)| (PhysAddr::new(a), Word::new(v)))
                .collect(),
            committed,
            event,
        }
    }

    fn pm_with(words: &[(u64, u64)]) -> PmDevice {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        for &(a, v) in words {
            pm.write_word(PhysAddr::new(a), Word::new(v));
        }
        pm
    }

    fn kinds(v: &Violation) -> Vec<WordEventKind> {
        v.history.iter().map(|e| e.kind).collect()
    }

    #[test]
    fn committed_word_must_hold_committed_value() {
        let mut oracle = TxOracle::with_history();
        store(&mut oracle, tag(0, 1), 0, 7, 1);
        oracle.observe(record(tag(0, 1), &[(0, 7)], true, 2));
        let report = oracle.verify(&pm_with(&[]));
        assert!(!report.is_consistent());
        let v = report.first_offender().expect("one violation");
        assert_eq!(v.addr, PhysAddr::new(0));
        assert_eq!(v.legal, vec![Word::new(7)]);
        assert_eq!(v.actual, Word::ZERO);
        assert_eq!(v.event, 2, "last transition was the commit at event 2");
        assert_eq!(kinds(v), vec![Store, Commit]);

        assert!(oracle.verify(&pm_with(&[(0, 7)])).is_consistent());
    }

    #[test]
    fn cut_transaction_rolls_back_to_committed_value() {
        let mut oracle = TxOracle::with_history();
        store(&mut oracle, tag(0, 1), 0, 3, 1);
        oracle.observe(record(tag(0, 1), &[(0, 3)], true, 2));
        store(&mut oracle, tag(0, 2), 0, 9, 3);
        oracle.observe(record(tag(0, 2), &[(0, 9)], false, 4));
        assert!(oracle.verify(&pm_with(&[(0, 3)])).is_consistent());
        // The leaked partial update is flagged with the rollback value as
        // the only legal one.
        let report = oracle.verify(&pm_with(&[(0, 9)]));
        let v = report.first_offender().expect("violation");
        assert_eq!(v.legal, vec![Word::new(3)]);
        assert_eq!(v.kind, "committed write lost or corrupted");
        assert_eq!(v.event, 4, "last transition was the cut at event 4");
        assert_eq!(kinds(v), vec![Store, Commit, Store, Rollback]);
        assert_eq!(v.history[3].value, Word::new(3), "rolls back to 3");
    }

    #[test]
    fn ambiguous_group_accepts_both_but_not_torn() {
        let mut oracle = TxOracle::with_history();
        store(&mut oracle, tag(0, 1), 0, 9, 1);
        store(&mut oracle, tag(0, 1), 8, 10, 2);
        oracle.observe_ambiguous(record(tag(0, 1), &[(0, 9), (8, 10)], false, 3));

        assert!(
            oracle.verify(&pm_with(&[])).is_consistent(),
            "fully rolled back"
        );
        assert!(
            oracle.verify(&pm_with(&[(0, 9), (8, 10)])).is_consistent(),
            "fully applied"
        );

        let report = oracle.verify(&pm_with(&[(0, 9)]));
        assert!(!report.is_consistent());
        let v = report.first_offender().expect("violation");
        assert_eq!(v.addr, PhysAddr::new(8), "the word left behind");
        assert_eq!(v.legal, vec![Word::ZERO, Word::new(10)]);
        assert!(v.kind.contains("torn commit"));
        assert_eq!(v.event, 3);
        assert_eq!(kinds(v), vec![Store, Ambiguous]);
    }

    /// Two words on each of four pages, highest address first.
    fn descending_across_pages() -> Vec<u64> {
        let mut addrs: Vec<u64> = (0..4u64)
            .flat_map(|p| [p * 4096 + 8, p * 4096 + 4088])
            .collect();
        addrs.reverse();
        addrs
    }

    #[test]
    fn violations_ascend_within_each_kind_whatever_the_store_order() {
        let mut oracle = TxOracle::with_history();
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let mut event = 0;
        for (i, &a) in descending_across_pages().iter().enumerate() {
            // A committed word PM lost ...
            let t = tag(0, i as u16 + 1);
            event += 1;
            store(&mut oracle, t, a, i as u64 + 1, event);
            oracle.observe(record(t, &[(a, i as u64 + 1)], true, event));
            // ... and a cut-off word whose partial update PM kept.
            let t = tag(1, i as u16 + 1);
            store(&mut oracle, t, a - 8, 99, event);
            oracle.observe(record(t, &[(a - 8, 99)], false, event));
            pm.write_word(PhysAddr::new(a - 8), Word::new(99));
        }
        let report = oracle.verify(&pm);
        assert_eq!(report.words_checked, 16);
        assert_eq!(report.violations.len(), 16);
        for (kind, offset, last) in [
            ("committed write", 0, Commit),
            ("partial update", 8, Rollback),
        ] {
            let lost: Vec<&Violation> = report
                .violations
                .iter()
                .filter(|v| v.kind.contains(kind))
                .collect();
            let addrs: Vec<u64> = lost.iter().map(|v| v.addr.as_u64()).collect();
            let mut want: Vec<u64> = descending_across_pages()
                .iter()
                .map(|a| a - offset)
                .collect();
            want.sort_unstable();
            assert_eq!(addrs, want, "{kind}");
            assert!(lost.iter().all(|v| kinds(v) == [Store, last]), "{kind}");
        }
        let all: Vec<u64> = report.violations.iter().map(|v| v.addr.as_u64()).collect();
        assert!(all.windows(2).all(|w| w[0] < w[1]), "{all:?}");
    }

    #[test]
    fn a_clone_verifies_as_the_original_did_when_it_was_taken() {
        let mut oracle = TxOracle::with_history();
        let addrs = descending_across_pages();
        for (i, &a) in addrs.iter().enumerate() {
            let t = tag(0, i as u16 + 1);
            store(&mut oracle, t, a, i as u64 + 1, i as u64);
            oracle.observe(record(t, &[(a, i as u64 + 1)], true, i as u64));
        }
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        for &a in &addrs[..4] {
            pm.write_word(PhysAddr::new(a), Word::new(5));
        }
        let before = oracle.verify(&pm);
        assert!(before.violations.iter().all(|v| !v.history.is_empty()));
        let clone = oracle.clone();
        // Later transitions land on every page the clone shares, and on
        // every violating word's history.
        for (i, &a) in addrs.iter().enumerate() {
            let t = tag(0, 100 + i as u16);
            store(&mut oracle, t, a, 5, 100);
            oracle.observe(record(t, &[(a, 5)], true, 101));
            let t = tag(1, 100 + i as u16);
            store(&mut oracle, t, a - 8, 1, 102);
            oracle.observe(record(t, &[(a - 8, 1)], false, 103));
        }
        assert_eq!(clone.verify(&pm), before);
        assert_ne!(oracle.verify(&pm), before, "the original moved on");
    }
}
