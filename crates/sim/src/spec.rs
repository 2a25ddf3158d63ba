//! An executable per-word crash-consistency specification.
//!
//! The [`TxOracle`](crate::TxOracle) answers *whether* a recovered image
//! satisfies atomic durability; the [`SpecMachine`] explains *why not*. It
//! is a small abstract machine fed by the engine at every durability
//! event: each store, commit, crash-interrupted transaction, and
//! power-racing commit updates a per-word model of the **legally
//! recoverable values** — the last committed value, the pre-crash rollback
//! value, or (for a commit that raced the power cut) the all-or-nothing
//! superposition of both. After recovery, [`SpecMachine::verify`] checks
//! every modelled word of the PM image against its legal set and reports
//! each divergence as a [`SpecViolation`]: the offending word, the values
//! the spec allows, the value found, and the word's recent event history
//! (store/commit/rollback transitions with durability-event indices), so
//! a scheme-vs-oracle divergence is localized to the first offending word
//! instead of a wholesale digest mismatch.
//!
//! The machine deliberately mirrors the oracle's acceptance rules exactly
//! — anything the digest-level oracle accepts, the spec accepts, and vice
//! versa (a differential test in `silo-bench` holds the two against each
//! other across the full scheme matrix). What the spec adds is
//! *localization*, not a different notion of correctness.

use silo_pm::PmDevice;
use silo_types::{FxHashMap, FxHashSet, PhysAddr, TxTag, Word, WordImage};

use crate::oracle::LinePeeker;

/// Most recent per-word transitions a violation report carries. Older
/// ones are dropped (and counted) — the interesting history of a crash is
/// the recent past.
const HISTORY_CAP: usize = 8;

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
    /// Core that drove the transition.
    pub core: u32,
    /// Transaction identity at the transition.
    pub tag: TxTag,
    /// Transition kind.
    pub kind: WordEventKind,
    /// The value associated with the transition (see [`WordEventKind`]).
    pub value: Word,
}

/// One word whose recovered value is outside its legal set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecViolation {
    /// The offending word address.
    pub addr: PhysAddr,
    /// The values the spec allows at this word after recovery. One entry
    /// for unambiguous words; two (rollback, committed) when the word's
    /// commit raced the power failure and the group tore.
    pub legal: Vec<Word>,
    /// The value actually recovered.
    pub actual: Word,
    /// Durability-event index of the word's most recent transition (0 if
    /// the word has no recorded history).
    pub event: u64,
    /// The word's recent transition history, oldest first.
    pub history: Vec<WordEvent>,
    /// Transitions dropped from the front of the history.
    pub dropped_history: u64,
    /// Which acceptance rule failed (same phrasing as the oracle's
    /// [`Violation::kind`](crate::Violation)).
    pub kind: &'static str,
}

/// The spec machine's verdict on a recovered image.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpecReport {
    /// Distinct modelled words checked.
    pub words_checked: usize,
    /// Violations, sorted by word address (the first entry is the
    /// lowest-addressed offender).
    pub violations: Vec<SpecViolation>,
}

impl SpecReport {
    /// Whether every modelled word recovered to a legal value.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The lowest-addressed offending word, if any.
    pub fn first_offender(&self) -> Option<&SpecViolation> {
        self.violations.first()
    }
}

/// Per-core in-flight write set: the spec's view of a transaction that
/// has begun but not yet committed.
#[derive(Clone, Debug, Default)]
struct Pending {
    tag: TxTag,
    writes: FxHashMap<u64, Word>,
}

/// The executable crash-consistency spec (see the module docs).
///
/// Fed by the engine via `on_store` / `on_commit` / `on_ambiguous` /
/// `on_crash_inflight`; queried once after recovery via
/// [`SpecMachine::verify`]. Its legal values live in two paged
/// copy-on-write [`WordImage`]s, as the oracle's do, so a checkpoint's
/// copy shares their pages, and `verify` reads them in ascending address
/// order without sorting keys.
#[derive(Clone, Debug, Default)]
pub struct SpecMachine {
    /// Legal value per word whose last owning transaction committed.
    committed: WordImage,
    /// Rollback value per word touched only by cut-off transactions.
    uncommitted: WordImage,
    /// All-or-nothing groups: `(key, rollback, new)` per word of each
    /// commit that raced the power failure.
    ambiguous: Vec<Vec<(u64, Word, Word)>>,
    /// In-flight write set per core.
    pending: Vec<Pending>,
    /// Every word's transitions, interleaved in the order they happened:
    /// one append-only log, so a clone (a checkpoint) is one copy rather
    /// than one allocation per written word. [`SpecMachine::verify`]
    /// reads each offending word's recent history out of it.
    log: Vec<(u64, WordEvent)>,
}

impl SpecMachine {
    /// A fresh spec machine with no modelled words.
    pub fn new() -> Self {
        SpecMachine::default()
    }

    fn pending_mut(&mut self, core: usize, tag: TxTag) -> &mut Pending {
        if core >= self.pending.len() {
            self.pending.resize_with(core + 1, Pending::default);
        }
        let p = &mut self.pending[core];
        if p.tag != tag {
            // A new transaction on this core: the previous one was
            // consumed by on_commit / on_ambiguous / on_crash_inflight.
            p.tag = tag;
            p.writes.clear();
        }
        p
    }

    fn record(&mut self, key: u64, e: WordEvent) {
        self.log.push((key, e));
    }

    /// A store by transaction `tag` on `core` reached the word at `addr`
    /// with value `value`; `event` is the global durability-event index.
    pub fn on_store(&mut self, core: usize, tag: TxTag, addr: PhysAddr, value: Word, event: u64) {
        let key = addr.word_aligned().as_u64();
        self.pending_mut(core, tag).writes.insert(key, value);
        self.record(
            key,
            WordEvent {
                event,
                core: core as u32,
                tag,
                kind: WordEventKind::Store,
                value,
            },
        );
    }

    /// Transaction `tag` on `core` committed: every pending word's legal
    /// value becomes its last written value.
    pub fn on_commit(&mut self, core: usize, tag: TxTag, event: u64) {
        let writes = self.take_pending(core, tag);
        for &(key, value) in &writes {
            self.committed.insert(PhysAddr::new(key), value);
            self.record(
                key,
                WordEvent {
                    event,
                    core: core as u32,
                    tag,
                    kind: WordEventKind::Commit,
                    value,
                },
            );
        }
    }

    /// Transaction `tag` on `core` was cut mid-flight by the crash: every
    /// pending word must roll back to its last committed value (or zero).
    pub fn on_crash_inflight(&mut self, core: usize, tag: TxTag, event: u64) {
        let writes = self.take_pending(core, tag);
        for &(key, _) in &writes {
            let addr = PhysAddr::new(key);
            let rollback = self.committed.get(addr).unwrap_or(Word::ZERO);
            self.uncommitted.insert(addr, rollback);
            self.record(
                key,
                WordEvent {
                    event,
                    core: core as u32,
                    tag,
                    kind: WordEventKind::Rollback,
                    value: rollback,
                },
            );
        }
    }

    /// Transaction `tag`'s commit on `core` raced the power failure:
    /// either outcome is legal, but it must be all-or-nothing across the
    /// transaction's words.
    pub fn on_ambiguous(&mut self, core: usize, tag: TxTag, event: u64) {
        let writes = self.take_pending(core, tag);
        let mut group = Vec::with_capacity(writes.len());
        for &(key, new) in &writes {
            let rollback = self.committed.get(PhysAddr::new(key)).unwrap_or(Word::ZERO);
            group.push((key, rollback, new));
            self.record(
                key,
                WordEvent {
                    event,
                    core: core as u32,
                    tag,
                    kind: WordEventKind::Ambiguous,
                    value: new,
                },
            );
        }
        self.ambiguous.push(group);
    }

    /// Detaches `core`'s pending write set (sorted by word key for
    /// deterministic iteration), leaving it empty for the next tx.
    fn take_pending(&mut self, core: usize, tag: TxTag) -> Vec<(u64, Word)> {
        let p = self.pending_mut(core, tag);
        let mut writes: Vec<(u64, Word)> = p.writes.drain().collect();
        writes.sort_unstable_by_key(|&(k, _)| k);
        writes
    }

    fn violation(key: u64, legal: Vec<Word>, actual: Word, kind: &'static str) -> SpecViolation {
        SpecViolation {
            addr: PhysAddr::new(key),
            legal,
            actual,
            event: 0,
            history: Vec::new(),
            dropped_history: 0,
            kind,
        }
    }

    /// Fills in each violation's history in one backward pass over the
    /// log: an offending word's last [`HISTORY_CAP`] transitions, the
    /// count of older ones, and the event of the latest.
    fn attach_histories(&self, violations: &mut [SpecViolation]) {
        if violations.is_empty() {
            return;
        }
        let mut recent: FxHashMap<u64, (Vec<WordEvent>, u64)> = violations
            .iter()
            .map(|v| (v.addr.as_u64(), (Vec::new(), 0)))
            .collect();
        for (key, e) in self.log.iter().rev() {
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

    /// Checks every modelled word of the recovered image against its
    /// legal value set. The acceptance rules mirror
    /// [`TxOracle::verify`](crate::TxOracle::verify) exactly; the report
    /// adds per-word localization and history.
    pub fn verify(&self, pm: &PmDevice) -> SpecReport {
        let ambiguous_keys: FxHashSet<u64> = self
            .ambiguous
            .iter()
            .flatten()
            .map(|&(key, _, _)| key)
            .collect();
        let mut report = SpecReport::default();

        let mut peeker = LinePeeker::new();
        for (addr, legal) in self.committed.iter() {
            if ambiguous_keys.contains(&addr.as_u64()) {
                continue; // group-checked below
            }
            let actual = peeker.word(pm, addr);
            report.words_checked += 1;
            if actual != legal {
                report.violations.push(Self::violation(
                    addr.as_u64(),
                    vec![legal],
                    actual,
                    "committed write lost or corrupted",
                ));
            }
        }

        let mut peeker = LinePeeker::new();
        for (addr, legal) in self.uncommitted.iter() {
            if self.committed.get(addr).is_some() || ambiguous_keys.contains(&addr.as_u64()) {
                continue; // already checked against the committed value
            }
            let actual = peeker.word(pm, addr);
            report.words_checked += 1;
            if actual != legal {
                report.violations.push(Self::violation(
                    addr.as_u64(),
                    vec![legal],
                    actual,
                    "partial update of uncommitted transaction survived",
                ));
            }
        }

        for group in &self.ambiguous {
            let mut all_new = true;
            let mut all_old = true;
            for &(key, rollback, new) in group {
                let actual = pm.peek_word(PhysAddr::new(key));
                report.words_checked += 1;
                if actual != new {
                    all_new = false;
                }
                if actual != rollback {
                    all_old = false;
                }
            }
            if !all_new && !all_old {
                for &(key, rollback, new) in group {
                    let actual = pm.peek_word(PhysAddr::new(key));
                    if actual != new {
                        report.violations.push(Self::violation(
                            key,
                            vec![rollback, new],
                            actual,
                            "ambiguous commit applied partially (torn commit)",
                        ));
                    }
                }
            }
        }

        report.violations.sort_by_key(|v| (v.addr.as_u64(), v.kind));
        self.attach_histories(&mut report.violations);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_pm::PmDeviceConfig;
    use silo_types::{ThreadId, TxId};

    fn tag(tid: u8, txid: u16) -> TxTag {
        TxTag::new(ThreadId::new(tid), TxId::new(txid))
    }

    #[test]
    fn committed_word_must_hold_committed_value() {
        let mut spec = SpecMachine::new();
        spec.on_store(0, tag(0, 1), PhysAddr::new(0), Word::new(7), 1);
        spec.on_commit(0, tag(0, 1), 2);
        let pm = PmDevice::new(PmDeviceConfig::default());
        let report = spec.verify(&pm);
        assert!(!report.is_consistent());
        let v = report.first_offender().expect("one violation");
        assert_eq!(v.addr, PhysAddr::new(0));
        assert_eq!(v.legal, vec![Word::new(7)]);
        assert_eq!(v.actual, Word::ZERO);
        assert_eq!(v.event, 2, "last transition was the commit at event 2");
        assert_eq!(
            v.history.iter().map(|e| e.kind).collect::<Vec<_>>(),
            vec![WordEventKind::Store, WordEventKind::Commit]
        );

        let mut pm2 = PmDevice::new(PmDeviceConfig::default());
        pm2.write_word(PhysAddr::new(0), Word::new(7));
        assert!(spec.verify(&pm2).is_consistent());
    }

    #[test]
    fn cut_transaction_rolls_back_to_committed_value() {
        let mut spec = SpecMachine::new();
        spec.on_store(0, tag(0, 1), PhysAddr::new(0), Word::new(3), 1);
        spec.on_commit(0, tag(0, 1), 2);
        spec.on_store(0, tag(0, 2), PhysAddr::new(0), Word::new(9), 3);
        spec.on_crash_inflight(0, tag(0, 2), 4);
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(0), Word::new(3));
        assert!(spec.verify(&pm).is_consistent());
        // The leaked partial update is flagged with the rollback value as
        // the only legal one.
        let mut leaked = PmDevice::new(PmDeviceConfig::default());
        leaked.write_word(PhysAddr::new(0), Word::new(9));
        let report = spec.verify(&leaked);
        let v = report.first_offender().expect("violation");
        assert_eq!(v.legal, vec![Word::new(3)]);
        assert_eq!(v.kind, "committed write lost or corrupted");
    }

    #[test]
    fn ambiguous_group_accepts_both_but_not_torn() {
        let mut spec = SpecMachine::new();
        spec.on_store(0, tag(0, 1), PhysAddr::new(0), Word::new(9), 1);
        spec.on_store(0, tag(0, 1), PhysAddr::new(8), Word::new(10), 2);
        spec.on_ambiguous(0, tag(0, 1), 3);

        let old = PmDevice::new(PmDeviceConfig::default());
        assert!(spec.verify(&old).is_consistent(), "fully rolled back");

        let mut new = PmDevice::new(PmDeviceConfig::default());
        new.write_word(PhysAddr::new(0), Word::new(9));
        new.write_word(PhysAddr::new(8), Word::new(10));
        assert!(spec.verify(&new).is_consistent(), "fully applied");

        let mut torn = PmDevice::new(PmDeviceConfig::default());
        torn.write_word(PhysAddr::new(0), Word::new(9));
        let report = spec.verify(&torn);
        assert!(!report.is_consistent());
        let v = report.first_offender().expect("violation");
        assert_eq!(v.addr, PhysAddr::new(8), "the word left behind");
        assert_eq!(v.legal, vec![Word::ZERO, Word::new(10)]);
        assert!(v.kind.contains("torn commit"));
    }

    #[test]
    fn violations_are_sorted_and_first_offender_is_lowest_address() {
        let mut spec = SpecMachine::new();
        for (i, addr) in [64u64, 0, 128].iter().enumerate() {
            let t = tag(0, (i + 1) as u16);
            spec.on_store(0, t, PhysAddr::new(*addr), Word::new(5), i as u64);
            spec.on_commit(0, t, i as u64);
        }
        let pm = PmDevice::new(PmDeviceConfig::default());
        let report = spec.verify(&pm);
        assert_eq!(report.violations.len(), 3);
        let addrs: Vec<u64> = report.violations.iter().map(|v| v.addr.as_u64()).collect();
        assert_eq!(addrs, vec![0, 64, 128]);
        assert_eq!(report.first_offender().unwrap().addr, PhysAddr::new(0));
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
        let mut spec = SpecMachine::new();
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let mut event = 0;
        for (i, &a) in descending_across_pages().iter().enumerate() {
            // A committed word PM lost ...
            let t = tag(0, i as u16 + 1);
            event += 1;
            spec.on_store(0, t, PhysAddr::new(a), Word::new(i as u64 + 1), event);
            spec.on_commit(0, t, event);
            // ... and a cut-off word whose partial update PM kept.
            let t = tag(1, i as u16 + 1);
            spec.on_store(1, t, PhysAddr::new(a - 8), Word::new(99), event);
            spec.on_crash_inflight(1, t, event);
            pm.write_word(PhysAddr::new(a - 8), Word::new(99));
        }
        let report = spec.verify(&pm);
        assert_eq!(report.words_checked, 16);
        assert_eq!(report.violations.len(), 16);
        for (kind, offset) in [("committed write", 0), ("partial update", 8)] {
            let addrs: Vec<u64> = report
                .violations
                .iter()
                .filter(|v| v.kind.contains(kind))
                .map(|v| v.addr.as_u64())
                .collect();
            let mut want: Vec<u64> = descending_across_pages()
                .iter()
                .map(|a| a - offset)
                .collect();
            want.sort_unstable();
            assert_eq!(addrs, want, "{kind}");
        }
        let all: Vec<u64> = report.violations.iter().map(|v| v.addr.as_u64()).collect();
        assert!(all.windows(2).all(|w| w[0] < w[1]), "{all:?}");
    }

    #[test]
    fn a_clone_verifies_as_the_original_did_when_it_was_taken() {
        let mut spec = SpecMachine::new();
        let addrs = descending_across_pages();
        for (i, &a) in addrs.iter().enumerate() {
            let t = tag(0, i as u16 + 1);
            spec.on_store(0, t, PhysAddr::new(a), Word::new(i as u64 + 1), i as u64);
            spec.on_commit(0, t, i as u64);
        }
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        for &a in &addrs[..4] {
            pm.write_word(PhysAddr::new(a), Word::new(5));
        }
        let before = spec.verify(&pm);
        let clone = spec.clone();
        // Later transitions land on every page the clone shares.
        for (i, &a) in addrs.iter().enumerate() {
            let t = tag(0, 100 + i as u16);
            spec.on_store(0, t, PhysAddr::new(a), Word::new(5), 100);
            spec.on_commit(0, t, 101);
            let t = tag(1, 100 + i as u16);
            spec.on_store(1, t, PhysAddr::new(a - 8), Word::new(1), 102);
            spec.on_crash_inflight(1, t, 103);
        }
        assert_eq!(clone.verify(&pm), before);
        assert_ne!(spec.verify(&pm), before, "the original moved on");
    }

    #[test]
    fn history_is_bounded_and_counts_drops() {
        let mut spec = SpecMachine::new();
        for i in 0..20u64 {
            let t = tag(0, (i + 1) as u16);
            spec.on_store(0, t, PhysAddr::new(0), Word::new(i), 2 * i);
            spec.on_commit(0, t, 2 * i + 1);
        }
        let pm = PmDevice::new(PmDeviceConfig::default());
        let report = spec.verify(&pm);
        let v = report.first_offender().expect("violation");
        assert_eq!(v.history.len(), HISTORY_CAP);
        assert_eq!(v.dropped_history, 40 - HISTORY_CAP as u64);
        assert_eq!(v.event, 39, "last transition is the final commit");
        assert_eq!(v.legal, vec![Word::new(19)], "last committed value wins");
    }

    #[test]
    fn new_transaction_on_same_core_resets_pending() {
        let mut spec = SpecMachine::new();
        spec.on_store(0, tag(0, 1), PhysAddr::new(0), Word::new(1), 1);
        spec.on_commit(0, tag(0, 1), 2);
        // Second tx on the same core writes a different word; its commit
        // must not re-commit word 0.
        spec.on_store(0, tag(0, 2), PhysAddr::new(8), Word::new(2), 3);
        spec.on_commit(0, tag(0, 2), 4);
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(0), Word::new(1));
        pm.write_word(PhysAddr::new(8), Word::new(2));
        let report = spec.verify(&pm);
        assert!(report.is_consistent());
        assert_eq!(report.words_checked, 2);
    }

    #[test]
    fn interleaved_words_keep_their_own_histories() {
        // Three words written round-robin by one transaction per round:
        // word 0 every round, word 8 every other, word 16 only in the
        // first two. Each word's history is its own last transitions, in
        // order, however the log interleaves them.
        let mut spec = SpecMachine::new();
        let mut event = 0;
        let mut expected: FxHashMap<u64, Vec<WordEvent>> = FxHashMap::default();
        for round in 0..12u64 {
            let t = tag(0, (round + 1) as u16);
            let mut written = vec![0u64];
            if round % 2 == 0 {
                written.push(8);
            }
            if round < 2 {
                written.push(16);
            }
            for &addr in &written {
                event += 1;
                spec.on_store(0, t, PhysAddr::new(addr), Word::new(round + 1), event);
                expected.entry(addr).or_default().push(WordEvent {
                    event,
                    core: 0,
                    tag: t,
                    kind: WordEventKind::Store,
                    value: Word::new(round + 1),
                });
            }
            event += 1;
            spec.on_commit(0, t, event);
            for &addr in &written {
                expected.entry(addr).or_default().push(WordEvent {
                    event,
                    core: 0,
                    tag: t,
                    kind: WordEventKind::Commit,
                    value: Word::new(round + 1),
                });
            }
        }
        // An all-zero image loses every committed word.
        let report = spec.verify(&PmDevice::new(PmDeviceConfig::default()));
        assert_eq!(report.violations.len(), 3);
        for v in &report.violations {
            let all = &expected[&v.addr.as_u64()];
            let keep = all.len().min(HISTORY_CAP);
            assert_eq!(v.history, all[all.len() - keep..], "word {}", v.addr);
            assert_eq!(
                v.dropped_history,
                (all.len() - keep) as u64,
                "word {}",
                v.addr
            );
            assert_eq!(v.event, all.last().unwrap().event, "word {}", v.addr);
        }
        // Word 0: 24 transitions, word 8: 12, word 16: 4 (none dropped).
        let dropped: Vec<u64> = report
            .violations
            .iter()
            .map(|v| v.dropped_history)
            .collect();
        assert_eq!(dropped, vec![16, 4, 0]);
    }
}
