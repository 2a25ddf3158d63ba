//! The atomic-durability oracle: the engine's one crash verdict.
//!
//! While the engine executes a run that can crash, the oracle records
//! every transaction's write set and commit status. After a crash +
//! recovery, [`TxOracle::verify`] checks the PM image for the paper's
//! correctness property (§II-A): *all* writes of committed transactions
//! present, *no* writes of uncommitted transactions surviving, and a
//! commit that raced the power cut applied all-or-nothing. Each
//! [`Violation`] names the offending word, the values it may legally
//! hold, the value recovered and the rule it broke. With the per-word
//! transition log on ([`TxOracle::with_history`], kept by
//! [`spec`](crate::spec)) it also carries the word's recent stores,
//! commits, rollbacks and raced commits, stamped with durability-event
//! indices, so a violation is localized to its first offending word and
//! the events that led there.

use silo_pm::{PmDevice, PmPage};
use silo_types::{
    mask_words, FxHashMap, PageMask, PhysAddr, TxTag, Word, WordImage, PAGE_BYTES, WORD_BYTES,
};

use crate::spec::{TransitionLog, WordEvent, WordEventKind};

/// The rules a recovered word can break, as [`Violation::kind`] names
/// them: a committed write lost, an uncommitted write surviving, and a
/// raced commit applied partially.
pub const VIOLATION_KINDS: [&str; 3] = [
    "committed write lost or corrupted",
    "partial update of uncommitted transaction survived",
    "ambiguous commit applied partially (torn commit)",
];
const LOST: &str = VIOLATION_KINDS[0];
const SURVIVED: &str = VIOLATION_KINDS[1];
const TORN: &str = VIOLATION_KINDS[2];

/// One transaction's observed execution, as the oracle saw it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxRecord {
    /// The transaction's identity.
    pub tag: TxTag,
    /// Final value per distinct written word. The engine lists them in
    /// ascending address order; the oracle accepts any order.
    pub writes: Vec<(PhysAddr, Word)>,
    /// Whether `Tx_end` was reached before the crash (committed).
    pub committed: bool,
    /// Durability-event index at which the transaction ended (its commit,
    /// the cut, or the commit that raced it): the transition log stamps
    /// each of its words with it.
    pub event: u64,
}

/// One word whose recovered value is outside its legal set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The offending word address.
    pub addr: PhysAddr,
    /// The values atomic durability allows here after recovery: one for
    /// an unambiguous word; (rollback, committed) when the word's commit
    /// raced the power failure and its group tore.
    pub legal: Vec<Word>,
    /// The value actually found in PM.
    pub actual: Word,
    /// Which rule failed (one of [`VIOLATION_KINDS`]).
    pub kind: &'static str,
    /// Durability-event index of the word's latest logged transition (0
    /// without the transition log).
    pub event: u64,
    /// The word's latest logged transitions, oldest first (empty without
    /// the transition log).
    pub history: Vec<WordEvent>,
    /// Transitions dropped from the front of the history.
    pub dropped_history: u64,
}

impl Violation {
    fn new(addr: PhysAddr, legal: Vec<Word>, actual: Word, kind: &'static str) -> Self {
        Violation {
            addr,
            legal,
            actual,
            kind,
            event: 0,
            history: Vec::new(),
            dropped_history: 0,
        }
    }
}

/// The verification result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Distinct word addresses checked.
    pub words_checked: usize,
    /// Violations found (empty = atomic durability held), sorted by word
    /// address, then kind.
    pub violations: Vec<Violation>,
}

impl ConsistencyReport {
    /// Whether the recovered image satisfied atomic durability.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }

    /// The lowest-addressed offending word, if any: a repro's target.
    pub fn first_offender(&self) -> Option<&Violation> {
        self.violations.first()
    }
}

/// Tracks per-word expected values across committed transactions and the
/// write sets of the transactions a crash cut.
///
/// Only a crash reads the oracle, so the engine feeds it only on runs that
/// can reach one: crash-plan runs, and checkpointing runs (a walk or a
/// recording run), whose checkpoints carry it into the crash runs they
/// seed. Other clean runs, the forking run of a steady-state delta among
/// them, record nothing.
///
/// The committed words live in a paged copy-on-write [`WordImage`], so a
/// checkpoint's copy of the oracle copies a page table, not words, and a
/// page is duplicated only when a later commit writes to it. A cut
/// transaction's write set arrives whole, as the image its core kept
/// ([`observe_cut`](Self::observe_cut)), and stays that image: nothing is
/// copied or looked up per word at the cut. A word that only cut
/// transactions wrote must read zero after recovery, since no committed
/// value exists to roll it back to; a word some committed transaction
/// wrote is checked against its committed value. [`TxOracle::verify`]
/// visits each page that a committed or cut word lies on once, reads it
/// from the device in one peek, and takes the page's committed, cut and
/// raced words as bitmaps: no word is looked up on its own. The optional
/// transition log is one append-only list of every word's transitions,
/// interleaved as they happened, so a checkpoint copies it in one
/// allocation; `verify` reads each offending word's recent history out of
/// it in one backward pass, after the rollbacks of the cut, which are the
/// crash's and so every word's latest transitions.
///
/// The oracle relies on the paper's isolation assumption (§III-A: conflict
/// isolation is provided by software locking), which our workloads satisfy
/// by partitioning addresses across threads.
///
/// # Examples
///
/// ```
/// use silo_sim::{TxOracle, TxRecord};
/// use silo_types::{PhysAddr, ThreadId, TxId, TxTag, Word};
///
/// let mut oracle = TxOracle::default();
/// oracle.observe(TxRecord {
///     tag: TxTag::new(ThreadId::new(0), TxId::new(1)),
///     writes: vec![(PhysAddr::new(0), Word::new(7))],
///     committed: true,
///     event: 1,
/// });
/// assert_eq!(oracle.expected_value(PhysAddr::new(0)), Word::new(7));
/// ```
#[derive(Clone, Debug, Default)]
pub struct TxOracle {
    /// Expected post-recovery value per word: the last committed write.
    committed_state: WordImage,
    /// The transactions the crash cut, in the order they were observed.
    cuts: Vec<Cut>,
    /// Write sets of transactions whose commit raced the power failure:
    /// `(word key, rollback value, new value)` per write. Either outcome
    /// is legal, but it must be all-or-nothing per transaction.
    ambiguous_groups: Vec<Vec<(u64, Word, Word)>>,
    /// Totals for reporting.
    committed_txs: u64,
    uncommitted_txs: u64,
    ambiguous_txs: u64,
    /// Every word's transitions in the order they happened; `None` unless
    /// the log is on.
    history: Option<TransitionLog>,
}

/// A transaction the crash cut: its tag, its write set and the
/// durability-event index of the cut.
#[derive(Clone, Debug)]
struct Cut {
    tag: TxTag,
    writes: WordImage,
    event: u64,
}

impl TxOracle {
    /// An empty oracle with the per-word transition log on: its
    /// violations carry each word's recent history.
    pub fn with_history() -> Self {
        TxOracle {
            history: Some(TransitionLog::default()),
            ..TxOracle::default()
        }
    }

    /// Whether the transition log is on.
    pub fn logs_history(&self) -> bool {
        self.history.is_some()
    }

    fn log(&mut self, addr: PhysAddr, tag: TxTag, kind: WordEventKind, value: Word, event: u64) {
        if let Some(log) = &mut self.history {
            let e = WordEvent {
                event,
                tag,
                kind,
                value,
            };
            log.push(addr, e);
        }
    }

    /// A store by transaction `tag` reached the word at `addr` with
    /// `value` at durability event `event`. Only the transition log reads
    /// stores (the transaction's record carries its final values), so this
    /// does nothing with the log off.
    pub fn log_store(&mut self, tag: TxTag, addr: PhysAddr, value: Word, event: u64) {
        self.log(addr, tag, WordEventKind::Store, value, event);
    }

    /// Records a finished (or crash-interrupted) transaction. An
    /// uncommitted record is a cut ([`observe_cut`](Self::observe_cut)).
    pub fn observe(&mut self, record: TxRecord) {
        let TxRecord {
            tag,
            writes,
            committed,
            event,
        } = record;
        if !committed {
            let mut set = WordImage::new();
            for (addr, value) in writes {
                set.insert(addr, value);
            }
            self.observe_cut(tag, set, event);
            return;
        }
        self.committed_txs += 1;
        for (addr, value) in writes {
            self.committed_state.insert(addr, value);
            self.log(addr, tag, WordEventKind::Commit, value, event);
        }
    }

    /// Records a transaction that the crash cut at durability event
    /// `event`, with `writes`, its write set, handed over whole: each of
    /// its words must roll back to its last committed value, or to zero.
    /// A cut is the crash's, so it comes after every other transition the
    /// oracle records: the transition log places its rollbacks last.
    pub fn observe_cut(&mut self, tag: TxTag, writes: WordImage, event: u64) {
        self.uncommitted_txs += 1;
        self.cuts.push(Cut { tag, writes, event });
    }

    /// Records a transaction whose `Tx_end` raced the power failure: the
    /// scheme may legally have persisted its commit or not, but the
    /// recovered image must reflect one outcome *atomically*. The record's
    /// writes are checked as a group by [`verify`](Self::verify) and
    /// excluded from the unambiguous-state checks.
    pub fn observe_ambiguous(&mut self, record: TxRecord) {
        let TxRecord {
            tag, writes, event, ..
        } = record;
        self.ambiguous_txs += 1;
        let mut group = Vec::with_capacity(writes.len());
        for (addr, new) in writes {
            let rollback = self.committed_state.get(addr).unwrap_or(Word::ZERO);
            group.push((addr.word_aligned().as_u64(), rollback, new));
            self.log(addr, tag, WordEventKind::Ambiguous, new, event);
        }
        self.ambiguous_groups.push(group);
    }

    /// The value atomic durability requires at `addr` after recovery.
    pub fn expected_value(&self, addr: PhysAddr) -> Word {
        self.committed_state.get(addr).unwrap_or(Word::ZERO)
    }

    /// The cut's rollbacks of the word at `addr`, latest first: one per
    /// cut write set that holds it, each to the word's committed value.
    fn cut_rollbacks(&self, addr: PhysAddr) -> Vec<WordEvent> {
        let value = self.expected_value(addr);
        self.cuts
            .iter()
            .rev()
            .filter(|cut| cut.writes.get(addr).is_some())
            .map(|cut| WordEvent {
                event: cut.event,
                tag: cut.tag,
                kind: WordEventKind::Rollback,
                value,
            })
            .collect()
    }

    /// Checks the PM image against the expected state. Words written by an
    /// ambiguous transaction (see
    /// [`observe_ambiguous`](Self::observe_ambiguous)) are checked per
    /// group — all-new or all-rollback — instead of against a single
    /// expected value.
    /// Violations come out sorted by address, then kind, each with its
    /// word's history when the transition log is on.
    pub fn verify(&self, pm: &PmDevice) -> ConsistencyReport {
        // The raced words, as one bitmap per page.
        let mut raced: FxHashMap<u64, PageMask> = FxHashMap::default();
        for &(key, _, _) in self.ambiguous_groups.iter().flatten() {
            let w = (key % PAGE_BYTES as u64) as usize / WORD_BYTES;
            raced.entry(key / PAGE_BYTES as u64).or_default()[w / 64] |= 1 << (w % 64);
        }
        let mut pages: Vec<u64> = self.committed_state.page_indices().collect();
        for cut in &self.cuts {
            pages.extend(cut.writes.page_indices());
        }
        pages.sort_unstable();
        pages.dedup();
        let mut report = ConsistencyReport::default();
        let mut actual = PmPage::default();
        for index in pages {
            let committed = self.committed_state.page(index);
            let raced = raced.get(&index).copied().unwrap_or_default();
            // Committed words are checked against their value, words only
            // cut transactions wrote against zero, raced words below.
            let (mut lost, mut survived): (PageMask, PageMask) = Default::default();
            for cut in &self.cuts {
                if let Some(p) = cut.writes.page(index) {
                    for (s, &bits) in survived.iter_mut().zip(p.written) {
                        *s |= bits;
                    }
                }
            }
            for i in 0..lost.len() {
                let written = committed.map_or(0, |p| p.written[i]);
                lost[i] = written & !raced[i];
                survived[i] &= !written & !raced[i];
            }
            if lost.iter().chain(&survived).all(|&bits| bits == 0) {
                continue;
            }
            pm.peek_page(index, &mut actual);
            let mut check = |w: usize, legal: u64, kind| {
                report.words_checked += 1;
                let got = actual.word(w);
                if got != legal {
                    let addr = index * PAGE_BYTES as u64 + (w * WORD_BYTES) as u64;
                    let (legal, got) = (vec![Word::new(legal)], Word::new(got));
                    let v = Violation::new(PhysAddr::new(addr), legal, got, kind);
                    report.violations.push(v);
                }
            };
            for w in mask_words(&lost) {
                check(w, committed.map_or(0, |p| p.words[w]), LOST);
            }
            for w in mask_words(&survived) {
                check(w, 0, SURVIVED);
            }
        }
        for group in &self.ambiguous_groups {
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
                // Torn: flag every word that did not make it to the new
                // value (at least one exists, since `all_new` is false).
                for &(key, rollback, new) in group {
                    let addr = PhysAddr::new(key);
                    let actual = pm.peek_word(addr);
                    if actual != new {
                        let v = Violation::new(addr, vec![rollback, new], actual, TORN);
                        report.violations.push(v);
                    }
                }
            }
        }
        report.violations.sort_by_key(|v| (v.addr.as_u64(), v.kind));
        if let Some(log) = &self.history {
            log.attach(&mut report.violations, |addr| self.cut_rollbacks(addr));
        }
        report
    }

    /// `(committed, uncommitted)` transaction counts observed.
    pub fn tx_counts(&self) -> (u64, u64) {
        (self.committed_txs, self.uncommitted_txs)
    }

    /// Transactions whose commit raced the power failure.
    pub fn ambiguous_txs(&self) -> u64 {
        self.ambiguous_txs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::HISTORY_CAP;
    use silo_pm::PmDeviceConfig;
    use silo_types::{FxHashSet, SplitMix64, ThreadId, TxId};

    fn tag(tid: u8, txid: u16) -> TxTag {
        TxTag::new(ThreadId::new(tid), TxId::new(txid))
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

    fn committed(addr: u64, value: u64) -> TxRecord {
        record(tag(0, 1), &[(addr, value)], true, 0)
    }

    /// Transaction `t` stores `writes` (one event each, from `event` on)
    /// and then commits or is cut at the next event, as the engine feeds
    /// the oracle. Returns the event after the last one used.
    fn tx(
        oracle: &mut TxOracle,
        t: TxTag,
        writes: &[(u64, u64)],
        committed: bool,
        mut event: u64,
    ) -> u64 {
        for &(a, v) in writes {
            oracle.log_store(t, PhysAddr::new(a), Word::new(v), event);
            event += 1;
        }
        oracle.observe(record(t, writes, committed, event));
        event + 1
    }

    fn pm_with(words: &[(u64, u64)]) -> PmDevice {
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        for &(a, v) in words {
            pm.write_word(PhysAddr::new(a), Word::new(v));
        }
        pm
    }

    #[test]
    fn committed_writes_must_be_present() {
        let mut oracle = TxOracle::default();
        oracle.observe(committed(0, 7));
        let report = oracle.verify(&pm_with(&[]));
        assert!(!report.is_consistent());
        let v = report.first_offender().expect("one violation");
        assert_eq!(v.kind, "committed write lost or corrupted");
        assert_eq!((v.addr, v.actual), (PhysAddr::new(0), Word::ZERO));
        assert_eq!(v.legal, vec![Word::new(7)]);
        assert!(v.history.is_empty() && v.event == 0, "no log, no history");
        assert!(oracle.verify(&pm_with(&[(0, 7)])).is_consistent());
    }

    #[test]
    fn uncommitted_writes_must_roll_back_to_zero() {
        let mut oracle = TxOracle::default();
        oracle.observe(record(tag(0, 1), &[(8, 5)], false, 0));
        let report = oracle.verify(&pm_with(&[(8, 5)])); // leaked partial update
        assert!(!report.is_consistent());
        assert!(report.violations[0].kind.contains("partial update"));
    }

    #[test]
    fn uncommitted_rolls_back_to_last_committed_value() {
        let mut oracle = TxOracle::default();
        oracle.observe(committed(0, 3));
        oracle.observe(record(tag(0, 2), &[(0, 9)], false, 0));
        assert_eq!(oracle.expected_value(PhysAddr::new(0)), Word::new(3));
        assert!(oracle.verify(&pm_with(&[(0, 3)])).is_consistent());
    }

    #[test]
    fn later_committed_tx_wins() {
        let mut oracle = TxOracle::default();
        oracle.observe(committed(0, 1));
        oracle.observe(committed(0, 2));
        assert_eq!(oracle.expected_value(PhysAddr::new(0)), Word::new(2));
    }

    #[test]
    fn counts_and_checked_words() {
        let mut oracle = TxOracle::default();
        oracle.observe(committed(0, 1));
        oracle.observe(record(tag(1, 1), &[(64, 2)], false, 0));
        assert_eq!(oracle.tx_counts(), (1, 1));
        let report = oracle.verify(&pm_with(&[(0, 1)]));
        assert_eq!(report.words_checked, 2);
        assert!(report.is_consistent());
    }

    #[test]
    fn expected_value_of_untouched_word_is_zero() {
        let oracle = TxOracle::default();
        assert_eq!(oracle.expected_value(PhysAddr::new(12345 * 8)), Word::ZERO);
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
    fn violations_ascend_within_each_kind_whatever_the_observe_order() {
        let mut oracle = TxOracle::default();
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        for (i, &a) in descending_across_pages().iter().enumerate() {
            // A committed word PM lost, and next to it a cut-off word
            // whose partial update PM kept.
            oracle.observe(committed(a, i as u64 + 1));
            oracle.observe(record(tag(1, i as u16 + 1), &[(a - 8, 99)], false, 0));
            pm.write_word(PhysAddr::new(a - 8), Word::new(99));
        }
        let report = oracle.verify(&pm);
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
    fn violations_are_sorted_and_first_offender_is_lowest_address() {
        let mut oracle = TxOracle::with_history();
        let mut event = 0;
        for (i, addr) in [64u64, 0, 128].into_iter().enumerate() {
            event = tx(&mut oracle, tag(0, i as u16 + 1), &[(addr, 5)], true, event);
        }
        let report = oracle.verify(&pm_with(&[]));
        let addrs: Vec<u64> = report.violations.iter().map(|v| v.addr.as_u64()).collect();
        assert_eq!(addrs, vec![0, 64, 128]);
        assert_eq!(report.first_offender().unwrap().addr, PhysAddr::new(0));
    }

    #[test]
    fn a_clone_verifies_as_the_original_did_when_it_was_taken() {
        let mut oracle = TxOracle::default();
        let addrs = descending_across_pages();
        for (i, &a) in addrs.iter().enumerate() {
            oracle.observe(committed(a, i as u64 + 1));
        }
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        for &a in &addrs[..4] {
            pm.write_word(PhysAddr::new(a), Word::new(5));
        }
        let before = oracle.verify(&pm);
        let clone = oracle.clone();
        // Later observes land on every page the clone shares.
        for &a in &addrs {
            oracle.observe(committed(a, 5));
            oracle.observe(record(tag(1, 1), &[(a - 8, 1)], false, 0));
        }
        assert_eq!(clone.verify(&pm), before);
        assert_eq!(clone.tx_counts(), (8, 0));
        assert_ne!(oracle.verify(&pm), before, "the original moved on");
    }

    fn ambiguous_two_words(oracle: &mut TxOracle) {
        oracle.observe(committed(0, 3));
        oracle.observe_ambiguous(record(tag(0, 2), &[(0, 9), (8, 10)], false, 0));
    }

    #[test]
    fn ambiguous_commit_accepts_both_outcomes() {
        let mut oracle = TxOracle::default();
        ambiguous_two_words(&mut oracle);
        assert_eq!(oracle.ambiguous_txs(), 1);
        // Fully rolled back: word 0 = last committed (3), word 8 = zero.
        assert!(oracle.verify(&pm_with(&[(0, 3)])).is_consistent());
        // Fully applied.
        assert!(oracle.verify(&pm_with(&[(0, 9), (8, 10)])).is_consistent());
    }

    #[test]
    fn ambiguous_commit_rejects_torn_mix() {
        let mut oracle = TxOracle::default();
        ambiguous_two_words(&mut oracle);
        // Word 0 applied, word 8 rolled back: torn.
        let report = oracle.verify(&pm_with(&[(0, 9)]));
        assert!(!report.is_consistent());
        let v = report.first_offender().expect("violation");
        assert!(v.kind.contains("torn commit"));
        assert_eq!(v.addr, PhysAddr::new(8), "the word left behind");
        assert_eq!(v.legal, vec![Word::ZERO, Word::new(10)]);
    }

    #[test]
    fn ambiguous_keys_are_excluded_from_plain_checks() {
        let mut oracle = TxOracle::default();
        ambiguous_two_words(&mut oracle);
        // Word 0 holds the ambiguous-new value: the committed-state check
        // (which expects 3) must not fire.
        let report = oracle.verify(&pm_with(&[(0, 9), (8, 10)]));
        assert!(
            report
                .violations
                .iter()
                .all(|v| !v.kind.contains("committed write")),
            "{:?}",
            report.violations
        );
    }

    /// The oracle as it was before cut write sets: every uncommitted
    /// record materialized word by word into a rollback image, with its
    /// rollbacks logged as it was observed, and `verify` reading that
    /// image where the oracle now merges its cut sets. Ordered maps keep
    /// it independent of `WordImage`.
    #[derive(Default)]
    struct MaterializingOracle {
        committed: std::collections::BTreeMap<u64, Word>,
        rollback: std::collections::BTreeMap<u64, Word>,
        groups: Vec<Vec<(u64, Word, Word)>>,
        log: Option<Vec<(u64, WordEvent)>>,
    }

    impl MaterializingOracle {
        fn log(
            &mut self,
            addr: PhysAddr,
            tag: TxTag,
            kind: WordEventKind,
            value: Word,
            event: u64,
        ) {
            if let Some(log) = &mut self.log {
                let e = WordEvent {
                    event,
                    tag,
                    kind,
                    value,
                };
                log.push((addr.as_u64(), e));
            }
        }

        fn observe(&mut self, r: &TxRecord) {
            for &(addr, value) in &r.writes {
                if r.committed {
                    self.committed.insert(addr.as_u64(), value);
                    self.log(addr, r.tag, WordEventKind::Commit, value, r.event);
                } else {
                    let back = self
                        .committed
                        .get(&addr.as_u64())
                        .copied()
                        .unwrap_or(Word::ZERO);
                    self.rollback.insert(addr.as_u64(), back);
                    self.log(addr, r.tag, WordEventKind::Rollback, back, r.event);
                }
            }
        }

        fn observe_ambiguous(&mut self, r: &TxRecord) {
            let mut group = Vec::new();
            for &(addr, new) in &r.writes {
                let back = self
                    .committed
                    .get(&addr.as_u64())
                    .copied()
                    .unwrap_or(Word::ZERO);
                group.push((addr.as_u64(), back, new));
                self.log(addr, r.tag, WordEventKind::Ambiguous, new, r.event);
            }
            self.groups.push(group);
        }

        fn verify(&self, pm: &PmDevice) -> ConsistencyReport {
            let raced: FxHashSet<u64> = self.groups.iter().flatten().map(|g| g.0).collect();
            let mut report = ConsistencyReport::default();
            let check = |report: &mut ConsistencyReport, key: u64, legal: Word, kind| {
                let actual = pm.peek_word(PhysAddr::new(key));
                report.words_checked += 1;
                if actual != legal {
                    let v = Violation::new(PhysAddr::new(key), vec![legal], actual, kind);
                    report.violations.push(v);
                }
            };
            for (&key, &value) in &self.committed {
                if !raced.contains(&key) {
                    check(&mut report, key, value, LOST);
                }
            }
            for (&key, &value) in &self.rollback {
                if !self.committed.contains_key(&key) && !raced.contains(&key) {
                    check(&mut report, key, value, SURVIVED);
                }
            }
            for group in &self.groups {
                let actual = |key| pm.peek_word(PhysAddr::new(key));
                report.words_checked += group.len();
                let all_new = group.iter().all(|&(k, _, new)| actual(k) == new);
                let all_old = group.iter().all(|&(k, old, _)| actual(k) == old);
                if !all_new && !all_old {
                    for &(k, old, new) in group.iter().filter(|&&(k, _, new)| actual(k) != new) {
                        let v = Violation::new(PhysAddr::new(k), vec![old, new], actual(k), TORN);
                        report.violations.push(v);
                    }
                }
            }
            report.violations.sort_by_key(|v| (v.addr.as_u64(), v.kind));
            if let Some(log) = &self.log {
                for v in &mut report.violations {
                    let all: Vec<WordEvent> = log
                        .iter()
                        .filter(|(key, _)| *key == v.addr.as_u64())
                        .map(|&(_, e)| e)
                        .collect();
                    let keep = all.len().min(HISTORY_CAP);
                    v.history = all[all.len() - keep..].to_vec();
                    v.dropped_history = (all.len() - keep) as u64;
                    v.event = all.last().map_or(0, |e| e.event);
                }
            }
            report
        }
    }

    /// One seeded run as the engine feeds the oracle, and the same run fed
    /// to the materializing model: `cores` cores interleave transactions
    /// over words on five pages (rewriting words, and writing words other
    /// transactions committed), then one commit races the power failure
    /// and the crash cuts every other core mid-transaction. Returns both
    /// verdicts on a PM image that holds, per word, its committed value,
    /// zero, an in-flight value or noise.
    fn cut_run(seed: u64, cores: usize, history: bool) -> (ConsistencyReport, ConsistencyReport) {
        let mut rng = silo_types::SplitMix64::new(seed);
        let pool: Vec<u64> = (0..5u64)
            .flat_map(|page| [0, 8, 16, 64, 2048, 4088].map(|off| page * 4096 + off))
            .collect();
        let mut oracle = if history {
            TxOracle::with_history()
        } else {
            TxOracle::default()
        };
        let mut model = MaterializingOracle {
            log: history.then(Vec::new),
            ..MaterializingOracle::default()
        };
        // Per core: the tag and write set of its open transaction, if any.
        let mut open: Vec<Option<(TxTag, WordImage)>> = vec![None; cores];
        let mut txids = vec![0u16; cores];
        let mut event = 0u64;
        let record = |tag, set: &WordImage, committed, event| TxRecord {
            tag,
            writes: set.iter().collect(),
            committed,
            event,
        };
        // Steps core `c`: begins, stores or commits. Returns whether the
        // core is now in flight with a store or more.
        let mut step = |c: usize, rng: &mut silo_types::SplitMix64, commit_ok: bool| {
            let Some((tag, set)) = &mut open[c] else {
                txids[c] += 1;
                open[c] = Some((tag(c as u8, txids[c]), WordImage::new()));
                return false;
            };
            event += 1;
            if commit_ok && !set.is_empty() && rng.chance(1, 6) {
                let r = record(*tag, set, true, event);
                oracle.observe(r.clone());
                model.observe(&r);
                open[c] = None;
                return false;
            }
            let addr = PhysAddr::new(pool[rng.below(pool.len() as u64) as usize]);
            let value = Word::new(1 + rng.below(3));
            set.insert(addr, value);
            oracle.log_store(*tag, addr, value, event);
            model.log(addr, *tag, WordEventKind::Store, value, event);
            true
        };
        for _ in 0..rng.below(300) + 60 {
            let c = rng.below(cores as u64) as usize;
            step(c, &mut rng, true);
        }
        // Every core ends in flight with a store or more; the last core's
        // commit then races the power failure.
        for c in 0..cores {
            while !step(c, &mut rng, false) {}
        }
        event += 1;
        let (tag, set) = open[cores - 1].take().expect("in flight");
        let r = record(tag, &set, false, event);
        oracle.observe_ambiguous(r.clone());
        model.observe_ambiguous(&r);
        for (tag, set) in open.into_iter().flatten() {
            let mut r = record(tag, &set, false, event);
            r.writes.sort_by_key(|&(a, _)| a.as_u64());
            model.observe(&r);
            oracle.observe_cut(tag, set, event);
        }
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        for &a in &pool {
            let addr = PhysAddr::new(a);
            let value = match rng.below(4) {
                0 => oracle.expected_value(addr),
                1 => Word::ZERO,
                _ => Word::new(rng.below(4)),
            };
            pm.write_word(addr, value);
        }
        (oracle.verify(&pm), model.verify(&pm))
    }

    #[test]
    fn cut_sets_judge_as_the_materialized_rollback_image_did() {
        let (mut violations, mut histories, mut dropped) = (0, 0, 0);
        for seed in 0..48u64 {
            for history in [false, true] {
                let cores = 3 + (seed % 3) as usize;
                let (got, want) = cut_run(seed, cores, history);
                assert_eq!(got, want, "seed {seed}, {cores} cores, history {history}");
                violations += got.violations.len();
                histories += got
                    .violations
                    .iter()
                    .filter(|v| !v.history.is_empty())
                    .count();
                dropped += got
                    .violations
                    .iter()
                    .filter(|v| v.dropped_history > 0)
                    .count();
            }
        }
        // The runs reach every part of the verdict.
        assert!(
            violations > 100 && histories > 50 && dropped > 10,
            "{violations} {histories} {dropped}"
        );
    }

    /// The verdict as it was before it read PM a page at a time: every
    /// committed word and every word of the cut sets, merged in ascending
    /// address order, looked up and peeked on its own.
    fn per_word_verify(oracle: &TxOracle, pm: &PmDevice) -> ConsistencyReport {
        let ambiguous_keys: FxHashSet<u64> = oracle
            .ambiguous_groups
            .iter()
            .flatten()
            .map(|&(key, _, _)| key)
            .collect();
        let mut report = ConsistencyReport::default();
        for (addr, expected) in oracle.committed_state.iter() {
            if ambiguous_keys.contains(&addr.as_u64()) {
                continue; // group-checked below
            }
            let actual = pm.peek_word(addr);
            report.words_checked += 1;
            if actual != expected {
                let v = Violation::new(addr, vec![expected], actual, LOST);
                report.violations.push(v);
            }
        }
        let mut sets: Vec<_> = oracle
            .cuts
            .iter()
            .map(|cut| cut.writes.iter().map(|(addr, _)| addr).peekable())
            .collect();
        let cut_words = std::iter::from_fn(|| {
            let next = sets
                .iter_mut()
                .filter_map(|set| set.peek().copied())
                .min()?;
            for set in &mut sets {
                set.next_if_eq(&next);
            }
            Some(next)
        });
        for addr in cut_words {
            if oracle.committed_state.get(addr).is_some() || ambiguous_keys.contains(&addr.as_u64())
            {
                continue; // already checked against the committed value
            }
            let actual = pm.peek_word(addr);
            report.words_checked += 1;
            if actual != Word::ZERO {
                let v = Violation::new(addr, vec![Word::ZERO], actual, SURVIVED);
                report.violations.push(v);
            }
        }
        for group in &oracle.ambiguous_groups {
            let actual = |key| pm.peek_word(PhysAddr::new(key));
            report.words_checked += group.len();
            let all_new = group.iter().all(|&(k, _, new)| actual(k) == new);
            let all_old = group.iter().all(|&(k, old, _)| actual(k) == old);
            if !all_new && !all_old {
                for &(k, old, new) in group.iter().filter(|&&(k, _, new)| actual(k) != new) {
                    let v = Violation::new(PhysAddr::new(k), vec![old, new], actual(k), TORN);
                    report.violations.push(v);
                }
            }
        }
        report.violations.sort_by_key(|v| (v.addr.as_u64(), v.kind));
        if let Some(log) = &oracle.history {
            log.attach(&mut report.violations, |addr| oracle.cut_rollbacks(addr));
        }
        report
    }

    /// A seeded oracle and the PM image it judges. Committed transactions
    /// over words on up to twelve pages (dense enough that a page's
    /// bitmaps span several chunks), then every core in flight at the
    /// crash: a third of their commits race it, the rest are cut, and
    /// both overlap each other and the committed words. Each word of PM
    /// holds its committed value, zero, an in-flight value or noise,
    /// first in the media, then for some words in a line staged in the
    /// on-PM buffer over it.
    fn seeded_oracle(seed: u64, history: bool) -> (TxOracle, PmDevice) {
        let mut rng = SplitMix64::new(seed);
        let pages = 1 + rng.below(12);
        let pool: Vec<u64> = (0..40 + rng.below(400))
            .map(|_| rng.below(pages) * PAGE_BYTES as u64 + rng.below(512) * 8)
            .collect();
        let mut oracle = if history {
            TxOracle::with_history()
        } else {
            TxOracle::default()
        };
        let writes = |rng: &mut SplitMix64, max: u64| -> Vec<(u64, u64)> {
            let mut set = WordImage::new();
            for _ in 0..1 + rng.below(max) {
                let addr = PhysAddr::new(pool[rng.below(pool.len() as u64) as usize]);
                set.insert(addr, Word::new(1 + rng.below(3)));
            }
            set.iter().map(|(a, v)| (a.as_u64(), v.as_u64())).collect()
        };
        let mut event = 0;
        for i in 0..5 + rng.below(60) {
            let w = writes(&mut rng, 12);
            let t = tag((i % 4) as u8, i as u16 + 1);
            event = tx(&mut oracle, t, &w, true, event);
        }
        for c in 0..2 + rng.below(4) {
            let w = writes(&mut rng, 30);
            let t = tag(c as u8, 1000 + c as u16);
            for &(a, v) in &w {
                oracle.log_store(t, PhysAddr::new(a), Word::new(v), event);
                event += 1;
            }
            if rng.chance(1, 3) {
                oracle.observe_ambiguous(record(t, &w, false, event));
            } else {
                let mut set = WordImage::new();
                for &(a, v) in &w {
                    set.insert(PhysAddr::new(a), Word::new(v));
                }
                oracle.observe_cut(t, set, event);
            }
        }
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let value = |rng: &mut SplitMix64, a: u64| match rng.below(4) {
            0 => oracle.expected_value(PhysAddr::new(a)),
            1 => Word::ZERO,
            _ => Word::new(rng.below(4)),
        };
        for &a in &pool {
            let v = value(&mut rng, a);
            pm.write_through(PhysAddr::new(a), &v.to_le_bytes());
        }
        for &a in &pool {
            if rng.chance(1, 3) {
                let v = value(&mut rng, a);
                pm.write_word(PhysAddr::new(a), v);
            }
        }
        (oracle, pm)
    }

    #[test]
    fn the_page_walk_judges_as_the_per_word_verdict_did() {
        let mut kinds = FxHashSet::default();
        let (mut histories, mut checked) = (0, 0);
        for seed in 0..96u64 {
            for history in [false, true] {
                let (oracle, pm) = seeded_oracle(seed, history);
                let got = oracle.verify(&pm);
                assert_eq!(
                    got,
                    per_word_verify(&oracle, &pm),
                    "seed {seed}, history {history}"
                );
                kinds.extend(got.violations.iter().map(|v| v.kind));
                histories += got
                    .violations
                    .iter()
                    .filter(|v| !v.history.is_empty())
                    .count();
                checked += got.words_checked;
            }
        }
        // The runs reach every part of the verdict.
        assert_eq!(kinds.len(), VIOLATION_KINDS.len(), "{kinds:?}");
        assert!(histories > 100 && checked > 10_000, "{histories} {checked}");
    }

    #[test]
    fn history_is_bounded_and_counts_drops() {
        let mut oracle = TxOracle::with_history();
        for i in 0..20u64 {
            tx(&mut oracle, tag(0, i as u16 + 1), &[(0, i)], true, 2 * i);
        }
        let report = oracle.verify(&pm_with(&[]));
        let v = report.first_offender().expect("violation");
        assert_eq!(v.history.len(), HISTORY_CAP);
        assert_eq!(v.dropped_history, 40 - HISTORY_CAP as u64);
        assert_eq!(v.event, 39, "last transition is the final commit");
        assert_eq!(v.legal, vec![Word::new(19)], "last committed value wins");
    }

    #[test]
    fn interleaved_words_keep_their_own_histories() {
        // Three words written round-robin by one transaction per round:
        // word 0 every round, word 8 every other, word 16 only in the
        // first two. Each word's history is its own last transitions, in
        // order, however the log interleaves them.
        let mut oracle = TxOracle::with_history();
        let mut event = 1;
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
            let writes: Vec<(u64, u64)> = written.iter().map(|&a| (a, round + 1)).collect();
            let commit = event + writes.len() as u64;
            for (i, &addr) in written.iter().enumerate() {
                for (kind, at) in [
                    (WordEventKind::Store, event + i as u64),
                    (WordEventKind::Commit, commit),
                ] {
                    expected.entry(addr).or_default().push(WordEvent {
                        event: at,
                        tag: t,
                        kind,
                        value: Word::new(round + 1),
                    });
                }
            }
            event = tx(&mut oracle, t, &writes, true, event);
        }
        // An all-zero image loses every committed word.
        let report = oracle.verify(&pm_with(&[]));
        assert_eq!(report.violations.len(), 3);
        for v in &report.violations {
            let all = &expected[&v.addr.as_u64()];
            let keep = all.len().min(HISTORY_CAP);
            assert_eq!(v.history, all[all.len() - keep..], "word {}", v.addr);
            assert_eq!(v.dropped_history, (all.len() - keep) as u64);
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
