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

use silo_pm::PmDevice;
use silo_types::{FxHashSet, PhysAddr, TxTag, Word, WordImage, BUF_LINE_BYTES};

use crate::spec::{TransitionLog, WordEvent, WordEventKind};

/// Sequential word peeks over a sorted address stream, fetched one buffer
/// line at a time: crash verification scans tens of thousands of footprint
/// words per crash point, and one media-page lookup per *line* beats one
/// per word. Logical values are identical to [`PmDevice::peek_word`].
/// [`TxOracle::verify`] and the crash experiments' recovered-image digest
/// read through it.
pub struct LinePeeker {
    line: [u8; BUF_LINE_BYTES],
    base: u64,
}

impl Default for LinePeeker {
    fn default() -> Self {
        LinePeeker {
            line: [0u8; BUF_LINE_BYTES],
            base: u64::MAX,
        }
    }
}

impl LinePeeker {
    /// The word at `addr` in `pm`, as [`PmDevice::peek_word`] reads it.
    pub fn word(&mut self, pm: &PmDevice, addr: PhysAddr) -> Word {
        let base = addr.as_u64() / BUF_LINE_BYTES as u64 * BUF_LINE_BYTES as u64;
        let off = (addr.as_u64() - base) as usize;
        if off + 8 > BUF_LINE_BYTES {
            return pm.peek_word(addr); // straddles two lines
        }
        if base != self.base {
            pm.peek_into(PhysAddr::new(base), &mut self.line);
            self.base = base;
        }
        Word::from_le_bytes(
            self.line[off..off + 8]
                .try_into()
                .expect("word within line"),
        )
    }
}

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
    /// Final value per distinct written word (in execution order of the
    /// *last* write to each word).
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
/// addresses touched by uncommitted ones.
///
/// Only a crash reads the oracle, so the engine feeds it only on runs that
/// can reach one: crash-plan runs, and checkpointing runs (a walk or a
/// recording run), whose checkpoints carry it into the crash runs they
/// seed. Other clean runs, the forking run of a steady-state delta among
/// them, record nothing.
///
/// The expected words live in two paged copy-on-write [`WordImage`]s, so
/// a checkpoint's copy of the oracle copies page tables, not words, and a
/// page is duplicated only when a later commit writes to it.
/// [`TxOracle::verify`] reads both images in ascending address order
/// through one line-at-a-time peek of the device, sorting no keys. The
/// optional transition log is one append-only list of every word's
/// transitions, interleaved as they happened, so a checkpoint copies it
/// in one allocation; `verify` reads each offending word's recent history
/// out of it in one backward pass.
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
    /// Words touched by uncommitted transactions, with the value they must
    /// roll back to.
    uncommitted_touched: WordImage,
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

    /// Records a finished (or crash-interrupted) transaction.
    pub fn observe(&mut self, record: TxRecord) {
        let TxRecord {
            tag,
            writes,
            committed,
            event,
        } = record;
        if committed {
            self.committed_txs += 1;
            for (addr, value) in writes {
                self.committed_state.insert(addr, value);
                self.log(addr, tag, WordEventKind::Commit, value, event);
            }
        } else {
            self.uncommitted_txs += 1;
            for (addr, _) in writes {
                let rollback = self.committed_state.get(addr).unwrap_or(Word::ZERO);
                self.uncommitted_touched.insert(addr, rollback);
                self.log(addr, tag, WordEventKind::Rollback, rollback, event);
            }
        }
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
        self.committed_state
            .get(addr)
            .or_else(|| self.uncommitted_touched.get(addr))
            .unwrap_or(Word::ZERO)
    }

    /// Checks the PM image against the expected state. Words written by an
    /// ambiguous transaction (see
    /// [`observe_ambiguous`](Self::observe_ambiguous)) are checked per
    /// group — all-new or all-rollback — instead of against a single
    /// expected value.
    /// Violations come out sorted by address, then kind, each with its
    /// word's history when the transition log is on.
    pub fn verify(&self, pm: &PmDevice) -> ConsistencyReport {
        let ambiguous_keys: FxHashSet<u64> = self
            .ambiguous_groups
            .iter()
            .flatten()
            .map(|&(key, _, _)| key)
            .collect();
        let mut report = ConsistencyReport::default();
        let mut peeker = LinePeeker::default();
        for (addr, expected) in self.committed_state.iter() {
            if ambiguous_keys.contains(&addr.as_u64()) {
                continue; // group-checked below
            }
            let actual = peeker.word(pm, addr);
            report.words_checked += 1;
            if actual != expected {
                let v = Violation::new(addr, vec![expected], actual, LOST);
                report.violations.push(v);
            }
        }
        let mut peeker = LinePeeker::default();
        for (addr, expected) in self.uncommitted_touched.iter() {
            if self.committed_state.get(addr).is_some() || ambiguous_keys.contains(&addr.as_u64()) {
                continue; // already checked against the committed value
            }
            let actual = peeker.word(pm, addr);
            report.words_checked += 1;
            if actual != expected {
                let v = Violation::new(addr, vec![expected], actual, SURVIVED);
                report.violations.push(v);
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
            log.attach(&mut report.violations);
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
    use silo_types::{FxHashMap, ThreadId, TxId};

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
