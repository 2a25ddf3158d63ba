//! The atomic-durability oracle.
//!
//! While the engine executes a run that can crash, the oracle records
//! every transaction's write set and commit status. After a crash +
//! recovery, [`TxOracle::verify`] checks the PM image for the paper's
//! correctness property (§II-A): *all* writes of committed transactions
//! present, *no* writes of uncommitted transactions surviving.

use silo_pm::PmDevice;
use silo_types::{FxHashSet, PhysAddr, TxTag, Word, WordImage, BUF_LINE_BYTES};

/// Sequential word peeks over a sorted address stream, fetched one buffer
/// line at a time: crash verification scans tens of thousands of footprint
/// words per crash point, and one media-page lookup per *line* beats one
/// per word. Logical values are identical to [`PmDevice::peek_word`].
/// Both verdicts ([`TxOracle::verify`] and
/// [`SpecMachine::verify`](crate::SpecMachine::verify)) and the crash
/// experiments' recovered-image digest read through it.
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
}

/// One consistency violation found in the recovered PM image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The word address checked.
    pub addr: PhysAddr,
    /// The value atomic durability requires.
    pub expected: Word,
    /// The value actually found in PM.
    pub actual: Word,
    /// Human-readable cause ("committed write lost", "partial update
    /// survived").
    pub kind: &'static str,
}

/// The verification result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// Distinct word addresses checked.
    pub words_checked: usize,
    /// Violations found (empty = atomic durability held).
    pub violations: Vec<Violation>,
}

impl ConsistencyReport {
    /// Whether the recovered image satisfied atomic durability.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
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
/// through one line-at-a-time peek of the device, sorting no keys.
///
/// The oracle relies on the paper's isolation assumption (§III-A: conflict
/// isolation is provided by software locking), which our workloads satisfy
/// by partitioning addresses across threads; [`TxOracle::observe`] asserts
/// it: a word written by an uncommitted (in-flight) transaction of one core
/// must not be concurrently written by another.
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
}

impl TxOracle {
    /// Records a finished (or crash-interrupted) transaction.
    pub fn observe(&mut self, record: TxRecord) {
        if record.committed {
            self.committed_txs += 1;
            for (addr, value) in record.writes {
                self.committed_state.insert(addr, value);
            }
        } else {
            self.uncommitted_txs += 1;
            for (addr, _) in record.writes {
                let rollback = self.committed_state.get(addr).unwrap_or(Word::ZERO);
                self.uncommitted_touched.insert(addr, rollback);
            }
        }
    }

    /// Records a transaction whose `Tx_end` raced the power failure: the
    /// scheme may legally have persisted its commit or not, but the
    /// recovered image must reflect one outcome *atomically*. The record's
    /// writes are checked as a group by [`verify`](Self::verify) and
    /// excluded from the unambiguous-state checks.
    pub fn observe_ambiguous(&mut self, record: TxRecord) {
        self.ambiguous_txs += 1;
        let group = record
            .writes
            .iter()
            .map(|&(addr, new)| {
                let rollback = self.committed_state.get(addr).unwrap_or(Word::ZERO);
                (addr.word_aligned().as_u64(), rollback, new)
            })
            .collect();
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
    /// ambiguous transaction (see [`observe_ambiguous`]
    /// (Self::observe_ambiguous)) are checked per group — all-new or
    /// all-rollback — instead of against a single expected value.
    /// Violations of each kind come out in ascending address order.
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
                report.violations.push(Violation {
                    addr,
                    expected,
                    actual,
                    kind: "committed write lost or corrupted",
                });
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
                report.violations.push(Violation {
                    addr,
                    expected,
                    actual,
                    kind: "partial update of uncommitted transaction survived",
                });
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
                for &(key, _, new) in group {
                    let addr = PhysAddr::new(key);
                    let actual = pm.peek_word(addr);
                    if actual != new {
                        report.violations.push(Violation {
                            addr,
                            expected: new,
                            actual,
                            kind: "ambiguous commit applied partially (torn commit)",
                        });
                    }
                }
            }
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
    use silo_pm::PmDeviceConfig;
    use silo_types::{ThreadId, TxId};

    fn tag(tid: u8, txid: u16) -> TxTag {
        TxTag::new(ThreadId::new(tid), TxId::new(txid))
    }

    fn committed(addr: u64, value: u64) -> TxRecord {
        TxRecord {
            tag: tag(0, 1),
            writes: vec![(PhysAddr::new(addr), Word::new(value))],
            committed: true,
        }
    }

    #[test]
    fn committed_writes_must_be_present() {
        let mut oracle = TxOracle::default();
        oracle.observe(committed(0, 7));
        let pm = PmDevice::new(PmDeviceConfig::default());
        let report = oracle.verify(&pm);
        assert!(!report.is_consistent());
        assert_eq!(
            report.violations[0].kind,
            "committed write lost or corrupted"
        );

        let mut pm2 = PmDevice::new(PmDeviceConfig::default());
        pm2.write_word(PhysAddr::new(0), Word::new(7));
        assert!(oracle.verify(&pm2).is_consistent());
    }

    #[test]
    fn uncommitted_writes_must_roll_back_to_zero() {
        let mut oracle = TxOracle::default();
        oracle.observe(TxRecord {
            tag: tag(0, 1),
            writes: vec![(PhysAddr::new(8), Word::new(5))],
            committed: false,
        });
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(8), Word::new(5)); // leaked partial update
        let report = oracle.verify(&pm);
        assert!(!report.is_consistent());
        assert!(report.violations[0].kind.contains("partial update"));
    }

    #[test]
    fn uncommitted_rolls_back_to_last_committed_value() {
        let mut oracle = TxOracle::default();
        oracle.observe(committed(0, 3));
        oracle.observe(TxRecord {
            tag: tag(0, 2),
            writes: vec![(PhysAddr::new(0), Word::new(9))],
            committed: false,
        });
        assert_eq!(oracle.expected_value(PhysAddr::new(0)), Word::new(3));
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(0), Word::new(3));
        assert!(oracle.verify(&pm).is_consistent());
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
        oracle.observe(TxRecord {
            tag: tag(1, 1),
            writes: vec![(PhysAddr::new(64), Word::new(2))],
            committed: false,
        });
        assert_eq!(oracle.tx_counts(), (1, 1));
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(0), Word::new(1));
        let report = oracle.verify(&pm);
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
            oracle.observe(TxRecord {
                tag: tag(1, i as u16 + 1),
                writes: vec![(PhysAddr::new(a - 8), Word::new(99))],
                committed: false,
            });
            pm.write_word(PhysAddr::new(a - 8), Word::new(99));
        }
        let report = oracle.verify(&pm);
        assert_eq!(report.words_checked, 16);
        assert_eq!(report.violations.len(), 16);
        // All of the first kind, then all of the second, each ascending.
        let (lost, survived) = report.violations.split_at(8);
        for (kind, group, offset) in [
            ("committed write", lost, 0),
            ("partial update", survived, 8),
        ] {
            assert!(group.iter().all(|v| v.kind.contains(kind)), "{kind}");
            let addrs: Vec<u64> = group.iter().map(|v| v.addr.as_u64()).collect();
            let mut want: Vec<u64> = descending_across_pages()
                .iter()
                .map(|a| a - offset)
                .collect();
            want.sort_unstable();
            assert_eq!(addrs, want, "{kind}");
        }
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
            oracle.observe(TxRecord {
                tag: tag(1, 1),
                writes: vec![(PhysAddr::new(a - 8), Word::new(1))],
                committed: false,
            });
        }
        assert_eq!(clone.verify(&pm), before);
        assert_eq!(clone.tx_counts(), (8, 0));
        assert_ne!(oracle.verify(&pm), before, "the original moved on");
    }

    fn ambiguous_two_words(oracle: &mut TxOracle) {
        oracle.observe(committed(0, 3));
        oracle.observe_ambiguous(TxRecord {
            tag: tag(0, 2),
            writes: vec![
                (PhysAddr::new(0), Word::new(9)),
                (PhysAddr::new(8), Word::new(10)),
            ],
            committed: false,
        });
    }

    #[test]
    fn ambiguous_commit_accepts_both_outcomes() {
        let mut oracle = TxOracle::default();
        ambiguous_two_words(&mut oracle);
        assert_eq!(oracle.ambiguous_txs(), 1);

        // Fully rolled back: word 0 = last committed (3), word 8 = zero.
        let mut old = PmDevice::new(PmDeviceConfig::default());
        old.write_word(PhysAddr::new(0), Word::new(3));
        assert!(oracle.verify(&old).is_consistent());

        // Fully applied.
        let mut new = PmDevice::new(PmDeviceConfig::default());
        new.write_word(PhysAddr::new(0), Word::new(9));
        new.write_word(PhysAddr::new(8), Word::new(10));
        assert!(oracle.verify(&new).is_consistent());
    }

    #[test]
    fn ambiguous_commit_rejects_torn_mix() {
        let mut oracle = TxOracle::default();
        ambiguous_two_words(&mut oracle);
        // Word 0 applied, word 8 rolled back: torn.
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(0), Word::new(9));
        let report = oracle.verify(&pm);
        assert!(!report.is_consistent());
        assert!(report.violations[0].kind.contains("torn commit"));
    }

    #[test]
    fn ambiguous_keys_are_excluded_from_plain_checks() {
        let mut oracle = TxOracle::default();
        ambiguous_two_words(&mut oracle);
        // Word 0 holds the ambiguous-new value: the committed-state check
        // (which expects 3) must not fire.
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_word(PhysAddr::new(0), Word::new(9));
        pm.write_word(PhysAddr::new(8), Word::new(10));
        let report = oracle.verify(&pm);
        assert!(
            report
                .violations
                .iter()
                .all(|v| !v.kind.contains("committed write")),
            "{:?}",
            report.violations
        );
    }
}
