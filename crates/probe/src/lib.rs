//! Zero-cost-when-off observability for the Silo simulator.
//!
//! Two production probes plug into the simulated machine through the
//! [`Probe`] trait and the [`ProbeHub`] that every `Machine` carries:
//!
//! * the [`CycleAccountant`] attributes **every** simulated cycle of every
//!   core to one of the closed [`CycleCategory`] set, with the invariant
//!   `sum(categories) == core's total cycles` enforced by construction
//!   (the engine wraps every clock mutation) and checked by debug
//!   assertions and tests;
//! * the [`JsonlTimeline`] records scheme-level [`ProbeEvent`]s (tx
//!   begin/commit, log merge/ignore, buffer drains, WPQ admissions,
//!   crash/recovery) into a bounded ring buffer, drained at run end as
//!   schema-versioned JSONL lines for post-hoc debugging of crash repros.
//!
//! Both probes are **off by default**: a disabled hub reduces every hook
//! to one `Option` discriminant check, so probe-off runs produce
//! byte-identical statistics and reports to a build without this crate.
//!
//! # Cycle attribution model
//!
//! The engine owns the only clock mutations, so it attributes by
//! difference: around every scheme hook it opens a *claim window*
//! ([`ProbeHub::begin_claim_window`]), lets the scheme claim fine-grained
//! sub-stalls ([`ProbeHub::claim`] — e.g. Silo charges its commit-stall
//! drain admissions to [`CycleCategory::Drain`]), and charges the
//! unclaimed remainder of the hook's clock advance to the hook's default
//! category ([`ProbeHub::charge_window`]). Cycles the engine advances
//! itself (op issue, cache latency, memory fills, writeback admission)
//! are charged directly. The sum of all categories therefore equals the
//! core's final clock exactly — not approximately.
//!
//! # Examples
//!
//! ```
//! use silo_probe::{CycleCategory, ProbeHub};
//!
//! let mut hub = ProbeHub::default();
//! hub.enable_accounting(1);
//! hub.charge(0, CycleCategory::Execute, 90);
//! hub.begin_claim_window();
//! hub.claim(0, CycleCategory::Drain, 4); // scheme-claimed sub-stall
//! hub.charge_window(0, CycleCategory::CommitStall, 10); // hook advanced 10
//! let b = hub.take_breakdown().expect("accounting enabled");
//! assert_eq!(b.core_total(0), 100);
//! assert_eq!(b.category_total(CycleCategory::Drain), 4);
//! assert_eq!(b.category_total(CycleCategory::CommitStall), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;

use silo_types::{Fnv1a, JsonValue};

/// Schema version stamped on every timeline JSONL line (`"v"` field).
pub const TIMELINE_SCHEMA_VERSION: u64 = 1;

/// Default ring capacity of a [`JsonlTimeline`] (events per run).
pub const DEFAULT_TIMELINE_CAPACITY: usize = 4096;

/// Where a simulated cycle went. The set is closed: every cycle of every
/// core belongs to exactly one category, and their per-core sum equals
/// the core's final local clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CycleCategory {
    /// Op issue, compute, cache access latency, and demand memory fills —
    /// the work a transaction would do with no durability scheme at all.
    Execute,
    /// `Tx_begin`/`Tx_end` hook stalls not claimed to a finer category:
    /// commit ACK round trips, log-buffer access on the commit path,
    /// baseline commit fences.
    CommitStall,
    /// Store-side stalls: log-buffer overflow back-pressure (Silo §III-F)
    /// and the baselines' synchronous per-store log writes.
    LogBufferFull,
    /// Write-pending-queue admission back-pressure reaching the core:
    /// eviction writebacks and scheme eviction hooks.
    WpqFull,
    /// Drain stalls a scheme explicitly claims: Silo's commit-stall
    /// in-place-update drain when the pending queue overflows its bound.
    Drain,
    /// Post-crash recovery work. Reserved: the crash model performs
    /// recovery in frozen time (battery/recovery writes are timing-free),
    /// so this stays 0 until recovery timing is modelled.
    Recovery,
}

impl CycleCategory {
    /// Every category, in report column order.
    pub const ALL: [CycleCategory; 6] = [
        CycleCategory::Execute,
        CycleCategory::CommitStall,
        CycleCategory::LogBufferFull,
        CycleCategory::WpqFull,
        CycleCategory::Drain,
        CycleCategory::Recovery,
    ];

    /// Number of categories (the width of a per-core counter row).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            CycleCategory::Execute => "execute",
            CycleCategory::CommitStall => "commit_stall",
            CycleCategory::LogBufferFull => "log_buffer_full",
            CycleCategory::WpqFull => "wpq_full",
            CycleCategory::Drain => "drain",
            CycleCategory::Recovery => "recovery",
        }
    }

    /// Index into a per-core counter row ([`CycleCategory::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            CycleCategory::Execute => 0,
            CycleCategory::CommitStall => 1,
            CycleCategory::LogBufferFull => 2,
            CycleCategory::WpqFull => 3,
            CycleCategory::Drain => 4,
            CycleCategory::Recovery => 5,
        }
    }
}

/// The finished per-core cycle attribution of one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// One row per core, one counter per [`CycleCategory`] (in
    /// [`CycleCategory::ALL`] order).
    pub per_core: Vec<[u64; CycleCategory::COUNT]>,
}

impl CycleBreakdown {
    /// Sum of all categories on `core` — must equal the core's final
    /// local clock.
    pub fn core_total(&self, core: usize) -> u64 {
        self.per_core[core].iter().sum()
    }

    /// Sum of one category across all cores.
    pub fn category_total(&self, cat: CycleCategory) -> u64 {
        self.per_core.iter().map(|row| row[cat.index()]).sum()
    }

    /// Sum of everything: all cores, all categories.
    pub fn total(&self) -> u64 {
        self.per_core.iter().flatten().sum()
    }

    /// The breakdown as a JSON object: the category name list, the
    /// per-core rows, and per-category totals ending with `"total"`.
    pub fn to_json(&self) -> JsonValue {
        let mut totals = JsonValue::object();
        for cat in CycleCategory::ALL {
            totals = totals.field(cat.name(), self.category_total(cat));
        }
        JsonValue::object()
            .field(
                "categories",
                JsonValue::array(CycleCategory::ALL.iter().map(|c| c.name())),
            )
            .field(
                "per_core",
                JsonValue::Arr(
                    self.per_core
                        .iter()
                        .map(|row| JsonValue::array(row.iter().copied()))
                        .collect(),
                ),
            )
            .field("totals", totals.field("total", self.total()).build())
            .build()
    }

    /// Rebuilds a breakdown from its [`CycleBreakdown::to_json`] form.
    /// Only the `per_core` rows carry state — `categories` and `totals`
    /// are derived — but every row must hold exactly
    /// [`CycleCategory::COUNT`] exact integers. `None` on any mismatch
    /// (the result store treats that as a corrupt entry and recomputes).
    pub fn from_json(v: &JsonValue) -> Option<CycleBreakdown> {
        let rows = v.get("per_core")?.as_array()?;
        let mut per_core = Vec::with_capacity(rows.len());
        for row in rows {
            let cells = row.as_array()?;
            if cells.len() != CycleCategory::COUNT {
                return None;
            }
            let mut out = [0u64; CycleCategory::COUNT];
            for (slot, cell) in out.iter_mut().zip(cells) {
                *slot = cell.as_u64()?;
            }
            per_core.push(out);
        }
        Some(CycleBreakdown { per_core })
    }
}

/// What happened, for the event timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeEventKind {
    /// A transaction reached the log generator (`arg` = transaction id).
    TxBegin,
    /// A transaction committed (`arg` = transaction id).
    TxCommit,
    /// A log entry merged into an existing same-word entry (`arg` = log
    /// buffer occupancy after the merge).
    LogMerge,
    /// A log entry was dropped by log ignorance (`arg` = buffer occupancy).
    LogIgnore,
    /// A log-buffer overflow evicted a batch to PM (`arg` = batch size).
    LogOverflow,
    /// A pending in-place-update batch drained to PM (`arg` = words
    /// written).
    BufferDrain,
    /// A write was admitted to a WPQ (`arg` = admission stall cycles).
    WpqAdmit,
    /// Power failed (`arg` = durability events counted at the cut).
    Crash,
    /// Recovery completed (`arg` = recovery-time PM writes).
    Recovery,
}

impl ProbeEventKind {
    /// Every kind (golden-schema tests iterate this).
    pub const ALL: [ProbeEventKind; 9] = [
        ProbeEventKind::TxBegin,
        ProbeEventKind::TxCommit,
        ProbeEventKind::LogMerge,
        ProbeEventKind::LogIgnore,
        ProbeEventKind::LogOverflow,
        ProbeEventKind::BufferDrain,
        ProbeEventKind::WpqAdmit,
        ProbeEventKind::Crash,
        ProbeEventKind::Recovery,
    ];

    /// Stable snake_case name used in the JSONL `"kind"` field.
    pub fn name(self) -> &'static str {
        match self {
            ProbeEventKind::TxBegin => "tx_begin",
            ProbeEventKind::TxCommit => "tx_commit",
            ProbeEventKind::LogMerge => "log_merge",
            ProbeEventKind::LogIgnore => "log_ignore",
            ProbeEventKind::LogOverflow => "log_overflow",
            ProbeEventKind::BufferDrain => "buffer_drain",
            ProbeEventKind::WpqAdmit => "wpq_admit",
            ProbeEventKind::Crash => "crash",
            ProbeEventKind::Recovery => "recovery",
        }
    }
}

/// One timeline event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeEvent {
    /// Simulated cycle the event happened at.
    pub at: u64,
    /// Core the event belongs to (`None` for machine-level events such as
    /// WPQ admissions issued without a core context).
    pub core: Option<u32>,
    /// What happened.
    pub kind: ProbeEventKind,
    /// Kind-specific payload (see [`ProbeEventKind`]).
    pub arg: u64,
}

impl ProbeEvent {
    /// The event as one schema-versioned JSONL line (no trailing newline).
    /// Field set is fixed: `v`, `at`, `core` (integer or `null`), `kind`,
    /// `arg`.
    pub fn to_jsonl(&self) -> String {
        JsonValue::object()
            .field("v", TIMELINE_SCHEMA_VERSION)
            .field("at", JsonValue::Uint(self.at))
            .field(
                "core",
                match self.core {
                    Some(c) => JsonValue::Uint(c as u64),
                    None => JsonValue::Null,
                },
            )
            .field("kind", self.kind.name())
            .field("arg", self.arg)
            .build()
            .to_string()
    }
}

/// A probe attached to the simulated machine. Implementations must be
/// cheap enough to call on the hot path when enabled and are never called
/// when disabled (the [`ProbeHub`] gates every call).
pub trait Probe {
    /// `cycles` of core `core`'s clock advance belong to `cat`.
    fn stall(&mut self, core: usize, cat: CycleCategory, cycles: u64);

    /// A timeline event occurred.
    fn event(&mut self, event: ProbeEvent);

    /// Whether this probe wants [`Probe::event`] calls (lets emitters skip
    /// building event payloads entirely).
    fn wants_events(&self) -> bool {
        false
    }
}

/// Production probe #1: per-core, per-category cycle counters.
#[derive(Clone, Debug, Default)]
pub struct CycleAccountant {
    rows: Vec<[u64; CycleCategory::COUNT]>,
}

impl CycleAccountant {
    /// An accountant for `cores` cores, all counters zero.
    pub fn new(cores: usize) -> Self {
        CycleAccountant {
            rows: vec![[0; CycleCategory::COUNT]; cores],
        }
    }

    /// The finished attribution.
    pub fn breakdown(&self) -> CycleBreakdown {
        CycleBreakdown {
            per_core: self.rows.clone(),
        }
    }
}

impl Probe for CycleAccountant {
    fn stall(&mut self, core: usize, cat: CycleCategory, cycles: u64) {
        self.rows[core][cat.index()] += cycles;
    }

    fn event(&mut self, _event: ProbeEvent) {}
}

/// Production probe #2: a bounded ring buffer of timeline events, drained
/// as JSONL at run end. When the ring fills, the **oldest** events are
/// dropped (the interesting tail of a crash repro is the recent past) and
/// counted in [`JsonlTimeline::dropped`].
#[derive(Clone, Debug)]
pub struct JsonlTimeline {
    capacity: usize,
    events: VecDeque<ProbeEvent>,
    dropped: u64,
}

impl JsonlTimeline {
    /// A timeline holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "timeline capacity must be positive");
        JsonlTimeline {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            dropped: 0,
        }
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event was recorded (or all were dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the buffered events as JSONL lines, oldest first.
    pub fn drain_lines(&mut self) -> Vec<String> {
        self.events.drain(..).map(|e| e.to_jsonl()).collect()
    }
}

impl Probe for JsonlTimeline {
    fn stall(&mut self, _core: usize, _cat: CycleCategory, _cycles: u64) {}

    fn event(&mut self, event: ProbeEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    fn wants_events(&self) -> bool {
        true
    }
}

/// The machine-level phase a probe event falls into, derived purely from
/// the event-kind stream by a deterministic state machine
/// ([`SignatureRecorder`]). Phases contextualize coverage features: a
/// `log_overflow` *during a drain* is a different behaviour than one in
/// steady state, even though the event kind is identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemePhase {
    /// No transaction has begun yet (or the last one committed).
    Idle,
    /// At least one transaction is executing (between `tx_begin` and the
    /// next `tx_commit`).
    InTx,
    /// A buffer drain or log overflow is in progress (sticky until the
    /// next transaction boundary).
    Drain,
    /// Power has failed; the battery-backed flush is running.
    Crashed,
    /// The scheme's recovery has run (terminal for one crash plan; a
    /// double crash stays here).
    Recovery,
}

impl SchemePhase {
    /// Every phase, in index order.
    pub const ALL: [SchemePhase; 5] = [
        SchemePhase::Idle,
        SchemePhase::InTx,
        SchemePhase::Drain,
        SchemePhase::Crashed,
        SchemePhase::Recovery,
    ];

    /// Number of phases (one axis of the coverage-feature space).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name (corpus files and reports).
    pub fn name(self) -> &'static str {
        match self {
            SchemePhase::Idle => "idle",
            SchemePhase::InTx => "in_tx",
            SchemePhase::Drain => "drain",
            SchemePhase::Crashed => "crashed",
            SchemePhase::Recovery => "recovery",
        }
    }

    /// Index into the feature space.
    pub fn index(self) -> usize {
        match self {
            SchemePhase::Idle => 0,
            SchemePhase::InTx => 1,
            SchemePhase::Drain => 2,
            SchemePhase::Crashed => 3,
            SchemePhase::Recovery => 4,
        }
    }

    /// The phase after observing `kind` in this phase. Deterministic and
    /// total: the same event stream always walks the same phase sequence.
    pub fn step(self, kind: ProbeEventKind) -> SchemePhase {
        match kind {
            ProbeEventKind::Crash => SchemePhase::Crashed,
            ProbeEventKind::Recovery => SchemePhase::Recovery,
            _ if matches!(self, SchemePhase::Crashed | SchemePhase::Recovery) => self,
            ProbeEventKind::TxBegin => SchemePhase::InTx,
            ProbeEventKind::TxCommit => SchemePhase::Idle,
            ProbeEventKind::LogOverflow | ProbeEventKind::BufferDrain => SchemePhase::Drain,
            _ => self,
        }
    }
}

/// Index of an event kind on the coverage-feature axes.
fn kind_index(kind: ProbeEventKind) -> usize {
    ProbeEventKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("every kind is in ALL")
}

/// Number of distinct coverage features: `(previous kind or none) x kind
/// x phase`. The "none" previous-kind slot covers the first event of a
/// run.
pub const SIGNATURE_BITS: usize =
    (ProbeEventKind::ALL.len() + 1) * ProbeEventKind::ALL.len() * SchemePhase::COUNT;

/// Words in the signature bitset.
const SIG_WORDS: usize = SIGNATURE_BITS.div_ceil(64);

/// A coverage signature: the set of `(previous event kind, event kind,
/// scheme phase)` features observed in one run's probe-event stream, as a
/// fixed-size bitset. Two runs that exercise the same local event
/// orderings in the same phases have equal signatures; a run that hits a
/// novel ordering (say, a `log_overflow` while already draining, or a
/// `wpq_admit` after the crash) sets bits no prior run set — the
/// feedback signal the coverage-guided crash search keeps corpus entries
/// for.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    bits: [u64; SIG_WORDS],
}

impl Default for Signature {
    fn default() -> Self {
        Signature {
            bits: [0; SIG_WORDS],
        }
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({} bits, {})", self.count(), self.digest())
    }
}

impl Signature {
    /// An empty signature.
    pub fn new() -> Self {
        Signature::default()
    }

    /// Sets the feature bit for `(prev, kind, phase)`; `prev = None`
    /// marks the first event of a run.
    pub fn insert(
        &mut self,
        prev: Option<ProbeEventKind>,
        kind: ProbeEventKind,
        phase: SchemePhase,
    ) {
        let prev_idx = prev.map(|k| kind_index(k) + 1).unwrap_or(0);
        let idx = (prev_idx * ProbeEventKind::ALL.len() + kind_index(kind)) * SchemePhase::COUNT
            + phase.index();
        debug_assert!(idx < SIGNATURE_BITS);
        self.bits[idx / 64] |= 1 << (idx % 64);
    }

    /// Number of features observed.
    pub fn count(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no feature was observed.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Features in `self` that `other` does not have.
    pub fn new_bits(&self, other: &Signature) -> u32 {
        self.bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a & !b).count_ones())
            .sum()
    }

    /// Folds `other` into `self`, returning how many features were new.
    pub fn merge(&mut self, other: &Signature) -> u32 {
        let mut new = 0;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            new += (*b & !*a).count_ones();
            *a |= *b;
        }
        new
    }

    /// A stable 16-hex-digit digest of the bit pattern (FNV-1a 64 over
    /// the words). Equal signatures always produce equal digests, on any
    /// host.
    pub fn digest(&self) -> String {
        let mut h = Fnv1a::new();
        for &w in &self.bits {
            h.write_u64(w);
        }
        format!("{:016x}", h.finish())
    }
}

/// Observes the probe-event stream and accumulates a [`Signature`]:
/// tracks the previous event kind and the [`SchemePhase`] state machine,
/// setting one feature bit per event.
#[derive(Clone, Debug)]
pub struct SignatureRecorder {
    prev: Option<ProbeEventKind>,
    phase: SchemePhase,
    sig: Signature,
}

impl Default for SignatureRecorder {
    fn default() -> Self {
        SignatureRecorder {
            prev: None,
            phase: SchemePhase::Idle,
            sig: Signature::new(),
        }
    }
}

impl SignatureRecorder {
    /// Feeds one event kind through the phase machine and into the
    /// signature.
    pub fn observe(&mut self, kind: ProbeEventKind) {
        self.sig.insert(self.prev, kind, self.phase);
        self.phase = self.phase.step(kind);
        self.prev = Some(kind);
    }

    /// The accumulated signature.
    pub fn signature(&self) -> Signature {
        self.sig
    }
}

/// The probe socket every simulated machine carries. Holds the optional
/// production probes plus the engine's claim-window state; a default hub
/// is fully disabled and every hook is one `Option`/`bool` check.
#[derive(Clone, Debug, Default)]
pub struct ProbeHub {
    accountant: Option<CycleAccountant>,
    timeline: Option<JsonlTimeline>,
    signature: Option<SignatureRecorder>,
    claimed: u64,
}

impl ProbeHub {
    /// Attaches a [`CycleAccountant`] for `cores` cores.
    pub fn enable_accounting(&mut self, cores: usize) {
        self.accountant = Some(CycleAccountant::new(cores));
    }

    /// Attaches a [`JsonlTimeline`] with the given ring capacity.
    pub fn enable_timeline(&mut self, capacity: usize) {
        self.timeline = Some(JsonlTimeline::new(capacity));
    }

    /// Attaches a [`SignatureRecorder`] (coverage signature collection).
    pub fn enable_signature(&mut self) {
        self.signature = Some(SignatureRecorder::default());
    }

    /// Whether coverage-signature collection is on.
    pub fn signature_on(&self) -> bool {
        self.signature.is_some()
    }

    /// Detaches the signature recorder and returns its accumulated
    /// [`Signature`].
    pub fn take_signature(&mut self) -> Option<Signature> {
        self.signature.take().map(|r| r.signature())
    }

    /// Whether cycle accounting is on.
    pub fn accounting_on(&self) -> bool {
        self.accountant.is_some()
    }

    /// Whether the event timeline is on.
    pub fn events_on(&self) -> bool {
        self.timeline.is_some()
    }

    /// Charges `cycles` on `core` directly to `cat` (engine-advanced
    /// time: issue, cache latency, memory fills, writeback admission).
    pub fn charge(&mut self, core: usize, cat: CycleCategory, cycles: u64) {
        if cycles == 0 {
            return;
        }
        if let Some(acc) = &mut self.accountant {
            acc.stall(core, cat, cycles);
        }
    }

    /// Opens a claim window around a scheme hook: zeroes the claimed
    /// counter that [`ProbeHub::claim`] accumulates into.
    pub fn begin_claim_window(&mut self) {
        self.claimed = 0;
    }

    /// Scheme-side: claims `cycles` of the current hook's clock advance
    /// for `cat`. The engine charges the hook's unclaimed remainder to
    /// the hook's default category, so claimed cycles must be on the
    /// returned-clock path (never background work, which advances no
    /// core clock).
    pub fn claim(&mut self, core: usize, cat: CycleCategory, cycles: u64) {
        if self.accountant.is_none() || cycles == 0 {
            return;
        }
        self.claimed += cycles;
        self.charge(core, cat, cycles);
    }

    /// Engine-side: closes a claim window over a hook that advanced the
    /// core clock by `delta`, charging the unclaimed remainder to
    /// `default_cat`. Claims beyond `delta` are a scheme bug: caught by a
    /// debug assertion, saturated (never double-counted) in release.
    pub fn charge_window(&mut self, core: usize, default_cat: CycleCategory, delta: u64) {
        if self.accountant.is_none() {
            return;
        }
        debug_assert!(
            self.claimed <= delta,
            "scheme claimed {} cycles but the hook advanced only {delta}",
            self.claimed
        );
        let rest = delta.saturating_sub(self.claimed);
        self.claimed = 0;
        self.charge(core, default_cat, rest);
    }

    /// Records a timeline event (no-op unless the timeline or signature
    /// recorder is on).
    pub fn emit(&mut self, kind: ProbeEventKind, core: Option<u32>, at: u64, arg: u64) {
        if let Some(rec) = &mut self.signature {
            rec.observe(kind);
        }
        if let Some(tl) = &mut self.timeline {
            tl.event(ProbeEvent {
                at,
                core,
                kind,
                arg,
            });
        }
    }

    /// Detaches the accountant and returns its finished breakdown.
    pub fn take_breakdown(&mut self) -> Option<CycleBreakdown> {
        self.accountant.take().map(|a| a.breakdown())
    }

    /// Drains the timeline's buffered events as JSONL lines, returning
    /// `(lines, dropped)`. The timeline stays attached (subsequent events
    /// start a fresh ring).
    pub fn drain_timeline(&mut self) -> Option<(Vec<String>, u64)> {
        self.timeline
            .as_mut()
            .map(|tl| (tl.drain_lines(), tl.dropped()))
    }
}

impl Probe for ProbeHub {
    fn stall(&mut self, core: usize, cat: CycleCategory, cycles: u64) {
        self.claim(core, cat, cycles);
    }

    fn event(&mut self, event: ProbeEvent) {
        if let Some(rec) = &mut self.signature {
            rec.observe(event.kind);
        }
        if let Some(tl) = &mut self.timeline {
            tl.event(event);
        }
    }

    fn wants_events(&self) -> bool {
        self.events_on() || self.signature_on()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_are_closed_and_stable() {
        assert_eq!(CycleCategory::ALL.len(), CycleCategory::COUNT);
        for (i, cat) in CycleCategory::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i, "{} out of order", cat.name());
        }
        let mut names: Vec<&str> = CycleCategory::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CycleCategory::COUNT, "names must be unique");
    }

    #[test]
    fn breakdown_totals_agree() {
        let mut acc = CycleAccountant::new(2);
        acc.stall(0, CycleCategory::Execute, 10);
        acc.stall(0, CycleCategory::Drain, 5);
        acc.stall(1, CycleCategory::Execute, 7);
        let b = acc.breakdown();
        assert_eq!(b.core_total(0), 15);
        assert_eq!(b.core_total(1), 7);
        assert_eq!(b.category_total(CycleCategory::Execute), 17);
        assert_eq!(b.total(), 22);
    }

    #[test]
    fn breakdown_json_has_categories_rows_and_totals() {
        let mut acc = CycleAccountant::new(1);
        acc.stall(0, CycleCategory::WpqFull, 3);
        let v = JsonValue::parse(&acc.breakdown().to_json().to_string()).expect("valid JSON");
        let cats = v
            .get("categories")
            .and_then(JsonValue::as_array)
            .expect("categories");
        assert_eq!(cats.len(), CycleCategory::COUNT);
        assert_eq!(
            v.get("per_core")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(1)
        );
        let totals = v.get("totals").expect("totals");
        assert_eq!(
            totals.get("wpq_full").and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(totals.get("total").and_then(JsonValue::as_f64), Some(3.0));
    }

    #[test]
    fn claim_window_attributes_remainder_to_default() {
        let mut hub = ProbeHub::default();
        hub.enable_accounting(1);
        hub.begin_claim_window();
        hub.claim(0, CycleCategory::Drain, 12);
        hub.charge_window(0, CycleCategory::CommitStall, 40);
        let b = hub.take_breakdown().expect("enabled");
        assert_eq!(b.per_core[0][CycleCategory::Drain.index()], 12);
        assert_eq!(b.per_core[0][CycleCategory::CommitStall.index()], 28);
        assert_eq!(b.core_total(0), 40);
    }

    #[test]
    fn consecutive_windows_do_not_leak_claims() {
        let mut hub = ProbeHub::default();
        hub.enable_accounting(1);
        hub.begin_claim_window();
        hub.claim(0, CycleCategory::Drain, 5);
        hub.charge_window(0, CycleCategory::CommitStall, 5);
        hub.begin_claim_window();
        hub.charge_window(0, CycleCategory::LogBufferFull, 9);
        let b = hub.take_breakdown().expect("enabled");
        assert_eq!(b.per_core[0][CycleCategory::LogBufferFull.index()], 9);
        assert_eq!(b.core_total(0), 14);
    }

    #[test]
    fn disabled_hub_is_inert() {
        let mut hub = ProbeHub::default();
        assert!(!hub.accounting_on() && !hub.events_on() && !hub.signature_on());
        assert!(!hub.wants_events());
        hub.charge(0, CycleCategory::Execute, 100);
        hub.claim(0, CycleCategory::Drain, 100);
        hub.charge_window(0, CycleCategory::Execute, 100);
        hub.emit(ProbeEventKind::TxBegin, Some(0), 1, 1);
        assert_eq!(hub.take_breakdown(), None);
        assert!(hub.drain_timeline().is_none());
        assert!(hub.take_signature().is_none());
    }

    #[test]
    fn phase_machine_walks_expected_states() {
        use ProbeEventKind as K;
        use SchemePhase as P;
        let mut p = P::Idle;
        for (kind, expect) in [
            (K::TxBegin, P::InTx),
            (K::LogMerge, P::InTx),
            (K::LogOverflow, P::Drain),
            (K::TxCommit, P::Idle),
            (K::BufferDrain, P::Drain),
            (K::Crash, P::Crashed),
            (K::WpqAdmit, P::Crashed), // sticky after the crash
            (K::Recovery, P::Recovery),
            (K::TxBegin, P::Recovery), // sticky after recovery
        ] {
            p = p.step(kind);
            assert_eq!(p, expect, "after {}", kind.name());
        }
    }

    #[test]
    fn signature_features_are_distinct_and_deterministic() {
        let mut a = SignatureRecorder::default();
        let mut b = SignatureRecorder::default();
        let stream = [
            ProbeEventKind::TxBegin,
            ProbeEventKind::LogOverflow,
            ProbeEventKind::LogOverflow, // overflow-during-drain: new feature
            ProbeEventKind::TxCommit,
            ProbeEventKind::Crash,
        ];
        for k in stream {
            a.observe(k);
            b.observe(k);
        }
        let sa = a.signature();
        assert_eq!(sa, b.signature(), "same stream, same signature");
        assert_eq!(sa.digest(), b.signature().digest());
        assert_eq!(sa.count(), 5, "five distinct (prev, kind, phase) features");
        // A different ordering sets different bits.
        let mut c = SignatureRecorder::default();
        for k in [ProbeEventKind::LogOverflow, ProbeEventKind::TxBegin] {
            c.observe(k);
        }
        assert!(c.signature().new_bits(&sa) > 0);
    }

    #[test]
    fn signature_merge_reports_new_bits_once() {
        let mut base = Signature::new();
        let mut one = SignatureRecorder::default();
        one.observe(ProbeEventKind::TxBegin);
        one.observe(ProbeEventKind::TxCommit);
        assert_eq!(base.merge(&one.signature()), 2);
        assert_eq!(base.merge(&one.signature()), 0, "already covered");
        assert_eq!(base.count(), 2);
        assert!(!base.is_empty());
        assert!(Signature::new().is_empty());
    }

    #[test]
    fn hub_signature_observes_both_event_paths() {
        let mut hub = ProbeHub::default();
        hub.enable_signature();
        assert!(
            hub.wants_events(),
            "signature-only hubs must receive Probe::event calls"
        );
        assert!(!hub.events_on(), "timeline stays off");
        hub.emit(ProbeEventKind::TxBegin, Some(0), 1, 1);
        hub.event(ProbeEvent {
            at: 2,
            core: None,
            kind: ProbeEventKind::WpqAdmit,
            arg: 0,
        });
        let sig = hub.take_signature().expect("recorder attached");
        assert_eq!(sig.count(), 2);
        assert!(hub.take_signature().is_none(), "recorder detached");
    }

    #[test]
    fn timeline_ring_drops_oldest_and_counts() {
        let mut tl = JsonlTimeline::new(2);
        for i in 0..5u64 {
            tl.event(ProbeEvent {
                at: i,
                core: None,
                kind: ProbeEventKind::WpqAdmit,
                arg: i,
            });
        }
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.dropped(), 3);
        let lines = tl.drain_lines();
        assert!(tl.is_empty());
        assert!(
            lines[0].contains("\"arg\":3"),
            "oldest kept is #3: {lines:?}"
        );
        assert!(lines[1].contains("\"arg\":4"));
    }

    #[test]
    fn jsonl_line_schema_is_fixed() {
        let e = ProbeEvent {
            at: 42,
            core: Some(3),
            kind: ProbeEventKind::TxCommit,
            arg: 7,
        };
        let line = e.to_jsonl();
        let v = JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(v.get("v").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(v.get("at").and_then(JsonValue::as_f64), Some(42.0));
        assert_eq!(v.get("core").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(v.get("kind").and_then(JsonValue::as_str), Some("tx_commit"));
        assert_eq!(v.get("arg").and_then(JsonValue::as_f64), Some(7.0));
        // Core-less events serialize core as null, same field set.
        let machine_level = ProbeEvent { core: None, ..e }.to_jsonl();
        assert!(machine_level.contains("\"core\":null"), "{machine_level}");
    }

    #[test]
    fn event_kind_names_are_unique() {
        let mut names: Vec<&str> = ProbeEventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProbeEventKind::ALL.len());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_timeline_rejected() {
        let _ = JsonlTimeline::new(0);
    }
}
