//! The simulated machine: caches + memory controller + PM + architectural
//! state.

use std::sync::Arc;

use silo_cache::{CacheHierarchy, CacheHierarchyState};
use silo_memctrl::{Admission, MemCtrl};
use silo_pm::PmDevice;
use silo_probe::ProbeHub;
use silo_types::{Cycles, LineAddr, PhysAddr, Word, WordImage, LINE_BYTES, WORD_BYTES};

use crate::SimConfig;

/// The architectural (CPU-visible) memory image.
///
/// With write-back caches, persistent memory lags the program's view of
/// memory; the shadow tracks the program's view at word granularity in a
/// paged [`WordImage`]. Words never written fall through to the PM device's
/// logical contents, staged on-PM buffer bytes included. A store is one
/// page lookup, and so is the written part of a
/// [`line_image`](Self::line_image); its unwritten words come from one
/// 64 B read-through of the device. Cloning the shadow (every machine
/// checkpoint) copies its page table and shares the pages copy-on-write.
/// At a power failure the shadow is discarded together with the caches —
/// the machine's surviving state is exactly the PM device.
///
/// # Examples
///
/// ```
/// use silo_sim::ShadowMem;
/// use silo_types::{PhysAddr, Word};
/// use silo_pm::{PmDevice, PmDeviceConfig};
///
/// let pm = PmDevice::new(PmDeviceConfig::default());
/// let mut shadow = ShadowMem::default();
/// shadow.store(PhysAddr::new(8), Word::new(5));
/// assert_eq!(shadow.load(PhysAddr::new(8), &pm), Word::new(5));
/// assert_eq!(shadow.load(PhysAddr::new(16), &pm), Word::ZERO); // falls through
/// assert_eq!(shadow.replace(PhysAddr::new(8), Word::new(6), &pm), Word::new(5));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ShadowMem {
    words: WordImage,
}

impl ShadowMem {
    /// Records a store (architectural update; instant).
    pub fn store(&mut self, addr: PhysAddr, value: Word) {
        self.words.insert(addr, value);
    }

    /// Records a store and returns the architectural value it overwrote —
    /// the engine's per-store path, one page lookup.
    pub fn replace(&mut self, addr: PhysAddr, value: Word, pm: &PmDevice) -> Word {
        self.words
            .insert(addr, value)
            .unwrap_or_else(|| pm.peek_word(addr.word_aligned()))
    }

    /// The architectural value of the word at `addr`.
    pub fn load(&self, addr: PhysAddr, pm: &PmDevice) -> Word {
        self.words
            .get(addr)
            .unwrap_or_else(|| pm.peek_word(addr.word_aligned()))
    }

    /// The architectural image of a full cacheline (what a dirty eviction
    /// or an explicit line flush writes to PM).
    pub fn line_image(&self, line: LineAddr, pm: &PmDevice) -> [u8; LINE_BYTES] {
        let (words, written) = self.words.line(line);
        let mut out = [0u8; LINE_BYTES];
        if written != u8::MAX {
            pm.peek_into(line.base(), &mut out);
        }
        for (i, w) in words.iter().enumerate() {
            if written >> i & 1 != 0 {
                out[i * WORD_BYTES..(i + 1) * WORD_BYTES].copy_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Discards all volatile architectural state (power failure).
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Number of words currently tracked.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no word has been stored.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// The full simulated machine shared by the engine and the logging scheme.
///
/// Logging schemes receive `&mut Machine` in every hook and issue their PM
/// traffic through [`Machine::pm_write_coalesced`] (Silo's path through the
/// on-PM buffer) or [`Machine::pm_write_through`] (the baselines' direct
/// path), both of which charge the memory controller consistently with the
/// media work performed.
#[derive(Debug)]
pub struct Machine {
    /// The simulation configuration.
    pub config: SimConfig,
    /// The PM DIMM.
    pub pm: PmDevice,
    /// The cache hierarchy.
    pub caches: CacheHierarchy,
    /// The memory controllers (paper §III-D: each serves the whole
    /// memory). Demand traffic interleaves by cacheline; schemes with MC
    /// affinity route through [`Machine::home_mc`].
    pub mcs: Vec<MemCtrl>,
    /// The architectural memory image.
    pub shadow: ShadowMem,
    /// Observability hub (cycle accounting + event timeline). Disabled by
    /// default; when off every probe call is a cheap discriminant check.
    pub probe: ProbeHub,
}

impl Machine {
    /// Builds an idle machine from a configuration.
    pub fn new(config: &SimConfig) -> Self {
        assert!(config.num_mcs > 0, "need at least one memory controller");
        Machine {
            pm: PmDevice::new(config.pm_device_config()),
            caches: CacheHierarchy::new(config.hierarchy),
            mcs: (0..config.num_mcs)
                .map(|_| MemCtrl::new(config.memctrl))
                .collect(),
            shadow: ShadowMem::default(),
            probe: ProbeHub::default(),
            config: config.clone(),
        }
    }

    /// Returns the machine to the idle state [`Machine::new`] builds from
    /// its configuration, observably equal to a new one: fresh PM device
    /// and memory controllers, no cached line, an empty shadow, every
    /// probe off. The cache levels keep their slabs and drop their lines
    /// with one epoch bump each, which is what makes a reset cheaper than
    /// a new machine: a crash cell runs hundreds of engines on one
    /// ([`Engine::on`](crate::Engine::on)). A `config` changed since the
    /// last reset takes effect here: the cache levels of another geometry
    /// are rebuilt ([`CacheHierarchy::reset_to`]) and the controllers
    /// recounted, so one machine serves cells of any configuration in
    /// turn.
    ///
    /// # Panics
    ///
    /// Panics if `config` has no memory controller.
    pub fn reset(&mut self) {
        assert!(
            self.config.num_mcs > 0,
            "need at least one memory controller"
        );
        self.pm = PmDevice::new(self.config.pm_device_config());
        self.caches.reset_to(self.config.hierarchy);
        self.mcs.clear();
        self.mcs
            .resize_with(self.config.num_mcs, || MemCtrl::new(self.config.memctrl));
        self.shadow.clear();
        self.probe = ProbeHub::default();
    }

    /// The MC demand traffic for `addr` interleaves to (by cacheline).
    pub fn mc_for_addr(&self, addr: PhysAddr) -> usize {
        (addr.line_index() % self.mcs.len() as u64) as usize
    }

    /// The home MC of `core`: the controller whose log controller handles
    /// all of that core's transactions (paper §III-D, "the log generator
    /// sends the logs from the same transaction to the same MC").
    pub fn home_mc(&self, core: silo_types::CoreId) -> usize {
        core.as_usize() % self.mcs.len()
    }

    /// Convenience accessor for the single-MC common case and for
    /// aggregate statistics.
    pub fn mc_stats_total(&self) -> silo_memctrl::MemCtrlStats {
        self.mcs
            .iter()
            .map(|m| m.stats())
            .fold(silo_memctrl::MemCtrlStats::default(), |a, b| a + b)
    }

    /// Issues a persistent write through the on-PM coalescing buffer
    /// (§III-E) via the address-interleaved MC and charges it for any
    /// fresh buffer lines it filled.
    pub fn pm_write_coalesced(&mut self, now: Cycles, addr: PhysAddr, bytes: &[u8]) -> Admission {
        let mc = self.mc_for_addr(addr);
        self.pm_write_coalesced_via(mc, now, addr, bytes)
    }

    /// Coalesced write through an explicit MC (a scheme's home controller).
    pub fn pm_write_coalesced_via(
        &mut self,
        mc: usize,
        now: Cycles,
        addr: PhysAddr,
        bytes: &[u8],
    ) -> Admission {
        self.pm.note_event(silo_pm::EventKind::WpqAdmit);
        let fills_before = self.pm.stats().buffer_fills;
        self.pm.write(addr, bytes);
        let fills = self.pm.stats().buffer_fills - fills_before;
        self.mcs[mc].enqueue_write_probed(now, bytes.len() as u64, fills, &mut self.probe)
    }

    /// Issues a persistent write that bypasses the coalescing buffer (the
    /// baseline path) via the address-interleaved MC.
    pub fn pm_write_through(&mut self, now: Cycles, addr: PhysAddr, bytes: &[u8]) -> Admission {
        let mc = self.mc_for_addr(addr);
        self.pm_write_through_via(mc, now, addr, bytes)
    }

    /// Write-through via an explicit MC.
    pub fn pm_write_through_via(
        &mut self,
        mc: usize,
        now: Cycles,
        addr: PhysAddr,
        bytes: &[u8],
    ) -> Admission {
        self.pm.note_event(silo_pm::EventKind::WpqAdmit);
        let programs = self.pm.write_through(addr, bytes);
        self.mcs[mc].enqueue_write_probed(now, bytes.len() as u64, programs, &mut self.probe)
    }

    /// Issues a PM read at `now` via the address-interleaved MC; returns
    /// its completion time.
    pub fn pm_read_at(&mut self, now: Cycles, addr: PhysAddr) -> Cycles {
        let mc = self.mc_for_addr(addr);
        self.pm_read_via(mc, now)
    }

    /// Issues a PM read at `now` via an explicit controller — the path for
    /// scheme code with no demand address at hand (log-region scans,
    /// commit-time metadata reads), which must name its core's
    /// [`Machine::home_mc`] instead of silently serializing on MC 0.
    pub fn pm_read_via(&mut self, mc: usize, now: Cycles) -> Cycles {
        self.mcs[mc].read(now)
    }

    /// The architectural bytes of `line` (helper over the shadow).
    pub fn line_image(&self, line: LineAddr) -> [u8; LINE_BYTES] {
        self.shadow.line_image(line, &self.pm)
    }

    /// Writes a cacheline's architectural image to PM via the path selected
    /// by `coalesced`.
    pub fn writeback_line(&mut self, now: Cycles, line: LineAddr, coalesced: bool) -> Admission {
        let image = self.line_image(line);
        if coalesced {
            self.pm_write_coalesced(now, line.base(), &image)
        } else {
            self.pm_write_through(now, line.base(), &image)
        }
    }
}

/// Captured state of a whole [`Machine`] minus its immutable `config`:
/// clones of the PM DIMM (its media pages are Arc-COW, so this is
/// near-free), the memory controllers, the shadow memory (Arc-COW pages
/// too) and the probe hub (cycle accounting must resume mid-total), and
/// the cache hierarchy's sparse per-level copy, which a restore only
/// reads, so the state's clones share it.
#[derive(Clone, Debug)]
pub struct MachineState {
    pm: PmDevice,
    caches: Arc<CacheHierarchyState>,
    mcs: Vec<MemCtrl>,
    shadow: ShadowMem,
    probe: ProbeHub,
}

impl Machine {
    /// Captures the machine's complete state but its `config`, for a later
    /// [`restore`](Self::restore).
    pub fn snapshot(&self) -> MachineState {
        MachineState {
            pm: self.pm.clone(),
            caches: Arc::new(self.caches.snapshot()),
            mcs: self.mcs.clone(),
            shadow: self.shadow.clone(),
            probe: self.probe.clone(),
        }
    }

    /// Restores exactly the captured state, whatever the machine held
    /// before: afterwards it behaves as the captured machine would, same
    /// counters and same subsequent event stream. A crash cell restores
    /// checkpoints into machines that earlier runs of the cell used.
    pub fn restore(&mut self, state: &MachineState) {
        assert_eq!(
            self.mcs.len(),
            state.mcs.len(),
            "machine snapshot restored into a different MC count"
        );
        self.pm.clone_from(&state.pm);
        self.caches.restore(&state.caches);
        self.mcs.clone_from(&state.mcs);
        self.shadow.clone_from(&state.shadow);
        self.probe.clone_from(&state.probe);
    }

    /// [`restore`](Self::restore) for a state restored exactly once: the
    /// captured components move in instead of being copied, so none of
    /// them stays shared with the capture.
    pub(crate) fn restore_owned(&mut self, state: MachineState) {
        assert_eq!(
            self.mcs.len(),
            state.mcs.len(),
            "machine snapshot restored into a different MC count"
        );
        self.caches.restore(&state.caches);
        self.pm = state.pm;
        self.mcs = state.mcs;
        self.shadow = state.shadow;
        self.probe = state.probe;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(&SimConfig::table_ii(2))
    }

    #[test]
    fn shadow_overrides_pm() {
        let mut m = machine();
        m.pm.write_word(PhysAddr::new(0), Word::new(1));
        assert_eq!(m.shadow.load(PhysAddr::new(0), &m.pm), Word::new(1));
        m.shadow.store(PhysAddr::new(0), Word::new(2));
        assert_eq!(m.shadow.load(PhysAddr::new(0), &m.pm), Word::new(2));
        assert_eq!(m.pm.peek_word(PhysAddr::new(0)), Word::new(1), "PM lags");
    }

    #[test]
    fn line_image_mixes_shadow_and_pm() {
        let mut m = machine();
        m.pm.write_word(PhysAddr::new(64), Word::new(0xAA));
        m.shadow.store(PhysAddr::new(72), Word::new(0xBB));
        let img = m.line_image(LineAddr::containing(PhysAddr::new(64)));
        assert_eq!(u64::from_le_bytes(img[0..8].try_into().unwrap()), 0xAA);
        assert_eq!(u64::from_le_bytes(img[8..16].try_into().unwrap()), 0xBB);
        assert_eq!(u64::from_le_bytes(img[16..24].try_into().unwrap()), 0);
    }

    #[test]
    fn shadow_clear_models_power_loss() {
        let mut m = machine();
        m.shadow.store(PhysAddr::new(0), Word::new(9));
        m.shadow.clear();
        assert!(m.shadow.is_empty());
        assert_eq!(m.shadow.load(PhysAddr::new(0), &m.pm), Word::ZERO);
    }

    #[test]
    fn coalesced_writes_charge_fills_only() {
        let mut m = machine();
        let a1 = m.pm_write_coalesced(Cycles::ZERO, PhysAddr::new(0), &[1u8; 8]);
        // Second word in the same buffer line: zero fresh fills, bus only.
        let a2 = m.pm_write_coalesced(a1.admit, PhysAddr::new(8), &[2u8; 8]);
        let bus_only = m.config.memctrl.service_cycles(8, 0);
        assert!(a2.complete - a1.complete <= Cycles::new(bus_only));
    }

    #[test]
    fn write_through_charges_media_programs() {
        let mut m = machine();
        let a = m.pm_write_through(Cycles::ZERO, PhysAddr::new(0), &[1u8; 64]);
        let expected = m.config.memctrl.service_cycles(64, 1);
        assert_eq!(a.complete.as_u64(), expected);
    }

    #[test]
    fn writeback_line_uses_architectural_image() {
        let mut m = machine();
        m.shadow.store(PhysAddr::new(128), Word::new(42));
        m.writeback_line(Cycles::ZERO, LineAddr::containing(PhysAddr::new(128)), true);
        m.pm.flush_all();
        assert_eq!(m.pm.peek_word(PhysAddr::new(128)), Word::new(42));
    }

    #[test]
    fn multi_mc_routing_interleaves_and_homes() {
        let mut cfg = SimConfig::table_ii(4);
        cfg.num_mcs = 2;
        let m = Machine::new(&cfg);
        assert_eq!(m.mcs.len(), 2);
        // Cachelines interleave across controllers...
        assert_eq!(m.mc_for_addr(PhysAddr::new(0)), 0);
        assert_eq!(m.mc_for_addr(PhysAddr::new(64)), 1);
        assert_eq!(m.mc_for_addr(PhysAddr::new(128)), 0);
        // ...while each core has a fixed home controller.
        assert_eq!(m.home_mc(silo_types::CoreId::new(0)), 0);
        assert_eq!(m.home_mc(silo_types::CoreId::new(1)), 1);
        assert_eq!(m.home_mc(silo_types::CoreId::new(2)), 0);
    }

    #[test]
    fn address_less_reads_route_via_explicit_mc() {
        let mut cfg = SimConfig::table_ii(2);
        cfg.num_mcs = 2;
        let mut m = Machine::new(&cfg);
        let home = m.home_mc(silo_types::CoreId::new(1));
        assert_eq!(home, 1);
        m.pm_read_via(home, Cycles::ZERO);
        assert_eq!(
            m.mcs[0].stats().reads,
            0,
            "MC 0 must not absorb core 1's reads"
        );
        assert_eq!(m.mcs[1].stats().reads, 1);
        // The addressed path picks the interleaved controller.
        m.pm_read_at(Cycles::ZERO, PhysAddr::new(64));
        assert_eq!(m.mcs[1].stats().reads, 2);
    }

    #[test]
    fn mc_stats_total_sums_controllers() {
        let mut cfg = SimConfig::table_ii(1);
        cfg.num_mcs = 2;
        let mut m = Machine::new(&cfg);
        m.pm_write_through_via(0, Cycles::ZERO, PhysAddr::new(0), &[1u8; 8]);
        m.pm_write_through_via(1, Cycles::ZERO, PhysAddr::new(64), &[1u8; 8]);
        m.pm_write_through_via(1, Cycles::ZERO, PhysAddr::new(128), &[1u8; 8]);
        let total = m.mc_stats_total();
        assert_eq!(total.writes, 3);
        assert_eq!(m.mcs[0].stats().writes, 1);
        assert_eq!(m.mcs[1].stats().writes, 2);
    }

    #[test]
    #[should_panic(expected = "at least one memory controller")]
    fn zero_mcs_rejected() {
        let mut cfg = SimConfig::table_ii(1);
        cfg.num_mcs = 0;
        let _ = Machine::new(&cfg);
    }

    #[test]
    fn a_reset_machine_is_idle_again() {
        let mut m = machine();
        m.shadow.store(PhysAddr::new(128), Word::new(42));
        m.writeback_line(Cycles::ZERO, LineAddr::containing(PhysAddr::new(128)), true);
        m.caches
            .access(silo_types::CoreId::new(1), PhysAddr::new(64).line(), true);
        m.probe.enable_signature();
        m.reset();
        assert!(m.shadow.is_empty());
        assert_eq!(m.pm.peek_word(PhysAddr::new(128)), Word::ZERO);
        assert_eq!(m.pm.stats().accepted_writes, 0);
        assert_eq!(m.pm.events().total(), 0);
        assert_eq!(m.mc_stats_total().writes, 0);
        assert_eq!(m.caches.stats().l1, (0, 0));
        assert!(m.caches.all_dirty_lines().is_empty());
        assert!(!m.probe.signature_on());
        // The next write is admitted as on an idle controller.
        let a = m.pm_write_through(Cycles::ZERO, PhysAddr::new(0), &[1u8; 64]);
        assert_eq!(a.complete.as_u64(), m.config.memctrl.service_cycles(64, 1));
    }

    #[test]
    fn a_machine_reset_after_a_config_change_runs_like_a_new_one() {
        use crate::{schemes::NullScheme, Engine, Transaction};
        let mut tiny = SimConfig::table_ii(2);
        tiny.hierarchy.l1 = silo_cache::CacheConfig::new(2 * 1024, 2);
        tiny.hierarchy.l2 = silo_cache::CacheConfig::new(4 * 1024, 2);
        tiny.hierarchy.l3 = silo_cache::CacheConfig::new(8 * 1024, 4);
        tiny.num_mcs = 2;
        let streams = |cores: usize| -> Vec<Vec<Transaction>> {
            (0..cores as u64)
                .map(|c| {
                    (0..6u64)
                        .map(|t| {
                            let mut tx = Transaction::builder();
                            for w in 0..40u64 {
                                let addr = PhysAddr::new((c << 20) + (t * 40 + w) * 136 % 65536);
                                tx = tx.write(addr.word_aligned(), Word::new(t * 100 + w + 1));
                            }
                            tx.read(PhysAddr::new(c << 20)).build()
                        })
                        .collect()
                })
                .collect()
        };
        let mut reused = Machine::new(&SimConfig::table_ii(4));
        for config in [
            tiny.clone(),
            SimConfig::table_ii(1),
            tiny,
            SimConfig::table_ii(8),
        ] {
            let (mut a, mut b) = (NullScheme::default(), NullScheme::default());
            reused.config.clone_from(&config);
            let on_reused = Engine::on(&mut reused, &mut a).run(streams(config.cores), None);
            let on_new = Engine::new(&config, &mut b).run(streams(config.cores), None);
            assert_eq!(on_reused.stats.to_json(), on_new.stats.to_json());
            assert_eq!(reused.mcs.len(), config.num_mcs);
            assert_eq!(reused.caches.config(), &config.hierarchy);
        }
    }

    #[test]
    fn machine_components_start_idle() {
        let m = machine();
        assert_eq!(m.pm.stats().accepted_writes, 0);
        assert_eq!(m.mc_stats_total().writes, 0);
        assert_eq!(m.caches.stats().l1, (0, 0));
    }
}
