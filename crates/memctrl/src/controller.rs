//! The write pending queue and its service model.

use std::collections::VecDeque;

use silo_types::Cycles;

/// Configuration of the memory controller and PM timing.
///
/// # Examples
///
/// ```
/// use silo_memctrl::MemCtrlConfig;
///
/// let cfg = MemCtrlConfig::table_ii();
/// assert_eq!(cfg.wpq_entries, 64);
/// assert_eq!(cfg.read_cycles, 100);   // 50 ns at 2 GHz
/// assert_eq!(cfg.media_write_cycles, 300); // 150 ns at 2 GHz
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemCtrlConfig {
    /// WPQ capacity (Table II: 64 entries, ADR domain).
    pub wpq_entries: usize,
    /// Fixed command overhead charged to every accepted request (0 with
    /// posted writes: command and data phases overlap on DDR-T-style
    /// buses, so an 8 B word write costs exactly one data beat — the
    /// paper's "without wasting the bus width", §III-E).
    pub transfer_cycles: u64,
    /// Data-bus bandwidth in bytes per cycle: the paper's 64-bit
    /// processor-memory bus moves 8 B per beat (§III-E, "a word is 8B,
    /// which matches the 64-bit width of the processor-memory bus"), so an
    /// 8 B new-data write occupies one beat while a 64 B line takes eight.
    pub bus_bytes_per_cycle: u64,
    /// One media line program (Table II: 150 ns = 300 cycles).
    pub media_write_cycles: u64,
    /// Bank-level parallelism of the PCM media; line programs across banks
    /// overlap, so the effective per-line service is
    /// `media_write_cycles / banks`.
    pub banks: u64,
    /// PM read latency (Table II: 50 ns = 100 cycles), served with FR-FCFS
    /// read priority.
    pub read_cycles: u64,
}

impl MemCtrlConfig {
    /// The paper Table II configuration. The bank count is not given in the
    /// paper; 16 matches typical PCM DIMM organizations in the NVMain
    /// literature and is the workspace-wide default.
    pub fn table_ii() -> Self {
        MemCtrlConfig {
            wpq_entries: 64,
            transfer_cycles: 0,
            bus_bytes_per_cycle: 8,
            media_write_cycles: Cycles::from_ns(150.0).as_u64(),
            banks: 16,
            read_cycles: Cycles::from_ns(50.0).as_u64(),
        }
    }

    /// Effective service cycles for a request of `bytes` payload that
    /// fills `new_lines` fresh on-PM buffer lines: command overhead + bus
    /// beats + amortized media programs.
    pub fn service_cycles(&self, bytes: u64, new_lines: u64) -> u64 {
        self.transfer_cycles
            + bytes.div_ceil(self.bus_bytes_per_cycle)
            + new_lines * self.media_write_cycles / self.banks
    }
}

impl Default for MemCtrlConfig {
    fn default() -> Self {
        MemCtrlConfig::table_ii()
    }
}

/// The outcome of enqueuing one persistent write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// When the request entered the WPQ — the **persistence point** under
    /// ADR. Ordering-constrained schemes stall the core until this time.
    pub admit: Cycles,
    /// `admit - now`: how long the producer waited for a WPQ slot.
    pub stall: Cycles,
    /// When the media finished servicing the request (frees the WPQ slot).
    pub complete: Cycles,
}

/// Counters exposed by [`MemCtrl::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCtrlStats {
    /// Writes admitted to the WPQ.
    pub writes: u64,
    /// Reads served.
    pub reads: u64,
    /// Total producer stall cycles waiting for WPQ slots.
    pub stall_cycles: u64,
    /// Total service cycles consumed (utilization numerator).
    pub busy_cycles: u64,
    /// High-water mark of WPQ occupancy.
    pub max_occupancy: usize,
}

impl MemCtrlStats {
    /// The counters as a JSON object (experiment reports).
    pub fn to_json(&self) -> silo_types::JsonValue {
        silo_types::JsonValue::object()
            .field("writes", self.writes)
            .field("reads", self.reads)
            .field("stall_cycles", self.stall_cycles)
            .field("busy_cycles", self.busy_cycles)
            .field("max_occupancy", self.max_occupancy)
            .build()
    }

    /// Rebuilds a snapshot from its [`MemCtrlStats::to_json`] form. `None`
    /// if any counter is missing or not an exact integer (the result store
    /// treats that as a corrupt entry and recomputes).
    pub fn from_json(v: &silo_types::JsonValue) -> Option<MemCtrlStats> {
        let u = |key: &str| v.get(key).and_then(silo_types::JsonValue::as_u64);
        Some(MemCtrlStats {
            writes: u("writes")?,
            reads: u("reads")?,
            stall_cycles: u("stall_cycles")?,
            busy_cycles: u("busy_cycles")?,
            max_occupancy: usize::try_from(u("max_occupancy")?).ok()?,
        })
    }
}

/// The memory controller: a 64-entry ADR write pending queue drained by a
/// single FIFO server at the media's aggregate bandwidth.
///
/// Callers interact with simulated time explicitly: every operation takes
/// `now` (the caller's core-local clock) and returns the timing outcome.
/// Calls must be made in non-decreasing global time order per controller —
/// the multicore engine guarantees this by always advancing the
/// earliest-time core.
///
/// # Examples
///
/// ```
/// use silo_memctrl::{MemCtrl, MemCtrlConfig};
/// use silo_types::Cycles;
///
/// let mut mc = MemCtrl::new(MemCtrlConfig::table_ii());
/// // A read costs the constant device latency.
/// assert_eq!(mc.read(Cycles::new(10)), Cycles::new(110));
/// ```
#[derive(Clone, Debug)]
pub struct MemCtrl {
    config: MemCtrlConfig,
    /// Completion times of in-flight (admitted, unserviced) writes, in
    /// admission order; monotone because the server is FIFO.
    completions: VecDeque<u64>,
    server_free: u64,
    stats: MemCtrlStats,
}

impl MemCtrl {
    /// Creates an idle controller.
    pub fn new(config: MemCtrlConfig) -> Self {
        assert!(config.wpq_entries > 0, "WPQ needs at least one entry");
        assert!(config.banks > 0, "need at least one bank");
        MemCtrl {
            config,
            completions: VecDeque::new(),
            server_free: 0,
            stats: MemCtrlStats::default(),
        }
    }

    /// Admits a persistent write of `bytes` payload at local time `now`.
    /// `new_buffer_lines` is how many fresh on-PM buffer lines the write
    /// filled (reported by [`silo_pm::PmStats::buffer_fills`] deltas);
    /// coalesced writes pass 0 and cost only the bus occupancy.
    pub fn enqueue_write(&mut self, now: Cycles, bytes: u64, new_buffer_lines: u64) -> Admission {
        self.retire(now);
        let t = now.as_u64();
        // WPQ admission: if full, wait until enough older writes retire
        // that an empty slot exists at admission time.
        let admit = if self.completions.len() >= self.config.wpq_entries {
            let idx = self.completions.len() - self.config.wpq_entries;
            self.completions[idx].max(t)
        } else {
            t
        };
        let service = self.config.service_cycles(bytes, new_buffer_lines);
        let start = admit.max(self.server_free);
        let complete = start + service;
        self.server_free = complete;
        self.completions.push_back(complete);

        self.stats.writes += 1;
        self.stats.stall_cycles += admit - t;
        self.stats.busy_cycles += service;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.completions.len());

        Admission {
            admit: Cycles::new(admit),
            stall: Cycles::new(admit - t),
            complete: Cycles::new(complete),
        }
    }

    /// [`MemCtrl::enqueue_write`] with the admission reported to a probe
    /// hub: every admission emits a
    /// [`silo_probe::ProbeEventKind::WpqAdmit`] event, naming no core (the
    /// controller serves them all), whose `arg` is the producer's stall (0
    /// on an uncontended queue). The probed path is
    /// what the simulated machine uses; the unprobed method remains for
    /// direct controller tests and model code.
    pub fn enqueue_write_probed(
        &mut self,
        now: Cycles,
        bytes: u64,
        new_buffer_lines: u64,
        probe: &mut silo_probe::ProbeHub,
    ) -> Admission {
        let adm = self.enqueue_write(now, bytes, new_buffer_lines);
        let kind = silo_probe::ProbeEventKind::WpqAdmit;
        probe.emit(kind, None, now.as_u64(), adm.stall.as_u64());
        adm
    }

    /// Serves a read issued at `now`; returns its completion time. FR-FCFS
    /// prioritizes reads over queued writes, so reads see the constant
    /// device latency.
    pub fn read(&mut self, now: Cycles) -> Cycles {
        self.stats.reads += 1;
        now + Cycles::new(self.config.read_cycles)
    }

    /// Retires serviced writes whose completion time is at or before `now`.
    /// [`enqueue_write`](Self::enqueue_write) calls this implicitly;
    /// completion-retire is never coupled to a read-only query.
    pub fn retire(&mut self, now: Cycles) {
        let t = now.as_u64();
        while self.completions.front().is_some_and(|&c| c <= t) {
            self.completions.pop_front();
        }
    }

    /// WPQ occupancy as of local time `now`. Read-only: counts in-flight
    /// writes completing after `now` without retiring anything, so probes
    /// and stats queries cannot perturb subsequent admission timing.
    pub fn occupancy(&self, now: Cycles) -> usize {
        let t = now.as_u64();
        // Completion times are monotone (FIFO server), so the retired
        // prefix is exactly the partition point.
        self.completions.len() - self.completions.partition_point(|&c| c <= t)
    }

    /// Earliest time at which every currently queued write has drained.
    pub fn drained_at(&self) -> Cycles {
        Cycles::new(self.server_free)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemCtrlStats {
        self.stats
    }

    /// The configuration.
    pub fn config(&self) -> &MemCtrlConfig {
        &self.config
    }
}

impl std::ops::Add for MemCtrlStats {
    type Output = MemCtrlStats;

    fn add(self, r: MemCtrlStats) -> MemCtrlStats {
        MemCtrlStats {
            writes: self.writes + r.writes,
            reads: self.reads + r.reads,
            stall_cycles: self.stall_cycles + r.stall_cycles,
            busy_cycles: self.busy_cycles + r.busy_cycles,
            max_occupancy: self.max_occupancy.max(r.max_occupancy),
        }
    }
}

impl std::ops::Sub for MemCtrlStats {
    type Output = MemCtrlStats;

    /// Saturating per-field difference. Delta pairs (an N-transaction run
    /// subtracted from a 2N-transaction run) are only approximately
    /// nested: the generators are prefix-extensive, so both runs share
    /// every step until the N-run's first core runs out, but after that
    /// the N-run's other cores finish alone and its end-of-run drain
    /// differs from the 2N-run's path, so a transient counter such as WPQ
    /// stall cycles can be *smaller* in the longer run. Saturating at zero
    /// keeps the warmup-stripping heuristic total instead of panicking.
    fn sub(self, r: MemCtrlStats) -> MemCtrlStats {
        MemCtrlStats {
            writes: self.writes.saturating_sub(r.writes),
            reads: self.reads.saturating_sub(r.reads),
            stall_cycles: self.stall_cycles.saturating_sub(r.stall_cycles),
            busy_cycles: self.busy_cycles.saturating_sub(r.busy_cycles),
            max_occupancy: self.max_occupancy.max(r.max_occupancy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemCtrl {
        MemCtrl::new(MemCtrlConfig::table_ii())
    }

    /// One 64 B line filling one fresh buffer line:
    /// 0 (posted cmd) + 8 (bus) + 18 (media/banks) = 26 cycles.
    const LINE_SERVICE: u64 = 26;

    #[test]
    fn empty_queue_admits_instantly() {
        let mut m = mc();
        let a = m.enqueue_write(Cycles::new(100), 64, 1);
        assert_eq!(a.admit, Cycles::new(100));
        assert_eq!(a.stall, Cycles::ZERO);
        assert_eq!(a.complete, Cycles::new(100 + LINE_SERVICE));
    }

    #[test]
    fn coalesced_word_write_is_bus_only() {
        let mut m = mc();
        let a = m.enqueue_write(Cycles::new(0), 8, 0);
        assert_eq!(a.complete, Cycles::new(1), "one bus beat");
    }

    #[test]
    fn service_is_serialized_fifo() {
        let mut m = mc();
        let a = m.enqueue_write(Cycles::new(0), 64, 1);
        let b = m.enqueue_write(Cycles::new(0), 64, 1);
        assert_eq!(b.admit, Cycles::ZERO, "queue not full: admit immediately");
        assert_eq!(b.complete, a.complete + Cycles::new(LINE_SERVICE));
    }

    #[test]
    fn full_wpq_stalls_producer() {
        let mut m = mc();
        for _ in 0..64 {
            m.enqueue_write(Cycles::new(0), 64, 1);
        }
        assert_eq!(m.occupancy(Cycles::new(0)), 64);
        let a = m.enqueue_write(Cycles::new(0), 64, 1);
        // Must wait for the first write to retire.
        assert_eq!(a.admit, Cycles::new(LINE_SERVICE));
        assert_eq!(a.stall, Cycles::new(LINE_SERVICE));
    }

    #[test]
    fn occupancy_retires_completed_writes() {
        let mut m = mc();
        for _ in 0..10 {
            m.enqueue_write(Cycles::new(0), 64, 1);
        }
        assert_eq!(m.occupancy(Cycles::new(0)), 10);
        assert_eq!(m.occupancy(Cycles::new(10 * LINE_SERVICE)), 0);
    }

    #[test]
    fn occupancy_probe_does_not_perturb_admission() {
        // Probing occupancy at a future time (a stats read, a probe
        // sampling end-of-run state) must not change what the controller
        // does next. Before the retire/occupancy split, the probe popped
        // completions and a subsequent admission at an earlier local time
        // saw a spuriously empty WPQ.
        let run = |probe: bool| {
            let mut m = mc();
            for _ in 0..64 {
                m.enqueue_write(Cycles::new(0), 64, 1);
            }
            if probe {
                assert_eq!(m.occupancy(Cycles::new(1_000_000)), 0);
            }
            m.enqueue_write(Cycles::new(0), 64, 1)
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true).stall, Cycles::new(LINE_SERVICE));
    }

    #[test]
    fn explicit_retire_frees_slots() {
        let mut m = mc();
        for _ in 0..64 {
            m.enqueue_write(Cycles::new(0), 64, 1);
        }
        m.retire(Cycles::new(64 * LINE_SERVICE));
        assert_eq!(m.occupancy(Cycles::new(0)), 0, "retired entries are gone");
    }

    #[test]
    fn reads_have_constant_latency() {
        let mut m = mc();
        for _ in 0..64 {
            m.enqueue_write(Cycles::new(0), 64, 1);
        }
        assert_eq!(m.read(Cycles::new(5)), Cycles::new(105));
    }

    #[test]
    fn drained_at_tracks_last_completion() {
        let mut m = mc();
        assert_eq!(m.drained_at(), Cycles::ZERO);
        let a = m.enqueue_write(Cycles::new(0), 64, 2);
        assert_eq!(m.drained_at(), a.complete);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mc();
        m.enqueue_write(Cycles::new(0), 64, 1);
        m.enqueue_write(Cycles::new(0), 8, 0);
        m.read(Cycles::new(0));
        let s = m.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.busy_cycles, LINE_SERVICE + 1);
        assert_eq!(s.max_occupancy, 2);
    }

    #[test]
    fn idle_gaps_do_not_accumulate_service() {
        let mut m = mc();
        let a = m.enqueue_write(Cycles::new(0), 64, 1);
        // Much later request starts fresh, not behind stale server_free.
        let b = m.enqueue_write(Cycles::new(10_000), 64, 1);
        assert_eq!(b.admit, Cycles::new(10_000));
        assert_eq!(b.complete, Cycles::new(10_000 + LINE_SERVICE));
        assert!(a.complete < b.admit);
    }

    #[test]
    fn table_ii_service_formula() {
        let cfg = MemCtrlConfig::table_ii();
        assert_eq!(cfg.service_cycles(8, 0), 1);
        assert_eq!(cfg.service_cycles(64, 1), 26);
        assert_eq!(cfg.service_cycles(18, 1), 3 + 18);
        assert_eq!(cfg.service_cycles(64, 4), 8 + 75);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_wpq_rejected() {
        let _ = MemCtrl::new(MemCtrlConfig {
            wpq_entries: 0,
            ..MemCtrlConfig::table_ii()
        });
    }

    #[test]
    fn sustained_overload_backpressure_grows() {
        // Producer issuing faster than drain rate sees growing stalls.
        let mut m = mc();
        let mut now = Cycles::ZERO;
        let mut last_stall = Cycles::ZERO;
        for _ in 0..500 {
            let a = m.enqueue_write(now, 64, 1);
            last_stall = a.stall;
            now = a.admit + Cycles::new(1); // producer retries ~instantly
        }
        assert!(last_stall.as_u64() > 0 || m.stats().stall_cycles > 0);
        // Steady state: producer throughput equals the service rate,
        // minus the 64 requests still in flight.
        assert!(now.as_u64() >= (500 - 64) * LINE_SERVICE, "now = {now}");
    }
}
