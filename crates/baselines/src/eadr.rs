//! Software logging on an eADR platform (paper §II-C).
//!
//! With eADR the whole CPU cache is battery-backed, so software WAL needs
//! no `clwb`/`sfence` — but the paper argues it is *still* expensive:
//! append-only logs have fresh addresses every time, so they "cannot be
//! merged in cache", they "frequently write the CPU cache and cause random
//! data evictions", polluting locality (§II-C reason 1); and the
//! whole-cache battery is enormous (reason 2, quantified in Table IV).
//!
//! This scheme models reason 1: log entries are written *through the cache
//! hierarchy* like ordinary stores, competing with the application's
//! working set. Durability is free (persistent caches); atomicity still
//! needs the logs.

use silo_core::{LogEntry, Record, RECORD_BYTES};
use silo_sim::{EvictAction, LoggingScheme, Machine, RecoveryReport, SchemeStats, SimConfig};
use silo_types::{CoreId, Cycles, LineAddr, PhysAddr, TxTag, Word};

use crate::common::{recover_areas, CoreCursor};

/// Cycles of instruction overhead for composing a log entry in software.
const SW_LOG_COMPOSE_CYCLES: u64 = 30;

/// Software undo+redo logging on eADR: no fences, but every log entry is
/// appended through the (persistent) cache hierarchy, evicting application
/// data — the cache-pollution cost of §II-C.
///
/// Crash semantics in the model: eADR's battery drains the persistent
/// caches at power failure. The simulator treats caches as volatile, so
/// the model persists each log record's bytes the moment it is written
/// (the record provably sits in the persistent domain from then on) and
/// lets recovery rebuild committed data from redo records — byte-for-byte
/// the same post-recovery PM image the drained cache would have produced,
/// because the redo records carry exactly the cached data values.
#[derive(Clone, Debug)]
pub struct EadrSwLogScheme {
    cores: Vec<CoreCursor>,
    stats: SchemeStats,
}

impl EadrSwLogScheme {
    /// Builds the eADR software-logging baseline for `config`'s machine.
    pub fn new(config: &SimConfig) -> Self {
        EadrSwLogScheme {
            cores: (0..config.cores)
                .map(|i| CoreCursor::new(config, i))
                .collect(),
            stats: SchemeStats::default(),
        }
    }
}

impl LoggingScheme for EadrSwLogScheme {
    fn name(&self) -> &'static str {
        "eADR-SwLog"
    }

    fn on_tx_begin(&mut self, _m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles {
        let c = &mut self.cores[core.as_usize()];
        c.current_tag = Some(tag);
        c.persist_barrier = now;
        now
    }

    fn on_store(
        &mut self,
        m: &mut Machine,
        core: CoreId,
        addr: PhysAddr,
        old: Word,
        new: Word,
        now: Cycles,
    ) -> Cycles {
        let ci = core.as_usize();
        let Some(tag) = self.cores[ci].current_tag else {
            return now;
        };
        self.stats.log_entries_generated += 1;
        let mut t = now + Cycles::new(SW_LOG_COMPOSE_CYCLES);
        // The log entry is STORED through the cache like any data: its two
        // records land on fresh append-only addresses, so nearly every log
        // store allocates a new line and evicts something (§II-C: "these
        // logs frequently write the CPU cache and cause random data
        // evictions").
        let entry = LogEntry::new(tag, addr.word_aligned(), old, new);
        let log_addr = self.cores[ci].area.reserve(2);
        let mut lost = 0;
        for (i, rec) in [entry.undo_record(), entry.redo_record()]
            .iter()
            .enumerate()
        {
            let rec_addr = log_addr.add((i * RECORD_BYTES) as u64);
            let acc = m.caches.access(core, rec_addr.line(), true);
            t += acc.latency;
            // Persist the record's bytes logically (the cache IS the
            // persistence domain under eADR, so the record is durable from
            // this point on).
            let dropped = m.pm.dropped();
            m.pm.write(rec_addr, &rec.encode());
            if m.pm.dropped() != dropped {
                lost += 1;
            }
            for wb in acc.pm_writebacks {
                let adm = m.writeback_line(t, wb, false);
                t = t.max(adm.admit);
            }
        }
        if lost > 0 {
            // Power failed at the record writes: the tail must not cover
            // bytes the device never received.
            self.cores[ci].area.rewind(lost);
        }
        self.stats.log_entries_written_to_pm += 2;
        self.stats.log_bytes_written_to_pm += (2 * RECORD_BYTES) as u64;
        t
    }

    fn on_evict(
        &mut self,
        _m: &mut Machine,
        _core: CoreId,
        _line: LineAddr,
        now: Cycles,
    ) -> (EvictAction, Cycles) {
        (EvictAction::WriteBack, now)
    }

    fn on_tx_end(&mut self, m: &mut Machine, core: CoreId, tag: TxTag, now: Cycles) -> Cycles {
        let ci = core.as_usize();
        self.stats.transactions += 1;
        // Commit record, also through the cache; no fence needed.
        let rec_addr = self.cores[ci].area.reserve(1);
        let acc = m.caches.access(core, rec_addr.line(), true);
        let mut t = now + acc.latency;
        let dropped = m.pm.dropped();
        m.pm.write(rec_addr, &Record::id_tuple(tag).encode());
        if m.pm.dropped() != dropped {
            self.cores[ci].area.rewind(1);
        }
        for wb in acc.pm_writebacks {
            let adm = m.writeback_line(t, wb, false);
            t = t.max(adm.admit);
        }
        self.stats.log_entries_written_to_pm += 1;
        self.stats.log_bytes_written_to_pm += RECORD_BYTES as u64;
        if m.pm.power_tripped() {
            // Power failed inside the commit sequence: the dead core
            // never cleared its transaction register.
            return t;
        }
        self.cores[ci].current_tag = None;
        t
    }

    fn on_crash(&mut self, m: &mut Machine) {
        // The eADR battery's whole-cache drain (the 54 mJ flush of
        // Table IV) is represented by the already-persistent log records;
        // only the headers bounding the valid region remain to write.
        for c in &mut self.cores {
            c.crash(m);
        }
    }

    fn recover(&mut self, m: &mut Machine) -> RecoveryReport {
        recover_areas(m, &mut self.cores)
    }

    fn stats(&self) -> SchemeStats {
        self.stats
    }

    silo_sim::impl_scheme_snapshot!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_sim::{Engine, Transaction};

    fn tx(writes: &[(u64, u64)]) -> Transaction {
        let mut b = Transaction::builder();
        for &(a, v) in writes {
            b = b.write(PhysAddr::new(a), Word::new(v));
        }
        b.build()
    }

    #[test]
    fn log_stores_pollute_the_cache() {
        // §II-C: the same transactions run with far more cache misses under
        // eADR software logging than under hardware logging, because log
        // appends allocate fresh lines.
        let cfg = SimConfig::table_ii(1);
        let writes: Vec<(u64, u64)> = (0..10).map(|i| (i * 8, i + 1)).collect();
        let txs = || (0..50).map(|_| tx(&writes)).collect::<Vec<_>>();

        let mut eadr = EadrSwLogScheme::new(&cfg);
        let eadr_out = Engine::new(&cfg, &mut eadr).run(vec![txs()], None);
        let mut silo = silo_core::SiloScheme::new(&cfg);
        let silo_out = Engine::new(&cfg, &mut silo).run(vec![txs()], None);

        let eadr_l1_misses = eadr_out.stats.cache.l1.1;
        let silo_l1_misses = silo_out.stats.cache.l1.1;
        assert!(
            eadr_l1_misses > 2 * silo_l1_misses,
            "eADR log appends must inflate cache misses: {eadr_l1_misses} vs {silo_l1_misses}"
        );
    }

    #[test]
    fn crash_sweep_is_consistent() {
        for crash_at in (100..15_000).step_by(1_313) {
            let cfg = SimConfig::table_ii(1);
            let mut scheme = EadrSwLogScheme::new(&cfg);
            let stream: Vec<Transaction> = (0..8)
                .map(|i| tx(&[(i * 8, i + 1), (512 + i * 8, i + 7)]))
                .collect();
            let out = Engine::new(&cfg, &mut scheme).run(vec![stream], Some(Cycles::new(crash_at)));
            let crash = out.crash.expect("crash injected");
            assert!(
                crash.consistency.is_consistent(),
                "crash at {crash_at}: {:?}",
                crash.consistency.violations
            );
        }
    }
}
