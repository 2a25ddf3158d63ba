//! Bench-layer plumbing for the observability subsystem.
//!
//! Two pieces live here:
//!
//! * [`EventTraceSink`] — the process-wide JSONL writer behind the
//!   `--trace-events <path>` flag. Engine runs drain their ring-buffered
//!   timelines into [`silo_sim::RunOutcome::timeline`]; the run helpers in
//!   this crate hand those lines to the sink, which serializes appends
//!   from concurrent `--jobs` workers under one mutex. The trace file is
//!   a debugging artifact, not a report: worker interleaving makes the
//!   *run order* nondeterministic under `--jobs > 1`, so CI determinism
//!   gates compare report bytes, never trace files.
//! * [`run_profiled`] — the cycle-accounting run used by the `profile`
//!   experiment: a **full** (non-delta) run with the machine's
//!   [`CycleAccountant`](silo_sim::ProbeHub) enabled, so the breakdown
//!   invariant `sum(categories) == total cycles` holds exactly.
//!
//! Accounting is enabled per-run, never via global state: `evaluate all`
//! runs `profile` in the same process as the byte-pinned figure
//! experiments, and a leaked flag would grow a `breakdown` field into
//! their reports.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use silo_sim::{
    Engine, Machine, SimConfig, SimStats, DEFAULT_TIMELINE_CAPACITY, TIMELINE_SCHEMA_VERSION,
};
use silo_workloads::Workload;

use crate::{make_scheme, TraceCache};

/// Process-wide sink for drained event timelines (`--trace-events`).
///
/// Disabled (the default) it is inert: [`EventTraceSink::attach`] leaves
/// machines untouched, so engines never record events and runs stay
/// byte-identical to a build without the observability layer.
pub struct EventTraceSink {
    file: Mutex<Option<TraceFile>>,
}

/// The open trace file and the first error writing it.
struct TraceFile {
    writer: BufWriter<File>,
    error: Option<std::io::Error>,
}

impl EventTraceSink {
    /// The process-wide instance.
    pub fn global() -> &'static EventTraceSink {
        static GLOBAL: OnceLock<EventTraceSink> = OnceLock::new();
        GLOBAL.get_or_init(|| EventTraceSink {
            file: Mutex::new(None),
        })
    }

    /// Opens (truncating) the trace file and writes and flushes the
    /// schema header line, so a file that cannot be written fails here.
    /// Every subsequent engine run in this process records and appends
    /// its timeline.
    pub fn enable(&self, path: &Path) -> std::io::Result<()> {
        let mut writer = BufWriter::new(File::create(path)?);
        writeln!(
            writer,
            "{{\"v\":{TIMELINE_SCHEMA_VERSION},\"stream\":\"silo-events\"}}"
        )?;
        writer.flush()?;
        *self.file.lock().expect("sink lock") = Some(TraceFile {
            writer,
            error: None,
        });
        Ok(())
    }

    /// Whether a trace file is open.
    pub fn is_enabled(&self) -> bool {
        self.file.lock().expect("sink lock").is_some()
    }

    /// Enables the machine's timeline probe when the sink is active.
    pub fn attach(&self, machine: &mut Machine) {
        if self.is_enabled() {
            machine.probe.enable_timeline(DEFAULT_TIMELINE_CAPACITY);
        }
    }

    /// Appends one run's drained timeline: a run-header line (scheme,
    /// retained event count, events the ring dropped) followed by the
    /// event lines. No-op when disabled. The first write error is kept
    /// for [`finish`](Self::finish), and nothing is written after it.
    pub fn sink(&self, label: &str, lines: &[String], dropped: u64) {
        let mut guard = self.file.lock().expect("sink lock");
        let Some(file) = guard.as_mut() else { return };
        if file.error.is_some() {
            return;
        }
        if let Err(err) = write_run(&mut file.writer, label, lines, dropped) {
            file.error = Some(err);
        }
    }

    /// The first error writing the trace file since it was opened, if
    /// any (reported once). `Ok` when disabled.
    pub fn finish(&self) -> std::io::Result<()> {
        match self.file.lock().expect("sink lock").as_mut() {
            Some(file) => file.error.take().map_or(Ok(()), Err),
            None => Ok(()),
        }
    }
}

fn write_run(
    w: &mut impl std::io::Write,
    label: &str,
    lines: &[String],
    dropped: u64,
) -> std::io::Result<()> {
    writeln!(
        w,
        "{{\"v\":{TIMELINE_SCHEMA_VERSION},\"run\":{},\"events\":{},\"dropped\":{dropped}}}",
        silo_types::JsonValue::Str(label.to_string()),
        lines.len(),
    )?;
    for line in lines {
        writeln!(w, "{line}")?;
    }
    w.flush()
}

/// Flushes a finished run's timeline (if any) into the global sink.
pub(crate) fn sink_outcome(outcome: &silo_sim::RunOutcome) {
    if let Some((lines, dropped)) = &outcome.timeline {
        EventTraceSink::global().sink(outcome.stats.scheme, lines, *dropped);
    }
}

/// Runs `workload` under `scheme_name` with the cycle accountant enabled:
/// a full run (setup transaction included, no steady-state delta), so the
/// returned [`SimStats::breakdown`] attributes **every** cycle of every
/// core's clock — the `profile` experiment's measurement primitive.
pub fn run_profiled(
    scheme_name: &str,
    workload: &dyn Workload,
    cores: usize,
    txs_per_core: usize,
    seed: u64,
) -> SimStats {
    let config = SimConfig::table_ii(cores);
    let trace = TraceCache::global().get_or_build(workload, cores, txs_per_core, seed);
    let mut scheme = make_scheme(scheme_name, &config);
    let mut engine = Engine::new(&config, scheme.as_mut());
    engine.machine_mut().probe.enable_accounting(cores);
    EventTraceSink::global().attach(engine.machine_mut());
    let outcome = engine.run(&trace, None);
    sink_outcome(&outcome);
    outcome.stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_workloads::workload_by_name;

    #[test]
    fn run_profiled_breakdown_sums_to_core_clocks() {
        let w = workload_by_name("Bank").expect("bank exists");
        let stats = run_profiled("Silo", w.as_ref(), 2, 10, 42);
        let b = stats.breakdown.as_ref().expect("accounting enabled");
        assert_eq!(b.per_core.len(), 2);
        for (i, core) in stats.per_core.iter().enumerate() {
            assert_eq!(b.core_total(i), core.cycles.as_u64());
        }
        assert_eq!(
            b.total(),
            stats
                .per_core
                .iter()
                .map(|c| c.cycles.as_u64())
                .sum::<u64>()
        );
    }

    #[test]
    fn sink_keeps_the_first_write_error() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let sink = EventTraceSink {
            file: Mutex::new(Some(TraceFile {
                writer: BufWriter::new(File::create(full).expect("open /dev/full")),
                error: None,
            })),
        };
        sink.sink("Silo", &["{}".to_string()], 0);
        sink.sink("Base", &[], 0);
        let err = sink.finish().expect_err("a full device fails the write");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull, "{err}");
    }

    #[test]
    fn unprofiled_runs_carry_no_breakdown() {
        let w = workload_by_name("Bank").expect("bank exists");
        let config = SimConfig::table_ii(1);
        let trace = TraceCache::global().get_or_build(&*w, 1, 5, 42);
        let stats = crate::run_with_scheme(make_scheme("Silo", &config).as_mut(), &config, &trace);
        assert!(stats.breakdown.is_none());
    }
}
