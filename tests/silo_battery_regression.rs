//! Regression pins for Silo oracle violations found by `evaluate
//! crashfuzz` under the bounded-battery and torn-line fault models.
//!
//! Root cause (fixed in `SiloScheme::flush_pending`): the machine counts a
//! `WpqAdmit` durability event *before* forwarding bytes to the PM device,
//! so an event-indexed crash point can trip power on the very admission a
//! pending in-place update is riding. The drain loop used to pop the entry
//! from the battery-backed pending queue before issuing the write; when
//! that write was then silently dropped by the tripped device, the
//! committed word lost both its in-place data and its redo record — the
//! entry was no longer in the queue `on_crash` flushes — and recovery had
//! nothing to replay ("committed write lost or corrupted", actual = 0).
//! The fix keeps the entry at the front of the queue until the device has
//! accepted the write, mirroring a log controller that releases its copy
//! only on successful WPQ admission.

use silo::core::SiloScheme;
use silo::sim::{CrashPlan, Engine, FaultModel, LoggingScheme, SimConfig};
use silo::workloads::{workload_by_name, Workload};

/// Runs the exact shrunk repro emitted by `evaluate crashfuzz` and
/// returns the violation descriptions (empty = consistent).
fn run_repro(bench: &str, txs_per_core: usize, point: u64, fault: FaultModel) -> Vec<String> {
    let cores = 2;
    let config = SimConfig::table_ii(cores);
    let workload = workload_by_name(bench).expect("bench resolvable");
    let trace = workload.build_trace(cores, txs_per_core, 42);
    let mut scheme: Box<dyn LoggingScheme> = Box::new(SiloScheme::new(&config));
    let plan = CrashPlan::at_event(point).with_fault(fault);
    let out = Engine::new(&config, scheme.as_mut()).run_with_plan(&trace, Some(plan));
    let crash = out.crash.expect("crash injected");
    crash
        .consistency
        .violations
        .iter()
        .map(|v| {
            format!(
                "{}: addr={:#x} legal={:x?} actual={:#x} (ambiguous_txs={})",
                v.kind,
                v.addr.as_u64(),
                v.legal,
                v.actual.as_u64(),
                crash.ambiguous_txs,
            )
        })
        .collect()
}

/// `evaluate crashfuzz --scheme Silo --bench Hash --txs 62 --seed 42
/// --fault battery --battery-bytes 65536 --point 13589`
///
/// The long-horizon finding from the checkpointed crashfuzz sweeps: a
/// background pending-IPU drain for an earlier committed transaction was
/// interrupted by the armed event, dropping one word of committed data.
#[test]
fn silo_hash_long_horizon_battery_point_is_consistent() {
    let violations = run_repro("hash", 31, 13589, FaultModel::bounded_battery(65536));
    assert!(violations.is_empty(), "{violations:#?}");
}

/// `evaluate crashfuzz --scheme Silo --bench zipfmix --txs 16 --seed 42
/// --fault battery --battery-bytes 65536 --point 1169`
///
/// The same race surfaced immediately by the multi-tenant zipfian mix
/// added with the open-system arrival layer.
#[test]
fn silo_zipfmix_battery_point_is_consistent() {
    let violations = run_repro("zipfmix", 8, 1169, FaultModel::bounded_battery(65536));
    assert!(violations.is_empty(), "{violations:#?}");
}

/// The torn-line model at the zipfmix point: with a perfect budget the
/// drain itself cannot lose data, so a violation here can only come from
/// the pre-drain admission race — it must stay fixed independently.
#[test]
fn silo_zipfmix_torn_line_point_is_consistent() {
    let violations = run_repro("zipfmix", 8, 1169, FaultModel::torn_line(64));
    assert!(violations.is_empty(), "{violations:#?}");
}
