//! Property tests: queueing-model invariants of the memory controller.

use silo_memctrl::{MemCtrl, MemCtrlConfig};
use silo_types::prop::check;
use silo_types::Cycles;

/// Admissions and completions are monotone in call order, stalls only
/// occur when the queue is full, and occupancy never exceeds the WPQ
/// capacity once the producer respects admissions.
#[test]
fn admission_is_monotone_and_bounded() {
    check("admission_is_monotone_and_bounded", 256, |g| {
        let reqs = g.vec(1..200, |g| (g.range(0..256), g.range(0..3), g.range(0..50)));
        let wpq = g.range(1..64) as usize;
        let mut mc = MemCtrl::new(MemCtrlConfig {
            wpq_entries: wpq,
            ..MemCtrlConfig::table_ii()
        });
        let mut now = Cycles::ZERO;
        let mut last_admit = Cycles::ZERO;
        let mut last_complete = Cycles::ZERO;
        for (bytes, lines, think) in reqs {
            now += Cycles::new(think);
            let adm = mc.enqueue_write(now, bytes, lines);
            assert!(adm.admit >= now, "admission not before issue");
            assert!(adm.admit >= last_admit, "admissions monotone");
            assert!(
                adm.complete > adm.admit - Cycles::ZERO.max(adm.admit),
                "completion after admission"
            );
            assert!(adm.complete >= last_complete, "completions monotone (FIFO)");
            assert_eq!(adm.stall, adm.admit - now);
            last_admit = adm.admit;
            last_complete = adm.complete;
            // A producer that waits for its admission keeps the queue at
            // or below capacity.
            now = adm.admit;
            assert!(mc.occupancy(now) <= wpq, "occupancy bounded");
        }
        assert_eq!(mc.drained_at(), last_complete);
    });
}

/// Service conservation: total busy cycles equal the sum of per-request
/// service costs, independent of arrival pattern.
#[test]
fn busy_cycles_are_conserved() {
    check("busy_cycles_are_conserved", 256, |g| {
        let reqs = g.vec(1..100, |g| (g.range(1..128), g.range(0..3), g.range(0..40)));
        let cfg = MemCtrlConfig::table_ii();
        let mut mc = MemCtrl::new(cfg);
        let mut now = Cycles::ZERO;
        let mut expected = 0u64;
        for (bytes, lines, think) in reqs {
            now += Cycles::new(think);
            mc.enqueue_write(now, bytes, lines);
            expected += cfg.service_cycles(bytes, lines);
        }
        assert_eq!(mc.stats().busy_cycles, expected);
    });
}
