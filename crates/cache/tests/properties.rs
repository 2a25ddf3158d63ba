//! Property tests: cache structure invariants under random access
//! streams.

use silo_cache::{CacheConfig, CacheHierarchy, HierarchyConfig, SetAssocCache};
use silo_types::prop::check;
use silo_types::{CoreId, Cycles, LineAddr, PhysAddr};

fn line(n: u64) -> LineAddr {
    LineAddr::containing(PhysAddr::new(n * 64))
}

/// Occupancy never exceeds capacity, and an accessed line is resident
/// immediately afterwards.
#[test]
fn occupancy_bounded_and_access_allocates() {
    check("occupancy_bounded_and_access_allocates", 256, |g| {
        let accesses = g.vec(1..200, |g| (g.range(0..256), g.bool()));
        let mut c = SetAssocCache::new(CacheConfig::new(16 * 64, 4));
        for (n, w) in &accesses {
            c.access(line(*n), *w);
            assert!(c.probe(line(*n)));
            assert!(c.occupancy() <= 16);
        }
        let (h, m, _) = c.counters();
        assert_eq!(h + m, accesses.len() as u64);
    });
}

/// Dirty lines are exactly those written and not yet cleaned/evicted;
/// a full sweep leaves nothing dirty.
#[test]
fn dirty_tracking_is_sound() {
    check("dirty_tracking_is_sound", 256, |g| {
        let accesses = g.vec(1..150, |g| (g.range(0..64), g.bool()));
        let mut c = SetAssocCache::new(CacheConfig::new(32 * 64, 4));
        let mut written = std::collections::HashSet::new();
        for (n, w) in &accesses {
            let out = c.access(line(*n), *w);
            if let Some(ev) = out.evicted {
                written.remove(&ev.line);
            }
            if *w {
                written.insert(line(*n));
            }
        }
        for l in c.dirty_lines() {
            assert!(written.contains(&l), "{l:?} dirty but never written");
        }
        c.clean_all();
        assert!(c.dirty_lines().is_empty());
    });
}

/// Hierarchy: every dirty line lost at invalidate_all was previously
/// written; a force-writeback returns each dirty line exactly once.
#[test]
fn hierarchy_force_writeback_is_exact() {
    check("hierarchy_force_writeback_is_exact", 256, |g| {
        let accesses = g.vec(1..200, |g| (g.range(0..128), g.bool(), g.range(0..2)));
        let mut h = CacheHierarchy::new(HierarchyConfig {
            cores: 2,
            l1: CacheConfig::new(4 * 64, 2),
            l1_latency: Cycles::new(4),
            l2: CacheConfig::new(8 * 64, 2),
            l2_latency: Cycles::new(12),
            l3: CacheConfig::new(16 * 64, 4),
            l3_latency: Cycles::new(28),
        });
        let mut written = std::collections::HashSet::new();
        let mut evicted_to_pm = Vec::new();
        for (n, w, core) in &accesses {
            let acc = h.access(CoreId::new(*core as usize), line(*n), *w);
            evicted_to_pm.extend(acc.pm_writebacks);
            if *w {
                written.insert(line(*n));
            }
        }
        let mut swept = h.force_writeback_all();
        swept.sort();
        let mut unique = swept.clone();
        unique.dedup();
        assert_eq!(&swept, &unique, "no line swept twice");
        for l in &swept {
            assert!(written.contains(l));
        }
        for l in &evicted_to_pm {
            assert!(written.contains(l), "{l:?} evicted dirty but never written");
        }
        assert!(h.all_dirty_lines().is_empty());
    });
}
