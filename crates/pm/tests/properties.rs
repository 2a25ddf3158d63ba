//! Property tests: the PM device against a flat-memory oracle.

use std::collections::HashMap;

use silo_pm::{PmDevice, PmDeviceConfig};
use silo_types::prop::{check, Gen};
use silo_types::PhysAddr;

fn any_bytes(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<u8> {
    g.vec(len, |g| g.range(0..1 << 8) as u8)
}

/// Any interleaving of coalesced and write-through writes must read
/// back exactly like a flat byte array, both before and after a full
/// buffer drain.
#[test]
fn device_matches_flat_memory_oracle() {
    check("device_matches_flat_memory_oracle", 256, |g| {
        // (address, bytes, staged rather than written through)
        let writes = g.vec(1..60, |g| (g.range(0..4096), any_bytes(g, 1..80), g.bool()));
        let buffer_lines = g.range(1..8) as usize;
        let mut pm = PmDevice::new(PmDeviceConfig {
            buffer_lines,
            log_region_start: None,
        });
        let mut oracle: HashMap<u64, u8> = HashMap::new();
        for (addr, bytes, staged) in &writes {
            if *staged {
                pm.write(PhysAddr::new(*addr), bytes);
            } else {
                pm.write_through(PhysAddr::new(*addr), bytes);
            }
            for (i, b) in bytes.iter().enumerate() {
                oracle.insert(addr + i as u64, *b);
            }
        }
        // Read-through view.
        for probe in 0..5000u64 {
            let expected = oracle.get(&probe).copied().unwrap_or(0);
            assert_eq!(pm.peek(PhysAddr::new(probe), 1)[0], expected);
        }
        // Post-drain view.
        pm.flush_all();
        for probe in 0..5000u64 {
            let expected = oracle.get(&probe).copied().unwrap_or(0);
            assert_eq!(pm.peek(PhysAddr::new(probe), 1)[0], expected);
        }
    });
}

/// Data-comparison-write: re-writing identical content through the
/// direct path never programs the media again.
#[test]
fn dcw_suppresses_idempotent_rewrites() {
    check("dcw_suppresses_idempotent_rewrites", 256, |g| {
        let addr = g.range(0..1024);
        let bytes = any_bytes(g, 1..64);
        let repeats = g.range(1..5);
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        pm.write_through(PhysAddr::new(addr), &bytes);
        let after_first = pm.stats().media_line_writes;
        for _ in 0..repeats {
            pm.write_through(PhysAddr::new(addr), &bytes);
        }
        assert_eq!(pm.stats().media_line_writes, after_first);
    });
}

/// Coalescing never inflates media traffic: the number of media line
/// programs for staged writes is bounded by the number of distinct
/// 256 B lines touched.
#[test]
fn staged_media_writes_bounded_by_touched_lines() {
    check("staged_media_writes_bounded_by_touched_lines", 256, |g| {
        let writes = g.vec(1..80, |g| (g.range(0..8192), g.range(1..64)));
        let mut pm = PmDevice::new(PmDeviceConfig::default());
        let mut lines = std::collections::HashSet::new();
        for (addr, len) in &writes {
            pm.write(PhysAddr::new(*addr), &vec![0xAB; *len as usize]);
            for b in *addr..(*addr + *len) {
                lines.insert(b / 256);
            }
        }
        pm.flush_all();
        assert!(pm.stats().media_line_writes as usize <= lines.len());
    });
}
