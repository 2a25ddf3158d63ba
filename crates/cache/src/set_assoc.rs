//! A single set-associative, write-back cache level (metadata only).

use std::sync::Arc;

use silo_types::{LineAddr, LINE_BYTES};

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// use silo_cache::CacheConfig;
///
/// let l1 = CacheConfig::new(32 * 1024, 8);
/// assert_eq!(l1.sets(), 64); // 32 KB / (64 B * 8 ways)
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a geometry; validates that it divides into whole sets.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a positive multiple of
    /// `ways * LINE_BYTES`.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(ways * LINE_BYTES),
            "capacity {size_bytes} is not a multiple of ways*line ({ways}*{LINE_BYTES})"
        );
        CacheConfig { size_bytes, ways }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * LINE_BYTES)
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.size_bytes / LINE_BYTES
    }
}

/// A line evicted to make room for a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The victim line's address.
    pub line: LineAddr,
    /// Whether the victim was dirty (needs writing back downstream).
    pub dirty: bool,
}

/// The outcome of one access to a cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// A victim displaced by the fill (misses only).
    pub evicted: Option<Evicted>,
}

/// The dirty flag of a tag word.
const DIRTY: u64 = 1 << 63;

/// A lazily restored level takes in the rest of its base at once when it
/// has taken in one set alone per this many captured ways.
const TAKE_IN_ALL: usize = 16;

/// The tag word of a clean `line`: its line index plus one, so that 0,
/// the word of an empty way, names no line.
#[inline]
fn key_of(line: LineAddr) -> u64 {
    line.index() + 1
}

/// The line a non-empty tag word holds.
fn line_of(tag: u64) -> LineAddr {
    LineAddr::containing(silo_types::PhysAddr::new(
        ((tag & !DIRTY) - 1) * LINE_BYTES as u64,
    ))
}

/// One set-associative, write-back, write-allocate cache level with true
/// LRU replacement. Tracks tags and dirty bits only; data values live
/// elsewhere (see the crate docs).
///
/// # Examples
///
/// ```
/// use silo_cache::{CacheConfig, SetAssocCache};
/// use silo_types::{LineAddr, PhysAddr};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(4096, 4));
/// let line = LineAddr::containing(PhysAddr::new(0));
/// assert!(!c.access(line, true).hit);
/// assert!(c.access(line, false).hit);
/// assert!(c.is_dirty(line));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `sets - 1`: a line's set is the low bits of its line index.
    set_mask: u64,
    /// One tag word per way, in one flat set-major slab: set `s` owns
    /// `tags[s * config.ways .. (s + 1) * config.ways]`. A tag word is the
    /// line index plus one with the dirty flag in bit 63, and 0 in an
    /// empty way, so a new level's slab is zeroed memory no loop fills,
    /// and a probe of a 16-way set reads two host cache lines. A set's
    /// words mean something only while the set is live (see `stamps`).
    tags: Vec<u64>,
    /// The LRU tick of each way, parallel to `tags`; read only for an
    /// occupied way, so an emptied way keeps a stale one.
    ticks: Vec<u64>,
    /// The epoch each set was last written in. Set `s` is live iff
    /// `stamps[s] == epoch`; a stale set holds what `base` holds for it,
    /// or nothing, and takes that in on its first write of the current
    /// epoch, so dropping every line is one epoch bump instead of a sweep
    /// over the whole slab.
    stamps: Vec<u32>,
    /// The current epoch; never 0, the stamp of a set never written.
    epoch: u32,
    /// The captured level a lazy restore installed
    /// ([`restore_lazily`](Self::restore_lazily)), shared with its
    /// checkpoint: what the stale sets hold. Dropped with every line, and
    /// once it is all taken in.
    base: Option<Arc<CacheLevelState>>,
    /// Sets taken in from `base` one by one since it was installed.
    base_claims: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    dirty_evictions: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's set count is not a power of two: a line's
    /// set is picked by masking its index.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "cache set count {sets} is not a power of two \
             ({} B / ({} ways * {LINE_BYTES} B lines))",
            config.size_bytes,
            config.ways
        );
        SetAssocCache {
            config,
            set_mask: sets as u64 - 1,
            tags: vec![0; config.lines()],
            ticks: vec![0; config.lines()],
            stamps: vec![0; sets],
            epoch: 1,
            base: None,
            base_claims: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            dirty_evictions: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.index() & self.set_mask) as usize
    }

    /// Index range of set `s` within the flat slabs.
    fn slots(&self, s: usize) -> std::ops::Range<usize> {
        let w = self.config.ways;
        s * w..(s + 1) * w
    }

    /// The slab slot holding `line`, if its set is live and holds it.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let s = self.set_of(line);
        if self.stamps[s] != self.epoch {
            return None;
        }
        let r = self.slots(s);
        let key = key_of(line);
        let way = self.tags[r.clone()]
            .iter()
            .position(|&t| t & !DIRTY == key)?;
        Some(r.start + way)
    }

    /// The tag word of `line`, if it is resident: in the slab when its set
    /// is live, else in the base.
    fn tag_of(&self, line: LineAddr) -> Option<u64> {
        let s = self.set_of(line);
        if self.stamps[s] == self.epoch {
            return self.find(line).map(|i| self.tags[i]);
        }
        let key = key_of(line);
        let base = self.base.as_ref()?;
        let ways = base.set_ways(self.slots(s));
        ways.iter().map(|w| w.1).find(|&t| t & !DIRTY == key)
    }

    /// [`find`](Self::find) for a write: while a base is installed, a
    /// stale set is taken in first, so later writes find it live.
    fn find_mut(&mut self, line: LineAddr) -> Option<usize> {
        let s = self.set_of(line);
        if self.stamps[s] != self.epoch && self.base.is_some() {
            self.claim_set(s);
        }
        self.find(line)
    }

    /// The slots of set `s` for a write: a stale set is stamped live and
    /// takes in what the base holds for it, or is emptied.
    #[inline]
    fn claim_set(&mut self, s: usize) -> std::ops::Range<usize> {
        let r = self.slots(s);
        if self.stamps[s] != self.epoch {
            self.stamps[s] = self.epoch;
            self.tags[r.clone()].fill(0);
            if let Some(base) = &self.base {
                for &(slot, tag, tick) in base.set_ways(r.clone()) {
                    self.tags[slot as usize] = tag;
                    self.ticks[slot as usize] = tick;
                }
                // Each set taken in alone costs a search of the base: a
                // run that writes many sets takes in the rest at once.
                self.base_claims += 1;
                if self.base_claims * TAKE_IN_ALL >= base.occupied.len() {
                    self.take_in_base();
                }
            }
        }
        r
    }

    /// Writes the captured `ways`, in slab order, into the sets that are
    /// stale, stamping them live; a live set keeps what it holds.
    fn take_in(&mut self, ways: &[(u32, u64, u64)]) {
        // (set, whether it was stale) of the last way's set.
        let mut set = (usize::MAX, false);
        for &(slot, tag, tick) in ways {
            let slot = slot as usize;
            let s = slot / self.config.ways;
            if s != set.0 {
                set = (s, self.stamps[s] != self.epoch);
                if set.1 {
                    self.stamps[s] = self.epoch;
                    let r = self.slots(s);
                    self.tags[r].fill(0);
                }
            }
            if set.1 {
                self.tags[slot] = tag;
                self.ticks[slot] = tick;
            }
        }
    }

    /// Every occupied way as (slot, tag word, LRU tick), in slab order:
    /// the live sets' from the slab, the stale sets' from the base.
    fn ways(&self) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let live = self
            .stamps
            .iter()
            .enumerate()
            .filter(|&(_, &stamp)| stamp == self.epoch)
            .flat_map(|(s, _)| self.slots(s))
            .filter(|&i| self.tags[i] != 0)
            .map(|i| (i, self.tags[i], self.ticks[i]));
        let ways = self.config.ways;
        let base = self
            .base
            .iter()
            .flat_map(|b| &b.occupied)
            .filter(move |&&(slot, ..)| self.stamps[slot as usize / ways] != self.epoch)
            .map(|&(slot, tag, tick)| (slot as usize, tag, tick));
        // Two ascending runs over disjoint sets, merged.
        let (mut live, mut base) = (live.peekable(), base.peekable());
        std::iter::from_fn(move || match (live.peek(), base.peek()) {
            (Some(l), Some(b)) if b.0 < l.0 => base.next(),
            (Some(_), _) => live.next(),
            (None, _) => base.next(),
        })
    }

    /// Takes every stale set the base holds in and drops the base.
    fn take_in_base(&mut self) {
        if let Some(base) = self.base.take() {
            self.take_in(&base.occupied);
        }
    }

    /// Accesses `line`, allocating on miss (write-allocate for both reads
    /// and writes). `is_write` marks the line dirty. Returns the hit/miss
    /// outcome and any displaced victim.
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
        let (hit, evicted) = self.touch(line, is_write);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        AccessOutcome { hit, evicted }
    }

    /// Installs `line` without counting a demand hit or miss — the path a
    /// writeback from an upper level takes (e.g. a dirty L1 victim landing
    /// in L2). If the line is already present its dirty bit is OR-ed;
    /// otherwise it is allocated, possibly displacing a victim.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        self.touch(line, dirty).1
    }

    /// Makes `line` its set's most recently used line with `dirty` OR-ed
    /// into its flag: in place if it is resident, else in the set's first
    /// empty way, else over its least recently used line, which is
    /// returned. Returns whether the line was resident, and the victim.
    #[inline]
    fn touch(&mut self, line: LineAddr, dirty: bool) -> (bool, Option<Evicted>) {
        self.tick += 1;
        let r = self.claim_set(self.set_of(line));
        let key = key_of(line);
        let flag = if dirty { DIRTY } else { 0 };
        let tags = &mut self.tags[r.clone()];
        let ticks = &mut self.ticks[r];
        if let Some(way) = tags.iter().position(|&t| t & !DIRTY == key) {
            tags[way] |= flag;
            ticks[way] = self.tick;
            return (true, None);
        }
        let (way, evicted) = match tags.iter().position(|&t| t == 0) {
            Some(way) => (way, None),
            None => {
                let way = (0..ticks.len())
                    .min_by_key(|&w| ticks[w])
                    .expect("a set has ways");
                let victim = tags[way];
                let dirty = victim & DIRTY != 0;
                if dirty {
                    self.dirty_evictions += 1;
                }
                let line = line_of(victim);
                (way, Some(Evicted { line, dirty }))
            }
        };
        tags[way] = key | flag;
        ticks[way] = self.tick;
        (false, evicted)
    }

    /// Whether the line is present (no LRU update, no allocation).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.tag_of(line).is_some()
    }

    /// Whether the line is present and dirty.
    pub fn is_dirty(&self, line: LineAddr) -> bool {
        self.tag_of(line).is_some_and(|t| t & DIRTY != 0)
    }

    /// Clears the dirty bit if the line is present (a clwb-style flush
    /// writes the line back without invalidating it). Returns whether the
    /// line was dirty.
    pub fn clean(&mut self, line: LineAddr) -> bool {
        let Some(i) = self.find_mut(line) else {
            return false;
        };
        let was = self.tags[i] & DIRTY != 0;
        self.tags[i] &= !DIRTY;
        was
    }

    /// Removes the line if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let Some(i) = self.find_mut(line) else {
            return false;
        };
        std::mem::take(&mut self.tags[i]) & DIRTY != 0
    }

    /// All currently dirty lines, in slab order.
    pub fn dirty_lines(&self) -> Vec<LineAddr> {
        self.ways()
            .map(|(_, tag, _)| tag)
            .filter(|&t| t & DIRTY != 0)
            .map(line_of)
            .collect()
    }

    /// Clears every dirty bit and returns the lines that were dirty (a
    /// force-write-back sweep, as FWB performs periodically), in slab
    /// order.
    pub fn clean_all(&mut self) -> Vec<LineAddr> {
        self.take_in_base();
        let mut out = Vec::new();
        for s in 0..self.stamps.len() {
            if self.stamps[s] != self.epoch {
                continue;
            }
            let r = self.slots(s);
            for tag in &mut self.tags[r] {
                if *tag & DIRTY != 0 {
                    *tag &= !DIRTY;
                    out.push(line_of(*tag));
                }
            }
        }
        out
    }

    /// Drops every line (volatile cache contents at a power failure): one
    /// epoch bump, after which every set reads as empty.
    pub fn invalidate_all(&mut self) {
        self.base = None;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: a stamp left from 2^32 epochs ago could now read as
            // live, so every set is reset to the never-written stamp.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Returns the level to the state [`SetAssocCache::new`] builds: no
    /// line, LRU clock and counters at zero. Drops every line with one
    /// epoch bump, so the slab is reused, not reallocated.
    pub fn reset(&mut self) {
        self.invalidate_all();
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.dirty_evictions = 0;
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.ways().count()
    }

    /// (hits, misses, dirty evictions) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.dirty_evictions)
    }

    /// The geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }
}

/// Sparse captured state of one [`SetAssocCache`] level.
///
/// The slabs are dense in slots but sparse in residency at checkpoint time
/// relative to their full size (the Table II L3 alone is 131 072 ways,
/// 2 MiB of tag and tick words), so the snapshot keeps only the occupied
/// ways, each as its slot, tag word and LRU tick, in slab order, plus the
/// counters. An eager restore drops every line with one epoch bump and
/// rewrites the captured ways, so neither touches a set that holds no
/// line; a lazy one installs the state as the level's base and copies a
/// set in when it is first written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheLevelState {
    config: CacheConfig,
    occupied: Vec<(u32, u64, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
    dirty_evictions: u64,
}

impl CacheLevelState {
    /// The captured ways whose slots lie in `slots`, one set's.
    fn set_ways(&self, slots: std::ops::Range<usize>) -> &[(u32, u64, u64)] {
        let at = |slot: usize| self.occupied.partition_point(|w| (w.0 as usize) < slot);
        &self.occupied[at(slots.start)..at(slots.end)]
    }
}

impl SetAssocCache {
    /// Captures the occupied ways and the LRU and counter state.
    pub fn snapshot(&self) -> CacheLevelState {
        CacheLevelState {
            config: self.config,
            occupied: self
                .ways()
                .map(|(i, tag, tick)| (i as u32, tag, tick))
                .collect(),
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
            dirty_evictions: self.dirty_evictions,
        }
    }

    /// Restores exactly the captured state: drops every line with one
    /// epoch bump and rewrites the captured ways.
    pub fn restore(&mut self, state: &CacheLevelState) {
        self.restore_counters(state);
        self.take_in(&state.occupied);
    }

    /// Restores exactly the captured state, as [`restore`](Self::restore)
    /// does, but copies no way: drops every line with one epoch bump and
    /// installs `state` as the level's base. Each set takes its captured
    /// ways in on its first write; reads of a set not yet written, and
    /// whole-level reads, see them in the base. A crash run resumed one
    /// step before its crash writes a handful of sets before the crash
    /// drops every line; a run that writes one set per 16 captured ways
    /// takes the rest in at once, as an eager restore would have.
    pub fn restore_lazily(&mut self, state: Arc<CacheLevelState>) {
        self.restore_counters(&state);
        if !state.occupied.is_empty() {
            self.base = Some(state);
            self.base_claims = 0;
        }
    }

    /// Drops every line and takes `state`'s LRU clock and counters.
    fn restore_counters(&mut self, state: &CacheLevelState) {
        assert_eq!(
            self.config, state.config,
            "cache snapshot restored into a different geometry"
        );
        self.invalidate_all();
        self.tick = state.tick;
        self.hits = state.hits;
        self.misses = state.misses;
        self.dirty_evictions = state.dirty_evictions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_types::{PhysAddr, Xoshiro256};

    fn line(n: u64) -> LineAddr {
        LineAddr::containing(PhysAddr::new(n * LINE_BYTES as u64))
    }

    /// 2 sets × 2 ways, so lines with even index map to set 0.
    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(4 * LINE_BYTES, 2))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(32 * 1024, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.lines(), 512);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn invalid_geometry_rejected() {
        let _ = CacheConfig::new(100, 3);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(line(0), false).hit);
        assert!(c.access(line(0), false).hit);
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn write_sets_dirty_and_read_does_not() {
        let mut c = tiny();
        c.access(line(0), false);
        assert!(!c.is_dirty(line(0)));
        c.access(line(0), true);
        assert!(c.is_dirty(line(0)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds even line indices; fill both ways.
        c.access(line(0), true);
        c.access(line(2), false);
        c.access(line(0), false); // touch 0, making 2 the LRU victim
        let out = c.access(line(4), false);
        assert!(!out.hit);
        let ev = out.evicted.expect("set was full");
        assert_eq!(ev.line, line(2));
        assert!(!ev.dirty);
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(2)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(2), true);
        let ev = c.access(line(4), false).evicted.expect("eviction");
        assert!(ev.dirty);
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        // Odd line indices map to set 1 and never evict set 0 residents.
        c.access(line(0), false);
        c.access(line(1), false);
        c.access(line(3), false);
        c.access(line(5), false);
        assert!(c.probe(line(0)));
    }

    #[test]
    fn clean_clears_dirty_without_invalidating() {
        let mut c = tiny();
        c.access(line(0), true);
        assert!(c.clean(line(0)));
        assert!(c.probe(line(0)));
        assert!(!c.is_dirty(line(0)));
        assert!(!c.clean(line(0))); // already clean
        assert!(!c.clean(line(2))); // absent
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = tiny();
        c.access(line(0), true);
        assert!(c.invalidate(line(0)));
        assert!(!c.probe(line(0)));
        assert!(!c.invalidate(line(0)));
    }

    #[test]
    fn dirty_lines_and_clean_all() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(1), true);
        c.access(line(2), false);
        let mut dirty = c.dirty_lines();
        dirty.sort();
        assert_eq!(dirty, vec![line(0), line(1)]);
        let mut swept = c.clean_all();
        swept.sort();
        assert_eq!(swept, vec![line(0), line(1)]);
        assert!(c.dirty_lines().is_empty());
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(1), true);
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn fill_does_not_count_demand_stats() {
        let mut c = tiny();
        c.fill(line(0), true);
        let (h, m, _) = c.counters();
        assert_eq!((h, m), (0, 0));
        assert!(c.is_dirty(line(0)));
    }

    #[test]
    fn fill_ors_dirty_into_existing_line() {
        let mut c = tiny();
        c.access(line(0), false);
        assert!(!c.is_dirty(line(0)));
        assert!(c.fill(line(0), true).is_none());
        assert!(c.is_dirty(line(0)));
        // Filling dirty=false must not clear an existing dirty bit.
        c.fill(line(0), false);
        assert!(c.is_dirty(line(0)));
    }

    #[test]
    fn fill_evicts_when_set_full() {
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(2), false);
        let ev = c.fill(line(4), false).expect("eviction");
        assert_eq!(ev.line, line(0));
        assert!(ev.dirty);
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let mut c = tiny();
        c.access(line(0), false);
        c.access(line(2), false);
        c.probe(line(0)); // must NOT refresh line 0
                          // LRU is line 0 (probe didn't touch it): it is the victim.
        let ev = c.access(line(4), false).evicted.expect("eviction");
        assert_eq!(ev.line, line(0));
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn set_count_must_be_a_power_of_two() {
        // 3 sets of one way: a valid capacity, but no mask picks a set.
        let _ = SetAssocCache::new(CacheConfig::new(3 * LINE_BYTES, 1));
    }

    #[test]
    fn invalidate_all_survives_epoch_wraparound() {
        // Set 0 is stamped in epoch 1, set 1 again in epoch 2.
        let mut c = tiny();
        c.access(line(0), true);
        c.access(line(1), true);
        c.invalidate_all();
        c.access(line(1), false);
        // 2^32 - 3 invalidations later the next one wraps: set 0's stale
        // stamp 1 must not read as live in the new epoch.
        c.epoch = u32::MAX;
        c.invalidate_all();
        assert_eq!(c.epoch, 1);
        assert!(!c.probe(line(0)), "a line from 2^32 epochs ago came back");
        assert_eq!(c.occupancy(), 0);
        assert!(c.dirty_lines().is_empty());
        assert!(!c.access(line(0), false).hit);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn restore_into_a_used_cache_drops_what_it_held() {
        let mut c = tiny();
        c.access(line(0), true);
        let snap = c.snapshot();
        c.access(line(1), true);
        c.access(line(2), true);
        c.restore(&snap);
        assert!(c.probe(line(0)) && c.is_dirty(line(0)));
        assert!(!c.probe(line(1)) && !c.probe(line(2)));
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.dirty_lines(), vec![line(0)]);
    }

    #[test]
    fn a_reset_level_replays_like_a_new_one() {
        let mut rng = Xoshiro256::seeded(0x2e5e7);
        let ops: Vec<(u64, bool)> = (0..400).map(|_| (rng.below(16), rng.percent(40))).collect();
        let run = |c: &mut SetAssocCache| -> Vec<AccessOutcome> {
            ops.iter().map(|&(l, w)| c.access(line(l), w)).collect()
        };
        let mut used = tiny();
        run(&mut used);
        used.reset();
        assert_eq!(used.occupancy(), 0);
        assert_eq!(used.counters(), (0, 0, 0));
        let mut fresh = tiny();
        assert_eq!(run(&mut used), run(&mut fresh));
        assert_eq!(used.counters(), fresh.counters());
        assert_eq!(used.dirty_lines(), fresh.dirty_lines());
        assert_eq!(used.snapshot(), fresh.snapshot());
    }

    /// A level after up to `max_ops` random accesses and fills over
    /// `config`'s hot sets.
    fn used(config: CacheConfig, rng: &mut Xoshiro256, max_ops: u64) -> SetAssocCache {
        let mut c = SetAssocCache::new(config);
        for _ in 0..rng.below(max_ops) {
            let l = random_line(rng, config);
            if rng.percent(70) {
                c.access(l, rng.percent(50));
            } else {
                c.fill(l, rng.percent(50));
            }
        }
        c
    }

    #[test]
    fn a_lazy_restore_behaves_as_an_eager_one() {
        let mut taken_in = 0;
        for config in geometries() {
            let mut rng = Xoshiro256::seeded(0x1a2e ^ config.sets() as u64);
            for round in 0..12 {
                let src = used(config, &mut rng, 600);
                let state = Arc::new(src.snapshot());
                // Restored into levels that hold other lines.
                let mut eager = used(config, &mut rng, 300);
                let mut lazy = eager.clone();
                eager.restore(&state);
                lazy.restore_lazily(Arc::clone(&state));
                assert_eq!(lazy.snapshot(), eager.snapshot(), "round {round}");
                assert!(lazy.base.is_some() || state.occupied.is_empty());
                for step in 0..400 {
                    let l = random_line(&mut rng, config);
                    let what = format!("step {step} of round {round} at {config:?}");
                    match rng.below(20) {
                        0..=6 => {
                            let write = rng.percent(50);
                            assert_eq!(lazy.access(l, write), eager.access(l, write), "{what}");
                        }
                        7 | 8 => {
                            let dirty = rng.percent(50);
                            assert_eq!(lazy.fill(l, dirty), eager.fill(l, dirty), "{what}");
                        }
                        9 | 10 => assert_eq!(lazy.clean(l), eager.clean(l), "{what}"),
                        11 | 12 => assert_eq!(lazy.invalidate(l), eager.invalidate(l), "{what}"),
                        13 => {
                            assert_eq!(lazy.probe(l), eager.probe(l), "{what}");
                            assert_eq!(lazy.is_dirty(l), eager.is_dirty(l), "{what}");
                        }
                        14 => assert_eq!(lazy.dirty_lines(), eager.dirty_lines(), "{what}"),
                        15 => assert_eq!(lazy.occupancy(), eager.occupancy(), "{what}"),
                        16 => assert_eq!(lazy.snapshot(), eager.snapshot(), "{what}"),
                        17 if rng.percent(20) => {
                            assert_eq!(lazy.clean_all(), eager.clean_all(), "{what}")
                        }
                        18 if rng.percent(10) => {
                            // Restored again, over sets already taken in.
                            eager.restore(&state);
                            lazy.restore_lazily(Arc::clone(&state));
                        }
                        _ => {}
                    }
                }
                taken_in += lazy.stamps.iter().filter(|&&s| s == lazy.epoch).count();
                assert_eq!(lazy.counters(), eager.counters(), "round {round}");
                assert_eq!(lazy.snapshot(), eager.snapshot(), "round {round}");
                lazy.invalidate_all();
                assert!(lazy.base.is_none(), "dropping every line drops the base");
                assert_eq!(lazy.occupancy(), 0);
            }
        }
        assert!(taken_in > 0);
    }

    /// The retained reference implementation: the array-of-structs level
    /// that cleared its whole slab on every restore and invalidation, kept
    /// verbatim so the epoch-stamped level can be differentially tested
    /// against it.
    mod reference {
        use crate::set_assoc::{AccessOutcome, CacheConfig, Evicted};
        use silo_types::{LineAddr, LINE_BYTES};

        #[derive(Clone, Copy, Debug)]
        struct Way {
            tag: u64, // full line index; the set already encodes the low bits
            dirty: bool,
            lru: u64,
        }

        #[derive(Clone, Debug)]
        pub struct RefSetAssocCache {
            config: CacheConfig,
            /// All ways in one flat slab, set-major: set `s` owns
            /// `ways[s * config.ways .. (s + 1) * config.ways]`. One allocation
            /// per cache level — constructing the Table II hierarchy used to make
            /// one `Vec` per set (8192 for the L3 alone), a real cost for sweeps
            /// that build thousands of short-lived machines (crashfuzz).
            ways: Vec<Option<Way>>,
            tick: u64,
            hits: u64,
            misses: u64,
            dirty_evictions: u64,
        }

        impl RefSetAssocCache {
            /// Creates an empty cache with the given geometry.
            pub fn new(config: CacheConfig) -> Self {
                RefSetAssocCache {
                    config,
                    ways: vec![None; config.ways * config.sets()],
                    tick: 0,
                    hits: 0,
                    misses: 0,
                    dirty_evictions: 0,
                }
            }

            fn set_of(&self, line: LineAddr) -> usize {
                (line.index() % self.config.sets() as u64) as usize
            }

            /// Index range of `line`'s set within the flat `ways` slab.
            fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
                let w = self.config.ways;
                let s = self.set_of(line);
                s * w..(s + 1) * w
            }

            /// Accesses `line`, allocating on miss (write-allocate for both reads
            /// and writes). `is_write` marks the line dirty. Returns the hit/miss
            /// outcome and any displaced victim.
            pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessOutcome {
                self.tick += 1;
                let tick = self.tick;
                let r = self.set_range(line);
                let ways = &mut self.ways[r];

                if let Some(way) = ways.iter_mut().flatten().find(|w| w.tag == line.index()) {
                    way.lru = tick;
                    way.dirty |= is_write;
                    self.hits += 1;
                    return AccessOutcome {
                        hit: true,
                        evicted: None,
                    };
                }

                self.misses += 1;
                // Prefer an empty way; otherwise evict the least recently used.
                let victim_idx = match ways.iter().position(|w| w.is_none()) {
                    Some(i) => i,
                    None => ways
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.expect("no empty ways here").lru)
                        .map(|(i, _)| i)
                        .expect("ways is non-empty"),
                };
                let evicted = ways[victim_idx].map(|w| {
                    if w.dirty {
                        self.dirty_evictions += 1;
                    }
                    Evicted {
                        line: LineAddr::containing(silo_types::PhysAddr::new(
                            w.tag * LINE_BYTES as u64,
                        )),
                        dirty: w.dirty,
                    }
                });
                ways[victim_idx] = Some(Way {
                    tag: line.index(),
                    dirty: is_write,
                    lru: tick,
                });
                AccessOutcome {
                    hit: false,
                    evicted,
                }
            }

            /// Installs `line` without counting a demand hit or miss — the path a
            /// writeback from an upper level takes (e.g. a dirty L1 victim landing
            /// in L2). If the line is already present its dirty bit is OR-ed;
            /// otherwise it is allocated, possibly displacing a victim.
            pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
                self.tick += 1;
                let tick = self.tick;
                let r = self.set_range(line);
                let ways = &mut self.ways[r];
                if let Some(way) = ways.iter_mut().flatten().find(|w| w.tag == line.index()) {
                    way.lru = tick;
                    way.dirty |= dirty;
                    return None;
                }
                let victim_idx = match ways.iter().position(|w| w.is_none()) {
                    Some(i) => i,
                    None => ways
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.expect("no empty ways here").lru)
                        .map(|(i, _)| i)
                        .expect("ways is non-empty"),
                };
                let evicted = ways[victim_idx].map(|w| {
                    if w.dirty {
                        self.dirty_evictions += 1;
                    }
                    Evicted {
                        line: LineAddr::containing(silo_types::PhysAddr::new(
                            w.tag * LINE_BYTES as u64,
                        )),
                        dirty: w.dirty,
                    }
                });
                ways[victim_idx] = Some(Way {
                    tag: line.index(),
                    dirty,
                    lru: tick,
                });
                evicted
            }

            /// Whether the line is present (no LRU update, no allocation).
            pub fn probe(&self, line: LineAddr) -> bool {
                self.ways[self.set_range(line)]
                    .iter()
                    .flatten()
                    .any(|w| w.tag == line.index())
            }

            /// Whether the line is present and dirty.
            pub fn is_dirty(&self, line: LineAddr) -> bool {
                self.ways[self.set_range(line)]
                    .iter()
                    .flatten()
                    .any(|w| w.tag == line.index() && w.dirty)
            }

            /// Clears the dirty bit if the line is present (a clwb-style flush
            /// writes the line back without invalidating it). Returns whether the
            /// line was dirty.
            pub fn clean(&mut self, line: LineAddr) -> bool {
                let r = self.set_range(line);
                for way in self.ways[r].iter_mut().flatten() {
                    if way.tag == line.index() {
                        let was = way.dirty;
                        way.dirty = false;
                        return was;
                    }
                }
                false
            }

            /// Removes the line if present; returns whether it was dirty.
            pub fn invalidate(&mut self, line: LineAddr) -> bool {
                let r = self.set_range(line);
                for way in self.ways[r].iter_mut() {
                    if let Some(w) = way {
                        if w.tag == line.index() {
                            let dirty = w.dirty;
                            *way = None;
                            return dirty;
                        }
                    }
                }
                false
            }

            /// All currently dirty lines, in unspecified order.
            pub fn dirty_lines(&self) -> Vec<LineAddr> {
                self.ways
                    .iter()
                    .flatten()
                    .filter(|w| w.dirty)
                    .map(|w| {
                        LineAddr::containing(silo_types::PhysAddr::new(w.tag * LINE_BYTES as u64))
                    })
                    .collect()
            }

            /// Clears every dirty bit and returns the lines that were dirty (a
            /// force-write-back sweep, as FWB performs periodically).
            pub fn clean_all(&mut self) -> Vec<LineAddr> {
                let mut out = Vec::new();
                for way in self.ways.iter_mut().flatten() {
                    if way.dirty {
                        way.dirty = false;
                        out.push(LineAddr::containing(silo_types::PhysAddr::new(
                            way.tag * LINE_BYTES as u64,
                        )));
                    }
                }
                out
            }

            /// Drops every line (volatile cache contents at a power failure).
            pub fn invalidate_all(&mut self) {
                self.ways.fill(None);
            }

            /// Number of resident lines.
            pub fn occupancy(&self) -> usize {
                self.ways.iter().flatten().count()
            }

            /// (hits, misses, dirty evictions) counters.
            pub fn counters(&self) -> (u64, u64, u64) {
                (self.hits, self.misses, self.dirty_evictions)
            }

            /// The geometry.
            pub fn config(&self) -> CacheConfig {
                self.config
            }
        }

        /// Sparse captured state of one [`RefSetAssocCache`] level.
        ///
        /// The flat `ways` slab is dense in slots but sparse in residency at
        /// checkpoint time relative to its full size (the Table II L3 alone is
        /// 131 072 slots ≈ 4 MB when cloned wholesale), so the snapshot keeps only
        /// the occupied slots plus the LRU/counter state; restore clears the slab
        /// with one `fill(None)` and rewrites the occupied entries.
        #[derive(Clone, Debug)]
        pub struct RefLevelState {
            config: CacheConfig,
            occupied: Vec<(u32, Way)>,
            tick: u64,
            hits: u64,
            misses: u64,
            dirty_evictions: u64,
        }

        impl RefSetAssocCache {
            pub fn snapshot(&self) -> RefLevelState {
                RefLevelState {
                    config: self.config,
                    occupied: self
                        .ways
                        .iter()
                        .enumerate()
                        .filter_map(|(i, w)| w.map(|w| (i as u32, w)))
                        .collect(),
                    tick: self.tick,
                    hits: self.hits,
                    misses: self.misses,
                    dirty_evictions: self.dirty_evictions,
                }
            }

            pub fn restore(&mut self, state: &RefLevelState) {
                assert_eq!(
                    self.config, state.config,
                    "cache snapshot restored into a different geometry"
                );
                self.ways.fill(None);
                for &(slot, way) in &state.occupied {
                    self.ways[slot as usize] = Some(way);
                }
                self.tick = state.tick;
                self.hits = state.hits;
                self.misses = state.misses;
                self.dirty_evictions = state.dirty_evictions;
            }
        }
    }

    /// The geometries both implementations are driven at: Table II's three
    /// levels, the tiny hierarchy the crash cells shrink to, and the 2-set
    /// unit-test level.
    fn geometries() -> Vec<CacheConfig> {
        vec![
            CacheConfig::new(32 * 1024, 8),
            CacheConfig::new(256 * 1024, 8),
            CacheConfig::new(8 * 1024 * 1024, 16),
            CacheConfig::new(2 * 1024, 2),
            CacheConfig::new(8 * 1024, 4),
            CacheConfig::new(4 * LINE_BYTES, 2),
        ]
    }

    /// A line in one of four hot sets, drawn from more tags than the set
    /// has ways, so fills, LRU victims and dirty evictions happen at every
    /// geometry.
    fn random_line(rng: &mut Xoshiro256, config: CacheConfig) -> LineAddr {
        let sets = config.sets() as u64;
        let set = [0, 1, sets / 2, sets - 1][(rng.next_u64() % 4) as usize] % sets;
        let tag = rng.next_u64() % (2 * config.ways as u64 + 1);
        line(tag * sets + set)
    }

    fn assert_same(c: &SetAssocCache, r: &reference::RefSetAssocCache, what: &str) {
        assert_eq!(c.config(), r.config());
        assert_eq!(c.occupancy(), r.occupancy(), "occupancy after {what}");
        assert_eq!(c.counters(), r.counters(), "counters after {what}");
        assert_eq!(c.dirty_lines(), r.dirty_lines(), "dirty lines after {what}");
    }

    #[test]
    fn differential_vs_reference_slab_cache() {
        for config in geometries() {
            let mut rng = Xoshiro256::seeded(0xca_c4e ^ config.sets() as u64);
            let mut c = SetAssocCache::new(config);
            let mut r = reference::RefSetAssocCache::new(config);
            let mut saved = (c.snapshot(), r.snapshot());
            for step in 0..3000 {
                let l = random_line(&mut rng, config);
                let what = format!("step {step} at {config:?}");
                match rng.next_u64() % 16 {
                    0..=5 => {
                        let write = rng.next_u64().is_multiple_of(2);
                        assert_eq!(c.access(l, write), r.access(l, write), "access, {what}");
                    }
                    6 | 7 => {
                        let dirty = rng.next_u64().is_multiple_of(2);
                        assert_eq!(c.fill(l, dirty), r.fill(l, dirty), "fill, {what}");
                    }
                    8 => assert_eq!(c.clean(l), r.clean(l), "clean, {what}"),
                    9 => assert_eq!(c.invalidate(l), r.invalidate(l), "invalidate, {what}"),
                    10 => {
                        assert_eq!(c.probe(l), r.probe(l), "probe, {what}");
                        assert_eq!(c.is_dirty(l), r.is_dirty(l), "is_dirty, {what}");
                    }
                    11 => assert_eq!(c.clean_all(), r.clean_all(), "clean_all, {what}"),
                    12 => {
                        c.invalidate_all();
                        r.invalidate_all();
                    }
                    13 => saved = (c.snapshot(), r.snapshot()),
                    14 => {
                        // Round trip into the cache in use, which may
                        // hold lines the snapshot does not.
                        c.restore(&saved.0);
                        r.restore(&saved.1);
                    }
                    _ => {
                        // ... and into a fresh pair.
                        c = SetAssocCache::new(config);
                        r = reference::RefSetAssocCache::new(config);
                        c.restore(&saved.0);
                        r.restore(&saved.1);
                    }
                }
                if step % 64 == 0 {
                    assert_same(&c, &r, &what);
                }
            }
            assert_same(&c, &r, &format!("the run at {config:?}"));
        }
    }
}
