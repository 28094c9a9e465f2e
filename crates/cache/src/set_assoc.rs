//! Generic set-associative cache with true-LRU replacement.

use crate::stats::CacheStats;
use crate::LineAddr;

/// A victim produced by an install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line address of the evicted block.
    pub addr: LineAddr,
    /// Whether the block was dirty (needs a writeback to the next level).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    addr: LineAddr,
    dirty: bool,
    /// Monotonic recency stamp; larger = more recently used.
    stamp: u64,
}

/// A write-back, write-allocate, set-associative cache model.
///
/// Only tags are modeled (the simulator synthesizes data values separately),
/// which keeps multi-megabyte caches cheap to simulate. Ways live in one
/// contiguous array (`sets × ways`, with a per-set occupancy count) rather
/// than a `Vec` per set: set lookup is pure arithmetic, a whole set scan
/// touches one cache-resident slab, and construction performs exactly two
/// allocations regardless of set count.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    ways: usize,
    set_mask: u64,
    /// Way storage; set `s` occupies `s * ways ..` with `occ[s]` valid slots.
    ways_store: Vec<Way>,
    /// Number of valid ways per set.
    occ: Vec<u32>,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates a cache of `capacity_bytes` with `ways`-way associativity and
    /// 64 B lines.
    ///
    /// # Panics
    ///
    /// Panics if the resulting set count is not a power of two or is zero.
    #[must_use]
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        let lines = capacity_bytes / 64;
        assert!(
            ways > 0 && lines >= ways,
            "cache too small for associativity"
        );
        let sets = lines / ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} must be a power of two"
        );
        Self {
            ways,
            set_mask: sets as u64 - 1,
            ways_store: vec![Way::default(); sets * ways],
            occ: vec![0; sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.occ.len()
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        (addr & self.set_mask) as usize
    }

    /// The valid slots of `set` as a mutable slice.
    fn slots_mut(&mut self, set: usize) -> &mut [Way] {
        let base = set * self.ways;
        &mut self.ways_store[base..base + self.occ[set] as usize]
    }

    /// The valid slots of `set`.
    fn slots(&self, set: usize) -> &[Way] {
        let base = set * self.ways;
        &self.ways_store[base..base + self.occ[set] as usize]
    }

    /// Probes for `addr`; on a hit, updates recency (and the dirty bit for
    /// writes) and returns `true`. Does **not** allocate on miss — call
    /// [`install`](Self::install) when the fill returns.
    pub fn access(&mut self, addr: LineAddr, is_write: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(addr);
        let hit = self.slots_mut(set).iter_mut().find(|w| w.addr == addr);
        match hit {
            Some(w) => {
                w.stamp = clock;
                w.dirty |= is_write;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Checks residency without touching recency or statistics.
    #[must_use]
    pub fn contains(&self, addr: LineAddr) -> bool {
        self.slots(self.set_of(addr)).iter().any(|w| w.addr == addr)
    }

    /// Installs `addr` (evicting the LRU way if the set is full). If the
    /// line is already resident, only refreshes recency/dirtiness.
    pub fn install(&mut self, addr: LineAddr, dirty: bool) -> Option<Eviction> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(addr);
        let ways = self.ways;
        if let Some(w) = self.slots_mut(set).iter_mut().find(|w| w.addr == addr) {
            w.stamp = clock;
            w.dirty |= dirty;
            return None;
        }
        let new = Way {
            addr,
            dirty,
            stamp: clock,
        };
        if (self.occ[set] as usize) < ways {
            let slot = set * ways + self.occ[set] as usize;
            self.ways_store[slot] = new;
            self.occ[set] += 1;
            return None;
        }
        // Full set: overwrite the LRU way in place. Stamps are unique (the
        // clock advances on every access and install), so the victim choice
        // matches the old remove-and-push scheme exactly.
        let (idx, victim) = self
            .slots(set)
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.stamp)
            .map(|(i, w)| (i, *w))
            .expect("full set has entries");
        self.stats.evictions += 1;
        if victim.dirty {
            self.stats.dirty_evictions += 1;
        }
        self.ways_store[set * ways + idx] = new;
        Some(Eviction {
            addr: victim.addr,
            dirty: victim.dirty,
        })
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.occ.iter().map(|&o| o as usize).sum()
    }

    /// Accumulated hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. at the end of warm-up) without touching
    /// contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Audits the way slab's structural invariants, returning one
    /// human-readable detail per violation (the hierarchy wraps them in
    /// typed errors with the level name as context):
    ///
    /// * per-set occupancy within associativity (the valid/dirty partition
    ///   is sound — metadata only ever describes valid ways);
    /// * tag uniqueness within each set;
    /// * every valid way's address maps back to the set holding it;
    /// * no recency stamp from the future (stamps are issued by the
    ///   monotonic clock, so a larger one means corrupted metadata).
    ///
    /// Read-only and allocation-free until the first violation. Each
    /// finding reports the violating set (for set-granular recovery via
    /// [`clear_set`](Self::clear_set)) and a human-readable detail.
    #[must_use]
    pub fn audit(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for set in 0..self.sets() {
            if self.occ[set] as usize > self.ways {
                out.push((
                    set,
                    format!("occupancy {} exceeds {} ways", self.occ[set], self.ways),
                ));
                continue; // slots() would index out of the set's slab region
            }
            let slots = self.slots(set);
            for (i, w) in slots.iter().enumerate() {
                if slots[..i].iter().any(|o| o.addr == w.addr) {
                    out.push((set, format!("line {:#x} tagged twice", w.addr)));
                }
                if self.set_of(w.addr) != set {
                    out.push((
                        set,
                        format!("line {:#x} belongs in set {}", w.addr, self.set_of(w.addr)),
                    ));
                }
                if w.stamp > self.clock {
                    out.push((
                        set,
                        format!(
                            "line {:#x} stamped {} past clock {}",
                            w.addr, w.stamp, self.clock
                        ),
                    ));
                }
            }
        }
        out
    }

    /// Integrity recovery: drops every way of `set` without writebacks
    /// (the set's metadata is untrusted, dirty bits included), returning
    /// the number of lines dropped. Subsequent accesses miss and refetch.
    pub fn clear_set(&mut self, set: usize) -> usize {
        let n = self.occ[set] as usize;
        self.occ[set] = 0;
        n
    }

    /// Fault injector: flips the lowest set-index bit of one resident
    /// way's address, chosen pseudo-randomly from `seed`, so the tag no
    /// longer maps to the set holding it. Returns `(set, old, new)`, or
    /// `None` when the cache is empty or direct-indexed with a single set
    /// (no index bit to corrupt).
    pub fn inject_tag_flip(&mut self, seed: u64) -> Option<(usize, LineAddr, LineAddr)> {
        if self.set_mask == 0 {
            return None;
        }
        let sets = self.sets();
        let start = (seed % sets as u64) as usize;
        for off in 0..sets {
            let set = (start + off) % sets;
            let occ = self.occ[set] as usize;
            if occ == 0 {
                continue;
            }
            let idx = (seed >> 32) as usize % occ;
            let w = &mut self.ways_store[set * self.ways + idx];
            let old = w.addr;
            w.addr ^= 1;
            return Some((set, old, w.addr));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_install_then_hit() {
        let mut c = SetAssocCache::new(64 * 64, 4);
        assert!(!c.access(100, false));
        assert_eq!(c.install(100, false), None);
        assert!(c.access(100, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: addresses spaced by set count collide.
        let mut c = SetAssocCache::new(2 * 64, 2);
        assert_eq!(c.sets(), 1);
        c.install(1, false);
        c.install(2, false);
        c.access(1, false); // 1 is now MRU
        let v = c.install(3, false).expect("eviction");
        assert_eq!(v.addr, 2);
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_it() {
        let mut c = SetAssocCache::new(2 * 64, 2);
        c.install(1, false);
        c.access(1, true);
        c.install(2, false);
        c.access(2, false);
        c.access(2, false);
        let v = c.install(3, false).expect("eviction");
        assert_eq!(
            v,
            Eviction {
                addr: 1,
                dirty: true
            }
        );
    }

    #[test]
    fn install_dirty_flag_is_sticky() {
        let mut c = SetAssocCache::new(2 * 64, 2);
        c.install(7, true);
        c.install(7, false); // re-install must not clear dirtiness
        c.install(8, false);
        let v = c.install(9, false).expect("eviction");
        assert_eq!(
            v,
            Eviction {
                addr: 7,
                dirty: true
            }
        );
    }

    #[test]
    fn reinstall_does_not_duplicate() {
        let mut c = SetAssocCache::new(4 * 64, 4);
        c.install(5, false);
        c.install(5, false);
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn sets_partition_the_address_space() {
        let mut c = SetAssocCache::new(64 * 64, 1); // 64 direct-mapped sets
        c.install(0, false);
        c.install(64, false); // same set (64 sets apart): evicts 0
        assert!(!c.contains(0));
        c.install(1, false); // different set
        assert!(c.contains(64) && c.contains(1));
    }

    #[test]
    fn valid_lines_tracks_occupancy() {
        let mut c = SetAssocCache::new(8 * 64, 2);
        for a in 0..8 {
            c.install(a, false);
        }
        assert_eq!(c.valid_lines(), 8);
        c.install(100, false); // evicts one
        assert_eq!(c.valid_lines(), 8);
    }

    #[test]
    fn eviction_in_one_set_cannot_disturb_neighbors() {
        let mut c = SetAssocCache::new(4 * 64, 2); // 2 sets, 2 ways
        c.install(0, false); // set 0
        c.install(1, true); // set 1
        c.install(2, false); // set 0 (full)
        c.install(4, false); // set 0: evicts LRU of set 0 only
        assert!(c.contains(1), "neighbor set lost a line");
        assert_eq!(c.valid_lines(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = SetAssocCache::new(3 * 64, 1);
    }
}
