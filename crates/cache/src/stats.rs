//! Hit/miss statistics shared by all SRAM cache levels.

use dice_obs::{impl_snapshot, ratio};

/// Counters for one cache (cumulative; snapshot-and-subtract for warm-up).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
    /// Evicted lines that were dirty (writebacks to the next level).
    pub dirty_evictions: u64,
}

impl_snapshot!(CacheStats {
    hits: Monotonic,
    misses: Monotonic,
    evictions: Monotonic,
    dirty_evictions: Monotonic,
});

impl CacheStats {
    /// Total demand accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in [0, 1]; 0 for an idle cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.accesses())
    }

    /// Misses per kilo-instruction given an instruction count.
    #[must_use]
    pub fn mpki(&self, instructions: u64) -> f64 {
        ratio(self.misses * 1000, instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_mpki() {
        let s = CacheStats {
            hits: 75,
            misses: 25,
            ..CacheStats::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.mpki(10_000) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn idle_cache_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mpki(0), 0.0);
    }

    #[test]
    fn delta_subtracts() {
        let a = CacheStats {
            hits: 10,
            misses: 2,
            evictions: 1,
            dirty_evictions: 0,
        };
        let b = CacheStats {
            hits: 30,
            misses: 12,
            evictions: 6,
            dirty_evictions: 3,
        };
        let d = dice_obs::delta(&b, &a);
        assert_eq!(
            d,
            CacheStats {
                hits: 20,
                misses: 10,
                evictions: 5,
                dirty_evictions: 3
            }
        );
    }
}
