//! The on-chip level the simulator drives: the shared L3.
//!
//! The simulator's record streams are post-L2 (DESIGN.md §3, §7.4), so the
//! paper's private L1/L2 are already folded into each stream and only the
//! shared L3 is modelled here. Dirty L3 victims queue up until the caller
//! drains them; the L4 controller turns each into a DRAM-cache write.

use crate::set_assoc::SetAssocCache;
use crate::stats::CacheStats;
use crate::LineAddr;

/// Sizing of the shared L3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores sharing the L3. It sizes nothing: the L3 is
    /// `l3_bytes` however many cores feed it.
    pub cores: usize,
    /// Shared L3 capacity in bytes.
    pub l3_bytes: usize,
    /// L3 associativity.
    pub l3_ways: usize,
}

impl HierarchyConfig {
    /// The paper's Table 2 L3: 8 cores sharing 8 MB, 16-way (1 MB per
    /// core).
    #[must_use]
    pub fn paper_8core() -> Self {
        Self {
            cores: 8,
            l3_bytes: 8 << 20,
            l3_ways: 16,
        }
    }
}

/// The shared L3 and its queue of dirty victims.
#[derive(Debug, Clone)]
pub struct SramHierarchy {
    l3: SetAssocCache,
    /// Dirty L3 victims awaiting pickup by the L4 controller.
    pending_writebacks: Vec<LineAddr>,
}

impl SramHierarchy {
    /// Builds the L3 described by `cfg`, empty.
    #[must_use]
    pub fn new(cfg: &HierarchyConfig) -> Self {
        Self {
            l3: SetAssocCache::new(cfg.l3_bytes, cfg.l3_ways),
            pending_writebacks: Vec::new(),
        }
    }

    /// Probes the shared L3 with one post-L2 record. Returns `true` on a
    /// hit, updating recency and dirtiness; on a miss the caller fetches
    /// from L4/memory and then calls [`l3_fill`](Self::l3_fill).
    pub fn l3_access(&mut self, addr: LineAddr, is_write: bool) -> bool {
        self.l3.access(addr, is_write)
    }

    /// Installs `addr` into the shared L3 with explicit dirtiness — a
    /// demand fill, or the extra line a compressed-pair L4 hit delivers
    /// free (§6.4). A dirty victim is queued for
    /// [`drain_writebacks_into`](Self::drain_writebacks_into).
    pub fn l3_fill(&mut self, addr: LineAddr, dirty: bool) {
        if let Some(v) = self.l3.install(addr, dirty) {
            if v.dirty {
                self.pending_writebacks.push(v.addr);
            }
        }
    }

    /// Moves the dirty L3 victims queued since the last drain into `out`,
    /// so a reused buffer keeps the steady-state drain allocation-free.
    pub fn drain_writebacks_into(&mut self, out: &mut Vec<LineAddr>) {
        out.append(&mut self.pending_writebacks);
    }

    /// Whether `addr` is resident in the shared L3 (no side effects).
    #[must_use]
    pub fn l3_contains(&self, addr: LineAddr) -> bool {
        self.l3.contains(addr)
    }

    /// Statistics of the shared L3.
    #[must_use]
    pub fn l3_stats(&self) -> &CacheStats {
        self.l3.stats()
    }

    /// Resets the L3's statistics (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.l3.reset_stats();
    }

    /// Audits the L3's structural invariants (see
    /// [`SetAssocCache::audit`]), wrapping each finding in a typed
    /// [`DiceError::Invariant`](dice_obs::DiceError) whose context is
    /// `l3`. A clean L3 returns an empty vector.
    #[must_use]
    pub fn audit(&self) -> Vec<dice_obs::DiceError> {
        self.l3
            .audit()
            .into_iter()
            .map(|(set, detail)| dice_obs::DiceError::Invariant {
                context: "l3".to_owned(),
                detail: format!("set {set}: {detail}"),
            })
            .collect()
    }

    /// Fault injector: flips a set-index bit of one resident L3 tag (see
    /// [`SetAssocCache::inject_tag_flip`]); the corruption is detected by
    /// [`audit`](Self::audit) as an L3 index mismatch.
    pub fn l3_inject_tag_flip(&mut self, seed: u64) -> Option<(usize, LineAddr, LineAddr)> {
        self.l3.inject_tag_flip(seed)
    }

    /// Integrity recovery: audits the shared L3 and drops every set that
    /// failed (its metadata — addresses and dirty bits — is untrusted),
    /// so subsequent accesses miss and refetch. Returns the number of
    /// lines dropped; 0 means the L3 was clean.
    pub fn l3_scrub(&mut self) -> usize {
        let mut sets: Vec<usize> = self.l3.audit().into_iter().map(|(s, _)| s).collect();
        sets.dedup();
        sets.into_iter().map(|s| self.l3.clear_set(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 16 sets × 4 ways.
    fn tiny() -> SramHierarchy {
        SramHierarchy::new(&HierarchyConfig {
            cores: 2,
            l3_bytes: 64 * 64,
            l3_ways: 4,
        })
    }

    #[test]
    fn dirty_l3_victims_surface_as_writebacks() {
        let mut h = tiny();
        // A written line, then enough conflicting clean fills to push it
        // out: lines congruent mod 16 collide.
        assert!(!h.l3_access(0, true));
        h.l3_fill(0, true);
        for i in 1..=4u64 {
            h.l3_fill(i * 16, false);
        }
        let mut wbs = Vec::new();
        h.drain_writebacks_into(&mut wbs);
        assert_eq!(wbs, [0], "dirty line 0 should be written back");
        wbs.clear();
        h.drain_writebacks_into(&mut wbs);
        assert!(wbs.is_empty(), "a drain empties the queue");
    }

    #[test]
    fn paper_config_shapes() {
        let h = SramHierarchy::new(&HierarchyConfig::paper_8core());
        assert_eq!(h.l3.sets() * h.l3.ways() * 64, 8 << 20);
        assert_eq!(h.l3.ways(), 16);
    }

    #[test]
    fn healthy_hierarchy_audits_clean() {
        let mut h = tiny();
        for i in 0..200u64 {
            if !h.l3_access(i * 3, i % 7 == 0) {
                h.l3_fill(i * 3, i % 7 == 0);
            }
        }
        assert_eq!(h.audit(), vec![]);
    }

    #[test]
    fn l3_tag_flip_is_detected_and_recoverable() {
        let mut h = tiny();
        for i in 0..64u64 {
            h.l3_fill(i * 2, false);
        }
        let (_, _, new) = h.l3_inject_tag_flip(99).expect("l3 populated");
        let violations = h.audit();
        assert!(
            violations.iter().any(
                |e| matches!(e, dice_obs::DiceError::Invariant { context, .. } if context == "l3")
            ),
            "flip not attributed to l3: {violations:?}"
        );
        // Recovery: scrub the untrusted sets; the audit is clean again and
        // the corrupted address misses (refetch path).
        assert!(h.l3_scrub() > 0);
        assert_eq!(h.audit(), vec![]);
        assert!(!h.l3_contains(new));
    }
}
