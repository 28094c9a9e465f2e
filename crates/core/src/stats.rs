//! Statistics for the DRAM-cache controller.

use dice_obs::{impl_snapshot, ratio};

/// Counters accumulated by [`DramCacheController`](crate::DramCacheController).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L4Stats {
    /// Demand reads received from the L3.
    pub reads: u64,
    /// Demand reads that hit (in either index location).
    pub read_hits: u64,
    /// Reads that needed a second set probe (CIP misprediction with the
    /// line in the alternate set, or a KNL-style both-location miss check).
    pub second_probes: u64,
    /// Installs from main memory.
    pub fills: u64,
    /// Dirty writebacks received from the L3.
    pub writebacks: u64,
    /// Extra adjacent lines delivered free with a compressed-pair hit.
    pub free_lines: u64,
    /// Install decisions where TSI and BAI coincide (no choice needed).
    pub installs_invariant: u64,
    /// Installs placed at the TSI index (incompressible side).
    pub installs_tsi: u64,
    /// Installs placed at the BAI index (compressible side).
    pub installs_bai: u64,
    /// Dirty victims evicted to main memory.
    pub memory_writebacks: u64,
    /// Write-index predictions scored (non-invariant resident lines).
    pub wpred_scored: u64,
    /// Of those, predictions that found the line on the first probe.
    pub wpred_correct: u64,
}

impl_snapshot!(L4Stats {
    reads: Monotonic,
    read_hits: Monotonic,
    second_probes: Monotonic,
    fills: Monotonic,
    writebacks: Monotonic,
    free_lines: Monotonic,
    installs_invariant: Monotonic,
    installs_tsi: Monotonic,
    installs_bai: Monotonic,
    memory_writebacks: Monotonic,
    wpred_scored: Monotonic,
    wpred_correct: Monotonic,
});

impl L4Stats {
    /// Read hit rate in [0, 1] (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        ratio(self.read_hits, self.reads)
    }

    /// Write-predictor accuracy in [0, 1] (0 when nothing was scored, per
    /// the workspace-wide idle convention of [`dice_obs::ratio`]).
    #[must_use]
    pub fn write_prediction_accuracy(&self) -> f64 {
        ratio(self.wpred_correct, self.wpred_scored)
    }

    /// Total install decisions.
    #[must_use]
    pub fn installs(&self) -> u64 {
        self.installs_invariant + self.installs_tsi + self.installs_bai
    }
}

#[cfg(test)]
mod tests {
    use dice_obs::Snapshot;

    use super::*;

    #[test]
    fn rates_when_idle() {
        let s = L4Stats::default();
        assert_eq!(s.hit_rate(), 0.0);
        // Idle convention is uniform across the workspace: no samples
        // means a zero rate, not an optimistic 1.0.
        assert_eq!(s.write_prediction_accuracy(), 0.0);
    }

    #[test]
    fn installs_sum() {
        let s = L4Stats {
            installs_invariant: 5,
            installs_tsi: 3,
            installs_bai: 2,
            ..L4Stats::default()
        };
        assert_eq!(s.installs(), 10);
    }

    #[test]
    fn delta_subtracts_all_fields() {
        let a = L4Stats {
            reads: 1,
            read_hits: 1,
            fills: 1,
            ..L4Stats::default()
        };
        let b = L4Stats {
            reads: 5,
            read_hits: 3,
            fills: 2,
            ..L4Stats::default()
        };
        let d = dice_obs::delta(&b, &a);
        assert_eq!(d.reads, 4);
        assert_eq!(d.read_hits, 2);
        assert_eq!(d.fills, 1);
    }

    #[test]
    fn snapshot_fields_cover_the_struct() {
        // 12 public counters; the Snapshot declaration must list them all
        // or delta silently stops subtracting the missing ones.
        assert_eq!(L4Stats::FIELDS.len(), 12);
        let mut s = L4Stats::default();
        for i in 0..L4Stats::FIELDS.len() {
            s.set_field(i, i as u64 + 1);
        }
        let zero = L4Stats::default();
        assert_eq!(dice_obs::delta(&s, &zero), s);
    }
}
