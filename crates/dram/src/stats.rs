//! Access statistics for one DRAM device.

use dice_obs::{impl_snapshot, ratio};

use crate::Cycle;

/// Counters accumulated by [`DramDevice`](crate::DramDevice).
///
/// All counters are cumulative from device creation; the simulator snapshots
/// them at warm-up boundaries and subtracts. Every field is monotonic except
/// `last_done`, a completion-time watermark that an interval delta carries
/// forward instead of subtracting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read accesses serviced.
    pub reads: u64,
    /// Write accesses serviced.
    pub writes: u64,
    /// Row activations (row-buffer misses).
    pub activates: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Total bytes transferred on the data buses.
    pub bytes: u64,
    /// Cycles any data bus was transferring (summed over channels).
    pub busy_cycles: Cycle,
    /// Requests delayed by a full per-channel queue.
    pub queue_stalls: u64,
    /// Sum of request latencies (submission to data completion).
    pub latency_sum: Cycle,
    /// Completion time of the latest request.
    pub last_done: Cycle,
    /// Cycles spent waiting for the bank's command pipeline (row cycles,
    /// tCCD, tRAS) summed over requests.
    pub bank_wait_sum: Cycle,
    /// Cycles data waited for a free data bus, summed over requests.
    pub bus_wait_sum: Cycle,
}

impl_snapshot!(DramStats {
    reads: Monotonic,
    writes: Monotonic,
    activates: Monotonic,
    row_hits: Monotonic,
    bytes: Monotonic,
    busy_cycles: Monotonic,
    queue_stalls: Monotonic,
    latency_sum: Monotonic,
    last_done: Watermark,
    bank_wait_sum: Monotonic,
    bus_wait_sum: Monotonic,
});

impl DramStats {
    /// Total accesses (reads + writes).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of accesses that hit an open row, or 0 if idle.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        ratio(self.row_hits, self.accesses())
    }

    /// Mean access latency in cycles, or 0 if idle.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        ratio(self.latency_sum, self.accesses())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_idle_device() {
        let s = DramStats::default();
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.accesses(), 0);
    }

    #[test]
    fn delta_subtracts_counters() {
        let early = DramStats {
            reads: 10,
            writes: 5,
            bytes: 100,
            ..DramStats::default()
        };
        let late = DramStats {
            reads: 30,
            writes: 15,
            bytes: 400,
            ..DramStats::default()
        };
        let d = dice_obs::delta(&late, &early);
        assert_eq!(d.reads, 20);
        assert_eq!(d.writes, 10);
        assert_eq!(d.bytes, 300);
    }

    #[test]
    fn delta_keeps_last_done_watermark() {
        let early = DramStats {
            last_done: 1_000,
            ..DramStats::default()
        };
        let late = DramStats {
            last_done: 9_000,
            ..DramStats::default()
        };
        assert_eq!(dice_obs::delta(&late, &early).last_done, 9_000);
    }
}
