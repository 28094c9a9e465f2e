//! DICE decision diagnostics: CIP confusion matrices, per-policy probe
//! attribution and bandwidth-bloat accounting.
//!
//! The paper's claims live in *decisions* — CIP predicting BAI vs TSI,
//! compressed lines fitting the 36 B threshold, mispredictions paying
//! second probes — and the flat [`L4Stats`](crate::L4Stats) counters do
//! not say *why* traffic happened. [`DecisionDiag`] attributes it:
//!
//! * **Read confusion** (`cip_read_*`): scored CIP predictions, predicted
//!   scheme × the scheme the line was actually found under. The diagonal
//!   is exactly the predictor's `correct` counter and the matrix total is
//!   exactly its `predictions` counter (property-tested).
//! * **Fill confusion** (`cip_fill_*`): at every CIP-consulted fill
//!   (DICE, non-invariant line), the LTT's prediction at that moment × the
//!   actual install decision (compressed size ≤ threshold ⇒ BAI). Row
//!   sums therefore total the CIP-consulted fills.
//! * **Hit attribution**: where demand reads resolved (BAI set, TSI set,
//!   invariant set) and how many needed a second probe, split by read and
//!   write paths.
//! * **Bandwidth bloat**: bytes moved on the stacked-DRAM bus versus the
//!   64 B payload each demand transfer actually needed, with the bloat
//!   split by cause (second probes vs read-modify-write reads; the
//!   remainder is tag/format overhead).
//!
//! The counters are plain `u64`s updated unconditionally on the
//! controller's paths — no allocation, no branches — so the
//! allocation-free hot-path guarantee holds regardless of trace level.
//! The `TraceLevel` knob gates *reporting*: a run at `TraceLevel::Off`
//! never serializes this struct, keeping its artifacts byte-identical to
//! pre-diagnostics builds.

use dice_obs::{impl_snapshot, ratio};

use crate::indexing::IndexScheme;

/// Decision-level counters for one DRAM-cache controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionDiag {
    /// Scored reads: predicted BAI, found under BAI.
    pub cip_read_bai_bai: u64,
    /// Scored reads: predicted BAI, found under TSI (second probe).
    pub cip_read_bai_tsi: u64,
    /// Scored reads: predicted TSI, found under BAI (second probe).
    pub cip_read_tsi_bai: u64,
    /// Scored reads: predicted TSI, found under TSI.
    pub cip_read_tsi_tsi: u64,
    /// CIP-consulted fills: LTT said BAI, line fit ≤ threshold (BAI).
    pub cip_fill_bai_bai: u64,
    /// CIP-consulted fills: LTT said BAI, line did not fit (TSI).
    pub cip_fill_bai_tsi: u64,
    /// CIP-consulted fills: LTT said TSI, line fit ≤ threshold (BAI).
    pub cip_fill_tsi_bai: u64,
    /// CIP-consulted fills: LTT said TSI, line did not fit (TSI).
    pub cip_fill_tsi_tsi: u64,
    /// Demand reads that hit a BAI-indexed location.
    pub hits_at_bai: u64,
    /// Demand reads that hit a TSI-indexed location.
    pub hits_at_tsi: u64,
    /// Demand reads that hit an invariant location (TSI == BAI).
    pub hits_invariant: u64,
    /// Demand reads that missed every candidate location.
    pub read_misses: u64,
    /// Second set probes paid on the read path.
    pub second_probe_reads: u64,
    /// Second set probes paid on the writeback path.
    pub second_probe_writes: u64,
    /// Total bytes moved on the stacked-DRAM bus by this controller's
    /// probes (reads, fills and writebacks).
    pub bytes_moved: u64,
    /// Bytes the demand transfers actually needed (64 per hit data
    /// delivery, install write and writeback write).
    pub bytes_needed: u64,
    /// Bloat bytes attributable to second probes (read + write paths).
    pub bloat_second_probe_bytes: u64,
    /// Bloat bytes attributable to read-modify-write reads on fills and
    /// writebacks of compressed sets.
    pub bloat_rmw_bytes: u64,
}

impl_snapshot!(DecisionDiag {
    cip_read_bai_bai: Monotonic,
    cip_read_bai_tsi: Monotonic,
    cip_read_tsi_bai: Monotonic,
    cip_read_tsi_tsi: Monotonic,
    cip_fill_bai_bai: Monotonic,
    cip_fill_bai_tsi: Monotonic,
    cip_fill_tsi_bai: Monotonic,
    cip_fill_tsi_tsi: Monotonic,
    hits_at_bai: Monotonic,
    hits_at_tsi: Monotonic,
    hits_invariant: Monotonic,
    read_misses: Monotonic,
    second_probe_reads: Monotonic,
    second_probe_writes: Monotonic,
    bytes_moved: Monotonic,
    bytes_needed: Monotonic,
    bloat_second_probe_bytes: Monotonic,
    bloat_rmw_bytes: Monotonic,
});

impl DecisionDiag {
    /// Records one scored read prediction (predicted scheme × where the
    /// line was found).
    pub(crate) fn record_read(&mut self, predicted: IndexScheme, actual: IndexScheme) {
        match (predicted, actual) {
            (IndexScheme::Bai, IndexScheme::Bai) => self.cip_read_bai_bai += 1,
            (IndexScheme::Bai, IndexScheme::Tsi) => self.cip_read_bai_tsi += 1,
            (IndexScheme::Tsi, IndexScheme::Bai) => self.cip_read_tsi_bai += 1,
            (IndexScheme::Tsi, IndexScheme::Tsi) => self.cip_read_tsi_tsi += 1,
        }
    }

    /// Records one CIP-consulted fill (LTT prediction × install decision).
    pub(crate) fn record_fill(&mut self, predicted: IndexScheme, actual: IndexScheme) {
        match (predicted, actual) {
            (IndexScheme::Bai, IndexScheme::Bai) => self.cip_fill_bai_bai += 1,
            (IndexScheme::Bai, IndexScheme::Tsi) => self.cip_fill_bai_tsi += 1,
            (IndexScheme::Tsi, IndexScheme::Bai) => self.cip_fill_tsi_bai += 1,
            (IndexScheme::Tsi, IndexScheme::Tsi) => self.cip_fill_tsi_tsi += 1,
        }
    }

    /// Attributes a resolved demand hit to its index scheme.
    pub(crate) fn record_hit(&mut self, scheme: IndexScheme) {
        match scheme {
            IndexScheme::Bai => self.hits_at_bai += 1,
            IndexScheme::Tsi => self.hits_at_tsi += 1,
        }
    }

    /// Total scored read predictions (sum of the read confusion matrix).
    #[must_use]
    pub fn read_predictions(&self) -> u64 {
        self.cip_read_bai_bai
            + self.cip_read_bai_tsi
            + self.cip_read_tsi_bai
            + self.cip_read_tsi_tsi
    }

    /// Correct scored read predictions (the read matrix diagonal).
    #[must_use]
    pub fn read_correct(&self) -> u64 {
        self.cip_read_bai_bai + self.cip_read_tsi_tsi
    }

    /// Total CIP-consulted fills (sum of the fill confusion matrix rows).
    #[must_use]
    pub fn consulted_fills(&self) -> u64 {
        self.cip_fill_bai_bai
            + self.cip_fill_bai_tsi
            + self.cip_fill_tsi_bai
            + self.cip_fill_tsi_tsi
    }

    /// Read-prediction accuracy (0.0 when idle, per the workspace-wide
    /// convention of [`dice_obs::ratio`]).
    #[must_use]
    pub fn read_accuracy(&self) -> f64 {
        ratio(self.read_correct(), self.read_predictions())
    }

    /// Fill-time agreement between the LTT and the size-based install
    /// rule (0.0 when no fills were consulted).
    #[must_use]
    pub fn fill_agreement(&self) -> f64 {
        ratio(
            self.cip_fill_bai_bai + self.cip_fill_tsi_tsi,
            self.consulted_fills(),
        )
    }

    /// Bloat bytes: moved minus needed (0 when the bus moved no more than
    /// the demand payloads).
    #[must_use]
    pub fn bloat_bytes(&self) -> u64 {
        self.bytes_moved.saturating_sub(self.bytes_needed)
    }

    /// Bloat not explained by second probes or RMW reads — the tag/format
    /// transfer overhead (80 B or 72 B bursts carrying 64 B payloads) plus
    /// miss-probe traffic that delivered no payload.
    #[must_use]
    pub fn bloat_tag_overhead_bytes(&self) -> u64 {
        self.bloat_bytes()
            .saturating_sub(self.bloat_second_probe_bytes + self.bloat_rmw_bytes)
    }

    /// Bytes-moved to bytes-needed ratio (0.0 when idle).
    #[must_use]
    pub fn bloat_factor(&self) -> f64 {
        if self.bytes_needed == 0 {
            0.0
        } else {
            self.bytes_moved as f64 / self.bytes_needed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use dice_obs::Snapshot;

    use super::*;

    #[test]
    fn rates_when_idle() {
        // Idle convention: a denominator of zero reads as a 0.0 rate,
        // never NaN and never an optimistic 1.0.
        let d = DecisionDiag::default();
        assert_eq!(d.read_accuracy(), 0.0);
        assert_eq!(d.fill_agreement(), 0.0);
        assert_eq!(d.bloat_factor(), 0.0);
        assert_eq!(d.bloat_bytes(), 0);
        assert_eq!(d.bloat_tag_overhead_bytes(), 0);
    }

    #[test]
    fn matrices_sum_and_diagonalize() {
        let mut d = DecisionDiag::default();
        d.record_read(IndexScheme::Bai, IndexScheme::Bai);
        d.record_read(IndexScheme::Bai, IndexScheme::Tsi);
        d.record_read(IndexScheme::Tsi, IndexScheme::Tsi);
        d.record_fill(IndexScheme::Tsi, IndexScheme::Bai);
        assert_eq!(d.read_predictions(), 3);
        assert_eq!(d.read_correct(), 2);
        assert!((d.read_accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.consulted_fills(), 1);
        assert_eq!(d.fill_agreement(), 0.0);
    }

    #[test]
    fn bloat_split_accounts_residual_to_tags() {
        let d = DecisionDiag {
            bytes_moved: 1000,
            bytes_needed: 640,
            bloat_second_probe_bytes: 160,
            bloat_rmw_bytes: 80,
            ..DecisionDiag::default()
        };
        assert_eq!(d.bloat_bytes(), 360);
        assert_eq!(d.bloat_tag_overhead_bytes(), 120);
        assert!((d.bloat_factor() - 1000.0 / 640.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_fields_cover_the_struct() {
        assert_eq!(DecisionDiag::FIELDS.len(), 18);
        let mut d = DecisionDiag::default();
        for i in 0..DecisionDiag::FIELDS.len() {
            d.set_field(i, i as u64 + 1);
        }
        assert_eq!(dice_obs::delta(&d, &DecisionDiag::default()), d);
    }
}
