//! The deterministic fault-injection matrix.
//!
//! Each [`FaultKind`] names one way the simulation stack can be corrupted
//! on demand, paired with the layer that must detect it or degrade
//! gracefully:
//!
//! | kind            | injected where                  | expected handling        |
//! |-----------------|---------------------------------|--------------------------|
//! | `TagFlip`       | resident L4 tag bit             | auditor → set refilled   |
//! | `SizeLie`       | compressed-size oracle on fills | auditor → set refilled   |
//! | `GarbledTrace`  | `.dtf` trace frame body         | typed parse error        |
//! | `PoisonedCache` | runner result-cache entry       | cache miss, re-simulate  |
//! | `CellPanic`     | mid-simulation panic            | isolated failed cell     |
//! | `CellTimeout`   | cell exceeds wall-clock budget  | `TimedOut`, sweep lives  |
//!
//! All injectors are pure functions of a seed, so every faulty run is
//! reproducible. The enum lives in `dice-core` so `dice-sim` can embed a
//! [`FaultPlan`] in its config (feeding the runner's cache key) while the
//! runner and CLI parse `--inject` flags against the same names.

use std::fmt;

/// One injector from the fault matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip a bit inside a resident L4 tag.
    TagFlip,
    /// Under-report compressed sizes on the fill path.
    SizeLie,
    /// Corrupt a `.dtf` trace frame.
    GarbledTrace,
    /// Corrupt on-disk runner cache entries.
    PoisonedCache,
    /// Panic in the middle of a simulation cell.
    CellPanic,
    /// Make a cell exceed its wall-clock budget.
    CellTimeout,
}

impl FaultKind {
    /// Every injector, in matrix order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::TagFlip,
        FaultKind::SizeLie,
        FaultKind::GarbledTrace,
        FaultKind::PoisonedCache,
        FaultKind::CellPanic,
        FaultKind::CellTimeout,
    ];

    /// Stable CLI name (`tag-flip`, `size-lie`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TagFlip => "tag-flip",
            FaultKind::SizeLie => "size-lie",
            FaultKind::GarbledTrace => "garbled-trace",
            FaultKind::PoisonedCache => "poisoned-cache",
            FaultKind::CellPanic => "cell-panic",
            FaultKind::CellTimeout => "cell-timeout",
        }
    }

    /// Parses a CLI name back into a kind.
    #[must_use]
    pub fn parse(name: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A seeded injection request, embeddable in simulator configs. The
/// `Debug` rendering feeds the runner's cache key, so injected runs never
/// collide with clean ones in the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Which injector to arm.
    pub kind: FaultKind,
    /// Seed making the injection deterministic.
    pub seed: u64,
}

impl FaultPlan {
    /// An injection plan with the workspace's default seed.
    #[must_use]
    pub fn seeded(kind: FaultKind) -> Self {
        Self { kind, seed: 0xD1CE }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.name()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(FaultKind::parse("frobnicate"), None);
    }

    #[test]
    fn plan_debug_feeds_cache_keys() {
        let a = format!("{:?}", FaultPlan::seeded(FaultKind::TagFlip));
        let b = format!("{:?}", FaultPlan::seeded(FaultKind::SizeLie));
        assert_ne!(a, b);
    }
}
