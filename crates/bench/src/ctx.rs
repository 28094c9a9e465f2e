//! Experiment context: the scale and window settings every cell shares.

use dice_core::{FaultPlan, Organization};
use dice_obs::ObsConfig;
use dice_runner::Cell;
use dice_sim::{SimConfig, WorkloadSet};

/// Shared settings for one harness invocation. Experiments build their
/// cells' configurations through [`cfg`](Ctx::cfg); the runner simulates
/// the cells, and the renderers read the finished sweep.
pub struct Ctx {
    /// Footprint/capacity scale divisor (DESIGN.md §3; 256 by default for
    /// the harness, 16 for higher-fidelity runs, 1 = the paper's 1 GB).
    pub scale: u64,
    /// Warm-up records per core.
    pub warmup: u64,
    /// Measured records per core.
    pub measure: u64,
    /// Workload seed.
    pub seed: u64,
    /// Print progress lines to stderr as runs complete.
    pub verbose: bool,
    /// Observability knobs applied to every run built through [`cfg`].
    ///
    /// [`cfg`]: Ctx::cfg
    pub obs: ObsConfig,
    /// Invariant-audit period (demand records) applied to every run built
    /// through [`cfg`](Ctx::cfg); 0 disables auditing.
    pub audit_every: u64,
    /// Fault injector armed on every run built through
    /// [`cfg`](Ctx::cfg); `None` in normal operation.
    pub inject: Option<FaultPlan>,
}

impl Ctx {
    /// The harness default: a 1/256-scale system (4 MB L4) with windows
    /// long enough to warm the cache (~10 fills per set on GAP), sized so
    /// the full `all` sweep completes in ~20 minutes on one core.
    #[must_use]
    pub fn standard() -> Self {
        Self {
            scale: 256,
            warmup: 60_000,
            measure: 100_000,
            seed: 0xd1ce,
            verbose: true,
            obs: ObsConfig::default(),
            audit_every: 0,
            inject: None,
        }
    }

    /// A tiny context for unit tests.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            scale: 512,
            warmup: 2_000,
            measure: 5_000,
            verbose: false,
            ..Self::standard()
        }
    }

    /// Baseline [`SimConfig`] for `org` at this context's scale/windows.
    #[must_use]
    pub fn cfg(&self, org: Organization) -> SimConfig {
        let mut cfg = SimConfig::scaled(org, self.scale)
            .with_records(self.warmup, self.measure)
            .with_obs(self.obs)
            .with_audit(self.audit_every);
        cfg.inject = self.inject;
        cfg
    }

    /// A runner [`Cell`] for `cfg` on `wl` under `tag`.
    #[must_use]
    pub fn cell(&self, tag: &str, cfg: SimConfig, wl: &WorkloadSet) -> Cell {
        Cell::new(tag, cfg, wl.clone())
    }
}
