//! Simulation configuration (paper Table 2, with a scale knob).

use dice_cache::L3FetchPolicy;
use dice_compress::LINE_BYTES;
use dice_core::{DramCacheConfig, FaultPlan, Organization};
use dice_dram::DramConfig;
use dice_ingest::TraceBinding;
use dice_obs::ObsConfig;
use dice_workloads::WorkloadSpec;

use crate::Cycle;

/// The full-scale L3's capacity and associativity (Table 2).
const L3_BYTES: u64 = 8 << 20;
const L3_WAYS: u64 = 16;

/// The largest scale [`SimConfig::scaled`] can build: the divisor at
/// which its L3 keeps a single set.
const MAX_SCALE: u64 = L3_BYTES / (L3_WAYS * LINE_BYTES as u64);

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of cores (8 in the paper).
    pub cores: usize,
    /// Shared L3 capacity in bytes (8 MB in the paper).
    pub l3_bytes: usize,
    /// L3 associativity.
    pub l3_ways: usize,
    /// L3 hit latency in CPU cycles.
    pub l3_hit_latency: Cycle,
    /// DRAM-cache controller configuration.
    pub l4: DramCacheConfig,
    /// Stacked-DRAM timing for the L4.
    pub l4_dram: DramConfig,
    /// DDR timing for main memory.
    pub mem_dram: DramConfig,
    /// L3 fetch policy (Table 7 baselines).
    pub l3_fetch: L3FetchPolicy,
    /// Install the free pair line into L3 on compressed hits (§6.4); the
    /// `experiments ablation` table turns this off in one row.
    pub install_pair_in_l3: bool,
    /// Maximum outstanding L3-level accesses per core (memory-level
    /// parallelism window).
    pub mlp: usize,
    /// Cycles per non-memory instruction (0.25 = 4-wide issue).
    pub base_cpi: f64,
    /// Footprint scale divisor (the experiment harness defaults to 256;
    /// see DESIGN.md §3).
    pub scale: u64,
    /// Trace records per core during warm-up (not measured).
    pub warmup_records: u64,
    /// Trace records per core in the measured window.
    pub measure_records: u64,
    /// Observability knobs: interval time-series sampling and the
    /// transaction trace (see `dice_obs::ObsConfig`).
    pub obs: ObsConfig,
    /// Run the invariant auditor every this many demand records (0
    /// disables it). The audit is read-only on a healthy system, so an
    /// audited run produces results identical to an unaudited one; it
    /// only acts (set invalidate → refill) when corruption is found.
    pub audit_every: u64,
    /// Armed fault injector, `None` in normal operation. Feeds the
    /// runner's cache key via `Debug`, so injected runs never collide
    /// with clean ones.
    pub inject: Option<FaultPlan>,
}

impl SimConfig {
    /// The paper's full-scale configuration (1 GB L4, Table 2) with the
    /// given cache organization.
    #[must_use]
    pub fn paper(organization: Organization) -> Self {
        Self::scaled(organization, 1)
    }

    /// A 1/`scale` system: L4 and L3 capacities and workload footprints all
    /// divided by `scale`, keeping every ratio of the paper's configuration
    /// (`scale` must pass [`SimConfig::check_bounds`]).
    #[must_use]
    pub fn scaled(organization: Organization, scale: u64) -> Self {
        let l4_capacity = (1u64 << 30) / scale;
        Self {
            cores: 8,
            l3_bytes: (L3_BYTES / scale) as usize,
            l3_ways: L3_WAYS as usize,
            l3_hit_latency: 30,
            l4: DramCacheConfig::with_capacity(organization, l4_capacity),
            l4_dram: DramConfig::stacked_l4(),
            mem_dram: DramConfig::ddr_main(),
            l3_fetch: L3FetchPolicy::Demand,
            install_pair_in_l3: true,
            mlp: 16,
            base_cpi: 0.25,
            scale,
            warmup_records: 60_000,
            measure_records: 150_000,
            obs: ObsConfig::default(),
            audit_every: 0,
            inject: None,
        }
    }

    /// Checks a sweep's settings before any cell is built from them:
    /// `scale` must be a power of two that still leaves the L3 one set
    /// (at most 8192), and `measure` must be positive.
    ///
    /// # Errors
    ///
    /// The name of the first setting out of bounds (`scale` or
    /// `measure`), and what it must be.
    pub fn check_bounds(scale: u64, measure: u64) -> Result<(), (&'static str, String)> {
        if !scale.is_power_of_two() || scale > MAX_SCALE {
            let rule = format!("must be a power of two no larger than {MAX_SCALE}");
            return Err(("scale", rule));
        }
        if measure == 0 {
            return Err(("measure", "must be positive".to_owned()));
        }
        Ok(())
    }

    /// Doubles the L4 capacity (idealized "2x Capacity" comparison and
    /// Table 8 sensitivity).
    #[must_use]
    pub fn with_double_l4_capacity(mut self) -> Self {
        self.l4.capacity_bytes *= 2;
        self
    }

    /// Doubles the stacked-DRAM channel count ("2x BW").
    #[must_use]
    pub fn with_double_l4_bandwidth(mut self) -> Self {
        self.l4_dram = self.l4_dram.with_double_channels();
        self
    }

    /// Halves the stacked-DRAM latency (Table 8's "50% latency").
    #[must_use]
    pub fn with_half_l4_latency(mut self) -> Self {
        self.l4_dram = self.l4_dram.with_half_latency();
        self
    }

    /// Shorter warm-up/measure windows for unit tests.
    #[must_use]
    pub fn with_records(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup_records = warmup;
        self.measure_records = measure;
        self
    }

    /// Replaces the observability configuration.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Enables the invariant auditor every `every` demand records.
    #[must_use]
    pub fn with_audit(mut self, every: u64) -> Self {
        self.audit_every = every;
        self
    }

    /// Arms a fault injector.
    #[must_use]
    pub fn with_inject(mut self, plan: FaultPlan) -> Self {
        self.inject = Some(plan);
        self
    }
}

/// What each core runs.
#[derive(Debug, Clone)]
pub struct WorkloadSet {
    /// Per-core workload specs (rate mode repeats one spec). With a
    /// [`trace`](Self::trace) binding attached the specs still supply the
    /// *value model* (compressibility profile) while addresses and timing
    /// come from the recorded trace.
    pub specs: Vec<WorkloadSpec>,
    /// Seed for traces and data values.
    pub seed: u64,
    /// Human-readable name (workload column in the output tables).
    pub name: String,
    /// Recorded-trace binding: when set, per-core record streams come
    /// from the bound `.dtf` file (streamed with bounded memory, or
    /// preloaded) instead of the synthetic generator. The binding's
    /// `Debug` form — including the file's content hash — feeds the
    /// runner's cell fingerprint, so cached results key on the exact
    /// trace bytes.
    pub trace: Option<TraceBinding>,
}

impl WorkloadSet {
    /// Rate mode: all eight cores run copies of `spec` (§3.2).
    #[must_use]
    pub fn rate(spec: WorkloadSpec, seed: u64) -> Self {
        let name = spec.name.to_owned();
        Self {
            specs: vec![spec; 8],
            seed,
            name,
            trace: None,
        }
    }

    /// Mixed mode: one spec per core.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    #[must_use]
    pub fn mix(name: &str, specs: Vec<WorkloadSpec>, seed: u64) -> Self {
        assert!(!specs.is_empty(), "a workload set needs at least one spec");
        Self {
            specs,
            seed,
            name: name.to_owned(),
            trace: None,
        }
    }

    /// A recorded-trace workload: every core streams its records from
    /// `binding` (mapped `core % binding.cores()`), while `spec` provides
    /// the value/compressibility model and `seed` drives it.
    #[must_use]
    pub fn traced(name: &str, spec: WorkloadSpec, seed: u64, binding: TraceBinding) -> Self {
        Self {
            specs: vec![spec],
            seed,
            name: name.to_owned(),
            trace: Some(binding),
        }
    }

    /// Attaches (or clears) a recorded-trace binding.
    #[must_use]
    pub fn with_trace(mut self, binding: Option<TraceBinding>) -> Self {
        self.trace = binding;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_workloads::spec_table;

    #[test]
    fn scaled_divides_capacities() {
        let c = SimConfig::scaled(Organization::UncompressedAlloy, 16);
        assert_eq!(c.l4.capacity_bytes, (1 << 30) / 16);
        assert_eq!(c.l3_bytes, (8 << 20) / 16);
    }

    #[test]
    fn bounds_stop_at_a_one_set_l3() {
        let c = SimConfig::scaled(Organization::UncompressedAlloy, 8192);
        assert_eq!(c.l3_bytes, c.l3_ways * LINE_BYTES, "one L3 set");
        assert_eq!(SimConfig::check_bounds(8192, 1), Ok(()));
        let refused = |scale, measure| SimConfig::check_bounds(scale, measure).map_err(|e| e.0);
        for scale in [16384, 3, 0] {
            assert_eq!(refused(scale, 1), Err("scale"), "scale {scale}");
        }
        assert_eq!(refused(8192, 0), Err("measure"));
    }

    #[test]
    fn adjusters_compose() {
        let c = SimConfig::scaled(Organization::UncompressedAlloy, 16)
            .with_double_l4_capacity()
            .with_double_l4_bandwidth()
            .with_half_l4_latency();
        assert_eq!(c.l4.capacity_bytes, (1 << 30) / 8);
        assert_eq!(c.l4_dram.channels, 8);
        assert_eq!(c.l4_dram.t_cas, 22);
    }

    #[test]
    fn rate_replicates_spec() {
        let spec = spec_table().into_iter().next().unwrap();
        let wl = WorkloadSet::rate(spec, 1);
        assert_eq!(wl.specs.len(), 8);
        assert_eq!(wl.name, "mcf");
    }
}
