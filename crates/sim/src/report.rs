//! Measurement output of one simulation run.

use dice_cache::CacheStats;
use dice_core::{DecisionDiag, L4Stats};
use dice_dram::{DramStats, EnergyModel};
use dice_obs::{impl_snapshot, snapshot_from_json, snapshot_json, Json, LatencyPanel, TraceBuffer};

use crate::timeline::IntervalSample;
use crate::Cycle;

/// Energy accounting for the off-chip system (L4 + memory), the quantities
/// behind Figure 14.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Stacked-DRAM (L4) energy in joules over the measured window.
    pub l4_joules: f64,
    /// DDR main-memory energy in joules.
    pub mem_joules: f64,
    /// Measured window length in cycles.
    pub cycles: Cycle,
}

impl EnergyReport {
    /// Total off-chip energy.
    #[must_use]
    pub fn total_joules(&self) -> f64 {
        self.l4_joules + self.mem_joules
    }

    /// Average power in watts (3.2 GHz clock).
    #[must_use]
    pub fn power_watts(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total_joules() / (self.cycles as f64 / 3.2e9)
        }
    }

    /// Energy-delay product in joule-seconds.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.total_joules() * self.cycles as f64 / 3.2e9
    }
}

/// Integrity-layer accounting for one run: auditor activity, detected
/// invariant violations, and the recovery work they triggered. All zeros
/// on a healthy run (or when `SimConfig::audit_every` is 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrityReport {
    /// Number of auditor sweeps executed.
    pub audits: u64,
    /// Invariant violations detected across all sweeps.
    pub violations: u64,
    /// L4 sets invalidated (and later refilled on demand) to recover.
    pub l4_sets_refilled: u64,
    /// L3 lines dropped by scrubbing corrupted SRAM sets.
    pub l3_lines_dropped: u64,
    /// Faults deliberately injected by an armed `FaultPlan`.
    pub faults_injected: u64,
}

impl_snapshot!(IntegrityReport {
    audits: Monotonic,
    violations: Monotonic,
    l4_sets_refilled: Monotonic,
    l3_lines_dropped: Monotonic,
    faults_injected: Monotonic,
});

/// Cycle attribution of the measured window by request phase: how long
/// completed L4 transactions spent probing tags on misses, delivering hit
/// data, installing fills and servicing writebacks. Phases overlap across
/// concurrent requests, so the sum can exceed the window's wall-clock
/// cycles — the split shows *where* DRAM-cache time goes, not a partition
/// of the clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Cycles from demand issue to the probe that resolved a miss.
    pub tag_probe_cycles: u64,
    /// Cycles from demand issue to hit-data delivery.
    pub data_transfer_cycles: u64,
    /// Cycles spent executing fill-install probe sequences.
    pub fill_cycles: u64,
    /// Cycles spent executing writeback probe sequences.
    pub writeback_cycles: u64,
}

impl_snapshot!(PhaseCycles {
    tag_probe_cycles: Monotonic,
    data_transfer_cycles: Monotonic,
    fill_cycles: Monotonic,
    writeback_cycles: Monotonic,
});

/// Decision diagnostics of one run, present only when the run executed
/// with [`dice_obs::TraceLevel`] above `Off`. Serialization is the gated
/// part: the underlying counters cost nothing to maintain, but a
/// `TraceLevel::Off` report omits this whole object so its JSON stays
/// byte-identical to pre-diagnostics builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDiag {
    /// Controller decision counters (confusion matrices, hit attribution,
    /// bandwidth bloat) over the whole run — warmup included, matching
    /// the scope of `cip_accuracy`.
    pub decisions: DecisionDiag,
    /// Per-phase cycle attribution over the measured window only.
    pub phases: PhaseCycles,
}

impl RunDiag {
    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("decisions".into(), snapshot_json(&self.decisions)),
            ("phases".into(), snapshot_json(&self.phases)),
        ])
    }

    fn from_json(j: &Json) -> Option<Self> {
        Some(Self {
            decisions: snapshot_from_json(j.get("decisions")?)?,
            phases: snapshot_from_json(j.get("phases")?)?,
        })
    }
}

/// Everything measured in one run's post-warm-up window.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Cycles to complete the measured window (max over cores).
    pub cycles: Cycle,
    /// Instructions retired per core.
    pub core_instructions: Vec<u64>,
    /// Finish cycle per core.
    pub core_cycles: Vec<Cycle>,
    /// Shared L3 statistics.
    pub l3: CacheStats,
    /// DRAM-cache controller statistics.
    pub l4: L4Stats,
    /// Stacked-DRAM device statistics.
    pub l4_dram: DramStats,
    /// Main-memory device statistics.
    pub mem_dram: DramStats,
    /// CIP read-predictor accuracy over the whole run.
    pub cip_accuracy: f64,
    /// Number of scored CIP predictions.
    pub cip_predictions: u64,
    /// MAP-I accuracy over the whole run.
    pub mapi_accuracy: f64,
    /// Mean resident lines (sampled), for Table 5's effective capacity.
    pub avg_valid_lines: f64,
    /// Mean number of sets holding at least one line (sampled).
    pub avg_occupied_sets: f64,
    /// Baseline line capacity (number of sets).
    pub baseline_lines: u64,
    /// Off-chip energy.
    pub energy: EnergyReport,
    /// Auditor/fault-injection accounting (all zeros on a clean run).
    pub integrity: IntegrityReport,
    /// Per-request-class latency histograms over the measured window.
    pub latency: LatencyPanel,
    /// Interval time series over the measured window (empty when interval
    /// sampling is disabled).
    pub timeline: Vec<IntervalSample>,
    /// Transaction trace ring (empty unless `ObsConfig::trace_capacity`
    /// was set); export with [`TraceBuffer::export_chrome`].
    pub trace: TraceBuffer,
    /// Decision diagnostics; `None` unless the run's
    /// `ObsConfig::trace_level` was above `Off`.
    pub diag: Option<RunDiag>,
}

impl RunReport {
    /// Per-core IPC over the measured window.
    #[must_use]
    pub fn core_ipc(&self) -> Vec<f64> {
        self.core_instructions
            .iter()
            .zip(&self.core_cycles)
            .map(|(&i, &c)| if c == 0 { 0.0 } else { i as f64 / c as f64 })
            .collect()
    }

    /// Weighted speedup relative to `base` (§3.2): the mean of per-core
    /// IPC ratios.
    #[must_use]
    pub fn weighted_speedup(&self, base: &RunReport) -> f64 {
        let a = self.core_ipc();
        let b = base.core_ipc();
        let n = a.len().min(b.len());
        a.iter()
            .zip(&b)
            .take(n)
            .map(|(x, y)| if *y == 0.0 { 1.0 } else { x / y })
            .sum::<f64>()
            / n as f64
    }

    /// Effective capacity ratio (Table 5): mean resident lines per
    /// *occupied* set. The paper samples valid lines of a fully warm 1 GB
    /// cache; at simulation scale not every set has been touched yet, so
    /// normalizing by occupied sets estimates the same steady-state packing
    /// density without the fill-progress bias.
    #[must_use]
    pub fn capacity_ratio(&self) -> f64 {
        if self.avg_occupied_sets <= 0.0 {
            0.0
        } else {
            self.avg_valid_lines / self.avg_occupied_sets
        }
    }

    /// Serializes the whole report — identity, counters (via the
    /// `dice_obs` snapshot mechanism, so new stats fields appear
    /// automatically), derived metrics, per-class latency quantiles, the
    /// interval time series and energy — as one JSON object.
    ///
    /// The export is **lossless**: [`from_json`] rebuilds a report whose
    /// every field (and therefore its own `to_json` rendering) matches the
    /// original byte for byte. That property is what lets `dice-runner`
    /// persist reports to an on-disk cache and replay them into identical
    /// artifacts.
    ///
    /// [`from_json`]: RunReport::from_json
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut out = Json::Obj(vec![
            ("workload".into(), Json::str(&self.workload)),
            ("cycles".into(), Json::u64(self.cycles)),
            (
                "core_instructions".into(),
                Json::Arr(
                    self.core_instructions
                        .iter()
                        .map(|&i| Json::u64(i))
                        .collect(),
                ),
            ),
            (
                "core_cycles".into(),
                Json::Arr(self.core_cycles.iter().map(|&c| Json::u64(c)).collect()),
            ),
            (
                "core_ipc".into(),
                Json::Arr(self.core_ipc().iter().map(|&v| Json::num(v)).collect()),
            ),
            ("l3".into(), snapshot_json(&self.l3)),
            ("l4".into(), snapshot_json(&self.l4)),
            ("l4_dram".into(), snapshot_json(&self.l4_dram)),
            ("mem_dram".into(), snapshot_json(&self.mem_dram)),
            ("l3_hit_rate".into(), Json::num(self.l3.hit_rate())),
            ("l4_hit_rate".into(), Json::num(self.l4.hit_rate())),
            ("cip_accuracy".into(), Json::num(self.cip_accuracy)),
            ("cip_predictions".into(), Json::u64(self.cip_predictions)),
            ("mapi_accuracy".into(), Json::num(self.mapi_accuracy)),
            ("avg_valid_lines".into(), Json::num(self.avg_valid_lines)),
            (
                "avg_occupied_sets".into(),
                Json::num(self.avg_occupied_sets),
            ),
            ("baseline_lines".into(), Json::u64(self.baseline_lines)),
            ("capacity_ratio".into(), Json::num(self.capacity_ratio())),
            (
                "energy".into(),
                Json::Obj(vec![
                    ("l4_joules".into(), Json::num(self.energy.l4_joules)),
                    ("mem_joules".into(), Json::num(self.energy.mem_joules)),
                    ("total_joules".into(), Json::num(self.energy.total_joules())),
                    ("power_watts".into(), Json::num(self.energy.power_watts())),
                    ("cycles".into(), Json::u64(self.energy.cycles)),
                ]),
            ),
            ("integrity".into(), snapshot_json(&self.integrity)),
            ("latency".into(), self.latency.to_json()),
            (
                "timeline".into(),
                Json::Arr(self.timeline.iter().map(IntervalSample::to_json).collect()),
            ),
            ("trace".into(), self.trace.to_json()),
        ]);
        // The diag key exists only on diagnostics-enabled runs, keeping
        // TraceLevel::Off output byte-identical to pre-diagnostics builds.
        if let (Json::Obj(pairs), Some(diag)) = (&mut out, &self.diag) {
            pairs.push(("diag".into(), diag.to_json()));
        }
        out
    }

    /// Rebuilds a report from [`to_json`] output. Derived quantities
    /// (IPC, hit rates, capacity ratio, energy totals) are recomputed from
    /// the primary fields, so `from_json(j).to_json()` re-renders `j`
    /// byte-identically. Returns `None` for malformed or truncated
    /// documents — the persistent cache treats that as a miss, never a
    /// panic.
    ///
    /// [`to_json`]: RunReport::to_json
    #[must_use]
    pub fn from_json(j: &Json) -> Option<RunReport> {
        fn u64_vec(v: &Json) -> Option<Vec<u64>> {
            v.as_arr()?.iter().map(Json::as_u64).collect()
        }
        let energy = j.get("energy")?;
        Some(RunReport {
            workload: j.get("workload")?.as_str()?.to_owned(),
            cycles: j.get("cycles")?.as_u64()?,
            core_instructions: u64_vec(j.get("core_instructions")?)?,
            core_cycles: u64_vec(j.get("core_cycles")?)?,
            l3: snapshot_from_json(j.get("l3")?)?,
            l4: snapshot_from_json(j.get("l4")?)?,
            l4_dram: snapshot_from_json(j.get("l4_dram")?)?,
            mem_dram: snapshot_from_json(j.get("mem_dram")?)?,
            cip_accuracy: j.get("cip_accuracy")?.as_f64()?,
            cip_predictions: j.get("cip_predictions")?.as_u64()?,
            mapi_accuracy: j.get("mapi_accuracy")?.as_f64()?,
            avg_valid_lines: j.get("avg_valid_lines")?.as_f64()?,
            avg_occupied_sets: j.get("avg_occupied_sets")?.as_f64()?,
            baseline_lines: j.get("baseline_lines")?.as_u64()?,
            energy: EnergyReport {
                l4_joules: energy.get("l4_joules")?.as_f64()?,
                mem_joules: energy.get("mem_joules")?.as_f64()?,
                cycles: energy.get("cycles")?.as_u64()?,
            },
            integrity: snapshot_from_json(j.get("integrity")?)?,
            latency: LatencyPanel::from_json(j.get("latency")?)?,
            timeline: j
                .get("timeline")?
                .as_arr()?
                .iter()
                .map(IntervalSample::from_json)
                .collect::<Option<Vec<_>>>()?,
            trace: TraceBuffer::from_json(j.get("trace")?)?,
            // Tolerant read: pre-diagnostics documents (and Off-level
            // runs) simply have no diag key.
            diag: j.get("diag").and_then(RunDiag::from_json),
        })
    }

    /// Builds the energy report from device stats and models.
    pub(crate) fn energy_of(
        l4_stats: &DramStats,
        mem_stats: &DramStats,
        cycles: Cycle,
    ) -> EnergyReport {
        EnergyReport {
            l4_joules: EnergyModel::stacked().total_energy(l4_stats, cycles),
            mem_joules: EnergyModel::ddr().total_energy(mem_stats, cycles),
            cycles,
        }
    }
}

/// Geometric mean of a slice of ratios (the paper's averaging rule).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(instr: u64, cycles: Cycle) -> RunReport {
        RunReport {
            workload: "t".into(),
            cycles,
            core_instructions: vec![instr; 4],
            core_cycles: vec![cycles; 4],
            l3: CacheStats::default(),
            l4: L4Stats::default(),
            l4_dram: DramStats::default(),
            mem_dram: DramStats::default(),
            cip_accuracy: 1.0,
            cip_predictions: 0,
            mapi_accuracy: 1.0,
            avg_valid_lines: 0.0,
            avg_occupied_sets: 1.0,
            baseline_lines: 100,
            energy: EnergyReport {
                l4_joules: 1.0,
                mem_joules: 2.0,
                cycles,
            },
            integrity: IntegrityReport::default(),
            latency: LatencyPanel::new(),
            timeline: Vec::new(),
            trace: TraceBuffer::default(),
            diag: None,
        }
    }

    #[test]
    fn weighted_speedup_of_identical_runs_is_one() {
        let r = report(1000, 500);
        assert!((r.weighted_speedup(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn faster_run_speeds_up() {
        let slow = report(1000, 1000);
        let fast = report(1000, 500);
        assert!((fast.weighted_speedup(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_totals_and_edp() {
        let e = EnergyReport {
            l4_joules: 1.0,
            mem_joules: 2.0,
            cycles: 3_200_000_000,
        };
        assert!((e.total_joules() - 3.0).abs() < 1e-12);
        assert!((e.power_watts() - 3.0).abs() < 1e-12);
        assert!((e.edp() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        let mut r = report(1000, 500);
        r.l4.reads = 42;
        r.l4.read_hits = 17;
        r.mem_dram.bytes = 4096;
        r.cip_accuracy = 0.9381;
        r.avg_valid_lines = 123.456;
        r.integrity.audits = 9;
        r.integrity.violations = 2;
        r.integrity.l4_sets_refilled = 2;
        r.latency.record(dice_obs::RequestClass::ReadHit, 44);
        r.latency.record(dice_obs::RequestClass::ReadMiss, 301);
        let text = r.to_json().render();
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().render(), text);
        assert_eq!(back.cycles, r.cycles);
        assert_eq!(back.core_cycles, r.core_cycles);
        assert_eq!(back.l4.read_hits, 17);
        assert_eq!(back.integrity, r.integrity);
        assert!((back.weighted_speedup(&r) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diag_round_trips_and_off_reports_omit_the_key() {
        let off = report(10, 5);
        assert!(!off.to_json().render().contains("\"diag\""));

        let mut on = report(10, 5);
        on.diag = Some(RunDiag {
            decisions: DecisionDiag {
                cip_read_bai_bai: 7,
                cip_fill_tsi_tsi: 3,
                bytes_moved: 800,
                bytes_needed: 640,
                ..DecisionDiag::default()
            },
            phases: PhaseCycles {
                tag_probe_cycles: 11,
                data_transfer_cycles: 22,
                fill_cycles: 33,
                writeback_cycles: 44,
            },
        });
        let text = on.to_json().render();
        assert!(text.contains("\"diag\""));
        let back = RunReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.diag, on.diag);
        assert_eq!(back.to_json().render(), text);
        // An old-format document (no diag key) still loads.
        let old = RunReport::from_json(&Json::parse(&off.to_json().render()).unwrap()).unwrap();
        assert_eq!(old.diag, None);
    }

    #[test]
    fn from_json_rejects_truncated_documents() {
        let r = report(10, 5);
        let Json::Obj(mut pairs) = r.to_json() else {
            panic!("report serializes as an object")
        };
        pairs.retain(|(k, _)| k != "l4");
        assert!(RunReport::from_json(&Json::Obj(pairs)).is_none());
        assert!(RunReport::from_json(&Json::Null).is_none());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 0.5]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
