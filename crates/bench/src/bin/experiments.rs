//! Regenerates every table and figure of the DICE paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dice-bench --bin experiments -- <id> [flags]
//!
//! ids:   fig1f fig4 fig7 fig10 fig11 fig12 fig13 fig14 fig15
//!        tab4 tab5 tab6 tab7 tab8 cip ablation ingest all
//! flags: --list         print the experiment id/description catalog as
//!                       JSON (the same bytes `dice-serve` serves at
//!                       /v1/experiments) and exit
//!        --scale N      footprint/capacity divisor, a power of two up
//!                       to 8192 (default 256)
//!        --warmup N     warm-up records per core (default 60000)
//!        --measure N    measured records per core, positive (default
//!                       100000)
//!        --seed N       workload seed
//!        --jobs N       simulate cells on N worker threads (default: all
//!                       cores); results are identical for any N
//!        --cache-dir P  persist finished cells under P and skip them on
//!                       re-runs (safe to delete; survives interrupts)
//!        --quiet        suppress per-run progress on stderr
//!        --json PATH    write every run's full report (counters, per-class
//!                       latency quantiles, interval time series) as JSON
//!        --trace PATH   capture per-run transaction traces and write them
//!                       as one Chrome trace_event file (open in Perfetto)
//!        --audit N      run the invariant auditor every N demand records
//!                       (read-only on a healthy system: results are
//!                       identical to an unaudited run)
//!        --inject KIND  arm a deterministic fault injector: tag-flip,
//!                       size-lie, garbled-trace, poisoned-cache,
//!                       cell-panic or cell-timeout (pair with --audit to
//!                       watch detection and recovery)
//!        --cell-timeout S  per-cell wall-clock budget in seconds, positive,
//!                       fractions allowed; cells over budget report as
//!                       timed out, the sweep goes on
//!        --retries N    retry a panicked cell up to N times before
//!                       recording it as failed
//!        --diagnostics  run every cell at TraceLevel::Decisions and append
//!                       per-run decision diagnostics (CIP confusion
//!                       matrices, bandwidth-bloat split, phase cycles)
//!                       after the experiment tables
//! ```
//!
//! Each experiment first *declares* its `(config, workload)` cells; the
//! `dice-runner` engine simulates the deduplicated union in parallel
//! (memoizing into `--cache-dir` if given), and only then do the render
//! functions format tables from the finished sweep. A renderer simulates
//! nothing: it reads runs by `(tag, workload)`, and a cell that failed or
//! that no experiment declared fails that experiment. A cell or figure
//! that panics is reported and skipped — the rest of the sweep still
//! completes, and the process exits nonzero. A malformed flag, or a zero
//! `--jobs` or `--cell-timeout`, exits 2 with one stderr line naming it
//! before any cell is declared.
//!
//! Absolute numbers differ from the paper (different substrate, synthetic
//! workloads, scaled system — see DESIGN.md §3); the comparisons within
//! each experiment are the reproduction target.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use dice_bench::workloads::{all26, group_geomeans, nonmem, Group};
use dice_bench::{Ctx, Table, EXPERIMENT_CATALOG};
use dice_compress::{compressed_size, pair_compressed_size};
use dice_core::{DramCacheConfig, Organization, TagVariant};
use dice_ingest::{DtfWriter, TraceBinding};
use dice_obs::cli::{Flags, Unit};
use dice_obs::{DiceError, Json, TraceLevel};
use dice_runner::{Cell, Runner, RunnerConfig, SweepResult};
use dice_sim::{geomean, RunReport, SimConfig, WorkloadSet};
use dice_workloads::{spec_table, DataModel, TraceGen, TraceRecord, WorkloadSpec};

fn pct(x: f64) -> String {
    format!("{:+.1}%", (x - 1.0) * 100.0)
}

fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

const DICE: Organization = Organization::Dice { threshold: 36 };

/// One experiment: an id, the cells it needs simulated, and a renderer
/// that formats the finished sweep. `cells` is declared up front so the
/// runner can schedule the union of a whole sweep; `render` only reads
/// that sweep, through [`report`].
struct Experiment {
    id: &'static str,
    cells: fn(&Ctx) -> Vec<Cell>,
    render: fn(&Ctx, &SweepResult) -> String,
}

/// The report of cell `tag` on `workload` in the finished sweep.
///
/// # Panics
///
/// Panics with the runner's account of a cell that failed, timed out or
/// was never declared; the caller reports that against the experiment.
fn report<'a>(sweep: &'a SweepResult, tag: &str, workload: &str) -> &'a RunReport {
    sweep
        .report(tag, workload)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Every paper artifact, in `all`'s presentation order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig4",
        cells: |_| Vec::new(), // pure compression sampling, no simulation
        render: fig4,
    },
    Experiment {
        id: "fig1f",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &fig1f_variants()),
        render: fig1f,
    },
    Experiment {
        id: "fig7",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &fig7_variants()),
        render: fig7,
    },
    Experiment {
        id: "fig10",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &fig10_variants()),
        render: fig10,
    },
    Experiment {
        id: "fig11",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &fig11_variants()),
        render: fig11,
    },
    Experiment {
        id: "fig12",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &fig12_variants()),
        render: fig12,
    },
    Experiment {
        id: "fig13",
        cells: |ctx| cells(ctx, &nonmem(ctx.seed), &fig13_variants()),
        render: fig13,
    },
    Experiment {
        id: "fig14",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &compressed_variants()),
        render: fig14,
    },
    Experiment {
        id: "fig15",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &fig15_variants()),
        render: fig15,
    },
    Experiment {
        id: "tab4",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &tab4_variants()),
        render: tab4,
    },
    Experiment {
        id: "tab5",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &tab5_variants()),
        render: tab5,
    },
    Experiment {
        id: "tab6",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &tab6_variants()),
        render: tab6,
    },
    Experiment {
        id: "tab7",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &tab7_variants()),
        render: tab7,
    },
    Experiment {
        id: "tab8",
        cells: |ctx| cells(ctx, &all26_sets(ctx), &tab8_variants()),
        render: tab8,
    },
    Experiment {
        id: "cip",
        cells: cip_cells,
        render: cip,
    },
    Experiment {
        id: "ablation",
        cells: |ctx| cells(ctx, &ablation_sets(ctx), &ablation_variants()),
        render: ablation,
    },
    Experiment {
        id: "ingest",
        cells: ingest_cells,
        render: ingest,
    },
];

/// Builds a cell's configuration from the context's settings.
type MakeCfg = Box<dyn Fn(&Ctx) -> SimConfig>;

/// One labeled configuration in a table, and the baseline its ratios
/// divide by. A table's `Variant` list is the only place that names its
/// cells: [`cells`] declares them and the renderer reads them back.
struct Variant {
    label: &'static str,
    tag: &'static str,
    cfg: MakeCfg,
    /// The baseline's tag and configuration; `None` when the table reads
    /// the variant's runs on their own.
    base: Option<(&'static str, MakeCfg)>,
}

impl Variant {
    /// `org` against the uncompressed baseline.
    fn org(label: &'static str, tag: &'static str, org: Organization) -> Self {
        Self::with(label, tag, move |ctx| ctx.cfg(org))
    }

    /// The configuration `f` builds, against the uncompressed baseline.
    fn with(
        label: &'static str,
        tag: &'static str,
        f: impl Fn(&Ctx) -> SimConfig + 'static,
    ) -> Self {
        let base = |ctx: &Ctx| ctx.cfg(Organization::UncompressedAlloy);
        Self {
            label,
            tag,
            cfg: Box::new(f),
            base: Some(("base", Box::new(base))),
        }
    }

    /// This variant against the baseline `tag` that `f` builds.
    fn against(self, tag: &'static str, f: impl Fn(&Ctx) -> SimConfig + 'static) -> Self {
        Self {
            base: Some((tag, Box::new(f))),
            ..self
        }
    }

    /// This variant without a baseline.
    fn alone(self) -> Self {
        Self { base: None, ..self }
    }

    /// The variant's run on workload `wl`, and its baseline's.
    fn runs<'a>(&self, sweep: &'a SweepResult, wl: &str) -> (&'a RunReport, &'a RunReport) {
        let (base, _) = self.base.as_ref().expect("a ratio needs a baseline");
        (report(sweep, self.tag, wl), report(sweep, base, wl))
    }

    /// The variant's speedup on workload `wl` over its baseline.
    fn speedup(&self, sweep: &SweepResult, wl: &str) -> f64 {
        let (r, base) = self.runs(sweep, wl);
        r.weighted_speedup(base)
    }
}

/// The cells of `variants` on each of `workloads`: every variant, and each
/// baseline once per workload, just before the first variant naming it.
fn cells(ctx: &Ctx, workloads: &[WorkloadSet], variants: &[Variant]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for wl in workloads {
        let mut bases = Vec::new();
        for v in variants {
            if let Some((tag, cfg)) = &v.base {
                if !bases.contains(tag) {
                    bases.push(*tag);
                    cells.push(ctx.cell(tag, cfg(ctx), wl));
                }
            }
            cells.push(ctx.cell(v.tag, (v.cfg)(ctx), wl));
        }
    }
    cells
}

/// `value` of each variant on each of `workloads`: one column per variant.
fn columns(
    workloads: &[WorkloadSet],
    variants: &[Variant],
    value: impl Fn(&Variant, &str) -> f64,
) -> Vec<Vec<f64>> {
    variants
        .iter()
        .map(|v| workloads.iter().map(|wl| value(v, &wl.name)).collect())
        .collect()
}

/// ALL26's workload sets, in presentation order.
fn all26_sets(ctx: &Ctx) -> Vec<WorkloadSet> {
    all26(ctx.seed).into_iter().map(|(_, wl)| wl).collect()
}

/// A table headed by `first`, then one column per variant.
fn variant_table(first: &str, variants: &[Variant]) -> Table {
    let mut headers = vec![first];
    headers.extend(variants.iter().map(|v| v.label));
    Table::new(&headers)
}

/// A figure's summary rows: `(label, index into group_geomeans)`.
const FIGURE_GROUPS: [(&str, usize); 4] = [("RATE", 0), ("MIX", 1), ("GAP", 2), ("ALL26", 3)];
/// A table's summary rows, which leave MIX out as the paper's tables do.
const TABLE_GROUPS: [(&str, usize); 3] = [("SPEC RATE", 0), ("GAP", 2), ("GMEAN26", 3)];

/// Appends one row per `(label, index)` of `rows`: each column's ALL26
/// geomean at that index of [`group_geomeans`], formatted by `fmt`.
fn group_rows(
    t: &mut Table,
    ctx: &Ctx,
    rows: &[(&str, usize)],
    cols: &[Vec<f64>],
    fmt: fn(f64) -> String,
) {
    let groups: Vec<Group> = all26(ctx.seed).into_iter().map(|(g, _)| g).collect();
    let means: Vec<[f64; 4]> = cols.iter().map(|c| group_geomeans(&groups, c)).collect();
    for &(label, i) in rows {
        let mut row = vec![label.to_owned()];
        row.extend(means.iter().map(|m| fmt(m[i])));
        t.row(&row);
    }
}

/// Runs `variants` over ALL26, reporting per-workload speedup vs each
/// variant's baseline plus RATE/MIX/GAP/ALL26 geometric means.
fn speedup_sweep(ctx: &Ctx, sweep: &SweepResult, title: &str, variants: &[Variant]) -> String {
    let mut t = variant_table("workload", variants);
    let sets = all26_sets(ctx);
    let cols = columns(&sets, variants, |v, wl| v.speedup(sweep, wl));
    for (i, wl) in sets.iter().enumerate() {
        let mut row = vec![wl.name.clone()];
        row.extend(cols.iter().map(|c| format!("{:.3}", c[i])));
        t.row(&row);
    }
    t.separator();
    group_rows(&mut t, ctx, &FIGURE_GROUPS, &cols, pct);
    format!("{title}\n\n{}", t.render())
}

/// `value` of `variants` over ALL26 as SPEC RATE/GAP/GMEAN26 geometric
/// means only, formatted by `fmt`.
fn group_table(
    ctx: &Ctx,
    title: &str,
    variants: &[Variant],
    value: impl Fn(&Variant, &str) -> f64,
    fmt: fn(f64) -> String,
) -> String {
    let mut t = variant_table("group", variants);
    let cols = columns(&all26_sets(ctx), variants, value);
    group_rows(&mut t, ctx, &TABLE_GROUPS, &cols, fmt);
    format!("{title}\n\n{}", t.render())
}

fn fig1f_variants() -> Vec<Variant> {
    vec![
        Variant::with("2xCap", "2xcap", |c| {
            c.cfg(Organization::UncompressedAlloy)
                .with_double_l4_capacity()
        }),
        Variant::with("2xBW", "2xbw", |c| {
            c.cfg(Organization::UncompressedAlloy)
                .with_double_l4_bandwidth()
        }),
        Variant::with("2xBoth", "2xboth", |c| {
            c.cfg(Organization::UncompressedAlloy)
                .with_double_l4_capacity()
                .with_double_l4_bandwidth()
        }),
    ]
}

/// Figure 1(f): potential speedup from doubling capacity, bandwidth, both.
fn fig1f(ctx: &Ctx, sweep: &SweepResult) -> String {
    speedup_sweep(
        ctx,
        sweep,
        "Figure 1(f): potential speedup of idealized caches (vs 1x baseline)\n\
         Paper: 2x Capacity ~ +10%, 2x Both ~ +22% on average.",
        &fig1f_variants(),
    )
}

/// Figure 4: fraction of compressible lines per workload.
fn fig4(ctx: &Ctx, _: &SweepResult) -> String {
    let mut t = Table::new(&["workload", "single<=32", "single<=36", "double<=68"]);
    let mut all = [0.0f64; 3];
    let specs = spec_table();
    for spec in &specs {
        let data = DataModel::new(spec, ctx.seed ^ 0xda7a);
        let mut gen = TraceGen::with_scale(spec, 0, ctx.seed, ctx.scale);
        let (mut le32, mut le36, mut pair68, mut n) = (0u64, 0u64, 0u64, 0u64);
        for _ in 0..6000 {
            let line = gen.next_record().line;
            let s = compressed_size(&data.line_data(line));
            let p = pair_compressed_size(&data.line_data(line & !1), &data.line_data(line | 1));
            n += 1;
            le32 += u64::from(s <= 32);
            le36 += u64::from(s <= 36);
            pair68 += u64::from(p <= 68);
        }
        let f = |x: u64| 100.0 * x as f64 / n as f64;
        t.row(&[
            spec.name.to_owned(),
            format!("{:.0}%", f(le32)),
            format!("{:.0}%", f(le36)),
            format!("{:.0}%", f(pair68)),
        ]);
        all[0] += f(le32);
        all[1] += f(le36);
        all[2] += f(pair68);
    }
    t.separator();
    let n = specs.len() as f64;
    t.row(&[
        "MEAN".into(),
        format!("{:.0}%", all[0] / n),
        format!("{:.0}%", all[1] / n),
        format!("{:.0}%", all[2] / n),
    ]);
    format!(
        "Figure 4: fraction of compressible lines (sampled from the access stream)\n\
         Paper: on average 52% of adjacent pairs compress to <=68B (one 72B TAD).\n\n{}",
        t.render()
    )
}

fn fig7_variants() -> Vec<Variant> {
    vec![
        Variant::org("TSI", "tsi", Organization::CompressedTsi),
        Variant::org("BAI", "bai", Organization::CompressedBai),
        Variant::with("2xCap", "2xcap", |c| {
            c.cfg(Organization::UncompressedAlloy)
                .with_double_l4_capacity()
        }),
        Variant::with("2xCap2xBW", "2xboth", |c| {
            c.cfg(Organization::UncompressedAlloy)
                .with_double_l4_capacity()
                .with_double_l4_bandwidth()
        }),
    ]
}

/// Figure 7: static TSI and BAI vs idealized caches.
fn fig7(ctx: &Ctx, sweep: &SweepResult) -> String {
    speedup_sweep(
        ctx,
        sweep,
        "Figure 7: compression with static indexing vs idealized caches\n\
         Paper: TSI ~ +7% (never hurts); BAI ~ +0.1% on average (wins on\n\
         compressible workloads, thrashes on incompressible ones).",
        &fig7_variants(),
    )
}

fn fig10_variants() -> Vec<Variant> {
    vec![
        Variant::org("TSI", "tsi", Organization::CompressedTsi),
        Variant::org("BAI", "bai", Organization::CompressedBai),
        Variant::org("DICE", "dice36", DICE),
        Variant::with("2xCap2xBW", "2xboth", |c| {
            c.cfg(Organization::UncompressedAlloy)
                .with_double_l4_capacity()
                .with_double_l4_bandwidth()
        }),
    ]
}

/// Figure 10: the headline result.
fn fig10(ctx: &Ctx, sweep: &SweepResult) -> String {
    speedup_sweep(
        ctx,
        sweep,
        "Figure 10: TSI vs BAI vs DICE vs a double-capacity double-bandwidth cache\n\
         Paper: DICE +19.0% on average, within 3% of 2xCap+2xBW's +21.9%.",
        &fig10_variants(),
    )
}

fn fig11_variants() -> [Variant; 1] {
    [Variant::org("DICE", "dice36", DICE).alone()]
}

/// Figure 11: install-index distribution under DICE.
fn fig11(ctx: &Ctx, sweep: &SweepResult) -> String {
    let [dice] = fig11_variants();
    let mut t = Table::new(&["workload", "invariant", "TSI", "BAI"]);
    let mut tsi_sum = 0.0;
    let mut bai_sum = 0.0;
    let sets = all26_sets(ctx);
    for wl in &sets {
        let r = report(sweep, dice.tag, &wl.name);
        let total = r.l4.installs().max(1) as f64;
        let inv = 100.0 * r.l4.installs_invariant as f64 / total;
        let tsi = 100.0 * r.l4.installs_tsi as f64 / total;
        let bai = 100.0 * r.l4.installs_bai as f64 / total;
        tsi_sum += tsi;
        bai_sum += bai;
        t.row(&[
            wl.name.clone(),
            format!("{inv:.0}%"),
            format!("{tsi:.0}%"),
            format!("{bai:.0}%"),
        ]);
    }
    t.separator();
    let n = sets.len() as f64;
    let (tm, bm) = (tsi_sum / n, bai_sum / n);
    t.row(&[
        "MEAN".into(),
        format!("{:.0}%", 100.0 - tm - bm),
        format!("{tm:.0}%"),
        format!("{bm:.0}%"),
    ]);
    format!(
        "Figure 11: distribution of install indices under DICE\n\
         Paper: ~50% of lines are invariant (TSI==BAI); of the rest, a 52/48\n\
         skew toward TSI (incompressible workloads push whole caches to TSI).\n\n{}",
        t.render()
    )
}

/// A KNL-style L4: same organization, no neighbor tag in the TAD.
fn knl_cfg(ctx: &Ctx, org: Organization) -> SimConfig {
    let mut cfg = ctx.cfg(org);
    cfg.l4 = DramCacheConfig {
        tag_variant: TagVariant::Knl,
        ..cfg.l4
    };
    cfg
}

fn fig12_variants() -> Vec<Variant> {
    vec![
        Variant::with("DICE-on-KNL", "knl-dice", |c| knl_cfg(c, DICE))
            .against("knl-base", |c| knl_cfg(c, Organization::UncompressedAlloy)),
    ]
}

/// Figure 12: DICE on a KNL-style cache (no neighbor tag).
fn fig12(ctx: &Ctx, sweep: &SweepResult) -> String {
    speedup_sweep(
        ctx,
        sweep,
        "Figure 12: DICE on an Intel Knights Landing-style DRAM cache\n\
         Paper: +17.5% (within 2% of DICE on Alloy), because merged same-row\n\
         second probes keep the both-location miss checks cheap.",
        &fig12_variants(),
    )
}

fn fig13_variants() -> [Variant; 1] {
    [Variant::org("DICE speedup", "dice36", DICE)]
}

/// Figure 13: non-memory-intensive workloads.
fn fig13(ctx: &Ctx, sweep: &SweepResult) -> String {
    let [dice] = fig13_variants();
    let mut t = Table::new(&["workload", dice.label]);
    let mut vals = Vec::new();
    for wl in nonmem(ctx.seed) {
        let s = dice.speedup(sweep, &wl.name);
        vals.push(s);
        t.row(&[wl.name.clone(), format!("{s:.3}")]);
    }
    t.separator();
    t.row(&["GMEAN".into(), pct(geomean(&vals))]);
    format!(
        "Figure 13: DICE on non-memory-intensive SPEC (L3 MPKI < 2)\n\
         Paper: ~+2% average, and crucially no workload degrades.\n\n{}",
        t.render()
    )
}

/// TSI, BAI and DICE against the uncompressed baseline: Figure 14's
/// columns, and Table 5's without the baseline.
fn compressed_variants() -> Vec<Variant> {
    vec![
        Variant::org("TSI", "tsi", Organization::CompressedTsi),
        Variant::org("BAI", "bai", Organization::CompressedBai),
        Variant::org("DICE", "dice36", DICE),
    ]
}

/// A run's ratio to its baseline's run.
type Ratio = fn(&RunReport, &RunReport) -> f64;

/// Figure 14's rows.
const FIG14_METRICS: [(&str, Ratio); 4] = [
    ("Power", |r, b| {
        r.energy.power_watts() / b.energy.power_watts()
    }),
    ("Performance", |r, b| r.weighted_speedup(b)),
    ("Energy", |r, b| {
        r.energy.total_joules() / b.energy.total_joules()
    }),
    ("EDP", |r, b| r.energy.edp() / b.energy.edp()),
];

/// Figure 14: power / performance / energy / EDP, normalized to baseline.
fn fig14(ctx: &Ctx, sweep: &SweepResult) -> String {
    let mut t = Table::new(&["metric", "Baseline", "TSI", "BAI", "DICE"]);
    let sets = all26_sets(ctx);
    for (name, metric) in FIG14_METRICS {
        let cols = columns(&sets, &compressed_variants(), |v, wl| {
            let (r, base) = v.runs(sweep, wl);
            metric(r, base)
        });
        let mut row = vec![name.to_owned(), "1.00".to_owned()];
        row.extend(cols.iter().map(|c| format!("{:.2}", geomean(c))));
        t.row(&row);
    }
    format!(
        "Figure 14: L4+memory power, performance, energy and EDP (normalized)\n\
         Paper: DICE reduces energy by ~24% and EDP by ~36%.\n\n{}",
        t.render()
    )
}

fn fig15_variants() -> Vec<Variant> {
    vec![
        Variant::org("SCC", "scc", Organization::Scc),
        Variant::org("DICE", "dice36", DICE),
    ]
}

/// Figure 15: SCC on a DRAM cache vs DICE.
fn fig15(ctx: &Ctx, sweep: &SweepResult) -> String {
    speedup_sweep(
        ctx,
        sweep,
        "Figure 15: Skewed Compressed Cache mapped onto DRAM vs DICE\n\
         Paper: SCC ~ -22% (3 tag probes + 1 data probe per request burn the\n\
         bandwidth compression was supposed to save); DICE +19%.",
        &fig15_variants(),
    )
}

fn tab4_variants() -> Vec<Variant> {
    vec![
        Variant::org("<=32B", "dice32", Organization::Dice { threshold: 32 }),
        Variant::org("<=36B", "dice36", DICE),
        Variant::org("<=40B", "dice40", Organization::Dice { threshold: 40 }),
    ]
}

/// Table 4: sensitivity to the DICE insertion threshold.
fn tab4(ctx: &Ctx, sweep: &SweepResult) -> String {
    group_table(
        ctx,
        "Table 4: DICE threshold sensitivity\n\
         Paper: 36B maximizes performance (BDI's B4D2 single is 36B; the pair\n\
         shares a base into 68B, exactly one shared-tag TAD).",
        &tab4_variants(),
        |v, wl| v.speedup(sweep, wl),
        pct,
    )
}

fn tab5_variants() -> Vec<Variant> {
    compressed_variants()
        .into_iter()
        .map(Variant::alone)
        .collect()
}

/// Table 5: effective capacity of TSI / BAI / DICE.
fn tab5(ctx: &Ctx, sweep: &SweepResult) -> String {
    group_table(
        ctx,
        "Table 5: effective DRAM-cache capacity (valid lines / baseline lines)\n\
         Paper: TSI 1.24x, BAI 1.69x, DICE 1.62x on average; GAP up to ~5x.",
        &tab5_variants(),
        |v, wl| report(sweep, v.tag, wl).capacity_ratio(),
        ratio,
    )
}

fn tab6_variants() -> Vec<Variant> {
    vec![
        Variant::org("BASE", "base", Organization::UncompressedAlloy).alone(),
        Variant::org("DICE", "dice36", DICE).alone(),
    ]
}

/// Table 6: L3 hit rate, baseline vs DICE.
fn tab6(ctx: &Ctx, sweep: &SweepResult) -> String {
    let variants = tab6_variants();
    let mut t = variant_table("group", &variants);
    let sets = all26(ctx.seed);
    for (label, g) in [
        ("SPEC RATE", Some(Group::Rate)),
        ("SPEC MIX", Some(Group::Mix)),
        ("GAP", Some(Group::Gap)),
        ("AVG26", None),
    ] {
        let members: Vec<&WorkloadSet> = sets
            .iter()
            .filter(|(gg, _)| g.is_none() || Some(*gg) == g)
            .map(|(_, wl)| wl)
            .collect();
        let mut row = vec![label.to_owned()];
        for v in &variants {
            let rates = members
                .iter()
                .map(|wl| report(sweep, v.tag, &wl.name).l3.hit_rate() * 100.0);
            row.push(format!("{:.1}%", rates.sum::<f64>() / members.len() as f64));
        }
        t.row(&row);
    }
    format!(
        "Table 6: L3 hit rate — the free adjacent lines DICE installs in L3\n\
         Paper: 37.0% -> 43.6% on average.\n\n{}",
        t.render()
    )
}

fn tab7_variants() -> Vec<Variant> {
    use dice_cache::L3FetchPolicy;
    vec![
        Variant::with("128B-PF", "base-128", |c| {
            let mut cfg = c.cfg(Organization::UncompressedAlloy);
            cfg.l3_fetch = L3FetchPolicy::Wide128;
            cfg
        }),
        Variant::with("NL-PF", "base-nl", |c| {
            let mut cfg = c.cfg(Organization::UncompressedAlloy);
            cfg.l3_fetch = L3FetchPolicy::NextLine;
            cfg
        }),
        Variant::org("DICE", "dice36", DICE),
        Variant::with("DICE+NL", "dice-nl", |c| {
            let mut cfg = c.cfg(DICE);
            cfg.l3_fetch = L3FetchPolicy::NextLine;
            cfg
        }),
    ]
}

/// Table 7: DICE vs prefetch-style ways of getting the adjacent line.
fn tab7(ctx: &Ctx, sweep: &SweepResult) -> String {
    speedup_sweep(
        ctx,
        sweep,
        "Table 7: wide fetch / next-line prefetch vs DICE (and DICE+NL)\n\
         Paper: 128B fetch +1.9%, next-line PF +1.6%, DICE +19.0%, DICE+NL +20.9%\n\
         — prefetches pay full bandwidth for the extra line; DICE gets it free.",
        &tab7_variants(),
    )
}

type Adjust = fn(SimConfig) -> SimConfig;

/// Table 8's caches: `(label, baseline tag, DICE tag, adjuster)`. DICE on
/// each is measured against the uncompressed cache the same adjuster
/// builds.
const TAB8_CACHES: [(&str, &str, &str, Adjust); 4] = [
    ("Base", "base", "dice36", |c| c),
    (
        "2xCap",
        "2xcap",
        "dice-2xcap",
        SimConfig::with_double_l4_capacity,
    ),
    (
        "2xBW",
        "2xbw",
        "dice-2xbw",
        SimConfig::with_double_l4_bandwidth,
    ),
    (
        "50%Lat",
        "base-hl",
        "dice-hl",
        SimConfig::with_half_l4_latency,
    ),
];

fn tab8_variants() -> Vec<Variant> {
    TAB8_CACHES
        .iter()
        .map(|&(label, base, tag, adjust)| {
            Variant::with(label, tag, move |c| adjust(c.cfg(DICE))).against(base, move |c| {
                adjust(c.cfg(Organization::UncompressedAlloy))
            })
        })
        .collect()
}

/// Table 8: DICE on bigger / wider / faster caches.
fn tab8(ctx: &Ctx, sweep: &SweepResult) -> String {
    group_table(
        ctx,
        "Table 8: DICE speedup on different cache configurations (each vs its\n\
         own uncompressed counterpart)\n\
         Paper: +19.0% base, +13.2% at 2x capacity, +24.5% at 2x BW, +24.4% at\n\
         half latency.",
        &tab8_variants(),
        |v, wl| v.speedup(sweep, wl),
        pct,
    )
}

/// The CIP sweep's representative workload subset (keeps it fast; accuracy
/// is averaged over workloads, weighted by prediction count).
const CIP_SUBSET: [&str; 8] = [
    "mcf", "soplex", "gcc", "sphinx", "zeusmp", "astar", "cc_twi", "pr_web",
];
const CIP_ENTRIES: [usize; 5] = [512, 1024, 2048, 4096, 8192];

fn cip_cfg(ctx: &Ctx, entries: usize) -> SimConfig {
    let mut cfg = ctx.cfg(DICE);
    cfg.l4.ltt_entries = entries;
    cfg
}

fn spec_named(name: &str) -> WorkloadSpec {
    spec_table()
        .into_iter()
        .find(|s| s.name == name)
        .expect("the harness names only workloads of the spec table")
}

fn cip_cells(ctx: &Ctx) -> Vec<Cell> {
    let mut cells = Vec::new();
    for entries in CIP_ENTRIES {
        let tag = format!("cip-{entries}");
        for name in CIP_SUBSET {
            let wl = WorkloadSet::rate(spec_named(name), ctx.seed);
            cells.push(ctx.cell(&tag, cip_cfg(ctx, entries), &wl));
        }
    }
    cells
}

/// §5.3: CIP accuracy vs LTT size, plus write-prediction accuracy.
fn cip(_: &Ctx, sweep: &SweepResult) -> String {
    let mut t = Table::new(&["LTT entries", "storage", "read accuracy", "write accuracy"]);
    for entries in CIP_ENTRIES {
        let mut correct_w = 0.0;
        let mut total = 0.0;
        let mut wcorrect = 0.0;
        let mut wtotal = 0.0;
        for name in CIP_SUBSET {
            let r = report(sweep, &format!("cip-{entries}"), name);
            correct_w += r.cip_accuracy * r.cip_predictions as f64;
            total += r.cip_predictions as f64;
            wcorrect += r.l4.write_prediction_accuracy() * r.l4.wpred_scored as f64;
            wtotal += r.l4.wpred_scored as f64;
        }
        t.row(&[
            format!("{entries}"),
            format!("{} B", entries / 8),
            format!("{:.1}%", 100.0 * correct_w / total.max(1.0)),
            format!("{:.1}%", 100.0 * wcorrect / wtotal.max(1.0)),
        ]);
    }
    format!(
        "CIP accuracy vs Last-Time-Table size (Section 5.3)\n\
         Paper: 93.2% at 512 entries to 94.1% at 8192; default 2048 = 256B at\n\
         93.8%; write (compressibility-based) prediction ~95%.\n\n{}",
        t.render()
    )
}

/// The ablation's workloads, spanning the compressibility spectrum.
const ABLATION_SUBSET: [&str; 6] = ["mcf", "lbm", "soplex", "gcc", "libq", "cc_twi"];

fn ablation_sets(ctx: &Ctx) -> Vec<WorkloadSet> {
    ABLATION_SUBSET
        .iter()
        .map(|name| WorkloadSet::rate(spec_named(name), ctx.seed))
        .collect()
}

/// One row per design choice varied alone. Rows that repeat DICE's
/// default configuration share its `dice36` cells.
fn ablation_variants() -> Vec<Variant> {
    let threshold = |threshold| Organization::Dice { threshold };
    vec![
        // The insertion threshold (Table 4's knob) and its endpoints.
        Variant::org("DICE threshold 0B", "dice0", threshold(0)),
        Variant::org("DICE threshold 32B", "dice32", threshold(32)),
        Variant::org("DICE threshold 36B", "dice36", DICE),
        Variant::org("DICE threshold 40B", "dice40", threshold(40)),
        Variant::org("DICE threshold 64B", "dice64", threshold(64)),
        // The Alloy neighbor tag vs KNL-style both-location miss checks.
        Variant::org("DICE, Alloy neighbor tag", "dice36", DICE),
        Variant::with("DICE, KNL-style tag", "knl-dice", |c| knl_cfg(c, DICE)),
        // The CIP's Last-Time Table size.
        Variant::with("DICE, LTT 64 entries", "cip-64", |c| cip_cfg(c, 64)),
        Variant::with("DICE, LTT 512 entries", "cip-512", |c| cip_cfg(c, 512)),
        Variant::org("DICE, LTT 2048 entries", "dice36", DICE),
        Variant::with("DICE, LTT 8192 entries", "cip-8192", |c| cip_cfg(c, 8192)),
        // Installing the free pair line into L3 (§6.4).
        Variant::org("DICE with L3 pair install", "dice36", DICE),
        Variant::with("DICE without L3 pair install", "dice-nopair", |c| {
            let mut cfg = c.cfg(DICE);
            cfg.install_pair_in_l3 = false;
            cfg
        }),
        // Static indexing for reference (NSI is §4.5's strawman).
        Variant::org("static TSI", "tsi", Organization::CompressedTsi),
        Variant::org("static NSI", "nsi", Organization::CompressedNsi),
        Variant::org("static BAI", "bai", Organization::CompressedBai),
    ]
}

/// Ablation: each design choice's speedup over the uncompressed baseline
/// on every workload of [`ABLATION_SUBSET`], then their geomean.
fn ablation(ctx: &Ctx, sweep: &SweepResult) -> String {
    let variants = ablation_variants();
    let cols = columns(&ablation_sets(ctx), &variants, |v, wl| v.speedup(sweep, wl));
    let mut headers = vec!["configuration"];
    headers.extend(ABLATION_SUBSET);
    headers.push("GMEAN");
    let mut t = Table::new(&headers);
    for (v, speedups) in variants.iter().zip(&cols) {
        let mut row = vec![v.label.to_owned()];
        row.extend(speedups.iter().map(|s| format!("{s:.3}")));
        row.push(pct(geomean(speedups)));
        t.row(&row);
    }
    format!(
        "Ablation: DICE's design choices varied one at a time, on six workloads\n\
         spanning the compressibility spectrum (speedup vs the uncompressed baseline)\n\
         Paper: 36B is the best threshold (Table 4), KNL-style tags cost ~2% (Fig 12)\n\
         and the LTT gains little past 512 entries (Section 5.3).\n\n{}",
        t.render()
    )
}

/// The specs whose generator streams are packed into the `ingest`
/// experiment's `.dtf` trace, one stream per entry.
const INGEST_STREAM_SPECS: [&str; 4] = ["mcf", "lbm", "gcc", "soplex"];
const INGEST_STREAM_RECORDS: u64 = 20_000;
/// The workload name the `ingest` cells run under.
const INGEST_WORKLOAD: &str = "dtf-mix";

/// Where the `ingest` experiment's trace lives while its cells run: named
/// by the context's seed and scale, so differently parameterized
/// invocations never collide. The renderer removes it.
fn ingest_trace_path(ctx: &Ctx) -> PathBuf {
    std::env::temp_dir().join(format!("dice-exp-ingest-{:x}-{}.dtf", ctx.seed, ctx.scale))
}

/// Writes the `ingest` experiment's packed trace and binds it: one
/// generator stream per [`INGEST_STREAM_SPECS`] entry, deterministic in
/// the context's seed and scale. Whatever stood at the path is replaced,
/// never trusted. The file is written under a per-process name and
/// renamed into place, so a concurrent run with the same seed and scale
/// never sees it half-written.
fn ingest_trace(ctx: &Ctx) -> TraceBinding {
    let path = ingest_trace_path(ctx);
    let partial = path.with_extension(format!("{}.partial", std::process::id()));
    let cores = INGEST_STREAM_SPECS.len() as u32;
    let mut w = DtfWriter::create(&partial, cores, true).expect("creating the ingest trace");
    for (core, name) in INGEST_STREAM_SPECS.iter().enumerate() {
        let mut gen = TraceGen::with_scale(&spec_named(name), core as u32, ctx.seed, ctx.scale);
        for _ in 0..INGEST_STREAM_RECORDS {
            w.push_record(core as u32, gen.next_record())
                .expect("encoding the ingest trace");
        }
    }
    w.finish().expect("writing the ingest trace");
    std::fs::rename(&partial, &path).expect("installing the ingest trace");
    TraceBinding::open(&path).expect("binding the ingest trace")
}

/// The ingest experiment's cells: baseline and DICE over one trace
/// binding, streamed with bounded memory.
fn ingest_cells(ctx: &Ctx) -> Vec<Cell> {
    let wl = WorkloadSet::traced(
        INGEST_WORKLOAD,
        spec_named("mcf"),
        ctx.seed,
        ingest_trace(ctx),
    );
    vec![
        ctx.cell("base-stream", ctx.cfg(Organization::UncompressedAlloy), &wl),
        ctx.cell("dice-stream", ctx.cfg(DICE), &wl),
    ]
}

/// Trace ingestion: DICE vs baseline driven by a packed `.dtf` trace,
/// streamed off disk.
fn ingest(ctx: &Ctx, sweep: &SweepResult) -> String {
    // The header facts of the file the cells bound (`ingest_cells` wrote
    // it earlier in this invocation). Nothing reads the file after this,
    // so it goes before any cell's report is read: a failed cell fails
    // this renderer below, with the file already gone.
    let path = ingest_trace_path(ctx);
    let binding = TraceBinding::open(&path).expect("reading the ingest trace");
    let _ = std::fs::remove_file(&path);
    let [base, dice] =
        ["base-stream", "dice-stream"].map(|tag| report(sweep, tag, INGEST_WORKLOAD));
    let mut t = Table::new(&["org", "streamed", "l4 hit"]);
    for (label, r, speedup) in [
        ("Baseline", base, 1.0),
        ("DICE", dice, dice.weighted_speedup(base)),
    ] {
        t.row(&[
            label.to_owned(),
            format!("{speedup:.3}"),
            format!("{:.0}%", 100.0 * r.l4.hit_rate()),
        ]);
    }
    format!(
        "Trace ingestion: {} streams, {} records, content hash {:016x}\n\
         Every core streams its records off the .dtf one frame at a time,\n\
         with bounded memory.\n\n{}",
        binding.cores(),
        binding.records(),
        binding.content_hash(),
        t.render()
    )
}

/// `inspect=NAME`'s organizations, in row order.
const INSPECT_ORGS: [(&str, Organization); 4] = [
    ("base", Organization::UncompressedAlloy),
    ("tsi", Organization::CompressedTsi),
    ("bai", Organization::CompressedBai),
    ("dice36", DICE),
];

fn inspect_cells(ctx: &Ctx, wl: &WorkloadSet) -> Vec<Cell> {
    INSPECT_ORGS
        .iter()
        .map(|(tag, org)| ctx.cell(tag, ctx.cfg(*org), wl))
        .collect()
}

/// Developer aid: detailed counters for one workload under the main
/// organizations (not a paper artifact; used for calibration).
fn inspect(sweep: &SweepResult, workload: &str) -> String {
    let mut t = Table::new(&[
        "org", "speedup", "cycles", "l3hit", "l4hit", "l4reads", "free", "l4wr", "fills", "memrd",
        "memwr", "l4bus%", "membus%", "l4rowhit", "l4lat", "memlat", "qstall", "cap",
    ]);
    let base = report(sweep, "base", workload);
    for (tag, _) in INSPECT_ORGS {
        let r = report(sweep, tag, workload);
        let cyc = r.cycles.max(1) as f64;
        let l4_busy = 100.0 * r.l4_dram.busy_cycles as f64 / (4.0 * cyc);
        let mem_busy = 100.0 * r.mem_dram.busy_cycles as f64 / cyc;
        t.row(&[
            tag.into(),
            format!("{:.3}", r.weighted_speedup(base)),
            format!("{}k", r.cycles / 1000),
            format!("{:.0}%", 100.0 * r.l3.hit_rate()),
            format!("{:.0}%", 100.0 * r.l4.hit_rate()),
            format!("{}", r.l4.reads),
            format!("{}", r.l4.free_lines),
            format!("{}", r.l4.writebacks),
            format!("{}", r.l4.fills),
            format!("{}", r.mem_dram.reads),
            format!("{}", r.mem_dram.writes),
            format!("{l4_busy:.0}%"),
            format!("{mem_busy:.0}%"),
            format!("{:.0}%", 100.0 * r.l4_dram.row_hit_rate()),
            format!("{:.0}", r.l4_dram.mean_latency()),
            format!("{:.0}", r.mem_dram.mean_latency()),
            format!("{}+{}", r.l4_dram.queue_stalls, r.mem_dram.queue_stalls),
            format!("{:.2}", r.capacity_ratio()),
        ]);
    }
    format!("inspect {workload}\n\n{}", t.render())
}

/// The sweep's completed runs as `(tag, workload, report)`, in key order.
fn completed(sweep: &SweepResult) -> impl Iterator<Item = (&str, &str, &RunReport)> {
    sweep.outcomes.keys().filter_map(|(tag, wl)| {
        let r = sweep.report(tag, wl).ok()?;
        Some((tag.as_str(), wl.as_str(), &**r))
    })
}

/// Serializes every completed run plus invocation metadata.
///
/// Deliberately excludes scheduling details (jobs, cache hits, wall time)
/// so the artifact is byte-identical for any `--jobs` / `--cache-dir`.
fn json_dump(ctx: &Ctx, id: &str, sweep: &SweepResult) -> Json {
    Json::Obj(vec![
        (
            "meta".into(),
            Json::Obj(vec![
                ("experiment".into(), Json::str(id)),
                ("scale".into(), Json::u64(ctx.scale)),
                ("warmup_records".into(), Json::u64(ctx.warmup)),
                ("measure_records".into(), Json::u64(ctx.measure)),
                ("seed".into(), Json::u64(ctx.seed)),
            ]),
        ),
        (
            "runs".into(),
            Json::Arr(
                completed(sweep)
                    .map(|(tag, wl, r)| {
                        Json::Obj(vec![
                            ("tag".into(), Json::str(tag)),
                            ("workload".into(), Json::str(wl)),
                            ("report".into(), r.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Merges every completed run's trace into one Chrome trace_event array,
/// one process row per run.
fn trace_dump(sweep: &SweepResult) -> Json {
    let mut events = Vec::new();
    for (pid, (tag, wl, r)) in completed(sweep).enumerate() {
        let label = format!("{tag}/{wl}");
        if let Json::Arr(evs) = r.trace.export_chrome(&label, pid as u32 + 1, 3.2) {
            events.extend(evs);
        }
    }
    Json::Arr(events)
}

/// `--diagnostics`: decision-level diagnostics for every completed run
/// that carried them (i.e. ran above `TraceLevel::Off`). Two tables: the
/// CIP confusion matrices (predicted scheme x actual, read-time and
/// fill-time), then the bandwidth-bloat split and phase-cycle
/// attribution. Counts cover the whole run (warmup included, matching
/// `cip_accuracy`); phases cover the measured window.
fn render_diagnostics(sweep: &SweepResult) -> String {
    let runs: Vec<(String, dice_sim::RunDiag)> = completed(sweep)
        .filter_map(|(tag, wl, r)| r.diag.map(|d| (format!("{tag}/{wl}"), d)))
        .collect();
    if runs.is_empty() {
        return "Decision diagnostics: no completed run carried them\n\
                (cells executed at TraceLevel::Off)."
            .to_owned();
    }
    let mut cip = Table::new(&[
        "run", "rd B>B", "rd B>T", "rd T>B", "rd T>T", "rd acc", "fi B>B", "fi B>T", "fi T>B",
        "fi T>T", "agree",
    ]);
    for (name, d) in &runs {
        let dd = d.decisions;
        cip.row(&[
            name.clone(),
            dd.cip_read_bai_bai.to_string(),
            dd.cip_read_bai_tsi.to_string(),
            dd.cip_read_tsi_bai.to_string(),
            dd.cip_read_tsi_tsi.to_string(),
            format!("{:.1}%", 100.0 * dd.read_accuracy()),
            dd.cip_fill_bai_bai.to_string(),
            dd.cip_fill_bai_tsi.to_string(),
            dd.cip_fill_tsi_bai.to_string(),
            dd.cip_fill_tsi_tsi.to_string(),
            format!("{:.1}%", 100.0 * dd.fill_agreement()),
        ]);
    }
    let mut bw = Table::new(&[
        "run",
        "moved KB",
        "need KB",
        "bloat",
        "2nd-probe",
        "rmw",
        "tag/fmt",
        "probe kc",
        "data kc",
        "fill kc",
        "wb kc",
    ]);
    let kb = |b: u64| format!("{:.0}", b as f64 / 1024.0);
    let kc = |c: u64| format!("{}", c / 1000);
    for (name, d) in &runs {
        let dd = d.decisions;
        let p = d.phases;
        bw.row(&[
            name.clone(),
            kb(dd.bytes_moved),
            kb(dd.bytes_needed),
            ratio(dd.bloat_factor()),
            kb(dd.bloat_second_probe_bytes),
            kb(dd.bloat_rmw_bytes),
            kb(dd.bloat_tag_overhead_bytes()),
            kc(p.tag_probe_cycles),
            kc(p.data_transfer_cycles),
            kc(p.fill_cycles),
            kc(p.writeback_cycles),
        ]);
    }
    format!(
        "Decision diagnostics: CIP confusion (predicted > actual, whole run)\n\n{}\n\
         Bandwidth bloat split (KB) and phase cycles (thousands, measured window)\n\n{}",
        cip.render(),
        bw.render()
    )
}

/// Runs `cells` as one sweep through the parallel engine and prints its
/// summary. Returns the sweep and the error of each cell that failed or
/// timed out.
fn run_sweep(ctx: &Ctx, cells: Vec<Cell>, runner_cfg: RunnerConfig) -> (SweepResult, Vec<String>) {
    let runner = Runner::new(runner_cfg).unwrap_or_else(|e| {
        eprintln!("cannot open --cache-dir: {e}");
        std::process::exit(2);
    });
    let sweep = runner.run(cells);
    eprintln!("[experiments] {}", sweep.summary());
    let engine = sweep.engine;
    if engine.events_scheduled > 0 {
        eprintln!(
            "[experiments] engine: {} events scheduled, {} chained inline, {} wheel cascades",
            engine.events_scheduled, engine.events_chained, engine.wheel_cascades
        );
    }
    if ctx.verbose {
        let h = &sweep.cell_wall_ms;
        eprintln!(
            "[experiments] cell wall time: p50 {} ms, p95 {} ms, max {} ms",
            h.quantile(0.5),
            h.quantile(0.95),
            h.max()
        );
    }
    let failures = sweep
        .outcomes
        .keys()
        .filter_map(|(tag, wl)| sweep.report(tag, wl).err())
        .collect();
    (sweep, failures)
}

/// Renders one experiment, unwind-isolated so one broken figure doesn't
/// lose the others: a panic becomes a FAILED line in the output and an
/// entry in `failures`.
fn render_isolated(
    id: &str,
    render: impl FnOnce() -> String,
    failures: &mut Vec<String>,
) -> String {
    catch_unwind(AssertUnwindSafe(render)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        failures.push(format!("{id}: {msg}"));
        format!("{id}: FAILED — {msg}")
    })
}

/// Separates the rendered experiments (and the diagnostics) on stdout.
const SEPARATOR: &str = "\n\n================================================================\n\n";

/// Declares every selected experiment's cells, runs them as one sweep,
/// and renders each experiment from that sweep. Returns the combined
/// output, the failures, and the sweep.
fn run_experiments(
    ctx: &Ctx,
    exps: &[&Experiment],
    runner_cfg: RunnerConfig,
) -> (String, Vec<String>, SweepResult) {
    let cells = exps.iter().flat_map(|e| (e.cells)(ctx)).collect();
    let (sweep, mut failures) = run_sweep(ctx, cells, runner_cfg);
    let parts: Vec<String> = exps
        .iter()
        .map(|e| render_isolated(e.id, || (e.render)(ctx, &sweep), &mut failures))
        .collect();
    (parts.join(SEPARATOR), failures, sweep)
}

/// `--inject garbled-trace`: packs a small `.dtf` trace, flips one byte of
/// its frame body, and verifies that binding the file fails with a typed
/// parse error naming the frame. Exits 0 on detection, 1 if the
/// corruption slips through.
fn garbled_trace_selftest(seed: u64) -> ! {
    let dir = std::env::temp_dir().join(format!("dice-inject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating temp dir");
    let path = dir.join("garbled.dtf");
    let records: Vec<TraceRecord> = (0..64)
        .map(|i| TraceRecord {
            gap: i,
            line: seed.wrapping_add(i),
            write: i % 3 == 0,
        })
        .collect();
    dice_ingest::pack_records(&path, &records, false).expect("packing the garbled trace");
    let mut bytes = std::fs::read(&path).expect("reading the packed trace");
    // The 64 records fill one frame, and the file ends with its body.
    *bytes.last_mut().expect("a packed trace is never empty") ^= 0x5a;
    std::fs::write(&path, &bytes).expect("writing the garbled trace");
    let outcome = dice_ingest::TraceBinding::open(&path);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Err(e @ DiceError::TraceParse { line: 1, .. }) => {
            eprintln!("[experiments] garbled trace detected in frame 1: {e}");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[experiments] FAULT NOT DETECTED as a frame parse error: {e}");
            std::process::exit(1);
        }
        Ok(_) => {
            eprintln!("[experiments] FAULT NOT DETECTED: garbled trace parsed cleanly");
            std::process::exit(1);
        }
    }
}

/// `--inject poisoned-cache`: corrupts every entry in the persistent cache
/// directory — truncating odd-indexed files, garbling even ones — and
/// returns how many were poisoned. The subsequent sweep must treat each as
/// a miss and re-simulate.
fn poison_cache_entries(dir: &std::path::Path) -> usize {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    entries.sort();
    for (i, path) in entries.iter().enumerate() {
        let poison = if i % 2 == 0 {
            "this is not json".to_owned()
        } else {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            // Truncate mid-document (entries are ASCII JSON; `get` guards
            // the boundary anyway).
            text.get(..text.len() / 2).unwrap_or("{").to_owned()
        };
        if let Err(e) = std::fs::write(path, poison) {
            eprintln!("[experiments] could not poison {}: {e}", path.display());
        }
    }
    entries.len()
}

/// What one invocation runs.
enum Selection {
    /// Catalog experiments: one id, or all of them.
    Experiments(Vec<&'static Experiment>),
    /// `inspect=NAME`: the main organizations on one workload.
    Inspect(WorkloadSet),
}

fn main() {
    let mut flags = Flags::from_env("experiments");
    let list = flags.switch("--list");
    let mut ctx = Ctx::standard();
    ctx.scale = flags.number("--scale", ctx.scale);
    ctx.warmup = flags.number("--warmup", ctx.warmup);
    ctx.measure = flags.number("--measure", ctx.measure);
    ctx.seed = flags.number("--seed", ctx.seed);
    ctx.verbose = !flags.switch("--quiet");
    ctx.audit_every = flags.number("--audit", ctx.audit_every);
    ctx.inject = flags.value("--inject").map(|name| {
        let kind = dice_core::FaultKind::parse(&name).unwrap_or_else(|| {
            let names: Vec<_> = dice_core::FaultKind::ALL.iter().map(|k| k.name()).collect();
            flags.refuse(format!(
                "--inject {name:?} is not a fault kind; one of: {}",
                names.join(", ")
            ))
        });
        dice_core::FaultPlan::seeded(kind)
    });
    let mut runner_cfg = RunnerConfig::default();
    runner_cfg.jobs = flags.count("--jobs", runner_cfg.jobs);
    runner_cfg.cache_dir = flags.value("--cache-dir").map(PathBuf::from);
    runner_cfg.cell_timeout = flags.duration("--cell-timeout", Unit::Seconds);
    runner_cfg.retries = flags.number("--retries", runner_cfg.retries);
    let diagnostics = flags.switch("--diagnostics");
    if diagnostics {
        ctx.obs.trace_level = TraceLevel::Decisions;
    }
    let json_path = flags.value("--json");
    let trace_path = flags.value("--trace");
    if trace_path.is_some() {
        // 64k events ≈ a few MB of JSON; the ring keeps the newest.
        ctx.obs.trace_capacity = 65_536;
    }
    let id = flags.positional().unwrap_or_else(|| "all".to_owned());
    flags.finish();
    if list {
        // The shared catalog: byte-identical to dice-serve's
        // /v1/experiments (asserted by tests on both sides), so no
        // trailing newline.
        print!("{}", dice_bench::catalog_json().render());
        return;
    }
    // The bounds dice-serve's sweep specs enforce, checked before any
    // cell is declared.
    if let Err((field, rule)) = SimConfig::check_bounds(ctx.scale, ctx.measure) {
        flags.refuse(format!("--{field} {rule}"));
    }
    let selection = if let Some(name) = id.strip_prefix("inspect=") {
        let spec = spec_table()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| flags.refuse(format!("inspect={name}: unknown workload")));
        Selection::Inspect(WorkloadSet::rate(spec, ctx.seed))
    } else if id == "all" {
        Selection::Experiments(EXPERIMENTS.iter().collect())
    } else {
        match EXPERIMENTS.iter().find(|e| e.id == id) {
            Some(e) => Selection::Experiments(vec![e]),
            None => {
                let ids: Vec<&str> = EXPERIMENT_CATALOG.iter().map(|e| e.id).collect();
                flags.refuse(format!(
                    "unknown experiment '{id}'; try {} all",
                    ids.join(" ")
                ))
            }
        }
    };
    runner_cfg.verbose = ctx.verbose;
    // Two fault kinds live outside the simulator: garbled-trace is a
    // self-test of the `.dtf` frame checks, and poisoned-cache corrupts the
    // persistent cache on disk before the sweep (the runner must then
    // detect every poisoned entry and degrade it to a miss).
    match ctx.inject {
        Some(plan) if plan.kind == dice_core::FaultKind::GarbledTrace => {
            garbled_trace_selftest(plan.seed);
        }
        Some(plan) if plan.kind == dice_core::FaultKind::PoisonedCache => {
            let Some(dir) = &runner_cfg.cache_dir else {
                flags.refuse("--inject poisoned-cache needs --cache-dir to poison");
            };
            let n = poison_cache_entries(dir);
            eprintln!(
                "[experiments] poisoned {n} cache entr{} under {}",
                if n == 1 { "y" } else { "ies" },
                dir.display()
            );
            // The fault lives on disk, not in the simulator; clear the
            // plan so cell keys match the clean run's (otherwise the
            // poisoned entries would never even be probed).
            ctx.inject = None;
        }
        _ => {}
    }
    // Fail on an unwritable output path now, not after a long run.
    for (flag, path) in [("--json", &json_path), ("--trace", &trace_path)] {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, "") {
                flags.refuse(format!("{flag}: cannot write {path}: {e}"));
            }
        }
    }
    let started = std::time::Instant::now();
    let (mut out, failures, sweep) = match &selection {
        Selection::Experiments(exps) => run_experiments(&ctx, exps, runner_cfg),
        Selection::Inspect(wl) => {
            let (sweep, mut failures) = run_sweep(&ctx, inspect_cells(&ctx, wl), runner_cfg);
            let out = render_isolated(&id, || inspect(&sweep, &wl.name), &mut failures);
            (out, failures, sweep)
        }
    };
    if diagnostics {
        out.push_str(SEPARATOR);
        out.push_str(&render_diagnostics(&sweep));
    }
    println!("{out}");
    if let Some(path) = json_path {
        std::fs::write(&path, json_dump(&ctx, &id, &sweep).render())
            .expect("writing --json output");
        eprintln!(
            "[experiments] wrote {} run reports to {path}",
            completed(&sweep).count()
        );
    }
    if let Some(path) = trace_path {
        std::fs::write(&path, trace_dump(&sweep).render()).expect("writing --trace output");
        eprintln!("[experiments] wrote Chrome trace to {path} (open in ui.perfetto.dev)");
    }
    eprintln!(
        "[experiments] {id} done in {:.1}s (scale 1/{}, {}+{} records/core)",
        started.elapsed().as_secs_f64(),
        ctx.scale,
        ctx.warmup,
        ctx.measure
    );
    if !failures.is_empty() {
        eprintln!("[experiments] {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::{
        fig11, ingest, ingest_cells, ingest_trace, ingest_trace_path, render_diagnostics,
        spec_named, trace_dump, DICE, EXPERIMENTS, INGEST_STREAM_RECORDS,
    };
    use dice_bench::{Ctx, EXPERIMENT_CATALOG};
    use dice_core::Organization;
    use dice_ingest::{DtfWriter, TraceBinding};
    use dice_obs::{register_counters, validate_chrome_trace, Json, MetricRegistry, TraceLevel};
    use dice_runner::{cell_key, Cell, Runner, RunnerConfig, SweepResult};
    use dice_sim::WorkloadSet;
    use dice_workloads::TraceGen;
    use std::collections::BTreeMap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn sweep(cells: Vec<Cell>) -> SweepResult {
        let runner = Runner::new(RunnerConfig {
            jobs: 2,
            ..RunnerConfig::default()
        })
        .expect("a runner without a cache");
        runner.run(cells)
    }

    /// `mcf` in rate mode, the workload these tests simulate.
    fn mcf(ctx: &Ctx) -> WorkloadSet {
        WorkloadSet::rate(spec_named("mcf"), ctx.seed)
    }

    /// The dispatch table and the shared catalog must agree exactly —
    /// same ids, same order — so `--list` / `/v1/experiments` can never
    /// drift from what the binary actually runs.
    #[test]
    fn dispatch_table_matches_shared_catalog() {
        let dispatch: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let catalog: Vec<&str> = EXPERIMENT_CATALOG.iter().map(|e| e.id).collect();
        assert_eq!(dispatch, catalog);
    }

    /// `all` simulates the union of every experiment's cells and keeps the
    /// first declaration of each `(tag, workload)`, so a tag must name one
    /// configuration across the whole catalog.
    #[test]
    fn a_tag_names_one_configuration_across_the_catalog() {
        let ctx = Ctx::quick();
        let mut first: BTreeMap<(String, String), (u64, &str)> = BTreeMap::new();
        for e in EXPERIMENTS {
            for cell in (e.cells)(&ctx) {
                let key = cell_key(&cell.cfg, &cell.workload);
                let (kept, by) = *first.entry(cell.memo_key()).or_insert((key, e.id));
                assert_eq!(
                    kept,
                    key,
                    "{}: {:?} differs from {by}'s",
                    e.id,
                    cell.memo_key()
                );
            }
        }
        std::fs::remove_file(ingest_trace_path(&ctx)).expect("removing the ingest trace");
    }

    /// A renderer simulates nothing: reading a cell the sweep lacks fails
    /// the experiment with a message naming the cell.
    #[test]
    fn renderer_names_a_cell_missing_from_the_sweep() {
        let ctx = Ctx::quick();
        let empty = sweep(Vec::new());
        let payload = catch_unwind(AssertUnwindSafe(|| fig11(&ctx, &empty)))
            .expect_err("fig11 must not render without its cells");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "cell dice36/mcf is not in the sweep");
    }

    /// `--diagnostics` output must agree with the counters every other
    /// consumer reads: the CIP sweep's `cip_accuracy`/`cip_predictions`
    /// and the registry counters a diag snapshot exports.
    #[test]
    fn diagnostics_cross_check_report_and_registry_counters() {
        let mut ctx = Ctx::quick();
        ctx.obs.trace_level = TraceLevel::Decisions;
        let wl = mcf(&ctx);
        let sweep = sweep(vec![ctx.cell("dice36", ctx.cfg(DICE), &wl)]);
        let r = sweep.report("dice36", "mcf").expect("the cell completed");
        let diag = r.diag.expect("Decisions-level run reports diagnostics");
        let d = diag.decisions;

        // Read-time confusion matrix vs the predictor's own counters.
        assert!(d.read_predictions() > 0, "mcf must score CIP predictions");
        assert_eq!(d.read_predictions(), r.cip_predictions);
        assert!((d.read_accuracy() - r.cip_accuracy).abs() < 1e-12);
        // Second probes attributed by path vs the flat L4 counter. The
        // diag covers the whole run, the report's L4 stats only the
        // measured window, so whole-run attribution must dominate.
        assert!(d.second_probe_reads + d.second_probe_writes >= r.l4.second_probes);
        // The same fields exported as registry counters round-trip.
        let mut reg = MetricRegistry::new();
        register_counters(&mut reg, "diag_", &d);
        assert_eq!(
            reg.counter_value("diag_cip_read_bai_bai"),
            Some(d.cip_read_bai_bai)
        );
        assert_eq!(reg.counter_value("diag_bytes_moved"), Some(d.bytes_moved));

        // And the rendered table carries the cross-checked numbers.
        let table = render_diagnostics(&sweep);
        assert!(table.contains("dice36/"));
        assert!(table.contains(&format!("{:.1}%", 100.0 * d.read_accuracy())));
        assert!(table.contains(&d.cip_read_bai_bai.to_string()));
    }

    /// Off-level runs carry no diagnostics and the renderer says so.
    #[test]
    fn diagnostics_renderer_reports_absence_at_trace_off() {
        let ctx = Ctx::quick();
        let wl = mcf(&ctx);
        let sweep = sweep(vec![ctx.cell("dice36", ctx.cfg(DICE), &wl)]);
        assert!(sweep.report("dice36", "mcf").is_ok());
        let text = render_diagnostics(&sweep);
        assert!(text.contains("no completed run"));
    }

    /// `--trace` writes one Chrome document that the shared validator
    /// accepts: one process row per completed run, each carrying every
    /// event its ring retained.
    #[test]
    fn trace_dump_is_one_valid_chrome_document() {
        let mut ctx = Ctx::quick();
        ctx.obs.trace_capacity = 64;
        let wl = mcf(&ctx);
        let sweep = sweep(vec![
            ctx.cell("base", ctx.cfg(Organization::UncompressedAlloy), &wl),
            ctx.cell("dice36", ctx.cfg(DICE), &wl),
        ]);
        // Runs export sorted by tag: `base` is pid 1, `dice36` pid 2.
        let runs = ["base", "dice36"].map(|tag| sweep.report(tag, "mcf").expect("completed"));

        let doc = trace_dump(&sweep);
        validate_chrome_trace(&doc).expect("trace dump validates");
        let events = doc.as_arr().expect("a trace_event array");
        let pids = |ph: &str| -> Vec<u64> {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .map(|e| e.get("pid").and_then(Json::as_u64).expect("numeric pid"))
                .collect()
        };
        assert_eq!(pids("M"), [1, 2], "one process_name event per run");
        let transactions = pids("X");
        for (pid, r) in (1..).zip(&runs) {
            assert_eq!(r.trace.len(), 64, "mcf fills a 64-event ring");
            assert_eq!(transactions.iter().filter(|&&p| p == pid).count(), 64);
        }
    }

    /// The ingest trace is rebuilt on every run: a foreign file of the
    /// right shape at its path is replaced, not reused.
    #[test]
    fn ingest_trace_replaces_a_foreign_file() {
        let mut ctx = Ctx::quick();
        ctx.seed = 0x1a57_f00d; // no other test writes this seed's trace
        let fresh = ingest_trace(&ctx).content_hash();

        let path = ingest_trace_path(&ctx);
        let mut w = DtfWriter::create(&path, 4, true).expect("planting a trace");
        let lbm = spec_named("lbm");
        for core in 0..4 {
            let mut gen = TraceGen::with_scale(&lbm, core, 1, ctx.scale);
            for _ in 0..INGEST_STREAM_RECORDS {
                w.push_record(core, gen.next_record()).expect("encoding");
            }
        }
        w.finish().expect("writing the planted trace");
        let planted = TraceBinding::open(&path).expect("the planted trace binds");
        assert_eq!(planted.cores(), 4);
        assert_eq!(planted.records(), 4 * INGEST_STREAM_RECORDS);
        assert_ne!(planted.content_hash(), fresh);

        assert_eq!(ingest_trace(&ctx).content_hash(), fresh);
        std::fs::remove_file(&path).expect("removing the test trace");
    }

    /// The ingest renderer removes the trace its cells streamed, also
    /// when a cell it reads is missing.
    #[test]
    fn ingest_renderer_removes_its_trace() {
        let mut ctx = Ctx::quick();
        ctx.seed = 0x1a57_d0e5; // no other test writes this seed's trace
        let path = ingest_trace_path(&ctx);
        let done = sweep(ingest_cells(&ctx));
        assert!(path.exists());
        assert!(ingest(&ctx, &done).starts_with("Trace ingestion: 4 streams"));
        assert!(!path.exists(), "a rendered run leaves its trace behind");

        ingest_trace(&ctx);
        let empty = sweep(Vec::new());
        catch_unwind(AssertUnwindSafe(|| ingest(&ctx, &empty)))
            .expect_err("ingest must not render without its cells");
        assert!(!path.exists(), "a failed run leaves its trace behind");
    }
}
