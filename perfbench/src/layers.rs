//! Per-layer metrics of a traced run.
//!
//! Three sources, each named in the README's metric table:
//!
//! * the run's own rounds: runner scheduling statistics, the spans the
//!   traced rounds recorded around the benchmark's calls (report
//!   rendering, HTTP exchanges), and traced vs untraced wall time;
//! * exact counts summed over one round's simulated reports (hit rates,
//!   probe and byte ratios, cycles): these repeat exactly for a seed;
//! * probes that replay the workload's sample cells through each layer's
//!   public functions: `System` itself, then the same record stream
//!   through the SRAM hierarchy, the L4 controller, the DRAM device, the
//!   size oracle and the codecs, one layer at a time, and a DTF1 trace
//!   packed and streamed back. These are outside estimates of each
//!   layer's host time; `layers.sum_ms` adds up the record, L3, oracle,
//!   L4 and DRAM replays beside `sim.run_ms`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use dice_cache::{HierarchyConfig, SramHierarchy};
use dice_compress::compressed_size;
use dice_core::{DramCacheController, Probe, SizeInfo};
use dice_dram::{AccessKind, DramDevice, Location};
use dice_ingest::{scan, DtfCoreStream, DtfWriter};
use dice_obs::Json;
use dice_runner::{cell_key, Cell, DiskCache};
use dice_sim::{geomean, RunReport, System};
use dice_workloads::{DataModel, MixDataModel, RecordSource, TraceGen, TraceRecord, WorkloadSpec};

use crate::harness::{cell_records, Measured};
use crate::spans::Tracer;
use crate::stats::median;

/// Per-layer metrics by name, with units.
pub type Layers = BTreeMap<&'static str, (f64, &'static str)>;

/// Records per stream the ingest probe packs.
const INGEST_PROBE_RECORDS: usize = 8_192;
/// Lines the codec probe compresses per sample cell.
const CODEC_PROBE_LINES: usize = 20_000;
/// Repetitions of the short probes (key, cache, JSON), reduced by median.
const REPS: usize = 15;

/// Every per-layer metric of a traced run of `workload`.
pub fn measure(workload: &str, m: &Measured, tracer: &Tracer, dir: &Path) -> Layers {
    let mut out = Layers::new();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    // Simulator and the layers below it, replayed from the sample cells.
    let mut sim = SimProbe::default();
    let mut reports = Vec::new();
    for cell in &m.sample {
        reports.push(sim.run(cell));
    }
    let mut replay = ReplayProbe::default();
    for cell in &m.sample {
        replay.run(cell);
    }
    let cells = m.sample.len().max(1) as f64;
    let events = sim.events_scheduled.max(1) as f64;
    out.insert("sim.new_ms", (median(&sim.new_ms), "ms"));
    out.insert("sim.run_ms", (median(&sim.run_ms), "ms"));
    out.insert(
        "sim.host_ns_per_event",
        (sim.run_total.as_secs_f64() * 1e9 / events, "ns"),
    );
    out.insert(
        "sim.events_per_record",
        (events / sim.records.max(1) as f64, "count"),
    );
    out.insert(
        "sim.chained_ratio",
        (
            sim.events_chained as f64 / (sim.events_chained + sim.events_scheduled).max(1) as f64,
            "ratio",
        ),
    );
    let per_op = |d: Duration, n: u64| d.as_secs_f64() * 1e9 / n.max(1) as f64;
    out.insert(
        "workloads.tracegen_ns_per_record",
        (per_op(replay.tracegen, replay.tracegen_records), "ns"),
    );
    out.insert(
        "workloads.size_oracle_ns",
        (per_op(replay.oracle, replay.l4_ops), "ns"),
    );
    out.insert(
        "compress.size_ns_per_line",
        (per_op(replay.codec, replay.codec_lines), "ns"),
    );
    out.insert(
        "cache.sram_access_ns",
        (per_op(replay.sram, replay.records), "ns"),
    );
    out.insert("core.l4_op_ns", (per_op(replay.l4, replay.l4_ops), "ns"));
    out.insert("dram.access_ns", (per_op(replay.dram, replay.probes), "ns"));
    let layer_sum =
        ms(replay.tracegen + replay.sram + replay.oracle + replay.l4 + replay.dram) / cells;
    let run_mean = ms(sim.run_total) / sim.run_ms.len().max(1) as f64;
    out.insert("layers.sum_ms", (layer_sum, "ms"));
    out.insert("sim.glue_share", (1.0 - layer_sum / run_mean, "ratio"));

    // Exact counts over one round's reports.
    exact_counts(&m.reports, &mut out);

    // Runner: the run's own sweeps, then the key and disk-cache probes.
    let steals: Vec<f64> = m.sweeps.iter().map(|s| s.steals as f64).collect();
    let idle: Vec<f64> = m.sweeps.iter().map(|s| s.tail_idle_ms as f64).collect();
    let submitted: usize = m.sweeps.iter().map(|s| s.submitted).sum();
    let deduped: usize = m.sweeps.iter().map(|s| s.deduped).sum();
    out.insert("runner.steals", (median_or_zero(&steals), "count"));
    out.insert("runner.tail_idle_ms", (median_or_zero(&idle), "ms"));
    out.insert(
        "runner.dedup_ratio",
        (deduped as f64 / submitted.max(1) as f64, "ratio"),
    );
    runner_and_obs_probe(&m.sample, &reports, dir, &mut out);
    out.insert(
        "obs.report_to_json_us",
        (
            median_or_zero(&tracer.durations_ms("obs.report_to_json")) * 1e3,
            "us",
        ),
    );

    ingest_probe(&m.sample, dir, &mut out);

    // Serve: the workload's own requests, or a short exchange with a
    // server booted for the probe.
    let probe;
    let (serve_m, serve_spans) = if workload == "serve_sweeps" {
        (m, tracer)
    } else {
        probe = crate::serve::probe(dir);
        (&probe.0, &probe.1)
    };
    serve_metrics(serve_m, serve_spans, &mut out);

    let untraced = median_or_zero(&m.wall_s);
    let traced = median_or_zero(&m.traced_wall_s);
    out.insert(
        "trace.overhead_ratio",
        (
            if untraced > 0.0 {
                traced / untraced
            } else {
                1.0
            },
            "ratio",
        ),
    );
    out
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Timings and engine counters of direct `System` runs.
#[derive(Default)]
struct SimProbe {
    new_ms: Vec<f64>,
    run_ms: Vec<f64>,
    run_total: Duration,
    records: u64,
    events_scheduled: u64,
    events_chained: u64,
}

impl SimProbe {
    /// Builds and runs `cell` on `System`, taking this run's own engine
    /// counters (never the process-wide totals, which mix concurrent
    /// cells).
    fn run(&mut self, cell: &Cell) -> RunReport {
        let t0 = Instant::now();
        let sys = System::new(cell.cfg.clone(), &cell.workload);
        self.new_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        let (report, engine) = sys.run_with_engine_stats();
        let run = t1.elapsed();
        self.run_ms.push(run.as_secs_f64() * 1e3);
        self.run_total += run;
        self.records += cell_records(cell);
        self.events_scheduled += engine.events_scheduled;
        self.events_chained += engine.events_chained;
        report
    }
}

/// The per-core record generators of `cell`, built as `System::new`
/// builds them.
fn generators(cell: &Cell) -> Vec<TraceGen> {
    specs(cell)
        .iter()
        .enumerate()
        .map(|(i, s)| TraceGen::with_scale(s, i as u32, cell.workload.seed, cell.cfg.scale))
        .collect()
}

/// One spec per core, as `System::new` expands them.
fn specs(cell: &Cell) -> Vec<WorkloadSpec> {
    let specs = &cell.workload.specs;
    if specs.len() == 1 {
        vec![specs[0].clone(); cell.cfg.cores]
    } else {
        specs.clone()
    }
}

/// The size oracle `System::new` builds for `cell`.
fn data_model(cell: &Cell) -> MixDataModel {
    MixDataModel::new(
        specs(cell).iter().map(|s| s.values).collect(),
        cell.workload.seed ^ 0xda7a,
    )
}

/// One L4 operation of the replayed stream.
#[derive(Clone, Copy)]
enum L4Op {
    /// An L3 demand miss.
    Read(u64),
    /// A dirty L3 victim.
    Writeback(u64),
}

/// Host time of each layer over the sample cells' record streams.
#[derive(Default)]
struct ReplayProbe {
    /// Generating the cell's records.
    tracegen: Duration,
    tracegen_records: u64,
    sram: Duration,
    records: u64,
    oracle: Duration,
    l4: Duration,
    l4_ops: u64,
    dram: Duration,
    probes: u64,
    codec: Duration,
    codec_lines: u64,
}

impl ReplayProbe {
    fn run(&mut self, cell: &Cell) {
        let cfg = &cell.cfg;
        let per_core = (cfg.warmup_records + cfg.measure_records) as usize;

        // Records, interleaved round-robin across cores.
        let mut gens = generators(cell);
        let t = Instant::now();
        let mut records: Vec<TraceRecord> = Vec::with_capacity(per_core * gens.len());
        for _ in 0..per_core {
            for g in &mut gens {
                records.push(g.next_record());
            }
        }
        self.tracegen += t.elapsed();
        self.tracegen_records += records.len() as u64;

        // SRAM hierarchy: the shared-L3 entry points the simulator drives.
        let mut l3 = SramHierarchy::new(&HierarchyConfig {
            cores: cfg.cores,
            l3_bytes: cfg.l3_bytes,
            l3_ways: cfg.l3_ways,
            ..HierarchyConfig::paper_8core()
        });
        let mut ops = Vec::with_capacity(records.len() / 2);
        let mut victims = Vec::new();
        let t = Instant::now();
        for r in &records {
            if l3.l3_access(r.line, r.write) {
                continue;
            }
            ops.push(L4Op::Read(r.line));
            l3.l3_fill(r.line, r.write);
            l3.drain_writebacks_into(&mut victims);
            ops.extend(victims.drain(..).map(L4Op::Writeback));
        }
        self.sram += t.elapsed();
        self.records += records.len() as u64;

        // Size oracle, cold: the lazily memoized per-page sizes.
        let mut data = data_model(cell);
        let line_of = |op: &L4Op| match *op {
            L4Op::Read(l) | L4Op::Writeback(l) => l,
        };
        let t = Instant::now();
        for op in &ops {
            let line = line_of(op);
            black_box(data.single_size(line) + data.pair_size(line & !1));
        }
        self.oracle += t.elapsed();

        // L4 controller, on the now-warm oracle.
        let mut l4 = DramCacheController::new(cfg.l4);
        let mut probes: Vec<Probe> = Vec::with_capacity(ops.len() * 2);
        let t = Instant::now();
        for op in &ops {
            match *op {
                L4Op::Read(line) => {
                    let out = l4.read(line);
                    probes.extend(out.probes.iter().copied());
                    if !out.hit {
                        let probed = out.probes.last().map(|p| p.set);
                        probes.extend(
                            l4.fill(line, false, probed, &mut data)
                                .probes
                                .iter()
                                .copied(),
                        );
                    }
                }
                L4Op::Writeback(line) => {
                    probes.extend(l4.writeback(line, &mut data).probes.iter().copied());
                }
            }
        }
        self.l4 += t.elapsed();
        self.l4_ops += ops.len() as u64;

        // Stacked DRAM, one probe every 8 cycles.
        let mut dev = DramDevice::new(cfg.l4_dram.clone());
        let locs: Vec<Location> = probes
            .iter()
            .map(|p| Location::interleave(dev.config(), l4.row_of(p.set)))
            .collect();
        let t = Instant::now();
        for (i, (p, loc)) in probes.iter().zip(&locs).enumerate() {
            let kind = if p.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            black_box(dev.access(i as u64 * 8, kind, *loc, p.bytes));
        }
        self.dram += t.elapsed();
        self.probes += probes.len() as u64;

        // Codecs on the replayed lines, valued by the cell's value models
        // in turn.
        let models: Vec<DataModel> = specs(cell)
            .iter()
            .map(|s| DataModel::new(s, cell.workload.seed ^ 0xda7a))
            .collect();
        let lines: Vec<_> = ops
            .iter()
            .take(CODEC_PROBE_LINES)
            .enumerate()
            .map(|(i, op)| models[i % models.len()].line_data(line_of(op)))
            .collect();
        let t = Instant::now();
        for l in &lines {
            black_box(compressed_size(black_box(l)));
        }
        self.codec += t.elapsed();
        self.codec_lines += lines.len() as u64;
    }
}

/// Exact counts summed over a round's reports.
fn exact_counts(reports: &[(String, String, std::sync::Arc<RunReport>)], out: &mut Layers) {
    let ratio = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|(_, _, r)| f(r)).sum::<u64>();
    let reads = sum(&|r| r.l4.reads);
    out.insert(
        "core.l4_hit_rate",
        (ratio(sum(&|r| r.l4.read_hits), reads), "ratio"),
    );
    out.insert(
        "core.second_probe_ratio",
        (ratio(sum(&|r| r.l4.second_probes), reads), "ratio"),
    );
    out.insert(
        "core.l4_bytes_per_useful_line",
        (
            ratio(
                sum(&|r| r.l4_dram.bytes),
                sum(&|r| r.l4.read_hits + r.l4.free_lines),
            ),
            "B",
        ),
    );
    out.insert(
        "cache.l3_miss_ratio",
        (
            ratio(sum(&|r| r.l3.misses), sum(&|r| r.l3.hits + r.l3.misses)),
            "ratio",
        ),
    );
    let accesses = sum(&|r| r.l4_dram.accesses() + r.mem_dram.accesses());
    out.insert(
        "dram.row_hit_rate",
        (
            ratio(sum(&|r| r.l4_dram.row_hits + r.mem_dram.row_hits), accesses),
            "ratio",
        ),
    );
    out.insert(
        "dram.queue_stalls_per_access",
        (
            ratio(
                sum(&|r| r.l4_dram.queue_stalls + r.mem_dram.queue_stalls),
                accesses,
            ),
            "count",
        ),
    );
    out.insert("output.cycles_total", (sum(&|r| r.cycles) as f64, "cycles"));
    let base: BTreeMap<&str, &RunReport> = reports
        .iter()
        .filter(|(tag, _, _)| tag == "base")
        .map(|(_, wl, r)| (wl.as_str(), &**r))
        .collect();
    let speedups: Vec<f64> = reports
        .iter()
        .filter(|(tag, _, _)| tag == "dice36")
        .filter_map(|(_, wl, r)| base.get(wl.as_str()).map(|b| r.weighted_speedup(b)))
        .collect();
    out.insert(
        "output.dice_speedup_geomean",
        (
            if speedups.is_empty() {
                1.0
            } else {
                geomean(&speedups)
            },
            "ratio",
        ),
    );
}

/// Medians of the cell-key, disk-cache and report-parse probes over the
/// sample cells and their reports.
fn runner_and_obs_probe(sample: &[Cell], reports: &[RunReport], dir: &Path, out: &mut Layers) {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed()
    };
    let (mut key, mut load, mut store, mut from_json) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let cache = DiskCache::open(dir.join("cache-probe")).expect("creating the probe cache");
    for _ in 0..REPS {
        for (cell, report) in sample.iter().zip(reports) {
            let mut k = 0;
            key.push(time(&mut || {
                k = black_box(cell_key(&cell.cfg, &cell.workload))
            }));
            store.push(time(&mut || {
                cache
                    .store(k, &cell.tag, report)
                    .expect("writing the probe cache");
            }));
            load.push(time(&mut || {
                black_box(cache.load(k).expect("the entry was just stored"));
            }));
            let text = report.to_json().render();
            from_json.push(time(&mut || {
                let doc = Json::parse(&text).expect("a rendered report parses");
                black_box(RunReport::from_json(&doc).expect("a rendered report decodes"));
            }));
        }
    }
    let _ = std::fs::remove_dir_all(dir.join("cache-probe"));
    for (name, samples, unit, scale) in [
        ("runner.cell_key_us", &key, "us", 1e6),
        ("runner.cache_load_ms", &load, "ms", 1e3),
        ("runner.cache_store_ms", &store, "ms", 1e3),
        ("obs.report_from_json_us", &from_json, "us", 1e6),
    ] {
        let v: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * scale).collect();
        out.insert(name, (median_or_zero(&v), unit));
    }
}

/// Ingest metrics: packs a sample cell's records with `DtfWriter`
/// (compressed frames), then streams every record back with
/// `DtfCoreStream`.
fn ingest_probe(sample: &[Cell], dir: &Path, out: &mut Layers) {
    let path = dir.join("ingest-probe.dtf");
    let streams: Vec<Vec<TraceRecord>> = sample
        .first()
        .map(|c| {
            generators(c)
                .iter_mut()
                .map(|g| (0..INGEST_PROBE_RECORDS).map(|_| g.next_record()).collect())
                .collect()
        })
        .unwrap_or_default();
    let t = Instant::now();
    let mut w =
        DtfWriter::create(&path, streams.len() as u32, true).expect("creating the probe trace");
    for (core, records) in streams.iter().enumerate() {
        for r in records {
            w.push_record(core as u32, *r)
                .expect("writing a probe record");
        }
    }
    w.finish().expect("finishing the probe trace");
    let encode = t.elapsed();
    let info = scan(&path, true).expect("the probe trace was just written");
    let mut resident = 0usize;
    let t = Instant::now();
    for (core, stat) in info.per_core.iter().enumerate() {
        let mut s = DtfCoreStream::open(&path, core as u32, stat.footprint_lines())
            .expect("opening a probe stream");
        for _ in 0..stat.records {
            black_box(s.next_record());
        }
        resident = resident.max(s.resident_bytes());
    }
    let decode = t.elapsed();
    let _ = std::fs::remove_file(&path);
    let n = info.records.max(1) as f64;
    out.insert(
        "ingest.encode_records_per_s",
        (n / encode.as_secs_f64(), "1/s"),
    );
    out.insert(
        "ingest.decode_records_per_s",
        (n / decode.as_secs_f64(), "1/s"),
    );
    out.insert("ingest.bytes_per_record", (info.file_bytes as f64 / n, "B"));
    out.insert("ingest.resident_bytes", (resident as f64, "B"));
}

/// Serve-layer metrics from a serve run's spans and totals.
fn serve_metrics(m: &Measured, tracer: &Tracer, out: &mut Layers) {
    for (span, name) in [
        ("serve.healthz", "serve.healthz_rtt_ms"),
        ("serve.post", "serve.post_ms"),
        ("serve.status", "serve.status_ms"),
        ("serve.report", "serve.report_ms"),
        ("serve.render_runs", "serve.render_runs_ms"),
    ] {
        out.insert(name, (median_or_zero(&tracer.durations_ms(span)), "ms"));
    }
    for (name, unit) in [
        ("serve.round_trips_per_request", "count"),
        ("serve.coalesced_ratio", "ratio"),
    ] {
        out.insert(
            name,
            (m.layer_extra.get(name).copied().unwrap_or(0.0), unit),
        );
    }
}
