//! Streamed-trace replay: a sweep cell driven by a bounded-memory `.dtf`
//! stream, packed in small frames so every core refills often and skips
//! the other cores' frames, must run exactly as the records it streams.

use dice_core::Organization;
use dice_ingest::{DtfWriter, TraceBinding};
use dice_sim::{SimConfig, System, WorkloadSet};
use dice_workloads::{spec_table, TraceGen, WorkloadSpec};

fn spec(name: &str) -> WorkloadSpec {
    spec_table()
        .into_iter()
        .find(|s| s.name == name)
        .expect("spec exists")
}

fn small_cfg(org: Organization) -> SimConfig {
    SimConfig::scaled(org, 512).with_records(400, 1200)
}

/// Removes its directory when dropped, at the end of the test.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A directory of its own, named by test and process, and the guard that
/// removes it.
fn scratch(name: &str) -> (Scratch, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "dice-sim-trace-ingest-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    (Scratch(dir.clone()), dir)
}

/// Packs one stream per entry of `streams` in 257-record frames; stream
/// `i` holds `per_core` records of `spec`'s generator for core
/// `streams[i]`.
fn pack_trace(
    path: &std::path::Path,
    s: &WorkloadSpec,
    seed: u64,
    scale: u64,
    streams: &[u32],
    per_core: u64,
) -> TraceBinding {
    let mut w = DtfWriter::create(path, streams.len() as u32, true)
        .unwrap()
        // Small frames force many refills and other-core skips.
        .with_frame_records(257);
    for (stream, &core) in (0..).zip(streams) {
        let mut gen = TraceGen::with_scale(s, core, seed, scale);
        for _ in 0..per_core {
            w.push_record(stream, gen.next_record()).unwrap();
        }
    }
    w.finish().unwrap();
    TraceBinding::open(path).unwrap()
}

/// Streaming the records a generator-driven run consumed reproduces that
/// run: same cycles, same cache and memory behaviour.
#[test]
fn streamed_trace_matches_generated_run() {
    let (_guard, dir) = scratch("generated");
    let s = spec("mcf");
    for (i, org) in [
        Organization::UncompressedAlloy,
        Organization::Dice { threshold: 36 },
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = small_cfg(org);
        let reference = System::new(cfg.clone(), &WorkloadSet::rate(s.clone(), 7)).run();

        let total = cfg.warmup_records + cfg.measure_records;
        let path = dir.join(format!("generated-{i}.dtf"));
        let binding = pack_trace(&path, &s, 7, cfg.scale, &[0, 1, 2, 3, 4, 5, 6, 7], total);
        let traced = WorkloadSet::traced("mcf", s.clone(), 7, binding);
        let replayed = System::new(cfg, &traced).run();

        assert_eq!(replayed.cycles, reference.cycles, "{org:?}");
        assert_eq!(replayed.l4.reads, reference.l4.reads, "{org:?}");
        assert_eq!(replayed.l4.free_lines, reference.l4.free_lines, "{org:?}");
        assert_eq!(replayed.mem_dram.bytes, reference.mem_dram.bytes, "{org:?}");
    }
}

/// A trace recorded on fewer streams than the simulated core count maps
/// `core % file_cores`: a 2-stream file drives 8 cores exactly as an
/// 8-stream file whose stream `i` repeats stream `i % 2`.
#[test]
fn narrow_trace_fans_out_over_more_cores() {
    let (_guard, dir) = scratch("narrow");
    let mcf = spec("mcf");
    let narrow = pack_trace(&dir.join("narrow.dtf"), &mcf, 0xd1ce, 512, &[0, 1], 1500);
    let wide = pack_trace(
        &dir.join("wide.dtf"),
        &mcf,
        0xd1ce,
        512,
        &[0, 1, 0, 1, 0, 1, 0, 1],
        1500,
    );
    assert_eq!((narrow.cores(), wide.cores()), (2, 8));

    let lbm = spec("lbm");
    let cfg = small_cfg(Organization::Dice { threshold: 36 });
    let run = |binding| {
        let wl = WorkloadSet::traced("narrow", lbm.clone(), 9, binding);
        System::new(cfg.clone(), &wl).run().to_json().render()
    };
    assert_eq!(run(narrow), run(wide));
}
