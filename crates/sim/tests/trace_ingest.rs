//! Streamed-trace equivalence: a sweep cell driven by a bounded-memory
//! `.dtf` stream must produce a report byte-identical to the same records
//! run from memory via the binding's preload mode.

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

/// A `.dtf` path in a fresh directory of its own, named by test and
/// process, and the guard that removes that directory.
fn trace_path(name: &str) -> (Scratch, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "dice-sim-trace-ingest-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.dtf"));
    (Scratch(dir), path)
}

/// Packs a synthetic multi-core trace.
fn pack_trace(path: &std::path::Path, cores: usize, per_core: u64) {
    let s = spec("mcf");
    let mut w = DtfWriter::create(path, cores as u32, true)
        .unwrap()
        // Small frames force many refills and other-core skips.
        .with_frame_records(257);
    for core in 0..cores {
        let mut gen = TraceGen::with_scale(&s, core as u32, 0xd1ce, 512);
        for _ in 0..per_core {
            w.push_record(core as u32, gen.next_record()).unwrap();
        }
    }
    w.finish().unwrap();
}

#[test]
fn streamed_trace_report_is_byte_identical_to_in_memory() {
    let (_dir, path) = trace_path("equiv");
    pack_trace(&path, 8, 2000);

    let binding = TraceBinding::open(&path).unwrap();
    let s = spec("mcf");

    for org in [
        Organization::UncompressedAlloy,
        Organization::Dice { threshold: 36 },
    ] {
        let cfg = small_cfg(org);

        // 1. Streamed: bounded-memory frame streaming straight off disk.
        let streamed = WorkloadSet::traced("mcf-trace", s.clone(), 7, binding.clone());
        let streamed_report = System::new(cfg.clone(), &streamed).run().to_json().render();

        // 2. Preload mode: same binding, records materialized up front.
        let preload = WorkloadSet::traced(
            "mcf-trace",
            s.clone(),
            7,
            binding.clone().with_preload(true),
        );
        let preload_report = System::new(cfg, &preload).run().to_json().render();

        assert_eq!(
            streamed_report, preload_report,
            "{org:?}: streamed vs preload"
        );
    }
}

/// A trace recorded on fewer streams than the simulated core count maps
/// `core % file_cores` — still deterministic and identical between
/// streamed and preloaded modes.
#[test]
fn narrow_trace_fans_out_over_more_cores() {
    let (_dir, path) = trace_path("narrow");
    pack_trace(&path, 2, 1500);

    let binding = TraceBinding::open(&path).unwrap();
    assert_eq!(binding.cores(), 2);
    let s = spec("lbm");
    let cfg = small_cfg(Organization::Dice { threshold: 36 });

    let streamed = WorkloadSet::traced("narrow", s.clone(), 9, binding.clone());
    let preload = WorkloadSet::traced("narrow", s, 9, binding.with_preload(true));
    assert_eq!(
        System::new(cfg.clone(), &streamed).run().to_json().render(),
        System::new(cfg, &preload).run().to_json().render(),
    );
}
