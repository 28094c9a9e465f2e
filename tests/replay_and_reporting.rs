//! Integration tests for the trace-replay path and the reporting layer —
//! the public surfaces downstream users touch first.

use dice::core::Organization;
use dice::ingest::{pack_records, read_core_records, DtfWriter, TraceBinding};
use dice::sim::{SimConfig, System, WorkloadSet};
use dice::workloads::{spec_table, TraceGen, TraceRecord};

fn spec(name: &str) -> dice::workloads::WorkloadSpec {
    spec_table().into_iter().find(|w| w.name == name).unwrap()
}

fn small_cfg(org: Organization) -> SimConfig {
    SimConfig::scaled(org, 1024).with_records(2_000, 4_000)
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
        "dice-integration-trace-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.dtf"));
    (Scratch(dir), path)
}

/// Recording a generator into a `.dtf` file and replaying it must
/// reproduce the generated run exactly: same cycles, same cache behaviour.
#[test]
fn replayed_trace_matches_generated_run() {
    let s = spec("gcc");
    let cfg = small_cfg(Organization::Dice { threshold: 36 });

    // Reference: the generator-driven system.
    let reference = System::new(cfg.clone(), &WorkloadSet::rate(s.clone(), 9)).run();

    // Record exactly the records the run consumed (warmup + measure), one
    // stream per core, then replay the file.
    let (_dir, path) = trace_path("generated");
    let total = cfg.warmup_records + cfg.measure_records;
    let mut w = DtfWriter::create(&path, 8, true).unwrap();
    for core in 0..8 {
        let mut g = TraceGen::with_scale(&s, core, 9, cfg.scale);
        for _ in 0..total {
            w.push_record(core, g.next_record()).unwrap();
        }
    }
    w.finish().unwrap();
    let traced = WorkloadSet::traced("gcc", s, 9, TraceBinding::open(&path).unwrap());
    let replayed = System::new(cfg, &traced).run();

    assert_eq!(replayed.cycles, reference.cycles);
    assert_eq!(replayed.l4.reads, reference.l4.reads);
    assert_eq!(replayed.l4.free_lines, reference.l4.free_lines);
    assert_eq!(replayed.mem_dram.bytes, reference.mem_dram.bytes);
}

/// Traces survive a trip through the `.dtf` container, and a bound
/// stream replays them in order, looping at end of trace.
#[test]
fn trace_files_round_trip_through_disk() {
    let (_dir, path) = trace_path("roundtrip");
    let mut g = TraceGen::with_scale(&spec("mcf"), 2, 77, 512);
    let records: Vec<TraceRecord> = (0..5_000).map(|_| g.next_record()).collect();
    pack_records(&path, &records, true).unwrap();
    let loaded: Vec<TraceRecord> = read_core_records(&path, 0)
        .unwrap()
        .into_iter()
        .map(|r| r.rec)
        .collect();
    assert_eq!(loaded, records);

    let mut replay = TraceBinding::open(&path).unwrap().open_core(0).unwrap();
    for r in records.iter().chain(&records[..10]) {
        assert_eq!(replay.next_record(), *r);
    }
}

/// The reporting layer's energy composition is self-consistent across
/// organizations: energy = L4 + memory, EDP = energy × delay.
#[test]
fn energy_report_identities_hold() {
    for org in [
        Organization::UncompressedAlloy,
        Organization::Dice { threshold: 36 },
    ] {
        let r = System::new(small_cfg(org), &WorkloadSet::rate(spec("milc"), 3)).run();
        let e = &r.energy;
        assert!((e.total_joules() - (e.l4_joules + e.mem_joules)).abs() < 1e-15);
        let expected_edp = e.total_joules() * r.cycles as f64 / 3.2e9;
        assert!((e.edp() - expected_edp).abs() < 1e-12);
        assert!(e.power_watts() > 0.0);
    }
}

/// Weighted speedup is symmetric-consistent: s(a,b) ≈ 1 / s(b,a) for
/// uniform per-core ratios, and transitive orderings agree with cycles.
#[test]
fn weighted_speedup_sanity() {
    let wl = WorkloadSet::rate(spec("soplex"), 5);
    let base = System::new(small_cfg(Organization::UncompressedAlloy), &wl).run();
    let dice = System::new(small_cfg(Organization::Dice { threshold: 36 }), &wl).run();
    let forward = dice.weighted_speedup(&base);
    let backward = base.weighted_speedup(&dice);
    // Rate-mode cores are near-uniform, so the product is close to 1.
    assert!(
        (forward * backward - 1.0).abs() < 0.05,
        "{forward} * {backward}"
    );
    // Direction agrees with total cycles.
    assert_eq!(forward > 1.0, dice.cycles < base.cycles);
}

/// Capacity sampling reports coherent numbers for every organization.
#[test]
fn capacity_reporting_is_coherent() {
    for org in [
        Organization::UncompressedAlloy,
        Organization::CompressedTsi,
        Organization::Dice { threshold: 36 },
    ] {
        let r = System::new(small_cfg(org), &WorkloadSet::rate(spec("cc_twi"), 5)).run();
        assert!(r.avg_valid_lines > 0.0, "{org:?}");
        assert!(r.avg_occupied_sets > 0.0, "{org:?}");
        assert!(r.avg_valid_lines >= r.avg_occupied_sets - 1e-9, "{org:?}");
        let ratio = r.capacity_ratio();
        if org == Organization::UncompressedAlloy {
            assert!((ratio - 1.0).abs() < 1e-9, "uncompressed ratio {ratio}");
        } else {
            assert!(ratio >= 1.0, "{org:?} ratio {ratio}");
        }
    }
}
