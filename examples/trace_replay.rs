//! Trace replay: record a synthetic multi-core trace into a `.dtf` file,
//! bind it, and drive the simulator from the file — the workflow for
//! users who have *real* post-L2 traces from an instrumentation tool
//! (`dice-ingest pack` converts text traces into the same container).
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use dice::core::Organization;
use dice::ingest::{DtfWriter, TraceBinding};
use dice::sim::{SimConfig, System, WorkloadSet};
use dice::workloads::{spec_table, TraceGen};

/// This process's scratch directory, removed when dropped — also when an
/// error returns early from `main`.
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = spec_table()
        .into_iter()
        .find(|w| w.name == "soplex")
        .unwrap();
    let dir =
        ScratchDir(std::env::temp_dir().join(format!("dice-replay-demo-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0)?;

    // 1. Record one stream per core into a single trace file.
    let path = dir.0.join("soplex.dtf");
    let mut w = DtfWriter::create(&path, 8, true)?;
    for core in 0..8u32 {
        let mut gen = TraceGen::with_scale(&spec, core, 0xd1ce, 512);
        for _ in 0..30_000 {
            w.push_record(core, gen.next_record())?;
        }
    }
    w.finish()?;
    println!("recorded 8 x 30k records to {}", path.display());

    // 2. Bind the file and replay it through the full system: core `i`
    //    streams file stream `i`, looping at end of trace.
    let workload = WorkloadSet::traced("soplex-replay", spec, 0xd1ce, TraceBinding::open(&path)?);
    let cfg =
        SimConfig::scaled(Organization::Dice { threshold: 36 }, 512).with_records(8_000, 16_000);
    let report = System::new(cfg, &workload).run();

    println!(
        "replayed run: {} cycles, L3 hit {:.1}%, L4 hit {:.1}%, {} free pair lines",
        report.cycles,
        100.0 * report.l3.hit_rate(),
        100.0 * report.l4.hit_rate(),
        report.l4.free_lines
    );
    Ok(())
}
