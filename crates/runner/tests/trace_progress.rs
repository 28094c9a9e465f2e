//! Span tracing and live progress across the worker pool.

use std::sync::{Arc, Mutex};

use dice_core::Organization;
use dice_obs::{SpanRecord, TraceCtx};
use dice_runner::{Cell, CellProgress, ProgressSink, Runner, RunnerConfig};
use dice_sim::{SimConfig, WorkloadSet};
use dice_workloads::spec_table;

fn spec(name: &str) -> dice_workloads::WorkloadSpec {
    spec_table().into_iter().find(|w| w.name == name).unwrap()
}

fn quick_cfg(org: Organization) -> SimConfig {
    SimConfig::scaled(org, 1024).with_records(1_000, 2_500)
}

fn small_sweep() -> Vec<Cell> {
    let mut cells = Vec::new();
    for name in ["gcc", "mcf"] {
        let wl = WorkloadSet::rate(spec(name), 7);
        cells.push(Cell::new(
            "base",
            quick_cfg(Organization::UncompressedAlloy),
            wl.clone(),
        ));
        cells.push(Cell::new(
            "dice36",
            quick_cfg(Organization::Dice { threshold: 36 }),
            wl,
        ));
    }
    cells
}

fn children<'a>(spans: &'a [SpanRecord], parent: &SpanRecord) -> Vec<&'a SpanRecord> {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent.id))
        .collect()
}

/// A traced parallel sweep yields a single causally-linked tree: one root,
/// one `cell:` span per unique cell under it, and each simulation's
/// warmup/measure phases under their cell — even though the cells ran on
/// different worker threads.
#[test]
fn traced_sweep_yields_one_causally_linked_tree() {
    let ctx = TraceCtx::enabled();
    let root_id = {
        let root = ctx.span("sweep").unwrap();
        let id = root.id();
        let runner = Runner::new(RunnerConfig {
            jobs: 3,
            trace: root.ctx(),
            ..RunnerConfig::default()
        })
        .unwrap();
        let result = runner.run(small_sweep());
        assert_eq!(result.failed(), 0);
        id
    };

    let spans = ctx.spans();
    let root = spans.iter().find(|s| s.id == root_id).unwrap();
    assert!(root.parent.is_none());

    let cells: Vec<_> = children(&spans, root);
    assert_eq!(cells.len(), 4, "one cell span per unique cell");
    let mut names: Vec<_> = cells.iter().map(|s| s.name.clone()).collect();
    names.sort();
    assert_eq!(
        names,
        [
            "cell:base/gcc",
            "cell:base/mcf",
            "cell:dice36/gcc",
            "cell:dice36/mcf"
        ]
    );

    for cell in &cells {
        let phases = children(&spans, cell);
        let mut phase_names: Vec<_> = phases.iter().map(|s| s.name.as_str()).collect();
        phase_names.sort_unstable();
        assert_eq!(
            phase_names,
            ["sim.measure", "sim.warmup"],
            "cell {} should parent both simulation phases",
            cell.name
        );
        for phase in &phases {
            assert!(phase.end_us >= phase.start_us);
            assert!(phase.cycles.is_some(), "phase spans carry sim-cycle bounds");
        }
    }

    // Every span except the root links back to the tree.
    for s in &spans {
        if s.id != root_id {
            assert!(s.parent.is_some(), "span {} is orphaned", s.name);
        }
    }
}

/// The progress sink fires exactly once per unique cell, in completion
/// order (seq 1..=total), and a disabled trace adds no spans.
#[test]
fn progress_events_fire_once_per_cell_in_completion_order() {
    let events: Arc<Mutex<Vec<CellProgress>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_events = Arc::clone(&events);
    let runner = Runner::new(RunnerConfig {
        jobs: 2,
        progress: Some(ProgressSink::new(move |p| {
            sink_events.lock().unwrap().push(p);
        })),
        ..RunnerConfig::default()
    })
    .unwrap();
    let result = runner.run(small_sweep());
    assert_eq!(result.failed(), 0);

    let events = events.lock().unwrap();
    assert_eq!(events.len(), 4);
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.seq, i + 1, "events arrive in completion order");
        assert_eq!(ev.total, 4);
        assert_eq!(ev.status, "simulated");
        assert!(ev.wall_ms < 600_000);
    }
    let mut keys: Vec<_> = events
        .iter()
        .map(|e| format!("{}/{}", e.tag, e.workload))
        .collect();
    keys.sort();
    assert_eq!(keys, ["base/gcc", "base/mcf", "dice36/gcc", "dice36/mcf"]);
}
