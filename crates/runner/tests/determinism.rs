//! The runner's determinism and fault-isolation contract.

use std::sync::{Arc, Mutex};

use dice_core::Organization;
use dice_runner::{Cell, CellOutcome, ProgressSink, Runner, RunnerConfig};
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

fn run_with_jobs(jobs: usize) -> Vec<((String, String), String)> {
    let runner = Runner::new(RunnerConfig {
        jobs,
        ..RunnerConfig::default()
    })
    .unwrap();
    let result = runner.run(small_sweep());
    assert_eq!(result.failed(), 0);
    // A completed cell reads back through the lookup; an undeclared one
    // is named in the error.
    assert!(result.report("dice36", "mcf").is_ok());
    assert_eq!(
        result.report("dice40", "mcf").unwrap_err(),
        "cell dice40/mcf is not in the sweep"
    );
    result
        .outcomes
        .into_iter()
        .map(|(key, outcome)| match outcome {
            CellOutcome::Completed { report, .. } => (key, report.to_json().render()),
            other => panic!("unexpected outcome: {other:?}"),
        })
        .collect()
}

/// The tentpole guarantee: `--jobs 2`, `4` and `8` produce report JSON
/// byte-identical to `--jobs 1` for every cell of a sweep, whichever
/// worker ran which cell.
#[test]
fn parallel_and_serial_reports_are_byte_identical() {
    let serial = run_with_jobs(1);
    assert_eq!(serial.len(), 4);
    for jobs in [2, 4, 8] {
        assert_eq!(
            serial,
            run_with_jobs(jobs),
            "jobs={jobs} diverged from jobs=1"
        );
    }
}

/// Workers claim the highest unclaimed cell first, so one worker runs a
/// sweep back to front.
#[test]
fn one_worker_runs_cells_in_reverse_declaration_order() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let runner = Runner::new(RunnerConfig {
        jobs: 1,
        progress: Some(ProgressSink::new(move |p| {
            sink.lock().unwrap().push((p.tag, p.workload));
        })),
        ..RunnerConfig::default()
    })
    .unwrap();
    let cells = small_sweep();
    let mut declared: Vec<_> = cells.iter().map(Cell::memo_key).collect();
    declared.reverse();
    let result = runner.run(cells);
    assert_eq!(result.simulated(), 4);
    assert_eq!(*seen.lock().unwrap(), declared);
}

/// One panicking cell reports as failed; every healthy cell still
/// completes.
#[test]
fn panicking_cell_is_isolated() {
    let mut cells = small_sweep();
    // 3 specs on an 8-core config panics in `System::new` ("one spec per
    // core") — a deterministic stand-in for a diverging configuration.
    cells.push(Cell::new(
        "bad",
        quick_cfg(Organization::UncompressedAlloy),
        WorkloadSet::mix("bad-mix", vec![spec("gcc"); 3], 7),
    ));
    let runner = Runner::new(RunnerConfig {
        jobs: 3,
        ..RunnerConfig::default()
    })
    .unwrap();
    let result = runner.run(cells);
    assert_eq!(result.failed(), 1);
    assert_eq!(result.simulated(), 4);
    match &result.outcomes[&("bad".to_owned(), "bad-mix".to_owned())] {
        CellOutcome::Failed { error } => assert!(
            error.contains("one spec per core"),
            "panic message should surface, got {error:?}"
        ),
        other => panic!("expected failure, got {other:?}"),
    }
}

/// Cells repeated across figures are simulated once.
#[test]
fn duplicate_cells_are_deduped() {
    let mut cells = small_sweep();
    cells.extend(small_sweep()); // every figure re-requests the baseline
    let runner = Runner::new(RunnerConfig {
        jobs: 2,
        ..RunnerConfig::default()
    })
    .unwrap();
    let result = runner.run(cells);
    assert_eq!(result.outcomes.len(), 4);
    assert_eq!(result.deduped, 4);
    assert_eq!(result.simulated(), 4);
}

/// Sweep statistics flow into the shared metric registry, and a second
/// sweep registered into the same registry adds to them: the counters
/// only go up, as a long-lived `dice-serve` registry needs.
#[test]
fn sweep_registers_runner_metrics() {
    let runner = Runner::new(RunnerConfig {
        jobs: 2,
        ..RunnerConfig::default()
    })
    .unwrap();
    let result = runner.run(small_sweep());
    let mut reg = dice_obs::MetricRegistry::new();
    result.register(&mut reg);
    assert_eq!(reg.counter_value("runner.cells"), Some(4));
    assert_eq!(reg.counter_value("runner.simulated"), Some(4));
    assert_eq!(reg.counter_value("runner.cached"), Some(0));
    assert_eq!(reg.counter_value("runner.failed"), Some(0));
    assert_eq!(reg.counter_value("runner.timed_out"), Some(0));
    // Those two are the only failure counts: no `errors.*` repeats them.
    assert_eq!(reg.counter_value("errors.cell_panic"), None);
    assert_eq!(reg.counter_value("errors.cell_timeout"), None);
    // A cell is never retried, so there is no retry count to export.
    assert_eq!(reg.counter_value("runner.retried"), None);
    assert_eq!(reg.histogram_ref("runner.cell_wall_ms").unwrap().count(), 4);
    assert_eq!(
        reg.counter_value("runner.tail_idle_ms"),
        Some(result.tail_idle_ms)
    );
    // Workers claim from one shared counter and never take each other's
    // work, so there is no steal count to export.
    assert_eq!(reg.counter_value("runner.steals"), None);

    // Two of the cells again plus a duplicate of one: 2 cells, 1 deduped.
    let mut cells = small_sweep();
    cells.truncate(2);
    cells.push(cells[0].clone());
    let second = runner.run(cells);
    second.register(&mut reg);
    assert_eq!(reg.counter_value("runner.cells"), Some(4 + 2));
    assert_eq!(reg.counter_value("runner.simulated"), Some(4 + 2));
    assert_eq!(reg.counter_value("runner.deduped"), Some(1));
    assert_eq!(reg.counter_value("runner.failed"), Some(0));
    assert_eq!(reg.histogram_ref("runner.cell_wall_ms").unwrap().count(), 6);
    assert_eq!(reg.counter_value("runner.jobs"), None);
    assert_eq!(reg.gauge_value("runner.jobs"), Some(2.0));

    // The engine counters are this registry's two sweeps, not the
    // process's: other tests simulating concurrently do not leak in.
    assert!(result.engine.events_scheduled > 0 && second.engine.events_scheduled > 0);
    let (a, b) = (result.engine, second.engine);
    assert_eq!(
        reg.counter_value("sim.events_scheduled"),
        Some(a.events_scheduled + b.events_scheduled)
    );
    assert_eq!(
        reg.counter_value("sim.events_chained"),
        Some(a.events_chained + b.events_chained)
    );
    assert_eq!(
        reg.counter_value("sim.wheel_cascades"),
        Some(a.wheel_cascades + b.wheel_cascades)
    );
}
