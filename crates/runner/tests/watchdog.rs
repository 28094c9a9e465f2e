//! Watchdog and failure behavior: timed-out cells are reported without
//! aborting the sweep, and a panicked cell fails on its one attempt.

use std::time::Duration;

use dice_core::{FaultKind, FaultPlan, Organization};
use dice_runner::{Cell, CellOutcome, Runner, RunnerConfig};
use dice_sim::{SimConfig, WorkloadSet};
use dice_workloads::spec_table;

fn spec(name: &str) -> dice_workloads::WorkloadSpec {
    spec_table().into_iter().find(|w| w.name == name).unwrap()
}

fn tiny_cfg(org: Organization) -> SimConfig {
    SimConfig::scaled(org, 1024).with_records(500, 1_000)
}

/// A cell over budget reports as `TimedOut`; the healthy cell in the same
/// sweep still completes, and the summary calls the timeout out.
#[test]
fn timed_out_cell_does_not_abort_the_sweep() {
    let wl = WorkloadSet::rate(spec("gcc"), 7);
    let hung = tiny_cfg(Organization::UncompressedAlloy)
        .with_inject(FaultPlan::seeded(FaultKind::CellTimeout));
    let cells = vec![
        Cell::new("ok", tiny_cfg(Organization::UncompressedAlloy), wl.clone()),
        Cell::new("hung", hung, wl),
    ];
    let runner = Runner::new(RunnerConfig {
        jobs: 2,
        cell_timeout: Some(Duration::from_secs(3)),
        ..RunnerConfig::default()
    })
    .unwrap();
    let result = runner.run(cells);
    assert_eq!(result.timed_out(), 1);
    assert_eq!(result.simulated(), 1);
    assert_eq!(result.failed(), 0);
    match &result.outcomes[&("hung".to_owned(), "gcc".to_owned())] {
        CellOutcome::TimedOut { budget } => {
            assert_eq!(*budget, Duration::from_secs(3));
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    assert_eq!(
        result.report("hung", "gcc").unwrap_err(),
        "cell hung/gcc failed in the runner: timed out after 3.0s"
    );
    assert!(
        result.summary().contains("1 timed out"),
        "summary should surface the timeout: {}",
        result.summary()
    );

    let mut reg = dice_obs::MetricRegistry::new();
    result.register(&mut reg);
    assert_eq!(reg.counter_value("runner.timed_out"), Some(1));
    assert_eq!(reg.counter_value("errors.cell_timeout"), None);
}

/// A panic lands as `Failed` with its message on the cell's one attempt
/// (the simulator is deterministic, so a retry would panic the same way),
/// and no retry metric exists.
#[test]
fn panicked_cell_fails_on_its_one_attempt() {
    let wl = WorkloadSet::rate(spec("gcc"), 7);
    let bad = tiny_cfg(Organization::UncompressedAlloy)
        .with_inject(FaultPlan::seeded(FaultKind::CellPanic));
    let cells = vec![
        Cell::new("ok", tiny_cfg(Organization::UncompressedAlloy), wl.clone()),
        Cell::new("bad", bad, wl),
    ];
    let runner = Runner::new(RunnerConfig {
        jobs: 1,
        ..RunnerConfig::default()
    })
    .unwrap();
    let result = runner.run(cells);
    assert_eq!(result.failed(), 1);
    assert_eq!(result.simulated(), 1);
    match &result.outcomes[&("bad".to_owned(), "gcc".to_owned())] {
        CellOutcome::Failed { error } => assert!(
            error.contains("injected mid-cell panic"),
            "panic message should surface, got {error:?}"
        ),
        other => panic!("expected failure, got {other:?}"),
    }
    let err = result.report("bad", "gcc").unwrap_err();
    assert!(
        err.starts_with("cell bad/gcc failed in the runner: ")
            && err.contains("injected mid-cell panic"),
        "the lookup should name the cell and carry the panic, got {err:?}"
    );

    let mut reg = dice_obs::MetricRegistry::new();
    result.register(&mut reg);
    assert_eq!(reg.counter_value("runner.failed"), Some(1));
    assert_eq!(reg.counter_value("errors.cell_panic"), None);
    assert_eq!(reg.counter_value("runner.retried"), None);
}

/// The watchdog path (cells on dedicated threads) must not change
/// results: the same cell with and without a generous budget produces
/// byte-identical report JSON.
#[test]
fn watchdog_path_is_result_transparent() {
    let wl = WorkloadSet::rate(spec("mcf"), 7);
    let run = |cell_timeout| {
        let runner = Runner::new(RunnerConfig {
            jobs: 1,
            cell_timeout,
            ..RunnerConfig::default()
        })
        .unwrap();
        let cells = vec![Cell::new(
            "base",
            tiny_cfg(Organization::Dice { threshold: 36 }),
            wl.clone(),
        )];
        let result = runner.run(cells);
        match &result.outcomes[&("base".to_owned(), "mcf".to_owned())] {
            CellOutcome::Completed { report, .. } => report.to_json().render(),
            other => panic!("expected completion, got {other:?}"),
        }
    };
    assert_eq!(run(None), run(Some(Duration::from_secs(120))));
}
