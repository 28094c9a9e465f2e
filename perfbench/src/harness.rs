//! What every workload shares: the round loop, the measured samples, the
//! runner sweep and the output checks.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dice_runner::{Cell, CellOutcome, Runner, RunnerConfig, SweepResult};
use dice_sim::RunReport;

use crate::spans::Tracer;
use crate::stats::{least, Digest};

/// Runner worker threads: the host has two CPUs.
pub const JOBS: usize = 2;

/// No round starts after this long, so a run ends well inside its limit
/// even on a slowed host.
const ROUND_CUTOFF: Duration = Duration::from_secs(120);

/// Samples of one workload run. Each `Vec` holds one value per round, or
/// one per cell or request for the latency samples.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up time of each round: building the program objects the
    /// round's work runs on.
    pub setup_s: Vec<f64>,
    /// Wall time of each untraced round's measured phase.
    pub wall_s: Vec<f64>,
    /// Wall time of each traced round's measured phase.
    pub traced_wall_s: Vec<f64>,
    /// Simulated trace records per host second, per round.
    pub sim_records_per_s: Vec<f64>,
    /// Completed requests per second, per round.
    pub requests_per_s: Vec<f64>,
    /// Host time of every completed cell (`CellOutcome::Completed.wall`),
    /// keyed by the cell: a cell that runs in every round has one sample
    /// per round.
    pub cell_ms: BTreeMap<String, Vec<f64>>,
    /// Latency of every completed request.
    pub request_ms: Vec<f64>,
    /// Whether a request is one cell given to the runner (`fig10_cold`):
    /// the request latencies are then the cell times.
    pub requests_are_cells: bool,
    /// Operations attempted: cells, requests and output checks.
    pub attempted: u64,
    /// Operations that failed, timed out or produced a wrong output.
    pub failed: u64,
    /// Digest of the workload's simulated outputs (same seed, same digest).
    pub digest: u64,
    /// Scheduling statistics of every runner sweep.
    pub sweeps: Vec<SweepStats>,
    /// One round's reports, `(tag, workload, report)` in sorted order.
    pub reports: Vec<(String, String, Arc<RunReport>)>,
    /// Cells the per-layer probes replay.
    pub sample: Vec<Cell>,
    /// Per-layer metrics the workload measured itself.
    pub layer_extra: BTreeMap<&'static str, f64>,
}

/// Scheduling statistics of one runner sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepStats {
    /// Cells submitted, duplicates included.
    pub submitted: usize,
    /// Duplicates collapsed before scheduling.
    pub deduped: usize,
    /// Work-stealing operations.
    pub steals: u64,
    /// Summed worker idle time at the sweep tail.
    pub tail_idle_ms: u64,
}

impl Measured {
    /// Drops the timing samples taken so far; checks, counts and the
    /// reference outputs stay.
    fn clear_samples(&mut self) {
        self.setup_s.clear();
        self.sim_records_per_s.clear();
        self.requests_per_s.clear();
        self.cell_ms.clear();
        self.request_ms.clear();
        self.sweeps.clear();
    }

    /// The host time of every cell run, in every round.
    #[must_use]
    pub fn cell_runs(&self) -> Vec<f64> {
        self.cell_ms.values().flatten().copied().collect()
    }

    /// Each cell's best host time over the rounds it ran in.
    #[must_use]
    pub fn cell_best(&self) -> Vec<f64> {
        self.cell_ms.values().map(|v| least(v)).collect()
    }
}

/// Runs an optional warm-up round, then measured rounds until `seconds`
/// have passed and `need_more` is false (at least two). A warm-up round is
/// checked like any other but its timings are dropped: the first round of
/// a process pays for page faults and allocator growth that no later round
/// does, which matters where rounds are short. In a traced run every
/// second measured round is traced, so the traced and untraced wall times
/// compare like for like. `round` gets the round's index (0 first) and
/// returns the wall time of its measured phase.
pub fn run_rounds(
    seconds: u64,
    trace: bool,
    tracer: &Tracer,
    m: &mut Measured,
    warm_up: bool,
    need_more: impl Fn(&Measured) -> bool,
    mut round: impl FnMut(&mut Measured, &Tracer, usize) -> f64,
) {
    let off = Tracer::new(false);
    if warm_up {
        round(m, &off, 0);
        m.clear_samples();
    }
    let start = Instant::now();
    let mut measured = 0usize;
    loop {
        let elapsed = start.elapsed();
        let more = elapsed.as_secs_f64() < seconds as f64 || need_more(m);
        if measured >= 2 && (!more || elapsed > ROUND_CUTOFF) {
            break;
        }
        let traced = trace && measured % 2 == 1;
        let wall = round(
            m,
            if traced { tracer } else { &off },
            measured + usize::from(warm_up),
        );
        if traced {
            m.traced_wall_s.push(wall);
        } else {
            m.wall_s.push(wall);
        }
        measured += 1;
    }
}

/// One runner sweep as the benchmark observes it.
pub struct Sweep {
    /// The runner's result.
    pub result: SweepResult,
    /// Runner construction time.
    pub setup: Duration,
    /// Sweep wall time as measured around `Runner::run`.
    pub wall: Duration,
}

impl Sweep {
    /// Builds a runner with `jobs` workers and no disk cache, then runs
    /// `cells`.
    pub fn run(cells: Vec<Cell>, jobs: usize) -> Sweep {
        let t0 = Instant::now();
        let runner = Runner::new(RunnerConfig {
            jobs,
            verbose: false,
            ..RunnerConfig::default()
        })
        .expect("a runner without a cache directory cannot fail to build");
        let setup = t0.elapsed();
        let t1 = Instant::now();
        let result = runner.run(cells);
        Sweep {
            result,
            setup,
            wall: t1.elapsed(),
        }
    }

    /// Scheduling statistics, given how many cells were submitted.
    #[must_use]
    pub fn stats(&self, submitted: usize) -> SweepStats {
        SweepStats {
            submitted,
            deduped: self.result.deduped,
            steals: self.result.steals,
            tail_idle_ms: self.result.tail_idle_ms,
        }
    }

    /// Folds the sweep's outcomes into `m`: completed cells become cell
    /// samples, keyed by `key` and the cell, anything else a failure.
    /// Returns the digest of every report's JSON in `(tag, workload)`
    /// order; rendering each report is an `obs.report_to_json` span.
    pub fn record(&self, m: &mut Measured, tracer: &Tracer, key: &str) -> u64 {
        let mut digest = Digest::default();
        for ((tag, wl), outcome) in &self.result.outcomes {
            m.attempted += 1;
            match outcome {
                CellOutcome::Completed { report, wall, .. } => {
                    m.cell_ms
                        .entry(format!("{key} {tag}/{wl}"))
                        .or_default()
                        .push(wall.as_secs_f64() * 1e3);
                    digest.add(tag.as_bytes());
                    digest.add(wl.as_bytes());
                    let json = {
                        let _span = tracer.span("obs.report_to_json");
                        report.to_json().render()
                    };
                    digest.add(json.as_bytes());
                }
                CellOutcome::Failed { error } => {
                    eprintln!("cell {tag}/{wl} failed: {error}");
                    m.failed += 1;
                }
                CellOutcome::TimedOut { budget } => {
                    eprintln!("cell {tag}/{wl} timed out after {budget:?}");
                    m.failed += 1;
                }
            }
        }
        digest.value()
    }

    /// The completed reports, `(tag, workload, report)` in sorted order.
    #[must_use]
    pub fn reports(&self) -> Vec<(String, String, Arc<RunReport>)> {
        self.result
            .outcomes
            .iter()
            .filter_map(|((tag, wl), o)| match o {
                CellOutcome::Completed { report, .. } => {
                    Some((tag.clone(), wl.clone(), Arc::clone(report)))
                }
                _ => None,
            })
            .collect()
    }

    /// The report JSON of cell `(tag, wl)`, if it completed.
    #[must_use]
    pub fn report_json(&self, tag: &str, wl: &str) -> Option<String> {
        match self.result.outcomes.get(&(tag.to_owned(), wl.to_owned())) {
            Some(CellOutcome::Completed { report, .. }) => Some(report.to_json().render()),
            _ => None,
        }
    }
}

/// Simulated trace records of one cell: every core runs its warm-up and
/// measured windows.
#[must_use]
pub fn cell_records(cell: &Cell) -> u64 {
    cell.cfg.cores as u64 * (cell.cfg.warmup_records + cell.cfg.measure_records)
}

/// Re-runs `cell` directly on `System` and checks its report JSON against
/// `expected`; counts the check as one attempted operation.
pub fn check_direct(m: &mut Measured, cell: &Cell, expected: Option<String>) {
    m.attempted += 1;
    let direct = dice_sim::System::new(cell.cfg.clone(), &cell.workload)
        .run()
        .to_json()
        .render();
    if expected.as_deref() != Some(direct.as_str()) {
        eprintln!(
            "cell {}/{}: runner report differs from a direct System run",
            cell.tag, cell.workload.name
        );
        m.failed += 1;
    }
}

/// Compares a round's output digest with the run's first; a mismatch
/// fails every cell of the round.
pub fn check_digest(m: &mut Measured, round: usize, digest: u64, cells: usize) {
    if round == 0 {
        m.digest = digest;
    } else if digest != m.digest {
        eprintln!(
            "round {round}: output digest {digest:016x} differs from round 0's {:016x}",
            m.digest
        );
        m.failed += cells as u64;
    }
}
