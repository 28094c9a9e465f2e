//! The parallel experiment engine.
//!
//! Declare-then-execute: callers enumerate every `(config, workload)`
//! [`Cell`] of a sweep up front, and [`Runner::run`] schedules them across
//! a pool of worker threads that claim cells from **one shared counter**:
//! each worker takes the highest unclaimed cell index, so a sweep runs
//! back to front, and a worker exits when none is left. A cell simulates
//! for tens of milliseconds, so a claim is cheap beside it. End-of-sweep
//! idle time is reported as [`SweepResult::tail_idle_ms`].
//!
//! Three properties the harness depends on:
//!
//! * **Determinism** — a cell's result depends only on its config and
//!   workload (the simulator is seeded), and results are keyed and
//!   returned in a sorted map, so `--jobs 1` and `--jobs N` produce
//!   byte-identical artifacts regardless of which worker ran which cell.
//! * **Fault isolation** — each cell runs under `catch_unwind`; a
//!   diverging configuration turns into a [`CellOutcome::Failed`] entry
//!   with the panic message, and every other cell still completes.
//! * **Memoization** — duplicate cells (every figure re-requests the
//!   uncompressed baseline) are collapsed before scheduling, and with a
//!   [`DiskCache`] attached, completed cells persist across invocations
//!   and resume interrupted sweeps for free.

use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use dice_obs::{Histogram, MetricRegistry, SpanGuard, TraceCtx};
use dice_sim::{EngineCounters, RunReport, SimConfig, System, WorkloadSet};

use crate::cache::DiskCache;
use crate::key::cell_key;

/// One schedulable unit: a tagged configuration applied to one workload
/// set.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Configuration tag; with the workload name it is the memo key, so it
    /// must uniquely identify `cfg` within a sweep.
    pub tag: String,
    /// Full simulator configuration.
    pub cfg: SimConfig,
    /// What the cores run.
    pub workload: WorkloadSet,
}

impl Cell {
    /// A cell for `cfg` on `workload` under `tag`.
    #[must_use]
    pub fn new(tag: impl Into<String>, cfg: SimConfig, workload: WorkloadSet) -> Self {
        Self {
            tag: tag.into(),
            cfg,
            workload,
        }
    }

    /// The `(tag, workload name)` memo identity.
    #[must_use]
    pub fn memo_key(&self) -> (String, String) {
        (self.tag.clone(), self.workload.name.clone())
    }
}

/// How one cell ended.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell completed (freshly simulated or recalled from the
    /// persistent cache).
    Completed {
        /// The run's measurements.
        report: Arc<RunReport>,
        /// Whether the result came from the persistent cache.
        from_cache: bool,
        /// Wall time spent on this cell (simulation or cache load).
        wall: Duration,
    },
    /// The cell panicked (after exhausting any configured retries); the
    /// sweep continued without it.
    Failed {
        /// The panic message.
        error: String,
    },
    /// The cell exceeded the per-cell wall-clock budget; its worker
    /// thread was abandoned and the sweep continued without it.
    TimedOut {
        /// The budget it blew through.
        budget: Duration,
    },
}

/// One per-cell completion notice, emitted in completion order while a
/// sweep runs (the live-progress payload behind `dice-serve`'s SSE
/// endpoint).
#[derive(Debug, Clone)]
pub struct CellProgress {
    /// 1-based completion index (the order cells *finished*, which under
    /// parallel scheduling differs from submission order).
    pub seq: usize,
    /// Unique cells in the sweep.
    pub total: usize,
    /// The cell's configuration tag.
    pub tag: String,
    /// The cell's workload name.
    pub workload: String,
    /// How the cell ended: `simulated`, `cached`, `failed` or
    /// `timed_out`.
    pub status: &'static str,
    /// Wall time spent on the cell in milliseconds (0 for failures,
    /// the budget for timeouts).
    pub wall_ms: u64,
}

/// A live progress callback, invoked from the sweep's collector thread
/// once per finished cell, in completion order.
#[derive(Clone)]
pub struct ProgressSink(Arc<dyn Fn(CellProgress) + Send + Sync>);

impl ProgressSink {
    /// Wraps a callback.
    pub fn new(f: impl Fn(CellProgress) + Send + Sync + 'static) -> Self {
        Self(Arc::new(f))
    }

    /// Delivers one progress event.
    pub fn emit(&self, p: CellProgress) {
        (self.0)(p);
    }
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressSink(..)")
    }
}

/// Scheduling knobs for one [`Runner`].
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads (≥ 1). Defaults to the host's available parallelism.
    pub jobs: usize,
    /// Persistent result cache directory (`None` = in-memory dedupe only).
    pub cache_dir: Option<PathBuf>,
    /// Print per-cell progress lines to stderr as cells finish.
    pub verbose: bool,
    /// Per-cell wall-clock budget (`None` = unlimited). With a budget
    /// set, each simulation runs on its own watchdog-monitored thread; a
    /// cell that blows the budget becomes [`CellOutcome::TimedOut`] and
    /// its thread is abandoned (the simulator allocates nothing global,
    /// so an abandoned thread can only waste CPU until process exit).
    pub cell_timeout: Option<Duration>,
    /// Retries for a panicked cell before recording it as
    /// [`CellOutcome::Failed`] (0 = fail on first panic). Timed-out cells
    /// are never retried — a deterministic simulator that blew its budget
    /// once will blow it again.
    pub retries: u32,
    /// Cooperative cancellation hook. When the flag flips to `true`,
    /// workers finish the cells they already claimed (in-flight work is
    /// never abandoned mid-simulation) but claim no further ones; the
    /// sweep returns early with the skipped cells counted in
    /// [`SweepResult::cancelled`]. `None` = never cancelled.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Span-tracing context (disabled by default). When enabled, every
    /// cell gets a span under the handle's parent (e.g. the serve request
    /// span) and each simulation's warmup/measure phases nest under it,
    /// yielding one causally-linked tree for the whole sweep across
    /// worker threads.
    pub trace: TraceCtx,
    /// Live per-cell progress callback, invoked in completion order.
    pub progress: Option<ProgressSink>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            jobs: std::thread::available_parallelism().map_or(1, usize::from),
            cache_dir: None,
            verbose: false,
            cell_timeout: None,
            retries: 0,
            cancel: None,
            trace: TraceCtx::default(),
            progress: None,
        }
    }
}

/// Everything a sweep produced: per-cell outcomes (sorted by memo key for
/// deterministic iteration) plus scheduling statistics.
#[derive(Debug)]
pub struct SweepResult {
    /// Outcome per unique `(tag, workload)` cell.
    pub outcomes: BTreeMap<(String, String), CellOutcome>,
    /// Duplicate cells collapsed before scheduling.
    pub deduped: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall time for the whole sweep.
    pub wall: Duration,
    /// Per-cell wall-time distribution in milliseconds (completed cells).
    pub cell_wall_ms: Histogram,
    /// Panicked attempts that were retried (whether or not the retry
    /// eventually succeeded).
    pub retried: usize,
    /// Persistent-cache entries discarded as corrupt during this sweep.
    pub cache_discarded: u64,
    /// Cells never started because the [`RunnerConfig::cancel`] flag
    /// flipped mid-sweep (they have no entry in `outcomes`).
    pub cancelled: usize,
    /// Always 0: workers claim cells from one shared counter, so none
    /// takes work from another. Kept because the benchmark harness reads
    /// it.
    pub steals: u64,
    /// Total worker idle time at the sweep tail, in milliseconds: for
    /// each worker, the gap between it finding no cell left to claim and
    /// the sweep's end, summed. Large values relative to
    /// [`wall`](Self::wall) mean the tail was serialized on a few slow
    /// cells.
    pub tail_idle_ms: u64,
    /// Event-engine counters summed over the cells this sweep simulated
    /// (cached cells and failed attempts contribute nothing).
    pub engine: EngineCounters,
}

impl SweepResult {
    fn count(&self, f: impl Fn(&CellOutcome) -> bool) -> usize {
        self.outcomes.values().filter(|o| f(o)).count()
    }

    /// Cells that were freshly simulated.
    #[must_use]
    pub fn simulated(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Completed { from_cache, .. } if !from_cache))
    }

    /// Cells recalled from the persistent cache.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Completed { from_cache, .. } if *from_cache))
    }

    /// Cells that panicked.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Failed { .. }))
    }

    /// Cells killed by the per-cell watchdog.
    #[must_use]
    pub fn timed_out(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::TimedOut { .. }))
    }

    /// The report of the completed cell `tag` on `workload`.
    ///
    /// # Errors
    ///
    /// Names the cell when it failed, timed out, or was never declared.
    pub fn report(&self, tag: &str, workload: &str) -> Result<&Arc<RunReport>, String> {
        let error = match self.outcomes.get(&(tag.to_owned(), workload.to_owned())) {
            Some(CellOutcome::Completed { report, .. }) => return Ok(report),
            Some(CellOutcome::Failed { error }) => error.clone(),
            Some(CellOutcome::TimedOut { budget }) => {
                format!("timed out after {:.1}s", budget.as_secs_f64())
            }
            None => return Err(format!("cell {tag}/{workload} is not in the sweep")),
        };
        Err(format!(
            "cell {tag}/{workload} failed in the runner: {error}"
        ))
    }

    /// Adds the sweep's counters and its per-cell wall-time histogram to
    /// `runner.*` in `reg`, and its engine counters to `sim.*`. Every
    /// counter only goes up, so a long-lived registry (one per
    /// `dice-serve` process) holds totals over every sweep it served.
    /// `runner.jobs` is a gauge: the worker count is a setting, not a
    /// count.
    pub fn register(&self, reg: &mut MetricRegistry) {
        for (name, v) in [
            ("runner.cells", self.outcomes.len() as u64),
            ("runner.simulated", self.simulated() as u64),
            ("runner.cached", self.cached() as u64),
            ("runner.failed", self.failed() as u64),
            ("runner.timed_out", self.timed_out() as u64),
            ("runner.retried", self.retried as u64),
            ("runner.deduped", self.deduped as u64),
            ("runner.cancelled", self.cancelled as u64),
            ("runner.cache_discarded", self.cache_discarded),
            ("runner.tail_idle_ms", self.tail_idle_ms),
            ("runner.wall_ms", self.wall.as_millis() as u64),
            ("sim.events_scheduled", self.engine.events_scheduled),
            ("sim.events_chained", self.engine.events_chained),
            ("sim.wheel_cascades", self.engine.wheel_cascades),
        ] {
            let id = reg.counter(name);
            reg.add(id, v);
        }
        let id = reg.gauge("runner.jobs");
        reg.set_gauge(id, self.jobs as f64);
        let h = reg.histogram("runner.cell_wall_ms");
        reg.merge_histogram(h, &self.cell_wall_ms);

        // Per-class error counters (`errors.*`): the sweep's failures
        // expressed in the shared DiceError taxonomy.
        dice_obs::register_error_counters(reg);
        for ((tag, wl), outcome) in &self.outcomes {
            let err = match outcome {
                CellOutcome::Completed { .. } => continue,
                CellOutcome::Failed { error } => dice_obs::DiceError::CellPanic {
                    cell: format!("{tag}/{wl}"),
                    message: error.clone(),
                },
                CellOutcome::TimedOut { budget } => dice_obs::DiceError::CellTimeout {
                    cell: format!("{tag}/{wl}"),
                    budget_ms: budget.as_millis() as u64,
                },
            };
            dice_obs::record_error(reg, &err);
        }
        for _ in 0..self.cache_discarded {
            dice_obs::record_error(
                reg,
                &dice_obs::DiceError::CacheEntry {
                    path: String::new(),
                    reason: String::new(),
                },
            );
        }
    }

    /// A one-line human summary (`N cells: a simulated, b cached, …`).
    /// Watchdog and retry counts appear only when nonzero, keeping the
    /// healthy-path wording (which CI greps) stable.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut extras = String::new();
        if self.timed_out() > 0 {
            extras.push_str(&format!(" ({} timed out)", self.timed_out()));
        }
        if self.retried > 0 {
            extras.push_str(&format!(" ({} retried)", self.retried));
        }
        if self.cancelled > 0 {
            extras.push_str(&format!(" ({} cancelled)", self.cancelled));
        }
        format!(
            "{} cells ({} deduped): {} simulated, {} cached, {} failed{extras} in {:.1}s on {} job{}",
            self.outcomes.len(),
            self.deduped,
            self.simulated(),
            self.cached(),
            self.failed(),
            self.wall.as_secs_f64(),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
        )
    }
}

/// The parallel experiment engine. See the module docs for the contract.
#[derive(Debug)]
pub struct Runner {
    config: RunnerConfig,
    cache: Option<DiskCache>,
}

impl Runner {
    /// Builds a runner, opening (and creating if needed) the persistent
    /// cache directory when one is configured.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directory cannot be created.
    pub fn new(config: RunnerConfig) -> io::Result<Self> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(DiskCache::open(dir)?),
            None => None,
        };
        Ok(Self { config, cache })
    }

    /// The effective configuration.
    #[must_use]
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// Executes `cells` across the worker pool and returns every unique
    /// cell's outcome. Duplicate `(tag, workload)` cells are collapsed
    /// (first occurrence wins); a duplicate whose configuration hashes
    /// differently from the kept one is a harness bug and gets a stderr
    /// warning.
    #[must_use]
    pub fn run(&self, cells: Vec<Cell>) -> SweepResult {
        let started = Instant::now();
        let jobs = self.config.jobs.max(1);

        // Dedupe, preserving first-seen order for stable scheduling.
        let mut seen: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut unique: Vec<Cell> = Vec::with_capacity(cells.len());
        let mut deduped = 0usize;
        for cell in cells {
            let key = cell_key(&cell.cfg, &cell.workload);
            match seen.get(&cell.memo_key()) {
                None => {
                    seen.insert(cell.memo_key(), key);
                    unique.push(cell);
                }
                Some(kept) => {
                    deduped += 1;
                    if *kept != key {
                        eprintln!(
                            "[dice-runner] warning: tag {:?} on workload {:?} requested with \
                             two different configurations; keeping the first",
                            cell.tag, cell.workload.name
                        );
                    }
                }
            }
        }

        let total = unique.len();
        let mut outcomes = BTreeMap::new();
        let mut cell_wall_ms = Histogram::new();
        let mut retried = 0usize;
        let mut engine = EngineCounters::default();
        let discarded_before = self.cache.as_ref().map_or(0, DiskCache::discarded);
        let workers = jobs.min(total.max(1));
        // Cells are claimed back to front (claim `n` is cell
        // `total - 1 - n`): on the benchmark's fig10_cold, front to back
        // ran at about 2% more peak RSS. The counter publishes no data
        // (the cells are shared before the workers start, and results
        // return over the channel), so its claims can be `Relaxed`.
        let claims = AtomicUsize::new(0);
        let mut exits = Vec::with_capacity(workers);
        let (tx, rx) = mpsc::channel::<(usize, CellOutcome, u32, EngineCounters)>();
        let cells = &unique;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let tx = tx.clone();
                let claims = &claims;
                let cancel = self.config.cancel.clone();
                handles.push(scope.spawn(move || {
                    loop {
                        if cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed)) {
                            break;
                        }
                        let claim = claims.fetch_add(1, Ordering::Relaxed);
                        let Some(i) = total.checked_sub(claim + 1) else {
                            break;
                        };
                        let cell = &cells[i];
                        let span = self
                            .config
                            .trace
                            .span(&format!("cell:{}/{}", cell.tag, cell.workload.name));
                        let trace = span.as_ref().map(SpanGuard::ctx).unwrap_or_default();
                        let (outcome, retries, engine) = self.run_cell(cell, &trace);
                        // Close the cell span before reporting completion
                        // so a progress consumer never observes a finished
                        // cell with an open span.
                        drop(span);
                        if tx.send((i, outcome, retries, engine)).is_err() {
                            break;
                        }
                    }
                    Instant::now()
                }));
            }
            drop(tx);

            // The spawning thread doubles as the collector so progress
            // streams while workers are busy.
            let mut done = 0usize;
            while let Ok((i, outcome, retries, cell_engine)) = rx.recv() {
                done += 1;
                retried += retries as usize;
                engine += cell_engine;
                let cell = &cells[i];
                if self.config.verbose {
                    let status = match &outcome {
                        CellOutcome::Completed {
                            from_cache: true, ..
                        } => "cache".to_owned(),
                        CellOutcome::Completed { wall, .. } => {
                            format!("sim {:.1}s", wall.as_secs_f64())
                        }
                        CellOutcome::Failed { .. } => "FAILED".to_owned(),
                        CellOutcome::TimedOut { budget } => {
                            format!("TIMED OUT after {:.1}s", budget.as_secs_f64())
                        }
                    };
                    eprintln!(
                        "  [runner {done}/{total}] {:<12} {:<10} ({status})",
                        cell.tag, cell.workload.name
                    );
                }
                if let CellOutcome::Completed { wall, .. } = &outcome {
                    cell_wall_ms.record(wall.as_millis() as u64);
                }
                if let Some(sink) = &self.config.progress {
                    let (status, wall_ms) = match &outcome {
                        CellOutcome::Completed {
                            from_cache: true,
                            wall,
                            ..
                        } => ("cached", wall.as_millis() as u64),
                        CellOutcome::Completed { wall, .. } => {
                            ("simulated", wall.as_millis() as u64)
                        }
                        CellOutcome::Failed { .. } => ("failed", 0),
                        CellOutcome::TimedOut { budget } => {
                            ("timed_out", budget.as_millis() as u64)
                        }
                    };
                    sink.emit(CellProgress {
                        seq: done,
                        total,
                        tag: cell.tag.clone(),
                        workload: cell.workload.name.clone(),
                        status,
                        wall_ms,
                    });
                }
                outcomes.insert(cell.memo_key(), outcome);
            }

            // Join the workers outright: the scope alone waits only for
            // their closures, and a thread still exiting when the next
            // sweep starts its own keeps its malloc arena, so back-to-back
            // sweeps (a busy `dice-serve`) would keep adding arenas.
            // Each worker returns when it found no cell left to claim.
            for handle in handles {
                match handle.join() {
                    Ok(exit) => exits.push(exit),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });

        // Tail idle: each worker's gap between its exit and the sweep's
        // end.
        let end = Instant::now();
        let tail_idle_ms = exits
            .iter()
            .map(|t| end.duration_since(*t).as_millis() as u64)
            .sum();

        let cancelled = total - outcomes.len();
        SweepResult {
            outcomes,
            deduped,
            jobs,
            wall: started.elapsed(),
            cell_wall_ms,
            retried,
            cache_discarded: self.cache.as_ref().map_or(0, DiskCache::discarded) - discarded_before,
            cancelled,
            steals: 0,
            tail_idle_ms,
            engine,
        }
    }

    /// Runs one cell: persistent-cache probe, then a watchdog-supervised,
    /// unwind-isolated simulation (with bounded retries on panic), then a
    /// cache write-back. Returns the outcome, how many retries it took and
    /// the successful simulation's engine counters (zero for a cache hit or
    /// a failure). `trace` is the cell span's handle; the simulation's
    /// phase spans nest under it.
    fn run_cell(&self, cell: &Cell, trace: &TraceCtx) -> (CellOutcome, u32, EngineCounters) {
        let t0 = Instant::now();
        let key = cell_key(&cell.cfg, &cell.workload);
        if let Some(cached) = self.cache.as_ref().and_then(|c| c.load(key)) {
            return (
                CellOutcome::Completed {
                    report: Arc::new(cached),
                    from_cache: true,
                    wall: t0.elapsed(),
                },
                0,
                EngineCounters::default(),
            );
        }
        let attempts = self.config.retries.saturating_add(1);
        let mut last_error = String::new();
        for attempt in 0..attempts {
            match self.simulate_once(cell, trace) {
                Ok((report, engine)) => {
                    if let Some(cache) = &self.cache {
                        if let Err(e) = cache.store(key, &cell.tag, &report) {
                            eprintln!(
                                "[dice-runner] failed to persist cell {}/{}: {e}",
                                cell.tag, cell.workload.name
                            );
                        }
                    }
                    return (
                        CellOutcome::Completed {
                            report: Arc::new(report),
                            from_cache: false,
                            wall: t0.elapsed(),
                        },
                        attempt,
                        engine,
                    );
                }
                Err(CellFailure::TimedOut(budget)) => {
                    // Deterministic simulations that blew the budget once
                    // will blow it again; retrying only multiplies the
                    // wasted wall time.
                    return (
                        CellOutcome::TimedOut { budget },
                        attempt,
                        EngineCounters::default(),
                    );
                }
                Err(CellFailure::Panicked(msg)) => {
                    if attempt + 1 < attempts {
                        eprintln!(
                            "[dice-runner] cell {}/{} panicked ({msg}); retry {}/{}",
                            cell.tag,
                            cell.workload.name,
                            attempt + 1,
                            attempts - 1
                        );
                    }
                    last_error = msg;
                }
            }
        }
        (
            CellOutcome::Failed { error: last_error },
            attempts - 1,
            EngineCounters::default(),
        )
    }

    /// One simulation attempt. With no budget the attempt runs inline on
    /// the worker thread; with a budget it runs on a dedicated thread the
    /// watchdog can abandon.
    fn simulate_once(
        &self,
        cell: &Cell,
        trace: &TraceCtx,
    ) -> Result<(RunReport, EngineCounters), CellFailure> {
        let cfg = cell.cfg.clone();
        let workload = cell.workload.clone();
        let trace = trace.clone();
        let sim = move || {
            let mut sys = System::new(cfg, &workload);
            sys.set_trace(trace);
            sys.run_with_engine_stats()
        };
        let Some(budget) = self.config.cell_timeout else {
            return catch_unwind(AssertUnwindSafe(sim))
                .map_err(|p| CellFailure::Panicked(panic_message(p.as_ref())));
        };
        let (tx, rx) = mpsc::channel();
        // Owned (non-scoped) thread: if the simulation hangs, the watchdog
        // abandons it rather than joining, so the sweep keeps moving. The
        // send can fail only after abandonment, which is fine to ignore.
        std::thread::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(sim)).map_err(|p| panic_message(p.as_ref()));
            let _ = tx.send(result);
        });
        match rx.recv_timeout(budget) {
            Ok(Ok(run)) => Ok(run),
            Ok(Err(msg)) => Err(CellFailure::Panicked(msg)),
            Err(_) => Err(CellFailure::TimedOut(budget)),
        }
    }
}

/// Why one simulation attempt did not produce a report.
enum CellFailure {
    Panicked(String),
    TimedOut(Duration),
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}
