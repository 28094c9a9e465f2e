//! The sweep job queue: bounded admission, single-flight dedup, a byte
//! budget on finished jobs, and a worker pool that runs each admitted
//! sweep through a [`SweepExecutor`].
//!
//! The queue owns everything about a sweep except how its cells run: the
//! job table, the per-sweep [`TraceCtx`] root and merged Chrome trace,
//! the canonical report ([`render_runs`]) and summary, the progress-event
//! log SSE readers replay, and the `serve.sweeps_*` metrics. A
//! [`SweepExecutor`] runs the cells — [`JobQueue::new`]'s through
//! [`dice_runner`] on this host, the fabric coordinator's on remote
//! workers — and every report is rendered by this one code path,
//! whichever executor ran it.
//!
//! Invariants the HTTP layer builds on:
//!
//! * **Single-flight** — a job's id *is* its [`sweep_key`]; a submission
//!   whose key matches a live (queued/running/done) job attaches to that
//!   job instead of enqueueing a second copy, so N identical concurrent
//!   `POST`s execute exactly one sweep and all read the same bytes.
//! * **Bounded admission** — at most `capacity` jobs may be queued or
//!   running; beyond that [`JobQueue::submit`] answers
//!   [`Submission::Overloaded`] (HTTP 429) immediately. The backlog can
//!   never grow without bound.
//! * **Bounded retention** — finished jobs (done, failed or cancelled)
//!   keep their report, trace and events only while those bytes fit
//!   [`FINISHED_BUDGET`]. The oldest-finished job is evicted first; a
//!   queued or running job never is. An evicted id is unknown again, and
//!   resubmitting it runs the sweep anew — the result caches answer it
//!   with the same bytes.
//! * **Graceful drain** — [`JobQueue::drain`] cancels jobs that have not
//!   started, lets running sweeps finish (every completed cell is already
//!   persisted by the runner's [`DiskCache`](dice_runner::DiskCache)),
//!   and [`JobQueue::join`] waits for the workers to exit.
//!   [`JobQueue::force_cancel`] additionally flips the cooperative
//!   [`SweepRun::cancel`] flag so in-flight sweeps stop claiming cells.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dice_obs::{Json, MetricRegistry, TraceCtx};
use dice_runner::{CellProgress, ProgressSink, Runner, RunnerConfig, SweepResult};

use crate::net::count;
use crate::spec::{render_runs, sweep_key, SweepSpec};

/// Bytes of report, trace and events that finished jobs may hold before
/// the oldest-finished ones are evicted.
pub const FINISHED_BUDGET: usize = 64 << 20;

/// Where one job stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running the sweep.
    Running,
    /// Finished; the canonical report body is available.
    Done,
    /// The executor could not run the sweep (e.g. cache directory I/O
    /// failure).
    Failed,
    /// Cancelled by drain before a worker picked it up.
    Cancelled,
}

impl JobState {
    /// The wire spelling used in status documents.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job has finished (done, failed or cancelled).
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// How admitted sweeps run. One executor serves a whole queue, shared by
/// all of its sweep workers.
pub trait SweepExecutor: Send + Sync {
    /// Runs one sweep to completion. Per-cell failures belong in the
    /// result; an error means the sweep could not run at all.
    ///
    /// # Errors
    ///
    /// Why the sweep could not run; the job fails with that reason.
    fn execute(&self, run: SweepRun) -> Result<Executed, String>;

    /// Why a fresh sweep cannot be admitted now (answered as HTTP 503),
    /// or `None` to admit it. Called under the queue lock: keep it cheap
    /// and never call back into the queue.
    fn refusal(&self) -> Option<String> {
        None
    }

    /// A fresh sweep was admitted as job `id`. Called outside the queue
    /// lock and before the submitter hears back, so an executor that
    /// journals can make the acceptance durable before the 202 leaves.
    fn accepted(&self, _id: u64, _spec: &SweepSpec) {}

    /// Sweeps to enqueue at startup without a `POST` (e.g. replayed from
    /// a journal), as `(job id, spec)`. Called once, before any worker
    /// starts.
    fn resumed(&self) -> Vec<(u64, SweepSpec)> {
        Vec::new()
    }
}

/// One admitted sweep, as handed to [`SweepExecutor::execute`].
pub struct SweepRun {
    /// Job id (the sweep key).
    pub id: u64,
    /// The sweep as submitted.
    pub spec: SweepSpec,
    /// The sweep's span tree, as a handle on the `sweep {id}` root span:
    /// executor spans open under it.
    pub trace: TraceCtx,
    /// The job's progress-event log.
    pub events: EventLog,
    /// The queue's cooperative cancel flag ([`JobQueue::force_cancel`]).
    pub cancel: Arc<AtomicBool>,
}

/// What an executor made of one sweep.
pub struct Executed {
    /// Per-cell outcomes; the queue renders the report from them.
    pub result: SweepResult,
    /// Why the report is not canonical, when it is not (the status
    /// document's `degraded` field).
    pub degraded: Option<String>,
}

/// Appends progress events (rendered JSON objects) to one running job's
/// log, which its SSE stream replays. Cheap to clone.
#[derive(Clone)]
pub struct EventLog {
    shared: Arc<Shared>,
    id: u64,
}

impl EventLog {
    /// Appends one event and wakes the job's waiting readers.
    pub fn push(&self, event: String) {
        let mut inner = self.shared.inner.lock().expect("job queue poisoned");
        if let Some(job) = inner.jobs.get_mut(&self.id) {
            if job.state == JobState::Running {
                job.events.push(Arc::new(event));
            }
        }
        drop(inner);
        self.shared.job_changed.notify_all();
    }
}

/// The in-process executor: [`dice_runner::Runner`] over the configured
/// [`DiskCache`](dice_runner::DiskCache), streaming one event per
/// finished cell and registering each sweep's `runner.*` metrics.
struct Local {
    /// Applied to every sweep, with `cancel`, `trace` and `progress` set
    /// per sweep.
    runner: RunnerConfig,
    metrics: Arc<Mutex<MetricRegistry>>,
}

impl SweepExecutor for Local {
    /// The runner opens per-cell spans under the sweep root and the
    /// simulator nests its phase spans beneath them. The only error is
    /// runner construction (cache directory I/O).
    fn execute(&self, run: SweepRun) -> Result<Executed, String> {
        let mut cfg = self.runner.clone();
        cfg.cancel = Some(run.cancel);
        cfg.trace = run.trace;
        let events = run.events;
        cfg.progress = Some(ProgressSink::new(move |p: CellProgress| {
            events.push(render_event(&p, None));
        }));
        let runner = Runner::new(cfg).map_err(|e| format!("runner setup: {e}"))?;
        let result = runner.run(run.spec.to_cells());
        result.register(&mut self.metrics.lock().expect("metrics poisoned"));
        Ok(Executed {
            result,
            degraded: None,
        })
    }
}

/// One tracked sweep job.
struct Job {
    spec: SweepSpec,
    cells: usize,
    state: JobState,
    /// Identical submissions that attached to this job after the first.
    coalesced: u64,
    /// Progress events, appended in completion order while the sweep
    /// runs. SSE readers wait on these via [`JobQueue::poll_events`].
    events: Vec<Arc<String>>,
    /// The documents once [`JobState::Done`], the failure reason once
    /// [`JobState::Failed`].
    outcome: Option<Result<Rendered, String>>,
}

/// A finished sweep's documents.
struct Rendered {
    /// `render_runs` output.
    body: Arc<String>,
    summary: String,
    /// Why the report is not canonical, when it is not.
    degraded: Option<String>,
    /// Merged Chrome `trace_event` document.
    trace: Arc<String>,
}

impl Job {
    fn queued(spec: SweepSpec, cells: usize) -> Job {
        Job {
            spec,
            cells,
            state: JobState::Queued,
            coalesced: 0,
            events: Vec::new(),
            outcome: None,
        }
    }

    /// What the job holds against [`FINISHED_BUDGET`] once finished.
    fn bytes(&self) -> usize {
        let docs = match &self.outcome {
            Some(Ok(done)) => done.body.len() + done.trace.len(),
            _ => 0,
        };
        docs + self.events.iter().map(|e| e.len()).sum::<usize>()
    }
}

/// Outcome of [`JobQueue::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// The sweep was accepted (or attached to an identical live job).
    Accepted {
        /// Job id (the sweep key).
        id: u64,
        /// Whether this submission coalesced onto an existing job.
        coalesced: bool,
        /// Job state at submission time.
        state: JobState,
    },
    /// The queue is full; retry after the hinted number of seconds.
    Overloaded {
        /// `Retry-After` hint in seconds.
        retry_after_s: u64,
    },
    /// The executor refused admission ([`SweepExecutor::refusal`]).
    Refused(String),
    /// The service is draining and accepts no new work.
    Draining,
}

/// Queue construction knobs for [`JobQueue::new`].
#[derive(Debug, Clone)]
pub struct JobQueueConfig {
    /// Maximum jobs queued + running before submissions get 429.
    pub capacity: usize,
    /// Sweep worker threads.
    pub workers: usize,
    /// Runner configuration applied to every sweep (`cancel` is replaced
    /// by the queue's own flag).
    pub runner: RunnerConfig,
}

impl Default for JobQueueConfig {
    fn default() -> Self {
        Self {
            capacity: 8,
            workers: 1,
            runner: RunnerConfig::default(),
        }
    }
}

struct Inner {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    /// Jobs currently being executed by a worker.
    active: usize,
    /// Finished job ids, oldest first.
    finished: VecDeque<u64>,
    /// Bytes the finished jobs hold.
    retained: usize,
    /// The ceiling on `retained` ([`FINISHED_BUDGET`]).
    budget: usize,
}

impl Inner {
    /// Books job `id`, just finished, against the budget and evicts the
    /// oldest-finished jobs until the retained bytes fit again.
    fn retire(&mut self, id: u64) {
        let Some(job) = self.jobs.get(&id) else {
            return;
        };
        self.retained += job.bytes();
        self.finished.push_back(id);
        while self.retained > self.budget {
            let Some(old) = self.finished.pop_front() else {
                break;
            };
            if let Some(job) = self.jobs.remove(&old) {
                self.retained -= job.bytes();
            }
        }
    }

    /// Drops finished job `id` (ahead of a resubmission replacing it).
    fn forget(&mut self, id: u64) {
        if let Some(job) = self.jobs.remove(&id) {
            self.retained -= job.bytes();
            self.finished.retain(|&f| f != id);
        }
    }
}

struct Shared {
    inner: Mutex<Inner>,
    work_ready: Condvar,
    /// Signalled when a job gains an event or reaches a terminal state;
    /// [`JobQueue::poll_events`] waits on it.
    job_changed: Condvar,
    draining: AtomicBool,
    cancel: Arc<AtomicBool>,
    executor: Arc<dyn SweepExecutor>,
    metrics: Arc<Mutex<MetricRegistry>>,
}

/// The job queue. Cheap to share via `Arc`; see the module docs for the
/// invariants.
pub struct JobQueue {
    shared: Arc<Shared>,
    capacity: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobQueue {
    /// A queue running sweeps in-process through the runner (its
    /// `DiskCache` included): spawns `config.workers` worker threads and
    /// returns the queue.
    #[must_use]
    pub fn new(config: JobQueueConfig, metrics: Arc<Mutex<MetricRegistry>>) -> Arc<JobQueue> {
        let local = Local {
            runner: config.runner,
            metrics: Arc::clone(&metrics),
        };
        JobQueue::start(config.capacity, config.workers, Arc::new(local), metrics)
    }

    /// A queue admitting at most `capacity` queued + running jobs and
    /// running them on `workers` threads through `executor`. The
    /// executor's [`resumed`](SweepExecutor::resumed) sweeps are queued
    /// first; they count against capacity like any other job.
    #[must_use]
    pub fn start(
        capacity: usize,
        workers: usize,
        executor: Arc<dyn SweepExecutor>,
        metrics: Arc<Mutex<MetricRegistry>>,
    ) -> Arc<JobQueue> {
        let mut inner = Inner {
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            active: 0,
            finished: VecDeque::new(),
            retained: 0,
            budget: FINISHED_BUDGET,
        };
        for (id, spec) in executor.resumed() {
            let cells = spec.to_cells().len();
            inner.jobs.insert(id, Job::queued(spec, cells));
            inner.queue.push_back(id);
        }
        let shared = Arc::new(Shared {
            inner: Mutex::new(inner),
            work_ready: Condvar::new(),
            job_changed: Condvar::new(),
            draining: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
            executor,
            metrics,
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Arc::new(JobQueue {
            shared,
            capacity: capacity.max(1),
            workers: Mutex::new(workers),
        })
    }

    /// Submits a sweep. See [`Submission`] for the possible outcomes.
    pub fn submit(&self, spec: SweepSpec) -> Submission {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Submission::Draining;
        }
        let cells = spec.to_cells();
        let id = sweep_key(&cells);
        let mut inner = self.shared.inner.lock().expect("job queue poisoned");
        if let Some(job) = inner.jobs.get_mut(&id) {
            // Failed/cancelled jobs may be resubmitted; anything live
            // coalesces.
            if !matches!(job.state, JobState::Failed | JobState::Cancelled) {
                job.coalesced += 1;
                let state = job.state;
                drop(inner);
                count(&self.shared.metrics, "serve.sweeps_coalesced");
                return Submission::Accepted {
                    id,
                    coalesced: true,
                    state,
                };
            }
        }
        if inner.queue.len() + inner.active >= self.capacity {
            drop(inner);
            count(&self.shared.metrics, "serve.sweeps_rejected");
            return Submission::Overloaded { retry_after_s: 1 };
        }
        if let Some(reason) = self.shared.executor.refusal() {
            return Submission::Refused(reason);
        }
        inner.forget(id);
        inner
            .jobs
            .insert(id, Job::queued(spec.clone(), cells.len()));
        inner.queue.push_back(id);
        drop(inner);
        count(&self.shared.metrics, "serve.sweeps_submitted");
        self.shared.work_ready.notify_one();
        // The submitter hears back only once the executor has recorded the
        // acceptance. A worker may start the sweep meanwhile; a journal
        // replays its records as sets, so their order does not matter.
        self.shared.executor.accepted(id, &spec);
        Submission::Accepted {
            id,
            coalesced: false,
            state: JobState::Queued,
        }
    }

    /// The status document for job `id`, or `None` if unknown.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<Json> {
        let inner = self.shared.inner.lock().expect("job queue poisoned");
        let job = inner.jobs.get(&id)?;
        let mut pairs = vec![
            ("id".to_owned(), Json::str(format!("{id:016x}"))),
            ("state".to_owned(), Json::str(job.state.as_str())),
            ("cells".to_owned(), Json::u64(job.cells as u64)),
            ("coalesced".to_owned(), Json::u64(job.coalesced)),
            ("spec".to_owned(), job.spec.to_json()),
        ];
        match &job.outcome {
            Some(Ok(done)) => {
                pairs.push(("summary".to_owned(), Json::str(&done.summary)));
                if let Some(degraded) = &done.degraded {
                    pairs.push(("degraded".to_owned(), Json::str(degraded)));
                }
            }
            Some(Err(error)) => pairs.push(("error".to_owned(), Json::str(error))),
            None => {}
        }
        Some(Json::Obj(pairs))
    }

    /// The canonical report body for job `id`: `Ok(body)` once done,
    /// `Err(state)` while not, `None` if unknown.
    #[must_use]
    pub fn report(&self, id: u64) -> Option<Result<Arc<String>, JobState>> {
        self.document(id, |done| &done.body)
    }

    /// The merged Chrome trace for job `id`: `Ok(body)` once done,
    /// `Err(state)` while not, `None` if unknown.
    #[must_use]
    pub fn trace(&self, id: u64) -> Option<Result<Arc<String>, JobState>> {
        self.document(id, |done| &done.trace)
    }

    fn document(
        &self,
        id: u64,
        doc: impl Fn(&Rendered) -> &Arc<String>,
    ) -> Option<Result<Arc<String>, JobState>> {
        let inner = self.shared.inner.lock().expect("job queue poisoned");
        let job = inner.jobs.get(&id)?;
        Some(match &job.outcome {
            Some(Ok(done)) => Ok(Arc::clone(doc(done))),
            _ => Err(job.state),
        })
    }

    /// Progress events for job `id` from index `cursor` on, plus the
    /// job's state at the moment of the read (events and state are read
    /// atomically, so a terminal state means the returned slice completes
    /// the stream). Returns at once when events lie past `cursor` or the
    /// job has finished; otherwise blocks until one of those happens or
    /// `wait` has passed. `None` if the job is unknown.
    #[must_use]
    pub fn poll_events(
        &self,
        id: u64,
        cursor: usize,
        wait: Duration,
    ) -> Option<(Vec<Arc<String>>, JobState)> {
        let deadline = Instant::now() + wait;
        let mut inner = self.shared.inner.lock().expect("job queue poisoned");
        loop {
            let job = inner.jobs.get(&id)?;
            let left = deadline.saturating_duration_since(Instant::now());
            if job.events.len() > cursor || job.state.is_terminal() || left.is_zero() {
                let events = job
                    .events
                    .get(cursor..)
                    .map_or_else(Vec::new, <[_]>::to_vec);
                return Some((events, job.state));
            }
            inner = self
                .shared
                .job_changed
                .wait_timeout(inner, left)
                .expect("job queue poisoned")
                .0;
        }
    }

    /// Stops accepting work and cancels jobs no worker has started.
    /// Running sweeps finish normally; call [`JobQueue::join`] to wait.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let mut inner = self.shared.inner.lock().expect("job queue poisoned");
        while let Some(id) = inner.queue.pop_front() {
            if let Some(job) = inner.jobs.get_mut(&id) {
                job.state = JobState::Cancelled;
            }
            inner.retire(id);
        }
        drop(inner);
        self.shared.work_ready.notify_all();
        self.shared.job_changed.notify_all();
    }

    /// Flips the cooperative cancel flag shared with every running
    /// sweep: workers finish the cells they already claimed and skip the
    /// rest. Implies nothing about accepting new work — call
    /// [`JobQueue::drain`] first.
    pub fn force_cancel(&self) {
        self.shared.cancel.store(true, Ordering::SeqCst);
    }

    /// Waits for every worker to exit. Only meaningful after
    /// [`JobQueue::drain`].
    pub fn join(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().expect("job queue poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (id, spec) = {
            let mut inner = shared.inner.lock().expect("job queue poisoned");
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    let Some(job) = inner.jobs.get_mut(&id) else {
                        continue;
                    };
                    job.state = JobState::Running;
                    let spec = job.spec.clone();
                    inner.active += 1;
                    break (id, spec);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                inner = shared.work_ready.wait(inner).expect("job queue poisoned");
            }
        };

        let outcome = run_sweep(shared, id, spec);

        let mut inner = shared.inner.lock().expect("job queue poisoned");
        inner.active -= 1;
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.state = match outcome {
                Ok(_) => JobState::Done,
                Err(_) => JobState::Failed,
            };
            job.outcome = Some(outcome);
            inner.retire(id);
        }
        drop(inner);
        shared.job_changed.notify_all();
    }
}

/// Renders one [`CellProgress`] as the JSON object pushed to the job's
/// event log (and streamed over SSE). `node` names the fabric worker
/// that answered the cell; an in-process sweep's events have none.
#[must_use]
pub fn render_event(p: &CellProgress, node: Option<&str>) -> String {
    let mut pairs = vec![
        ("event".into(), Json::str("cell")),
        ("seq".into(), Json::u64(p.seq as u64)),
        ("total".into(), Json::u64(p.total as u64)),
        ("tag".into(), Json::str(&p.tag)),
        ("workload".into(), Json::str(&p.workload)),
        ("status".into(), Json::str(p.status)),
        ("wall_ms".into(), Json::u64(p.wall_ms)),
    ];
    if let Some(node) = node {
        pairs.push(("node".into(), Json::str(node)));
    }
    Json::Obj(pairs).render()
}

/// Runs one sweep through the executor under its own [`TraceCtx`] and
/// renders the canonical body, summary and Chrome trace. The executor's
/// spans nest under the `sweep {id}` root, so the exported trace is one
/// causally-linked tree; the report body stays untouched by tracing.
fn run_sweep(shared: &Arc<Shared>, id: u64, spec: SweepSpec) -> Result<Rendered, String> {
    let ctx = TraceCtx::enabled();
    let sweep_name = format!("sweep {id:016x}");
    let root = ctx.span(&sweep_name).expect("enabled context");
    let started = Instant::now();
    let executed = shared.executor.execute(SweepRun {
        id,
        spec,
        trace: root.ctx(),
        events: EventLog {
            shared: Arc::clone(shared),
            id,
        },
        cancel: Arc::clone(&shared.cancel),
    })?;
    let body = Arc::new(render_runs(&executed.result).render());
    let summary = executed.result.summary();
    drop(root);
    let trace = Arc::new(ctx.export_chrome(&sweep_name, 0).render());
    count(&shared.metrics, "serve.sweeps_completed");
    if executed.degraded.is_some() {
        count(&shared.metrics, "serve.sweeps_degraded");
    }
    let mut reg = shared.metrics.lock().expect("metrics poisoned");
    let hist = reg.histogram("serve.sweep_wall_ms");
    reg.observe(hist, started.elapsed().as_millis() as u64);
    Ok(Rendered {
        body,
        summary,
        degraded: executed.degraded,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> SweepSpec {
        SweepSpec::parse(&format!(
            r#"{{"orgs":["base"],"workloads":["gcc"],"scale":4096,"warmup":50,"measure":150,"seed":{seed}}}"#
        ))
        .expect("valid spec")
    }

    fn queue(capacity: usize) -> Arc<JobQueue> {
        JobQueue::new(
            JobQueueConfig {
                capacity,
                workers: 1,
                runner: RunnerConfig {
                    jobs: 1,
                    ..RunnerConfig::default()
                },
            },
            Arc::new(Mutex::new(MetricRegistry::new())),
        )
    }

    fn wait_done(q: &JobQueue, id: u64) -> Arc<String> {
        for _ in 0..2_000 {
            match q.report(id) {
                Some(Ok(body)) => return body,
                Some(Err(JobState::Failed)) => panic!("job failed"),
                _ => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        panic!("job {id:016x} never finished");
    }

    /// A scripted executor for the seam tests: every sweep logs one event
    /// of `event_bytes` and returns no runs, and every hook call is
    /// recorded.
    #[derive(Default)]
    struct Fake {
        refusal: Option<String>,
        degraded: Option<String>,
        event_bytes: usize,
        resumed: Mutex<Vec<(u64, SweepSpec)>>,
        accepted: Mutex<Vec<u64>>,
        executed: Mutex<Vec<u64>>,
        /// The sweep with this id blocks in `execute` until released.
        hold: Mutex<Option<u64>>,
        released: Condvar,
    }

    impl Fake {
        fn release(&self) {
            *self.hold.lock().expect("hold") = None;
            self.released.notify_all();
        }
    }

    impl SweepExecutor for Fake {
        fn execute(&self, run: SweepRun) -> Result<Executed, String> {
            self.executed.lock().expect("executed").push(run.id);
            run.events.push("x".repeat(self.event_bytes));
            let mut hold = self.hold.lock().expect("hold");
            while *hold == Some(run.id) {
                hold = self.released.wait(hold).expect("hold");
            }
            Ok(Executed {
                result: SweepResult {
                    outcomes: std::collections::BTreeMap::new(),
                    deduped: 0,
                    jobs: 1,
                    wall: std::time::Duration::ZERO,
                    cell_wall_ms: dice_obs::Histogram::new(),
                    cache_discarded: 0,
                    cancelled: 0,
                    steals: 0,
                    tail_idle_ms: 0,
                    engine: dice_sim::EngineCounters::default(),
                },
                degraded: self.degraded.clone(),
            })
        }

        fn refusal(&self) -> Option<String> {
            self.refusal.clone()
        }

        fn accepted(&self, id: u64, _spec: &SweepSpec) {
            self.accepted.lock().expect("accepted").push(id);
        }

        fn resumed(&self) -> Vec<(u64, SweepSpec)> {
            std::mem::take(&mut *self.resumed.lock().expect("resumed"))
        }
    }

    fn fake_queue(
        fake: &Arc<Fake>,
        capacity: usize,
        workers: usize,
    ) -> (Arc<JobQueue>, Arc<Mutex<MetricRegistry>>) {
        let metrics = Arc::new(Mutex::new(MetricRegistry::new()));
        let executor: Arc<dyn SweepExecutor> = Arc::clone(fake) as _;
        let q = JobQueue::start(capacity, workers, executor, Arc::clone(&metrics));
        (q, metrics)
    }

    fn id_of(spec: &SweepSpec) -> u64 {
        sweep_key(&spec.to_cells())
    }

    fn state_of(q: &JobQueue, id: u64) -> Option<String> {
        let status = q.status(id)?;
        status
            .get("state")
            .and_then(Json::as_str)
            .map(str::to_owned)
    }

    fn wait_for(what: &str, ready: impl Fn() -> bool) {
        for _ in 0..2_000 {
            if ready() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn executor_degraded_reason_reaches_the_status_document() {
        let reason = "1 of 1 cells completed on no live worker";
        let fake = Arc::new(Fake {
            degraded: Some(reason.to_owned()),
            ..Fake::default()
        });
        let (q, metrics) = fake_queue(&fake, 4, 1);
        let Submission::Accepted { id, .. } = q.submit(tiny_spec(1)) else {
            panic!("rejected");
        };
        wait_done(&q, id);
        let status = q.status(id).expect("known job");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(status.get("degraded").and_then(Json::as_str), Some(reason));
        assert_eq!(*fake.accepted.lock().expect("accepted"), vec![id]);
        let reg = metrics.lock().expect("metrics");
        assert_eq!(reg.counter_value("serve.sweeps_degraded"), Some(1));
        assert_eq!(reg.counter_value("serve.sweeps_completed"), Some(1));
        drop(reg);
        q.drain();
        q.join();
    }

    #[test]
    fn refused_admission_answers_503_and_records_nothing() {
        let fake = Arc::new(Fake {
            refusal: Some("no live workers".to_owned()),
            ..Fake::default()
        });
        let (q, _) = fake_queue(&fake, 4, 1);
        let spec = tiny_spec(2);
        let submission = q.submit(spec.clone());
        assert_eq!(
            submission,
            Submission::Refused("no live workers".to_owned())
        );
        let response = crate::server::submitted(submission);
        assert_eq!(response.status, 503);
        assert!(String::from_utf8_lossy(&response.body).contains("no live workers"));

        assert!(q.status(id_of(&spec)).is_none());
        let inner = q.shared.inner.lock().expect("job queue");
        assert!(inner.jobs.is_empty() && inner.queue.is_empty());
        drop(inner);
        assert!(fake.accepted.lock().expect("accepted").is_empty());
        assert!(fake.executed.lock().expect("executed").is_empty());
        q.drain();
        q.join();
    }

    #[test]
    fn resumed_sweep_runs_without_a_post_and_holds_capacity() {
        let spec = tiny_spec(3);
        let id = id_of(&spec);
        let fake = Arc::new(Fake {
            resumed: Mutex::new(vec![(id, spec.clone())]),
            hold: Mutex::new(Some(id)),
            ..Fake::default()
        });
        let (q, _) = fake_queue(&fake, 1, 1);
        wait_for("the resumed sweep to run", || {
            fake.executed.lock().expect("executed").contains(&id)
        });
        assert_eq!(state_of(&q, id).as_deref(), Some("running"));

        // It holds the only admission slot...
        assert_eq!(
            q.submit(tiny_spec(4)),
            Submission::Overloaded { retry_after_s: 1 }
        );
        // ...and an identical POST coalesces onto it, with no second
        // acceptance recorded.
        assert_eq!(
            q.submit(spec),
            Submission::Accepted {
                id,
                coalesced: true,
                state: JobState::Running
            }
        );
        fake.release();
        wait_done(&q, id);
        assert_eq!(*fake.executed.lock().expect("executed"), vec![id]);
        assert!(fake.accepted.lock().expect("accepted").is_empty());
        q.drain();
        q.join();
    }

    /// Runs `poll_events(id, cursor, 60 s)` on a thread of its own; the
    /// answer comes back over the returned channel.
    fn waiting_reader(
        q: &Arc<JobQueue>,
        id: u64,
        cursor: usize,
    ) -> std::sync::mpsc::Receiver<Option<(Vec<Arc<String>>, JobState)>> {
        let (tx, rx) = std::sync::mpsc::channel();
        let q = Arc::clone(q);
        std::thread::spawn(move || {
            let _ = tx.send(q.poll_events(id, cursor, Duration::from_secs(60)));
        });
        // Let the reader block before the change it waits for.
        std::thread::sleep(Duration::from_millis(100));
        rx
    }

    #[test]
    fn a_waiting_reader_wakes_when_its_sweep_finishes() {
        let spec = tiny_spec(5);
        let id = id_of(&spec);
        let fake = Arc::new(Fake {
            hold: Mutex::new(Some(id)),
            ..Fake::default()
        });
        let (q, _) = fake_queue(&fake, 4, 1);
        assert!(matches!(q.submit(spec), Submission::Accepted { .. }));
        wait_for("the sweep's first event", || {
            q.poll_events(id, 0, Duration::ZERO)
                .is_some_and(|(events, _)| events.len() == 1)
        });

        let reader = waiting_reader(&q, id, 1);
        assert!(
            reader.try_recv().is_err(),
            "returned before the sweep ended"
        );
        fake.release();
        let (events, state) = reader
            .recv_timeout(Duration::from_secs(10))
            .expect("finishing the sweep woke the reader")
            .expect("known job");
        assert_eq!(state, JobState::Done);
        assert!(events.is_empty());
        q.drain();
        q.join();
    }

    #[test]
    fn drain_wakes_a_reader_of_a_queued_job() {
        let held = tiny_spec(6);
        let held_id = id_of(&held);
        let fake = Arc::new(Fake {
            hold: Mutex::new(Some(held_id)),
            ..Fake::default()
        });
        let (q, _) = fake_queue(&fake, 4, 1);
        assert!(matches!(q.submit(held), Submission::Accepted { .. }));
        wait_for("the held sweep to run", || {
            state_of(&q, held_id).as_deref() == Some("running")
        });
        // The only worker is busy, so this one stays queued.
        let queued = tiny_spec(7);
        let queued_id = id_of(&queued);
        assert!(matches!(q.submit(queued), Submission::Accepted { .. }));

        let reader = waiting_reader(&q, queued_id, 0);
        assert!(reader.try_recv().is_err(), "returned before the drain");
        q.drain();
        let (events, state) = reader
            .recv_timeout(Duration::from_secs(10))
            .expect("the drain woke the reader")
            .expect("known job");
        assert_eq!(state, JobState::Cancelled);
        assert!(events.is_empty());
        fake.release();
        q.join();
    }

    #[test]
    fn finished_jobs_stay_under_the_budget_and_running_ones_are_kept() {
        let fake = Arc::new(Fake {
            event_bytes: 1_000,
            ..Fake::default()
        });
        let (q, _) = fake_queue(&fake, 4, 2);
        // Room for two finished jobs: each holds its 1 kB event plus a
        // few hundred bytes of report and trace.
        let budget = 3_000;
        q.shared.inner.lock().expect("job queue").budget = budget;

        let held = tiny_spec(50);
        let held_id = id_of(&held);
        *fake.hold.lock().expect("hold") = Some(held_id);
        assert!(matches!(q.submit(held), Submission::Accepted { .. }));
        wait_for("the held sweep to run", || {
            state_of(&q, held_id).as_deref() == Some("running")
        });

        let mut ids = Vec::new();
        for seed in 51..61 {
            let Submission::Accepted { id, .. } = q.submit(tiny_spec(seed)) else {
                panic!("rejected");
            };
            wait_done(&q, id);
            ids.push(id);
            let inner = q.shared.inner.lock().expect("job queue");
            assert!(
                inner.retained <= budget,
                "{} bytes retained over a {budget} B budget",
                inner.retained
            );
            let held_state = inner.jobs.get(&held_id).map(|job| job.state);
            assert_eq!(held_state, Some(JobState::Running), "running job evicted");
        }

        // The oldest-finished job is unknown again, the newest is kept,
        // and resubmitting the evicted one runs it afresh.
        let first = ids[0];
        assert!(q.status(first).is_none() && q.report(first).is_none());
        assert!(q.poll_events(first, 0, Duration::ZERO).is_none());
        assert!(q.report(ids[9]).is_some());
        let runs = fake.executed.lock().expect("executed").len();
        assert_eq!(
            q.submit(tiny_spec(51)),
            Submission::Accepted {
                id: first,
                coalesced: false,
                state: JobState::Queued
            }
        );
        wait_done(&q, first);
        assert_eq!(fake.executed.lock().expect("executed").len(), runs + 1);

        fake.release();
        wait_done(&q, held_id);
        assert!(q.shared.inner.lock().expect("job queue").retained <= budget);
        q.drain();
        q.join();
    }

    #[test]
    fn runs_a_job_to_done() {
        let q = queue(4);
        let Submission::Accepted { id, coalesced, .. } = q.submit(tiny_spec(1)) else {
            panic!("rejected");
        };
        assert!(!coalesced);
        let body = wait_done(&q, id);
        assert!(body.starts_with("{\"runs\":["));
        let status = q.status(id).expect("known job");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        q.drain();
        q.join();
    }

    #[test]
    fn finished_job_exposes_events_and_a_valid_trace() {
        let q = queue(4);
        let Submission::Accepted { id, .. } = q.submit(SweepSpec::parse(
            r#"{"orgs":["base","dice36"],"workloads":["gcc"],"scale":4096,"warmup":50,"measure":150,"seed":5}"#,
        )
        .expect("valid spec"))
        else {
            panic!("rejected");
        };
        wait_done(&q, id);

        // One event per cell, seq 1..=total, each a valid JSON object.
        let (events, state) = q.poll_events(id, 0, Duration::ZERO).expect("known job");
        assert_eq!(state, JobState::Done);
        assert_eq!(events.len(), 2);
        for (i, ev) in events.iter().enumerate() {
            let doc = Json::parse(ev).expect("event JSON");
            assert_eq!(doc.get("event").and_then(Json::as_str), Some("cell"));
            assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(i as u64 + 1));
            assert_eq!(doc.get("total").and_then(Json::as_u64), Some(2));
            assert_eq!(doc.get("status").and_then(Json::as_str), Some("simulated"));
        }
        // Cursor past the end yields nothing more.
        let (rest, _) = q
            .poll_events(id, events.len(), Duration::ZERO)
            .expect("known job");
        assert!(rest.is_empty());
        assert!(q.poll_events(0xdead, 0, Duration::ZERO).is_none());

        // The trace is a valid Chrome document forming one tree: a sweep
        // root, a cell span per cell, and phase spans under each cell.
        let trace = q.trace(id).expect("known job").expect("done");
        let doc = Json::parse(&trace).expect("trace JSON");
        dice_obs::validate_chrome_trace(&doc).expect("valid chrome trace");
        let names: Vec<&str> = doc
            .as_arr()
            .expect("array")
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.iter().any(|n| n.starts_with("sweep ")));
        assert_eq!(names.iter().filter(|n| n.starts_with("cell:")).count(), 2);
        assert_eq!(names.iter().filter(|&&n| n == "sim.measure").count(), 2);

        q.drain();
        q.join();
    }

    #[test]
    fn identical_specs_coalesce() {
        let q = queue(4);
        let Submission::Accepted { id: a, .. } = q.submit(tiny_spec(2)) else {
            panic!("rejected");
        };
        let Submission::Accepted {
            id: b, coalesced, ..
        } = q.submit(tiny_spec(2))
        else {
            panic!("rejected");
        };
        assert_eq!(a, b);
        assert!(coalesced);
        wait_done(&q, a);
        let status = q.status(a).expect("known job");
        assert_eq!(status.get("coalesced").and_then(Json::as_u64), Some(1));
        q.drain();
        q.join();
    }

    #[test]
    fn distinct_specs_beyond_capacity_are_rejected() {
        let q = queue(2);
        let mut accepted = 0;
        let mut rejected = 0;
        for seed in 10..20 {
            match q.submit(tiny_spec(seed)) {
                Submission::Accepted { .. } => accepted += 1,
                Submission::Overloaded { retry_after_s } => {
                    assert!(retry_after_s >= 1);
                    rejected += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // The worker may have finished some jobs while we submitted, but
        // admission can never exceed capacity + completions; with 10
        // rapid submissions at capacity 2 at least some must bounce.
        assert!(rejected > 0, "queue accepted all {accepted} submissions");
        q.drain();
        q.join();
    }

    #[test]
    fn drain_cancels_queued_jobs_and_rejects_new_ones() {
        let q = queue(8);
        let ids: Vec<u64> = (30..34)
            .map(|seed| match q.submit(tiny_spec(seed)) {
                Submission::Accepted { id, .. } => id,
                other => panic!("rejected: {other:?}"),
            })
            .collect();
        q.drain();
        q.join();
        assert_eq!(q.submit(tiny_spec(99)), Submission::Draining);
        let states: Vec<&str> = ids
            .iter()
            .map(|&id| {
                let s = q.status(id).expect("known job");
                s.get("state")
                    .and_then(Json::as_str)
                    .expect("state")
                    .to_owned()
            })
            .map(|s| if s == "done" { "done" } else { "cancelled" })
            .collect();
        assert!(states.contains(&"cancelled") || states.iter().all(|&s| s == "done"));
        for (&id, state) in ids.iter().zip(&states) {
            if *state == "done" {
                assert!(q.report(id).expect("known").is_ok());
            }
        }
    }
}
