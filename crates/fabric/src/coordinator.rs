//! The fabric coordinator: dice-serve's sweep service with a scatter
//! executor behind it.
//!
//! The coordinator is a [`dice_serve::Server`] — the same job queue,
//! single-flight dedup, admission bound, status/report/trace documents
//! and SSE progress as `dice-serve` — whose queue runs each sweep
//! through a scatter executor instead of a local runner. The executor
//! runs the runner's own sweep loop ([`Runner::run_with`]: dedupe,
//! `scatter_width` claiming threads, the cancel flag, `cell:TAG/WORKLOAD`
//! spans, progress events and the [`SweepResult`](dice_runner::SweepResult))
//! over a per-cell function that places the cell on a worker via the
//! consistent-hash [`HashRing`] (keyed by the order-independent
//! [`cell_key`]) and posts it there. Beside the sweep API the coordinator
//! answers `GET /v1/fabric/membership` and
//! `POST /v1/fabric/nodes/:name/drain`.
//!
//! Each attempt at a cell is one `POST /v1/cells` on its ring owner, and
//! a finished cell is journaled and announced while other cells are
//! still out. Failure handling, per answer:
//!
//! * **transport error / protocol violation / unexpected status** — a
//!   dispatch failure against the node's circuit [`Breaker`]. At the
//!   second consecutive failure the breaker trips: the node leaves the
//!   ring (version bump) and an immediate health probe classifies the
//!   damage — **connection refused** means the process is gone (the node
//!   is declared dead), anything else keeps the breaker open for a
//!   jittered interval of 100 ms to 5 s, after which half-open probes
//!   decide whether it rejoins the ring or, after five failed probes,
//!   dies. A probe allows 1 s to connect and 2 s to read. Either way the
//!   cell's next attempt re-hashes it onto the survivors.
//! * **HTTP 503** — the node is probed: a draining worker is removed
//!   from the ring (its in-flight cells still answer), a merely busy one
//!   stays and the cell tries again after backoff.
//! * **cell-level failure** (the worker answered with an `error` /
//!   `timed_out_ms` run object) — the cell is re-dispatched to the next
//!   distinct surviving node ([`HashRing::owner_excluding`]); once every
//!   live node has had a go, the last worker-reported outcome is kept, so
//!   a deterministic simulation panic renders the same error entry a
//!   direct run would.
//!
//! A cell gets at most `retry_rounds + 1` attempts, with a
//! decorrelated-jitter sleep ([`JitteredBackoff`], seeded by the sweep
//! and the cell) before each re-dispatch.
//!
//! When a `journal` path is configured every accepted spec, finalized
//! cell and sweep completion is appended to a write-ahead [`Journal`]
//! (fsync'd before the client sees the 202). A coordinator killed
//! mid-sweep replays the journal on restart, resumes only the missing
//! cells (a replayed cell counts as a cache hit), and renders the same
//! bytes — crash recovery rides on the same identity that makes fabric
//! reports `cmp`-equal to direct runs.
//!
//! The queue renders the sweep's result through the same
//! [`render_runs`](dice_serve::render_runs) path a direct `dice-runner`
//! invocation uses — byte-identical output is the invariant the
//! end-to-end tests `cmp` for. When the fabric itself had to synthesize
//! an outcome (no live worker ever completed the cell), the sweep
//! completes with a typed `degraded` reason instead of pretending the
//! bytes are canonical.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dice_obs::{labeled, Json, MetricRegistry, TraceCtx};
use dice_runner::{cell_key, Cell, CellOutcome, CellProgress, ProgressSink, Runner, RunnerConfig};
use dice_serve::client::{http_post_timeout, http_probe, ClientResponse, ProbeError};
use dice_serve::http::{Request, Response};
use dice_serve::net::{NetConfig, NetServer};
use dice_serve::{
    render_event, Executed, Handle, JobQueue, Server, SweepExecutor, SweepRun, SweepSpec,
};
use dice_sim::EngineCounters;

use crate::breaker::{Breaker, JitteredBackoff};
use crate::journal::{Journal, JournalRecord, Recovery};
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::wire::{cell_spec, open_run_object, parse_run_object, render_run_object};

/// The error the fabric synthesizes when no live worker ever completed a
/// cell. Its `fabric:` prefix is what marks a finished sweep *degraded*:
/// these entries are the fabric's fault, not the simulation's, so the
/// report is not canonical.
const SYNTHETIC_ERROR: &str = "fabric: no live worker completed this cell";

/// TCP connect budget for health probes: a refused connect within it
/// proves the process is gone.
const PROBE_CONNECT: Duration = Duration::from_secs(1);
/// Read budget for health probes: blowing it means alive but slow.
const PROBE_READ: Duration = Duration::from_secs(2);

/// One `GET /healthz` health probe against `addr`.
fn probe(addr: &str) -> Result<ClientResponse, ProbeError> {
    http_probe(addr, "/healthz", PROBE_CONNECT, PROBE_READ)
}

/// Coordinator construction knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Accept pool (port, handler threads, backlog).
    pub net: NetConfig,
    /// Worker addresses (`host:port`), named `w0`, `w1`, … by position.
    pub workers: Vec<String>,
    /// Maximum queued + running sweeps before submissions get 429 (also
    /// the number of sweeps scattered at once).
    pub capacity: usize,
    /// Cells dispatched at once per sweep (the sweep loop's threads).
    pub scatter_width: usize,
    /// Re-dispatches per cell after its first attempt (bounded retries).
    pub retry_rounds: usize,
    /// Base for the decorrelated-jitter backoff before a cell's
    /// re-dispatches (draws live in `[backoff, backoff_cap]`).
    pub backoff: Duration,
    /// Ceiling on the jittered re-dispatch backoff.
    pub backoff_cap: Duration,
    /// Socket timeout for one scattered cell; a worker that blows it
    /// counts a dispatch failure against its breaker.
    pub cell_timeout: Duration,
    /// When set, accepted sweeps and finalized cells are appended to a
    /// write-ahead journal at this path and replayed on restart.
    pub journal: Option<PathBuf>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            net: NetConfig::default(),
            workers: Vec::new(),
            capacity: 16,
            scatter_width: 8,
            retry_rounds: 3,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            cell_timeout: Duration::from_secs(120),
            journal: None,
        }
    }
}

/// A worker's health as the coordinator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// On the ring, taking cells.
    Healthy,
    /// Off the ring by request; in-flight cells still answer.
    Draining,
    /// Off the ring after a transport failure or protocol violation.
    Dead,
}

impl NodeState {
    /// The wire spelling used in the membership document.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            NodeState::Healthy => "healthy",
            NodeState::Draining => "draining",
            NodeState::Dead => "dead",
        }
    }
}

struct Node {
    name: String,
    addr: String,
    state: NodeState,
    breaker: Breaker,
    dispatched: u64,
    completed: u64,
    failed: u64,
}

struct Membership {
    nodes: Vec<Node>,
    ring: HashRing,
}

impl Membership {
    /// The ring owner of `key` among the nodes not in `tried`, and its
    /// address, copied out so no dispatch holds the membership lock
    /// across HTTP.
    fn place(&self, key: u64, tried: &[String]) -> Option<(String, String)> {
        let tried: Vec<&str> = tried.iter().map(String::as_str).collect();
        let name = self.ring.owner_excluding(key, &tried)?;
        let node = self.nodes.iter().find(|n| n.name == name)?;
        Some((node.name.clone(), node.addr.clone()))
    }

    fn node_mut(&mut self, name: &str) -> Option<&mut Node> {
        self.nodes.iter_mut().find(|n| n.name == name)
    }

    /// Marks `name` with `state` and takes it off the ring. Returns
    /// whether the node was still a healthy ring member.
    fn retire(&mut self, name: &str, state: NodeState) -> bool {
        let Some(node) = self.node_mut(name) else {
            return false;
        };
        if node.state != NodeState::Healthy {
            return false;
        }
        node.state = state;
        self.ring.remove(name)
    }

    fn doc(&self) -> Json {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                Json::Obj(vec![
                    ("name".into(), Json::str(&n.name)),
                    ("addr".into(), Json::str(&n.addr)),
                    ("state".into(), Json::str(n.state.as_str())),
                    ("breaker".into(), Json::str(n.breaker.state_str())),
                    ("breaker_opened".into(), Json::u64(n.breaker.opened_total())),
                    ("dispatched".into(), Json::u64(n.dispatched)),
                    ("completed".into(), Json::u64(n.completed)),
                    ("failed".into(), Json::u64(n.failed)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("ring_version".into(), Json::u64(self.ring.version())),
            ("vnodes".into(), Json::u64(self.ring.vnodes() as u64)),
            ("nodes".into(), Json::Arr(nodes)),
        ])
    }
}

/// Cell outcomes replayed from the journal, keyed by `(tag, workload)`.
type Replayed = HashMap<(String, String), CellOutcome>;

/// The scatter executor: runs each sweep's cells on the worker fleet.
struct Scatter {
    cfg: CoordinatorConfig,
    membership: Mutex<Membership>,
    metrics: Arc<Mutex<MetricRegistry>>,
    journal: Option<Journal>,
    /// Unfinished journaled sweeps and the cell outcomes the journal
    /// holds for them, taken when each sweep runs.
    replayed: Mutex<BTreeMap<u64, (SweepSpec, Replayed)>>,
}

impl Scatter {
    /// Probes the configured workers — the reachable ones join the ring,
    /// unreachable ones start dead (they are still listed in the
    /// membership document) — and, when a journal is configured, replays
    /// it: sweeps accepted but not completed before the last shutdown
    /// (crash or otherwise) resume, re-dispatching only the cells the
    /// journal has no result for.
    ///
    /// # Errors
    ///
    /// Propagates journal open/recovery failures.
    fn new(config: CoordinatorConfig, metrics: Arc<Mutex<MetricRegistry>>) -> io::Result<Scatter> {
        let (journal, recovery) = match &config.journal {
            Some(path) => {
                let (journal, recovery) = Journal::open(path)?;
                (Some(journal), Some(recovery))
            }
            None => (None, None),
        };

        let mut membership = Membership {
            nodes: Vec::new(),
            ring: HashRing::new(DEFAULT_VNODES),
        };
        for (i, addr) in config.workers.iter().enumerate() {
            let name = format!("w{i}");
            let state = match probe(addr) {
                Ok(r) if r.status == 200 => NodeState::Healthy,
                Ok(_) => NodeState::Draining,
                Err(_) => NodeState::Dead,
            };
            if state == NodeState::Healthy {
                membership.ring.add(&name);
            }
            membership.nodes.push(Node {
                breaker: Breaker::new(i as u64 + 1),
                name,
                addr: addr.clone(),
                state,
                dispatched: 0,
                completed: 0,
                failed: 0,
            });
        }
        let scatter = Scatter {
            cfg: config,
            membership: Mutex::new(membership),
            metrics,
            journal,
            replayed: Mutex::new(BTreeMap::new()),
        };
        if let Some(recovery) = recovery {
            scatter.replay(&recovery);
        }
        Ok(scatter)
    }

    /// Collects every journaled sweep with an `accepted` record but no
    /// `done` record, with the cell outcomes the journal already holds
    /// (sorted by id, the order they resume in).
    fn replay(&self, recovery: &Recovery) {
        if recovery.dropped_bytes > 0 {
            eprintln!(
                "dice-fabric-coordinator: journal recovery dropped {} torn trailing bytes",
                recovery.dropped_bytes
            );
        }
        let mut specs: BTreeMap<u64, &Json> = BTreeMap::new();
        let mut cell_runs: HashMap<u64, Vec<&Json>> = HashMap::new();
        let mut finished = Vec::new();
        for record in &recovery.records {
            match record {
                JournalRecord::Accepted { sweep, spec } => {
                    specs.insert(*sweep, spec);
                }
                JournalRecord::Cell { sweep, run } => {
                    cell_runs.entry(*sweep).or_default().push(run);
                }
                JournalRecord::Done { sweep, .. } => finished.push(*sweep),
            }
        }
        for id in &finished {
            specs.remove(id);
        }
        let mut replayed = self.replayed.lock().expect("replayed poisoned");
        for (id, spec) in specs {
            let spec = match SweepSpec::from_json(spec) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("dice-fabric-coordinator: journaled spec {id:016x} unusable: {e}");
                    self.count("fabric.journal.replay_errors");
                    continue;
                }
            };
            // Last write wins per cell: a crash between append and ack can
            // journal the same cell twice with identical payloads. A
            // replayed cell counts as a cache hit.
            let mut done_cells = Replayed::new();
            for run in cell_runs.get(&id).into_iter().flatten() {
                match parse_run_object(run, true) {
                    Ok((tag, workload, outcome)) => {
                        done_cells.insert((tag, workload), outcome);
                    }
                    Err(e) => {
                        eprintln!(
                            "dice-fabric-coordinator: journaled cell of {id:016x} unusable: {e}"
                        );
                        self.count("fabric.journal.replay_errors");
                    }
                }
            }
            self.count("fabric.journal.recovered_sweeps");
            self.count_by("fabric.journal.recovered_cells", done_cells.len() as u64);
            replayed.insert(id, (spec, done_cells));
        }
    }

    /// The fabric's own endpoints: `GET /v1/fabric/membership` and
    /// `POST /v1/fabric/nodes/:name/drain`; `None` for anything else.
    fn route(&self, request: &Request) -> Option<Response> {
        Some(match (request.method.as_str(), request.route()) {
            ("GET", "/v1/fabric/membership") => {
                let m = self.membership.lock().expect("membership poisoned");
                Response::json(200, m.doc().render())
            }
            (_, "/v1/fabric/membership") => Response::error(405, "method not allowed"),
            ("POST", p) if p.starts_with("/v1/fabric/nodes/") => self.drain_node(p),
            _ => return None,
        })
    }

    /// `POST /v1/fabric/nodes/:name/drain`: take a worker off the ring
    /// without declaring it dead. New cells re-hash onto the survivors;
    /// cells already dispatched to the node still answer. (Stopping the
    /// worker process itself is SIGTERM's job.)
    fn drain_node(&self, path: &str) -> Response {
        let Some(name) = path
            .strip_prefix("/v1/fabric/nodes/")
            .and_then(|p| p.strip_suffix("/drain"))
        else {
            return Response::error(404, "no such endpoint");
        };
        let mut m = self.membership.lock().expect("membership poisoned");
        if m.node_mut(name).is_none() {
            return Response::error(404, "no such node");
        }
        m.retire(name, NodeState::Draining);
        let state = m
            .node_mut(name)
            .map(|n| n.state.as_str())
            .unwrap_or("unknown");
        let doc = Json::Obj(vec![
            ("node".into(), Json::str(name)),
            ("state".into(), Json::str(state)),
            ("ring_version".into(), Json::u64(m.ring.version())),
        ]);
        Response::json(200, doc.render())
    }

    fn count(&self, name: &str) {
        let mut reg = self.metrics.lock().expect("metrics poisoned");
        let id = reg.counter(name);
        reg.inc(id);
    }

    fn count_by(&self, name: &str, n: u64) {
        let mut reg = self.metrics.lock().expect("metrics poisoned");
        let id = reg.counter(name);
        reg.add(id, n);
    }

    fn count_node(&self, base: &str, node: &str) {
        let mut reg = self.metrics.lock().expect("metrics poisoned");
        let id = reg.counter(&labeled(base, &[("node", node)]));
        reg.inc(id);
    }

    /// Appends one record to the write-ahead journal, when configured.
    /// Append failures are counted and logged but never block a sweep —
    /// durability degrades, execution does not.
    fn journal_append(&self, record: &JournalRecord) {
        let Some(journal) = &self.journal else {
            return;
        };
        match journal.append(record) {
            Ok(()) => self.count("fabric.journal.appends"),
            Err(e) => {
                eprintln!(
                    "dice-fabric-coordinator: journal append failed ({}): {e}",
                    journal.path().display()
                );
                self.count("fabric.journal.append_errors");
            }
        }
    }

    /// Records a dispatch failure (transport / protocol violation)
    /// against `name`'s breaker. A trip takes the node off the ring and
    /// triggers an immediate classifying probe.
    fn dispatch_failed(&self, name: &str) {
        let tripped_addr = {
            let mut m = self.membership.lock().expect("membership poisoned");
            let now = Instant::now();
            let Some(node) = m.node_mut(name) else {
                return;
            };
            if node.state != NodeState::Healthy {
                return;
            }
            if !node.breaker.record_failure(now) {
                return;
            }
            let addr = node.addr.clone();
            m.ring.remove(name);
            addr
        };
        self.count_node("fabric.breaker_opened", name);
        // The trip tells us dispatches fail; the probe tells us *why*.
        // Refused means the process is gone — no point waiting out the
        // open interval for a node the kernel has already buried.
        self.probe_node(name, &tripped_addr);
    }

    /// Records a successful worker answer: resets the breaker's failure
    /// streak (closed breakers only — open ones re-close via probes so
    /// the ring membership stays consistent).
    fn dispatch_answered(&self, name: &str) {
        self.node(name, |node| {
            if node.state == NodeState::Healthy && node.breaker.is_closed() {
                node.breaker.record_success();
            }
        });
    }

    /// One health probe against `name`, settling its breaker: 200
    /// re-closes it (the node rejoins the ring), refused declares it
    /// dead, 503 marks it draining, anything else burns probe budget.
    fn probe_node(&self, name: &str, addr: &str) {
        self.count("fabric.probe.sent");
        let result = probe(addr);
        if let Err(e) = &result {
            let mut reg = self.metrics.lock().expect("metrics poisoned");
            let id = reg.counter(&labeled("fabric.probe_failures", &[("kind", e.kind_str())]));
            reg.inc(id);
        }
        let mut m = self.membership.lock().expect("membership poisoned");
        let now = Instant::now();
        let Some(node) = m.node_mut(name) else {
            return;
        };
        if node.state != NodeState::Healthy {
            return;
        }
        match result {
            Ok(ref r) if r.status == 200 => {
                node.breaker.probe_succeeded();
                m.ring.add(name);
                drop(m);
                self.count("fabric.breaker.reclosed");
            }
            Ok(_) => {
                // 503: the worker is draining by choice; honor it.
                m.retire(name, NodeState::Draining);
            }
            Err(ProbeError::Refused) => {
                node.state = NodeState::Dead;
                drop(m);
                self.count("fabric.node_failures");
            }
            Err(_) => {
                if node.breaker.probe_failed(now) {
                    node.state = NodeState::Dead;
                    drop(m);
                    self.count("fabric.node_failures");
                }
            }
        }
    }

    /// Probes every open breaker whose jittered interval has expired
    /// (run before each re-dispatch so tripped nodes can rejoin the ring
    /// mid-sweep).
    fn probe_due_breakers(&self) {
        let due: Vec<(String, String)> = {
            let mut m = self.membership.lock().expect("membership poisoned");
            let now = Instant::now();
            m.nodes
                .iter_mut()
                .filter(|n| n.state == NodeState::Healthy && !n.breaker.is_closed())
                .filter_map(|n| {
                    n.breaker
                        .probe_due(now)
                        .then(|| (n.name.clone(), n.addr.clone()))
                })
                .collect()
        };
        for (name, addr) in due {
            self.probe_node(&name, &addr);
        }
    }
}

impl SweepExecutor for Scatter {
    /// Runs the sweep through the runner's sweep loop with
    /// [`Scatter::run_cell`] per cell, registers its `runner.*` metrics
    /// and journals its completion. A journal-replayed cell returns at
    /// once as a cache hit, never re-dispatched nor re-journaled.
    fn execute(&self, run: SweepRun) -> Result<Executed, String> {
        let replayed = self
            .replayed
            .lock()
            .expect("replayed poisoned")
            .remove(&run.id)
            .map(|(_, cells)| cells)
            .unwrap_or_default();
        let cells = run.spec.to_cells();
        if !replayed.is_empty() {
            let event = Json::Obj(vec![
                ("event".into(), Json::str("resumed")),
                ("replayed".into(), Json::u64(replayed.len() as u64)),
                ("total".into(), Json::u64(cells.len() as u64)),
            ]);
            run.events.push(event.render());
        }
        // The node that answered each cell ("" for none), for its progress
        // event: the runner emits that event after `run_cell` returned.
        let answered: Arc<Mutex<HashMap<(String, String), String>>> = Arc::default();
        let (events, nodes) = (run.events, Arc::clone(&answered));
        let runner = Runner::new(RunnerConfig {
            jobs: self.cfg.scatter_width,
            cancel: Some(run.cancel),
            trace: run.trace,
            progress: Some(ProgressSink::new(move |p: CellProgress| {
                let memo = (p.tag.clone(), p.workload.clone());
                let node = nodes.lock().expect("answered poisoned").remove(&memo);
                events.push(render_event(&p, Some(&node.unwrap_or_default())));
            })),
            ..RunnerConfig::default()
        })
        .map_err(|e| format!("runner setup: {e}"))?;
        let result = runner.run_with(cells, |cell, trace| {
            let started = Instant::now();
            let (mut outcome, node) = match replayed.get(&cell.memo_key()) {
                Some(outcome) => (outcome.clone(), String::new()),
                None => self.run_cell(run.id, &run.spec, cell, trace),
            };
            if let CellOutcome::Completed { wall, .. } = &mut outcome {
                *wall = started.elapsed();
            }
            answered
                .lock()
                .expect("answered poisoned")
                .insert(cell.memo_key(), node);
            (outcome, EngineCounters::default())
        });
        result.register(&mut self.metrics.lock().expect("metrics poisoned"));

        // Cells whose final outcome the fabric had to synthesize
        // (`fabric:` errors) make the sweep *degraded*: it still
        // terminates with a typed reason instead of hanging or passing off
        // non-canonical bytes as canonical.
        let synthetic = result
            .outcomes
            .values()
            .filter(|o| matches!(o, CellOutcome::Failed { error } if error.starts_with("fabric:")))
            .count();
        let degraded = (synthetic > 0).then(|| {
            format!(
                "{synthetic} of {} cells completed on no live worker (fabric-synthesized failures)",
                result.outcomes.len()
            )
        });
        // A cancelled sweep stays open in the journal, so a restarted
        // coordinator resumes the cells it skipped.
        if result.cancelled == 0 {
            self.journal_append(&JournalRecord::Done {
                sweep: run.id,
                degraded: degraded.clone(),
            });
        }
        Ok(Executed { result, degraded })
    }

    fn refusal(&self) -> Option<String> {
        let m = self.membership.lock().expect("membership poisoned");
        m.ring.is_empty().then(|| "no live workers".to_owned())
    }

    /// Durability point: the spec is fsync'd before the client sees 202,
    /// so an accepted sweep survives any later crash.
    fn accepted(&self, id: u64, spec: &SweepSpec) {
        self.journal_append(&JournalRecord::Accepted {
            sweep: id,
            spec: spec.to_json(),
        });
    }

    fn resumed(&self) -> Vec<(u64, SweepSpec)> {
        let replayed = self.replayed.lock().expect("replayed poisoned");
        replayed
            .iter()
            .map(|(&id, (spec, _))| (id, spec.clone()))
            .collect()
    }
}

/// A handle for draining a running coordinator from another thread.
pub type CoordinatorHandle = Handle;

/// The coordinator node: a dice-serve [`Server`] whose queue runs sweeps
/// through the scatter executor, with the membership and node-drain
/// endpoints beside the sweep API.
pub struct Coordinator;

impl Coordinator {
    /// Binds `127.0.0.1:port`, probes the workers, replays the journal
    /// and starts `capacity` sweep workers (so every admitted sweep
    /// scatters at once); sweeps the journal left unfinished are queued
    /// immediately. Serve with [`Server::run`]; drain through
    /// [`Server::handle`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure and journal open/recovery failures.
    pub fn bind(config: CoordinatorConfig) -> io::Result<Server> {
        let net = NetServer::bind(&config.net)?;
        let capacity = config.capacity;
        let scatter = Arc::new(Scatter::new(config, net.metrics())?);
        let queue = JobQueue::start(capacity, capacity, Arc::clone(&scatter) as _, net.metrics());
        let routes = Arc::new(move |request: &Request| scatter.route(request));
        Ok(Server::new(net, "dice-fabric", queue, Some(routes)))
    }
}

/// What one cell request came back as.
enum Fetch {
    /// Connect/read/write failure — a dispatch failure for the breaker.
    Transport,
    /// Non-200 status; 503 means draining-or-busy, anything else is a
    /// protocol violation.
    Status(u16),
    /// 200 with a parseable JSON body (the checksummed envelope).
    Body(Json),
    /// 200 with garbage — protocol violation.
    BadBody,
}

/// One `POST /v1/cells` against a worker, classified.
fn fetch_cell(addr: &str, body: &str, timeout: Duration) -> Fetch {
    match http_post_timeout(addr, "/v1/cells", body, timeout) {
        Err(_) => Fetch::Transport,
        Ok(resp) if resp.status != 200 => Fetch::Status(resp.status),
        Ok(resp) => match std::str::from_utf8(&resp.body)
            .ok()
            .and_then(|t| Json::parse(t).ok())
        {
            Some(doc) => Fetch::Body(doc),
            None => Fetch::BadBody,
        },
    }
}

impl Scatter {
    /// Applies `f` to node `name`'s membership entry, if there is one.
    fn node<T>(&self, name: &str, f: impl FnOnce(&mut Node) -> T) -> Option<T> {
        let mut m = self.membership.lock().expect("membership poisoned");
        m.node_mut(name).map(f)
    }

    /// One cell of sweep `id` on the fleet: at most `retry_rounds + 1`
    /// attempts, each one `POST /v1/cells` to the cell's ring owner among
    /// the nodes that have not answered it with a failure, with a
    /// jittered sleep and a probe of due breakers before each
    /// re-dispatch. Returns the outcome, journaled, and the node that
    /// answered it: the first completion, else the last worker-reported
    /// failure (what a direct run renders), else a fabric-synthesized
    /// failure and no node. `trace` is the cell's span; each attempt
    /// opens a `dispatch@NODE` span under it.
    fn run_cell(
        &self,
        id: u64,
        spec: &SweepSpec,
        cell: &Cell,
        trace: &TraceCtx,
    ) -> (CellOutcome, String) {
        let key = cell_key(&cell.cfg, &cell.workload);
        let body = cell_spec(spec, &cell.tag, &cell.workload.name);
        // Decorrelated jitter, seeded by sweep and cell: cells retrying
        // after the same worker failure wake at different instants
        // instead of storming the survivors.
        let mut backoff = JitteredBackoff::new(self.cfg.backoff, self.cfg.backoff_cap, id ^ key);
        let mut tried = Vec::new();
        let mut answer = None;
        for attempt in 0..=self.cfg.retry_rounds {
            if attempt > 0 {
                self.count("fabric.redispatches");
                std::thread::sleep(backoff.next_delay());
                // Give tripped breakers whose open interval has expired
                // their half-open probe, so nodes can rejoin the ring
                // mid-sweep.
                self.probe_due_breakers();
            }
            let placed = self
                .membership
                .lock()
                .expect("membership poisoned")
                .place(key, &tried);
            // None: every surviving node already failed this cell (or the
            // ring is empty).
            let Some((node, addr)) = placed else {
                break;
            };
            let _span = trace.span(&format!("dispatch@{node}"));
            match self.dispatch(cell, &node, &addr, &body) {
                Some(outcome @ CellOutcome::Completed { .. }) => {
                    answer = Some((outcome, node));
                    break;
                }
                // A cell-level failure, kept in case no other node
                // completes the cell.
                Some(outcome) => {
                    tried.push(node.clone());
                    answer = Some((outcome, node));
                }
                None => {}
            }
        }
        let (outcome, node) = answer.unwrap_or_else(|| {
            let error = SYNTHETIC_ERROR.to_owned();
            (CellOutcome::Failed { error }, String::new())
        });
        self.journal_append(&JournalRecord::Cell {
            sweep: id,
            run: render_run_object(&cell.tag, &cell.workload.name, &outcome),
        });
        (outcome, node)
    }

    /// One `POST /v1/cells` of `body` to `node`, its answer recorded
    /// against the node's breaker and counters: the outcome the worker
    /// reported for `cell`, or `None` when the attempt brought no usable
    /// answer.
    fn dispatch(&self, cell: &Cell, node: &str, addr: &str, body: &str) -> Option<CellOutcome> {
        self.count_node("fabric.cells_dispatched", node);
        self.node(node, |n| n.dispatched += 1);
        match fetch_cell(addr, body, self.cfg.cell_timeout) {
            Fetch::Status(503) => {
                // Draining worker or merely a full accept backlog — probe
                // to tell them apart. A draining node leaves the ring (its
                // in-flight cells still answer); a busy one stays and the
                // cell simply tries again.
                if !matches!(probe(addr), Ok(ref r) if r.status == 200) {
                    let mut m = self.membership.lock().expect("membership poisoned");
                    m.retire(node, NodeState::Draining);
                }
            }
            Fetch::Transport | Fetch::Status(_) | Fetch::BadBody => self.dispatch_failed(node),
            Fetch::Body(doc) => {
                // Two gates before the body is believed: the envelope
                // checksum (bytes arrived as sent) and the cell identity
                // (the worker answered for the right cell).
                let parsed =
                    open_run_object(&doc).and_then(|(run, cached)| parse_run_object(run, cached));
                match parsed {
                    Ok((tag, wl, outcome)) if tag == cell.tag && wl == cell.workload.name => {
                        self.dispatch_answered(node);
                        let completed = matches!(outcome, CellOutcome::Completed { .. });
                        self.node(node, |n| {
                            if completed {
                                n.completed += 1;
                            } else {
                                n.failed += 1;
                            }
                        });
                        let counter = if completed {
                            "fabric.cells_completed"
                        } else {
                            "fabric.cells_failed"
                        };
                        self.count_node(counter, node);
                        return Some(outcome);
                    }
                    // Wrong cell, bad checksum, or unparseable: protocol
                    // violation — a dispatch failure for the breaker.
                    _ => {
                        self.count("fabric.envelope_rejected");
                        self.dispatch_failed(node);
                    }
                }
            }
        }
        None
    }
}
