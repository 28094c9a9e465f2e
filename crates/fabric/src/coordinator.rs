//! The fabric coordinator: dice-serve's sweep service with a scatter
//! executor behind it.
//!
//! The coordinator is a [`dice_serve::Server`] — the same job queue,
//! single-flight dedup, admission bound, status/report/trace documents
//! and SSE progress as `dice-serve` — whose queue runs each sweep
//! through a scatter executor instead of a local runner. The executor
//! places each cell on a worker via the consistent-hash [`HashRing`]
//! (keyed by the order-independent [`cell_key`]) and gathers the run
//! objects back. Beside the sweep API the coordinator answers
//! `GET /v1/fabric/membership` and `POST /v1/fabric/nodes/:name/drain`.
//!
//! Each cell of a scatter round is one `POST /v1/cells` on its ring
//! owner, and each result is applied the moment it arrives: a finished
//! cell is journaled and announced while the round's slower dispatches
//! are still out. Failure handling, per gather result:
//!
//! * **transport error / protocol violation / unexpected status** — a
//!   dispatch failure against the node's circuit [`Breaker`]. At the
//!   second consecutive failure the breaker trips: the node leaves the
//!   ring (version bump) and an immediate health probe classifies the
//!   damage — **connection refused** means the process is gone (the node
//!   is declared dead), anything else keeps the breaker open for a
//!   jittered interval of 100 ms to 5 s, after which half-open probes
//!   decide whether it rejoins the ring or, after five failed probes,
//!   dies. A probe allows 1 s to connect and 2 s to read. The cell stays
//!   pending either way; the next round re-hashes it onto survivors.
//! * **HTTP 503** — the node is probed: a draining worker is removed
//!   from the ring (its in-flight cells still answer), a merely busy one
//!   stays and the cell retries after backoff.
//! * **cell-level failure** (the worker answered with an `error` /
//!   `timed_out_ms` run object) — the cell retries on the next distinct
//!   surviving node ([`HashRing::owner_excluding`]); once every live
//!   node has had a go, the last worker-reported outcome is kept, so a
//!   deterministic simulation panic renders the same error entry a
//!   direct run would.
//!
//! Rounds are bounded (`retry_rounds`) with decorrelated-jitter backoff
//! ([`JitteredBackoff`], seeded per sweep).
//!
//! When a `journal` path is configured every accepted spec, finalized
//! cell and sweep completion is appended to a write-ahead [`Journal`]
//! (fsync'd before the client sees the 202). A coordinator killed
//! mid-sweep replays the journal on restart, resumes only the missing
//! cells, and renders the same bytes — crash recovery rides on the same
//! identity that makes fabric reports `cmp`-equal to direct runs.
//!
//! The executor hands the queue a [`SweepResult`] rebuilt from the
//! gathered outcomes, and the queue renders it through the same
//! [`render_runs`](dice_serve::render_runs) path a direct `dice-runner`
//! invocation uses — byte-identical output is the invariant the
//! end-to-end tests `cmp` for. When the fabric itself had to synthesize
//! an outcome (no live worker ever completed the cell), the sweep
//! completes with a typed `degraded` reason instead of pretending the
//! bytes are canonical.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dice_obs::{labeled, Histogram, Json, MetricRegistry};
use dice_runner::{cell_key, Cell, CellOutcome, SweepResult};
use dice_serve::client::{http_post_timeout, http_probe, ClientResponse, ProbeError};
use dice_serve::http::{Request, Response};
use dice_serve::net::{NetConfig, NetServer};
use dice_serve::{
    EventLog, Executed, Handle, JobQueue, Server, SweepExecutor, SweepRun, SweepSpec,
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
    /// Parallel cell dispatches per sweep.
    pub scatter_width: usize,
    /// Re-scatter rounds after the first (bounded retries).
    pub retry_rounds: usize,
    /// Base for the decorrelated-jitter backoff between re-scatter
    /// rounds (draws live in `[backoff, backoff_cap]`).
    pub backoff: Duration,
    /// Ceiling on the jittered re-scatter backoff.
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
    /// The ring (healthy members only) plus a name → address map, cloned
    /// so scatter rounds never hold the membership lock across HTTP.
    fn snapshot(&self) -> (HashRing, HashMap<String, String>) {
        let addrs = self
            .nodes
            .iter()
            .filter(|n| n.state == NodeState::Healthy)
            .map(|n| (n.name.clone(), n.addr.clone()))
            .collect();
        (self.ring.clone(), addrs)
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
        let mut finished: HashSet<u64> = HashSet::new();
        for record in &recovery.records {
            match record {
                JournalRecord::Accepted { sweep, spec } => {
                    specs.insert(*sweep, spec);
                }
                JournalRecord::Cell { sweep, run } => {
                    cell_runs.entry(*sweep).or_default().push(run);
                }
                JournalRecord::Done { sweep, .. } => {
                    finished.insert(*sweep);
                }
            }
        }
        let mut replayed = self.replayed.lock().expect("replayed poisoned");
        for (&id, &spec) in specs.iter().filter(|(id, _)| !finished.contains(id)) {
            let spec = match SweepSpec::from_json(spec) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("dice-fabric-coordinator: journaled spec {id:016x} unusable: {e}");
                    self.count("fabric.journal.replay_errors");
                    continue;
                }
            };
            // Last write wins per cell: a crash between append and ack can
            // journal the same cell twice with identical payloads.
            let mut done_cells = Replayed::new();
            for run in cell_runs.get(&id).into_iter().flatten() {
                match parse_run_object(run) {
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
        self.count("fabric.breaker.opened");
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
    /// (run at each scatter-round start so tripped nodes can rejoin the
    /// ring mid-sweep).
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
    /// Scatter rounds until every unique cell has an outcome, then the
    /// gathered outcomes as the runner's [`SweepResult`]. Journal-replayed
    /// cells are never re-dispatched.
    fn execute(&self, run: SweepRun) -> Result<Executed, String> {
        let replayed = self
            .replayed
            .lock()
            .expect("replayed poisoned")
            .remove(&run.id);
        Ok(self.scatter(run, replayed.map(|(_, cells)| cells).unwrap_or_default()))
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

/// One scatter unit: a unique cell, where it has been tried, and how it
/// ended.
struct Item {
    cell: Cell,
    /// Ring placement key ([`cell_key`] over config + workload).
    key: u64,
    /// Nodes that answered with a cell-level failure for this cell.
    tried: Vec<String>,
    /// Last worker-reported failure and the node that reported it, kept
    /// if every retry avenue runs out.
    fallback: Option<(CellOutcome, String)>,
    outcome: Option<CellOutcome>,
}

/// What one dispatched cell request came back as.
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

/// One planned dispatch of a scatter round.
struct Dispatch {
    /// The item it settles.
    idx: usize,
    /// The ring owner it goes to, and that node's address.
    node: String,
    addr: String,
    /// The single-cell spec it posts, and its span label.
    body: String,
    label: String,
}

impl Scatter {
    /// Applies `f` to node `name`'s membership entry, if there is one.
    fn node<T>(&self, name: &str, f: impl FnOnce(&mut Node) -> T) -> Option<T> {
        let mut m = self.membership.lock().expect("membership poisoned");
        m.node_mut(name).map(f)
    }

    /// Runs one sweep: scatter rounds until every unique cell has an
    /// outcome, then the outcomes reassembled into exactly the structure
    /// a direct runner invocation produces. `replayed` carries the
    /// journal's outcomes; those cells are never re-dispatched.
    fn scatter(&self, run: SweepRun, mut replayed: Replayed) -> Executed {
        let SweepRun {
            id,
            spec,
            trace,
            events,
            ..
        } = run;
        let started = Instant::now();

        // Dedupe duplicate memo keys up front, exactly like the runner does
        // (first declaration wins; the count feeds the summary line).
        let cells = spec.to_cells();
        let declared = cells.len();
        let mut seen = HashSet::new();
        let mut items: Vec<Item> = Vec::with_capacity(declared);
        let mut resumed = 0usize;
        for cell in cells {
            if !seen.insert(cell.memo_key()) {
                continue;
            }
            let key = cell_key(&cell.cfg, &cell.workload);
            // A journal-replayed outcome settles the cell without dispatch
            // (and without re-journaling it).
            let outcome = replayed.remove(&cell.memo_key());
            resumed += usize::from(outcome.is_some());
            items.push(Item {
                cell,
                key,
                tried: Vec::new(),
                fallback: None,
                outcome,
            });
        }
        let deduped = declared - items.len();
        let total = items.len();
        let mut gather = Gather {
            scatter: self,
            id,
            events,
            total,
            seq: 0,
        };
        if resumed > 0 {
            let event = Json::Obj(vec![
                ("event".into(), Json::str("resumed")),
                ("replayed".into(), Json::u64(resumed as u64)),
                ("total".into(), Json::u64(total as u64)),
            ])
            .render();
            gather.events.push(event);
        }

        let mut backoff = JitteredBackoff::new(self.cfg.backoff, self.cfg.backoff_cap, id);
        let mut round = 0usize;
        loop {
            let pending: Vec<usize> = (0..items.len())
                .filter(|&i| items[i].outcome.is_none())
                .collect();
            if pending.is_empty() {
                break;
            }
            if round > self.cfg.retry_rounds {
                for idx in pending {
                    gather.fall_back(&mut items[idx]);
                }
                break;
            }
            if round > 0 {
                self.count("fabric.rescatter_rounds");
                // Decorrelated jitter, seeded by the sweep id: concurrent
                // sweeps retrying after the same worker failure wake at
                // different instants instead of storming the survivors.
                std::thread::sleep(backoff.next_delay());
            }
            // Give tripped breakers whose open interval has expired their
            // half-open probe, so nodes can rejoin the ring mid-sweep.
            self.probe_due_breakers();

            let (ring, addrs) = self
                .membership
                .lock()
                .expect("membership poisoned")
                .snapshot();
            let mut dispatches: Vec<Dispatch> = Vec::new();
            for idx in pending {
                let tried: Vec<&str> = items[idx].tried.iter().map(String::as_str).collect();
                let placed = ring
                    .owner_excluding(items[idx].key, &tried)
                    .and_then(|node| addrs.get(node).map(|addr| (node.to_owned(), addr.clone())));
                match placed {
                    Some((node, addr)) => {
                        let cell = &items[idx].cell;
                        dispatches.push(Dispatch {
                            body: cell_spec(&spec, &cell.tag, &cell.workload.name),
                            label: format!("cell:{}/{}@{node}", cell.tag, cell.workload.name),
                            idx,
                            node,
                            addr,
                        });
                    }
                    // Every surviving node already failed this cell (or
                    // the ring is empty).
                    None => gather.fall_back(&mut items[idx]),
                }
            }
            if dispatches.is_empty() {
                round += 1;
                continue;
            }

            let round_span = trace.span(&format!("scatter round {round}"));
            let round_ctx = round_span
                .as_ref()
                .map(dice_obs::SpanGuard::ctx)
                .unwrap_or_default();
            let timeout = self.cfg.cell_timeout;
            let next = AtomicUsize::new(0);
            let width = self.cfg.scatter_width.clamp(1, dispatches.len());
            let (tx, rx) = mpsc::channel::<(usize, Fetch)>();
            std::thread::scope(|s| {
                for _ in 0..width {
                    let tx = tx.clone();
                    let (next, dispatches, round_ctx) = (&next, &dispatches, &round_ctx);
                    s.spawn(move || loop {
                        let slot = next.fetch_add(1, Ordering::SeqCst);
                        let Some(d) = dispatches.get(slot) else {
                            break;
                        };
                        let _span = round_ctx.span(&d.label);
                        let fetch = fetch_cell(&d.addr, &d.body, timeout);
                        if tx.send((slot, fetch)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                // The spawning thread applies each result as it arrives
                // (the dispatches own their bodies, so `items` is free to
                // borrow mutably here): a finished cell is journaled and
                // announced without waiting for the round's slowest one.
                for (slot, fetch) in rx {
                    let d = &dispatches[slot];
                    self.count_node("fabric.cells_dispatched", &d.node);
                    self.node(&d.node, |n| n.dispatched += 1);
                    gather.apply(&mut items[d.idx], &d.node, &d.addr, fetch);
                }
            });
            drop(round_span);

            round += 1;
        }

        // Cells whose final outcome the fabric had to synthesize
        // (`fabric:` errors) make the sweep *degraded*: it still
        // terminates with a typed reason instead of hanging or passing off
        // non-canonical bytes as canonical.
        let mut outcomes = BTreeMap::new();
        let mut synthetic = 0usize;
        for item in &mut items {
            let outcome = item.outcome.take().unwrap_or(CellOutcome::Failed {
                error: "fabric: cell never gathered".to_owned(),
            });
            if matches!(&outcome, CellOutcome::Failed { error } if error.starts_with("fabric:")) {
                synthetic += 1;
            }
            outcomes.insert(item.cell.memo_key(), outcome);
        }
        let degraded = (synthetic > 0).then(|| {
            format!("{synthetic} of {total} cells completed on no live worker (fabric-synthesized failures)")
        });
        self.journal_append(&JournalRecord::Done {
            sweep: id,
            degraded: degraded.clone(),
        });
        Executed {
            result: SweepResult {
                outcomes,
                deduped,
                jobs: self.cfg.scatter_width,
                wall: started.elapsed(),
                cell_wall_ms: Histogram::new(),
                cache_discarded: 0,
                cancelled: 0,
                steals: 0,
                tail_idle_ms: 0,
                engine: EngineCounters::default(),
            },
            degraded,
        }
    }
}

/// One sweep's gather state: finalized cells are journaled and announced
/// on the job's event log in completion order.
struct Gather<'a> {
    scatter: &'a Scatter,
    id: u64,
    events: EventLog,
    total: usize,
    seq: usize,
}

impl Gather<'_> {
    /// Applies one gather result to its item and the membership table.
    fn apply(&mut self, item: &mut Item, node: &str, addr: &str, fetch: Fetch) {
        let scatter = self.scatter;
        match fetch {
            Fetch::Transport | Fetch::BadBody => scatter.dispatch_failed(node),
            Fetch::Status(503) => {
                // Draining worker or merely a full accept backlog — probe to
                // tell them apart. A draining node leaves the ring (its
                // in-flight cells still answer); a busy one stays and the
                // cell simply retries next round.
                let draining = !matches!(probe(addr), Ok(ref r) if r.status == 200);
                if draining {
                    let mut m = scatter.membership.lock().expect("membership poisoned");
                    m.retire(node, NodeState::Draining);
                }
            }
            Fetch::Status(_) => scatter.dispatch_failed(node),
            Fetch::Body(doc) => {
                // Two gates before the body is believed: the envelope
                // checksum (bytes arrived as sent) and the cell identity
                // (the worker answered for the right cell).
                let expected = item.cell.memo_key();
                let parsed = open_run_object(&doc).and_then(parse_run_object);
                match parsed {
                    Ok((tag, wl, outcome)) if tag == expected.0 && wl == expected.1 => {
                        scatter.dispatch_answered(node);
                        if let CellOutcome::Completed { .. } = outcome {
                            scatter.node(node, |n| n.completed += 1);
                            scatter.count_node("fabric.cells_completed", node);
                            self.finalize(item, outcome, node);
                        } else {
                            // Cell-level failure: remember it, try the next
                            // distinct surviving node next round.
                            scatter.node(node, |n| n.failed += 1);
                            scatter.count_node("fabric.cells_failed", node);
                            item.tried.push(node.to_owned());
                            item.fallback = Some((outcome, node.to_owned()));
                        }
                    }
                    // Wrong cell, bad checksum, or unparseable: protocol
                    // violation — a dispatch failure for the breaker.
                    _ => {
                        scatter.count("fabric.envelope_rejected");
                        scatter.dispatch_failed(node);
                    }
                }
            }
        }
    }

    /// Settles an item no live worker will still complete: its last
    /// worker-reported outcome (what a direct run would render), or a
    /// synthesized failure if no worker ever completed it.
    fn fall_back(&mut self, item: &mut Item) {
        let (outcome, node) = item.fallback.take().unwrap_or_else(|| {
            let error = SYNTHETIC_ERROR.to_owned();
            (CellOutcome::Failed { error }, String::new())
        });
        self.finalize(item, outcome, &node);
    }

    /// Records a final outcome for an item, journals it, and emits its
    /// progress event.
    fn finalize(&mut self, item: &mut Item, outcome: CellOutcome, node: &str) {
        // Journal before the in-memory finalize: a crash between the two
        // replays the cell (idempotent), the reverse order would lose it.
        self.scatter.journal_append(&JournalRecord::Cell {
            sweep: self.id,
            run: render_run_object(&item.cell.tag, &item.cell.workload.name, &outcome),
        });
        self.seq += 1;
        let status = match &outcome {
            CellOutcome::Completed { .. } => "completed",
            CellOutcome::Failed { .. } => "failed",
            CellOutcome::TimedOut { .. } => "timed_out",
        };
        let event = Json::Obj(vec![
            ("event".into(), Json::str("cell")),
            ("seq".into(), Json::u64(self.seq as u64)),
            ("total".into(), Json::u64(self.total as u64)),
            ("tag".into(), Json::str(&item.cell.tag)),
            ("workload".into(), Json::str(&item.cell.workload.name)),
            ("status".into(), Json::str(status)),
            ("node".into(), Json::str(node)),
        ])
        .render();
        self.events.push(event);
        item.outcome = Some(outcome);
    }
}
