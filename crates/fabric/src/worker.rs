//! The fabric worker: a thin dice-serve-style node that executes single
//! cells via the runner engine and its local
//! [`DiskCache`](dice_runner::DiskCache).
//!
//! Workers are deliberately dumb: no job table, no queue — one
//! `POST /v1/cells` request carries one single-cell [`SweepSpec`], the
//! cell runs synchronously on the connection worker that picked it up
//! (the accept pool's `conn_workers` knob *is* the node's cell
//! parallelism), and the response is the cell's run object
//! ([`crate::wire`]). All cross-cell orchestration — placement, retries,
//! progress, report assembly — lives in the coordinator.
//!
//! Draining reuses the accept pool's [`Drain`]: the first SIGTERM wakes
//! and stops the accept loop, in-flight cells finish and respond (their
//! results are already persisted in the local cache), parked connections
//! get their answers, and [`Worker::run`] returns.

use std::io;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use dice_core::{FaultKind, FaultPlan};
use dice_obs::MetricRegistry;
use dice_runner::{Runner, RunnerConfig};
use dice_serve::http::{Request, Response};
use dice_serve::net::{Drain, Handled, NetConfig, NetServer};
use dice_serve::SweepSpec;

use crate::wire::{render_run_object, seal_run_object};

/// Worker construction knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Accept pool (port, cell parallelism, backlog).
    pub net: NetConfig,
    /// Runner configuration for cell execution (cache dir, per-cell
    /// watchdog budget). `jobs` is irrelevant — each request runs
    /// exactly one cell, once.
    pub runner: RunnerConfig,
    /// Fault drill: arm this injector on every received cell. The
    /// injection feeds the cell's cache key, so drilled results never
    /// collide with clean ones.
    pub inject: Option<FaultKind>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            net: NetConfig::default(),
            runner: RunnerConfig {
                jobs: 1,
                ..RunnerConfig::default()
            },
            inject: None,
        }
    }
}

/// A handle for draining a running worker from another thread.
#[derive(Clone)]
pub struct WorkerHandle {
    drain: Drain,
}

impl WorkerHandle {
    /// Begins a graceful drain; [`Worker::run`] returns once in-flight
    /// cells have answered.
    pub fn drain(&self) {
        self.drain.start();
    }
}

struct WorkerShared {
    runner_cfg: RunnerConfig,
    inject: Option<FaultKind>,
    metrics: Arc<Mutex<MetricRegistry>>,
    draining: Drain,
}

/// The worker node.
pub struct Worker {
    net: NetServer,
    shared: Arc<WorkerShared>,
}

impl Worker {
    /// Binds the worker on `127.0.0.1:port`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: WorkerConfig) -> io::Result<Worker> {
        let net = NetServer::bind(&config.net)?;
        let shared = Arc::new(WorkerShared {
            runner_cfg: config.runner,
            inject: config.inject,
            metrics: net.metrics(),
            draining: net.drain(),
        });
        Ok(Worker { net, shared })
    }

    /// The bound address (useful with `port: 0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.net.local_addr()
    }

    /// A drain handle, safe to move to signal watchers or tests.
    #[must_use]
    pub fn handle(&self) -> WorkerHandle {
        WorkerHandle {
            drain: self.net.drain(),
        }
    }

    /// Serves cells until [`WorkerHandle::drain`], then finishes in-flight
    /// cells and returns.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn run(&self) -> io::Result<()> {
        let shared = Arc::clone(&self.shared);
        let handler = Arc::new(move |request: &Request, _stream: &TcpStream| {
            Handled::Respond(match (request.method.as_str(), request.route()) {
                ("POST", "/v1/cells") => run_cell(request, &shared),
                (_, "/v1/cells") => Response::error(405, "method not allowed"),
                _ => Response::error(404, "no such endpoint"),
            })
        });
        self.net.run("dice-fabric-worker", handler)
    }
}

/// `POST /v1/cells`: parse a single-cell spec, execute it, answer with
/// the run object.
fn run_cell(request: &Request, shared: &Arc<WorkerShared>) -> Response {
    if shared.draining.started() {
        return Response::error(503, "draining").with_header("Retry-After", "1");
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let spec = match SweepSpec::parse(text) {
        Ok(spec) => spec,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let mut cells = spec.to_cells();
    let Some(mut cell) = (cells.len() == 1).then(|| cells.remove(0)) else {
        return Response::error(400, "one cell per request");
    };
    if let Some(kind) = shared.inject {
        cell.cfg = cell.cfg.clone().with_inject(FaultPlan::seeded(kind));
    }

    // A fresh single-cell runner per request: construction is one cache
    // directory open, and it keeps the worker free of cross-request
    // state beyond the DiskCache itself.
    let runner = match Runner::new(shared.runner_cfg.clone()) {
        Ok(runner) => runner,
        Err(e) => return Response::error(500, &format!("runner setup: {e}")),
    };
    let memo = cell.memo_key();
    let mut result = runner.run(vec![cell]);
    result.register(&mut shared.metrics.lock().expect("metrics poisoned"));
    let cached = result.cached() == 1;
    let Some(outcome) = result.outcomes.remove(&memo) else {
        return Response::error(500, "cell produced no outcome");
    };

    // Sealed in a checksummed envelope so a network that garbles bytes
    // into still-parseable JSON cannot poison the coordinator's report.
    Response::json(
        200,
        seal_run_object(render_run_object(&memo.0, &memo.1, &outcome), cached).render(),
    )
}
