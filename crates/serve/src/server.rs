//! The HTTP front end: the shared [`NetServer`] accept pool routing onto
//! a [`JobQueue`] — the one sweep API, whichever executor runs the
//! sweeps behind it.
//!
//! Threading model (see [`crate::net`]): the accept loop blocks in
//! `accept()` and hands accepted sockets to a fixed pool of connection
//! workers over a bounded channel (a full channel answers `503` inline —
//! connections never pile up unbounded); a drain wakes it with one
//! loopback connection. Sweep execution happens on the job queue's own
//! workers, so connection handling stays fast even while simulations
//! run, and an event stream sleeps on the queue until its job changes.

use std::io;
use std::net::TcpStream;
use std::sync::Arc;

use dice_obs::Json;

use crate::http::{Request, Response};
use crate::jobs::{JobQueue, JobQueueConfig, JobState, Submission};
use crate::net::{Drain, Handled, NetConfig, NetServer};
use crate::spec::SweepSpec;
use crate::sse::stream_sse;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (`0` = ephemeral; read the bound port
    /// from [`Server::local_addr`]).
    pub port: u16,
    /// Connection-handler threads.
    pub conn_workers: usize,
    /// Accepted connections parked for a handler before `503`s.
    pub conn_backlog: usize,
    /// Job queue configuration (admission bound, sweep workers, runner).
    pub queue: JobQueueConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            port: 7341,
            conn_workers: 4,
            conn_backlog: 64,
            queue: JobQueueConfig::default(),
        }
    }
}

/// Endpoints a service adds beside the sweep API. Consulted first;
/// `None` passes the request on to the sweep routes.
pub type ExtraRoutes = Arc<dyn Fn(&Request) -> Option<Response> + Send + Sync>;

/// A handle for steering a running server from another thread.
#[derive(Clone)]
pub struct Handle {
    drain: Drain,
    queue: Arc<JobQueue>,
}

impl Handle {
    /// Begins a graceful drain: stop accepting connections, cancel jobs
    /// no worker started, let running sweeps finish. [`Server::run`]
    /// returns once the drain completes.
    pub fn drain(&self) {
        self.drain.start();
        self.queue.drain();
    }

    /// Escalates a drain: cooperatively cancel in-flight sweeps (cells
    /// already claimed still finish; the rest are skipped).
    pub fn force_cancel(&self) {
        self.queue.force_cancel();
    }
}

/// The service: accept pool + job queue.
pub struct Server {
    net: NetServer,
    name: &'static str,
    queue: Arc<JobQueue>,
    routes: Option<ExtraRoutes>,
}

impl Server {
    /// Binds `127.0.0.1:port` and spawns the sweep workers of a queue
    /// running sweeps in-process.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let net = NetServer::bind(&NetConfig {
            port: config.port,
            conn_workers: config.conn_workers,
            conn_backlog: config.conn_backlog,
        })?;
        let queue = JobQueue::new(config.queue, net.metrics());
        Ok(Server::new(net, "dice-serve", queue, None))
    }

    /// Serves `queue` on `net`, reporting `name` from `/version` and
    /// answering `routes` ahead of the sweep API. The queue and its
    /// executor should record metrics into [`NetServer::metrics`], which
    /// `/metrics` renders.
    #[must_use]
    pub fn new(
        net: NetServer,
        name: &'static str,
        queue: Arc<JobQueue>,
        routes: Option<ExtraRoutes>,
    ) -> Server {
        Server {
            net,
            name,
            queue,
            routes,
        }
    }

    /// The bound address (useful with `port: 0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.net.local_addr()
    }

    /// A steering handle, safe to move to signal watchers or tests.
    #[must_use]
    pub fn handle(&self) -> Handle {
        Handle {
            drain: self.net.drain(),
            queue: Arc::clone(&self.queue),
        }
    }

    /// Serves until [`Handle::drain`] is called, then drains: stops
    /// accepting, finishes parked and in-flight work, joins every
    /// worker, and returns.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures (accept-time errors on
    /// individual connections are counted, not fatal).
    pub fn run(&self) -> io::Result<()> {
        let queue = Arc::clone(&self.queue);
        let routes = self.routes.clone();
        let handler = Arc::new(move |request: &Request, stream: &TcpStream| {
            match routes.as_ref().and_then(|routes| routes(request)) {
                Some(response) => Handled::Respond(response),
                None => handle(request, stream, &queue),
            }
        });
        self.net.run(self.name, handler)?;
        // Accept loop has stopped; finish in-flight sweeps.
        self.queue.drain();
        self.queue.join();
        Ok(())
    }
}

/// Routes one request: the events endpoint streams incrementally and owns
/// the socket for the job's lifetime; everything else is a single
/// fixed-length response.
fn handle(request: &Request, stream: &TcpStream, queue: &JobQueue) -> Handled {
    match events_job_id(request) {
        Some(Ok(id)) => {
            let mut out = stream;
            Handled::Streamed(stream_sse(&mut out, |cursor, wait| {
                queue
                    .poll_events(id, cursor, wait)
                    .map(|(events, state)| (events, state.is_terminal().then(|| state.as_str())))
            }))
        }
        Some(Err(response)) => Handled::Respond(response),
        None => Handled::Respond(route(request, queue)),
    }
}

/// Recognizes `GET /v1/sweeps/:id/events`. `None` when the request is for
/// another endpoint; `Some(Err(response))` for a malformed events request.
fn events_job_id(request: &Request) -> Option<Result<u64, Response>> {
    let id_text = request
        .route()
        .strip_prefix("/v1/sweeps/")?
        .strip_suffix("/events")?;
    if request.method != "GET" {
        return Some(Err(Response::error(405, "method not allowed")));
    }
    Some(match u64::from_str_radix(id_text, 16) {
        Ok(id) => Ok(id),
        Err(_) => Err(Response::error(400, "job id must be hex")),
    })
}

/// Dispatches one request to its endpoint.
fn route(request: &Request, queue: &JobQueue) -> Response {
    match (request.method.as_str(), request.route()) {
        ("GET", "/v1/experiments") => Response::json(200, dice_bench::catalog_json().render()),
        ("POST", "/v1/sweeps") => submit_sweep(request, queue),
        ("GET", p) if p.starts_with("/v1/sweeps/") => sweep_get(p, queue),
        (_, "/v1/experiments" | "/v1/sweeps") => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// `POST /v1/sweeps`: parse, validate, admit.
fn submit_sweep(request: &Request, queue: &JobQueue) -> Response {
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    match SweepSpec::parse(text) {
        Ok(spec) => submitted(queue.submit(spec)),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// The answer to one submission.
pub(crate) fn submitted(submission: Submission) -> Response {
    match submission {
        Submission::Accepted {
            id,
            coalesced,
            state,
        } => Response::json(
            202,
            Json::Obj(vec![
                ("id".into(), Json::str(format!("{id:016x}"))),
                ("state".into(), Json::str(state.as_str())),
                ("coalesced".into(), Json::Bool(coalesced)),
            ])
            .render(),
        ),
        Submission::Overloaded { retry_after_s } => Response::error(429, "sweep queue full")
            .with_header("Retry-After", retry_after_s.to_string()),
        Submission::Refused(reason) => Response::error(503, &reason),
        Submission::Draining => Response::error(503, "draining"),
    }
}

/// `GET /v1/sweeps/:id`, `GET /v1/sweeps/:id/report` and
/// `GET /v1/sweeps/:id/trace` (`/v1/sweeps/:id/events` streams and is
/// routed before dispatch reaches here).
fn sweep_get(path: &str, queue: &JobQueue) -> Response {
    let rest = path.trim_start_matches("/v1/sweeps/");
    let (id_text, want) = if let Some(id) = rest.strip_suffix("/report") {
        (id, Some("report"))
    } else if let Some(id) = rest.strip_suffix("/trace") {
        (id, Some("trace"))
    } else {
        (rest, None)
    };
    let Ok(id) = u64::from_str_radix(id_text, 16) else {
        return Response::error(400, "job id must be hex");
    };
    match want {
        Some(doc) => {
            let fetched = if doc == "report" {
                queue.report(id)
            } else {
                queue.trace(id)
            };
            match fetched {
                None => Response::error(404, "no such job"),
                Some(Ok(body)) => Response::json(200, body.as_str()),
                Some(Err(JobState::Failed)) => Response::error(500, "sweep failed"),
                Some(Err(JobState::Cancelled)) => Response::error(409, "sweep cancelled"),
                Some(Err(_)) => Response::error(409, "sweep not finished"),
            }
        }
        None => match queue.status(id) {
            Some(status) => Response::json(200, status.render()),
            None => Response::error(404, "no such job"),
        },
    }
}
