//! A reusable HTTP/1.1 accept-pool server shell.
//!
//! `dice-serve` and the `dice-fabric` nodes share one threading model: an
//! accept loop blocked in `accept()` hands sockets to a fixed pool of
//! connection workers over a bounded channel, a full channel answers
//! `503` inline (connections never pile up unbounded), and a [`Drain`]
//! stops the accept loop — it sets a flag and wakes the blocked `accept`
//! with one loopback connection — while parked connections finish.
//! [`NetServer`] owns that machinery, the node's [`MetricRegistry`] and
//! the plumbing endpoints every node answers the same way (`/healthz`,
//! `/version`, `/metrics`, plus the `serve.http_*` request accounting);
//! services supply a [`NetHandler`] for everything else.

use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dice_obs::{render_prometheus, Json, MetricRegistry};

use crate::http::{read_request, ReadError, Request, Response};

/// Accept-pool construction knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Port to bind on 127.0.0.1 (`0` = ephemeral).
    pub port: u16,
    /// Connection-handler threads.
    pub conn_workers: usize,
    /// Accepted connections parked for a handler before `503`s.
    pub conn_backlog: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            port: 0,
            conn_workers: 4,
            conn_backlog: 64,
        }
    }
}

/// What a handler did with a request.
pub enum Handled {
    /// A fixed-length response for the shell to serialize.
    Respond(Response),
    /// The handler already wrote the whole response to the stream (e.g. a
    /// chunked SSE pump); the status is recorded for metrics only.
    Streamed(u16),
}

/// Routes one parsed request. The stream is available for handlers that
/// stream their own response ([`Handled::Streamed`]).
pub type NetHandler = Arc<dyn Fn(&Request, &TcpStream) -> Handled + Send + Sync>;

/// How long [`Drain::start`] waits for its wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A drain trigger for an accept loop blocked in `accept()` on a loopback
/// listener. Cheap to clone; every clone starts the same drain.
#[derive(Clone)]
pub struct Drain {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl Drain {
    /// A trigger for the loop accepting on `addr`, the listener's bound
    /// address. The loop must check [`Drain::started`] after every
    /// `accept` and drop the connection that woke it.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Drain {
        Drain {
            flag: Arc::new(AtomicBool::new(false)),
            addr,
        }
    }

    /// Begins the drain: sets the flag, then opens one connection to the
    /// listener so a blocked `accept` returns and sees it. Best effort —
    /// once the loop has stopped, nothing answers the connection.
    pub fn start(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
    }

    /// Whether [`Drain::start`] has been called.
    #[must_use]
    pub fn started(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// The accept-pool shell: listener + drain trigger + metrics + worker
/// pool.
pub struct NetServer {
    listener: TcpListener,
    drain: Drain,
    metrics: Arc<Mutex<MetricRegistry>>,
    conn_workers: usize,
    conn_backlog: usize,
}

impl NetServer {
    /// Binds `127.0.0.1:port` with an empty metrics registry.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: &NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        Ok(NetServer {
            drain: Drain::new(listener.local_addr()?),
            listener,
            metrics: Arc::new(Mutex::new(MetricRegistry::new())),
            conn_workers: config.conn_workers.max(1),
            conn_backlog: config.conn_backlog.max(1),
        })
    }

    /// The bound address (useful with `port: 0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The drain trigger: [`Drain::start`] stops the accept loop;
    /// [`NetServer::run`] then finishes parked connections and returns.
    #[must_use]
    pub fn drain(&self) -> Drain {
        self.drain.clone()
    }

    /// The node's metrics registry: `/metrics` renders it and every
    /// request is counted in it; services register their own metrics in
    /// the same one.
    #[must_use]
    pub fn metrics(&self) -> Arc<Mutex<MetricRegistry>> {
        Arc::clone(&self.metrics)
    }

    /// Serves until the drain starts, then drains: stops accepting,
    /// finishes parked connections, joins the pool, and returns.
    ///
    /// The shell answers the plumbing endpoints itself — `GET /healthz`
    /// (`503` + `Retry-After` once draining, so probes can tell a
    /// draining node from a live one), `GET /version` (reporting `name`)
    /// and `GET /metrics` — and hands every other request to `handler`.
    /// Each request lands in `serve.http_requests`, `serve.http_{2,4,5}xx`
    /// and the `serve.request_micros` histogram.
    ///
    /// # Errors
    ///
    /// Currently none: accept-time errors on individual connections are
    /// counted, not fatal.
    pub fn run(&self, name: &'static str, handler: NetHandler) -> io::Result<()> {
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(self.conn_backlog);
        let rx = Arc::new(Mutex::new(rx));
        let plumbing = Arc::new(Plumbing {
            name,
            drain: self.drain.clone(),
            metrics: Arc::clone(&self.metrics),
        });
        let workers: Vec<_> = (0..self.conn_workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                let plumbing = Arc::clone(&plumbing);
                std::thread::spawn(move || connection_worker(&rx, &handler, &plumbing))
            })
            .collect();

        while !self.drain.started() {
            match self.listener.accept() {
                // The drain's wake-up connection (or a client racing it):
                // dropped unanswered.
                Ok(_) if self.drain.started() => break,
                Ok((stream, _peer)) => match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        // Inline, bounded rejection: never park more than
                        // `conn_backlog` connections.
                        reject_busy(stream);
                        count(&self.metrics, "serve.conns_rejected");
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                },
                Err(_) => count(&self.metrics, "serve.accept_errors"),
            }
        }

        // Drain: close the channel so workers finish parked connections
        // and exit.
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

/// Best-effort `503` for connections beyond the backlog bound.
pub fn reject_busy(stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let _ = Response::error(503, "server busy")
        .with_header("Retry-After", "1")
        .write(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Bumps counter `name` by one.
pub(crate) fn count(metrics: &Mutex<MetricRegistry>, name: &str) {
    let mut reg = metrics.lock().expect("metrics poisoned");
    let id = reg.counter(name);
    reg.inc(id);
}

/// The endpoints and request accounting every node shares.
struct Plumbing {
    /// What `/version` reports as the node's name.
    name: &'static str,
    drain: Drain,
    metrics: Arc<Mutex<MetricRegistry>>,
}

impl Plumbing {
    /// Answers `/healthz`, `/version` and `/metrics`; `None` for any
    /// other path.
    fn route(&self, request: &Request) -> Option<Response> {
        Some(match (request.method.as_str(), request.route()) {
            ("GET", "/healthz") if self.drain.started() => {
                Response::error(503, "draining").with_header("Retry-After", "1")
            }
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET", "/version") => Response::json(
                200,
                Json::Obj(vec![
                    ("name".into(), Json::str(self.name)),
                    ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
                ])
                .render(),
            ),
            ("GET", "/metrics") => {
                let body = render_prometheus(&self.metrics.lock().expect("metrics poisoned"));
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    extra: Vec::new(),
                    body: body.into_bytes(),
                }
            }
            (_, "/healthz" | "/version" | "/metrics") => Response::error(405, "method not allowed"),
            _ => return None,
        })
    }

    /// Counts one finished request.
    fn record(&self, status: u16, elapsed: Duration) {
        let mut reg = self.metrics.lock().expect("metrics poisoned");
        let id = reg.counter("serve.http_requests");
        reg.inc(id);
        let id = reg.counter(match status {
            200..=299 => "serve.http_2xx",
            400..=499 => "serve.http_4xx",
            _ => "serve.http_5xx",
        });
        reg.inc(id);
        let hist = reg.histogram("serve.request_micros");
        reg.observe(hist, elapsed.as_micros() as u64);
    }
}

fn connection_worker(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    handler: &NetHandler,
    plumbing: &Plumbing,
) {
    loop {
        // Hold the lock only for the recv; handlers must not serialize on
        // each other while talking to clients.
        let stream = {
            let rx = rx.lock().expect("conn channel poisoned");
            rx.recv()
        };
        let Ok(stream) = stream else {
            return;
        };
        handle_connection(stream, handler, plumbing);
    }
}

fn handle_connection(stream: TcpStream, handler: &NetHandler, plumbing: &Plumbing) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let record = |status: u16| plumbing.record(status, started.elapsed());
    let response = match read_request(&mut reader) {
        Ok(request) => match plumbing.route(&request) {
            Some(response) => response,
            None => match handler(&request, &stream) {
                Handled::Respond(response) => response,
                Handled::Streamed(status) => {
                    record(status);
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            },
        },
        Err(ReadError::Closed) => return,
        Err(ReadError::Bad { status, msg }) => Response::error(status, msg),
        Err(ReadError::Io(_)) => return,
    };
    record(response.status);
    let mut stream = stream;
    let _ = response.write(&mut stream);
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_wakes_an_idle_accept_loop() {
        let server = NetServer::bind(&NetConfig::default()).expect("bind ephemeral port");
        let drain = server.drain();
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let handler: NetHandler =
                Arc::new(|_: &Request, _: &TcpStream| Handled::Respond(Response::text(200, "")));
            let _ = done.send(server.run("test", handler));
        });
        // No client ever connects: only the drain can end `accept`.
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            finished.try_recv().is_err(),
            "run returned before the drain"
        );
        drain.start();
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("the drain woke the accept loop")
            .expect("run");
    }
}
