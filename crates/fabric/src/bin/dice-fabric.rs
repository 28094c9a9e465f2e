//! The `dice-fabric` binary: one executable, two roles.
//!
//! ```text
//! dice-fabric worker      [--port P] [--conn-workers N] [--cache DIR]
//!                         [--cell-timeout SECS] [--inject KIND]
//!                         [--verbose]
//! dice-fabric coordinator [--port P] --worker ADDR [--worker ADDR ...]
//!                         [--conn-workers N] [--capacity N]
//!                         [--scatter-width N] [--retries N]
//!                         [--backoff-ms MS] [--cell-timeout SECS]
//!                         [--journal PATH]
//! ```
//!
//! Both roles bind 127.0.0.1 (`--port 0` = ephemeral) and report the
//! bound address on stdout (`dice-fabric-ROLE listening on
//! 127.0.0.1:PORT`) so scripts can scrape it. SIGTERM/SIGINT starts a
//! graceful drain; a clean exit prints `dice-fabric-ROLE drained
//! cleanly`. A worker's `--inject KIND` arms a PR-4 fault injector
//! (`cell-panic`, `cell-timeout`, …) on every cell it runs — the fault
//! drill the fabric-recovery tests are built on.
//!
//! `--cell-timeout` takes seconds, fractions allowed: on a worker it is
//! each cell's watchdog budget, on the coordinator each dispatch's socket
//! budget. The coordinator's `--retries` bounds its re-dispatches per
//! cell; a worker never retries a cell. Ring size, breaker and probe timings are
//! constants (see `dice_fabric::coordinator`). A malformed flag, a zero
//! count or a zero duration exits 2 with one stderr line naming it,
//! before anything binds.

use std::io::Write;

use dice_core::FaultKind;
use dice_fabric::{Coordinator, CoordinatorConfig, Worker, WorkerConfig};
use dice_obs::cli::{Flags, Unit};
use dice_serve::signal;

/// The first signal drains; later ones just report (the drain already
/// stops everything this process owns).
fn watch_signals(role: &'static str, drain: impl Fn() + Send + 'static) {
    signal::watch(move |count| {
        if count == 1 {
            eprintln!("dice-fabric-{role}: draining (finishing in-flight cells)");
            drain();
        } else {
            eprintln!("dice-fabric-{role}: still draining");
        }
    });
}

fn announce(role: &str, addr: std::net::SocketAddr) {
    // Explicit flush: stdout is block-buffered under pipes, and scripts
    // scrape this line to learn an ephemeral port.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "dice-fabric-{role} listening on {addr}");
    let _ = out.flush();
}

fn run_worker(mut flags: Flags) -> i32 {
    let mut config = WorkerConfig::default();
    config.net.port = flags.number("--port", config.net.port);
    config.net.conn_workers = flags.count("--conn-workers", config.net.conn_workers);
    config.runner.cache_dir = flags.value("--cache").map(Into::into);
    config.runner.cell_timeout = flags.duration("--cell-timeout", Unit::Seconds);
    config.inject = flags.value("--inject").map(|kind| {
        FaultKind::parse(&kind)
            .unwrap_or_else(|| flags.refuse(format!("--inject {kind:?} is not a fault kind")))
    });
    config.runner.verbose = flags.switch("--verbose");
    flags.finish();
    let worker = match Worker::bind(config) {
        Ok(worker) => worker,
        Err(e) => {
            eprintln!("dice-fabric-worker: bind failed: {e}");
            return 1;
        }
    };
    announce("worker", worker.local_addr().expect("bound socket"));
    let handle = worker.handle();
    watch_signals("worker", move || handle.drain());
    if let Err(e) = worker.run() {
        eprintln!("dice-fabric-worker: {e}");
        return 1;
    }
    let _ = writeln!(std::io::stdout(), "dice-fabric-worker drained cleanly");
    0
}

fn run_coordinator(mut flags: Flags) -> i32 {
    let mut config = CoordinatorConfig::default();
    config.net.port = flags.number("--port", config.net.port);
    config.net.conn_workers = flags.count("--conn-workers", config.net.conn_workers);
    config.workers = flags.values("--worker");
    config.capacity = flags.count("--capacity", config.capacity);
    config.scatter_width = flags.count("--scatter-width", config.scatter_width);
    config.retry_rounds = flags.number("--retries", config.retry_rounds);
    let backoff = flags.duration("--backoff-ms", Unit::Millis);
    config.backoff = backoff.unwrap_or(config.backoff);
    let cell_timeout = flags.duration("--cell-timeout", Unit::Seconds);
    config.cell_timeout = cell_timeout.unwrap_or(config.cell_timeout);
    config.journal = flags.value("--journal").map(Into::into);
    flags.finish();
    if config.workers.is_empty() {
        flags.refuse("at least one --worker ADDR is required");
    }
    let coordinator = match Coordinator::bind(config) {
        Ok(coordinator) => coordinator,
        Err(e) => {
            eprintln!("dice-fabric-coordinator: bind failed: {e}");
            return 1;
        }
    };
    announce(
        "coordinator",
        coordinator.local_addr().expect("bound socket"),
    );
    let handle = coordinator.handle();
    watch_signals("coordinator", move || handle.drain());
    if let Err(e) = coordinator.run() {
        eprintln!("dice-fabric-coordinator: {e}");
        return 1;
    }
    let _ = writeln!(std::io::stdout(), "dice-fabric-coordinator drained cleanly");
    0
}

fn main() {
    signal::install();
    let mut flags = Flags::from_env("dice-fabric");
    let code = match flags.positional().as_deref() {
        Some("worker") => run_worker(flags),
        Some("coordinator") => run_coordinator(flags),
        Some(role) => flags.refuse(format!(
            "unknown role {role:?}; one of: worker, coordinator"
        )),
        None => flags.refuse("a role is required: worker or coordinator"),
    };
    std::process::exit(code);
}
