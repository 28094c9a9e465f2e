//! The `dice-fabric` binary: one executable, two roles.
//!
//! ```text
//! dice-fabric worker      [--port P] [--conn-workers N] [--cache DIR]
//!                         [--cell-timeout SECS] [--retries N]
//!                         [--inject KIND] [--verbose]
//! dice-fabric coordinator [--port P] --worker ADDR [--worker ADDR ...]
//!                         [--conn-workers N] [--vnodes N] [--capacity N]
//!                         [--scatter-width N] [--retries N]
//!                         [--backoff-ms MS] [--cell-timeout SECS]
//!                         [--journal PATH] [--hedge-ms MS]
//!                         [--breaker-threshold N] [--breaker-open-ms MS]
//!                         [--probe-budget N] [--probe-connect-ms MS]
//!                         [--probe-read-ms MS]
//! ```
//!
//! Both roles bind 127.0.0.1 (`--port 0` = ephemeral) and report the
//! bound address on stdout (`dice-fabric-ROLE listening on
//! 127.0.0.1:PORT`) so scripts can scrape it. SIGTERM/SIGINT starts a
//! graceful drain; a clean exit prints `dice-fabric-ROLE drained
//! cleanly`. A worker's `--inject KIND` arms a PR-4 fault injector
//! (`cell-panic`, `cell-timeout`, …) on every cell it runs — the fault
//! drill the fabric-recovery tests are built on.

use std::io::Write;
use std::time::Duration;

use dice_core::FaultKind;
use dice_fabric::{Coordinator, CoordinatorConfig, Worker, WorkerConfig};
use dice_serve::signal;

fn usage() -> ! {
    eprintln!(
        "usage: dice-fabric worker      [--port P] [--conn-workers N] [--cache DIR]\n\
         \x20                           [--cell-timeout SECS] [--retries N]\n\
         \x20                           [--inject KIND] [--verbose]\n\
         \x20      dice-fabric coordinator [--port P] --worker ADDR [--worker ADDR ...]\n\
         \x20                           [--conn-workers N] [--vnodes N] [--capacity N]\n\
         \x20                           [--scatter-width N] [--retries N]\n\
         \x20                           [--backoff-ms MS] [--cell-timeout SECS]\n\
         \x20                           [--journal PATH] [--hedge-ms MS]\n\
         \x20                           [--breaker-threshold N] [--breaker-open-ms MS]\n\
         \x20                           [--probe-budget N] [--probe-connect-ms MS]\n\
         \x20                           [--probe-read-ms MS]"
    );
    std::process::exit(2);
}

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

fn run_worker(args: &mut std::env::Args) -> i32 {
    let mut config = WorkerConfig::default();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("dice-fabric: {arg} needs {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--port" => config.net.port = value("a port").parse().unwrap_or_else(|_| usage()),
            "--conn-workers" => {
                config.net.conn_workers = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--cache" => config.runner.cache_dir = Some(value("a directory").into()),
            "--cell-timeout" => {
                let secs: u64 = value("seconds").parse().unwrap_or_else(|_| usage());
                config.runner.cell_timeout = Some(Duration::from_secs(secs));
            }
            "--retries" => {
                config.runner.retries = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--inject" => {
                let kind = value("a fault kind");
                config.inject = Some(FaultKind::parse(&kind).unwrap_or_else(|| {
                    eprintln!("dice-fabric: unknown fault kind {kind:?}");
                    std::process::exit(2);
                }));
            }
            "--verbose" => config.runner.verbose = true,
            _ => usage(),
        }
    }
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

fn run_coordinator(args: &mut std::env::Args) -> i32 {
    let mut config = CoordinatorConfig::default();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("dice-fabric: {arg} needs {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--port" => config.net.port = value("a port").parse().unwrap_or_else(|_| usage()),
            "--conn-workers" => {
                config.net.conn_workers = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--worker" => config.workers.push(value("an address")),
            "--vnodes" => config.vnodes = value("a count").parse().unwrap_or_else(|_| usage()),
            "--capacity" => config.capacity = value("a count").parse().unwrap_or_else(|_| usage()),
            "--scatter-width" => {
                config.scatter_width = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--retries" => {
                config.retry_rounds = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--backoff-ms" => {
                let ms: u64 = value("milliseconds").parse().unwrap_or_else(|_| usage());
                config.backoff = Duration::from_millis(ms);
            }
            "--cell-timeout" => {
                let secs: u64 = value("seconds").parse().unwrap_or_else(|_| usage());
                config.cell_timeout = Duration::from_secs(secs);
            }
            "--journal" => config.journal = Some(value("a path").into()),
            "--hedge-ms" => {
                let ms: u64 = value("milliseconds").parse().unwrap_or_else(|_| usage());
                config.hedge_after = Some(Duration::from_millis(ms));
            }
            "--breaker-threshold" => {
                config.breaker.failure_threshold =
                    value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--breaker-open-ms" => {
                let ms: u64 = value("milliseconds").parse().unwrap_or_else(|_| usage());
                config.breaker.open_base = Duration::from_millis(ms);
            }
            "--probe-budget" => {
                config.breaker.probe_budget = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--probe-connect-ms" => {
                let ms: u64 = value("milliseconds").parse().unwrap_or_else(|_| usage());
                config.probe_connect = Duration::from_millis(ms);
            }
            "--probe-read-ms" => {
                let ms: u64 = value("milliseconds").parse().unwrap_or_else(|_| usage());
                config.probe_read = Duration::from_millis(ms);
            }
            _ => usage(),
        }
    }
    if config.workers.is_empty() {
        eprintln!("dice-fabric-coordinator: at least one --worker ADDR is required");
        return 2;
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
    let mut args = std::env::args();
    let _ = args.next();
    let code = match args.next().as_deref() {
        Some("worker") => run_worker(&mut args),
        Some("coordinator") => run_coordinator(&mut args),
        _ => usage(),
    };
    std::process::exit(code);
}
