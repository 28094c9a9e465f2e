//! The `dice-serve` daemon: binds the sweep service on 127.0.0.1 and
//! runs until SIGTERM/SIGINT.
//!
//! ```text
//! dice-serve [--port P] [--conn-workers N] [--queue N] [--sweep-workers N]
//!            [--jobs N] [--cache DIR] [--verbose]
//! ```
//!
//! `--port 0` binds an ephemeral port; the bound address is always
//! reported on stdout (`dice-serve listening on 127.0.0.1:PORT`) so
//! scripts can scrape it. The first termination signal starts a graceful
//! drain (stop accepting, finish in-flight sweeps, persist their cells);
//! a second signal cooperatively cancels the remaining cells. Exits 0 on
//! a clean drain.

use std::io::Write;

use dice_serve::signal;
use dice_serve::{ServeConfig, Server};

struct Args {
    config: ServeConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: dice-serve [--port P] [--conn-workers N] [--queue N] \
         [--sweep-workers N] [--jobs N] [--cache DIR] [--verbose]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut config = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("dice-serve: {arg} needs {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--port" => {
                config.port = value("a port").parse().unwrap_or_else(|_| usage());
            }
            "--conn-workers" => {
                config.conn_workers = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--queue" => {
                config.queue.capacity = value("a capacity").parse().unwrap_or_else(|_| usage());
            }
            "--sweep-workers" => {
                config.queue.workers = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--jobs" => {
                config.queue.runner.jobs = value("a count").parse().unwrap_or_else(|_| usage());
            }
            "--cache" => {
                config.queue.runner.cache_dir = Some(value("a directory").into());
            }
            "--verbose" => config.queue.runner.verbose = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    Args { config }
}

fn main() {
    let args = parse_args();
    signal::install();

    let server = match Server::bind(args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dice-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.local_addr().expect("bound socket has an address");

    // Explicit flush: stdout is block-buffered under pipes, and scripts
    // scrape this line to learn an ephemeral port.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "dice-serve listening on {addr}");
    let _ = out.flush();

    let handle = server.handle();
    signal::watch(move |count| match count {
        1 => {
            eprintln!("dice-serve: draining (finishing in-flight sweeps; signal again to cancel)");
            handle.drain();
        }
        2 => {
            eprintln!("dice-serve: cancelling in-flight sweeps");
            handle.force_cancel();
        }
        _ => {}
    });

    if let Err(e) = server.run() {
        eprintln!("dice-serve: {e}");
        std::process::exit(1);
    }
    let _ = writeln!(std::io::stdout(), "dice-serve drained cleanly");
}
