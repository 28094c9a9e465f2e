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
//! a clean drain. A malformed flag or a zero count exits 2 with one
//! stderr line naming it, before anything binds.

use std::io::Write;

use dice_obs::cli::Flags;
use dice_serve::signal;
use dice_serve::{ServeConfig, Server};

fn main() {
    let mut flags = Flags::from_env("dice-serve");
    let mut config = ServeConfig::default();
    config.port = flags.number("--port", config.port);
    config.conn_workers = flags.count("--conn-workers", config.conn_workers);
    config.queue.capacity = flags.count("--queue", config.queue.capacity);
    config.queue.workers = flags.count("--sweep-workers", config.queue.workers);
    let runner = &mut config.queue.runner;
    runner.jobs = flags.count("--jobs", runner.jobs);
    runner.cache_dir = flags.value("--cache").map(Into::into);
    runner.verbose = flags.switch("--verbose");
    flags.finish();
    signal::install();

    let server = match Server::bind(config) {
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
