//! The `dice-chaos` binary: a seeded TCP fault-injection proxy.
//!
//! ```text
//! dice-chaos --upstream ADDR [--port P] [--seed N] [--percent PCT]
//!            [--fault KIND ...] [--latency-ms MS] [--io-timeout SECS]
//! ```
//!
//! Sits between a coordinator and one worker and injects network faults
//! (`refuse`, `latency`, `slow-read`, `truncate`, `garble`) from a
//! seeded per-connection schedule — same `--seed`, same faults, every
//! run. Repeat `--fault` to restrict the menu; omit it for all five.
//! `--percent` (0 to 100) is the share of connections faulted; `--percent
//! 0` makes a clean (but still observable) pipe.
//!
//! Binds 127.0.0.1 (`--port 0` = ephemeral) and announces
//! `dice-chaos listening on 127.0.0.1:PORT` on stdout for scripts.
//! SIGTERM/SIGINT stops accepting and prints the per-fault injection
//! tally before exiting. A malformed flag, a zero duration or a
//! `--percent` above 100 exits 2 with one stderr line naming it, before
//! anything binds.

use std::io::Write;

use dice_fabric::{ChaosConfig, ChaosProxy, NetFault};
use dice_obs::cli::{Flags, Unit};
use dice_serve::signal;

fn main() {
    signal::install();
    let mut flags = Flags::from_env("dice-chaos");
    let mut config = ChaosConfig {
        upstream: flags.required("--upstream"),
        ..ChaosConfig::default()
    };
    config.port = flags.number("--port", config.port);
    config.seed = flags.number("--seed", config.seed);
    config.percent = flags.number("--percent", config.percent);
    if config.percent > 100 {
        flags.refuse("--percent must be at most 100");
    }
    let faults: Vec<NetFault> = flags
        .values("--fault")
        .iter()
        .map(|kind| {
            NetFault::parse(kind)
                .unwrap_or_else(|| flags.refuse(format!("--fault {kind:?} is not a fault kind")))
        })
        .collect();
    if !faults.is_empty() {
        config.faults = faults;
    }
    let latency = flags.duration("--latency-ms", Unit::Millis);
    config.latency = latency.unwrap_or(config.latency);
    let io_timeout = flags.duration("--io-timeout", Unit::Seconds);
    config.io_timeout = io_timeout.unwrap_or(config.io_timeout);
    flags.finish();

    let proxy = match ChaosProxy::bind(config) {
        Ok(proxy) => proxy,
        Err(e) => {
            eprintln!("dice-chaos: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = proxy.local_addr().expect("bound socket");
    {
        // Explicit flush: scripts scrape this line for an ephemeral port.
        let mut out = std::io::stdout();
        let _ = writeln!(out, "dice-chaos listening on {addr}");
        let _ = out.flush();
    }

    let handle = proxy.handle();
    signal::watch(move |count| {
        if count == 1 {
            eprintln!("dice-chaos: draining");
            handle.drain();
        }
    });

    if let Err(e) = proxy.run() {
        eprintln!("dice-chaos: {e}");
        std::process::exit(1);
    }
    let mut out = std::io::stdout();
    for (fault, count) in proxy.counts() {
        let _ = writeln!(out, "dice-chaos injected {fault}: {count}");
    }
    let _ = writeln!(out, "dice-chaos drained cleanly");
    let _ = out.flush();
}
