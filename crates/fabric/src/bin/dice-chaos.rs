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
//! `--percent 0` makes a clean (but still observable) pipe.
//!
//! Binds 127.0.0.1 (`--port 0` = ephemeral) and announces
//! `dice-chaos listening on 127.0.0.1:PORT` on stdout for scripts.
//! SIGTERM/SIGINT stops accepting and prints the per-fault injection
//! tally before exiting.

use std::io::Write;
use std::time::Duration;

use dice_fabric::{ChaosConfig, ChaosProxy, NetFault};
use dice_serve::signal;

fn usage() -> ! {
    eprintln!(
        "usage: dice-chaos --upstream ADDR [--port P] [--seed N] [--percent PCT]\n\
         \x20                [--fault KIND ...] [--latency-ms MS] [--io-timeout SECS]\n\
         \x20     KIND: refuse | latency | slow-read | truncate | garble"
    );
    std::process::exit(2);
}

fn main() {
    signal::install();
    let mut config = ChaosConfig::default();
    let mut faults: Vec<NetFault> = Vec::new();
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("dice-chaos: {arg} needs {what}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--upstream" => config.upstream = value("an address"),
            "--port" => config.port = value("a port").parse().unwrap_or_else(|_| usage()),
            "--seed" => config.seed = value("a seed").parse().unwrap_or_else(|_| usage()),
            "--percent" => {
                config.percent = value("a percent").parse().unwrap_or_else(|_| usage());
            }
            "--fault" => {
                let kind = value("a fault kind");
                faults.push(NetFault::parse(&kind).unwrap_or_else(|| {
                    eprintln!("dice-chaos: unknown fault kind {kind:?}");
                    std::process::exit(2);
                }));
            }
            "--latency-ms" => {
                let ms: u64 = value("milliseconds").parse().unwrap_or_else(|_| usage());
                config.latency = Duration::from_millis(ms);
            }
            "--io-timeout" => {
                let secs: u64 = value("seconds").parse().unwrap_or_else(|_| usage());
                config.io_timeout = Duration::from_secs(secs);
            }
            _ => usage(),
        }
    }
    if config.upstream.is_empty() {
        eprintln!("dice-chaos: --upstream ADDR is required");
        std::process::exit(2);
    }
    if !faults.is_empty() {
        config.faults = faults;
    }

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
