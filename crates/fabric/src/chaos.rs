//! `dice-chaos`: a std-only TCP fault-injection proxy.
//!
//! Sits between the coordinator and a worker (one proxy per worker) and
//! injects network faults from a **seeded schedule**, so a chaos drill
//! that breaks the fabric can be replayed byte-for-byte. PR 4's fault
//! matrix stops at the simulation layer (tag flips, size lies, cell
//! panics); this proxy attacks the layer nothing else exercises — the
//! wire itself:
//!
//! * **refuse** — accept, then slam the connection shut before a byte
//!   flows (a worker whose accept queue answers but whose process is
//!   wedged);
//! * **latency** — a seeded delay before any byte is forwarded (a
//!   congested hop);
//! * **slow-read** — the response trickles out a byte at a time
//!   (slowloris; a worker NIC negotiating 10 Mb/s half-duplex);
//! * **truncate** — the response stops mid-body and the connection
//!   closes (a worker OOM-killed mid-write);
//! * **garble** — a window of response bytes is XOR-flipped (a broken
//!   middlebox; the reason the cell wire protocol carries a checksum).
//!
//! Faults apply to the upstream→client (response) direction — the
//! request direction is forwarded verbatim so the worker's own request
//! parsing stays out of the picture and every injected failure is
//! unambiguously the network's fault.
//!
//! The proxy is deliberately dumb about HTTP: it moves bytes. That keeps
//! it honest — it can tear a response at any byte boundary, not just the
//! ones a protocol-aware mock would think of.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dice_serve::net::Drain;

use crate::seeded::SeededRng;

/// A network fault kind the proxy can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Accept then immediately close; no byte ever flows.
    Refuse,
    /// Delay before forwarding the first byte.
    Latency,
    /// Trickle the response a byte at a time for a while.
    SlowRead,
    /// Close the connection mid-response-body.
    Truncate,
    /// XOR-flip a window of response bytes.
    Garble,
}

/// Every fault kind, in schedule order.
pub const ALL_FAULTS: [NetFault; 5] = [
    NetFault::Refuse,
    NetFault::Latency,
    NetFault::SlowRead,
    NetFault::Truncate,
    NetFault::Garble,
];

impl NetFault {
    /// The CLI spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            NetFault::Refuse => "refuse",
            NetFault::Latency => "latency",
            NetFault::SlowRead => "slow-read",
            NetFault::Truncate => "truncate",
            NetFault::Garble => "garble",
        }
    }

    /// Parses the CLI spelling.
    #[must_use]
    pub fn parse(text: &str) -> Option<NetFault> {
        ALL_FAULTS.into_iter().find(|f| f.as_str() == text)
    }
}

/// Chaos proxy construction knobs.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Port to bind on 127.0.0.1 (`0` = ephemeral).
    pub port: u16,
    /// Where clean bytes go (`host:port` of the real worker).
    pub upstream: String,
    /// Seed for the fault schedule; same seed → same faults on the same
    /// connection sequence.
    pub seed: u64,
    /// Fault kinds the schedule may pick from (empty = clean pipe).
    pub faults: Vec<NetFault>,
    /// Percent of connections faulted (0–100); the rest pass clean.
    pub percent: u32,
    /// Upper bound on injected latency (the schedule draws in
    /// `[latency/2, latency]`).
    pub latency: Duration,
    /// Socket read/write timeout on both legs; bounds how long any
    /// faulted connection can live.
    pub io_timeout: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            port: 0,
            upstream: String::new(),
            seed: 1,
            faults: ALL_FAULTS.to_vec(),
            percent: 30,
            latency: Duration::from_millis(250),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// A handle for draining a running proxy from another thread.
#[derive(Clone)]
pub struct ChaosHandle {
    drain: Drain,
}

impl ChaosHandle {
    /// Wakes and stops the accept loop; in-flight connections run out
    /// their (bounded) timeouts on their own threads.
    pub fn drain(&self) {
        self.drain.start();
    }
}

struct ChaosShared {
    config: ChaosConfig,
    counts: Mutex<BTreeMap<&'static str, u64>>,
    connections: AtomicU64,
}

impl ChaosShared {
    fn count(&self, what: &'static str) {
        *self
            .counts
            .lock()
            .expect("chaos counts poisoned")
            .entry(what)
            .or_insert(0) += 1;
    }
}

/// The fault-injection proxy.
pub struct ChaosProxy {
    listener: TcpListener,
    drain: Drain,
    shared: Arc<ChaosShared>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:port`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ChaosConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        Ok(ChaosProxy {
            drain: Drain::new(listener.local_addr()?),
            listener,
            shared: Arc::new(ChaosShared {
                config,
                counts: Mutex::new(BTreeMap::new()),
                connections: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (useful with `port: 0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A drain handle, safe to move to signal watchers or tests.
    #[must_use]
    pub fn handle(&self) -> ChaosHandle {
        ChaosHandle {
            drain: self.drain.clone(),
        }
    }

    /// Injection tallies so far: `(fault-or-"clean", connections)`.
    #[must_use]
    pub fn counts(&self) -> Vec<(String, u64)> {
        self.shared
            .counts
            .lock()
            .expect("chaos counts poisoned")
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect()
    }

    /// Accepts and proxies until [`ChaosHandle::drain`].
    ///
    /// # Errors
    ///
    /// Currently none: failed accepts are skipped.
    pub fn run(&self) -> io::Result<()> {
        while !self.drain.started() {
            match self.listener.accept() {
                // The drain's wake-up connection: dropped before it takes
                // a schedule index, so `scheduled_fault` indices stay
                // those of real clients.
                Ok(_) if self.drain.started() => break,
                Ok((stream, _peer)) => {
                    let idx = self.shared.connections.fetch_add(1, Ordering::SeqCst);
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || proxy_connection(&shared, stream, idx));
                }
                Err(_) => {}
            }
        }
        Ok(())
    }
}

/// The seeded schedule: which fault (if any) connection `idx` gets.
/// Pure function of `(seed, idx, faults, percent)` — replayable.
#[must_use]
pub fn scheduled_fault(config: &ChaosConfig, idx: u64) -> Option<NetFault> {
    let mut rng = SeededRng::new(config.seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    if config.faults.is_empty() || !rng.chance(config.percent) {
        return None;
    }
    Some(config.faults[rng.below(config.faults.len() as u64) as usize])
}

fn proxy_connection(shared: &Arc<ChaosShared>, client: TcpStream, idx: u64) {
    let config = &shared.config;
    let fault = scheduled_fault(config, idx);
    shared.count(fault.map_or("clean", NetFault::as_str));
    // Per-connection RNG, decorrelated from the schedule draw.
    let mut rng = SeededRng::new(
        config
            .seed
            .wrapping_add(idx)
            .wrapping_mul(0x2545_f491_4f6c_dd1d),
    );

    let _ = client.set_nodelay(true);
    let _ = client.set_read_timeout(Some(config.io_timeout));
    let _ = client.set_write_timeout(Some(config.io_timeout));

    if fault == Some(NetFault::Refuse) {
        let _ = client.shutdown(Shutdown::Both);
        return;
    }
    let Ok(upstream) = TcpStream::connect(&config.upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = upstream.set_nodelay(true);
    let _ = upstream.set_read_timeout(Some(config.io_timeout));
    let _ = upstream.set_write_timeout(Some(config.io_timeout));

    if fault == Some(NetFault::Latency) {
        let max = config.latency.as_millis() as u64;
        std::thread::sleep(Duration::from_millis(rng.between(max / 2, max.max(1))));
    }

    // Request direction: verbatim, on its own thread.
    let (Ok(c_read), Ok(u_write)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    let forward = std::thread::spawn(move || {
        pipe_clean(c_read, u_write);
    });

    // Response direction: where the fault lives.
    match fault {
        Some(NetFault::SlowRead) => {
            // First `trickle` bytes go out one at a time with a seeded
            // pause — total added delay is bounded by trickle × step.
            let trickle = rng.between(24, 48);
            let step = Duration::from_millis(rng.between(20, 60));
            pipe_slow(&upstream, &client, trickle as usize, step);
        }
        Some(NetFault::Truncate) => {
            let cut = rng.between(1, 300) as usize;
            pipe_truncated(&upstream, &client, cut);
        }
        Some(NetFault::Garble) => {
            let start = rng.between(0, 160) as usize;
            let len = rng.between(2, 24) as usize;
            pipe_garbled(&upstream, &client, start, len);
        }
        // Clean, latency (already served) and refuse (already returned).
        _ => pipe_clean(
            match upstream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            },
            match client.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            },
        ),
    }
    let _ = client.shutdown(Shutdown::Both);
    let _ = upstream.shutdown(Shutdown::Both);
    let _ = forward.join();
}

/// Verbatim copy until EOF or timeout; shuts the write side when done so
/// the peer observes EOF.
fn pipe_clean(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 8192];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// Slowloris: the first `trickle` bytes go one at a time with `step`
/// sleeps, the rest flow normally.
fn pipe_slow(from: &TcpStream, to: &TcpStream, trickle: usize, step: Duration) {
    let (Ok(mut from), Ok(mut to)) = (from.try_clone(), to.try_clone()) else {
        return;
    };
    let mut buf = [0u8; 8192];
    let mut sent = 0usize;
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                let mut wrote = 0;
                while wrote < n {
                    let end = if sent < trickle {
                        std::thread::sleep(step);
                        wrote + 1
                    } else {
                        n
                    };
                    if to.write_all(&buf[wrote..end]).is_err() {
                        return;
                    }
                    if let Err(e) = to.flush() {
                        let _ = e;
                        return;
                    }
                    sent += end - wrote;
                    wrote = end;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

/// Forwards exactly `cut` bytes, then severs the connection mid-body.
fn pipe_truncated(from: &TcpStream, to: &TcpStream, cut: usize) {
    let (Ok(mut from), Ok(mut to)) = (from.try_clone(), to.try_clone()) else {
        return;
    };
    let mut buf = [0u8; 8192];
    let mut remaining = cut;
    while remaining > 0 {
        let want = remaining.min(buf.len());
        match from.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                remaining -= n;
            }
        }
    }
    // Abrupt close: the client sees a response shorter than its
    // Content-Length promised.
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

/// Copies the stream while XOR-flipping `len` bytes starting at stream
/// offset `start`.
fn pipe_garbled(from: &TcpStream, to: &TcpStream, start: usize, len: usize) {
    let (Ok(mut from), Ok(mut to)) = (from.try_clone(), to.try_clone()) else {
        return;
    };
    let mut buf = [0u8; 8192];
    let mut offset = 0usize;
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                for (i, byte) in buf[..n].iter_mut().enumerate() {
                    let pos = offset + i;
                    if pos >= start && pos < start + len {
                        *byte ^= 0xa5;
                    }
                }
                offset += n;
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let config = ChaosConfig {
            upstream: "127.0.0.1:1".into(),
            percent: 50,
            ..ChaosConfig::default()
        };
        let a: Vec<_> = (0..64).map(|i| scheduled_fault(&config, i)).collect();
        let b: Vec<_> = (0..64).map(|i| scheduled_fault(&config, i)).collect();
        assert_eq!(a, b, "same seed must produce the same schedule");
        let other = ChaosConfig { seed: 2, ..config };
        let c: Vec<_> = (0..64).map(|i| scheduled_fault(&other, i)).collect();
        assert_ne!(a, c, "different seeds must produce different schedules");
        assert!(
            a.iter().any(Option::is_some) && a.iter().any(Option::is_none),
            "a 50% schedule should mix faulted and clean connections: {a:?}"
        );
    }

    #[test]
    fn forced_single_fault_hits_only_that_kind() {
        let config = ChaosConfig {
            upstream: "127.0.0.1:1".into(),
            faults: vec![NetFault::Truncate],
            percent: 100,
            ..ChaosConfig::default()
        };
        for i in 0..32 {
            assert_eq!(scheduled_fault(&config, i), Some(NetFault::Truncate));
        }
    }

    #[test]
    fn fault_names_round_trip() {
        for fault in ALL_FAULTS {
            assert_eq!(NetFault::parse(fault.as_str()), Some(fault));
        }
        assert_eq!(NetFault::parse("gremlins"), None);
    }

    /// A clean end-to-end pipe through a live proxy: bytes arrive intact.
    #[test]
    fn clean_connections_pass_verbatim() {
        // A one-shot echo upstream.
        let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = upstream.local_addr().expect("addr");
        std::thread::spawn(move || {
            for stream in upstream.incoming().flatten() {
                let mut stream = stream;
                let mut buf = [0u8; 128];
                if let Ok(n) = stream.read(&mut buf) {
                    let _ = stream.write_all(&buf[..n]);
                }
                let _ = stream.shutdown(Shutdown::Both);
            }
        });

        let proxy = ChaosProxy::bind(ChaosConfig {
            upstream: upstream_addr.to_string(),
            percent: 0,
            io_timeout: Duration::from_secs(5),
            ..ChaosConfig::default()
        })
        .expect("bind proxy");
        let addr = proxy.local_addr().expect("proxy addr");
        let handle = proxy.handle();
        let thread = std::thread::spawn(move || proxy.run().expect("proxy run"));

        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        client.write_all(b"ping through chaos").expect("write");
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut back = Vec::new();
        client.read_to_end(&mut back).expect("read");
        assert_eq!(back, b"ping through chaos");

        handle.drain();
        thread.join().expect("proxy thread");
    }
}
