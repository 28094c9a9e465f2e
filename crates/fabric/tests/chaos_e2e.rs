//! The chaos matrix: every network fault kind, injected between a real
//! coordinator and real workers by the `dice-chaos` proxy, must leave
//! the fabric in exactly one of two states — a report **byte-identical**
//! to a direct single-node run, or a terminal sweep carrying a **typed
//! degraded outcome**. Never a hang, never a corrupt report.
//!
//! Schedules are seeded, so every run here is replayable. Seeds are
//! chosen (by deterministic search over the pure schedule function) so
//! the coordinator's boot probe — connection 0 through each proxy —
//! always passes clean; the chaos starts once the fleet is admitted.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dice_fabric::{
    chaos::scheduled_fault, ChaosConfig, ChaosProxy, Coordinator, CoordinatorConfig,
    CoordinatorHandle, NetFault, Worker, WorkerConfig, ALL_FAULTS,
};
use dice_obs::Json;
use dice_runner::{Runner, RunnerConfig};
use dice_serve::net::NetConfig;
use dice_serve::{http_get, http_post, render_runs, SweepSpec};

/// A fresh scratch directory under the system temp dir, removed when the
/// guard drops: at the end of the test, after the nodes using it stopped.
struct Scratch(PathBuf);

fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("dice-fabric-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The 4-cell spec under chaos; small enough that even a slow-read
/// schedule finishes the matrix quickly.
fn spec_text(seed: u64) -> String {
    format!(
        r#"{{"orgs":["base","dice36"],"workloads":["gcc","mcf"],"scale":4096,"warmup":50,"measure":150,"seed":{seed}}}"#
    )
}

/// What a direct single-node `dice-runner` invocation renders for `spec`.
fn direct_report(spec: &str, cache: Scratch) -> String {
    let spec = SweepSpec::parse(spec).expect("valid spec");
    let runner = Runner::new(RunnerConfig {
        jobs: 2,
        cache_dir: Some(cache.0.clone()),
        ..RunnerConfig::default()
    })
    .expect("runner");
    render_runs(&runner.run(spec.to_cells())).render()
}

struct TestWorker {
    addr: String,
    handle: dice_fabric::WorkerHandle,
    thread: Option<std::thread::JoinHandle<()>>,
    /// The worker's cache, removed after `drop` has stopped the worker.
    _cache: Scratch,
}

impl TestWorker {
    fn boot(cache: Scratch) -> Self {
        let worker = Worker::bind(WorkerConfig {
            net: NetConfig {
                port: 0,
                conn_workers: 2,
                conn_backlog: 16,
            },
            runner: RunnerConfig {
                jobs: 1,
                cache_dir: Some(cache.0.clone()),
                ..RunnerConfig::default()
            },
            inject: None,
        })
        .expect("bind worker");
        let addr = worker.local_addr().expect("worker addr").to_string();
        let handle = worker.handle();
        let thread = std::thread::spawn(move || worker.run().expect("worker run"));
        TestWorker {
            addr,
            handle,
            thread: Some(thread),
            _cache: cache,
        }
    }
}

impl Drop for TestWorker {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

struct TestProxy {
    addr: String,
    proxy: Arc<ChaosProxy>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestProxy {
    fn boot(config: ChaosConfig) -> Self {
        let proxy = Arc::new(ChaosProxy::bind(config).expect("bind proxy"));
        let addr = proxy.local_addr().expect("proxy addr").to_string();
        let runner = Arc::clone(&proxy);
        let thread = std::thread::spawn(move || runner.run().expect("proxy run"));
        TestProxy {
            addr,
            proxy,
            thread: Some(thread),
        }
    }
}

impl Drop for TestProxy {
    fn drop(&mut self) {
        self.proxy.handle().drain();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The first seed at or above `start` whose schedule leaves connection 0
/// — the coordinator's boot probe — clean. Pure search over the pure
/// schedule function: deterministic and replayable.
fn clean_boot_seed(template: &ChaosConfig, start: u64) -> u64 {
    (start..start + 100_000)
        .find(|&seed| {
            let config = ChaosConfig {
                seed,
                ..template.clone()
            };
            scheduled_fault(&config, 0).is_none()
        })
        .expect("a clean-boot seed exists")
}

/// The first seed at or above `start` whose schedule leaves connection 0
/// clean and faults connections 1..=40 — enough to cover every dispatch
/// and probe a no-retry 4-cell sweep can make. A guaranteed storm.
fn storm_seed(template: &ChaosConfig, start: u64) -> u64 {
    (start..start + 1_000_000)
        .find(|&seed| {
            let config = ChaosConfig {
                seed,
                ..template.clone()
            };
            scheduled_fault(&config, 0).is_none()
                && (1..=40).all(|idx| scheduled_fault(&config, idx).is_some())
        })
        .expect("a storm seed exists")
}

/// Boots a coordinator whose only routes to `workers` run through
/// per-worker chaos proxies seeded off `template`.
fn boot_chaos_coordinator(
    workers: &[&TestWorker],
    proxies: &[&TestProxy],
    retry_rounds: usize,
) -> TestCoordinator {
    assert_eq!(workers.len(), proxies.len());
    let coordinator = Coordinator::bind(CoordinatorConfig {
        net: NetConfig {
            port: 0,
            conn_workers: 4,
            conn_backlog: 16,
        },
        workers: proxies.iter().map(|p| p.addr.clone()).collect(),
        backoff: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(200),
        cell_timeout: Duration::from_secs(15),
        retry_rounds,
        ..CoordinatorConfig::default()
    })
    .expect("bind coordinator");
    let addr = coordinator
        .local_addr()
        .expect("coordinator addr")
        .to_string();
    let handle = coordinator.handle();
    let thread = std::thread::spawn(move || coordinator.run().expect("coordinator run"));
    TestCoordinator {
        addr,
        handle,
        thread: Some(thread),
    }
}

struct TestCoordinator {
    addr: String,
    handle: CoordinatorHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestCoordinator {
    fn shutdown(mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("coordinator thread");
        }
    }
}

impl Drop for TestCoordinator {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Submits `spec` and polls to a terminal state within `budget` — the
/// no-hang half of the chaos invariant. Returns the report bytes and
/// the status document's typed `degraded` reason, if any.
fn run_under_chaos(addr: &str, spec: &str, budget: Duration) -> (String, Option<String>) {
    let resp = http_post(addr, "/v1/sweeps", spec).expect("POST sweep");
    assert_eq!(resp.status, 202, "submit body: {}", resp.text());
    let id = Json::parse(&resp.text())
        .expect("submit JSON")
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_owned();
    let deadline = Instant::now() + budget;
    let degraded = loop {
        let status = http_get(addr, &format!("/v1/sweeps/{id}")).expect("GET status");
        assert_eq!(status.status, 200);
        let doc = Json::parse(&status.text()).expect("status JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => {
                break doc
                    .get("degraded")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
            }
            Some("failed") => panic!("sweep failed under chaos: {}", status.text()),
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "sweep hung under chaos (no terminal state in {budget:?})"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };
    let report = http_get(addr, &format!("/v1/sweeps/{id}/report")).expect("GET report");
    assert_eq!(report.status, 200, "terminal sweep must render a report");
    (report.text(), degraded)
}

/// The chaos invariant, asserted: the run either matched the direct
/// bytes exactly, or terminated degraded with fabric-synthesized (and
/// clearly marked) cell errors. A report that is neither is corrupt.
fn assert_chaos_invariant(context: &str, report: &str, degraded: Option<&str>, direct: &str) {
    match degraded {
        None => assert_eq!(
            report, direct,
            "{context}: clean completion must be byte-identical"
        ),
        Some(reason) => {
            assert!(
                reason.contains("no live worker"),
                "{context}: degraded reason is untyped: {reason}"
            );
            assert!(
                report.contains("fabric:"),
                "{context}: degraded report lacks synthetic markers: {report}"
            );
        }
    }
}

#[test]
fn clean_proxies_preserve_byte_identity() {
    let spec = spec_text(41);
    let direct = direct_report(&spec, scratch("clean-direct"));
    let w0 = TestWorker::boot(scratch("clean-w0"));
    let w1 = TestWorker::boot(scratch("clean-w1"));
    let template = ChaosConfig {
        percent: 0,
        io_timeout: Duration::from_secs(10),
        ..ChaosConfig::default()
    };
    let p0 = TestProxy::boot(ChaosConfig {
        upstream: w0.addr.clone(),
        ..template.clone()
    });
    let p1 = TestProxy::boot(ChaosConfig {
        upstream: w1.addr.clone(),
        ..template
    });
    let coordinator = boot_chaos_coordinator(&[&w0, &w1], &[&p0, &p1], 3);
    let (report, degraded) = run_under_chaos(&coordinator.addr, &spec, Duration::from_secs(60));
    assert_eq!(degraded, None, "a clean pipe must not degrade");
    assert_eq!(report, direct, "proxy altered bytes at percent=0");
    coordinator.shutdown();
}

#[test]
fn every_fault_kind_terminates_with_identity_or_typed_degrade() {
    let spec = spec_text(42);
    let direct = direct_report(&spec, scratch("matrix-direct"));
    for (i, fault) in ALL_FAULTS.into_iter().enumerate() {
        let name = fault.as_str();
        let w0 = TestWorker::boot(scratch(&format!("matrix-{name}-w0")));
        let w1 = TestWorker::boot(scratch(&format!("matrix-{name}-w1")));
        let template = ChaosConfig {
            faults: vec![fault],
            percent: 45,
            latency: Duration::from_millis(150),
            io_timeout: Duration::from_secs(10),
            ..ChaosConfig::default()
        };
        let p0 = TestProxy::boot(ChaosConfig {
            upstream: w0.addr.clone(),
            seed: clean_boot_seed(&template, 100 * i as u64 + 1),
            ..template.clone()
        });
        let p1 = TestProxy::boot(ChaosConfig {
            upstream: w1.addr.clone(),
            seed: clean_boot_seed(&template, 100 * i as u64 + 51),
            ..template
        });
        let coordinator = boot_chaos_coordinator(&[&w0, &w1], &[&p0, &p1], 3);
        let (report, degraded) =
            run_under_chaos(&coordinator.addr, &spec, Duration::from_secs(120));
        assert_chaos_invariant(name, &report, degraded.as_deref(), &direct);
        coordinator.shutdown();
    }
}

#[test]
fn full_fault_mix_terminates() {
    let spec = spec_text(43);
    let direct = direct_report(&spec, scratch("mix-direct"));
    let w0 = TestWorker::boot(scratch("mix-w0"));
    let w1 = TestWorker::boot(scratch("mix-w1"));
    let template = ChaosConfig {
        percent: 35,
        latency: Duration::from_millis(150),
        io_timeout: Duration::from_secs(10),
        ..ChaosConfig::default()
    };
    let p0 = TestProxy::boot(ChaosConfig {
        upstream: w0.addr.clone(),
        seed: clean_boot_seed(&template, 1_001),
        ..template.clone()
    });
    let p1 = TestProxy::boot(ChaosConfig {
        upstream: w1.addr.clone(),
        seed: clean_boot_seed(&template, 2_001),
        ..template
    });
    let coordinator = boot_chaos_coordinator(&[&w0, &w1], &[&p0, &p1], 3);
    let (report, degraded) = run_under_chaos(&coordinator.addr, &spec, Duration::from_secs(120));
    assert_chaos_invariant("mix", &report, degraded.as_deref(), &direct);
    coordinator.shutdown();
}

#[test]
fn refuse_storm_degrades_with_typed_outcome() {
    // A single worker behind a proxy that refuses every connection after
    // the boot probe, and a coordinator with no retry rounds: every cell
    // must come back as a fabric-synthesized failure, the sweep must
    // still reach `done`, and the degraded reason must be typed.
    let spec = spec_text(44);
    let worker = TestWorker::boot(scratch("storm-w0"));
    let template = ChaosConfig {
        faults: vec![NetFault::Refuse],
        percent: 99,
        io_timeout: Duration::from_secs(5),
        ..ChaosConfig::default()
    };
    let proxy = TestProxy::boot(ChaosConfig {
        upstream: worker.addr.clone(),
        seed: storm_seed(&template, 1),
        ..template
    });
    let coordinator = boot_chaos_coordinator(&[&worker], &[&proxy], 0);
    let (report, degraded) = run_under_chaos(&coordinator.addr, &spec, Duration::from_secs(60));
    let reason = degraded.expect("a total refuse storm must degrade the sweep");
    assert!(
        reason.contains("4 of 4 cells"),
        "degraded reason should count the synthetic cells: {reason}"
    );
    assert_eq!(
        report.matches("fabric:").count(),
        4,
        "every cell must carry the synthetic marker: {report}"
    );

    // The breaker state is operator-visible: the storm must have opened
    // (and possibly exhausted) w0's breaker, and the membership document
    // says so.
    let resp = http_get(&coordinator.addr, "/v1/fabric/membership").expect("GET membership");
    let doc = Json::parse(&resp.text()).expect("membership JSON");
    let nodes = doc.get("nodes").and_then(Json::as_arr).expect("nodes");
    let opened = nodes[0]
        .get("breaker_opened")
        .and_then(Json::as_u64)
        .expect("breaker_opened");
    assert!(opened > 0, "storm never opened the breaker: {doc:?}");
    coordinator.shutdown();
}
