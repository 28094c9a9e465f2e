//! End-to-end fabric tests: real workers and a real coordinator on
//! ephemeral ports, driven over real sockets with the serve client.
//!
//! The load-bearing assertion throughout is **byte identity**: whatever
//! the fabric is subjected to — more workers, warm caches, injected cell
//! panics, a worker dying between scatter rounds, a drained node — the
//! gathered report must equal, byte for byte, what a direct single-node
//! `dice-runner` invocation of the same spec renders.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dice_core::FaultKind;
use dice_fabric::{Coordinator, CoordinatorConfig, CoordinatorHandle, Worker, WorkerConfig};
use dice_obs::Json;
use dice_runner::{Runner, RunnerConfig};
use dice_serve::net::NetConfig;
use dice_serve::{http_get, http_post, render_runs, sse_data_lines, SweepSpec};

/// A fresh scratch directory under the system temp dir, removed when the
/// guard drops: at the end of the test, after the nodes using it stopped.
struct Scratch(PathBuf);

fn scratch(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("dice-fabric-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The spec under test: 2 orgs x 2 workloads = 4 cells, small enough to
/// finish in well under a second per cell.
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
    fn boot(cache: Scratch, inject: Option<FaultKind>) -> Self {
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
            inject,
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

    /// Stops the worker and waits for its listener to close, so later
    /// dispatches to its address fail at connect time.
    fn kill(mut self) {
        self.handle.drain();
        if let Some(thread) = self.thread.take() {
            thread.join().expect("worker thread");
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

struct TestCoordinator {
    addr: String,
    handle: CoordinatorHandle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestCoordinator {
    fn boot(workers: &[&TestWorker]) -> Self {
        let coordinator = Coordinator::bind(CoordinatorConfig {
            net: NetConfig {
                port: 0,
                conn_workers: 4,
                conn_backlog: 16,
            },
            workers: workers.iter().map(|w| w.addr.clone()).collect(),
            backoff: Duration::from_millis(10),
            cell_timeout: Duration::from_secs(30),
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

    fn membership(&self) -> Json {
        let resp = http_get(&self.addr, "/v1/fabric/membership").expect("GET membership");
        assert_eq!(resp.status, 200);
        Json::parse(&resp.text()).expect("membership JSON")
    }

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

/// Submits a sweep and polls it to `done`; returns (id, report bytes).
fn run_sweep(addr: &str, spec: &str) -> (String, String) {
    let resp = http_post(addr, "/v1/sweeps", spec).expect("POST sweep");
    assert_eq!(resp.status, 202, "submit body: {}", resp.text());
    let doc = Json::parse(&resp.text()).expect("submit JSON");
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .expect("job id")
        .to_owned();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = http_get(addr, &format!("/v1/sweeps/{id}")).expect("GET status");
        assert_eq!(status.status, 200);
        let doc = Json::parse(&status.text()).expect("status JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") => panic!("sweep failed: {}", status.text()),
            _ => {
                assert!(Instant::now() < deadline, "sweep never finished");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    let report = http_get(addr, &format!("/v1/sweeps/{id}/report")).expect("GET report");
    assert_eq!(report.status, 200);
    (id, report.text())
}

/// The status document's `summary` line for job `id`.
fn summary(addr: &str, id: &str) -> String {
    let status = http_get(addr, &format!("/v1/sweeps/{id}")).expect("GET status");
    let doc = Json::parse(&status.text()).expect("status JSON");
    doc.get("summary")
        .and_then(Json::as_str)
        .expect("summary")
        .to_owned()
}

#[test]
fn fabric_report_is_byte_identical_cold_and_warm() {
    let spec = spec_text(11);
    let direct = direct_report(&spec, scratch("direct-cw"));

    for workers in [1usize, 4] {
        let nodes: Vec<TestWorker> = (0..workers)
            .map(|i| TestWorker::boot(scratch(&format!("cw-{workers}-{i}")), None))
            .collect();
        let refs: Vec<&TestWorker> = nodes.iter().collect();
        let coordinator = TestCoordinator::boot(&refs);
        let (id, cold) = run_sweep(&coordinator.addr, &spec);
        assert_eq!(
            cold, direct,
            "cold fabric report diverged ({workers} workers)"
        );
        let cold_summary = summary(&coordinator.addr, &id);
        assert!(
            cold_summary.contains(" 4 simulated, 0 cached,"),
            "cold summary ({workers} workers): {cold_summary}"
        );
        coordinator.shutdown();

        // Same worker fleet, warm caches, fresh coordinator: still the
        // same bytes, and every cell answered from a worker's cache.
        let coordinator = TestCoordinator::boot(&refs);
        let (id, warm) = run_sweep(&coordinator.addr, &spec);
        assert_eq!(
            warm, direct,
            "warm fabric report diverged ({workers} workers)"
        );
        let warm_summary = summary(&coordinator.addr, &id);
        assert!(
            warm_summary.contains(" 0 simulated, 4 cached,"),
            "warm summary ({workers} workers): {warm_summary}"
        );
        coordinator.shutdown();
    }
}

#[test]
fn injected_cell_panics_rescatter_onto_survivors() {
    let spec = spec_text(12);
    let direct = direct_report(&spec, scratch("direct-inject"));

    // Placement is a pure function of node names and cell keys, so work
    // out up front which node ("w0"/"w1") owns at least one cell and arm
    // the panic injector (PR-4 fault injection) on exactly that node.
    // Every cell first hashed onto it must re-scatter to the clean node
    // and the assembled report must not show a trace of the drill.
    let mut ring = dice_fabric::HashRing::new(dice_fabric::DEFAULT_VNODES);
    ring.add("w0");
    ring.add("w1");
    let parsed = SweepSpec::parse(&spec).expect("valid spec");
    let faulty_name = parsed
        .to_cells()
        .iter()
        .map(|c| {
            ring.owner(dice_runner::cell_key(&c.cfg, &c.workload))
                .expect("non-empty ring")
                .to_owned()
        })
        .next()
        .expect("at least one cell");
    let faulty_idx = usize::from(faulty_name == "w1");
    let inject = |i: usize| (i == faulty_idx).then_some(FaultKind::CellPanic);
    let a = TestWorker::boot(scratch("inject-w0"), inject(0));
    let b = TestWorker::boot(scratch("inject-w1"), inject(1));
    let coordinator = TestCoordinator::boot(&[&a, &b]);
    let (_, report) = run_sweep(&coordinator.addr, &spec);
    assert_eq!(report, direct, "report diverged despite healthy survivor");

    // The membership document records the drilled node's failures.
    let doc = coordinator.membership();
    let nodes = doc.get("nodes").and_then(Json::as_arr).expect("nodes");
    let drilled = &nodes[faulty_idx];
    assert!(
        drilled
            .get("failed")
            .and_then(Json::as_u64)
            .expect("failed")
            > 0,
        "faulty node recorded no failures: {doc:?}"
    );
    coordinator.shutdown();
}

#[test]
fn dead_worker_is_retired_and_cells_rehash() {
    let spec = spec_text(13);
    let direct = direct_report(&spec, scratch("direct-dead"));

    let doomed = TestWorker::boot(scratch("dead-w0"), None);
    let survivor = TestWorker::boot(scratch("dead-w1"), None);
    let coordinator = TestCoordinator::boot(&[&doomed, &survivor]);
    let ring_before = coordinator
        .membership()
        .get("ring_version")
        .and_then(Json::as_u64)
        .expect("ring_version");

    // The worker dies after the coordinator's boot probe admitted it to
    // the ring: dispatches hit a closed port, the node is declared dead,
    // and its cells re-hash onto the survivor.
    doomed.kill();
    let (_, report) = run_sweep(&coordinator.addr, &spec);
    assert_eq!(report, direct, "report diverged after worker death");

    let doc = coordinator.membership();
    assert!(
        doc.get("ring_version")
            .and_then(Json::as_u64)
            .expect("ring_version")
            > ring_before,
        "ring version did not advance: {doc:?}"
    );
    let nodes = doc.get("nodes").and_then(Json::as_arr).expect("nodes");
    assert_eq!(
        nodes[0].get("state").and_then(Json::as_str),
        Some("dead"),
        "dead node not retired: {doc:?}"
    );
    assert_eq!(
        nodes[1].get("state").and_then(Json::as_str),
        Some("healthy")
    );
    coordinator.shutdown();
}

#[test]
fn drained_node_leaves_the_ring_but_sweeps_complete() {
    let spec = spec_text(14);
    let direct = direct_report(&spec, scratch("direct-drain"));

    let a = TestWorker::boot(scratch("drain-w0"), None);
    let b = TestWorker::boot(scratch("drain-w1"), None);
    let coordinator = TestCoordinator::boot(&[&a, &b]);
    let ring_before = coordinator
        .membership()
        .get("ring_version")
        .and_then(Json::as_u64)
        .expect("ring_version");

    let resp = http_post(&coordinator.addr, "/v1/fabric/nodes/w0/drain", "").expect("POST drain");
    assert_eq!(resp.status, 200, "drain body: {}", resp.text());
    let doc = Json::parse(&resp.text()).expect("drain JSON");
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("draining"));
    assert!(
        doc.get("ring_version")
            .and_then(Json::as_u64)
            .expect("version")
            > ring_before
    );

    // Unknown nodes 404.
    let missing =
        http_post(&coordinator.addr, "/v1/fabric/nodes/w9/drain", "").expect("POST drain");
    assert_eq!(missing.status, 404);

    // All cells land on the survivor; the report is unchanged.
    let (_, report) = run_sweep(&coordinator.addr, &spec);
    assert_eq!(report, direct, "report diverged after drain");
    let doc = coordinator.membership();
    let nodes = doc.get("nodes").and_then(Json::as_arr).expect("nodes");
    assert_eq!(
        nodes[0].get("state").and_then(Json::as_str),
        Some("draining")
    );
    assert_eq!(
        nodes[0].get("dispatched").and_then(Json::as_u64),
        Some(0),
        "drained node still received cells: {doc:?}"
    );
    coordinator.shutdown();
}

#[test]
fn progress_events_stream_with_node_attribution() {
    let spec = spec_text(15);
    let worker = TestWorker::boot(scratch("events-w0"), None);
    let coordinator = TestCoordinator::boot(&[&worker]);
    let (id, _) = run_sweep(&coordinator.addr, &spec);

    // The job is done, so the SSE stream replays every cell event and
    // the end record, then closes.
    let resp = http_get(&coordinator.addr, &format!("/v1/sweeps/{id}/events")).expect("GET events");
    assert_eq!(resp.status, 200);
    let events = sse_data_lines(&resp.text());
    assert_eq!(events.len(), 5, "4 cells + end record: {events:?}");
    for (i, line) in events[..4].iter().enumerate() {
        let doc = Json::parse(line).expect("event JSON");
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("cell"));
        assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(i as u64 + 1));
        assert_eq!(doc.get("total").and_then(Json::as_u64), Some(4));
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("simulated"));
        assert_eq!(doc.get("node").and_then(Json::as_str), Some("w0"));
    }
    let end = Json::parse(&events[4]).expect("end JSON");
    assert_eq!(end.get("event").and_then(Json::as_str), Some("end"));
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));
    coordinator.shutdown();
}

#[test]
fn identical_specs_coalesce_and_draining_rejects() {
    let worker = TestWorker::boot(scratch("coalesce-w0"), None);
    let coordinator = TestCoordinator::boot(&[&worker]);
    let spec = spec_text(16);
    let first = http_post(&coordinator.addr, "/v1/sweeps", &spec).expect("POST");
    assert_eq!(first.status, 202);
    let second = http_post(&coordinator.addr, "/v1/sweeps", &spec).expect("POST");
    assert_eq!(second.status, 202);
    let doc = Json::parse(&second.text()).expect("JSON");
    assert_eq!(doc.get("coalesced"), Some(&Json::Bool(true)));
    let id = Json::parse(&first.text())
        .expect("JSON")
        .get("id")
        .and_then(Json::as_str)
        .expect("id")
        .to_owned();
    // Let it finish so shutdown is quick, then verify drain rejects.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = http_get(&coordinator.addr, &format!("/v1/sweeps/{id}")).expect("GET");
        let doc = Json::parse(&status.text()).expect("JSON");
        if doc.get("state").and_then(Json::as_str) == Some("done") {
            assert_eq!(doc.get("coalesced").and_then(Json::as_u64), Some(1));
            break;
        }
        assert!(Instant::now() < deadline, "sweep never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    coordinator.handle.drain();
    // The accept loop may take a beat to observe the flag; the listener
    // closes once it does, after which submissions fail at the socket.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match http_post(&coordinator.addr, "/v1/sweeps", &spec_text(17)) {
            Ok(resp) if resp.status == 503 => break,
            Ok(_) | Err(_) if Instant::now() >= deadline => break,
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(_) => break,
        }
    }
}
