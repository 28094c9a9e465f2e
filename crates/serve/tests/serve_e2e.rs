//! End-to-end tests: a real `Server` on an ephemeral port, driven over
//! real sockets with the crate's own client.
//!
//! Every test boots its own server, and the single-flight tests read
//! that server's own `/metrics`, so the tests run concurrently.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use dice_obs::Json;
use dice_runner::{Runner, RunnerConfig};
use dice_serve::jobs::JobQueueConfig;
use dice_serve::{
    http_get, http_post, render_runs, validate_prometheus, ServeConfig, Server, SweepSpec,
};

/// A tiny sweep spec; `seed` varies the single-flight identity.
fn spec_text(seed: u64) -> String {
    format!(
        r#"{{"orgs":["base","dice36"],"workloads":["gcc"],"scale":4096,"warmup":50,"measure":150,"seed":{seed}}}"#
    )
}

struct TestServer {
    addr: String,
    handle: dice_serve::Handle,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    /// Boots a server on port 0 with the given queue shape.
    fn boot(capacity: usize, sweep_workers: usize, cache_dir: Option<std::path::PathBuf>) -> Self {
        let config = ServeConfig {
            port: 0,
            conn_workers: 4,
            conn_backlog: 16,
            queue: JobQueueConfig {
                capacity,
                workers: sweep_workers,
                runner: RunnerConfig {
                    jobs: 2,
                    cache_dir,
                    verbose: false,
                    ..RunnerConfig::default()
                },
            },
        };
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr().expect("bound addr").to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || {
            server.run().expect("server run");
        });
        TestServer {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    /// Drains and joins; the server thread must exit.
    fn shutdown(mut self) {
        self.handle.drain();
        let thread = self.thread.take().expect("not yet joined");
        let mut waited = 0;
        while !thread.is_finished() && waited < 3_000 {
            std::thread::sleep(Duration::from_millis(10));
            waited += 10;
        }
        assert!(thread.is_finished(), "server did not drain within 30s");
        thread.join().expect("server thread");
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.drain();
            self.handle.force_cancel();
            let _ = thread.join();
        }
    }
}

/// Polls a job to `done` and returns the report body.
fn wait_report(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = http_get(addr, &format!("/v1/sweeps/{id}")).expect("GET status");
        assert_eq!(status.status, 200, "status body: {}", status.text());
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
    report.text()
}

/// Counter `name` (Prometheus spelling) from the server's `/metrics`; a
/// counter never bumped reads 0.
fn counter(addr: &str, name: &str) -> u64 {
    let metrics = http_get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(metrics.status, 200);
    metrics
        .text()
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

fn submit(addr: &str, spec: &str) -> (String, bool) {
    let resp = http_post(addr, "/v1/sweeps", spec).expect("POST sweep");
    assert_eq!(resp.status, 202, "submit body: {}", resp.text());
    let doc = Json::parse(&resp.text()).expect("submit JSON");
    (
        doc.get("id")
            .and_then(Json::as_str)
            .expect("id field")
            .to_owned(),
        doc.get("coalesced") == Some(&Json::Bool(true)),
    )
}

#[test]
fn plumbing_endpoints_work() {
    let server = TestServer::boot(4, 1, None);
    let addr = &server.addr;

    let health = http_get(addr, "/healthz").expect("GET /healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "ok\n");

    let version = http_get(addr, "/version").expect("GET /version");
    assert_eq!(version.status, 200);
    let doc = Json::parse(&version.text()).expect("version JSON");
    assert_eq!(doc.get("name").and_then(Json::as_str), Some("dice-serve"));
    assert_eq!(
        doc.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );

    // The experiment catalog must be byte-identical to `experiments
    // --list` (both emit catalog_json().render()).
    let experiments = http_get(addr, "/v1/experiments").expect("GET /v1/experiments");
    assert_eq!(experiments.status, 200);
    assert_eq!(experiments.text(), dice_bench::catalog_json().render());

    // /metrics is valid Prometheus exposition, including after traffic.
    let metrics = http_get(addr, "/metrics").expect("GET /metrics");
    assert_eq!(metrics.status, 200);
    validate_prometheus(&metrics.text()).expect("valid exposition");
    assert!(
        metrics.text().contains("serve_http_requests"),
        "request counter missing:\n{}",
        metrics.text()
    );

    // Errors are well-formed too.
    let missing = http_get(addr, "/nope").expect("GET /nope");
    assert_eq!(missing.status, 404);
    let wrong_method = http_post(addr, "/healthz", "{}").expect("POST /healthz");
    assert_eq!(wrong_method.status, 405);
    let bad_spec = http_post(addr, "/v1/sweeps", "{\"orgs\":[]}").expect("bad spec");
    assert_eq!(bad_spec.status, 400);
    let bad_json = http_post(addr, "/v1/sweeps", "not json").expect("bad json");
    assert_eq!(bad_json.status, 400);
    let unknown_job = http_get(addr, "/v1/sweeps/00000000deadbeef").expect("unknown job");
    assert_eq!(unknown_job.status, 404);
    let unknown_trace = http_get(addr, "/v1/sweeps/00000000deadbeef/trace").expect("unknown trace");
    assert_eq!(unknown_trace.status, 404);
    let unknown_events =
        http_get(addr, "/v1/sweeps/00000000deadbeef/events").expect("unknown events");
    assert_eq!(unknown_events.status, 404);
    let bad_events_id = http_get(addr, "/v1/sweeps/nothex/events").expect("bad events id");
    assert_eq!(bad_events_id.status, 400);

    server.shutdown();
}

/// Extracts and parses the `data:` payloads of an SSE body (heartbeat
/// comments and blank separators are skipped).
fn sse_data_lines(body: &str) -> Vec<Json> {
    body.lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .map(|t| Json::parse(t).expect("event JSON"))
        .collect()
}

#[test]
fn sse_streams_cell_events_in_order_and_trace_is_one_linked_tree() {
    let server = TestServer::boot(4, 1, None);
    let addr = server.addr.clone();
    let (id, _) = submit(&addr, &spec_text(71));

    // Read the event stream concurrently with the running sweep; the call
    // returns when the server closes the chunked stream.
    let reader = {
        let addr = addr.clone();
        let id = id.clone();
        std::thread::spawn(move || {
            http_get(&addr, &format!("/v1/sweeps/{id}/events")).expect("GET events")
        })
    };
    let resp = reader.join().expect("reader thread");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("transfer-encoding"), Some("chunked"));
    assert_eq!(resp.header("content-type"), Some("text/event-stream"));

    // Two cell events in completion order, then the end marker.
    let events = sse_data_lines(&resp.text());
    assert_eq!(events.len(), 3, "2 cells + end, got: {events:?}");
    for (i, ev) in events[..2].iter().enumerate() {
        assert_eq!(ev.get("event").and_then(Json::as_str), Some("cell"));
        assert_eq!(ev.get("seq").and_then(Json::as_u64), Some(i as u64 + 1));
        assert_eq!(ev.get("total").and_then(Json::as_u64), Some(2));
        assert_eq!(ev.get("status").and_then(Json::as_str), Some("simulated"));
    }
    let end = &events[2];
    assert_eq!(end.get("event").and_then(Json::as_str), Some("end"));
    assert_eq!(end.get("state").and_then(Json::as_str), Some("done"));

    // The merged Chrome trace validates and forms exactly one causal
    // tree: every parent link resolves and a single root remains.
    let trace = http_get(&addr, &format!("/v1/sweeps/{id}/trace")).expect("GET trace");
    assert_eq!(trace.status, 200);
    let doc = Json::parse(&trace.text()).expect("trace JSON");
    dice_obs::validate_chrome_trace(&doc).expect("valid Chrome trace");
    let spans: Vec<&Json> = doc
        .as_arr()
        .expect("array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    let ids: HashSet<u64> = spans
        .iter()
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("id"))
                .and_then(Json::as_u64)
                .expect("span id")
        })
        .collect();
    let mut roots = Vec::new();
    for span in &spans {
        match span
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Json::as_u64)
        {
            Some(parent) => assert!(ids.contains(&parent), "dangling parent in {span:?}"),
            None => roots.push(span.get("name").and_then(Json::as_str).expect("name")),
        }
    }
    assert_eq!(roots.len(), 1, "one root span, got {roots:?}");
    assert!(roots[0].starts_with("sweep "));
    assert!(
        spans.len() >= 1 + 2 + 4,
        "root + 2 cells + 2 phases each, got {}",
        spans.len()
    );

    server.shutdown();
}

#[test]
fn drain_closes_event_streams_cleanly() {
    // One sweep worker: the second submission waits in the queue, so a
    // drain (the SIGTERM path — dice-serve's signal watcher calls
    // Handle::drain) can catch its event stream mid-flight.
    let server = TestServer::boot(8, 1, None);
    let addr = server.addr.clone();
    let (_running, _) = submit(&addr, &spec_text(81));
    let (queued, _) = submit(&addr, &spec_text(82));

    let reader = std::thread::spawn(move || {
        http_get(&addr, &format!("/v1/sweeps/{queued}/events")).expect("GET events")
    });
    std::thread::sleep(Duration::from_millis(100));
    server.handle.drain();

    // The stream must terminate with an end marker and a clean chunked
    // close (read_response only returns once the final chunk arrives).
    let resp = reader.join().expect("reader thread");
    assert_eq!(resp.status, 200);
    let events = sse_data_lines(&resp.text());
    let end = events.last().expect("at least the end event");
    assert_eq!(end.get("event").and_then(Json::as_str), Some("end"));
    let state = end
        .get("state")
        .and_then(Json::as_str)
        .expect("end event state");
    // Usually "cancelled" (drain hit it while queued); "done" if the
    // worker already claimed it. Either way the close was clean.
    assert!(
        state == "cancelled" || state == "done",
        "unexpected terminal state {state:?}"
    );

    server.shutdown();
}

#[test]
fn served_report_is_byte_identical_to_direct_runner() {
    let scratch = std::env::temp_dir().join(format!("dice-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let server = TestServer::boot(4, 1, Some(scratch.clone()));
    let addr = &server.addr;

    let spec = spec_text(11);
    let (id, coalesced) = submit(addr, &spec);
    assert!(!coalesced);
    let served_cold = wait_report(addr, &id);

    // Direct invocation: same spec through the runner, no server, no
    // cache. The determinism contract makes the documents byte-equal.
    let parsed = SweepSpec::parse(&spec).expect("valid spec");
    let runner = Runner::new(RunnerConfig {
        jobs: 1,
        ..RunnerConfig::default()
    })
    .expect("runner");
    let direct = render_runs(&runner.run(parsed.to_cells())).render();
    assert_eq!(served_cold, direct, "served report drifted from direct run");

    // Warm path: resubmitting coalesces onto the finished job and reads
    // the same bytes without running the sweep again.
    let completed_before = counter(addr, "serve_sweeps_completed");
    let coalesced_before = counter(addr, "serve_sweeps_coalesced");
    let (warm_id, warm_coalesced) = submit(addr, &spec);
    assert_eq!(warm_id, id);
    assert!(warm_coalesced);
    let served_warm = wait_report(addr, &warm_id);
    assert_eq!(served_warm, direct);
    assert_eq!(
        counter(addr, "serve_sweeps_completed"),
        completed_before,
        "warm read ran the sweep"
    );
    assert_eq!(
        counter(addr, "serve_sweeps_coalesced"),
        coalesced_before + 1
    );

    // The sweep's cells were persisted by the server's disk cache.
    let cached_entries = std::fs::read_dir(&scratch)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert!(
        cached_entries >= 2,
        "expected persisted cells in {scratch:?}"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn concurrent_identical_posts_single_flight() {
    let server = TestServer::boot(8, 2, None);
    let addr = server.addr.clone();

    let spec = spec_text(23);
    let results: Vec<(String, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let spec = spec.clone();
                scope.spawn(move || submit(&addr, &spec))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter"))
            .collect()
    });

    // All eight submissions landed on one job…
    let first_id = results[0].0.clone();
    assert!(results.iter().all(|(id, _)| *id == first_id));
    // …exactly one of which was the non-coalesced original.
    assert_eq!(results.iter().filter(|(_, c)| !c).count(), 1);

    // All eight read identical bytes.
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = addr.clone();
                let id = first_id.clone();
                scope.spawn(move || wait_report(&addr, &id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader"))
            .collect()
    });
    assert!(bodies.iter().all(|b| *b == bodies[0]));
    assert!(bodies[0].starts_with("{\"runs\":["));

    // Single-flight proof: eight identical submissions, one sweep run.
    assert_eq!(
        counter(&addr, "serve_sweeps_completed"),
        1,
        "coalescing failed: more than one sweep executed"
    );

    server.shutdown();
}

#[test]
fn overload_answers_429_with_retry_after() {
    // capacity 2, one worker: the queue fills almost immediately.
    let server = TestServer::boot(2, 1, None);
    let addr = &server.addr;

    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for seed in 100..112 {
        let resp = http_post(addr, "/v1/sweeps", &spec_text(seed)).expect("POST sweep");
        match resp.status {
            202 => accepted += 1,
            429 => {
                assert_eq!(
                    resp.header("retry-after"),
                    Some("1"),
                    "429 must carry Retry-After"
                );
                rejected += 1;
            }
            s => panic!("unexpected status {s}: {}", resp.text()),
        }
    }
    assert!(accepted >= 1, "at least the first sweep must be admitted");
    assert!(
        rejected >= 1,
        "12 rapid distinct sweeps at capacity 2 must overflow"
    );

    server.shutdown();
}

#[test]
fn drain_finishes_inflight_and_refuses_new_work() {
    let server = TestServer::boot(8, 1, None);
    let addr = server.addr.clone();

    let (id, _) = submit(&addr, &spec_text(57));
    // Wait for a worker to claim the job: drain cancels queued-but-not-
    // started jobs, and this test is about the in-flight path.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = http_get(&addr, &format!("/v1/sweeps/{id}")).expect("GET status");
        let doc = Json::parse(&status.text()).expect("status JSON");
        match doc.get("state").and_then(Json::as_str) {
            Some("running" | "done") => break,
            _ => {
                assert!(Instant::now() < deadline, "job never started");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    server.handle.drain();

    // The in-flight job still runs to completion and stays readable
    // through the queue handle (the listener may already be closed).
    let deadline = Instant::now() + Duration::from_secs(30);
    let body = loop {
        match http_get(&addr, &format!("/v1/sweeps/{id}/report")) {
            Ok(resp) if resp.status == 200 => break Some(resp.text()),
            Ok(resp) if resp.status == 409 => std::thread::sleep(Duration::from_millis(10)),
            Ok(resp) => panic!("unexpected status {}", resp.status),
            // Listener already drained: connection refused ends the
            // observable window; the drain test below still proves the
            // server exited cleanly.
            Err(_) => break None,
        }
        if Instant::now() > deadline {
            panic!("report never became ready during drain");
        }
    };
    if let Some(body) = &body {
        assert!(body.starts_with("{\"runs\":["));
    }

    server.shutdown();
}
