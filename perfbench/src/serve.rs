//! `serve_sweeps`: an in-process `dice-serve` on loopback with a fresh
//! `DiskCache` per server lifetime, driven by two closed-loop clients.
//!
//! A request is one sweep: `POST /v1/sweeps`, then the job's SSE event
//! stream until its `end` event, then `GET /v1/sweeps/:id/report`. The
//! client never sleeps, so request latency is the server's. Every report
//! body must equal `render_runs` of a direct in-process `Runner` run of
//! the same spec, made after the round.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dice_obs::Json;
use dice_runner::RunnerConfig;
use dice_serve::{
    http_get, http_post, render_runs, sse_data_lines, JobQueueConfig, ServeConfig, Server,
    SweepSpec,
};

use crate::harness::{check_digest, run_rounds, Measured, Sweep, JOBS};
use crate::inputs::serve_plan;
use crate::spans::Tracer;
use crate::stats::digest;

/// Requests a run needs so that ten lie beyond p99.
const MIN_REQUESTS: usize = 1000;
/// Closed-loop clients, and the server's connection workers.
const CLIENTS: usize = 2;
/// Health probes per traced server lifetime.
const HEALTH_PROBES: usize = 5;
/// Servers booted per round only to time set-up, besides the one that
/// serves the round: `setup_s` is the median of every boot.
const SETUP_BOOTS: usize = 9;

/// One completed request as the client saw it.
struct Served {
    /// The request body (a sweep spec).
    spec: String,
    /// Digest of the report body.
    body_digest: u64,
    /// Submission to report, in milliseconds.
    ms: f64,
    /// Whether the submission attached to an existing job.
    coalesced: bool,
    /// Cells the job simulated (zero when the request coalesced).
    simulated: u64,
    /// HTTP round trips the request took.
    round_trips: u64,
}

/// Totals over a run's requests, for the per-layer metrics.
#[derive(Default)]
struct ServeTotals {
    requests: u64,
    coalesced: u64,
    round_trips: u64,
}

/// Requests of the serve probe other workloads' traced runs make.
const PROBE_REQUESTS: usize = 8;

/// Runs the workload for `seconds` (longer if it still lacks samples).
pub fn run(seed: u64, seconds: u64, trace: bool, tracer: &Tracer, dir: &Path) -> Measured {
    run_plan(&serve_plan(seed), seconds, trace, tracer, dir, MIN_REQUESTS)
}

/// A short traced exchange with a freshly booted server, for the serve
/// metrics of workloads that do not drive the server themselves.
pub fn probe(dir: &Path) -> (Measured, Tracer) {
    let tracer = Tracer::new(true);
    let plan = &serve_plan(1)[..PROBE_REQUESTS];
    let m = run_plan(plan, 0, true, &tracer, dir, 0);
    (m, tracer)
}

/// Serves `plan` round after round until `seconds` have passed and at
/// least `min_requests` requests completed.
fn run_plan(
    plan: &[String],
    seconds: u64,
    trace: bool,
    tracer: &Tracer,
    dir: &Path,
    min_requests: usize,
) -> Measured {
    let records_per_cell = SweepSpec::parse(&plan[0])
        .expect("plan bodies are valid specs")
        .to_cells()
        .first()
        .map_or(0, crate::harness::cell_records);
    let mut m = Measured::default();
    let mut totals = ServeTotals::default();
    run_rounds(
        seconds,
        trace,
        tracer,
        &mut m,
        true,
        |m| m.request_ms.len() < min_requests,
        |m, tracer, round| {
            for boot in 0..SETUP_BOOTS {
                let cache = dir.join(format!("serve-boot-{round}-{boot}"));
                let (_, failed) = serve_round(&[], &cache, tracer, m);
                let _ = std::fs::remove_dir_all(&cache);
                for e in failed.iter().filter_map(|r| r.as_ref().err()) {
                    eprintln!("boot failed: {e}");
                    m.attempted += 1;
                    m.failed += 1;
                }
            }
            let cache = dir.join(format!("serve-cache-{round}"));
            let (wall, results) = serve_round(plan, &cache, tracer, m);
            let _ = std::fs::remove_dir_all(&cache);
            let mut simulated = 0;
            let mut served = Vec::with_capacity(results.len());
            for r in &results {
                m.attempted += 1;
                match r {
                    Ok(s) => {
                        m.request_ms.push(s.ms);
                        simulated += s.simulated;
                        totals.requests += 1;
                        totals.coalesced += u64::from(s.coalesced);
                        totals.round_trips += s.round_trips;
                        served.push((s.spec.clone(), s.body_digest));
                    }
                    Err(e) => {
                        eprintln!("request failed: {e}");
                        m.failed += 1;
                    }
                }
            }
            let ok = results.iter().filter(|r| r.is_ok()).count();
            m.requests_per_s.push(ok as f64 / wall);
            m.sim_records_per_s
                .push((simulated * records_per_cell) as f64 / wall);
            check_round(m, &served, tracer, round);
            wall
        },
    );
    if totals.requests > 0 {
        let n = totals.requests as f64;
        m.layer_extra.insert(
            "serve.round_trips_per_request",
            totals.round_trips as f64 / n,
        );
        m.layer_extra
            .insert("serve.coalesced_ratio", totals.coalesced as f64 / n);
    }
    m
}

/// One server lifetime: boot, serve the plan to [`CLIENTS`] closed-loop
/// clients, drain. Returns the wall time of the request phase and every
/// request's outcome. With an empty plan the server only boots, answers
/// `/healthz` and drains.
fn serve_round(
    plan: &[String],
    cache: &Path,
    tracer: &Tracer,
    m: &mut Measured,
) -> (f64, Vec<Result<Served, String>>) {
    let t0 = Instant::now();
    let server = Server::bind(ServeConfig {
        port: 0,
        conn_workers: CLIENTS,
        conn_backlog: 64,
        queue: JobQueueConfig {
            capacity: 64,
            workers: 1,
            runner: RunnerConfig {
                jobs: JOBS,
                cache_dir: Some(cache.to_path_buf()),
                verbose: false,
                ..RunnerConfig::default()
            },
        },
    })
    .expect("binding an ephemeral loopback port");
    let addr = server
        .local_addr()
        .expect("bound listener has an address")
        .to_string();
    let handle = server.handle();
    std::thread::scope(|scope| {
        let srv = scope.spawn(|| server.run());
        let healthy = wait_healthy(&addr);
        m.setup_s.push(t0.elapsed().as_secs_f64());
        if !healthy {
            handle.drain();
            let _ = srv.join();
            return (
                t0.elapsed().as_secs_f64(),
                vec![Err("server never answered /healthz".to_owned())],
            );
        }
        for _ in 0..HEALTH_PROBES {
            if let Some(_span) = tracer.span("serve.healthz") {
                let _ = http_get(&addr, "/healthz");
            }
        }

        let next = AtomicUsize::new(0);
        let results = Mutex::new(Vec::with_capacity(plan.len()));
        let t1 = Instant::now();
        std::thread::scope(|clients| {
            for _ in 0..CLIENTS {
                clients.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = plan.get(i) else { return };
                    let r = request(&addr, spec, tracer);
                    results.lock().expect("results poisoned").push(r);
                });
            }
        });
        let wall = t1.elapsed().as_secs_f64();
        handle.drain();
        if let Ok(Err(e)) = srv.join() {
            eprintln!("server stopped with an error: {e}");
        }
        (wall, results.into_inner().expect("results poisoned"))
    })
}

/// Polls `/healthz` until it answers 200 (at most ten seconds).
fn wait_healthy(addr: &str) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if http_get(addr, "/healthz").is_ok_and(|r| r.status == 200) {
            return true;
        }
    }
    false
}

/// One closed-loop request: submit, follow the event stream to its end,
/// fetch the report.
fn request(addr: &str, spec: &str, tracer: &Tracer) -> Result<Served, String> {
    let t0 = Instant::now();
    let mut round_trips = 0;
    let (id, coalesced) = loop {
        let _span = tracer.span("serve.post");
        let resp = http_post(addr, "/v1/sweeps", spec).map_err(|e| format!("POST: {e}"))?;
        round_trips += 1;
        match resp.status {
            202 => {
                let doc = Json::parse(&resp.text()).map_err(|e| format!("POST body: {e}"))?;
                let id = doc
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("POST body has no id")?
                    .to_owned();
                break (id, doc.get("coalesced") == Some(&Json::Bool(true)));
            }
            429 => continue,
            s => return Err(format!("POST: HTTP {s}: {}", resp.text())),
        }
    };

    let events = {
        let _span = tracer.span("serve.status");
        http_get(addr, &format!("/v1/sweeps/{id}/events")).map_err(|e| format!("events: {e}"))?
    };
    round_trips += 1;
    let lines = sse_data_lines(&events.text());
    let mut simulated = 0;
    let mut end = None;
    for line in &lines {
        let doc = Json::parse(line).map_err(|e| format!("event: {e}"))?;
        match doc.get("event").and_then(Json::as_str) {
            Some("cell") if doc.get("status").and_then(Json::as_str) == Some("simulated") => {
                simulated += 1;
            }
            Some("end") => end = doc.get("state").and_then(Json::as_str).map(str::to_owned),
            _ => {}
        }
    }
    if end.as_deref() != Some("done") {
        return Err(format!("job {id} ended as {end:?}"));
    }

    let report = {
        let _span = tracer.span("serve.report");
        http_get(addr, &format!("/v1/sweeps/{id}/report")).map_err(|e| format!("report: {e}"))?
    };
    round_trips += 1;
    if report.status != 200 {
        return Err(format!("report: HTTP {}", report.status));
    }
    Ok(Served {
        spec: spec.to_owned(),
        body_digest: digest([report.text().as_str()]),
        ms: t0.elapsed().as_secs_f64() * 1e3,
        coalesced,
        simulated: if coalesced { 0 } else { simulated },
        round_trips,
    })
}

/// Runs every distinct spec of a round directly through `Runner` and
/// checks each served body against `render_runs` of that run. The direct
/// runs' cells are the workload's cell samples; running them after every
/// round spreads those samples over the whole run. They run one cell at a
/// time, because the two CPUs slow each other down: two of these 3 ms
/// cells side by side took 7–8 ms at p90, against 4.1–4.4 ms one at a
/// time, and their p50 ranged 30% over four runs, against 13%. The digest
/// of the direct bodies must repeat in every round.
fn check_round(m: &mut Measured, served: &[(String, u64)], tracer: &Tracer, round: usize) {
    let distinct: BTreeMap<&str, ()> = served.iter().map(|(s, _)| (s.as_str(), ())).collect();
    let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
    let mut bodies = Vec::new();
    for (i, spec) in distinct.keys().enumerate() {
        let cells = SweepSpec::parse(spec)
            .expect("plan bodies are valid specs")
            .to_cells();
        let sweep = Sweep::run(cells.clone(), 1);
        m.sweeps.push(sweep.stats(cells.len()));
        sweep.record(m, tracer, spec);
        let body = {
            let _span = tracer.span("serve.render_runs");
            render_runs(&sweep.result).render()
        };
        expected.insert(spec, digest([body.as_str()]));
        bodies.push(body);
        if round == 0 {
            if i == 0 {
                m.sample = cells;
            }
            for (tag, wl, report) in sweep.reports() {
                m.reports.push((tag, format!("{wl}#{i}"), report));
            }
        }
    }
    let round_digest = digest(bodies.iter().map(String::as_str));
    check_digest(m, round, round_digest, bodies.len());
    for (spec, got) in served {
        m.attempted += 1;
        if expected.get(spec.as_str()) != Some(got) {
            eprintln!("served report for {spec} differs from a direct runner run");
            m.failed += 1;
        }
    }
}
