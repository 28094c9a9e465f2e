//! `dice-serve-loadgen`: the CI probe client for `dice-serve` and the
//! fabric coordinator.
//!
//! Modes:
//!
//! ```text
//! # submit one sweep and print the canonical report body (byte-exact):
//! dice-serve-loadgen --url 127.0.0.1:PORT --spec '<json>'
//!
//! # run the same spec directly through dice-runner and print the same
//! # canonical body (byte-exact), for equivalence checks:
//! dice-serve-loadgen --direct '<json>'
//!
//! # fetch /metrics and validate it as Prometheus 0.0.4 exposition:
//! dice-serve-loadgen --url 127.0.0.1:PORT --check-metrics
//!
//! # submit a tiny sweep and validate /v1/sweeps/:id/trace as a Chrome
//! # trace:
//! dice-serve-loadgen --url 127.0.0.1:PORT --check-trace
//! ```
//!
//! Serving throughput is measured by the repository benchmark
//! (`BENCHMARK.json`, workload `serve_sweeps`), not by this client.

use std::io::Write;
use std::time::{Duration, Instant};

use dice_obs::cli::Flags;
use dice_obs::{validate_chrome_trace, Json};
use dice_runner::{Runner, RunnerConfig};
use dice_serve::{http_get, http_post, render_runs, validate_prometheus, SweepSpec};

/// The modes, printed when none is given.
fn usage() -> ! {
    eprintln!(
        "usage: dice-serve-loadgen --url HOST:PORT --spec '<json>'\n\
         \x20      dice-serve-loadgen --direct '<json>'\n\
         \x20      dice-serve-loadgen --url HOST:PORT --check-metrics\n\
         \x20      dice-serve-loadgen --url HOST:PORT --check-trace"
    );
    std::process::exit(2);
}

/// Accepts `http://host:port[/]` or bare `host:port`.
fn normalize_url(url: &str) -> String {
    url.trim_start_matches("http://")
        .trim_end_matches('/')
        .to_owned()
}

/// The tiny sweep `--check-trace` submits.
const PROBE_SPEC: &str =
    r#"{"orgs":["base"],"workloads":["gcc"],"scale":4096,"warmup":50,"measure":150,"seed":0}"#;

/// Prints exactly `body` (no trailing newline) so shell `cmp` against
/// another emitter's output is meaningful.
fn emit_body(body: &str) {
    let mut out = std::io::stdout();
    out.write_all(body.as_bytes()).expect("write stdout");
    out.flush().expect("flush stdout");
}

/// `--direct`: run the spec through the runner in-process and print the
/// canonical document.
fn run_direct(spec_text: &str) -> i32 {
    let spec = match SweepSpec::parse(spec_text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("dice-serve-loadgen: {e}");
            return 2;
        }
    };
    let runner = Runner::new(RunnerConfig::default()).expect("no cache dir, cannot fail");
    let result = runner.run(spec.to_cells());
    emit_body(&render_runs(&result).render());
    0
}

/// Submits one spec and waits for the report body; returns
/// `(job id, body)`. `Err` carries a human-readable failure.
fn submit_and_wait(addr: &str, spec_text: &str) -> Result<(String, String), String> {
    let submitted = loop {
        let resp = http_post(addr, "/v1/sweeps", spec_text)
            .map_err(|e| format!("POST /v1/sweeps: {e}"))?;
        match resp.status {
            202 => break resp,
            429 => std::thread::sleep(Duration::from_millis(100)),
            s => return Err(format!("POST /v1/sweeps: HTTP {s}: {}", resp.text())),
        }
    };
    let body = Json::parse(&submitted.text()).map_err(|e| format!("submit response: {e}"))?;
    let id = body
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit response missing id")?
        .to_owned();

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status =
            http_get(addr, &format!("/v1/sweeps/{id}")).map_err(|e| format!("GET status: {e}"))?;
        let doc = Json::parse(&status.text()).map_err(|e| format!("status response: {e}"))?;
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("failed") => return Err(format!("sweep failed: {}", status.text())),
            Some("cancelled") => return Err("sweep cancelled".to_owned()),
            _ if Instant::now() > deadline => return Err("sweep timed out".to_owned()),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let report = http_get(addr, &format!("/v1/sweeps/{id}/report"))
        .map_err(|e| format!("GET report: {e}"))?;
    if report.status != 200 {
        return Err(format!("GET report: HTTP {}", report.status));
    }
    Ok((id, report.text()))
}

/// `--check-trace`: run a tiny sweep, then require the trace endpoint
/// to answer 200 with a valid Chrome trace. Returns its event count;
/// `Err` carries a human-readable failure.
fn check_trace(addr: &str) -> Result<usize, String> {
    let (id, _body) = submit_and_wait(addr, PROBE_SPEC)?;
    let resp =
        http_get(addr, &format!("/v1/sweeps/{id}/trace")).map_err(|e| format!("GET trace: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET trace: HTTP {}", resp.status));
    }
    let doc = Json::parse(&resp.text()).map_err(|e| format!("trace is not JSON: {e}"))?;
    validate_chrome_trace(&doc).map_err(|e| format!("trace invalid: {e}"))?;
    Ok(doc.as_arr().map_or(0, <[Json]>::len))
}

fn main() {
    let mut flags = Flags::from_env("dice-serve-loadgen");
    let url = flags.value("--url").map(|url| normalize_url(&url));
    let spec = flags.value("--spec");
    let direct = flags.value("--direct");
    let probe_metrics = flags.switch("--check-metrics");
    let probe_trace = flags.switch("--check-trace");
    flags.finish();

    if let Some(spec) = &direct {
        std::process::exit(run_direct(spec));
    }

    let Some(addr) = url.as_deref() else {
        usage();
    };

    if probe_metrics {
        let resp = match http_get(addr, "/metrics") {
            Ok(resp) if resp.status == 200 => resp,
            Ok(resp) => {
                eprintln!("dice-serve-loadgen: GET /metrics: HTTP {}", resp.status);
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("dice-serve-loadgen: GET /metrics: {e}");
                std::process::exit(1);
            }
        };
        match validate_prometheus(&resp.text()) {
            Ok(()) => {
                println!("/metrics is valid Prometheus exposition");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("dice-serve-loadgen: /metrics invalid: {e}");
                std::process::exit(1);
            }
        }
    }

    if probe_trace {
        match check_trace(addr) {
            Ok(events) => {
                println!("/v1/sweeps/:id/trace is a valid Chrome trace ({events} events)");
            }
            Err(e) => {
                eprintln!("dice-serve-loadgen: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let Some(spec) = &spec else {
        usage();
    };
    match submit_and_wait(addr, spec) {
        Ok((_id, body)) => emit_body(&body),
        Err(e) => {
            eprintln!("dice-serve-loadgen: {e}");
            std::process::exit(1);
        }
    }
}
