//! `dice-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig10_cold|serve_sweeps --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! every end-to-end metric; with `--trace 1` it carries every per-layer
//! metric instead. The lines before it give the run's metadata, the output
//! digest and a human-readable summary. See `perfbench/README.md`.

mod fig10;
mod harness;
mod inputs;
mod layers;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use dice_obs::Json;

use crate::harness::Measured;
use crate::layers::Layers;
use crate::spans::Tracer;
use crate::stats::{greatest, least, median, tail_percentile};

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const WORKLOADS: [&str; 2] = ["fig10_cold", "serve_sweeps"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The scratch directory a run writes its traces and caches to: inside
/// the working directory, unique to the process, removed at exit.
fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench-work").join(std::process::id().to_string())
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average, or -1 where the host does not expose it.
fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// The checkout's git revision, or `unknown` outside a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order.
///
/// Every round repeats the same work, so the per-round metrics report the
/// best round and the cell times each cell's best round: on a shared host
/// the neighbours' work slows whole rounds at a time, by a fifth or more,
/// and the best of many rounds repeats from run to run where their median
/// does not. A request percentile needs one sample per request.
fn end_to_end(m: &Measured) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let tail = |samples: &[f64], p: f64, what: &str| {
        tail_percentile(samples, p).ok_or_else(|| {
            format!(
                "{what}: {} samples leave fewer than ten beyond p{p}",
                samples.len()
            )
        })
    };
    let cell_best = m.cell_best();
    let cell_p50 = median(&cell_best);
    // Where a request is a cell, its p50 is the cells' p50; its p99 needs
    // 1000 samples, more than there are cells, so it takes every cell run.
    let (request_p50, requests) = if m.requests_are_cells {
        (cell_p50, m.cell_runs())
    } else {
        (median(&m.request_ms), m.request_ms.clone())
    };
    Ok(vec![
        ("setup_s", median(&m.setup_s), "s"),
        ("wall_s", least(&m.wall_s), "s"),
        ("sim_records_per_s", greatest(&m.sim_records_per_s), "1/s"),
        ("cell_ms_p50", cell_p50, "ms"),
        ("cell_ms_p90", tail(&cell_best, 90.0, "cell_ms")?, "ms"),
        ("requests_per_s", greatest(&m.requests_per_s), "1/s"),
        ("request_ms_p50", request_p50, "ms"),
        ("request_ms_p99", tail(&requests, 99.0, "request_ms")?, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ])
}

fn run(args: &Args) -> Result<(Measured, Layers), String> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let tracer = Tracer::new(args.trace);
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    let m = match args.workload.as_str() {
        "fig10_cold" => fig10::run(seed, secs, trace, &tracer),
        _ => serve::run(seed, secs, trace, &tracer, &dir),
    };
    let layers = if args.trace {
        layers::measure(&args.workload, &m, &tracer, &dir)
    } else {
        Layers::new()
    };
    Ok((m, layers))
}

/// Fixes glibc's mmap and trim thresholds. By default glibc raises them
/// at run time after large frees, so how much memory a run keeps mapped
/// depends on the order in which its threads happened to free; with fixed
/// thresholds peak RSS repeats from run to run.
fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets allocator tunables. It runs first
        // thing in `main`, before any other thread exists, and both values
        // are within the ranges glibc documents for these parameters.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 256 << 20);
        }
    }
}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dice-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let load_before = loadavg_1m();
    let result = run(&args);
    let _ = std::fs::remove_dir_all(work_dir());
    let _ = std::fs::remove_dir(".perfbench-work");
    let (m, layers) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dice-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        layers.iter().map(|(k, (v, u))| (*k, *v, *u)).collect()
    } else {
        match end_to_end(&m) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("dice-perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let error_rate = m.failed as f64 / m.attempted.max(1) as f64;

    let meta = Json::Obj(vec![
        ("workload".into(), Json::str(&args.workload)),
        ("seed".into(), Json::u64(args.seed)),
        ("seconds".into(), Json::u64(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        (
            "host_cpus".into(),
            Json::u64(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("git_rev".into(), Json::str(git_rev())),
        ("loadavg_1m_before".into(), Json::num(load_before)),
        ("loadavg_1m_after".into(), Json::num(loadavg_1m())),
        (
            "round_wall_s".into(),
            Json::Arr(m.wall_s.iter().map(|w| Json::num(*w)).collect()),
        ),
        (
            "traced_round_wall_s".into(),
            Json::Arr(m.traced_wall_s.iter().map(|w| Json::num(*w)).collect()),
        ),
        (
            "output_digest".into(),
            Json::str(format!("{:016x}", m.digest)),
        ),
        ("error_rate".into(), Json::num(error_rate)),
    ]);
    println!("{}", Json::Obj(vec![("meta".into(), meta)]).render());
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!(
        "  {:<36} {:>16.6} ratio ({} of {} operations failed)",
        "error_rate", error_rate, m.failed, m.attempted
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(m.failed == 0)),
        ("attempted".into(), Json::u64(m.attempted.max(1))),
        ("failed".into(), Json::u64(m.failed)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            (*name).to_owned(),
                            Json::Obj(vec![
                                ("value".into(), Json::num(*value)),
                                ("unit".into(), Json::str(*unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
