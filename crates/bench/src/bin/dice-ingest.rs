//! Trace ingestion tool: packs traces into the `.dtf` container and runs
//! sweeps straight off the packed file.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dice-bench --bin dice-ingest -- <command> [flags]
//!
//! commands:
//!   gen     generate a synthetic multi-core trace and pack it
//!             --out PATH      output .dtf file (required)
//!             --spec NAME     workload spec driving the generator (mcf)
//!             --cores N       independent streams, 1 to 1024 (8)
//!             --records N     records per stream, positive (100000)
//!             --seed N        generator seed (53709)
//!             --scale N       footprint scale divisor, a power of two
//!                             up to 8192 (256)
//!             --no-compress   store frames raw
//!   pack    convert a text trace (`gap line_hex r|w` per line) to .dtf
//!             --in PATH --out PATH [--no-compress]
//!   unpack  write one stream of a .dtf back out as a text trace
//!             --in PATH --out PATH [--core N]
//!   info    validate a .dtf and print its statistics
//!             --in PATH [--strict]
//!   sweep   simulate the organization sweep on a packed trace
//!             --in PATH       the trace to drive every core from
//!             --spec NAME     value/compressibility model (mcf)
//!             --seed N        data-model seed (7)
//!             --scale N       system scale divisor, a power of two up
//!                             to 8192 (256)
//!             --warmup N      warm-up records per core (20000)
//!             --measure N     measured records per core (60000)
//!             --jobs N        worker threads, positive (default: all
//!                             cores)
//! ```
//!
//! `sweep` streams the trace off disk with bounded memory, prints a
//! deterministic JSON report on stdout (identical for any `--jobs`), and
//! the runner's summary with `tail_idle_ms=` on stderr.
//! A malformed flag or an out-of-bounds value exits 2 with one stderr
//! line naming it, before any file is written or cell declared.

use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

use dice_core::Organization;
use dice_ingest::{pack_records, scan, DtfWriter, TraceBinding, MAX_CORES};
use dice_obs::cli::Flags;
use dice_obs::{DiceError, DiceResult, Json};
use dice_runner::{Cell, Runner, RunnerConfig};
use dice_sim::{RunReport, SimConfig, WorkloadSet};
use dice_workloads::{spec_table, TraceGen, TraceRecord, WorkloadSpec};

/// The workload spec `--spec` names (`mcf` when absent).
fn spec_flag(flags: &mut Flags) -> WorkloadSpec {
    let name = flags.value("--spec").unwrap_or_else(|| "mcf".to_owned());
    spec_table()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| flags.refuse(format!("--spec {name:?} is not a workload spec")))
}

fn fail(context: &str, e: &dyn std::fmt::Display) -> ! {
    eprintln!("[dice-ingest] {context}: {e}");
    std::process::exit(1);
}

/// `gen`: pack synthetic per-core generator streams.
fn cmd_gen(flags: &mut Flags) {
    let out = PathBuf::from(flags.required("--out"));
    let spec = spec_flag(flags);
    let cores = flags.count("--cores", 8_u32);
    if cores > MAX_CORES {
        flags.refuse(format!("--cores must be at most {MAX_CORES}"));
    }
    let records = flags.number("--records", 100_000);
    let seed = flags.number("--seed", 0xd1cd);
    let scale = flags.number("--scale", 256);
    let compress = !flags.switch("--no-compress");
    flags.finish();
    // A policy, not a need of any sweep: the file stores neither value,
    // and a sweep reads its own --scale. Holding --scale and --records
    // to the bounds of a sweep's --scale and --measure gives each flag
    // one rule in this binary, and refuses --scale 0 (a divide by zero)
    // and --records 0 (an empty trace) before the file exists.
    if let Err((field, rule)) = SimConfig::check_bounds(scale, records) {
        let flag = if field == "measure" { "records" } else { field };
        flags.refuse(format!("--{flag} {rule}"));
    }
    let mut w = DtfWriter::create(&out, cores, compress)
        .unwrap_or_else(|e| fail(&format!("creating {}", out.display()), &e));
    for core in 0..cores {
        let mut gen = TraceGen::with_scale(&spec, core, seed, scale);
        for _ in 0..records {
            w.push_record(core, gen.next_record())
                .unwrap_or_else(|e| fail("encoding records", &e));
        }
    }
    let stats = w
        .finish()
        .unwrap_or_else(|e| fail(&format!("writing {}", out.display()), &e));
    eprintln!(
        "[dice-ingest] gen: {} records ({} streams of {records}) in {} frames, {} bytes -> {}",
        stats.records,
        cores,
        stats.frames,
        stats.bytes,
        out.display()
    );
}

/// Writes records in the text trace format: a header comment, then
/// `gap line_hex r|w` per record.
fn write_text_trace(path: &Path, records: &[TraceRecord]) -> DiceResult<()> {
    let ioerr = |e: &std::io::Error| DiceError::io(format!("write trace {}", path.display()), e);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| ioerr(&e))?);
    writeln!(
        f,
        "# dice trace v1: <instruction-gap> <line-address-hex> <r|w>"
    )
    .map_err(|e| ioerr(&e))?;
    for r in records {
        writeln!(
            f,
            "{} {:x} {}",
            r.gap,
            r.line,
            if r.write { 'w' } else { 'r' }
        )
        .map_err(|e| ioerr(&e))?;
    }
    f.flush().map_err(|e| ioerr(&e))
}

/// Reads the text trace format (`#` comments and blank lines skipped).
///
/// # Errors
///
/// Returns [`DiceError::Io`] on I/O failure or [`DiceError::TraceParse`]
/// — carrying the path and 1-based line number — on malformed, truncated
/// or garbled records.
fn read_text_trace(path: &Path) -> DiceResult<Vec<TraceRecord>> {
    let shown = path.display().to_string();
    let f = std::io::BufReader::new(
        std::fs::File::open(path).map_err(|e| DiceError::io(format!("open trace {shown}"), &e))?,
    );
    let bad = |no: usize, reason: String| DiceError::TraceParse {
        path: shown.clone(),
        line: no as u64 + 1,
        reason,
    };
    let mut out = Vec::new();
    for (no, line) in f.lines().enumerate() {
        let line = line.map_err(|e| DiceError::io(format!("read trace {shown}"), &e))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(g), Some(l), Some(w)) = (it.next(), it.next(), it.next()) else {
            let got = line.split_whitespace().count();
            return Err(bad(no, format!("expected 3 fields, got {got}")));
        };
        let gap = g
            .parse()
            .map_err(|e| bad(no, format!("bad gap {g:?}: {e}")))?;
        let addr =
            u64::from_str_radix(l, 16).map_err(|e| bad(no, format!("bad address {l:?}: {e}")))?;
        let write = match w {
            "r" => false,
            "w" => true,
            other => return Err(bad(no, format!("bad r/w flag {other:?}"))),
        };
        out.push(TraceRecord {
            gap,
            line: addr,
            write,
        });
    }
    Ok(out)
}

/// `pack`: text trace to a single-stream `.dtf`.
fn cmd_pack(flags: &mut Flags) {
    let input = PathBuf::from(flags.required("--in"));
    let out = PathBuf::from(flags.required("--out"));
    let compress = !flags.switch("--no-compress");
    flags.finish();
    let records = read_text_trace(&input)
        .unwrap_or_else(|e| fail(&format!("reading {}", input.display()), &e));
    if records.is_empty() {
        fail(
            &format!("reading {}", input.display()),
            &"the trace holds no records",
        );
    }
    let stats = pack_records(&out, &records, compress)
        .unwrap_or_else(|e| fail(&format!("packing {}", out.display()), &e));
    eprintln!(
        "[dice-ingest] pack: {} records in {} frames, {} bytes -> {}",
        stats.records,
        stats.frames,
        stats.bytes,
        out.display()
    );
}

/// `unpack`: one `.dtf` stream back to the text format.
fn cmd_unpack(flags: &mut Flags) {
    let input = PathBuf::from(flags.required("--in"));
    let out = PathBuf::from(flags.required("--out"));
    let core = flags.number("--core", 0_u32);
    flags.finish();
    let records = dice_ingest::read_core_records(&input, core)
        .unwrap_or_else(|e| fail(&format!("reading {}", input.display()), &e));
    let plain: Vec<_> = records.iter().map(|r| r.rec).collect();
    write_text_trace(&out, &plain)
        .unwrap_or_else(|e| fail(&format!("writing {}", out.display()), &e));
    eprintln!(
        "[dice-ingest] unpack: {} records of stream {core} -> {}",
        plain.len(),
        out.display()
    );
}

/// `info`: scan and report container statistics.
fn cmd_info(flags: &mut Flags) {
    let input = PathBuf::from(flags.required("--in"));
    let strict = flags.switch("--strict");
    flags.finish();
    let info =
        scan(&input, strict).unwrap_or_else(|e| fail(&format!("scanning {}", input.display()), &e));
    let hash = dice_ingest::file_content_hash(&input)
        .unwrap_or_else(|e| fail(&format!("hashing {}", input.display()), &e));
    println!("file:          {}", input.display());
    println!("content hash:  {hash:016x}");
    println!("streams:       {}", info.cores);
    println!("records:       {}", info.records);
    println!(
        "frames:        {} ({} compressed)",
        info.frames, info.compressed_frames
    );
    println!(
        "bytes:         {} ({} raw payload, {:.2}x packed)",
        info.file_bytes,
        info.raw_payload_bytes,
        info.raw_payload_bytes as f64 / info.file_bytes.max(1) as f64
    );
    println!("torn tail:     {} bytes dropped", info.dropped_bytes);
    for (i, c) in info.per_core.iter().enumerate() {
        println!(
            "  stream {i}: {} records, {} footprint lines",
            c.records,
            c.footprint_lines()
        );
    }
}

/// The organization columns of the `sweep` command, in output order.
/// `base` must come first: every speedup is computed against it.
const SWEEP_ORGS: [(&str, Organization); 6] = [
    ("base", Organization::UncompressedAlloy),
    ("tsi", Organization::CompressedTsi),
    ("bai", Organization::CompressedBai),
    ("dice32", Organization::Dice { threshold: 32 }),
    ("dice36", Organization::Dice { threshold: 36 }),
    ("dice40", Organization::Dice { threshold: 40 }),
];

/// `sweep`: the organization comparison driven by a packed trace.
fn cmd_sweep(flags: &mut Flags) {
    let input = PathBuf::from(flags.required("--in"));
    let spec = spec_flag(flags);
    let seed = flags.number("--seed", 7);
    let scale = flags.number("--scale", 256);
    let warmup = flags.number("--warmup", 20_000);
    let measure = flags.number("--measure", 60_000);
    let mut runner_cfg = RunnerConfig::default();
    runner_cfg.jobs = flags.count("--jobs", runner_cfg.jobs);
    flags.finish();
    if let Err((field, rule)) = SimConfig::check_bounds(scale, measure) {
        flags.refuse(format!("--{field} {rule}"));
    }

    let binding = TraceBinding::open(&input)
        .unwrap_or_else(|e| fail(&format!("opening {}", input.display()), &e));
    let wl_name = format!("trace-{}", spec.name);
    let wl = WorkloadSet::traced(&wl_name, spec, seed, binding.clone());

    let cells = SWEEP_ORGS
        .into_iter()
        .map(|(tag, org)| {
            let cfg = SimConfig::scaled(org, scale).with_records(warmup, measure);
            Cell::new(tag, cfg, wl.clone())
        })
        .collect();

    let runner = Runner::new(runner_cfg).unwrap_or_else(|e| fail("building runner", &e));
    let sweep = runner.run(cells);
    eprintln!(
        "[dice-ingest] sweep: {} tail_idle_ms={}",
        sweep.summary(),
        sweep.tail_idle_ms,
    );

    let report_of = |tag: &str| -> &RunReport {
        sweep
            .report(tag, &wl_name)
            .unwrap_or_else(|e| fail("sweep", &e))
    };
    let base = report_of("base");
    let runs = SWEEP_ORGS
        .into_iter()
        .map(|(tag, _)| {
            let r = report_of(tag);
            Json::Obj(vec![
                ("tag".into(), Json::str(tag)),
                ("workload".into(), Json::str(&wl_name)),
                (
                    "speedup".into(),
                    Json::str(format!("{:.4}", r.weighted_speedup(base))),
                ),
                (
                    "l3_hit".into(),
                    Json::str(format!("{:.4}", r.l3.hit_rate())),
                ),
                (
                    "l4_hit".into(),
                    Json::str(format!("{:.4}", r.l4.hit_rate())),
                ),
                ("cycles".into(), Json::u64(r.cycles)),
            ])
        })
        .collect();
    // No scheduling facts on stdout: the report must be byte-identical
    // for any --jobs (CI compares two job counts with `cmp`).
    let out = Json::Obj(vec![
        (
            "trace".into(),
            Json::Obj(vec![
                (
                    "content_hash".into(),
                    Json::str(format!("{:016x}", binding.content_hash())),
                ),
                ("streams".into(), Json::u64(u64::from(binding.cores()))),
                ("records".into(), Json::u64(binding.records())),
            ]),
        ),
        (
            "config".into(),
            Json::Obj(vec![
                ("spec".into(), Json::str(&wl_name)),
                ("seed".into(), Json::u64(seed)),
                ("scale".into(), Json::u64(scale)),
                ("warmup_records".into(), Json::u64(warmup)),
                ("measure_records".into(), Json::u64(measure)),
            ]),
        ),
        ("runs".into(), Json::Arr(runs)),
    ]);
    println!("{}", out.render());
}

fn main() {
    let mut flags = Flags::from_env("dice-ingest");
    match flags.positional().as_deref() {
        Some("gen") => cmd_gen(&mut flags),
        Some("pack") => cmd_pack(&mut flags),
        Some("unpack") => cmd_unpack(&mut flags),
        Some("info") => cmd_info(&mut flags),
        Some("sweep") => cmd_sweep(&mut flags),
        Some("help" | "-h") => help(&flags),
        None if flags.switch("--help") => help(&flags),
        None => flags.refuse("expected a command: gen, pack, unpack, info or sweep (see --help)"),
        Some(other) => flags.refuse(format!(
            "unknown command {other:?}; one of: gen pack unpack info sweep"
        )),
    }
}

fn help(flags: &Flags) {
    flags.finish();
    eprintln!("commands: gen pack unpack info sweep (see the module docs)");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Removes its directory when dropped, at the end of the test.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A fresh directory named by test and process, removed with the
    /// guard.
    fn scratch(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("dice-trace-test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    #[test]
    fn file_round_trip() {
        let dir = scratch("round-trip");
        let path = dir.0.join("t1.trace");
        let recs = vec![
            TraceRecord {
                gap: 0,
                line: 0xabc,
                write: true,
            },
            TraceRecord {
                gap: 99,
                line: u64::MAX >> 8,
                write: false,
            },
        ];
        write_text_trace(&path, &recs).unwrap();
        assert_eq!(read_text_trace(&path).unwrap(), recs);
    }

    #[test]
    fn loader_rejects_garbage() {
        let dir = scratch("garbage");
        let path = dir.0.join("bad.trace");
        std::fs::write(&path, "1 zz r\n").unwrap();
        assert!(read_text_trace(&path).is_err());
        std::fs::write(&path, "1 10 x\n").unwrap();
        assert!(read_text_trace(&path).is_err());
        std::fs::write(&path, "# only comments\n\n").unwrap();
        assert!(read_text_trace(&path).unwrap().is_empty());
    }

    /// Malformed-input regression: every corruption mode returns a typed
    /// parse error carrying the path and the 1-based offending line.
    #[test]
    fn malformed_records_report_line_context() {
        let dir = scratch("context");
        let path = dir.0.join("ctx.trace");
        let cases: [(&str, u64, &str); 5] = [
            ("# ok\n5 1f r\n7 2a\n", 3, "truncated record"),
            ("x 1f r\n", 1, "non-numeric gap"),
            ("5 0xzz r\n", 1, "garbled address"),
            ("5 1f rw\n", 1, "bad access flag"),
            (
                "5 1f r\n\n# c\n5 1f\n",
                4,
                "line numbers count comments and blanks",
            ),
        ];
        for (text, want_line, label) in cases {
            std::fs::write(&path, text).unwrap();
            match read_text_trace(&path) {
                Err(DiceError::TraceParse { path: p, line, .. }) => {
                    assert!(p.ends_with("ctx.trace"), "{label}: path {p}");
                    assert_eq!(line, want_line, "{label}");
                }
                other => panic!("{label}: expected TraceParse, got {other:?}"),
            }
        }
        // Extra fields beyond the three parsed ones are tolerated only if
        // the first three parse; `5 1f r q` has a valid prefix, so the
        // fourth field is ignored by the split — verify that explicitly.
        std::fs::write(&path, "5 1f r ignored\n").unwrap();
        assert_eq!(read_text_trace(&path).unwrap().len(), 1);
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = read_text_trace(Path::new("/nonexistent/dice.trace")).unwrap_err();
        assert_eq!(err.class(), dice_obs::ErrorClass::Io);
        assert!(err.to_string().contains("/nonexistent/dice.trace"));
    }
}
