//! The cell wire protocol between the coordinator and workers.
//!
//! One scattered cell is one `POST /v1/cells` whose body is a
//! **single-cell** [`SweepSpec`] (`orgs` and `workloads` each hold
//! exactly one entry) — reusing the validated spec grammar means a worker
//! rejects malformed cells with the same errors `dice-serve` would. The
//! response body is the cell's *run object*, rendered by
//! [`render_run_object`] — the function `dice-serve`'s `render_runs`
//! builds the canonical document from:
//!
//! ```json
//! {"tag": "dice36", "workload": "gcc", "report": { … }}
//! {"tag": "base",   "workload": "mcf", "error": "…"}
//! {"tag": "base",   "workload": "mcf", "timed_out_ms": 60000}
//! ```
//!
//! [`RunReport::to_json`]/[`RunReport::from_json`] are lossless, so the
//! coordinator can rebuild the [`CellOutcome`] and re-render the
//! assembled sweep through the same
//! [`render_runs`](dice_serve::render_runs) code path a direct
//! single-node run uses — which is what makes fabric reports
//! byte-identical to direct ones.
//!
//! Since the chaos work, the run object travels inside a **checksummed
//! envelope**: `{"sum":"<16-hex>","cached":BOOL,"run":{…}}`, where the
//! sum is fnv1a64 over `run.render()` followed by one byte, 1 when the
//! worker answered from its `DiskCache` and 0 when it simulated.
//! A network that merely tears a response produces unparseable bytes the
//! coordinator already rejects; a network that *flips* bytes can produce
//! JSON that still parses but carries a wrong number — the one corruption
//! mode that would silently poison a report. The envelope closes it:
//! [`open_run_object`] re-renders the received run and compares
//! checksums, so a garbled-but-parseable body is a typed dispatch
//! failure, never a wrong report (nor a wrong cache-hit count).

use std::sync::Arc;
use std::time::Duration;

use dice_obs::{fnv1a64, fnv1a64_extend, Json};
use dice_runner::CellOutcome;
pub use dice_serve::render_run_object;
use dice_serve::SweepSpec;
use dice_sim::RunReport;

/// Renders the single-cell spec shipped to a worker for `(tag, workload)`
/// of `spec`.
#[must_use]
pub fn cell_spec(spec: &SweepSpec, tag: &str, workload: &str) -> String {
    Json::Obj(vec![
        ("orgs".into(), Json::Arr(vec![Json::str(tag)])),
        ("workloads".into(), Json::Arr(vec![Json::str(workload)])),
        ("scale".into(), Json::u64(spec.scale)),
        ("warmup".into(), Json::u64(spec.warmup)),
        ("measure".into(), Json::u64(spec.measure)),
        ("seed".into(), Json::u64(spec.seed)),
    ])
    .render()
}

/// The envelope checksum over `run` and the `cached` flag.
fn envelope_sum(run: &Json, cached: bool) -> u64 {
    fnv1a64_extend(fnv1a64(run.render().as_bytes()), &[u8::from(cached)])
}

/// Wraps a run object in the checksummed envelope a worker ships back:
/// `{"sum": "<16-hex>", "cached": BOOL, "run": {…}}`.
#[must_use]
pub fn seal_run_object(run: Json, cached: bool) -> Json {
    let sum = envelope_sum(&run, cached);
    Json::Obj(vec![
        ("sum".to_owned(), Json::str(format!("{sum:016x}"))),
        ("cached".to_owned(), Json::Bool(cached)),
        ("run".to_owned(), run),
    ])
}

/// Verifies an envelope's checksum and yields the run object inside and
/// whether the worker answered from its cache.
///
/// # Errors
///
/// A human-readable description: missing/ill-typed `sum`, `cached` or
/// `run`, or a checksum mismatch (bytes were corrupted in flight but
/// still parsed).
pub fn open_run_object(doc: &Json) -> Result<(&Json, bool), String> {
    let sum = doc
        .get("sum")
        .and_then(Json::as_str)
        .ok_or("cell envelope missing \"sum\"")?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| "cell envelope \"sum\" is not hex")?;
    let cached = match doc.get("cached") {
        Some(Json::Bool(cached)) => *cached,
        _ => return Err("cell envelope missing \"cached\"".to_owned()),
    };
    let run = doc.get("run").ok_or("cell envelope missing \"run\"")?;
    if envelope_sum(run, cached) != sum {
        return Err("cell envelope checksum mismatch (response corrupted in flight)".to_owned());
    }
    Ok((run, cached))
}

/// Parses a run object back into `(tag, workload, outcome)`; a completed
/// outcome gets `from_cache: cached`.
///
/// # Errors
///
/// A human-readable description of what is malformed. `wall` on the
/// rebuilt outcome is zero: the coordinator sets its own measured time.
/// Neither field affects the rendered report, which excludes scheduling
/// incidentals.
pub fn parse_run_object(doc: &Json, cached: bool) -> Result<(String, String, CellOutcome), String> {
    let tag = doc
        .get("tag")
        .and_then(Json::as_str)
        .ok_or("run object missing \"tag\"")?
        .to_owned();
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("run object missing \"workload\"")?
        .to_owned();
    let outcome = if let Some(report) = doc.get("report") {
        let report =
            RunReport::from_json(report).ok_or("run object carries an unparseable report")?;
        CellOutcome::Completed {
            report: Arc::new(report),
            from_cache: cached,
            wall: Duration::ZERO,
        }
    } else if let Some(error) = doc.get("error").and_then(Json::as_str) {
        CellOutcome::Failed {
            error: error.to_owned(),
        }
    } else if let Some(ms) = doc.get("timed_out_ms").and_then(Json::as_u64) {
        CellOutcome::TimedOut {
            budget: Duration::from_millis(ms),
        }
    } else {
        return Err("run object has no report, error or timed_out_ms".to_owned());
    };
    Ok((tag, workload, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_spec_is_a_valid_single_cell_sweep() {
        let spec = SweepSpec::parse(
            r#"{"orgs":["base","dice36"],"workloads":["gcc","mcf"],"scale":2048,"warmup":100,"measure":300,"seed":3}"#,
        )
        .expect("valid");
        let one = cell_spec(&spec, "dice36", "mcf");
        let parsed = SweepSpec::parse(&one).expect("worker-side parse");
        assert_eq!(parsed.orgs, vec!["dice36"]);
        assert_eq!(parsed.workloads, vec!["mcf"]);
        assert_eq!(parsed.to_cells().len(), 1);
        assert_eq!(parsed.scale, 2048);
        assert_eq!(parsed.seed, 3);
    }

    #[test]
    fn failure_outcomes_round_trip() {
        for (outcome, probe) in [
            (
                CellOutcome::Failed {
                    error: "boom".into(),
                },
                "error",
            ),
            (
                CellOutcome::TimedOut {
                    budget: Duration::from_millis(1234),
                },
                "timed_out_ms",
            ),
        ] {
            let doc = render_run_object("base", "gcc", &outcome);
            assert!(doc.get(probe).is_some());
            let (tag, wl, back) = parse_run_object(&doc, false).expect("round trip");
            assert_eq!((tag.as_str(), wl.as_str()), ("base", "gcc"));
            assert_eq!(
                render_run_object("base", "gcc", &back).render(),
                doc.render()
            );
        }
    }

    #[test]
    fn sealed_envelopes_open_clean() {
        for cached in [false, true] {
            let run = render_run_object(
                "base",
                "gcc",
                &CellOutcome::Failed {
                    error: "boom".into(),
                },
            );
            let rendered = run.render();
            let sealed = seal_run_object(run, cached);
            let wire = Json::parse(&sealed.render()).expect("envelope parses");
            let (opened, was_cached) = open_run_object(&wire).expect("checksum holds");
            assert_eq!(opened.render(), rendered);
            assert_eq!(was_cached, cached);
        }
    }

    #[test]
    fn tampered_envelopes_are_rejected() {
        let run = render_run_object(
            "base",
            "gcc",
            &CellOutcome::TimedOut {
                budget: Duration::from_millis(1234),
            },
        );
        let sealed = seal_run_object(run, false).render();
        // Garbles that keep the JSON parseable: flip one body digit, or
        // the cache flag.
        for (from, to) in [("1234", "1235"), ("\"cached\":false", "\"cached\":true")] {
            let tampered = sealed.replace(from, to);
            assert_ne!(sealed, tampered, "tamper target must exist");
            let doc = Json::parse(&tampered).expect("still parses");
            let err = open_run_object(&doc).expect_err("checksum must catch the flip");
            assert!(err.contains("checksum"), "unexpected error: {err}");
        }
    }

    #[test]
    fn envelopes_without_sum_or_run_are_rejected() {
        for bad in [
            r#"{"run":{"tag":"base","workload":"gcc","error":"x"}}"#,
            r#"{"sum":"00","tag":"base"}"#,
            r#"{"sum":"zz","run":{}}"#,
        ] {
            let doc = Json::parse(bad).expect("test JSON");
            assert!(open_run_object(&doc).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn malformed_run_objects_are_rejected() {
        for bad in [
            r#"{"workload":"gcc","error":"x"}"#,
            r#"{"tag":"base","error":"x"}"#,
            r#"{"tag":"base","workload":"gcc"}"#,
            r#"{"tag":"base","workload":"gcc","report":{"nope":1}}"#,
        ] {
            let doc = Json::parse(bad).expect("test JSON");
            assert!(parse_run_object(&doc, false).is_err(), "accepted: {bad}");
        }
    }
}
