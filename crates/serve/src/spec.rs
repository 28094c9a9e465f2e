//! The sweep specification: what `POST /v1/sweeps` accepts, and the
//! canonical result document both the service and a direct
//! `dice-runner` invocation render.
//!
//! A spec is a JSON object:
//!
//! ```json
//! {
//!   "orgs": ["base", "dice36"],
//!   "workloads": ["gcc", "mcf"],
//!   "scale": 1024,
//!   "warmup": 500,
//!   "measure": 1500,
//!   "seed": 7
//! }
//! ```
//!
//! `orgs` name cache organizations (`base`/`alloy`, `tsi`, `nsi`, `bai`,
//! `scc`, `dice` or `diceN` for an N-byte threshold); `workloads` name
//! Table 3 benchmarks; `scale`/`warmup`/`measure`/`seed` are optional
//! knobs with harness defaults. The sweep is the cross product
//! `orgs × workloads`, capped at [`MAX_CELLS`] cells.

use std::fmt;

use dice_core::Organization;
use dice_obs::Json;
use dice_runner::{cell_key, fnv1a64, Cell, CellOutcome, SweepResult};
use dice_sim::{SimConfig, WorkloadSet};
use dice_workloads::spec_table;

/// Hard cap on `orgs × workloads` per submission: admission control
/// rejects larger sweeps outright rather than queueing unbounded work.
pub const MAX_CELLS: usize = 256;

/// Default footprint scale divisor (matches the experiment harness).
pub const DEFAULT_SCALE: u64 = 1024;
/// Default warm-up records per core.
pub const DEFAULT_WARMUP: u64 = 500;
/// Default measured records per core.
pub const DEFAULT_MEASURE: u64 = 1_500;
/// Default trace seed.
pub const DEFAULT_SEED: u64 = 7;

/// A validated sweep specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Organization tags exactly as submitted (`"dice36"`, `"base"`, …).
    pub orgs: Vec<String>,
    /// Workload names (Table 3 spelling).
    pub workloads: Vec<String>,
    /// Footprint scale divisor (power of two).
    pub scale: u64,
    /// Warm-up records per core.
    pub warmup: u64,
    /// Measured records per core.
    pub measure: u64,
    /// Trace seed.
    pub seed: u64,
}

/// Why a submitted spec was rejected (`400 Bad Request` material).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid sweep spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Resolves an organization tag (`"base"`, `"tsi"`, `"dice36"`, …).
fn parse_org(tag: &str) -> Result<Organization, SpecError> {
    match tag {
        "base" | "alloy" => Ok(Organization::UncompressedAlloy),
        "tsi" => Ok(Organization::CompressedTsi),
        "nsi" => Ok(Organization::CompressedNsi),
        "bai" => Ok(Organization::CompressedBai),
        "scc" => Ok(Organization::Scc),
        "dice" => Ok(Organization::Dice { threshold: 36 }),
        _ => {
            let threshold = tag
                .strip_prefix("dice")
                .and_then(|t| t.parse::<u32>().ok())
                .filter(|t| (1..=64).contains(t))
                .ok_or_else(|| err(format!("unknown organization {tag:?}")))?;
            Ok(Organization::Dice { threshold })
        }
    }
}

fn str_list(j: &Json, field: &str) -> Result<Vec<String>, SpecError> {
    let arr = j
        .get(field)
        .ok_or_else(|| err(format!("missing {field:?}")))?
        .as_arr()
        .ok_or_else(|| err(format!("{field:?} must be an array of strings")))?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        out.push(
            item.as_str()
                .ok_or_else(|| err(format!("{field:?} must be an array of strings")))?
                .to_owned(),
        );
    }
    if out.is_empty() {
        return Err(err(format!("{field:?} must not be empty")));
    }
    Ok(out)
}

fn u64_field(j: &Json, field: &str, default: u64) -> Result<u64, SpecError> {
    match j.get(field) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| err(format!("{field:?} must be a non-negative integer"))),
    }
}

impl SweepSpec {
    /// Parses and fully validates a spec from JSON text: every
    /// organization tag resolves, every workload exists in the Table 3
    /// spec table, scale and measure pass [`SimConfig::check_bounds`],
    /// and the cross product fits [`MAX_CELLS`]. A spec that parses
    /// cannot fail later in [`SweepSpec::to_cells`].
    pub fn parse(text: &str) -> Result<SweepSpec, SpecError> {
        let j = Json::parse(text).map_err(|e| err(e.to_string()))?;
        Self::from_json(&j)
    }

    /// Validates a parsed JSON document (see [`SweepSpec::parse`]).
    pub fn from_json(j: &Json) -> Result<SweepSpec, SpecError> {
        if !matches!(j, Json::Obj(_)) {
            return Err(err("spec must be a JSON object"));
        }
        let spec = SweepSpec {
            orgs: str_list(j, "orgs")?,
            workloads: str_list(j, "workloads")?,
            scale: u64_field(j, "scale", DEFAULT_SCALE)?,
            warmup: u64_field(j, "warmup", DEFAULT_WARMUP)?,
            measure: u64_field(j, "measure", DEFAULT_MEASURE)?,
            seed: u64_field(j, "seed", DEFAULT_SEED)?,
        };
        SimConfig::check_bounds(spec.scale, spec.measure)
            .map_err(|(field, rule)| err(format!("{field:?} {rule}")))?;
        if spec.orgs.len().saturating_mul(spec.workloads.len()) > MAX_CELLS {
            return Err(err(format!("sweep exceeds {MAX_CELLS} cells")));
        }
        for tag in &spec.orgs {
            parse_org(tag)?;
        }
        let table = spec_table();
        for wl in &spec.workloads {
            if !table.iter().any(|s| s.name == *wl) {
                return Err(err(format!("unknown workload {wl:?}")));
            }
        }
        Ok(spec)
    }

    /// The spec as canonical JSON (defaults made explicit), suitable for
    /// re-submission.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "orgs".into(),
                Json::Arr(self.orgs.iter().map(Json::str).collect()),
            ),
            (
                "workloads".into(),
                Json::Arr(self.workloads.iter().map(Json::str).collect()),
            ),
            ("scale".into(), Json::u64(self.scale)),
            ("warmup".into(), Json::u64(self.warmup)),
            ("measure".into(), Json::u64(self.measure)),
            ("seed".into(), Json::u64(self.seed)),
        ])
    }

    /// Expands the spec into runner cells (`orgs × workloads`). Cannot
    /// fail for a spec produced by [`SweepSpec::parse`].
    #[must_use]
    pub fn to_cells(&self) -> Vec<Cell> {
        let table = spec_table();
        let mut cells = Vec::with_capacity(self.orgs.len() * self.workloads.len());
        for tag in &self.orgs {
            let org = parse_org(tag).expect("validated at parse time");
            for wl in &self.workloads {
                let wspec = table
                    .iter()
                    .find(|s| s.name == *wl)
                    .expect("validated at parse time")
                    .clone();
                let cfg =
                    SimConfig::scaled(org, self.scale).with_records(self.warmup, self.measure);
                cells.push(Cell::new(
                    tag.clone(),
                    cfg,
                    WorkloadSet::rate(wspec, self.seed),
                ));
            }
        }
        cells
    }
}

/// The single-flight identity of a sweep: an FNV-1a hash over every
/// cell's tag, workload name, and [`cell_key`] (which already covers
/// every config/workload field plus the crate version), order-independent.
/// Two submissions with the same key would run the same simulations and
/// render the same document, so the service runs them once.
#[must_use]
pub fn sweep_key(cells: &[Cell]) -> u64 {
    let mut parts: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{}\u{1f}{}\u{1f}{:016x}",
                c.tag,
                c.workload.name,
                cell_key(&c.cfg, &c.workload)
            )
        })
        .collect();
    parts.sort_unstable();
    fnv1a64(parts.join("\u{1e}").as_bytes())
}

/// The canonical result document for a finished sweep:
/// `{"runs": [{"tag", "workload", "report"| "error" | "timed_out_ms"}, …]}`,
/// sorted by `(tag, workload)`.
///
/// Both the service's `/v1/sweeps/:id/report` and `dice-serve-loadgen
/// --direct` emit exactly `render_runs(&result).render()`; together with
/// the runner's determinism contract (same cells → same reports for any
/// job count, cold or warm cache), that makes the two byte-identical.
/// Scheduling incidentals (wall time, cache hits) are deliberately
/// excluded.
#[must_use]
pub fn render_runs(result: &SweepResult) -> Json {
    let runs = result
        .outcomes
        .iter()
        .map(|((tag, wl), outcome)| render_run_object(tag, wl, outcome))
        .collect();
    Json::Obj(vec![("runs".into(), Json::Arr(runs))])
}

/// One element of [`render_runs`]'s `runs` array: the cell's identity
/// plus its `report`, `error` or `timed_out_ms`. Fabric workers answer
/// with exactly this object, so a gathered report re-renders to the same
/// bytes.
#[must_use]
pub fn render_run_object(tag: &str, workload: &str, outcome: &CellOutcome) -> Json {
    let mut pairs = vec![
        ("tag".to_owned(), Json::str(tag)),
        ("workload".to_owned(), Json::str(workload)),
    ];
    match outcome {
        CellOutcome::Completed { report, .. } => {
            pairs.push(("report".to_owned(), report.to_json()));
        }
        CellOutcome::Failed { error } => {
            pairs.push(("error".to_owned(), Json::str(error)));
        }
        CellOutcome::TimedOut { budget } => {
            pairs.push((
                "timed_out_ms".to_owned(),
                Json::u64(budget.as_millis() as u64),
            ));
        }
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"orgs":["base","dice36"],"workloads":["gcc"],"scale":2048,"warmup":100,"measure":300,"seed":3}"#;

    #[test]
    fn parses_and_expands() {
        let spec = SweepSpec::parse(SPEC).expect("valid spec");
        assert_eq!(spec.orgs, vec!["base", "dice36"]);
        assert_eq!(spec.scale, 2048);
        let cells = spec.to_cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].tag, "base");
        assert_eq!(cells[0].workload.name, "gcc");
        assert!(matches!(
            cells[1].cfg.l4.organization,
            Organization::Dice { threshold: 36 }
        ));
        assert_eq!(cells[0].cfg.measure_records, 300);
    }

    #[test]
    fn defaults_fill_in() {
        let spec = SweepSpec::parse(r#"{"orgs":["tsi"],"workloads":["mcf"]}"#).expect("valid");
        assert_eq!(spec.scale, DEFAULT_SCALE);
        assert_eq!(spec.warmup, DEFAULT_WARMUP);
        assert_eq!(spec.measure, DEFAULT_MEASURE);
        assert_eq!(spec.seed, DEFAULT_SEED);
    }

    #[test]
    fn org_tags_resolve() {
        for (tag, want) in [
            ("base", Organization::UncompressedAlloy),
            ("alloy", Organization::UncompressedAlloy),
            ("tsi", Organization::CompressedTsi),
            ("nsi", Organization::CompressedNsi),
            ("bai", Organization::CompressedBai),
            ("scc", Organization::Scc),
            ("dice", Organization::Dice { threshold: 36 }),
            ("dice40", Organization::Dice { threshold: 40 }),
        ] {
            assert_eq!(parse_org(tag).expect(tag), want);
        }
        assert!(parse_org("dice0").is_err());
        assert!(parse_org("dice999").is_err());
        assert!(parse_org("lru").is_err());
    }

    #[test]
    fn rejects_bad_specs() {
        for bad in [
            "not json",
            "[1,2]",
            r#"{"workloads":["gcc"]}"#,
            r#"{"orgs":[],"workloads":["gcc"]}"#,
            r#"{"orgs":["base"],"workloads":[1]}"#,
            r#"{"orgs":["base"],"workloads":["gcc"],"scale":3}"#,
            r#"{"orgs":["base"],"workloads":["gcc"],"scale":16384}"#,
            r#"{"orgs":["base"],"workloads":["gcc"],"measure":0}"#,
            r#"{"orgs":["base"],"workloads":["nosuch"]}"#,
            r#"{"orgs":["quantum"],"workloads":["gcc"]}"#,
        ] {
            assert!(SweepSpec::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn sweep_key_is_order_independent_and_spec_sensitive() {
        let a = SweepSpec::parse(SPEC).expect("valid").to_cells();
        let mut b = SweepSpec::parse(SPEC).expect("valid").to_cells();
        b.reverse();
        assert_eq!(sweep_key(&a), sweep_key(&b));

        let other = SweepSpec::parse(
            r#"{"orgs":["base","dice36"],"workloads":["gcc"],"scale":2048,"warmup":100,"measure":300,"seed":4}"#,
        )
        .expect("valid")
        .to_cells();
        assert_ne!(sweep_key(&a), sweep_key(&other));
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = SweepSpec::parse(SPEC).expect("valid");
        let again = SweepSpec::from_json(&spec.to_json()).expect("round-trip");
        assert_eq!(spec, again);
    }
}
