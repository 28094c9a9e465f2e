//! The shared experiment catalog: every paper figure/table the
//! `experiments` binary can regenerate, as data.
//!
//! Two consumers render this table and must never drift:
//!
//! * `experiments --list` prints [`catalog_json`] to stdout;
//! * `dice-serve`'s `GET /v1/experiments` serves the same bytes.
//!
//! A unit test in the `experiments` binary asserts that the catalog's ids
//! match its `EXPERIMENTS` dispatch table entry for entry, so adding an
//! experiment without cataloguing it (or vice versa) fails the suite.

use dice_obs::Json;

/// One catalogued experiment: the id accepted on the `experiments`
/// command line and a one-line description of the paper artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentInfo {
    /// Command-line id (`fig10`, `tab6`, …).
    pub id: &'static str,
    /// One-line description of the artifact.
    pub description: &'static str,
}

/// Every experiment, in the `all` sweep's presentation order (the same
/// order as the binary's dispatch table).
pub const EXPERIMENT_CATALOG: &[ExperimentInfo] = &[
    ExperimentInfo {
        id: "fig4",
        description: "Fraction of compressible lines sampled from the access stream",
    },
    ExperimentInfo {
        id: "fig1f",
        description: "Potential speedup of idealized caches (2x capacity / bandwidth / both)",
    },
    ExperimentInfo {
        id: "fig7",
        description: "Compression with static indexing (TSI, BAI) vs idealized caches",
    },
    ExperimentInfo {
        id: "fig10",
        description: "Headline result: TSI vs BAI vs DICE vs 2x-capacity 2x-bandwidth",
    },
    ExperimentInfo {
        id: "fig11",
        description: "Distribution of install indices under DICE",
    },
    ExperimentInfo {
        id: "fig12",
        description: "DICE on a Knights Landing-style DRAM cache (no neighbor tag)",
    },
    ExperimentInfo {
        id: "fig13",
        description: "DICE on non-memory-intensive SPEC workloads",
    },
    ExperimentInfo {
        id: "fig14",
        description: "L4+memory power, performance, energy and EDP, normalized to baseline",
    },
    ExperimentInfo {
        id: "fig15",
        description: "Skewed Compressed Cache mapped onto DRAM vs DICE",
    },
    ExperimentInfo {
        id: "tab4",
        description: "DICE insertion-threshold sensitivity (32/36/40 B)",
    },
    ExperimentInfo {
        id: "tab5",
        description: "Effective DRAM-cache capacity of TSI, BAI and DICE",
    },
    ExperimentInfo {
        id: "tab6",
        description: "L3 hit rate, baseline vs DICE (free adjacent-line installs)",
    },
    ExperimentInfo {
        id: "tab7",
        description: "Wide-fetch / next-line prefetch baselines vs DICE",
    },
    ExperimentInfo {
        id: "tab8",
        description: "DICE speedup on bigger, wider and faster caches",
    },
    ExperimentInfo {
        id: "cip",
        description: "CIP accuracy vs Last-Time-Table size (Section 5.3)",
    },
    ExperimentInfo {
        id: "ablation",
        description: "DICE's design choices varied one at a time on six workloads",
    },
    ExperimentInfo {
        id: "ingest",
        description: "Trace ingestion: DICE on a packed .dtf trace, streamed vs preloaded",
    },
];

/// The catalog as JSON: `{"experiments": [{"id", "description"}, …]}`.
///
/// Both `experiments --list` and `dice-serve`'s `/v1/experiments` emit
/// exactly `catalog_json().render()`, so the two can never drift.
#[must_use]
pub fn catalog_json() -> Json {
    Json::Obj(vec![(
        "experiments".into(),
        Json::Arr(
            EXPERIMENT_CATALOG
                .iter()
                .map(|e| {
                    Json::Obj(vec![
                        ("id".into(), Json::str(e.id)),
                        ("description".into(), Json::str(e.description)),
                    ])
                })
                .collect(),
        ),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<_> = EXPERIMENT_CATALOG.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate experiment id in the catalog");
    }

    #[test]
    fn json_lists_every_entry() {
        let j = catalog_json();
        let arr = j.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), EXPERIMENT_CATALOG.len());
        for (item, info) in arr.iter().zip(EXPERIMENT_CATALOG) {
            assert_eq!(item.get("id").unwrap().as_str(), Some(info.id));
            assert_eq!(
                item.get("description").unwrap().as_str(),
                Some(info.description)
            );
        }
    }
}
