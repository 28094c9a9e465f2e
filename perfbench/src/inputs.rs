//! Workload inputs, generated from the `--seed` argument alone.
//!
//! The program under test sees only what these functions return: runner
//! cells and sweep-spec request bodies. The same seed always yields the
//! same inputs.

use dice_bench::workloads::all26;
use dice_core::Organization;
use dice_runner::Cell;
use dice_sim::SimConfig;
use dice_workloads::SplitMix64;

/// Footprint scale of the simulator workloads (the harness default).
pub const SCALE: u64 = 256;

/// Warm-up and measured records per core of a fig10_cold cell. The
/// warm-up is the 10 k of the Fig 10 timings the benchmark replaces, so
/// the L4 is past its cold fill when measuring starts; the measured window
/// is short so that a run completes its 10 rounds of 130 cells in about a
/// minute.
pub const FIG10_WINDOWS: (u64, u64) = (10_000, 4_000);

/// The Fig 10 organizations, with the tags the experiment harness uses.
pub const FIG10_TAGS: [&str; 5] = ["base", "tsi", "bai", "dice36", "2xboth"];

/// The simulator configuration behind a Fig 10 tag.
///
/// # Panics
///
/// Panics on a tag outside [`FIG10_TAGS`].
#[must_use]
pub fn fig10_cfg(tag: &str) -> SimConfig {
    let (warmup, measure) = FIG10_WINDOWS;
    let org = match tag {
        "base" | "2xboth" => Organization::UncompressedAlloy,
        "tsi" => Organization::CompressedTsi,
        "bai" => Organization::CompressedBai,
        "dice36" => Organization::Dice { threshold: 36 },
        other => panic!("not a Fig 10 tag: {other}"),
    };
    let cfg = SimConfig::scaled(org, SCALE).with_records(warmup, measure);
    if tag == "2xboth" {
        cfg.with_double_l4_capacity().with_double_l4_bandwidth()
    } else {
        cfg
    }
}

/// The 130 Fig 10 cells: every tag on each of the 26 memory-intensive
/// workload sets, whose traces and values are seeded by `seed`.
#[must_use]
pub fn fig10_cells(seed: u64) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(130);
    for (_, wl) in all26(seed) {
        for tag in FIG10_TAGS {
            cells.push(Cell::new(tag, fig10_cfg(tag), wl.clone()));
        }
    }
    cells
}

/// Organizations a served sweep picks two of.
pub const SERVE_ORGS: [&str; 4] = ["base", "tsi", "bai", "dice36"];
/// Workloads a served sweep picks one of.
pub const SERVE_WORKLOADS: [&str; 3] = ["gcc", "mcf", "omnetpp"];
/// Distinct trace seeds the served sweeps cycle over.
pub const SERVE_SEEDS: usize = 4;
/// Sweep requests per server lifetime (one round).
pub const SERVE_REQUESTS: usize = 250;

/// The request bodies of one serve_sweeps round, in submission order.
/// Each is a two-organization, one-workload sweep at scale 4096 with a
/// tiny window; the trace seed is one of [`SERVE_SEEDS`] values, so most
/// requests repeat an earlier sweep or share cells with one.
#[must_use]
pub fn serve_plan(seed: u64) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e);
    let seeds: Vec<u64> = (0..SERVE_SEEDS).map(|_| rng.below(1 << 20)).collect();
    let pairs: Vec<(&str, &str)> = SERVE_ORGS
        .iter()
        .enumerate()
        .flat_map(|(i, a)| SERVE_ORGS[i + 1..].iter().map(move |b| (*a, *b)))
        .collect();
    (0..SERVE_REQUESTS)
        .map(|_| {
            let (a, b) = pairs[rng.below(pairs.len() as u64) as usize];
            let wl = SERVE_WORKLOADS[rng.below(SERVE_WORKLOADS.len() as u64) as usize];
            let s = seeds[rng.below(SERVE_SEEDS as u64) as usize];
            format!(
                r#"{{"orgs":["{a}","{b}"],"workloads":["{wl}"],"scale":4096,"warmup":100,"measure":300,"seed":{s}}}"#
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_runner::cell_key;

    fn fig10_keys(seed: u64) -> Vec<(String, String, u64)> {
        fig10_cells(seed)
            .iter()
            .map(|c| {
                (
                    c.tag.clone(),
                    c.workload.name.clone(),
                    cell_key(&c.cfg, &c.workload),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(fig10_keys(11), fig10_keys(11));
        assert_eq!(serve_plan(11), serve_plan(11));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(fig10_keys(11), fig10_keys(12));
        assert_ne!(serve_plan(11), serve_plan(12));
    }

    #[test]
    fn inputs_have_the_documented_shape() {
        let cells = fig10_cells(3);
        assert_eq!(cells.len(), 130);
        let plan = serve_plan(3);
        assert_eq!(plan.len(), SERVE_REQUESTS);
        for body in &plan {
            dice_serve::SweepSpec::parse(body).expect("plan bodies are valid specs");
        }
    }

    #[test]
    fn every_serve_plan_has_enough_cells_for_p90() {
        // serve_sweeps reports cell_ms_p90 over the distinct (spec, cell)
        // pairs of a round, two cells a spec; p90 needs 100 of them.
        for seed in 0..500 {
            let mut specs = serve_plan(seed);
            specs.sort();
            specs.dedup();
            assert!(specs.len() * 2 >= 110, "seed {seed}: {} specs", specs.len());
        }
    }
}
