//! Ablation study: quantifies each design choice DESIGN.md §5 calls out
//! by running small paired simulations and printing the deltas. Run with
//! `cargo run --release --example ablation`.
//!
//! The output is simulated speedup, not wall-clock time.

use dice_core::{DramCacheConfig, Organization, TagVariant};
use dice_sim::{RunReport, SimConfig, System, WorkloadSet};
use dice_workloads::spec_table;

const SCALE: u64 = 256;
const WARMUP: u64 = 8_000;
const MEASURE: u64 = 20_000;

fn run(cfg: SimConfig, wl: &WorkloadSet) -> RunReport {
    System::new(cfg, wl).run()
}

fn cfg(org: Organization) -> SimConfig {
    SimConfig::scaled(org, SCALE).with_records(WARMUP, MEASURE)
}

fn wl(name: &str, seed: u64) -> WorkloadSet {
    let spec = spec_table().into_iter().find(|w| w.name == name).unwrap();
    WorkloadSet::rate(spec, seed)
}

fn gmean(v: &[f64]) -> f64 {
    (v.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Workload subset spanning the compressibility spectrum.
const SUBSET: [&str; 6] = ["mcf", "lbm", "soplex", "gcc", "libq", "cc_twi"];

fn ablate(label: &str, make: impl Fn() -> SimConfig) {
    let mut speedups = Vec::new();
    for name in SUBSET {
        let w = wl(name, 0xd1ce);
        let base = run(cfg(Organization::UncompressedAlloy), &w);
        let test = run(make(), &w);
        speedups.push(test.weighted_speedup(&base));
    }
    println!(
        "{label:<34} gmean speedup {:+.1}%",
        (gmean(&speedups) - 1.0) * 100.0
    );
}

fn main() {
    println!("Ablation study (subset: {SUBSET:?}, scale 1/{SCALE})");
    println!("----------------------------------------------------------------");

    // 1. Insertion threshold (Table 4's knob, with degenerate endpoints).
    for thr in [0u32, 32, 36, 40, 64] {
        ablate(&format!("dice threshold {thr:>2}B"), move || {
            cfg(Organization::Dice { threshold: thr })
        });
    }

    // 2. Neighbor tag (Alloy) vs KNL-style both-location miss checks.
    ablate("dice alloy neighbor-tag", || {
        cfg(Organization::Dice { threshold: 36 })
    });
    ablate("dice knl no-neighbor-tag", || {
        let mut c = cfg(Organization::Dice { threshold: 36 });
        c.l4 = DramCacheConfig {
            tag_variant: TagVariant::Knl,
            ..c.l4
        };
        c
    });

    // 3. CIP LTT size.
    for entries in [64usize, 512, 2048, 8192] {
        ablate(&format!("dice ltt {entries:>4} entries"), move || {
            let mut c = cfg(Organization::Dice { threshold: 36 });
            c.l4.ltt_entries = entries;
            c
        });
    }

    // 4. Free-pair-line installation into L3 (§6.4) on/off.
    ablate("dice with L3 pair install", || {
        cfg(Organization::Dice { threshold: 36 })
    });
    ablate("dice without L3 pair install", || {
        let mut c = cfg(Organization::Dice { threshold: 36 });
        c.install_pair_in_l3 = false;
        c
    });

    // 5. Static index schemes for reference (NSI is §4.5's strawman).
    ablate("static tsi", || cfg(Organization::CompressedTsi));
    ablate("static nsi", || cfg(Organization::CompressedNsi));
    ablate("static bai", || cfg(Organization::CompressedBai));
}
