//! **DICE** — a from-scratch reproduction of *"DICE: Compressing DRAM
//! Caches for Bandwidth and Capacity"* (Young, Nair & Qureshi, ISCA 2017).
//!
//! Gigascale stacked-DRAM caches (Alloy Cache, Knights Landing's MCDRAM
//! cache) store tags inside the DRAM array, which makes compression nearly
//! free — but compression that only adds *capacity* barely helps a cache
//! that is already a gigabyte. DICE compresses for **bandwidth**: with
//! Bandwidth-Aware Indexing, two spatially adjacent lines share one set, so
//! one 72 B access returns two useful lines; a per-line insertion rule
//! (compressed size ≤ 36 B) falls back to traditional indexing when data is
//! incompressible, and a 256 B index predictor keeps reads to one probe.
//!
//! This crate is a facade re-exporting the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`compress`] | `dice-compress` | FPC, BDI, hybrid, paired compression |
//! | [`dram`] | `dice-dram` | DRAM timing/energy model (banks, rows, buses) |
//! | [`cache`] | `dice-cache` | SRAM hierarchy (L1/L2/L3), prefetch baselines |
//! | [`core`] | `dice-core` | the DICE DRAM-cache controller + baselines |
//! | [`sim`] | `dice-sim` | 8-core trace-driven system simulator |
//! | [`workloads`] | `dice-workloads` | synthetic SPEC/GAP workload generators |
//! | [`ingest`] | `dice-ingest` | the `.dtf` trace container and its per-core replay streams |
//! | [`obs`] | `dice-obs` | metrics, latency histograms, tracing, JSON |
//! | [`runner`] | `dice-runner` | parallel experiment engine + persistent result cache |
//!
//! # Quickstart
//!
//! ```no_run
//! use dice::core::Organization;
//! use dice::sim::{SimConfig, System, WorkloadSet};
//! use dice::workloads::spec_table;
//!
//! let gcc = spec_table().into_iter().find(|w| w.name == "gcc").unwrap();
//! let workload = WorkloadSet::rate(gcc, 42);
//!
//! let base = SimConfig::scaled(Organization::UncompressedAlloy, 256)
//!     .with_records(20_000, 50_000);
//! let dice = SimConfig::scaled(Organization::Dice { threshold: 36 }, 256)
//!     .with_records(20_000, 50_000);
//!
//! let r_base = System::new(base, &workload).run();
//! let r_dice = System::new(dice, &workload).run();
//! println!("DICE speedup on gcc: {:.3}", r_dice.weighted_speedup(&r_base));
//! ```
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results of every table and
//! figure. The `experiments` binary in `dice-bench` regenerates them all:
//!
//! ```text
//! cargo run --release -p dice-bench --bin experiments -- fig10
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dice_cache as cache;
pub use dice_compress as compress;
pub use dice_core as core;
pub use dice_dram as dram;
pub use dice_ingest as ingest;
pub use dice_obs as obs;
pub use dice_runner as runner;
pub use dice_sim as sim;
pub use dice_workloads as workloads;
