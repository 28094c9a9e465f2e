//! The system simulator: cores + L3 + DICE DRAM cache + main memory.
//!
//! This crate replaces the paper's USIMM-based infrastructure (§3.1): it
//! glues the substrates together and produces the numbers every figure and
//! table is built from — weighted speedup, L3/L4 hit rates, DRAM-cache and
//! memory traffic, effective capacity, energy and EDP.
//!
//! Structure:
//!
//! * [`CoreModel`] — a trace-driven out-of-order core approximation: a
//!   4-wide front end (0.25 CPI for non-memory work) with up to `mlp`
//!   outstanding L3-level accesses; the core stalls when its miss window
//!   fills, which makes performance sensitive to both memory latency *and*
//!   bandwidth, the property DICE exploits.
//! * [`System`] — the deterministic event loop: per-core trace generators
//!   feed the shared L3; misses run the DRAM-cache controller's probes
//!   against the stacked-DRAM timing model; fills, writebacks and
//!   prefetches are deferred events that consume bandwidth without
//!   blocking cores.
//! * [`RunReport`] — everything measured, plus speedup/energy arithmetic.
//!
//! # Example
//!
//! ```no_run
//! use dice_core::Organization;
//! use dice_sim::{SimConfig, System, WorkloadSet};
//! use dice_workloads::spec_table;
//!
//! let spec = spec_table().into_iter().find(|w| w.name == "gcc").unwrap();
//! let base = SimConfig::scaled(Organization::UncompressedAlloy, 16);
//! let dice = SimConfig::scaled(Organization::Dice { threshold: 36 }, 16);
//! let wl = WorkloadSet::rate(spec, 42);
//! let r_base = System::new(base, &wl).run();
//! let r_dice = System::new(dice, &wl).run();
//! println!("speedup {:.3}", r_dice.weighted_speedup(&r_base));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod core_model;
mod report;
mod system;
mod timeline;
mod wheel;

pub use config::{SimConfig, WorkloadSet};
pub use core_model::CoreModel;
pub use dice_ingest::TraceBinding;
pub use report::{geomean, EnergyReport, IntegrityReport, PhaseCycles, RunDiag, RunReport};
pub use system::{EngineCounters, System};
pub use timeline::IntervalSample;

/// Simulated time in CPU cycles (re-exported from `dice-dram`).
pub type Cycle = dice_dram::Cycle;
