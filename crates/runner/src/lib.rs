//! `dice-runner`: the parallel experiment engine for the DICE harness.
//!
//! The full `experiments all` sweep simulates hundreds of
//! `(configuration, workload)` cells that are completely independent of
//! each other — embarrassingly parallel work that the original harness
//! ran serially through a single-threaded memo. This crate turns that
//! loop into a real job-execution subsystem:
//!
//! * [`Cell`] — one declared unit of work (`tag`, [`SimConfig`],
//!   [`WorkloadSet`]); figure generators enumerate their cells up front
//!   instead of simulating mid-render.
//! * [`Runner`] — schedules unique cells across `jobs` worker threads
//!   (std scoped threads claiming cell indices, highest first, from one
//!   shared counter; no dependencies), isolates each simulation with
//!   `catch_unwind` so one diverging configuration reports a failed cell
//!   instead of killing the sweep, and dedupes cells shared between
//!   figures.
//! * [`DiskCache`] — a persistent result cache: completed cells are
//!   stored as lossless [`RunReport`](dice_sim::RunReport) JSON keyed by
//!   [`cell_key`] (a stable hash over every config/workload field plus
//!   the crate version), so re-runs and resumed sweeps skip completed
//!   work. Corrupt entries degrade to misses with a warning.
//! * [`SweepResult`] — sorted outcomes plus scheduling stats, read back
//!   by `(tag, workload)` through [`SweepResult::report`] and exportable
//!   into a [`dice_obs::MetricRegistry`] (`runner.*` counters and a
//!   per-cell wall-time histogram).
//!
//! Determinism contract: for the same cells, `--jobs 1` and `--jobs N`
//! (and cold vs warm cache) produce byte-identical report JSON.
//!
//! [`SimConfig`]: dice_sim::SimConfig
//! [`WorkloadSet`]: dice_sim::WorkloadSet

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod engine;
mod key;

pub use cache::DiskCache;
pub use dice_obs::fnv1a64;
pub use engine::{
    Cell, CellOutcome, CellProgress, ProgressSink, Runner, RunnerConfig, SweepResult,
};
pub use key::{cell_fingerprint, cell_key, cell_key_with_version};
