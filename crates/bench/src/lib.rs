//! Experiment harness for regenerating every table and figure of the DICE
//! paper (see DESIGN.md §4 for the experiment index).
//!
//! The heavy lifting lives in `dice-sim`; this crate adds:
//!
//! * [`Ctx`] — experiment context: the scale/window settings shared by all
//!   experiments, from which each one builds the runner cells it declares
//!   (the `dice-runner` sweep simulates each unique cell once, and the
//!   figures render from that sweep);
//! * [`workloads`] — the paper's workload lists (RATE / MIX / GAP /
//!   ALL26 / non-memory-intensive) in Table 3 order;
//! * [`catalog`] — the experiment id/description table shared by
//!   `experiments --list` and `dice-serve`'s `/v1/experiments`;
//! * [`table`] — plain-text table rendering for harness output.
//!
//! Run the harness with `cargo run --release -p dice-bench --bin
//! experiments -- <id>` where `<id>` is `fig4`, `fig7`, `fig10`, …,
//! `tab8`, `cip`, or `all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod ctx;
pub mod table;
pub mod workloads;

pub use catalog::{catalog_json, ExperimentInfo, EXPERIMENT_CATALOG};
pub use ctx::Ctx;
pub use table::Table;
