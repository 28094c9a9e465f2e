//! `dice-fabric`: the DICE sweep harness as a sharded fabric.
//!
//! One **coordinator** is `dice-serve`'s sweep service — its job queue
//! and HTTP layer (`POST /v1/sweeps`, status/report/trace, SSE progress)
//! — with a scatter executor in place of the local runner: it runs the
//! runner's sweep loop over the spec's cells, places each cell on a
//! **worker** via a consistent-hash ring with virtual nodes
//! ([`ring::HashRing`], keyed by the order-independent
//! [`dice_runner::cell_key`]), and gathers the per-cell run objects back
//! into a report **byte-identical** to what a direct single-node
//! `dice-runner` invocation renders — that identity is the fabric's
//! correctness contract, `cmp`-checked in CI.
//!
//! Workers are thin: one `POST /v1/cells` runs one cell through the
//! runner engine and its local persistent cache. Worker death and
//! cell-level failures re-hash a cell onto surviving nodes with a
//! bounded number of re-dispatches and backoff; graceful drain takes a node off the
//! ring while its in-flight cells still answer. The membership endpoint
//! exposes the ring version so operators can watch the ring churn.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod chaos;
pub mod coordinator;
pub mod journal;
pub mod ring;
pub mod seeded;
pub mod wire;
pub mod worker;

pub use breaker::{Breaker, JitteredBackoff};
pub use chaos::{ChaosConfig, ChaosHandle, ChaosProxy, NetFault, ALL_FAULTS};
pub use coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle, NodeState};
pub use journal::{Journal, JournalRecord, Recovery};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use seeded::SeededRng;
pub use wire::{cell_spec, open_run_object, parse_run_object, render_run_object, seal_run_object};
pub use worker::{Worker, WorkerConfig, WorkerHandle};
