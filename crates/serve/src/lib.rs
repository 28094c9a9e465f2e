//! `dice-serve`: the DICE harness as a long-running service.
//!
//! A zero-dependency HTTP/1.1 server (std `TcpListener` only) that exposes
//! the [`dice_runner`] sweep engine over a small JSON API:
//!
//! * `POST /v1/sweeps` — submit a sweep spec ([`SweepSpec`]); returns a
//!   job id. Submissions are **single-flight**: identical specs coalesce
//!   onto one job (one simulation, N responses), and admission is bounded
//!   (`429 Too Many Requests` + `Retry-After` when the queue is full,
//!   never an unbounded backlog).
//! * `GET /v1/sweeps/:id` — job status; `GET /v1/sweeps/:id/report` — the
//!   canonical result document, byte-identical to what a direct
//!   `dice-runner` invocation of the same spec renders.
//! * `GET /v1/experiments` — the shared experiment catalog
//!   ([`dice_bench::catalog_json`]), byte-identical to `experiments
//!   --list`.
//! * `GET /metrics` — Prometheus text exposition of the server's
//!   [`dice_obs::MetricRegistry`].
//! * `GET /healthz`, `GET /version` — liveness (`503` once draining) and
//!   build identity.
//!
//! The queue runs each admitted sweep through a [`SweepExecutor`]:
//! [`Server::bind`] runs them in-process through the runner, and the
//! `dice-fabric` coordinator serves this same API with a scatter executor
//! behind the same queue.
//!
//! Shutdown is a graceful drain: the first SIGTERM stops accepting
//! connections and lets in-flight sweeps finish (their cells land in the
//! persistent cache); a second SIGTERM cooperatively cancels remaining
//! cells through [`dice_runner::RunnerConfig::cancel`].
//!
//! The crate also ships `dice-serve-loadgen`, the probe client CI uses to
//! byte-compare served reports against direct runs and to validate
//! `/metrics` and `/v1/sweeps/:id/trace`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod jobs;
pub mod net;
pub mod promcheck;
pub mod server;
pub mod signal;
pub mod spec;
pub mod sse;

pub use client::{
    http_get, http_get_timeout, http_post, http_post_timeout, http_probe, ClientResponse,
    ProbeError,
};
pub use jobs::{
    render_event, EventLog, Executed, JobQueue, JobQueueConfig, JobState, Submission,
    SweepExecutor, SweepRun,
};
pub use net::{Handled, NetConfig, NetServer};
pub use promcheck::validate_prometheus;
pub use server::{ExtraRoutes, Handle, ServeConfig, Server};
pub use spec::{render_run_object, render_runs, sweep_key, SpecError, SweepSpec};
pub use sse::{sse_data_lines, stream_sse};
