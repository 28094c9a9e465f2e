//! `dice-obs`: the unified observability layer for the DICE reproduction.
//!
//! Everything the simulator reports flows through this crate:
//!
//! - [`MetricRegistry`] — named counters, gauges and histograms with
//!   interned handles so hot paths never hash a string;
//! - [`Histogram`] — O(1) log₂-bucketed latency histograms with
//!   `min ≤ p50 ≤ p95 ≤ p99 ≤ max` quantile guarantees;
//! - [`LatencyPanel`] / [`RequestClass`] — one histogram per request class
//!   (L4 read hit, miss, second probe, writeback, memory fill);
//! - [`Snapshot`] / [`delta`] / [`impl_snapshot!`] — declarative
//!   snapshot-and-subtract for cumulative stats structs: [`delta`] is the
//!   one way to subtract two counter snapshots;
//! - [`TraceBuffer`] and [`TraceCtx`] — the two traces: a bounded
//!   transaction ring (off by default, one branch per transaction when
//!   disabled) and hierarchical spans whose context crosses threads as
//!   one handle. Both export through one Chrome `trace_event` renderer
//!   (`export_chrome` on each), so their arrays concatenate into one
//!   Perfetto document, and [`validate_chrome_trace`] checks either;
//! - [`TraceLevel`] — whether runs record DICE decision diagnostics;
//! - [`Json`] — a zero-dependency JSON value, writer and parser used for
//!   every machine-readable artifact above;
//! - [`render_prometheus`] — Prometheus text exposition of a whole
//!   registry (served by `dice-serve`'s `/metrics`);
//! - [`DiceError`] / [`ErrorClass`] — the workspace-wide typed error
//!   hierarchy;
//! - [`cli::Flags`] — the one command-line reader of every binary, which
//!   refuses a malformed line the same way everywhere;
//! - [`fnv1a64`] — the one FNV-1a behind cache keys, job ids, `.dtf`
//!   checksums and trace content hashes.
//!
//! # Conventions
//!
//! Rate helpers across the workspace divide through [`ratio`], which
//! returns **0.0 when the denominator is zero** — "no traffic" uniformly
//! reads as a zero rate, never `NaN` and never an optimistic 1.0.
//! Non-finite floats serialize as JSON `null` (see [`Json::num`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
pub mod cli;
mod error;
mod hist;
mod json;
mod panel;
mod prom;
mod registry;
mod snapshot;
mod span;
mod trace;

pub use chrome::validate_chrome_trace;
pub use error::{DiceError, DiceResult, ErrorClass};
pub use hist::Histogram;
pub use json::{Json, JsonError};
pub use panel::{LatencyPanel, RequestClass};
pub use prom::{labeled, prom_escape_label, prom_name, render_prometheus};
pub use registry::{CounterId, GaugeId, HistId, MetricRegistry};
pub use snapshot::{
    delta, register_counters, snapshot_from_json, snapshot_json, FieldKind, Snapshot,
};
pub use span::{SpanGuard, SpanId, SpanRecord, TraceCtx, TraceLevel};
pub use trace::{TraceBuffer, TraceEvent};

/// Observability knobs, embedded in the simulator config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Emit one interval time-series sample every this many cycles during
    /// the measured window (0 disables interval sampling).
    pub interval_cycles: u64,
    /// Transaction-trace ring capacity in events (0 disables tracing).
    pub trace_capacity: usize,
    /// Decision-diagnostics level (off by default; see [`TraceLevel`]).
    /// It gates diagnostics only: spans are recorded when a run is handed
    /// an enabled [`TraceCtx`].
    pub trace_level: TraceLevel,
}

impl Default for ObsConfig {
    fn default() -> Self {
        // ~100k cycles is a few dozen samples on smoke-size runs without
        // bloating reports on long ones; tracing stays opt-in.
        Self {
            interval_cycles: 100_000,
            trace_capacity: 0,
            trace_level: TraceLevel::Off,
        }
    }
}

/// `num / den`, with the workspace-wide idle convention: 0.0 when `den`
/// is zero.
#[inline]
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// 64-bit FNV-1a. Stable across platforms and builds, and cheap.
#[inline]
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues the FNV-1a hash `hash` over `bytes`:
/// `fnv1a64_extend(fnv1a64(a), b)` is the hash of `a` followed by `b`.
#[inline]
#[must_use]
pub fn fnv1a64_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn ratio_is_zero_when_idle() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }

    #[test]
    fn default_config_disables_tracing() {
        let cfg = ObsConfig::default();
        assert_eq!(cfg.trace_capacity, 0);
        assert_eq!(cfg.trace_level, TraceLevel::Off);
        assert!(cfg.interval_cycles > 0);
    }
}
