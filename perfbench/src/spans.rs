//! Timing spans the benchmark records around its own calls into each layer.
//!
//! A span has a name and a duration. Spans stay in memory; the traced run
//! reduces each name's durations to a per-layer metric. A disabled tracer
//! hands out no guards, so an untraced round pays one branch per call site.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The span store shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<(&'static str, Duration)>>,
}

/// An open span; it is recorded when dropped.
#[derive(Debug)]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    start: Instant,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push((self.name, dur));
        }
    }
}

impl Tracer {
    /// A tracer that records (`on`) or hands out no spans at all.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span called `name` (layer-qualified, as `serve.post`);
    /// `None` when the tracer is off.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Option<Guard<'_>> {
        self.on.then(|| Guard {
            tracer: self,
            name,
            start: Instant::now(),
        })
    }

    /// Durations in milliseconds of every finished span called `name`.
    #[must_use]
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span store poisoned")
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert!(t.span("x").is_none());
        assert!(t.durations_ms("x").is_empty());
    }

    #[test]
    fn spans_record_name_and_duration() {
        let t = Tracer::new(true);
        let outer = t.span("outer").expect("on");
        drop(t.span("inner"));
        drop(outer);
        let (inner, outer) = (t.durations_ms("inner"), t.durations_ms("outer"));
        assert_eq!((inner.len(), outer.len()), (1, 1));
        assert!(outer[0] >= inner[0]);
        assert!(t.durations_ms("other").is_empty());
    }
}
