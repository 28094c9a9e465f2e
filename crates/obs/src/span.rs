//! Hierarchical span tracing with explicit context propagation.
//!
//! A [`TraceCtx`] is a cheap clonable handle shared across threads: the
//! serving layer creates one per sweep, the runner passes it to every
//! worker, and the simulator opens phase spans inside it, so one request
//! yields one causally-linked tree no matter how many threads touched it.
//! A handle carries the span its children open under, and
//! [`SpanGuard::ctx`] hands out the handle for a span's children, so a
//! span context crosses every layer as one value.
//!
//! Design points:
//!
//! * **Disabled is free.** A disabled context (the default) holds no
//!   allocation at all; [`TraceCtx::span`] returns `None` after one branch.
//! * **Lock-cheap collection.** An open span lives entirely in its
//!   [`SpanGuard`] on the opening thread; the shared collector is locked
//!   exactly once per span, when the guard drops and appends the finished
//!   record. Nothing is held locked while a span is running.
//! * **Two timebases.** Every span carries wall-clock microseconds
//!   (monotonic, relative to the context's epoch so records from different
//!   threads order consistently) and, when the owner knows them, simulated
//!   cycle bounds via [`SpanGuard::set_cycles`].
//! * **One exporter.** [`TraceCtx::export_chrome`] maps spans to rows of
//!   the crate's one Chrome `trace_event` renderer, the one
//!   [`TraceBuffer::export_chrome`](crate::TraceBuffer::export_chrome)
//!   uses too, so span and transaction arrays concatenate into one
//!   document and [`validate_chrome_trace`](crate::validate_chrome_trace)
//!   checks both.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::chrome::{render, Row};
use crate::json::Json;

/// How much diagnostic instrumentation a run records. Spans are not
/// gated here: they are recorded whenever a run is handed an enabled
/// [`TraceCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No decision diagnostics in reports (the default; outputs stay
    /// byte-identical to a build without diagnostics).
    #[default]
    Off,
    /// Record DICE decision diagnostics (CIP confusion, probe
    /// attribution, bandwidth bloat) into the run report.
    Decisions,
}

impl TraceLevel {
    /// Whether any diagnostics are recorded at this level.
    #[must_use]
    pub fn diagnostics_on(self) -> bool {
        self != TraceLevel::Off
    }
}

/// Identifier of one span within a [`TraceCtx`] (dense, starting at 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(u64);

impl SpanId {
    /// The raw numeric id.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// The parent span, `None` for a root.
    pub parent: Option<SpanId>,
    /// Human-readable name (`"sweep 1a2b"`, `"cell dice36/gcc"`, …).
    pub name: String,
    /// Label of the thread that ran the span.
    pub thread: String,
    /// Start, in microseconds since the context epoch.
    pub start_us: u64,
    /// End, in microseconds since the context epoch (`>= start_us`).
    pub end_us: u64,
    /// Simulated-cycle bounds, when the span's owner recorded them.
    pub cycles: Option<(u64, u64)>,
}

#[derive(Debug)]
struct CtxInner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// A shared handle to one trace: an id allocator plus a collector of
/// completed spans, and the span that [`span`](Self::span) opens children
/// under (none on a fresh context, which opens roots). Clone it freely;
/// all clones feed the same tree. The default (disabled) context records
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    inner: Option<Arc<CtxInner>>,
    parent: Option<SpanId>,
}

impl TraceCtx {
    /// An enabled context with an empty span tree.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(CtxInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
            parent: None,
        }
    }

    /// Opens a span under this handle's parent. Returns `None` on a
    /// disabled context. The span ends (and is appended to the collector)
    /// when the guard drops.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<SpanGuard> {
        let inner = self.inner.as_ref()?;
        let id = SpanId(inner.next_id.fetch_add(1, Ordering::Relaxed));
        Some(SpanGuard {
            inner: Arc::clone(inner),
            id,
            parent: self.parent,
            name: name.to_owned(),
            start_us: elapsed_us(inner.epoch),
            cycles: None,
        })
    }

    /// Snapshot of every completed span so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner.spans.lock().map(|s| s.clone()).unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Renders the completed spans as a Chrome `trace_event` array, one
    /// track per thread. Span ids, parent links and cycle bounds ride in
    /// each event's `args`, which is what lets a consumer rebuild the
    /// causal tree from the exported document alone.
    #[must_use]
    pub fn export_chrome(&self, name: &str, pid: u32) -> Json {
        let spans = self.spans();
        let mut tids: Vec<&str> = Vec::new();
        let rows = spans.iter().map(|s| {
            let tid = match tids.iter().position(|t| *t == s.thread) {
                Some(i) => i,
                None => {
                    tids.push(&s.thread);
                    tids.len() - 1
                }
            };
            let mut args = vec![("id".into(), Json::u64(s.id.raw()))];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::u64(p.raw())));
            }
            if let Some((cs, ce)) = s.cycles {
                args.push(("cycle_start".into(), Json::u64(cs)));
                args.push(("cycle_end".into(), Json::u64(ce)));
            }
            Row {
                name: &s.name,
                tid: tid as u64,
                ts_us: s.start_us as f64,
                dur_us: (s.end_us - s.start_us) as f64,
                args,
            }
        });
        render(name, pid, "span", rows)
    }
}

fn elapsed_us(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn thread_label() -> String {
    match std::thread::current().name() {
        Some(n) => n.to_owned(),
        None => format!("{:?}", std::thread::current().id()),
    }
}

/// An open span. Lives on the opening thread; dropping it ends the span
/// and appends the finished record to the context's collector (the only
/// lock acquisition in a span's lifetime).
#[derive(Debug)]
pub struct SpanGuard {
    inner: Arc<CtxInner>,
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    start_us: u64,
    cycles: Option<(u64, u64)>,
}

impl SpanGuard {
    /// This span's id.
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// A handle whose spans open as children of this one: hand it to the
    /// code this span covers.
    #[must_use]
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            inner: Some(Arc::clone(&self.inner)),
            parent: Some(self.id),
        }
    }

    /// Attaches simulated-cycle bounds to the span.
    pub fn set_cycles(&mut self, start: u64, end: u64) {
        self.cycles = Some((start, end.max(start)));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_us = elapsed_us(self.inner.epoch).max(self.start_us);
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            thread: thread_label(),
            start_us: self.start_us,
            end_us,
            cycles: self.cycles,
        };
        if let Ok(mut spans) = self.inner.spans.lock() {
            spans.push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate_chrome_trace;

    #[test]
    fn disabled_context_records_nothing() {
        let ctx = TraceCtx::default();
        assert!(ctx.span("nope").is_none());
        assert!(ctx.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_link_parents() {
        let ctx = TraceCtx::enabled();
        let root = ctx.span("root").unwrap();
        let child = root.ctx().span("child").unwrap();
        let child_id = child.id();
        drop(child);
        let root_id = root.id();
        drop(root);

        let spans = ctx.spans();
        assert_eq!(spans.len(), 2);
        // Completion order: child first.
        assert_eq!(spans[0].id, child_id);
        assert_eq!(spans[0].parent, Some(root_id));
        assert_eq!(spans[1].parent, None);
        assert!(spans[0].end_us >= spans[0].start_us);
    }

    #[test]
    fn spans_collected_across_threads_share_one_tree() {
        let ctx = TraceCtx::enabled();
        let root = ctx.span("root").unwrap();
        let root_id = root.id();
        std::thread::scope(|s| {
            for i in 0..4 {
                let ctx = root.ctx();
                s.spawn(move || {
                    let _g = ctx.span(&format!("worker {i}"));
                });
            }
        });
        drop(root);
        let spans = ctx.spans();
        assert_eq!(spans.len(), 5);
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 5, "ids must be unique across threads");
        assert_eq!(
            spans.iter().filter(|s| s.parent == Some(root_id)).count(),
            4
        );
    }

    #[test]
    fn chrome_export_matches_trace_event_shape() {
        let ctx = TraceCtx::enabled();
        let mut root = ctx.span("sweep").unwrap();
        root.set_cycles(0, 3200);
        let root_id = root.id();
        drop(root.ctx().span("cell"));
        drop(root);

        let j = ctx.export_chrome("sweep 1", 7);
        let text = j.render();
        let parsed = Json::parse(&text).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            arr[0].get("args").unwrap().get("name").unwrap().as_str(),
            Some("sweep 1")
        );
        for ev in &arr[1..] {
            assert_eq!(ev.get("ph").unwrap().as_str(), Some("X"));
            assert!(ev.get("ts").unwrap().as_f64().is_some());
            assert!(ev.get("dur").unwrap().as_f64().is_some());
            assert!(ev
                .get("args")
                .unwrap()
                .get("id")
                .unwrap()
                .as_u64()
                .is_some());
        }
        // The cell event links back to the sweep root.
        let cell = arr
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("cell"))
            .unwrap();
        assert_eq!(
            cell.get("args").unwrap().get("parent").unwrap().as_u64(),
            Some(root_id.raw())
        );
    }

    #[test]
    fn validator_accepts_exports_and_rejects_malformed() {
        let ctx = TraceCtx::enabled();
        let root = ctx.span("root").unwrap();
        drop(root.ctx().span("leaf"));
        drop(root);
        let doc = ctx.export_chrome("t", 0);
        validate_chrome_trace(&doc).expect("export validates");

        assert!(validate_chrome_trace(&Json::Obj(vec![])).is_err());
        let missing_ts = Json::Arr(vec![Json::Obj(vec![
            ("ph".into(), Json::str("X")),
            ("name".into(), Json::str("x")),
            ("pid".into(), Json::u64(0)),
        ])]);
        assert!(validate_chrome_trace(&missing_ts).is_err());
    }

    #[test]
    fn trace_level_default_is_off() {
        assert_eq!(TraceLevel::default(), TraceLevel::Off);
        assert!(!TraceLevel::Off.diagnostics_on());
        assert!(TraceLevel::Decisions.diagnostics_on());
    }
}
