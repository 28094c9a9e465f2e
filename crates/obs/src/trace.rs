//! Bounded transaction trace with Chrome `trace_event` export.
//!
//! A [`TraceBuffer`] is a fixed-capacity ring of [`TraceEvent`]s. With
//! capacity 0 (the default) [`push`] is a branch-and-return — tracing
//! disabled costs one predictable branch per transaction. When enabled, the
//! newest events win: the ring overwrites the oldest once full, and
//! `dropped` counts how many were evicted so exports are honest about
//! truncation.
//!
//! [`export_chrome`] maps the buffer to rows of the crate's one Chrome
//! `trace_event` renderer (the one span trees go through too, checked by
//! the same [`validate_chrome_trace`](crate::validate_chrome_trace)):
//! one complete (`"ph": "X"`) duration event per transaction, with the
//! request class as the track (`tid`) so classes stack into separate
//! rows in [Perfetto](https://ui.perfetto.dev).
//!
//! [`push`]: TraceBuffer::push
//! [`export_chrome`]: TraceBuffer::export_chrome

use crate::chrome::{render, Row};
use crate::json::Json;
use crate::panel::RequestClass;

/// One completed transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start cycle of the transaction.
    pub start: u64,
    /// Completion cycle (≥ `start`).
    pub end: u64,
    /// What kind of transaction this was.
    pub class: RequestClass,
    /// Line address involved.
    pub addr: u64,
}

/// Fixed-capacity ring buffer of [`TraceEvent`]s (capacity 0 = disabled).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBuffer {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position once the ring is full.
    head: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events; 0 disables tracing.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Vec::new(),
            cap: capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Records one event; oldest events are overwritten once full.
    #[inline]
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events evicted by the ring since creation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer.iter())
    }

    /// Serializes the buffer state: `capacity`, `dropped`, and the retained
    /// events oldest-first as `[start, end, class, addr]` rows.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("capacity".into(), Json::u64(self.cap as u64)),
            ("dropped".into(), Json::u64(self.dropped)),
            (
                "events".into(),
                Json::Arr(
                    self.events()
                        .map(|ev| {
                            Json::Arr(vec![
                                Json::u64(ev.start),
                                Json::u64(ev.end),
                                Json::str(ev.class.name()),
                                Json::u64(ev.addr),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuilds a buffer from [`to_json`] output. The ring is normalized
    /// (oldest event first, write position at the start), which leaves the
    /// observable state — [`events`], [`len`], [`dropped`] — identical.
    /// Returns `None` for malformed documents or more events than
    /// `capacity`.
    ///
    /// [`to_json`]: TraceBuffer::to_json
    /// [`events`]: TraceBuffer::events
    /// [`len`]: TraceBuffer::len
    /// [`dropped`]: TraceBuffer::dropped
    #[must_use]
    pub fn from_json(j: &Json) -> Option<TraceBuffer> {
        let cap = usize::try_from(j.get("capacity")?.as_u64()?).ok()?;
        let dropped = j.get("dropped")?.as_u64()?;
        let mut buf = Vec::new();
        for row in j.get("events")?.as_arr()? {
            let start = row.idx(0)?.as_u64()?;
            let end = row.idx(1)?.as_u64()?;
            if end < start {
                return None;
            }
            buf.push(TraceEvent {
                start,
                end,
                class: RequestClass::from_name(row.idx(2)?.as_str()?)?,
                addr: row.idx(3)?.as_u64()?,
            });
        }
        if buf.len() > cap {
            return None;
        }
        Some(TraceBuffer {
            buf,
            cap,
            head: 0,
            dropped,
        })
    }

    /// Renders the retained events as a Chrome `trace_event` array, one
    /// track per request class, with each transaction's line address in
    /// its `args`. `freq_ghz` converts cycles to the format's microsecond
    /// timebase; `pid` labels the process row (`name` becomes its
    /// `process_name`), letting multiple runs coexist in one Perfetto view.
    #[must_use]
    pub fn export_chrome(&self, name: &str, pid: u32, freq_ghz: f64) -> Json {
        let to_us = |cycles: u64| cycles as f64 / (freq_ghz * 1000.0);
        let rows = self.events().map(|ev| Row {
            name: ev.class.name(),
            tid: ev.class as u64,
            ts_us: to_us(ev.start),
            dur_us: to_us(ev.end - ev.start),
            args: vec![("addr".into(), Json::str(format!("{:#x}", ev.addr)))],
        });
        render(name, pid, "dram-cache", rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(start: u64, end: u64) -> TraceEvent {
        TraceEvent {
            start,
            end,
            class: RequestClass::ReadHit,
            addr: 0x1000,
        }
    }

    #[test]
    fn zero_capacity_discards_everything() {
        let mut buf = TraceBuffer::new(0);
        buf.push(ev(0, 10));
        assert!(buf.is_empty());
        assert_eq!(buf.dropped(), 0);
    }

    #[test]
    fn ring_keeps_newest_in_order() {
        let mut buf = TraceBuffer::new(3);
        for i in 0..5 {
            buf.push(ev(i * 10, i * 10 + 5));
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.dropped(), 2);
        let starts: Vec<u64> = buf.events().map(|e| e.start).collect();
        assert_eq!(starts, vec![20, 30, 40]);
    }

    #[test]
    fn json_round_trip_preserves_observable_state() {
        let mut buf = TraceBuffer::new(3);
        for i in 0..5 {
            buf.push(ev(i * 10, i * 10 + 5)); // ring wraps: head != 0
        }
        let back = TraceBuffer::from_json(&buf.to_json()).unwrap();
        assert_eq!(back.len(), buf.len());
        assert_eq!(back.dropped(), buf.dropped());
        let a: Vec<TraceEvent> = buf.events().copied().collect();
        let b: Vec<TraceEvent> = back.events().copied().collect();
        assert_eq!(a, b);
        assert_eq!(back.to_json().render(), buf.to_json().render());
        // Corruption is rejected, not panicked on.
        assert_eq!(TraceBuffer::from_json(&Json::Null), None);
        assert_eq!(
            TraceBuffer::from_json(&Json::parse(r#"{"capacity":1,"dropped":0}"#).unwrap()),
            None
        );
    }

    #[test]
    fn chrome_export_is_valid_json_with_metadata() {
        let mut buf = TraceBuffer::new(8);
        buf.push(ev(3200, 6400));
        let text = buf.export_chrome("gcc", 1, 3.2).render();
        let parsed = Json::parse(&text).unwrap();
        crate::validate_chrome_trace(&parsed).expect("ring export validates");
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("M"));
        let x = &arr[1];
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        // 3200 cycles at 3.2 GHz is exactly 1 µs.
        assert_eq!(x.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(1.0));
    }
}
