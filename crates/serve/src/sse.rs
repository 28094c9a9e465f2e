//! A generic server-sent-events pump over chunked transfer encoding: the
//! transport behind `GET /v1/sweeps/:id/events`.
//!
//! The pump owns the socket for the stream's lifetime: it waits on a
//! caller-supplied cursor function until new events arrive, the subject
//! ends or a heartbeat is due, writes each new event as a `data: …\n\n`
//! chunk, emits comment heartbeats while idle (keeping the connection
//! visibly alive under the 5 s socket write timeout), and closes the
//! chunked stream with a terminal `{"event":"end"}` record once the poll
//! reports a terminal state.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dice_obs::Json;

use crate::http::{finish_chunks, write_chunk, write_stream_head, Response};

/// Hard wall-clock cap on one event stream.
const STREAM_DEADLINE: Duration = Duration::from_secs(600);
/// Idle interval between comment heartbeats.
const HEARTBEAT: Duration = Duration::from_secs(2);

/// Streams events to `out` until the poll function reports a terminal
/// state (or the client goes away). `poll(cursor, wait)` returns the
/// events at and past `cursor` plus `Some(state)` once the stream should
/// end with that state name (events and terminal state must be read
/// atomically by the poll, so a terminal state means the returned slice
/// completes the stream); when there is neither, it may block for up to
/// `wait` until there is. It returns `None` only if the subject is
/// unknown, which answers `404`. The pump passes the time left until the
/// next heartbeat, capped by the stream's deadline. Returns the status
/// code to record.
pub fn stream_sse(
    out: &mut impl Write,
    poll: impl Fn(usize, Duration) -> Option<(Vec<Arc<String>>, Option<&'static str>)>,
) -> u16 {
    if poll(0, Duration::ZERO).is_none() {
        let _ = Response::error(404, "no such job").write(out);
        return 404;
    }
    if write_stream_head(out, "text/event-stream").is_err() {
        return 200;
    }
    let mut cursor = 0usize;
    let mut last_write = Instant::now();
    let deadline = Instant::now() + STREAM_DEADLINE;
    loop {
        let wait = (last_write + HEARTBEAT)
            .min(deadline)
            .saturating_duration_since(Instant::now());
        let Some((events, terminal)) = poll(cursor, wait) else {
            break;
        };
        cursor += events.len();
        for event in &events {
            if write_chunk(out, format!("data: {event}\n\n").as_bytes()).is_err() {
                return 200;
            }
            last_write = Instant::now();
        }
        if let Some(state) = terminal {
            let end = Json::Obj(vec![
                ("event".into(), Json::str("end")),
                ("state".into(), Json::str(state)),
            ])
            .render();
            let _ = write_chunk(out, format!("data: {end}\n\n").as_bytes());
            break;
        }
        if Instant::now() > deadline {
            break;
        }
        if events.is_empty() && last_write.elapsed() >= HEARTBEAT {
            if write_chunk(out, b": heartbeat\n\n").is_err() {
                return 200;
            }
            last_write = Instant::now();
        }
    }
    let _ = finish_chunks(out);
    200
}

/// Splits a raw SSE body into its `data:` payload lines (heartbeat
/// comments and blank separators dropped) — the inverse of the pump's
/// framing, for clients and tests.
#[must_use]
pub fn sse_data_lines(body: &str) -> Vec<String> {
    body.lines()
        .filter_map(|l| l.strip_prefix("data: "))
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn unknown_subject_is_404() {
        let mut out = Vec::new();
        let status = stream_sse(&mut out, |_, _| None);
        assert_eq!(status, 404);
        assert!(String::from_utf8_lossy(&out).contains("no such job"));
    }

    #[test]
    fn streams_events_then_end_record() {
        // Two poll rounds: first returns one event and no terminal state,
        // second returns one more event plus the terminal state.
        let round = Mutex::new(0usize);
        let mut out = Vec::new();
        let status = stream_sse(&mut out, |cursor, _wait| {
            let mut round = round.lock().expect("round");
            *round += 1;
            let all = [
                Arc::new("{\"n\":1}".to_owned()),
                Arc::new("{\"n\":2}".to_owned()),
            ];
            let visible = if *round == 1 { 1 } else { 2 };
            let events = all[cursor.min(visible)..visible].to_vec();
            Some((events, (*round >= 2).then_some("done")))
        });
        assert_eq!(status, 200);
        let text = String::from_utf8_lossy(&out);
        let data = sse_data_lines(&text);
        assert_eq!(
            data,
            vec![
                "{\"n\":1}",
                "{\"n\":2}",
                "{\"event\":\"end\",\"state\":\"done\"}"
            ]
        );
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
