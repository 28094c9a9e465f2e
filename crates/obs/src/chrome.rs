//! The Chrome `trace_event` format: the one renderer the transaction ring
//! and the span tree map their records onto, so their arrays share one
//! shape and concatenate into one Perfetto document, and the validator
//! that checks either.

use crate::json::Json;

/// One duration event, before the fields every event of a document
/// shares (category and pid) are filled in.
pub(crate) struct Row<'a> {
    pub name: &'a str,
    pub tid: u64,
    pub ts_us: f64,
    pub dur_us: f64,
    pub args: Vec<(String, Json)>,
}

/// A `process_name` metadata event naming process `pid`, then one
/// complete (`"ph": "X"`) event of category `cat` per row.
pub(crate) fn render<'a>(
    name: &str,
    pid: u32,
    cat: &str,
    rows: impl IntoIterator<Item = Row<'a>>,
) -> Json {
    let pid = Json::u64(u64::from(pid));
    let mut events = vec![Json::Obj(vec![
        ("ph".into(), Json::str("M")),
        ("name".into(), Json::str("process_name")),
        ("pid".into(), pid.clone()),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::str(name))]),
        ),
    ])];
    events.extend(rows.into_iter().map(|r| {
        Json::Obj(vec![
            ("ph".into(), Json::str("X")),
            ("name".into(), Json::str(r.name)),
            ("cat".into(), Json::str(cat)),
            ("pid".into(), pid.clone()),
            ("tid".into(), Json::u64(r.tid)),
            ("ts".into(), Json::num(r.ts_us)),
            ("dur".into(), Json::num(r.dur_us)),
            ("args".into(), Json::Obj(r.args)),
        ])
    }));
    Json::Arr(events)
}

/// Validates a document as a Chrome `trace_event` array (the shape every
/// exporter in this crate emits): a JSON array whose entries are objects
/// with `ph`, `name` and `pid`, where every duration (`"X"`) event also
/// carries numeric `ts`, `dur` and `tid`. Useful as a CI gate on exported
/// traces.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .as_arr()
        .ok_or_else(|| "trace must be a JSON array".to_owned())?;
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: &str| Err(format!("event {i}: {msg}"));
        let Some(ph) = ev.get("ph").and_then(Json::as_str) else {
            return fail("missing \"ph\"");
        };
        if ev.get("name").and_then(Json::as_str).is_none() {
            return fail("missing \"name\"");
        }
        if ev.get("pid").and_then(Json::as_u64).is_none() {
            return fail("missing numeric \"pid\"");
        }
        match ph {
            "M" => {}
            "X" => {
                if ev.get("ts").and_then(Json::as_f64).is_none()
                    || ev.get("dur").and_then(Json::as_f64).is_none()
                {
                    return fail("duration event missing numeric \"ts\"/\"dur\"");
                }
                if ev.get("tid").and_then(Json::as_u64).is_none() {
                    return fail("duration event missing numeric \"tid\"");
                }
            }
            other => return fail(&format!("unsupported phase {other:?}")),
        }
    }
    Ok(())
}
