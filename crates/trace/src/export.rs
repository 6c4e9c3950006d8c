//! Trace exporters: human-readable tree and Chrome `trace_event`.
//!
//! - [`render_tree`] prints the span hierarchy with durations and
//!   attributes — the quick look.
//! - [`to_chrome`] / [`from_chrome`] is the one file format: Chrome
//!   `trace_event` "X" (complete event) encoding. The files written to
//!   `results/trace_*.json` open directly in `chrome://tracing` or
//!   <https://ui.perfetto.dev>, and the exact span fields ride along in
//!   `args`, so the format round-trips losslessly.

use crate::collector::Trace;
use crate::json::{parse, Json};
use crate::span::{AttrValue, Event, Span};
use std::fmt::Write as _;

// ---------------------------------------------------------------- tree ----

/// Render the span hierarchy as an indented tree with durations (ms),
/// attributes, and events. Spans whose parent was evicted from the ring
/// render as roots.
pub fn render_tree(trace: &Trace) -> String {
    let mut out = format!(
        "trace: {} span{} ({} dropped)\n",
        trace.len(),
        if trace.len() == 1 { "" } else { "s" },
        trace.dropped
    );
    let present: std::collections::HashSet<u64> = trace.spans.iter().map(|s| s.id).collect();
    let roots: Vec<&Span> = trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none_or(|p| !present.contains(&p)))
        .collect();
    for root in roots {
        render_span(trace, root, 0, &mut out);
    }
    out
}

fn render_span(trace: &Trace, span: &Span, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let _ = write!(
        out,
        "{indent}{}  {:.3}ms",
        span.name,
        span.dur_ns as f64 / 1e6
    );
    if !span.attrs.is_empty() {
        let rendered: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = write!(out, "  [{}]", rendered.join(" "));
    }
    out.push('\n');
    for event in &span.events {
        let _ = write!(
            out,
            "{indent}  * {} @{:.3}ms",
            event.name,
            event.at_ns.saturating_sub(span.start_ns) as f64 / 1e6
        );
        if !event.attrs.is_empty() {
            let rendered: Vec<String> = event
                .attrs
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let _ = write!(out, " [{}]", rendered.join(" "));
        }
        out.push('\n');
    }
    // Children in trace order (already sorted by (start, id)).
    for child in trace.spans.iter().filter(|s| s.parent == Some(span.id)) {
        render_span(trace, child, depth + 1, out);
    }
}

// -------------------------------------------------------------- chrome ----

fn attrs_to_json(attrs: &[(String, AttrValue)]) -> Json {
    Json::Obj(
        attrs
            .iter()
            .map(|(k, v)| {
                let value = match v {
                    AttrValue::Bool(b) => Json::Bool(*b),
                    AttrValue::Int(i) => Json::Int(*i),
                    AttrValue::Float(f) => Json::Float(*f),
                    AttrValue::Str(s) => Json::Str(s.clone()),
                };
                (k.clone(), value)
            })
            .collect(),
    )
}

fn attrs_from_json(value: &Json) -> Result<Vec<(String, AttrValue)>, String> {
    let Json::Obj(members) = value else {
        return Err("attrs must be an object".to_string());
    };
    members
        .iter()
        .map(|(k, v)| {
            let attr = match v {
                Json::Bool(b) => AttrValue::Bool(*b),
                Json::Int(i) => AttrValue::Int(*i),
                Json::Float(f) => AttrValue::Float(*f),
                Json::Str(s) => AttrValue::Str(s.clone()),
                // Non-finite floats were written as null.
                Json::Null => AttrValue::Float(f64::NAN),
                other => return Err(format!("attr {k:?} has non-scalar value {other:?}")),
            };
            Ok((k.clone(), attr))
        })
        .collect()
}

fn json_u64(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or invalid field {key:?}"))
}

/// Serialize a trace in Chrome `trace_event` JSON (complete "X" events,
/// timestamps in microseconds). Opens in `chrome://tracing` and Perfetto;
/// the exact span fields ride along in each event's `args` so
/// [`from_chrome`] reconstructs the trace losslessly.
pub fn to_chrome(trace: &Trace) -> String {
    let events: Vec<Json> = trace
        .spans
        .iter()
        .map(|span| {
            let mut args = vec![
                ("span_id".to_string(), json_u64(span.id)),
                (
                    "span_parent".to_string(),
                    span.parent.map_or(Json::Null, json_u64),
                ),
                ("start_ns".to_string(), json_u64(span.start_ns)),
                ("dur_ns".to_string(), json_u64(span.dur_ns)),
                ("wall_start_us".to_string(), json_u64(span.wall_start_us)),
                ("attrs".to_string(), attrs_to_json(&span.attrs)),
            ];
            if !span.events.is_empty() {
                args.push((
                    "events".to_string(),
                    Json::Arr(
                        span.events
                            .iter()
                            .map(|e| {
                                Json::Obj(vec![
                                    ("name".into(), Json::Str(e.name.clone())),
                                    ("at_ns".into(), json_u64(e.at_ns)),
                                    ("attrs".into(), attrs_to_json(&e.attrs)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            Json::Obj(vec![
                ("name".into(), Json::Str(span.name.clone())),
                ("cat".into(), Json::Str("pstack".into())),
                ("ph".into(), Json::Str("X".into())),
                // Viewer timestamps are µs floats; the exact ns values are
                // in args.
                ("ts".into(), Json::Float(span.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Float(span.dur_ns as f64 / 1e3)),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), json_u64(span.tid)),
                ("args".into(), Json::Obj(args)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        (
            "otherData".into(),
            Json::Obj(vec![
                ("producer".into(), Json::Str("pstack-trace".into())),
                ("dropped".into(), json_u64(trace.dropped)),
            ]),
        ),
    ])
    .to_string()
}

/// Parse a Chrome `trace_event` file produced by [`to_chrome`] (complete
/// "X" events with pstack args; other phase types are ignored).
pub fn from_chrome(text: &str) -> Result<Trace, String> {
    let doc = parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("dropped"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let mut spans = Vec::new();
    for event in events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let args = event.get("args").ok_or("X event missing args")?;
        let span_events = args
            .get("events")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|e| {
                Ok(Event {
                    name: e
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("event missing name")?
                        .to_string(),
                    at_ns: field_u64(e, "at_ns")?,
                    attrs: attrs_from_json(e.get("attrs").unwrap_or(&Json::Obj(Vec::new())))?,
                })
            })
            .collect::<Result<Vec<Event>, String>>()?;
        spans.push(Span {
            id: field_u64(args, "span_id")?,
            parent: match args.get("span_parent") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or("invalid span_parent")?),
            },
            name: event
                .get("name")
                .and_then(Json::as_str)
                .ok_or("event missing name")?
                .to_string(),
            tid: field_u64(event, "tid")?,
            start_ns: field_u64(args, "start_ns")?,
            dur_ns: field_u64(args, "dur_ns")?,
            wall_start_us: field_u64(args, "wall_start_us")?,
            attrs: attrs_from_json(args.get("attrs").unwrap_or(&Json::Obj(Vec::new())))?,
            events: span_events,
        });
    }
    spans.sort_by_key(|s| (s.start_ns, s.id));
    Ok(Trace { spans, dropped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;

    fn sample_trace() -> Trace {
        let collector = TraceCollector::new();
        {
            let mut root = collector.span("tuner.run_parallel");
            root.attr("algorithm", "random");
            root.attr("seed", 7u64);
            root.attr("frac", 0.25);
            root.attr("degraded", false);
            {
                let mut eval = root.child("eval");
                eval.attr("worker", 3usize);
                eval.event_with("cache_hit", vec![("hits".into(), AttrValue::Int(2))]);
            }
        }
        let mut trace = collector.take();
        trace.dropped = 5; // exercise drop accounting through the codecs
        trace
    }

    #[test]
    fn chrome_round_trips_exactly() {
        let trace = sample_trace();
        let text = to_chrome(&trace);
        let back = from_chrome(&text).expect("parses");
        assert_eq!(back, trace);
    }

    #[test]
    fn chrome_output_is_viewer_shaped() {
        let text = to_chrome(&sample_trace());
        let doc = parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        assert_eq!(events.len(), 2);
        for event in events {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert_eq!(event.get("cat").and_then(Json::as_str), Some("pstack"));
            assert!(event.get("ts").and_then(Json::as_f64).is_some());
            assert!(event.get("dur").and_then(Json::as_f64).is_some());
            assert!(event.get("pid").and_then(Json::as_i64).is_some());
            assert!(event.get("tid").and_then(Json::as_i64).is_some());
        }
    }

    #[test]
    fn tree_render_shows_hierarchy_and_attrs() {
        let rendered = render_tree(&sample_trace());
        assert!(rendered.starts_with("trace: 2 spans (5 dropped)"));
        assert!(rendered.contains("tuner.run_parallel"));
        assert!(rendered.contains("algorithm=random"));
        // The child is indented under the root, with its event.
        assert!(rendered.contains("\n  eval"));
        assert!(rendered.contains("* cache_hit"));
        assert!(rendered.contains("hits=2"));
    }

    #[test]
    fn orphaned_spans_render_as_roots() {
        let mut trace = sample_trace();
        trace.spans.retain(|s| s.name == "eval"); // parent evicted
        let rendered = render_tree(&trace);
        assert!(rendered.contains("\neval"), "orphan promoted to root");
    }

    #[test]
    fn chrome_rejects_foreign_files() {
        assert!(from_chrome("").is_err());
        assert!(from_chrome("{\"not\":\"a trace\"}").is_err());
        assert!(from_chrome("{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"x\"}]}").is_err());
    }
}
