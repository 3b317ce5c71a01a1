//! Trace and metrics exporters: human-readable summary, structured JSON
//! and the Chrome `trace_event` format.
//!
//! The Chrome export emits duration events (`"ph": "B"` / `"ph": "E"`)
//! with microsecond timestamps — one balanced pair per span, on the
//! recording thread's track — wrapped in the object form
//! `{"traceEvents": […], "displayTimeUnit": "ms"}`. Load the file in
//! `chrome://tracing` or <https://ui.perfetto.dev> to see the worker
//! schedule as the hardware ran it.

use crate::registry::MetricsSnapshot;
use crate::span::{Phase, Trace};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt::Write as _;

/// Wrapper making a raw [`Value`] tree usable with the vendored
/// `serde_json` entry points (which take `Serialize`/`Deserialize`
/// implementors, not `Value` directly).
#[derive(Debug, Clone, PartialEq)]
pub struct RawValue(pub Value);

impl Serialize for RawValue {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for RawValue {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(RawValue(value.clone()))
    }
}

/// The Chrome `trace_event` document for a trace, as a [`Value`] tree.
pub fn chrome_trace_value(trace: &Trace) -> Value {
    let pid = u64::from(std::process::id());
    let events: Vec<Value> = trace
        .events
        .iter()
        .map(|e| {
            let mut fields: Vec<(String, Value)> = vec![
                ("name".into(), Value::Str(e.name.to_string())),
                ("cat".into(), Value::Str(e.cat.to_string())),
                (
                    "ph".into(),
                    Value::Str(match e.phase {
                        Phase::Begin => "B".to_string(),
                        Phase::End => "E".to_string(),
                    }),
                ),
                ("ts".into(), Value::Float(e.ts_nanos as f64 / 1e3)),
                ("pid".into(), Value::UInt(pid)),
                ("tid".into(), Value::UInt(u64::from(e.tid))),
            ];
            if e.phase == Phase::Begin && !e.args.is_empty() {
                fields.push((
                    "args".into(),
                    Value::Object(
                        e.args
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                            .collect(),
                    ),
                ));
            }
            Value::Object(fields)
        })
        .collect();
    Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
}

/// Renders a trace as compact Chrome `trace_event` JSON.
///
/// # Panics
///
/// Never: the tree contains no non-serializable values.
#[must_use]
pub fn chrome_trace_json(trace: &Trace) -> String {
    serde_json::to_string(&RawValue(chrome_trace_value(trace))).expect("trace tree serializes")
}

/// Renders the structured JSON report: event count, per-span aggregates
/// and the metrics snapshot.
///
/// # Panics
///
/// Never: the tree contains no non-serializable values.
#[must_use]
pub fn json_report(trace: &Trace, metrics: &MetricsSnapshot) -> String {
    let spans: Vec<Value> = trace
        .summaries()
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("cat".into(), Value::Str(s.cat.to_string())),
                ("name".into(), Value::Str(s.name.to_string())),
                ("count".into(), Value::UInt(s.count)),
                ("total_ms".into(), Value::Float(s.total_nanos as f64 / 1e6)),
                ("max_ms".into(), Value::Float(s.max_nanos as f64 / 1e6)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("events".into(), Value::UInt(trace.len() as u64)),
        (
            "threads".into(),
            Value::UInt(trace.thread_ids().len() as u64),
        ),
        ("spans".into(), Value::Array(spans)),
        ("metrics".into(), metrics.to_value()),
    ]);
    serde_json::to_string_pretty(&RawValue(doc)).expect("report tree serializes")
}

/// Renders the human-readable summary printed to stderr by
/// `vdbench campaign --timings`: span aggregates (descending total time), then
/// every registered counter, gauge and histogram.
#[must_use]
pub fn summary(trace: &Trace, metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "telemetry: {} span events on {} thread{}",
        trace.len(),
        trace.thread_ids().len(),
        if trace.thread_ids().len() == 1 {
            ""
        } else {
            "s"
        }
    );
    if !trace.is_empty() {
        let _ = writeln!(
            out,
            "  {:<28} {:>7} {:>12} {:>12}",
            "span", "count", "total ms", "max ms"
        );
        for s in trace.summaries() {
            let _ = writeln!(
                out,
                "  {:<28} {:>7} {:>12.2} {:>12.2}",
                format!("{}/{}", s.cat, s.name),
                s.count,
                s.total_nanos as f64 / 1e6,
                s.max_nanos as f64 / 1e6
            );
        }
    }
    for (name, value) in &metrics.counters {
        let _ = writeln!(out, "  counter {name} = {value}");
    }
    for (name, value) in &metrics.gauges {
        let _ = writeln!(out, "  gauge   {name} = {value}");
    }
    for (name, h) in &metrics.histograms {
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|(i, n)| {
                let (lo, hi) = crate::registry::Histogram::bucket_bounds(*i as usize);
                match hi {
                    Some(hi) => format!("[{lo},{hi}):{n}"),
                    None => format!("[{lo},max]:{n}"),
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "  hist    {name}: n={} sum={} {}",
            h.count,
            h.sum,
            buckets.join(" ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::span::{SpanEvent, Trace};

    fn demo_trace() -> Trace {
        Trace {
            events: vec![
                SpanEvent {
                    phase: Phase::Begin,
                    cat: "core",
                    name: "case_study",
                    ts_nanos: 1_000,
                    tid: 0,
                    args: vec![("scenario".into(), "S1".into())],
                },
                SpanEvent {
                    phase: Phase::End,
                    cat: "core",
                    name: "case_study",
                    ts_nanos: 4_500_000,
                    tid: 0,
                    args: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn chrome_trace_shape_and_round_trip() {
        let json = chrome_trace_json(&demo_trace());
        let RawValue(doc) = serde_json::from_str(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph"), Some(&Value::Str("B".into())));
        assert_eq!(events[1].get("ph"), Some(&Value::Str("E".into())));
        assert_eq!(events[0].get("cat"), Some(&Value::Str("core".into())));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("scenario")),
            Some(&Value::Str("S1".into()))
        );
        assert_eq!(events[1].get("args"), None, "end events carry no args");
        assert_eq!(events[0].get("ts"), Some(&Value::Float(1.0)), "ts in µs");
        assert_eq!(doc.get("displayTimeUnit"), Some(&Value::Str("ms".into())));
    }

    #[test]
    fn summary_and_json_report_render() {
        let reg = Registry::new();
        reg.counter("cache.hits").add(2);
        reg.gauge("threads").set(4.0);
        reg.histogram("latency").record(100);
        let trace = demo_trace();
        let text = summary(&trace, &reg.snapshot());
        assert!(text.contains("core/case_study"), "{text}");
        assert!(text.contains("counter cache.hits = 2"), "{text}");
        assert!(text.contains("gauge   threads = 4"), "{text}");
        assert!(text.contains("hist    latency: n=1"), "{text}");
        let report = json_report(&trace, &reg.snapshot());
        let RawValue(doc) = serde_json::from_str(&report).unwrap();
        // The parser reads small integers back as `Int`.
        assert_eq!(doc.get("events"), Some(&Value::Int(2)));
        assert!(doc.get("metrics").is_some());
    }
}
