//! Metric exposition: Prometheus-style text and a JSON variant.
//!
//! Both renderers walk [`Registry::visit`], which lends samples in a stable
//! `(name, labels)` order, so two scrapes of an unchanged registry produce
//! byte-identical line ordering.
//!
//! Latency histograms are exposed in the Prometheus *summary* idiom:
//! `name{quantile="0.5"}` / `"0.95"` / `"0.99"` in seconds, plus
//! `name_sum`, `name_count`, and a non-standard but useful `name_max`.

use crate::registry::{LabelsRef, Registry, SampleValue};
use serde_json::{json, Value};
use std::fmt::Write;

fn push_escaped(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

fn push_label_block(out: &mut String, labels: LabelsRef<'_>, extra: Option<(&str, &str)>) {
    let mut pairs = labels.iter().chain(extra).peekable();
    if pairs.peek().is_none() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
    out.push('}');
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Scrape `registry` and render the Prometheus exposition text.
pub fn scrape_text(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_name = None::<String>;
    registry.visit(|s| {
        if last_name.as_deref() != Some(s.name) {
            let kind = match s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Summary(_) => "summary",
            };
            let _ = writeln!(out, "# TYPE {} {kind}", s.name);
            let last = last_name.get_or_insert_with(String::new);
            last.clear();
            last.push_str(s.name);
        }
        let line = |out: &mut String, suffix: &str, extra: Option<(&str, &str)>| {
            out.push_str(s.name);
            out.push_str(suffix);
            push_label_block(out, s.labels, extra);
            out.push(' ');
        };
        match &s.value {
            SampleValue::Counter(v) => {
                line(&mut out, "", None);
                let _ = writeln!(out, "{v}");
            }
            SampleValue::Gauge(v) => {
                line(&mut out, "", None);
                let _ = writeln!(out, "{v}");
            }
            SampleValue::Summary(h) => {
                for (q, ns) in [("0.5", h.p50_ns), ("0.95", h.p95_ns), ("0.99", h.p99_ns)] {
                    line(&mut out, "", Some(("quantile", q)));
                    let _ = writeln!(out, "{:.9}", secs(ns));
                }
                line(&mut out, "_sum", None);
                let _ = writeln!(out, "{:.9}", secs(h.sum_ns));
                line(&mut out, "_count", None);
                let _ = writeln!(out, "{}", h.count);
                line(&mut out, "_max", None);
                let _ = writeln!(out, "{:.9}", secs(h.max_ns));
            }
        }
    });
    out
}

/// Scrape `registry` and render the JSON exposition
/// (`/api/metrics?format=json`): an array in the text exposition's order.
/// Object keys come out sorted (the JSON layer uses a BTreeMap).
pub fn scrape_json(registry: &Registry) -> Value {
    let mut arr = Vec::new();
    registry.visit(|s| {
        let labels: Value = s
            .labels
            .iter()
            .map(|(k, v)| (k.to_string(), Value::from(v)))
            .collect();
        arr.push(match &s.value {
            SampleValue::Counter(v) => json!({
                "name": s.name,
                "labels": labels,
                "type": "counter",
                "value": *v,
            }),
            SampleValue::Gauge(v) => json!({
                "name": s.name,
                "labels": labels,
                "type": "gauge",
                "value": *v,
            }),
            SampleValue::Summary(h) => json!({
                "name": s.name,
                "labels": labels,
                "type": "summary",
                "count": h.count,
                "sum_ns": h.sum_ns,
                "p50_ns": h.p50_ns,
                "p95_ns": h.p95_ns,
                "p99_ns": h.p99_ns,
                "max_ns": h.max_ns,
                "p99_exemplar": s.exemplar.map(|t| t.to_hex()),
            }),
        });
    });
    Value::Array(arr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn demo_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("hpcdash_http_requests_total", &[("route", "/api/jobs")])
            .add(5);
        reg.gauge("hpcdash_sched_queue_depth", &[]).set(2);
        reg.histogram("hpcdash_http_request_latency", &[("route", "/api/jobs")])
            .observe(Duration::from_millis(3));
        reg
    }

    #[test]
    fn text_exposition_shape() {
        let text = scrape_text(&demo_registry());
        assert!(text.contains("# TYPE hpcdash_http_requests_total counter"));
        assert!(text.contains("hpcdash_http_requests_total{route=\"/api/jobs\"} 5"));
        assert!(text.contains("# TYPE hpcdash_sched_queue_depth gauge"));
        assert!(text.contains("hpcdash_sched_queue_depth 2"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("hpcdash_http_request_latency_count{route=\"/api/jobs\"} 1"));
        // Every non-comment line is `name{labels} value` with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("space-separated value");
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        }
    }

    #[test]
    fn text_is_stable_across_scrapes() {
        let reg = demo_registry();
        assert_eq!(scrape_text(&reg), scrape_text(&reg));
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.register_collector(|out| out.counter("m_total", &[("q", "a\"b\\c\nd")], 1));
        let text = scrape_text(&reg);
        assert!(text.contains(r#"q="a\"b\\c\nd""#), "text: {text}");
    }

    #[test]
    fn json_exposition_roundtrips() {
        let v = scrape_json(&demo_registry());
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 3);
        let text = serde_json::to_string(&v).expect("serialize");
        let back: Value = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, v);
        let summary = arr
            .iter()
            .find(|e| e["type"] == "summary")
            .expect("summary entry");
        assert_eq!(summary["count"], 1u64);
        assert_eq!(summary["labels"]["route"], "/api/jobs");
    }
}
