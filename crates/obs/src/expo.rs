//! Metric exposition: Prometheus-style text and a JSON variant.
//!
//! Both renderers consume the stable-sorted output of
//! [`Registry::gather`](crate::registry::Registry::gather), so two scrapes
//! of an unchanged registry produce byte-identical line ordering.
//!
//! Latency histograms are exposed in the Prometheus *summary* idiom:
//! `name{quantile="0.5"}` / `"0.95"` / `"0.99"` in seconds, plus
//! `name_sum`, `name_count`, and a non-standard but useful `name_max`.

use crate::registry::{Registry, Sample, SampleValue};
use serde_json::{json, Value};

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn secs(ns: u64) -> String {
    format!("{:.9}", ns as f64 / 1e9)
}

/// Render samples as Prometheus exposition text.
pub fn to_prometheus_text(samples: &[Sample]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in samples {
        if last_name != Some(s.name.as_str()) {
            let kind = match s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Summary(_) => "summary",
            };
            out.push_str(&format!("# TYPE {} {kind}\n", s.name));
            last_name = Some(s.name.as_str());
        }
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(&format!("{}{} {v}\n", s.name, label_block(&s.labels, None)));
            }
            SampleValue::Gauge(v) => {
                out.push_str(&format!("{}{} {v}\n", s.name, label_block(&s.labels, None)));
            }
            SampleValue::Summary(h) => {
                for (q, ns) in [("0.5", h.p50_ns), ("0.95", h.p95_ns), ("0.99", h.p99_ns)] {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        s.name,
                        label_block(&s.labels, Some(("quantile", q))),
                        secs(ns)
                    ));
                }
                let plain = label_block(&s.labels, None);
                out.push_str(&format!("{}_sum{plain} {}\n", s.name, secs(h.sum_ns)));
                out.push_str(&format!("{}_count{plain} {}\n", s.name, h.count));
                out.push_str(&format!("{}_max{plain} {}\n", s.name, secs(h.max_ns)));
            }
        }
    }
    out
}

/// Render samples as a JSON array (`/api/metrics?format=json`). Object keys
/// come out sorted (the JSON layer uses a BTreeMap), and the sample order
/// matches the text exposition.
pub fn to_json(samples: &[Sample]) -> Value {
    let arr: Vec<Value> = samples
        .iter()
        .map(|s| {
            let labels: Value = s
                .labels
                .iter()
                .map(|(k, v)| (k.clone(), Value::from(v.as_str())))
                .collect();
            match &s.value {
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
            }
        })
        .collect();
    Value::Array(arr)
}

/// Scrape `registry` and render the text exposition in one call.
pub fn scrape_text(registry: &Registry) -> String {
    to_prometheus_text(&registry.gather())
}

/// Scrape `registry` and render the JSON exposition in one call.
pub fn scrape_json(registry: &Registry) -> Value {
    to_json(&registry.gather())
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
        let samples = [Sample::counter("m_total", &[("q", "a\"b\\c\nd")], 1)];
        let text = to_prometheus_text(&samples);
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
