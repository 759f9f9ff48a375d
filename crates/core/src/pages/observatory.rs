//! The admin observability page: route-latency history, the SLO/error
//! budget board, breaker states, tick-phase profiles, and the stored-trace
//! table with an accessible waterfall.
//!
//! Like every other page, the shell serves instantly with placeholders and
//! the widgets fill in from their API routes (`/api/observatory`,
//! `/api/traces`, `/api/obs/series`). The waterfall renderer keeps the
//! paper's accessibility bar: it is a real table — each span a row with
//! its depth, offset, and duration as text — with the proportional bar as
//! a decoration on top, so screen readers get the same information sighted
//! operators do.

// The observatory bodies are still read as value trees.
#![allow(clippy::disallowed_types, clippy::disallowed_macros)]

use crate::pages::layout::{shell, widget_placeholder};
use crate::template::escape_html;
use serde_json::Value;

pub fn render_shell(cluster: &str, user: &str) -> String {
    let mut body = String::from("<h1>Observatory</h1>");
    body.push_str(
        "<p class=\"observatory-intro\">Dashboard self-observability: \
         service levels, circuit breakers, daemon tick phases, the HTTP \
         event loop (connections by state, sheds, 304 revalidations, \
         and per loop thread the time its last wake-up took, the handler \
         it ran included), and stored request traces.</p>",
    );
    body.push_str("<div class=\"widget-grid\">");
    body.push_str(&widget_placeholder("observatory", "/api/observatory"));
    body.push_str(&widget_placeholder(
        "route-latency-history",
        "/api/obs/series?name=self%3Ahpcdash_sched_queue_depth",
    ));
    body.push_str(&widget_placeholder("traces", "/api/traces?limit=50"));
    body.push_str("</div>");
    shell("Observatory", "observatory", cluster, user, &body)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{}µs", ns / 1_000)
    }
}

/// Render one stored trace (the `/api/traces/:id` payload) as an accessible
/// waterfall: a table whose rows carry the span name (indented by depth via
/// CSS class, not whitespace), textual offset/duration, and a proportional
/// bar sized against the root span's duration.
pub fn render_waterfall(trace: &Value) -> String {
    let spans = trace["spans"].as_array().map(Vec::as_slice).unwrap_or(&[]);
    let total = trace["root_dur_ns"]
        .as_u64()
        .filter(|d| *d > 0)
        .unwrap_or(1);
    let mut html = format!(
        "<table class=\"waterfall\" aria-label=\"Trace waterfall for {}\">\
         <caption>Trace {} — {} · {}</caption>\
         <thead><tr><th scope=\"col\">Span</th><th scope=\"col\">Start</th>\
         <th scope=\"col\">Duration</th><th scope=\"col\">Timeline</th></tr></thead><tbody>",
        escape_html(trace["id"].as_str().unwrap_or("?")),
        escape_html(trace["id"].as_str().unwrap_or("?")),
        escape_html(trace["cause"].as_str().unwrap_or("?")),
        escape_html(trace["route"].as_str().unwrap_or("(no route)")),
    );
    for span in spans {
        let depth = span["depth"].as_u64().unwrap_or(0);
        let start = span["start_offset_ns"].as_u64().unwrap_or(0);
        let dur = span["dur_ns"].as_u64().unwrap_or(0);
        let left = (start.min(total) * 100) / total;
        let width = ((dur * 100) / total).clamp(1, 100 - left.min(99));
        html.push_str(&format!(
            "<tr><th scope=\"row\" class=\"span-name depth-{depth}\">{}</th>\
             <td>+{}</td><td>{}</td>\
             <td><span class=\"span-bar\" style=\"margin-left:{left}%;width:{width}%\" \
             aria-hidden=\"true\"></span></td></tr>",
            escape_html(span["name"].as_str().unwrap_or("?")),
            fmt_ns(start),
            fmt_ns(dur),
        ));
    }
    html.push_str("</tbody></table>");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn shell_binds_the_observatory_widgets() {
        let html = render_shell("Anvil", "root");
        assert!(html.contains("data-api=\"/api/observatory\""));
        assert!(html.contains("data-api=\"/api/traces?limit=50\""));
        assert!(html.contains("/api/obs/series?name=self%3A"));
        assert!(html.contains("Logged in as root"));
    }

    #[test]
    fn waterfall_is_a_real_table_with_bars_decorative() {
        let trace = json!({
            "id": "1f",
            "cause": "error",
            "route": "/api/myjobs",
            "root_dur_ns": 10_000_000u64,
            "spans": [
                {"name": "route", "depth": 0, "start_offset_ns": 0,
                 "dur_ns": 10_000_000u64},
                {"name": "cache-miss", "depth": 1, "start_offset_ns": 1_000_000u64,
                 "dur_ns": 8_000_000u64},
            ],
        });
        let html = render_waterfall(&trace);
        // Root-first rows, readable as text without the bars.
        assert!(html.contains("aria-label=\"Trace waterfall for 1f\""));
        assert!(html.contains("<th scope=\"col\">Duration</th>"));
        assert!(html.contains("depth-0\">route"));
        assert!(html.contains("depth-1\">cache-miss"));
        assert!(html.contains("<td>+1.0ms</td>"));
        assert!(html.contains("<td>10.0ms</td>"));
        // Bars are proportional and hidden from assistive tech.
        assert!(html.contains("aria-hidden=\"true\""));
        assert!(html.contains("margin-left:10%;width:80%"));
    }

    #[test]
    fn waterfall_survives_degenerate_payloads() {
        let html = render_waterfall(&json!({"id": "aa", "spans": []}));
        assert!(html.contains("<tbody></tbody>"));
        // Zero-duration root: no division by zero, bars stay in range.
        let html = render_waterfall(&json!({
            "id": "bb", "cause": "healthy", "route": "/x", "root_dur_ns": 0,
            "spans": [{"name": "route", "depth": 0, "start_offset_ns": 0, "dur_ns": 0}],
        }));
        assert!(html.contains("depth-0\">route"));
    }
}
