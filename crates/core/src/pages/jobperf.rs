//! The Job Performance Metrics page (paper §5, Figure 4a), plus the live
//! strip: the user's running jobs with collector-backed sparklines.

use crate::api::jobmetrics::JobPerformance;
use crate::charts::sparkline_rows;
use crate::efficiency::{per_mille, percent};
use crate::pages::layout::{decode, page, shell, widget_placeholder};
use crate::template::escape_html;
use hpcdash_simtime::format_duration;

pub(crate) fn render_shell(cluster: &str, user: &str) -> String {
    let mut body = String::from("<h1>Job Performance Metrics</h1>");
    body.push_str(
        "<div class=\"controls\"><select id=\"range\">\
         <option>24h</option><option selected>7d</option><option>30d</option>\
         <option>all</option><option>custom</option></select>\
         <input type=\"date\" id=\"start\"><input type=\"date\" id=\"end\"></div>",
    );
    body.push_str(&widget_placeholder(
        "jobmetrics",
        "/api/jobmetrics?range=7d",
    ));
    shell("Job Performance Metrics", "jobperf", cluster, user, &body)
}

/// Render from the `/api/jobmetrics` answer.
pub fn render_full(cluster: &str, user: &str, data: &[u8]) -> String {
    let body = decode(data).map(|payload| body(&payload));
    page(
        "Job Performance Metrics",
        "jobperf",
        cluster,
        user,
        data,
        body,
    )
}

fn body(payload: &JobPerformance) -> String {
    let m = &payload.metrics;
    let secs = |v: Option<f64>| match v {
        Some(s) => format_duration(s as u64),
        None => "—".to_string(),
    };
    let mut body = String::from("<h1>Job Performance Metrics</h1>");
    body.push_str(&format!(
        "<p class=\"range-label\">{}</p>",
        escape_html(&payload.range)
    ));
    body.push_str("<div class=\"metric-cards\">");
    let cards: [(&str, String); 8] = [
        ("Total jobs", m.total_jobs.to_string()),
        ("Average queue wait", secs(m.avg_wait_secs)),
        ("Mean job duration", secs(m.mean_duration_secs)),
        ("Total wall time", format_duration(m.total_wall_secs)),
        ("Total CPU hours", format!("{:.1}", m.total_cpu_hours)),
        ("Total GPU hours", format!("{:.1}", m.total_gpu_hours)),
        ("Avg CPU efficiency", percent(m.avg_cpu_eff.map(per_mille))),
        (
            "Avg memory efficiency",
            percent(m.avg_mem_eff.map(per_mille)),
        ),
    ];
    for (label, value) in cards {
        body.push_str(&format!(
            "<div class=\"metric-card\"><div class=\"metric-value\">{}</div>\
             <div class=\"metric-label\">{}</div></div>",
            escape_html(&value),
            label,
        ));
    }
    body.push_str("</div>");

    // Live strip: one row per running job, sparklines straight from the
    // telemetry collectors.
    let live = &payload.live_jobs.jobs;
    if !live.is_empty() {
        body.push_str("<h2>Running now</h2><div class=\"live-jobs\">");
        for job in live {
            let sparks = sparkline_rows(&job.series, 24, "span");
            body.push_str(&format!(
                "<div class=\"live-job-row\"><a href=\"{}\">{}</a> {}{}</div>",
                job.overview_url,
                escape_html(&job.id),
                escape_html(&job.name),
                if sparks.is_empty() {
                    " <span class=\"telemetry-pending\">collecting…</span>".to_string()
                } else {
                    sparks
                },
            ));
        }
        body.push_str("</div>");
    }
    body.push_str(
        "<table class=\"state-table\"><thead><tr><th>State</th><th>Jobs</th></tr></thead><tbody>",
    );
    for (state, count) in &m.by_state {
        body.push_str(&format!(
            "<tr><td>{}</td><td>{}</td></tr>",
            escape_html(state),
            count
        ));
    }
    body.push_str("</tbody></table>");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{json, Value};

    fn metrics() -> Value {
        json!({
            "total_jobs": 1, "by_state": {"RUNNING": 1}, "avg_wait_secs": null,
            "mean_duration_secs": null, "total_wall_secs": 0,
            "total_cpu_hours": 0.0, "total_gpu_hours": 0.0,
            "avg_cpu_eff": null, "avg_mem_eff": null, "avg_time_eff": null,
        })
    }

    fn render(payload: &Value) -> String {
        render_full("Anvil", "alice", payload.to_string().as_bytes())
    }

    #[test]
    fn metric_cards_render() {
        let payload = json!({
            "range": "Last 30 days",
            "live_jobs": {"window_secs": 1_800, "jobs": []},
            "metrics": {
                "total_jobs": 42,
                "by_state": {"COMPLETED": 30, "FAILED": 7, "TIMEOUT": 5},
                "avg_wait_secs": 125.5,
                "mean_duration_secs": 3_600.0,
                "total_wall_secs": 151_200,
                "total_cpu_hours": 1_200.25,
                "total_gpu_hours": 64.0,
                "avg_cpu_eff": 0.71,
                "avg_mem_eff": 0.45,
                "avg_time_eff": 0.5,
            },
        });
        let html = render(&payload);
        assert!(html.contains("Last 30 days"));
        assert!(html.contains(">42<"));
        assert!(html.contains("00:02:05"), "avg wait formatted");
        assert!(html.contains("71.0%"));
        assert!(
            html.contains("1200.2"),
            "{:?}",
            &html[html.find("1200").unwrap()..html.find("1200").unwrap() + 8]
        );
        assert!(html.contains("<td>FAILED</td><td>7</td>"));
    }

    #[test]
    fn live_strip_renders_sparklines() {
        let series = |gpu: Value| {
            json!({"start": 0, "end": 31, "resolution_secs": 30, "tier": "raw",
                   "cpu": [[0, 0.4], [30, 0.6]], "mem": [[0, 0.2], [30, 0.3]], "gpu": gpu})
        };
        let mut payload = json!({"range": "All time", "metrics": metrics()});
        payload["live_jobs"] = json!({"window_secs": 1_800, "jobs": [{
            "id": "7", "name": "train", "overview_url": "/jobs/7",
            "series": series(json!([[0, 0.9], [30, 0.8]])),
        }]});
        let html = render(&payload);
        assert!(html.contains("Running now"));
        assert!(html.contains("href=\"/jobs/7\""));
        assert!(html.contains("spark-cpu"));
        assert!(
            html.contains("spark-gpu"),
            "gpu series renders when present"
        );
        // A job with no samples yet shows the placeholder instead.
        let mut empty = series(Value::Null);
        empty["cpu"] = json!([]);
        empty["mem"] = json!([]);
        payload["live_jobs"]["jobs"][0]["series"] = empty;
        let html = render(&payload);
        assert!(html.contains("collecting…"));
        // No running jobs: no strip at all.
        payload["live_jobs"]["jobs"] = json!([]);
        assert!(!render(&payload).contains("Running now"));
    }

    #[test]
    fn missing_metrics_dash() {
        let mut metrics = metrics();
        metrics["total_jobs"] = json!(0);
        metrics["by_state"] = json!({});
        let payload = json!({"range": "All time", "metrics": metrics,
                             "live_jobs": {"window_secs": 0, "jobs": []}});
        let html = render(&payload);
        assert!(html.contains("—"));
    }

    #[test]
    fn shell_offers_custom_range_inputs() {
        let html = render_shell("Anvil", "alice");
        assert!(html.contains("type=\"date\""));
        assert!(html.contains("/api/jobmetrics?range=7d"));
    }
}
