//! The Job Overview page (paper §7, Figure 4d): header, timeline, and the
//! overview / session / output / error / job-array tabs.

use crate::api::joboverview::{JobOverview, LogTail};
use crate::charts::sparkline_rows;
use crate::efficiency::percent;
use crate::pages::layout::{decode, page, shell, widget_placeholder};
use crate::template::escape_html;
use crate::widgets::error_card;
use hpcdash_simtime::format_duration;

pub(crate) fn render_shell(cluster: &str, user: &str, job_id: &str) -> String {
    let mut body = format!("<h1>Job {}</h1>", escape_html(job_id));
    body.push_str(&widget_placeholder(
        "joboverview",
        &format!("/api/jobs/{job_id}"),
    ));
    shell(
        &format!("Job {job_id}"),
        "joboverview",
        cluster,
        user,
        &body,
    )
}

/// Render from the `/api/jobs/:id` answer plus (optionally) the
/// `/api/jobs/:id/logs` answers of its two streams.
pub fn render_full(
    cluster: &str,
    user: &str,
    data: &[u8],
    stdout_tail: Option<&[u8]>,
    stderr_tail: Option<&[u8]>,
) -> String {
    let payload: Result<JobOverview, String> = decode(data);
    let title = match &payload {
        Ok(job) => format!("Job {}", job.header.id),
        Err(_) => "Job".to_string(),
    };
    let body = payload.map(|job| body(&job, stdout_tail, stderr_tail));
    page(&title, "joboverview", cluster, user, data, body)
}

fn body(payload: &JobOverview, stdout_tail: Option<&[u8]>, stderr_tail: Option<&[u8]>) -> String {
    let header = &payload.header;
    let color = &header.state_color;
    let mut body = format!(
        "<div class=\"job-header state-{color}\"><h1>Job {} — {}</h1>\
         <span class=\"badge badge-{color}\">{}</span>{}</div>",
        escape_html(&header.id),
        escape_html(&header.name),
        escape_html(&header.state),
        match &header.reason_message {
            Some(msg) => format!("<p class=\"reason-message\">{}</p>", escape_html(msg)),
            None => String::new(),
        },
    );

    // Timeline (submitted -> eligible -> started -> ended), coloured by state.
    body.push_str(&format!("<ol class=\"timeline timeline-{color}\">"));
    let tl = &payload.timeline;
    for (label, at) in [
        ("Submitted", Some(&tl.submitted)),
        ("Eligible", Some(&tl.eligible)),
        ("Started", tl.started.as_ref()),
        ("Ended", tl.ended.as_ref()),
    ] {
        match at {
            Some(t) => body.push_str(&format!(
                "<li class=\"done\"><span>{label}</span> <time data-utc=\"{t}\">{t}</time></li>",
                t = escape_html(t),
            )),
            None => body.push_str(&format!(
                "<li class=\"pending-step\"><span>{label}</span> —</li>"
            )),
        }
    }
    body.push_str("</ol>");

    // Overview tab: four cards.
    let cards = &payload.cards;
    body.push_str(
        "<div class=\"tabs\"><div class=\"tab\" id=\"overview\"><div class=\"card-grid\">",
    );
    let info = &cards.job_information;
    body.push_str(&format!(
        "<div class=\"card\"><div class=\"card-header\">Job Information</div><div class=\"card-body\">\
         Name: {}<br>User: {}<br>Allocation: {}<br>Partition: {}<br>QoS: {}</div></div>",
        escape_html(&info.name),
        escape_html(&info.user),
        escape_html(&info.account),
        escape_html(&info.partition),
        escape_html(&info.qos),
    ));
    let res = &cards.resources;
    let node_links = res
        .node_links
        .iter()
        .map(|n| {
            format!(
                "<a href=\"{}\">{}</a>",
                n.overview_url,
                escape_html(&n.name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    body.push_str(&format!(
        "<div class=\"card\"><div class=\"card-header\">Resources</div><div class=\"card-body\">\
         CPUs: {}<br>Nodes: {}<br>Memory/node: {} MB<br>GPUs: {}<br>Node list: {}</div></div>",
        res.cpus, res.nodes, res.mem_mb_per_node, res.gpus, node_links,
    ));
    let time = &cards.time;
    let duration = |secs: Option<u64>| secs.map_or_else(|| "—".to_string(), format_duration);
    body.push_str(&format!(
        "<div class=\"card\"><div class=\"card-header\">Time</div><div class=\"card-body\">\
         Wall time: {}<br>Time limit: {}<br>Remaining: {}<br>CPU time: {}</div></div>",
        escape_html(&time.elapsed),
        escape_html(&time.limit),
        duration(time.remaining_secs),
        duration(time.cpu_time_secs),
    ));
    let eff = cards.efficiency.as_ref();
    let gpu_line = match eff.and_then(|e| e.gpu) {
        Some(gpu) => format!("<br>GPU: {}", percent(Some(gpu))),
        None => String::new(),
    };
    body.push_str(&format!(
        "<div class=\"card\"><div class=\"card-header\">Efficiency</div><div class=\"card-body\">\
         CPU: {}<br>Memory: {}<br>Time: {}{}</div></div>",
        percent(eff.and_then(|e| e.cpu)),
        percent(eff.and_then(|e| e.memory)),
        percent(eff.and_then(|e| e.time)),
        gpu_line,
    ));
    // Utilization card: sparklines from the collector's series, when the
    // job has run long enough to have any.
    let spark_rows = payload
        .telemetry
        .as_ref()
        .map(|series| sparkline_rows(series, 32, "div"))
        .unwrap_or_default();
    if !spark_rows.is_empty() {
        body.push_str(&format!(
            "<div class=\"card\"><div class=\"card-header\">Utilization</div>\
             <div class=\"card-body\">{spark_rows}</div></div>"
        ));
    }
    body.push_str("</div></div>");

    // Session tab (interactive-app jobs only).
    if let Some(s) = &payload.session {
        body.push_str(&format!(
            "<div class=\"tab\" id=\"session\">\
             App: <a href=\"{}\">{app}</a><br>Session ID: {}<br>\
             Working dir: <a href=\"{}\">{}</a>\
             <button class=\"launch\">Launch {app}</button></div>",
            s.relaunch_url,
            escape_html(&s.session_id),
            s.workdir_url,
            escape_html(&s.workdir),
            app = escape_html(&s.app),
        ));
    }

    // Output / error tabs: line-numbered read-only views, auto-scrolled.
    for (tab_id, tail) in [("output", stdout_tail), ("error", stderr_tail)] {
        if let Some(data) = tail {
            body.push_str(&format!(
                "<div class=\"tab log-view\" id=\"{tab_id}\" data-autoscroll=\"bottom\">"
            ));
            match decode::<LogTail>(data) {
                Ok(t) => body.push_str(&log_view(&t)),
                Err(e) => body.push_str(&error_card(tab_id, &e)),
            }
            body.push_str("</div>");
        }
    }

    // Job-array tab marker: the client fetches the array route on demand.
    if let (true, Some(url)) = (payload.has_array, &payload.array_url) {
        body.push_str(&format!(
            "<div class=\"tab\" id=\"job-array\" data-api=\"{url}\"></div>"
        ));
    }

    body.push_str("</div>");
    body
}

/// One log tab's body: the truncation note, then the numbered lines.
fn log_view(t: &LogTail) -> String {
    let mut out = String::new();
    if t.truncated {
        out.push_str(&format!(
            "<p class=\"log-note\">Showing last {} of {} lines. \
             <a href=\"{}\">View entire file</a></p>",
            t.lines.len(),
            t.total_lines,
            t.full_file_url.as_deref().unwrap_or("#"),
        ));
    }
    out.push_str("<pre>");
    for (no, text) in &t.lines {
        out.push_str(&format!(
            "<span class=\"lineno\">{no}</span> {}\n",
            escape_html(text)
        ));
    }
    out.push_str("</pre>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{json, Value};

    fn payload() -> Value {
        json!({
            "telemetry": null,
            "header": {"id": "55", "name": "train", "state": "RUNNING",
                       "state_color": "green", "reason": null, "reason_message": null},
            "timeline": {"submitted": "2026-07-04T08:00:00", "eligible": "2026-07-04T08:00:00",
                         "started": "2026-07-04T08:05:00", "ended": null},
            "cards": {
                "job_information": {"name": "train", "user": "alice", "account": "physics",
                                    "partition": "gpu", "qos": "normal"},
                "resources": {"cpus": 16, "nodes": 1, "mem_mb_per_node": 65_536, "gpus": 2,
                              "node_links": [{"name": "g001", "overview_url": "/nodes/g001"}]},
                "time": {"elapsed": "01:00:00", "elapsed_secs": 3_600, "limit": "04:00:00",
                         "remaining_secs": 10_800, "cpu_time_secs": 46_080},
                "efficiency": {"cpu": 800, "memory": 600, "time": null, "gpu": null, "warnings": []},
            },
            "session": {"app": "jupyter", "session_id": "s1", "workdir": "/home/alice/ondemand",
                        "workdir_url": "/pun/sys/files/fs/home/alice/ondemand",
                        "relaunch_url": "/pun/sys/dashboard/batch_connect/sys/jupyter/session_contexts/new"},
            "has_array": false,
            "array_url": null,
            "logs": {"stdout_url": "/api/jobs/55/logs?stream=out",
                     "stderr_url": "/api/jobs/55/logs?stream=err"},
            "exit_code": null,
        })
    }

    fn bytes(v: &Value) -> Vec<u8> {
        v.to_string().into_bytes()
    }

    #[test]
    fn header_timeline_cards_session() {
        let html = render_full("Anvil", "alice", &bytes(&payload()), None, None);
        assert!(html.contains("Job 55 — train"));
        assert!(html.contains("timeline-green"));
        assert!(html.contains("2026-07-04T08:05:00"));
        assert!(html.contains("<li class=\"pending-step\"><span>Ended</span> —</li>"));
        assert!(html.contains("Allocation: physics"));
        assert!(html.contains("href=\"/nodes/g001\""));
        assert!(html.contains("Remaining: 03:00:00"));
        assert!(html.contains("CPU: 80.0%"));
        assert!(html.contains("Launch jupyter"));
    }

    #[test]
    fn log_tabs_with_line_numbers_and_truncation() {
        let stdout = bytes(&json!({
            "path": "/home/alice/slurm-55.out",
            "total_lines": 2_500, "truncated": true,
            "full_file_url": "/pun/sys/files/fs/home/alice/slurm-55.out",
            "lines": [[1_501, "step one"], [1_502, "step <two>"]],
        }));
        let html = render_full("Anvil", "alice", &bytes(&payload()), Some(&stdout), None);
        assert!(html.contains("Showing last 2 of 2500 lines"));
        assert!(html.contains("View entire file"));
        assert!(html.contains("<span class=\"lineno\">1501</span> step one"));
        assert!(html.contains("step &lt;two&gt;"), "log content escaped");
        assert!(html.contains("data-autoscroll=\"bottom\""));
        assert!(!html.contains("id=\"error\""), "no stderr tab without data");
    }

    #[test]
    fn telemetry_sparklines_and_gpu_efficiency_render() {
        let mut p = payload();
        p["cards"]["efficiency"]["gpu"] = json!(420);
        p["telemetry"] = json!({
            "start": 0, "end": 90, "resolution_secs": 30, "tier": "raw",
            "cpu": [[0, 0.5], [30, 0.6], [60, 0.55]],
            "mem": [[0, 0.3], [30, 0.4], [60, 0.45]],
            "gpu": null,
        });
        let html = render_full("Anvil", "alice", &bytes(&p), None, None);
        assert!(html.contains("GPU: 42.0%"), "gpu efficiency line renders");
        assert!(html.contains("Utilization"));
        assert!(html.contains("spark-cpu") && html.contains("spark-mem"));
        assert!(!html.contains("spark-gpu"), "no gpu series, no gpu row");
        // The baseline payload (no telemetry block) has no card at all.
        let plain = render_full("Anvil", "alice", &bytes(&payload()), None, None);
        assert!(!plain.contains("Utilization"));
        assert!(!plain.contains("GPU:"), "gpu: null stays hidden");
    }

    #[test]
    fn array_tab_appears_when_flagged() {
        let mut p = payload();
        p["has_array"] = json!(true);
        p["array_url"] = json!("/api/jobs/55/array");
        let html = render_full("Anvil", "alice", &bytes(&p), None, None);
        assert!(html.contains("id=\"job-array\" data-api=\"/api/jobs/55/array\""));
    }

    #[test]
    fn pending_job_shows_reason_message() {
        let mut p = payload();
        p["header"]["state"] = json!("PENDING");
        p["header"]["state_color"] = json!("blue");
        p["header"]["reason_message"] =
            json!("It means this job's association has reached its aggregate group CPU limit.");
        p["session"] = Value::Null;
        let html = render_full("Anvil", "alice", &bytes(&p), None, None);
        assert!(html.contains("aggregate group CPU limit"));
        assert!(
            !html.contains("id=\"session\""),
            "batch job has no session tab"
        );
    }
}
