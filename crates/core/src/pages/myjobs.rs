//! The My Jobs page (paper §4, Figure 3): the job table with efficiency
//! columns & warnings, plus the two charts.

use crate::api::myjobs::MyJobs;
use crate::efficiency::percent;
use crate::pages::layout::{decode, page, shell, widget_placeholder};
use crate::template::escape_html;
use hpcdash_simtime::format_duration;

/// The instantly served shell.
pub(crate) fn render_shell(cluster: &str, user: &str) -> String {
    let mut body = String::from("<h1>My Jobs</h1>");
    body.push_str(
        "<div class=\"controls\">\
         <select id=\"range\"><option>24h</option><option selected>7d</option>\
         <option>30d</option><option>all</option><option>custom</option></select>\
         <button id=\"toggle-efficiency\">Toggle Efficiency Data</button></div>",
    );
    body.push_str(&widget_placeholder("myjobs", "/api/myjobs?range=7d"));
    shell("My Jobs", "myjobs", cluster, user, &body)
}

/// The fully rendered page given the `/api/myjobs` answer.
pub fn render_full(cluster: &str, user: &str, data: &[u8]) -> String {
    let body = decode(data).map(|payload| body(&payload));
    page("My Jobs", "myjobs", cluster, user, data, body)
}

fn body(payload: &MyJobs) -> String {
    let mut body = String::from("<h1>My Jobs</h1>");
    body.push_str(&format!(
        "<p class=\"range-label\">Showing: {}</p>",
        escape_html(&payload.range)
    ));

    // Charts (Chart.js data is embedded for the frontend to draw).
    let charts = &payload.charts;
    body.push_str(&format!(
        "<div class=\"charts\">\
         <canvas id=\"state-chart\" data-chart='{}'></canvas>\
         <canvas id=\"gpu-chart\" data-chart='{}'></canvas></div>",
        serde_json::to_string(&charts.state_distribution).expect("charts serialize"),
        serde_json::to_string(&charts.gpu_hours).expect("charts serialize"),
    ));

    body.push_str(
        "<table class=\"job-table\"><thead><tr>\
         <th>Job</th><th>Name</th><th>QoS</th><th>State</th><th>Submitted</th>\
         <th>Start</th><th>End</th><th>Wait</th><th>Elapsed</th>\
         <th class=\"eff\">Time eff</th><th class=\"eff\">CPU eff</th><th class=\"eff\">Mem eff</th>\
         </tr></thead><tbody>",
    );
    let or_dash = |t: &Option<String>| escape_html(t.as_deref().unwrap_or("—"));
    for j in &payload.jobs {
        let eff = &j.efficiency;
        body.push_str(&format!(
            "<tr class=\"job-row state-{}\">\
             <td><a href=\"{}\">{}</a></td><td>{}</td><td>{}</td>\
             <td><span class=\"badge badge-{}\">{}</span>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td class=\"eff\">{}</td><td class=\"eff\">{}</td><td class=\"eff\">{}</td></tr>",
            j.state.to_lowercase(),
            j.overview_url,
            escape_html(&j.id),
            escape_html(&j.name),
            escape_html(&j.qos),
            j.state_color,
            escape_html(&j.state),
            match &j.reason {
                Some(r) => format!(
                    " <span class=\"reason\" title=\"{}\">({})</span>",
                    escape_html(&r.message),
                    escape_html(&r.code)
                ),
                None => String::new(),
            },
            or_dash(&j.submit),
            or_dash(&j.start),
            or_dash(&j.end),
            j.wait_secs
                .map(format_duration)
                .unwrap_or_else(|| "—".to_string()),
            format_duration(j.elapsed_secs),
            percent(eff.time),
            percent(eff.cpu),
            percent(eff.memory),
        ));
        // Efficiency warnings render as alert rows under the job.
        for w in &eff.warnings {
            body.push_str(&format!(
                "<tr class=\"warning-row\"><td colspan=\"12\" class=\"alert alert-warning\">{}</td></tr>",
                escape_html(w)
            ));
        }
    }
    body.push_str("</tbody></table>");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn payload() -> Vec<u8> {
        let row = |id: &str, name: &str, state: &str| {
            json!({"id": id, "name": name, "user": "alice", "account": "physics",
                   "partition": "cpu", "qos": "normal", "state": state,
                   "state_color": "gray-green", "submit": "2026-07-04T08:00:00",
                   "start": null, "end": null, "wait_secs": 60, "elapsed_secs": 3_600,
                   "timelimit": "04:00:00", "alloc_cpus": 16, "alloc_nodes": 1,
                   "req_mem_mb": 4_096, "gpu_hours": 0.0, "nodelist": "a001",
                   "exit_code": "0:0", "session_id": null, "overview_url": format!("/jobs/{id}"),
                   "reason": null,
                   "efficiency": {"cpu": null, "memory": null, "time": null, "gpu": null,
                                  "warnings": []}})
        };
        let mut done = row("100", "train", "COMPLETED");
        done["start"] = json!("2026-07-04T08:01:00");
        done["end"] = json!("2026-07-04T09:01:00");
        done["efficiency"] = json!({"cpu": 80, "memory": 500, "time": 900, "gpu": null,
            "warnings": ["This job used only 8% of the 16 CPUs it requested. Requesting fewer CPUs will reduce your queue wait times and leave more resources for others."]});
        let mut pending = row("101", "sweep", "PENDING");
        pending["reason"] = json!({"code": "AssocGrpCpuLimit",
            "message": "It means this job's association has reached its aggregate group CPU limit."});
        let chart = json!({"type": "bar", "labels": ["alice"], "datasets": []});
        json!({
            "range": "Last 7 days",
            "jobs": [done, pending],
            "charts": {"state_distribution": chart, "gpu_hours": chart},
        })
        .to_string()
        .into_bytes()
    }

    #[test]
    fn table_rows_warnings_and_reasons() {
        let html = render_full("Anvil", "alice", &payload());
        assert!(html.contains("Showing: Last 7 days"));
        assert!(html.contains("href=\"/jobs/100\""));
        assert!(html.contains("8.0%"), "cpu efficiency column");
        assert!(html.contains("alert-warning"));
        assert!(html.contains("used only 8% of the 16 CPUs"));
        assert!(html.contains("(AssocGrpCpuLimit)"));
        assert!(html.contains("aggregate group CPU limit"));
        assert!(html.contains("—"), "missing values dashed");
        assert!(html.contains("data-chart="), "chart data embedded");
    }

    #[test]
    fn shell_has_controls_and_placeholder() {
        let html = render_shell("Anvil", "alice");
        assert!(html.contains("Toggle Efficiency Data"));
        assert!(html.contains("data-api=\"/api/myjobs?range=7d\""));
    }
}
