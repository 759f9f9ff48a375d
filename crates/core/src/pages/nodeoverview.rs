//! The Node Overview page (paper §6.1, Figure 4c): status + resource cards,
//! details tab, running-jobs tab.

use crate::api::nodeoverview::NodeOverview;
use crate::pages::layout::{decode, page, shell, widget_placeholder};
use crate::template::escape_html;
use crate::widgets::components::progress_bar;

pub(crate) fn render_shell(cluster: &str, user: &str, node: &str) -> String {
    let mut body = format!("<h1>Node {}</h1>", escape_html(node));
    body.push_str(&widget_placeholder(
        "nodeoverview",
        &format!("/api/nodes/{node}"),
    ));
    shell(
        &format!("Node {node}"),
        "nodeoverview",
        cluster,
        user,
        &body,
    )
}

/// Render from the `/api/nodes/:name` answer.
pub fn render_full(cluster: &str, user: &str, data: &[u8]) -> String {
    let payload: Result<NodeOverview, String> = decode(data);
    let title = match &payload {
        Ok(node) => format!("Node {}", node.status_card.name),
        Err(_) => "Node".to_string(),
    };
    let body = payload.map(|node| body(&node));
    page(&title, "nodeoverview", cluster, user, data, body)
}

fn body(payload: &NodeOverview) -> String {
    let status = &payload.status_card;
    let res = &payload.resource_card;
    let mut body = format!(
        "<h1>Node {}</h1><div class=\"card-pair\">",
        escape_html(&status.name)
    );
    // Status card.
    body.push_str(&format!(
        "<div class=\"card status-card\"><div class=\"card-header\">Status</div>\
         <div class=\"card-body\"><span class=\"badge badge-{}\">{}</span>\
         <div class=\"last-active\">Last active: {}</div>{}</div></div>",
        status.color,
        escape_html(&status.state),
        escape_html(status.last_busy.as_deref().unwrap_or("unknown")),
        match &status.reason {
            Some(r) => format!("<div class=\"reason\">Reason: {}</div>", escape_html(r)),
            None => String::new(),
        },
    ));
    // Resource usage card.
    body.push_str("<div class=\"card resource-card\"><div class=\"card-header\">Resource usage</div><div class=\"card-body\">");
    body.push_str(&progress_bar(
        res.cpu.percent,
        &res.cpu.color,
        &format!("CPU {}/{}", res.cpu.alloc, res.cpu.total),
    ));
    body.push_str(&progress_bar(
        res.memory.percent,
        &res.memory.color,
        &format!("Memory {}/{} MB", res.memory.alloc_mb, res.memory.total_mb),
    ));
    if let Some(gpu) = &res.gpu {
        body.push_str(&progress_bar(
            gpu.percent,
            &gpu.color,
            &format!("GPU {}/{}", gpu.alloc, gpu.total),
        ));
    }
    body.push_str("</div></div></div>");
    // Tabs: details + running jobs.
    body.push_str(
        "<div class=\"tabs\"><div class=\"tab\" id=\"details\"><table class=\"kv-table\"><tbody>",
    );
    for (k, v) in &payload.details {
        body.push_str(&format!(
            "<tr><th>{}</th><td>{}</td></tr>",
            escape_html(k),
            escape_html(v)
        ));
    }
    body.push_str("</tbody></table></div><div class=\"tab\" id=\"running-jobs\"><table class=\"job-table\"><thead><tr><th>Job</th><th>Name</th><th>User</th><th>Partition</th><th>State</th><th>CPUs</th><th>Memory</th></tr></thead><tbody>");
    for j in &payload.running_jobs {
        body.push_str(&format!(
            "<tr><td><a href=\"{}\">{}</a></td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{} MB</td></tr>",
            j.overview_url,
            escape_html(&j.id),
            escape_html(&j.name),
            escape_html(&j.user),
            escape_html(&j.partition),
            escape_html(&j.state),
            j.alloc_cpus,
            j.alloc_mem_mb,
        ));
    }
    body.push_str("</tbody></table></div></div>");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn cards_tabs_and_jobs() {
        let payload = json!({
            "status_card": {"name": "g001", "state": "MIXED", "color": "green",
                            "last_busy": "2026-07-04T08:00:00", "reason": null},
            "resource_card": {
                "cpu": {"alloc": 32, "total": 64, "percent": 50.0, "color": "green"},
                "memory": {"alloc_mb": 100_000, "total_mb": 512_000, "percent": 19.5, "color": "green"},
                "gpu": {"alloc": 2, "total": 4, "percent": 50.0, "color": "green"},
            },
            "details": {"OS": "Linux", "CPUTot": "64", "Gres": "gpu:a100:4"},
            "running_jobs": [
                {"id": "77", "name": "train", "user": "alice", "partition": "gpu",
                 "state": "RUNNING", "alloc_cpus": 16, "alloc_mem_mb": 65_536,
                 "overview_url": "/jobs/77"},
            ],
        });
        let html = render_full("Anvil", "alice", payload.to_string().as_bytes());
        assert!(html.contains("Node g001"));
        assert!(html.contains("Last active: 2026-07-04T08:00:00"));
        assert!(html.contains("CPU 32/64"));
        assert!(html.contains("GPU 2/4"));
        assert!(html.contains("<th>Gres</th><td>gpu:a100:4</td>"));
        assert!(html.contains("href=\"/jobs/77\""));
    }

    #[test]
    fn down_node_shows_reason_no_gpu_bar() {
        let payload = json!({
            "status_card": {"name": "a001", "state": "DOWN", "color": "red",
                            "last_busy": null, "reason": "power supply"},
            "resource_card": {
                "cpu": {"alloc": 0, "total": 128, "percent": 0.0, "color": "green"},
                "memory": {"alloc_mb": 0, "total_mb": 257_000, "percent": 0.0, "color": "green"},
                "gpu": null,
            },
            "details": {},
            "running_jobs": [],
        });
        let html = render_full("Anvil", "alice", payload.to_string().as_bytes());
        assert!(html.contains("Reason: power supply"));
        assert!(html.contains("badge-red"));
        assert!(!html.contains("GPU "));
        assert!(html.contains("Last active: unknown"));
    }
}
