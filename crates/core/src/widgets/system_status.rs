//! The System Status widget (paper §3.3): per-partition utilization bars
//! with the 70/90% colour thresholds.

use crate::api::system_status::SystemStatus;
use crate::template::escape_html;
use crate::widgets::components::{card, progress_bar};

/// Render from the `/api/system_status` payload.
pub fn render(payload: &SystemStatus) -> String {
    let mut body = String::new();
    for p in &payload.partitions {
        body.push_str(&format!(
            "<div class=\"partition-row\"><span class=\"partition-name\">{}</span> \
             <span class=\"partition-status\">{}</span>",
            escape_html(&p.name),
            escape_html(&p.status),
        ));
        let cpus = &p.cpus;
        body.push_str(&progress_bar(
            cpus.percent,
            &cpus.color,
            &format!("CPU {}/{} ({:.1}%)", cpus.alloc, cpus.total, cpus.percent),
        ));
        if let Some(gpus) = &p.gpus {
            body.push_str(&progress_bar(
                gpus.percent,
                &gpus.color,
                &format!("GPU {}/{} ({:.1}%)", gpus.alloc, gpus.total, gpus.percent),
            ));
        }
        body.push_str("</div>");
    }
    body.push_str(&format!(
        "<a class=\"details-link\" href=\"{}\">Cluster details</a>",
        escape_html(&payload.details_url)
    ));
    card("system_status", "System Status", &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn renders_partition_bars() {
        let payload: SystemStatus = serde_json::from_value(json!({
            "partitions": [
                {"name": "cpu", "status": "UP",
                 "cpus": {"alloc": 96, "idle": 32, "other": 0, "total": 128, "percent": 75.0,
                          "color": "yellow"},
                 "gpus": null, "nodes": {"in_use": 3, "total": 4}},
                {"name": "gpu", "status": "UP",
                 "cpus": {"alloc": 10, "idle": 118, "other": 0, "total": 128, "percent": 7.8,
                          "color": "green"},
                 "gpus": {"alloc": 4, "total": 4, "percent": 100.0, "color": "red"},
                 "nodes": {"in_use": 1, "total": 1}},
            ],
            "details_url": "/clusterstatus",
        }))
        .unwrap();
        let html = render(&payload);
        assert!(html.contains("bg-yellow"));
        assert!(html.contains("bg-red"));
        assert!(html.contains("CPU 96/128"));
        assert!(html.contains("GPU 4/4"));
        assert!(html.contains("href=\"/clusterstatus\""));
    }

    #[test]
    fn cpu_only_partition_has_no_gpu_bar() {
        let payload: SystemStatus = serde_json::from_value(json!({"partitions": [
            {"name": "cpu", "status": "UP",
             "cpus": {"alloc": 0, "idle": 16, "other": 0, "total": 16, "percent": 0.0,
                      "color": "green"},
             "gpus": null, "nodes": {"in_use": 0, "total": 1}}
        ], "details_url": "/clusterstatus"}))
        .unwrap();
        let html = render(&payload);
        assert!(!html.contains("GPU "));
    }
}
