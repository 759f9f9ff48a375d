//! The Cluster Status page (paper §6, Figure 4b): grid view + list view.

use crate::api::clusterstatus::{ClusterStatus, NodeRow};
use crate::pages::layout::{decode, page, shell, widget_placeholder};
use crate::template::escape_html;

pub(crate) fn render_shell(cluster: &str, user: &str) -> String {
    let mut body = String::from(
        "<h1>Cluster Status</h1>\
         <div class=\"controls\"><button id=\"grid-view\">Grid</button>\
         <button id=\"list-view\">List</button>\
         <input id=\"node-search\" placeholder=\"Filter nodes...\"></div>",
    );
    body.push_str(&widget_placeholder("clusterstatus", "/api/clusterstatus"));
    shell("Cluster Status", "clusterstatus", cluster, user, &body)
}

/// Grid view: one colour-coded cell per node with a hover summary.
pub(crate) fn render_grid(payload: &ClusterStatus) -> String {
    let mut out = String::from("<div class=\"node-grid\">");
    for n in &payload.nodes {
        let name = escape_html(&n.name);
        out.push_str(&format!(
            "<a class=\"node-cell node-{}\" href=\"{}\" \
             title=\"{name}: {} — CPU {}/{}, mem {}/{} MB, partitions: {}\">{name}</a>",
            n.color,
            n.overview_url,
            n.state,
            n.cpus_alloc,
            n.cpus_total,
            n.mem_alloc_mb,
            n.mem_total_mb,
            n.partitions.join(","),
        ));
    }
    out.push_str("</div>");
    out
}

/// List view: a sortable/filterable table.
pub fn render_list(payload: &ClusterStatus, filter: Option<&str>) -> String {
    list(payload.nodes.iter(), filter)
}

fn list<'a>(nodes: impl Iterator<Item = &'a NodeRow>, filter: Option<&str>) -> String {
    let mut out = String::from(
        "<table class=\"node-table\"><thead><tr>\
         <th data-sort=\"name\">Node</th><th data-sort=\"state\">State</th>\
         <th>Partitions</th><th data-sort=\"cpu\">CPU load</th>\
         <th data-sort=\"mem\">Memory load</th></tr></thead><tbody>",
    );
    let filter = filter.map(str::to_lowercase);
    for n in nodes {
        let partitions = n.partitions.join(",");
        if let Some(f) = &filter {
            if ![&n.name, &n.state, &partitions]
                .iter()
                .any(|field| field.to_lowercase().contains(f))
            {
                continue;
            }
        }
        out.push_str(&format!(
            "<tr><td><a href=\"{}\">{}</a></td><td class=\"state-{}\">{}</td>\
             <td>{}</td><td>{:.1}%</td><td>{:.1}%</td></tr>",
            n.overview_url,
            escape_html(&n.name),
            n.color,
            escape_html(&n.state),
            escape_html(&partitions),
            n.cpu_percent,
            n.mem_percent,
        ));
    }
    out.push_str("</tbody></table>");
    out
}

/// The full page with both views, from the `/api/clusterstatus` answer.
pub fn render_full(cluster: &str, user: &str, data: &[u8]) -> String {
    let body = decode(data).map(|payload: ClusterStatus| {
        format!(
            "<h1>Cluster Status</h1>{}{}",
            render_grid(&payload),
            render_list(&payload, None)
        )
    });
    page("Cluster Status", "clusterstatus", cluster, user, data, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn payload() -> ClusterStatus {
        serde_json::from_value(json!({"nodes": [
            {"name": "a001", "state": "MIXED", "color": "green",
             "cpus_alloc": 64, "cpus_total": 128, "cpu_percent": 50.0, "cpu_color": "green",
             "cpu_load": 63.0, "mem_alloc_mb": 100_000, "mem_total_mb": 257_000,
             "mem_percent": 38.9, "mem_color": "green",
             "partitions": ["cpu"], "gres": null, "gres_used": null, "reason": null,
             "overview_url": "/nodes/a001"},
            {"name": "g001", "state": "DOWN", "color": "red",
             "cpus_alloc": 0, "cpus_total": 128, "cpu_percent": 0.0, "cpu_color": "green",
             "cpu_load": 0.0, "mem_alloc_mb": 0, "mem_total_mb": 512_000,
             "mem_percent": 0.0, "mem_color": "green",
             "partitions": ["gpu"], "gres": "gpu:a100:4", "gres_used": "gpu:a100:0",
             "reason": "power supply", "overview_url": "/nodes/g001"},
        ]}))
        .unwrap()
    }

    #[test]
    fn grid_cells_colored_with_hover() {
        let html = render_grid(&payload());
        assert!(html.contains("node-green"));
        assert!(html.contains("node-red"));
        assert!(html.contains("title=\"a001: MIXED — CPU 64/128"));
        assert!(html.contains("href=\"/nodes/g001\""));
    }

    #[test]
    fn list_filter_narrows() {
        let all = render_list(&payload(), None);
        assert!(all.contains("a001") && all.contains("g001"));
        let gpu_only = render_list(&payload(), Some("gpu"));
        assert!(!gpu_only.contains("a001") && gpu_only.contains("g001"));
        let down_only = render_list(&payload(), Some("down"));
        assert!(down_only.contains("g001") && !down_only.contains("a001"));
        let none = render_list(&payload(), Some("zzz"));
        assert!(!none.contains("a001") && !none.contains("g001"));
    }

    #[test]
    fn full_page_has_both_views() {
        let data = serde_json::to_vec(&payload()).unwrap();
        let html = render_full("Anvil", "alice", &data);
        assert!(html.contains("node-grid"));
        assert!(html.contains("node-table"));
    }
}
