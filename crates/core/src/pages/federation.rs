//! The Federation page: every registered cluster's health and totals on one
//! screen, with per-site freshness notices for degraded slices.

use crate::api::federation::Status;
use crate::pages::layout::{decode, page, shell, widget_placeholder};
use crate::template::escape_html;

pub(crate) fn render_shell(cluster: &str, user: &str) -> String {
    let mut body = String::from("<h1>Federation</h1>");
    body.push_str(&widget_placeholder("federation", "/api/federation/status"));
    body.push_str(&widget_placeholder(
        "federation-jobs",
        "/api/federation/jobs",
    ));
    shell("Federation", "federation", cluster, user, &body)
}

/// The site table: one row per cluster with health, totals, and — for
/// degraded slices — the honest "data from N s ago" notice in the row
/// itself, not hidden in a tooltip (accessibility rule: state in text).
pub(crate) fn render_sites(payload: &Status) -> String {
    let mut out = String::from(
        "<table class=\"federation-table\"><thead><tr>\
         <th>Cluster</th><th>Health</th><th>Running</th><th>Pending</th>\
         <th>Nodes</th><th>Freshness</th></tr></thead><tbody>",
    );
    let or_dash = |n: Option<String>| n.unwrap_or_else(|| "—".to_string());
    for s in &payload.sites {
        out.push_str(&format!(
            "<tr class=\"site-{health}\"><td>{}</td><td>{health}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            escape_html(&s.cluster),
            or_dash(s.jobs.as_ref().map(|j| j.running.to_string())),
            or_dash(s.jobs.as_ref().map(|j| j.pending.to_string())),
            or_dash(s.nodes.map(|n| n.to_string())),
            s.notice
                .as_deref()
                .map_or("current".to_string(), escape_html),
            health = escape_html(&s.health),
        ));
    }
    out.push_str("</tbody></table>");
    out
}

/// The full page given the `/api/federation/status` answer.
pub fn render_full(cluster: &str, user: &str, data: &[u8]) -> String {
    let body = decode(data).map(|payload: Status| {
        let mut body = String::from("<h1>Federation</h1>");
        if payload.degraded {
            body.push_str("<div class=\"banner banner-degraded\" role=\"alert\">");
            let notices: Vec<String> = payload.notices.iter().map(|n| escape_html(n)).collect();
            body.push_str(&notices.join("; "));
            body.push_str("</div>");
        }
        body.push_str(&render_sites(&payload));
        body
    });
    page("Federation", "federation", cluster, user, data, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn payload() -> Status {
        serde_json::from_value(json!({
            "degraded": true, "clusters": 2, "live": 1, "stale": 1, "dark": 0,
            "totals": {"jobs_pending": 4, "jobs_running": 9, "jobs_suspended": 0, "nodes": 24},
            "notices": ["site beta: data from 40s ago"],
            "sites": [
                {"cluster": "alpha", "health": "live", "snapshot_seq": 7,
                 "jobs": {"running": 7, "pending": 3, "suspended": 0}, "nodes": 16,
                 "partitions": 2},
                {"cluster": "beta", "health": "stale", "snapshot_seq": 3, "stale_age_secs": 40,
                 "notice": "site beta: data from 40s ago",
                 "jobs": {"running": 2, "pending": 1, "suspended": 0}, "nodes": 8,
                 "partitions": 1},
            ],
            "generated_at": 1_000,
        }))
        .unwrap()
    }

    #[test]
    fn shell_binds_the_federation_routes() {
        let html = render_shell("Anvil", "alice");
        assert!(html.contains("data-api=\"/api/federation/status\""));
        assert!(html.contains("data-api=\"/api/federation/jobs\""));
    }

    #[test]
    fn degraded_slice_gets_a_row_level_notice() {
        let html = render_sites(&payload());
        assert!(html.contains("site-live") && html.contains("site-stale"));
        assert!(html.contains("site beta: data from 40s ago"));
        assert!(html.contains(">current<"), "live rows say current: {html}");
    }

    #[test]
    fn full_page_banners_the_degradation() {
        let mut status = payload();
        let html = render_full("Anvil", "alice", &serde_json::to_vec(&status).unwrap());
        assert!(html.contains("banner-degraded"));
        assert!(html.contains("role=\"alert\""));
        status.degraded = false;
        let html = render_full("Anvil", "alice", &serde_json::to_vec(&status).unwrap());
        assert!(!html.contains("banner-degraded"));
    }
}
