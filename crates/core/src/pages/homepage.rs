//! The dashboard homepage (paper §3, Figure 2): five widgets at a glance.

use crate::pages::layout::{decode, shell, widget_placeholder};
use crate::widgets;

/// The widget slots in display order, each paired with its API route —
/// the mapping the client uses to fill the page.
pub const WIDGETS: [(&str, &str); 5] = [
    ("announcements", "/api/announcements"),
    ("recent_jobs", "/api/recent_jobs"),
    ("system_status", "/api/system_status"),
    ("accounts", "/api/accounts"),
    ("storage", "/api/storage"),
];

/// The instantly served shell: placeholders only, no Slurm queries.
pub fn render_shell(cluster: &str, user: &str) -> String {
    let mut body = String::from("<div class=\"widget-grid\">");
    for (id, api) in WIDGETS {
        body.push_str(&widget_placeholder(id, api));
    }
    body.push_str("</div>");
    shell("Home", "homepage", cluster, user, &body)
}

/// The fully rendered homepage given each widget's API answer (or error).
/// A failed widget, or one whose answer does not decode, renders its error
/// card; the rest are unaffected — the modularity property (paper §2.4).
pub fn render_full<B: AsRef<[u8]>>(
    cluster: &str,
    user: &str,
    payloads: &[(&str, Result<B, String>)],
) -> String {
    let mut body = String::from("<div class=\"widget-grid\">");
    for (id, payload) in payloads {
        let rendered = payload.as_ref().map_err(String::clone).and_then(|data| {
            let data = data.as_ref();
            let html = match *id {
                "announcements" => decode(data).map(|p| widgets::announcements::render(&p)),
                "recent_jobs" => decode(data).map(|p| widgets::recent_jobs::render(&p)),
                "system_status" => decode(data).map(|p| widgets::system_status::render(&p)),
                "accounts" => decode(data).map(|p| widgets::accounts::render(&p)),
                "storage" => decode(data).map(|p| widgets::storage::render(&p)),
                _ => Err("unknown widget".to_string()),
            }?;
            // Server-annotated stale payloads get their accessible
            // "showing data from N ago" notice.
            Ok(widgets::with_degradation(html, data))
        });
        body.push_str(&rendered.unwrap_or_else(|e| widgets::error_card(id, &e)));
    }
    body.push_str("</div>");
    shell("Home", "homepage", cluster, user, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn shell_has_all_five_placeholders() {
        let html = render_shell("Anvil", "alice");
        for (id, api) in WIDGETS {
            assert!(html.contains(&format!("data-widget=\"{id}\"")));
            assert!(html.contains(&format!("data-api=\"{api}\"")));
        }
        assert!(!html.contains("squeue"), "shell carries no backend data");
    }

    #[test]
    fn full_render_mixes_widgets_and_error_cards() {
        let payloads = vec![
            (
                "announcements",
                Ok(json!({"items": [], "all_news_url": "/news"})),
            ),
            ("recent_jobs", Ok(json!({"jobs": []}))),
            ("system_status", Err("sinfo timed out".to_string())),
            ("accounts", Ok(json!({"accounts": []}))),
            ("storage", Ok(json!({"disks": []}))),
        ];
        let payloads: Vec<(&str, Result<Vec<u8>, String>)> = payloads
            .into_iter()
            .map(|(id, p)| (id, p.map(|v| v.to_string().into_bytes())))
            .collect();
        let html = render_full("Anvil", "alice", &payloads);
        assert!(
            html.contains("widget-error"),
            "failed widget shows an error card"
        );
        assert!(html.contains("sinfo timed out"));
        assert!(
            html.contains("data-widget=\"storage\""),
            "other widgets still render"
        );
        assert!(html.contains("No running or queued jobs"));
        assert!(
            html.contains("missing field `user_guide_url`"),
            "an accounts answer without its guide link is a decode error: {html}"
        );
    }
}
