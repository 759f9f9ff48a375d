//! The "view all news" page (paper §3.1: the widget's button "lets users
//! navigate to a list of all cluster-related articles").

use crate::api::announcements::Announcements;
use crate::pages::layout::{decode, page, shell, widget_placeholder};
use crate::template::escape_html;
use crate::widgets::components::badge;

pub(crate) fn render_shell(cluster: &str, user: &str) -> String {
    let mut body = String::from("<h1>Cluster news</h1>");
    body.push_str(&widget_placeholder(
        "newsall",
        "/api/announcements?scope=all",
    ));
    shell("All news", "newsall", cluster, user, &body)
}

/// Render from the `/api/announcements?scope=all` answer.
pub fn render_full(cluster: &str, user: &str, data: &[u8]) -> String {
    let body = decode(data).map(|payload: Announcements| {
        let mut body = String::from("<h1>Cluster news</h1><div class=\"accordion news-list\">");
        for item in &payload.items {
            body.push_str(&format!(
                "<article class=\"announcement announcement-{} {}\">\
                 <h2>{} {}</h2><time>{}</time>{}<p>{}</p></article>",
                item.color,
                if item.faded {
                    "announcement-past"
                } else {
                    "announcement-current"
                },
                badge(&item.color, &item.category),
                escape_html(&item.title),
                escape_html(&item.posted_at),
                match (&item.starts_at, &item.ends_at) {
                    (Some(s), Some(e)) => format!(
                        "<div class=\"window\">Window: {} — {}</div>",
                        escape_html(s),
                        escape_html(e)
                    ),
                    _ => String::new(),
                },
                escape_html(&item.body),
            ));
        }
        body.push_str("</div>");
        body
    });
    page("All news", "newsall", cluster, user, data, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn lists_every_article_with_windows() {
        let payload = json!({"items": [
            {"id": 2, "title": "Maintenance", "body": "b", "category": "maintenance",
             "color": "yellow", "relevance": "upcoming", "faded": false,
             "posted_at": "2026-07-01T00:00:00",
             "starts_at": "2026-07-06T08:00:00", "ends_at": "2026-07-06T16:00:00"},
            {"id": 1, "title": "Old outage", "body": "b", "category": "outage", "color": "red",
             "relevance": "timeless", "faded": true, "posted_at": "2026-06-01T00:00:00",
             "starts_at": null, "ends_at": null},
        ], "all_news_url": "/news"});
        let html = render_full("Anvil", "alice", payload.to_string().as_bytes());
        assert_eq!(html.matches("<article").count(), 2);
        assert!(html.contains("Window: 2026-07-06T08:00:00 — 2026-07-06T16:00:00"));
        assert!(html.contains("announcement-past"));
        assert!(html.contains("announcement-yellow"));
    }

    #[test]
    fn shell_points_at_scope_all() {
        let html = render_shell("Anvil", "alice");
        assert!(html.contains("/api/announcements?scope=all"));
    }
}
