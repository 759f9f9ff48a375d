//! The Announcements widget (paper §3.1): an accordion of recent news,
//! colour-coded by urgency, with past events faded.

use crate::api::announcements::Announcements;
use crate::template::escape_html;
use crate::widgets::components::{badge, card};

/// Render from the `/api/announcements` payload.
pub fn render(payload: &Announcements) -> String {
    let mut body = String::from("<div class=\"accordion\" id=\"announcements\">");
    for item in &payload.items {
        body.push_str(&format!(
            "<div class=\"accordion-item announcement announcement-{} {}\">\
             <button class=\"accordion-header\" aria-expanded=\"false\">{} <span class=\"date\">{}</span> {}</button>\
             <div class=\"accordion-body collapse\">{}</div></div>",
            item.color,
            if item.faded { "announcement-past" } else { "announcement-current" },
            badge(&item.color, &item.category),
            escape_html(&item.posted_at),
            escape_html(&item.title),
            escape_html(&item.body),
        ));
    }
    body.push_str("</div>");
    body.push_str(&format!(
        "<a class=\"view-all\" href=\"{}\">View all news</a>",
        escape_html(&payload.all_news_url)
    ));
    card("announcements", "Announcements", &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn payload() -> Announcements {
        serde_json::from_value(json!({
            "items": [
                {"id": 2, "title": "Outage", "body": "b1", "category": "outage", "color": "red",
                 "relevance": "active", "faded": false, "posted_at": "2026-07-04T01:00:00",
                 "starts_at": null, "ends_at": null},
                {"id": 1, "title": "Old news", "body": "b2", "category": "news", "color": "gray",
                 "relevance": "past", "faded": true, "posted_at": "2026-06-01T01:00:00",
                 "starts_at": null, "ends_at": null},
            ],
            "all_news_url": "https://example.edu/news",
        }))
        .unwrap()
    }

    #[test]
    fn renders_accordion_with_colors_and_fading() {
        let html = render(&payload());
        assert!(html.contains("announcement-red"));
        assert!(html.contains("announcement-past"));
        assert!(html.contains("announcement-current"));
        assert!(html.contains("Outage"));
        assert!(html.contains("View all news"));
        assert!(
            html.contains("accordion-body collapse"),
            "collapsed by default"
        );
    }

    #[test]
    fn empty_payload_is_safe() {
        let mut empty = payload();
        empty.items.clear();
        let html = render(&empty);
        assert!(html.contains("data-widget=\"announcements\""));
        assert!(!html.contains("accordion-item"));
    }
}
