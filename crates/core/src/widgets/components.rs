//! Shared HTML building blocks: cards, badges, progress bars.

use crate::template::escape_html;

/// A colour-coded progress bar with a text label, the visual primitive the
/// System Status / Accounts / Storage widgets share (paper §3.3-§3.5).
pub fn progress_bar(percent: f64, color: &str, label: &str) -> String {
    let clamped = percent.clamp(0.0, 100.0);
    format!(
        "<div class=\"progress\"><div class=\"progress-bar bg-{}\" style=\"width:{:.1}%\" \
         role=\"progressbar\" aria-valuenow=\"{:.1}\" aria-valuemin=\"0\" aria-valuemax=\"100\">{}</div></div>",
        color,
        clamped,
        clamped,
        escape_html(label),
    )
}

/// A Bootstrap-style card with a header.
pub fn card(widget_id: &str, title: &str, body_html: &str) -> String {
    format!(
        "<div class=\"card widget\" data-widget=\"{}\"><div class=\"card-header\">{}</div>\
         <div class=\"card-body\">{}</div></div>",
        escape_html(widget_id),
        escape_html(title),
        body_html,
    )
}

/// A state/urgency badge.
pub(crate) fn badge(color: &str, text: &str) -> String {
    format!(
        "<span class=\"badge badge-{}\">{}</span>",
        color,
        escape_html(text)
    )
}

/// A hoverable tooltip wrapper (the Recent Jobs status descriptions).
pub fn tooltip(visible: &str, tip: &str) -> String {
    format!(
        "<span class=\"has-tooltip\" title=\"{}\">{}</span>",
        escape_html(tip),
        escape_html(visible)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_bar_clamps_and_colors() {
        let html = progress_bar(142.0, "red", "100%");
        assert!(html.contains("width:100.0%"));
        assert!(html.contains("bg-red"));
        let html = progress_bar(-5.0, "green", "0%");
        assert!(html.contains("width:0.0%"));
    }

    #[test]
    fn card_structure() {
        let html = card("storage", "Storage", "<p>body</p>");
        assert!(html.contains("data-widget=\"storage\""));
        assert!(html.contains("<p>body</p>"), "body html passes through raw");
        assert!(html.contains("Storage"));
    }

    #[test]
    fn badge_and_tooltip_escape() {
        assert!(badge("red", "<x>").contains("&lt;x&gt;"));
        let t = tooltip("PD", "waiting \"patiently\"");
        assert!(t.contains("title=\"waiting &quot;patiently&quot;\""));
    }
}
