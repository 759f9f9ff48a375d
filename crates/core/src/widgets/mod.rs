//! Homepage widget renderers (paper §3) — the frontend half of each
//! feature. Each takes its paired API route's payload type, the one the
//! route encodes (`api::<route>`), decoded from the route's bytes, so
//! server-side rendering (tests, examples) and the headless browser can
//! never disagree about the data shape: a field the route stopped sending
//! is a decode error, rendered as the widget's error card.

pub mod accounts;
pub mod announcements;
pub mod components;
pub mod recent_jobs;
pub mod storage;
pub mod system_status;

use hpcdash_cache::body::Degradation;

/// Render a widget's error card — what the frontend shows when the widget's
/// API route fails while the rest of the dashboard keeps working (the
/// modularity story of paper §2.4).
pub(crate) fn error_card(widget_name: &str, message: &str) -> String {
    format!(
        "<div class=\"card widget widget-error\" data-widget=\"{}\">\
         <div class=\"card-header\">{}</div>\
         <div class=\"card-body text-muted\">This component is temporarily unavailable: {}</div>\
         </div>",
        crate::template::escape_html(widget_name),
        crate::template::escape_html(widget_name),
        crate::template::escape_html(message),
    )
}

/// The accessible degraded-data notice: when a widget's source is failing
/// and the server fell back to the last-known-good payload, the widget
/// must *say so* rather than present old numbers as current. `role=status`
/// with `aria-live=polite` so screen readers announce the change without
/// stealing focus (the paper's accessibility bar, §6).
pub fn stale_notice(age_secs: u64) -> String {
    let age = if age_secs < 120 {
        format!("{age_secs} seconds")
    } else {
        format!("{} minutes", age_secs / 60)
    };
    format!(
        "<div class=\"widget-stale-notice\" role=\"status\" aria-live=\"polite\">\
         Showing data from {age} ago — the data source is temporarily unreachable.\
         </div>"
    )
}

/// Wrap HTML drawn from the answer `data` with its stale notice when the
/// server served `data` stale ([`Degradation`]); other answers pass
/// through untouched.
pub(crate) fn with_degradation(html: String, data: &[u8]) -> String {
    match Degradation::of(data) {
        Some(Degradation {
            stale_age_secs: Some(age),
            ..
        }) => format!(
            "<div class=\"widget-degraded\">{}{}</div>",
            stale_notice(age),
            html
        ),
        _ => html,
    }
}

#[cfg(test)]
mod tests {

    #[test]
    fn error_card_escapes() {
        let html = super::error_card("Storage", "<boom>");
        assert!(html.contains("widget-error"));
        assert!(html.contains("&lt;boom&gt;"));
        assert!(!html.contains("<boom>"));
    }

    #[test]
    fn stale_notice_is_accessible_and_humane() {
        let n = super::stale_notice(45);
        assert!(n.contains("role=\"status\""));
        assert!(n.contains("aria-live=\"polite\""));
        assert!(n.contains("45 seconds ago"));
        assert!(super::stale_notice(300).contains("5 minutes ago"));
    }

    #[test]
    fn degradation_wrapper_only_fires_on_annotated_payloads() {
        let fresh = br#"{"jobs":[]}"#;
        assert_eq!(
            super::with_degradation("<div>w</div>".to_string(), fresh),
            "<div>w</div>"
        );
        let stale = hpcdash_cache::body::annotate_stale(fresh, 90, "down").unwrap();
        let html = super::with_degradation("<div>w</div>".to_string(), &stale);
        assert!(html.contains("widget-stale-notice"));
        assert!(html.contains("90 seconds ago"));
        assert!(html.contains("<div>w</div>"));
    }
}
