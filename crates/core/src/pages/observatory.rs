//! The admin observability page: route-latency history, the SLO/error
//! budget board, breaker states, tick-phase profiles, and the stored-trace
//! table.
//!
//! Like every other page, the shell serves instantly with placeholders and
//! the widgets fill in from their API routes (`/api/observatory`,
//! `/api/traces`, `/api/obs/series`).

use crate::pages::layout::{shell, widget_placeholder};

pub(crate) fn render_shell(cluster: &str, user: &str) -> String {
    let mut body = String::from("<h1>Observatory</h1>");
    body.push_str(
        "<p class=\"observatory-intro\">Dashboard self-observability: \
         service levels, circuit breakers, daemon tick phases, the HTTP \
         event loop (connections by state, sheds, 304 revalidations, \
         and per loop thread the time its last wake-up took, the handler \
         it ran included), and stored request traces.</p>",
    );
    body.push_str("<div class=\"widget-grid\">");
    body.push_str(&widget_placeholder("observatory", "/api/observatory"));
    body.push_str(&widget_placeholder(
        "route-latency-history",
        "/api/obs/series?name=self%3Ahpcdash_sched_queue_depth",
    ));
    body.push_str(&widget_placeholder("traces", "/api/traces?limit=50"));
    body.push_str("</div>");
    shell("Observatory", "observatory", cluster, user, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_binds_the_observatory_widgets() {
        let html = render_shell("Anvil", "root");
        assert!(html.contains("data-api=\"/api/observatory\""));
        assert!(html.contains("data-api=\"/api/traces?limit=50\""));
        assert!(html.contains("/api/obs/series?name=self%3A"));
        assert!(html.contains("Logged in as root"));
    }
}
