//! The common page chrome and the async-widget shell.

use crate::template::{render, vars};
use crate::widgets::{error_card, with_degradation};
use serde::Deserialize;

const SHELL_TEMPLATE: &str = r#"<!doctype html>
<html lang="en">
<head>
  <meta charset="utf-8">
  <meta name="viewport" content="width=device-width, initial-scale=1">
  <title><%= title %> — <%= cluster %> Dashboard</title>
  <link rel="stylesheet" href="/assets/dashboard.css">
</head>
<body>
  <nav class="navbar">
    <span class="brand"><%= cluster %></span>
    <a href="/">Home</a>
    <a href="/myjobs">My Jobs</a>
    <a href="/jobperf">Job Performance</a>
    <a href="/clusterstatus">Cluster Status</a>
    <span class="user">Logged in as <%= user %></span>
  </nav>
  <main id="content" data-page="<%= page_id %>">
<%== body %>
  </main>
  <script src="/assets/cachedb.js"></script>
  <script src="/assets/widgets.js"></script>
</body>
</html>
"#;

/// Wrap `body` in the page chrome. `user` is the only server-side data the
/// shell pre-renders (the paper's ERB usage).
pub fn shell(title: &str, page_id: &str, cluster: &str, user: &str, body: &str) -> String {
    render(
        SHELL_TEMPLATE,
        &vars([
            ("title", title.to_string()),
            ("page_id", page_id.to_string()),
            ("cluster", cluster.to_string()),
            ("user", user.to_string()),
            ("body", body.to_string()),
        ]),
    )
    .expect("shell template is well-formed")
}

/// A route's answer decoded to its payload type; the error says which
/// field is missing or mistyped.
pub(crate) fn decode<T: Deserialize>(data: &[u8]) -> Result<T, String> {
    serde_json::from_slice(data).map_err(|e| e.to_string())
}

/// A full page drawn from its route's answer `data`, in the page chrome.
/// `body` is the page drawn from the decoded payload, or the decode error,
/// which shows as the error card rather than blank cells. An answer the
/// server served stale opens with the accessible stale notice, whichever
/// page draws it.
pub(crate) fn page(
    title: &str,
    page_id: &str,
    cluster: &str,
    user: &str,
    data: &[u8],
    body: Result<String, String>,
) -> String {
    let body = match body {
        Ok(html) => with_degradation(html, data),
        Err(e) => error_card(title, &e),
    };
    shell(title, page_id, cluster, user, &body)
}

/// A loading placeholder for one async widget: the frontend swaps it for
/// the rendered widget once the API call returns (paper §2.3's loading
/// animation instead of a blank page).
pub(crate) fn widget_placeholder(widget_id: &str, api_path: &str) -> String {
    format!(
        "<div class=\"widget-slot\" data-widget=\"{widget_id}\" data-api=\"{api_path}\">\
         <div class=\"spinner\" role=\"status\" aria-label=\"Loading {widget_id}\"></div></div>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shell_prerenders_user_and_escapes() {
        let html = shell("Home", "homepage", "Anvil", "<alice>", "<div>w</div>");
        assert!(html.contains("Logged in as &lt;alice&gt;"));
        assert!(html.contains("<div>w</div>"), "body is raw html");
        assert!(html.contains("data-page=\"homepage\""));
        assert!(html.contains("Anvil Dashboard"));
        assert!(html.contains("cachedb.js"), "client cache script included");
    }

    #[test]
    fn page_labels_stale_data_and_cards_undecodable_data() {
        let draw = |data: &[u8]| {
            let body = decode::<Vec<u32>>(data).map(|v| format!("<p>{} rows</p>", v.len()));
            page("Rows", "rows", "Anvil", "alice", data, body)
        };
        let fresh = draw(b"[1,2]");
        assert!(fresh.contains("<p>2 rows</p>") && !fresh.contains("role=\"status\" aria-live"));
        let broken = draw(b"{\"rows\":1}");
        assert!(broken.contains("widget-error") && !broken.contains("rows</p>"));
    }

    #[test]
    fn placeholder_carries_api_binding() {
        let html = widget_placeholder("storage", "/api/storage");
        assert!(html.contains("data-widget=\"storage\""));
        assert!(html.contains("data-api=\"/api/storage\""));
        assert!(html.contains("spinner"));
    }
}
