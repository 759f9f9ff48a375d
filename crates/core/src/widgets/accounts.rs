//! The Accounts widget (paper §3.4): per-allocation CPU/GPU usage with an
//! export dropdown.

use crate::api::accounts::Accounts;
use crate::template::escape_html;
use crate::widgets::components::{card, progress_bar};

/// Render from the `/api/accounts` payload.
pub fn render(payload: &Accounts) -> String {
    let mut body = String::new();
    if payload.accounts.is_empty() {
        body.push_str("<p class=\"text-muted\">No allocations found.</p>");
    }
    for a in &payload.accounts {
        body.push_str(&format!(
            "<div class=\"account-row\"><span class=\"account-name\">{}</span>",
            escape_html(&a.name)
        ));
        let (in_use, queued) = (a.cpus_in_use, a.cpus_queued);
        match a.cpu_limit {
            Some(limit) => {
                body.push_str(&progress_bar(
                    a.cpu_percent,
                    &a.cpu_color,
                    &format!("CPUs {in_use}/{limit} in use, {queued} queued"),
                ));
            }
            None => {
                body.push_str(&format!(
                    "<span class=\"cpu-counts\">CPUs {in_use} in use, {queued} queued (no limit)</span>"
                ));
            }
        }
        let gpu_used = a.gpu_hours_used;
        if let Some(limit) = a.gpu_hours_limit {
            body.push_str(&progress_bar(
                (gpu_used / limit.max(1e-9) * 100.0).min(100.0),
                &a.gpu_color,
                &format!("GPU hours {gpu_used:.1}/{limit:.0}"),
            ));
        }
        let export = escape_html(&a.export_url);
        body.push_str(&format!(
            "<div class=\"dropdown export\"><a href=\"{export}\">Export CSV</a> \
             <a href=\"{export}?format=excel\">Export Excel</a></div>"
        ));
        body.push_str("</div>");
    }
    body.push_str(&format!(
        "<a class=\"guide-link\" href=\"{}\">About accounts</a>",
        escape_html(&payload.user_guide_url)
    ));
    card("accounts", "Accounts", &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn payload(v: serde_json::Value) -> Accounts {
        serde_json::from_value(v).unwrap()
    }

    #[test]
    fn renders_limits_and_exports() {
        let payload = payload(json!({
            "accounts": [
                {"name": "physics", "cpus_in_use": 128, "cpus_queued": 32, "cpu_limit": 256,
                 "cpu_percent": 50.0, "cpu_color": "green",
                 "gpu_hours_used": 80.0, "gpu_hours_limit": 100.0, "gpu_color": "yellow",
                 "member_count": 5, "export_url": "/api/accounts/physics/export"},
                {"name": "bio", "cpus_in_use": 4, "cpus_queued": 0, "cpu_limit": null,
                 "cpu_percent": 0.0, "cpu_color": "green",
                 "gpu_hours_used": 0.0, "gpu_hours_limit": null, "gpu_color": "green",
                 "member_count": 2, "export_url": "/api/accounts/bio/export"},
            ],
            "user_guide_url": "https://example.edu/guide",
        }));
        let html = render(&payload);
        assert!(html.contains("CPUs 128/256 in use, 32 queued"));
        assert!(html.contains("GPU hours 80.0/100"));
        assert!(html.contains("CPUs 4 in use, 0 queued (no limit)"));
        assert!(html.contains("/api/accounts/physics/export?format=excel"));
        assert!(html.contains("About accounts"));
    }

    #[test]
    fn empty_accounts_message() {
        let html = render(&payload(
            json!({"accounts": [], "user_guide_url": "/guide"}),
        ));
        assert!(html.contains("No allocations found"));
    }
}
