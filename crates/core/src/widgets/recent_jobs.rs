//! The Recent Jobs widget (paper §3.2): compact cards for the user's latest
//! jobs with status tooltips.

use crate::api::recent_jobs::RecentJobs;
use crate::template::escape_html;
use crate::widgets::components::{badge, card, tooltip};
use hpcdash_simtime::format_duration;

/// Render from the `/api/recent_jobs` payload.
pub fn render(payload: &RecentJobs) -> String {
    let mut body = String::new();
    if payload.jobs.is_empty() {
        body.push_str("<p class=\"text-muted\">No running or queued jobs.</p>");
    }
    for j in &payload.jobs {
        let status = match &j.tooltip {
            Some(tip) => tooltip(&j.state, tip),
            None => badge(&j.state_color, &j.state),
        };
        let when = j.start_time.as_ref().or(j.submit_time.as_ref());
        let id = escape_html(&j.id);
        body.push_str(&format!(
            "<div class=\"job-card\"><span class=\"job-name\">{}</span> \
             <a class=\"job-id\" href=\"/jobs/{id}\">#{id}</a> {} \
             <span class=\"job-when\">{}</span> \
             <span class=\"job-elapsed\">{}</span></div>",
            escape_html(&j.name),
            status,
            escape_html(when.map_or("", String::as_str)),
            format_duration(j.elapsed_secs),
        ));
    }
    card("recent_jobs", "Recent Jobs", &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn renders_cards_with_tooltips() {
        let payload: RecentJobs = serde_json::from_value(json!({"jobs": [
            {"id": "42", "name": "train", "partition": "gpu", "state": "RUNNING",
             "state_color": "green", "submit_time": "2026-07-04T08:00:00",
             "start_time": "2026-07-04T08:05:00", "elapsed_secs": 3_600,
             "time_limit": "4:00:00", "reason": null, "tooltip": null},
            {"id": "43", "name": "sweep", "partition": "cpu", "state": "PENDING",
             "state_color": "blue", "submit_time": "2026-07-04T08:10:00", "start_time": null,
             "elapsed_secs": 0, "time_limit": "1:00:00", "reason": "Priority",
             "tooltip": "It means other queued jobs currently have higher priority."},
        ]}))
        .unwrap();
        let html = render(&payload);
        assert!(html.contains("#42"));
        assert!(html.contains("href=\"/jobs/42\""));
        assert!(html.contains("01:00:00"));
        assert!(html.contains("has-tooltip"), "pending job gets a tooltip");
        assert!(html.contains("It means other queued jobs"));
        assert!(
            html.contains("2026-07-04T08:05:00"),
            "running job shows start time"
        );
        assert!(
            html.contains("2026-07-04T08:10:00"),
            "pending job shows submit time"
        );
    }

    #[test]
    fn empty_queue_message() {
        let html = render(&RecentJobs { jobs: Vec::new() });
        assert!(html.contains("No running or queued jobs"));
    }
}
