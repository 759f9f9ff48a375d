//! Admin job controls over HTTP (paper §9's administrator-only content):
//! hold / release / cancel, gated on the configured admin list.

use hpcdash::SimSite;
use hpcdash_http::HttpClient;
use hpcdash_slurm::job::{JobRequest, JobState, PendingReason};
use hpcdash_workload::ScenarioConfig;

fn post(client: &HttpClient, base: &str, path: &str, user: &str) -> hpcdash_http::ClientResponse {
    client
        .post(
            &format!("{base}{path}"),
            &[("X-Remote-User", user)],
            Vec::new(),
        )
        .unwrap()
}

#[test]
fn admin_hold_release_cancel_over_http() {
    // purdue_like config has root in the admin list with admin_view on.
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();
    let account = site.scenario.population.accounts_of(&user)[0].clone();

    let id = site
        .scenario
        .ctld
        .submit(JobRequest::simple(&user, &account, "cpu", 1))
        .unwrap()[0];

    // Owner is not an admin: 403 on the admin surface.
    let resp = post(&client, &base, &format!("/api/admin/jobs/{id}/hold"), &user);
    assert_eq!(resp.status, 403);

    // Admin holds it; the scheduler then skips it.
    let resp = post(
        &client,
        &base,
        &format!("/api/admin/jobs/{id}/hold"),
        "root",
    );
    assert_eq!(resp.status, 200, "{}", resp.body_string());
    site.scenario.clock.advance(1);
    site.scenario.ctld.tick();
    let job = site.scenario.ctld.query_job(id).unwrap();
    assert_eq!(job.state, JobState::Pending);
    assert_eq!(job.reason, Some(PendingReason::JobHeldAdmin));

    // Release: it runs on the next pass.
    let resp = post(
        &client,
        &base,
        &format!("/api/admin/jobs/{id}/release"),
        "root",
    );
    assert_eq!(resp.status, 200);
    site.scenario.clock.advance(1);
    site.scenario.ctld.tick();
    assert_eq!(
        site.scenario.ctld.query_job(id).unwrap().state,
        JobState::Running
    );

    // Cancel: gone from live state, archived as cancelled, event emitted.
    let resp = post(
        &client,
        &base,
        &format!("/api/admin/jobs/{id}/cancel"),
        "root",
    );
    assert_eq!(resp.status, 200);
    assert!(site.scenario.ctld.query_job(id).is_none());
    // The next tick streams the cancellation into accounting.
    site.scenario.clock.advance(1);
    site.scenario.ctld.tick();
    assert_eq!(
        site.scenario.dbd.job(id).unwrap().state,
        JobState::Cancelled
    );
    let events = site.scenario.ctld.events().read(0, |_| true).entries;
    assert!(events
        .iter()
        .any(|e| e.job == id && e.to == JobState::Cancelled));

    // Unknown job: 404. GET on the POST route: 404 (method mismatch).
    let resp = post(&client, &base, "/api/admin/jobs/424242/cancel", "root");
    assert_eq!(resp.status, 404);
    let resp = client
        .get(
            &format!("{base}/api/admin/jobs/{id}/hold"),
            &[("X-Remote-User", "root")],
        )
        .unwrap();
    assert_eq!(resp.status, 404);
}

#[test]
fn all_news_page_and_scope_all_api() {
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    let page = client
        .get(&format!("{base}/news"), &[("X-Remote-User", &user)])
        .unwrap();
    assert_eq!(page.status, 200);
    assert!(page.body_string().contains("/api/announcements?scope=all"));

    let api = client
        .get(
            &format!("{base}/api/announcements?scope=all"),
            &[("X-Remote-User", &user)],
        )
        .unwrap();
    let items = api.json().unwrap()["items"].as_array().unwrap().len();
    assert_eq!(items, 5, "scenario publishes five articles; all are listed");
}
