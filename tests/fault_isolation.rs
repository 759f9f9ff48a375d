//! Experiment P5 (paper §2.4, modularity): one broken data source degrades
//! only its own widget; the rest of the dashboard keeps serving.

use hpcdash::SimSite;
use hpcdash_core::pages::homepage;
use hpcdash_http::HttpClient;
use hpcdash_workload::ScenarioConfig;

fn fetch(client: &HttpClient, base: &str, path: &str, user: &str) -> (u16, serde_json::Value) {
    let resp = client
        .get(&format!("{base}{path}"), &[("X-Remote-User", user)])
        .unwrap();
    let body = resp.json().unwrap_or(serde_json::Value::Null);
    (resp.status, body)
}

#[test]
fn news_outage_only_kills_the_announcements_widget() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    site.scenario.news.set_available(false);

    let mut statuses = Vec::new();
    for (widget, path) in homepage::WIDGETS {
        let (status, _) = fetch(&client, &base, path, &user);
        statuses.push((widget, status));
    }
    assert_eq!(
        statuses.iter().filter(|(_, s)| *s == 200).count(),
        4,
        "{statuses:?}"
    );
    let broken: Vec<&str> = statuses
        .iter()
        .filter(|(_, s)| *s != 200)
        .map(|(w, _)| *w)
        .collect();
    assert_eq!(broken, vec!["announcements"]);

    // Recovery is immediate once the source returns (errors are not cached).
    site.scenario.news.set_available(true);
    let (status, _) = fetch(&client, &base, "/api/announcements", &user);
    assert_eq!(status, 200);
}

#[test]
fn storage_outage_only_kills_the_storage_widget() {
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    site.scenario.storage.set_available(false);
    let (status, body) = fetch(&client, &base, "/api/storage", &user);
    assert_eq!(status, 503);
    assert!(body["error"].as_str().unwrap().contains("storage"));
    for path in [
        "/api/announcements",
        "/api/recent_jobs",
        "/api/system_status",
        "/api/accounts",
    ] {
        let (status, _) = fetch(&client, &base, path, &user);
        assert_eq!(status, 200, "{path} should be unaffected");
    }
}

#[test]
fn homepage_renders_error_cards_for_broken_widgets() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(300);
    let server = site.serve().unwrap();
    let base = server.base_url();
    let user = site.scenario.population.users[0].clone();
    site.scenario.storage.set_available(false);

    // Render the full homepage the way the frontend would: per-widget
    // payloads, failures becoming error cards.
    let client = HttpClient::new();
    let payloads: Vec<(&str, Result<String, String>)> = homepage::WIDGETS
        .iter()
        .map(|(widget, path)| {
            let (status, body) = fetch(&client, &base, path, &user);
            let result = if status == 200 {
                Ok(body.to_string())
            } else {
                Err(body["error"].as_str().unwrap_or("unavailable").to_string())
            };
            (*widget, result)
        })
        .collect();
    let html = homepage::render_full("Anvil", &user, &payloads);
    assert_eq!(
        html.matches("widget-error").count(),
        1,
        "exactly one error card"
    );
    assert!(html.contains("data-widget=\"system_status\""));
    assert!(html.contains("data-widget=\"recent_jobs\""));
}

#[test]
fn drained_partition_surfaces_as_state_not_failure() {
    // Infrastructure trouble inside Slurm is data, not an error: the System
    // Status widget reports the partition down rather than breaking.
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    site.scenario
        .ctld
        .set_partition_state("cpu", hpcdash_slurm::partition::PartitionState::Down);
    let (status, body) = fetch(&client, &base, "/api/system_status", &user);
    assert_eq!(status, 200);
    let cpu = body["partitions"]
        .as_array()
        .unwrap()
        .iter()
        .find(|p| p["name"] == "cpu")
        .unwrap()
        .clone();
    assert_eq!(cpu["status"], "DOWN");
}

/// A job's free text is one column of `sacct`'s table: a `|` or a line
/// break in its comment once split the row, and the parse error took My
/// Jobs down for everyone who can see the job. The comment is cleaned the
/// way the name is, and the row carries it.
#[test]
fn a_separator_in_a_job_comment_is_cleaned_not_fatal() {
    use hpcdash_http::{Method, Request};
    use hpcdash_slurm::job::{JobRequest, UsageProfile};

    let site = SimSite::build(ScenarioConfig::small());
    let pop = &site.scenario.population;
    let owner = pop.users[0].clone();
    let account = pop.accounts_of(&owner)[0].clone();
    let peer = pop
        .users
        .iter()
        .find(|u| **u != owner && pop.accounts_of(u).contains(&account))
        .expect("the account has two members")
        .clone();
    let submit = |comment: &str| {
        let mut req = JobRequest::simple(&owner, &account, "cpu", 2);
        req.comment = Some(comment.to_string());
        req.usage = UsageProfile::batch(600);
        site.scenario.ctld.submit(req).unwrap()[0]
    };
    let bare = submit("a|b\nc");
    let session = submit("ood:jupyter:a|b\nc:/home/x");
    site.scenario.ctld.tick();

    for viewer in [&owner, &peer] {
        let req =
            Request::new(Method::Get, "/api/myjobs?range=all").with_header("X-Remote-User", viewer);
        let resp = site.dashboard.handle(&req);
        let body = String::from_utf8_lossy(resp.body.as_ref()).into_owned();
        assert_eq!(resp.status, 200, "{viewer}: {body}");
        let payload: serde_json::Value = serde_json::from_str(&body).unwrap();
        let row = |id: u32| {
            payload["jobs"]
                .as_array()
                .unwrap()
                .iter()
                .find(|r| r["id"] == id.to_string().as_str())
                .unwrap_or_else(|| panic!("{viewer} sees job {id}"))
                .clone()
        };
        assert_eq!(row(bare.0)["session_id"], serde_json::Value::Null);
        assert_eq!(row(session.0)["session_id"], "a/b c", "{viewer}");
    }
}
