//! Accessibility spot-checks — the paper's title promises an *accessible*
//! dashboard. The HTML renderers must carry the structural affordances
//! assistive tech needs: ARIA roles/values on progress bars and spinners,
//! language and viewport declarations, alt-free semantic markup, and
//! machine-readable timestamps.

use hpcdash::cache::body::Degradation;
use hpcdash::SimSite;
use hpcdash_core::pages;
use hpcdash_core::widgets::components::progress_bar;
use hpcdash_core::widgets::stale_notice;
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_http::{HttpClient, Method, Request};
use hpcdash_workload::ScenarioConfig;
use std::sync::Arc;

#[test]
fn progress_bars_expose_aria_values() {
    let html = progress_bar(73.2, "yellow", "CPU 94/128");
    assert!(html.contains("role=\"progressbar\""));
    assert!(html.contains("aria-valuenow=\"73.2\""));
    assert!(html.contains("aria-valuemin=\"0\""));
    assert!(html.contains("aria-valuemax=\"100\""));
}

#[test]
fn page_shells_declare_language_viewport_and_labelled_spinners() {
    let html = pages::homepage::render_shell("Anvil", "alice");
    assert!(html.contains("<html lang=\"en\">"));
    assert!(
        html.contains("name=\"viewport\""),
        "responsive meta tag present"
    );
    assert!(
        html.contains("role=\"status\""),
        "loading spinners are announced"
    );
    assert!(html.contains("aria-label=\"Loading"));
}

#[test]
fn rendered_pages_use_semantic_structure() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let server = site.serve().unwrap();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();
    let get = |path: &str| {
        let resp = client
            .get(
                &format!("{}{path}", server.base_url()),
                &[("X-Remote-User", &user)],
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{path}");
        resp.body
    };
    let payload = get("/api/myjobs?range=all");
    let html = pages::myjobs::render_full("Anvil", &user, &payload);
    assert!(html.contains("<thead>"), "tables have header groups");
    assert!(html.contains("<h1>"), "pages lead with a heading");
    // Job Overview timeline uses <time> elements carrying the UTC value.
    let my_jobs: serde_json::Value = serde_json::from_slice(&payload).unwrap();
    let started = my_jobs["jobs"]
        .as_array()
        .unwrap()
        .iter()
        .find(|j| j["user"] == user.as_str() && j["start"].is_string())
        .expect("a started job of the user's own");
    let overview = get(&format!("/api/jobs/{}", started["id"].as_str().unwrap()));
    let html = pages::joboverview::render_full("Anvil", &user, &overview, None, None);
    let start = started["start"].as_str().unwrap();
    assert!(html.contains(&format!("<time data-utc=\"{start}\">{start}</time>")));
}

/// Old data is labelled as old on every full page, not only on the
/// homepage widgets: each page's route answered stale (its backends down,
/// its cache past its TTL) renders the polite status notice with the age
/// the server reported.
#[test]
fn every_page_labels_a_stale_answer() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(3_600);
    let user = site.scenario.population.users[0].clone();
    let node = site.scenario.ctld.snapshot().nodes[0].name.clone();
    let get = |path: &str| {
        let req = Request::new(Method::Get, path).with_header("X-Remote-User", &user);
        let resp = site.dashboard.handle(&req);
        assert_eq!(resp.status, 200, "{path}: {}", resp.body_string());
        resp.body.to_vec()
    };
    type Page = fn(&str, &str, &[u8]) -> String;
    let node_path = format!("/api/nodes/{node}");
    let pages: [(&str, Page); 5] = [
        ("/api/myjobs", pages::myjobs::render_full),
        ("/api/jobmetrics", pages::jobperf::render_full),
        ("/api/clusterstatus", pages::clusterstatus::render_full),
        (&node_path, pages::nodeoverview::render_full),
        ("/api/announcements?scope=all", pages::newsall::render_full),
    ];
    for (path, render) in &pages {
        let html = render("Anvil", &user, &get(path));
        assert!(!html.contains("widget-stale-notice"), "{path}: fresh data");
    }

    site.scenario.clock.advance(4_000);
    let down =
        |daemon: &str| Arc::new(FaultPlan::new(1).rule(FaultRule::error(daemon, "*", "down")));
    let clock = site.scenario.clock.shared();
    site.scenario
        .ctld
        .faults()
        .install(down("slurmctld"), clock.clone());
    site.scenario.dbd.faults().install(down("slurmdbd"), clock);
    site.scenario.news.set_available(false);
    for (path, render) in &pages {
        let stale = get(path);
        let age = Degradation::of(&stale)
            .and_then(|d| d.stale_age_secs)
            .unwrap_or_else(|| panic!("{path} answered fresh"));
        assert_eq!(age, 4_000, "{path}");
        let html = render("Anvil", &user, &stale);
        assert!(
            html.contains("role=\"status\" aria-live=\"polite\""),
            "{path}: no stale notice"
        );
        assert!(html.contains(&stale_notice(age)), "{path}: wrong age");
        assert!(html.contains("66 minutes ago"), "{path}");
    }
}
