//! Figures F2-F4d: render every page of the dashboard from live simulated
//! data and check the paper's described elements are present. P4: the page
//! shells paint before any data exists.

use hpcdash::SimSite;
use hpcdash_core::pages;
use hpcdash_http::{HttpClient, Method, Request};
use hpcdash_slurm::job::{JobRequest, UsageProfile};
use hpcdash_workload::ScenarioConfig;

struct Live {
    _server: hpcdash_http::Server,
    base: String,
    client: HttpClient,
    site: SimSite,
    user: String,
}

fn live() -> Live {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(3_600);
    let server = site.serve().unwrap();
    let user = site.scenario.population.users[0].clone();
    Live {
        base: server.base_url(),
        _server: server,
        client: HttpClient::new(),
        site,
        user,
    }
}

impl Live {
    fn json(&self, path: &str) -> serde_json::Value {
        let resp = self
            .client
            .get(
                &format!("{}{path}", self.base),
                &[("X-Remote-User", &self.user)],
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{path}: {}", resp.body_string());
        resp.json().unwrap()
    }
}

#[test]
fn f2_homepage_renders_all_widgets_from_live_data() {
    let l = live();
    let payloads: Vec<(&str, Result<serde_json::Value, String>)> = pages::homepage::WIDGETS
        .iter()
        .map(|(w, path)| (*w, Ok(l.json(path))))
        .collect();
    let html = pages::homepage::render_full("Anvil", &l.user, &payloads);
    assert!(html.contains("Announcements"));
    assert!(html.contains("System Status"));
    assert!(html.contains("progress-bar"));
    assert!(html.contains("accordion"));
    assert!(!html.contains("widget-error"));
}

#[test]
fn f3_myjobs_page_with_efficiency_and_charts() {
    let l = live();
    // Inject a deliberately wasteful finished job so warnings fire.
    let account = l.site.scenario.population.accounts_of(&l.user)[0].clone();
    let mut req = JobRequest::simple(&l.user, &account, "cpu", 8);
    req.usage = UsageProfile {
        cpu_util: 0.05,
        mem_util: 0.04,
        gpu_util: 0.0,
        planned_runtime_secs: 400,
        outcome: hpcdash_slurm::job::PlannedOutcome::Success,
    };
    l.site.scenario.ctld.submit(req).unwrap();
    l.site.scenario.ctld.tick();
    l.site.scenario.clock.advance(500);
    l.site.scenario.ctld.tick();

    let payload = l.json("/api/myjobs?range=all");
    // Paper §4: My Jobs covers more jobs, with more fields each, than the
    // stock Open OnDemand Active Jobs app, which lists live jobs only.
    let baseline = l.json("/api/activejobs");
    let (mine, active) = (
        payload["jobs"].as_array().unwrap(),
        baseline["jobs"].as_array().unwrap(),
    );
    assert!(
        mine.len() > active.len(),
        "{} vs {}",
        mine.len(),
        active.len()
    );
    let fields = |rows: &[serde_json::Value]| rows[0].as_object().unwrap().len();
    assert!(
        fields(mine) > fields(active),
        "My Jobs carries more columns"
    );

    let html = pages::myjobs::render_full("Anvil", &l.user, &payload);
    assert!(html.contains("job-table"));
    assert!(html.contains("data-chart="));
    assert!(
        html.contains("Toggle") || html.contains("eff"),
        "efficiency columns present"
    );
    assert!(
        html.contains("alert-warning"),
        "wasteful job should produce an efficiency warning"
    );
}

/// P4 (paper §2.3): a shell is served before its widgets fetch anything,
/// so it costs slurmctld and slurmdbd nothing, even with every cache cold.
#[test]
fn page_shells_make_no_daemon_rpcs() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(300);
    site.ctx().cache.clear();
    let user = site.scenario.population.users[0].clone();
    let rpcs = || site.scenario.ctld.stats().total_rpcs() + site.scenario.dbd.stats().total_rpcs();
    let before = rpcs();
    for path in ["/", "/myjobs", "/jobperf", "/clusterstatus"] {
        let req = Request::new(Method::Get, path).with_header("X-Remote-User", &user);
        assert_eq!(site.dashboard.handle(&req).status, 200, "{path}");
    }
    assert_eq!(rpcs(), before, "a shell waited on a daemon");
}

#[test]
fn f4a_job_performance_metrics_page() {
    let l = live();
    let payload = l.json("/api/jobmetrics?range=all");
    let html = pages::jobperf::render_full("Anvil", &l.user, &payload);
    assert!(html.contains("metric-card"));
    assert!(html.contains("Total jobs"));
    assert!(html.contains("Average queue wait"));
}

#[test]
fn f4b_cluster_status_grid_and_list() {
    let l = live();
    let payload = l.json("/api/clusterstatus");
    let html = pages::clusterstatus::render_full("Anvil", &l.user, &payload);
    assert!(html.contains("node-grid"));
    assert!(html.contains("node-table"));
    // Grid has one cell per node (5 in the small scenario).
    assert_eq!(html.matches("node-cell").count(), 5);
    // Search filter works on the list view.
    let gpu_only = pages::clusterstatus::render_list(&payload, Some("gpu"));
    assert!(gpu_only.contains("g001"));
    assert!(!gpu_only.contains(">a001<"));
}

#[test]
fn f4c_node_overview_page() {
    let l = live();
    let payload = l.json("/api/nodes/g001");
    let html = pages::nodeoverview::render_full("Anvil", &l.user, &payload);
    assert!(html.contains("Node g001"));
    assert!(html.contains("Resource usage"));
    assert!(html.contains("kv-table"));
}

#[test]
fn f4d_job_overview_page_with_logs() {
    // Use an idle cluster so the injected job starts immediately (a busy
    // cluster would leave it pending with empty logs).
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let user = site.scenario.population.users[0].clone();
    let l = Live {
        base: server.base_url(),
        _server: server,
        client: HttpClient::new(),
        site,
        user,
    };
    let account = l.site.scenario.population.accounts_of(&l.user)[0].clone();
    let mut req = JobRequest::simple(&l.user, &account, "cpu", 2);
    req.comment = Some(format!("ood:jupyter:sessX:/home/{}/ondemand", l.user));
    req.usage = UsageProfile::interactive(1_200);
    let id = l.site.scenario.ctld.submit(req).unwrap()[0];
    l.site.scenario.ctld.tick();
    l.site.scenario.clock.advance(120);
    l.site.scenario.ctld.tick();

    let payload = l.json(&format!("/api/jobs/{id}"));
    let stdout = l.json(&format!("/api/jobs/{id}/logs?stream=out"));
    let html = pages::joboverview::render_full("Anvil", &l.user, &payload, Some(&stdout), None);
    assert!(html.contains(&format!("Job {id}")));
    assert!(html.contains("timeline"));
    assert!(html.contains("Job Information"));
    assert!(html.contains("Launch jupyter"), "session tab for OOD job");
    assert!(html.contains("lineno"), "line-numbered log view");
}
