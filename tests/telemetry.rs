//! The telemetry subsystem end to end: collector-backed sparklines on the
//! job pages, collector-backed GPU efficiency behind the feature flag,
//! privacy filtering on the telemetry routes, the compression of collector
//! output, and the core regression guarantee — telemetry never touches the
//! slurmctld state mutex.

use hpcdash::SimSite;
use hpcdash_core::pages;
use hpcdash_core::DashboardConfig;
use hpcdash_http::HttpClient;
use hpcdash_simtime::Clock;
use hpcdash_slurm::job::{JobId, JobRequest, PlannedOutcome, UsageProfile};
use hpcdash_telemetry::{keys, RetentionPolicy};
use hpcdash_workload::ScenarioConfig;

struct Site {
    _server_keepalive: hpcdash_http::Server,
    base: String,
    client: HttpClient,
    site: SimSite,
}

fn build() -> Site {
    build_with(DashboardConfig::purdue_like())
}

fn build_with(cfg: DashboardConfig) -> Site {
    let site = SimSite::build_with(ScenarioConfig::small(), cfg);
    let server = site.serve().unwrap();
    Site {
        base: server.base_url(),
        _server_keepalive: server,
        client: HttpClient::new(),
        site,
    }
}

impl Site {
    fn get(&self, path: &str, user: &str) -> hpcdash_http::ClientResponse {
        self.client
            .get(&format!("{}{path}", self.base), &[("X-Remote-User", user)])
            .unwrap()
    }

    fn json(&self, path: &str, user: &str) -> serde_json::Value {
        let resp = self.get(path, user);
        assert_eq!(resp.status, 200, "{path}: {}", resp.body_string());
        resp.json().unwrap()
    }

    /// Submit a long job on an idle cluster (so it starts immediately) and
    /// run `ticks` 30s steps with per-tick telemetry collection.
    fn run_job(&self, req: JobRequest, ticks: u32) -> String {
        let ids = self.site.scenario.ctld.submit(req).unwrap();
        self.site.scenario.ctld.tick();
        for _ in 0..ticks {
            self.site.scenario.clock.advance(30);
            self.site.scenario.ctld.tick();
            self.site.scenario.telemetry.collect_now();
        }
        ids[0].to_string()
    }

    fn long_job(&self, user: &str, partition: &str, cpus: u32) -> JobRequest {
        let account = self.site.scenario.population.accounts_of(user)[0].clone();
        let mut req = JobRequest::simple(user, &account, partition, cpus);
        req.usage = UsageProfile {
            cpu_util: 0.72,
            mem_util: 0.6,
            gpu_util: 0.0,
            planned_runtime_secs: 24 * 3_600,
            outcome: PlannedOutcome::Success,
        };
        req
    }

    fn user(&self) -> String {
        self.site.scenario.population.users[0].clone()
    }

    fn two_users_different_accounts(&self) -> (String, String) {
        let pop = &self.site.scenario.population;
        let a = pop.users[0].clone();
        let a_accounts = pop.accounts_of(&a);
        let b = pop
            .users
            .iter()
            .find(|u| {
                let accs = pop.accounts_of(u);
                !accs.iter().any(|acc| a_accounts.contains(acc))
            })
            .expect("population has disjoint users")
            .clone();
        (a, b)
    }
}

/// The PR's core regression guarantee: collection reads epoch-published
/// snapshots and queries never leave the daemon's own store, so telemetry
/// acquires the slurmctld state mutex exactly zero times — even while the
/// dashboard serves the telemetry routes over HTTP.
#[test]
fn telemetry_never_acquires_the_state_mutex() {
    let s = build();
    let user = s.user();
    s.run_job(s.long_job(&user, "cpu", 4), 10);

    s.site.scenario.ctld.stats().reset();
    for _ in 0..20 {
        s.site.scenario.telemetry.collect_now();
    }
    let now = s.site.scenario.clock.now().as_secs() as i64;
    for node in s.site.scenario.ctld.query_nodes().iter() {
        let _ = s.site.scenario.telemetry.query_range(
            &keys::node_cpu(&node.name),
            now - 3_600,
            now,
            60,
        );
    }
    assert_eq!(s.get("/api/jobtelemetry", &user).status, 200);
    assert_eq!(
        s.site.scenario.ctld.stats().state_lock_count(),
        0,
        "telemetry collection, range queries, and the live route must not \
         touch the slurmctld state mutex"
    );
}

/// Sealed chunks of real collector output compress at least 4x against the
/// raw encoding of 16 bytes per sample (an i64 timestamp and an f64 value).
#[test]
fn collector_output_compresses_at_least_4x() {
    let site = SimSite::build(ScenarioConfig::small());
    // 70 minutes of 30 s collection seals one 128-sample chunk per
    // long-lived series; the 2 h raw retention has expired none of them.
    site.warm_up(70 * 60);
    let stats = site.scenario.telemetry.store().stats();
    assert_eq!(stats.samples_rejected, 0, "collectors emit in order");
    assert!(stats.chunks_sealed > 0, "no chunk sealed: {stats:?}");
    let raw_bytes = stats.chunks_sealed * RetentionPolicy::default().chunk_samples as u64 * 16;
    let ratio = raw_bytes as f64 / stats.compressed_bytes as f64;
    assert!(
        ratio >= 4.0,
        "{} sealed chunks: {raw_bytes} raw bytes -> {} compressed ({ratio:.1}x)",
        stats.chunks_sealed,
        stats.compressed_bytes
    );
}

/// Both job pages carry sparklines rendered from real collector series.
#[test]
fn job_pages_render_sparklines_from_collector_series() {
    let s = build();
    let user = s.user();
    let id = s.run_job(s.long_job(&user, "cpu", 4), 20);

    // Job Overview: the payload embeds the full-lifetime series...
    let overview = s.json(&format!("/api/jobs/{id}"), &user);
    let cpu = overview["telemetry"]["cpu"].as_array().unwrap();
    assert_eq!(cpu.len(), 20, "one point per collected tick");
    // ...and the page turns them into accessible inline SVGs.
    let overview = overview.to_string();
    let html = pages::joboverview::render_full("Anvil", &user, overview.as_bytes(), None, None);
    assert!(
        html.contains("class=\"sparkline spark-cpu\""),
        "cpu sparkline"
    );
    assert!(
        html.contains("class=\"sparkline spark-mem\""),
        "mem sparkline"
    );
    assert!(html.contains("aria-label"), "sparklines carry a text label");

    // Job Performance Metrics: the live strip lists the running job with
    // its recent series.
    let metrics = s.json("/api/jobmetrics?range=all", &user);
    let live = metrics["live_jobs"]["jobs"].as_array().unwrap();
    assert!(
        live.iter().any(|j| j["id"] == id.as_str()),
        "running job appears in the live strip: {live:?}"
    );
    let html = pages::jobperf::render_full("Anvil", &user, metrics.to_string().as_bytes());
    assert!(html.contains("Running now"), "live strip heading");
    assert!(
        html.contains("class=\"sparkline spark-cpu\""),
        "live sparkline"
    );

    // The dedicated route serves the same series standalone.
    let tele = s.json(&format!("/api/jobs/{id}/telemetry"), &user);
    assert_eq!(tele["telemetry"]["cpu"].as_array().unwrap().len(), 20);
}

/// The sampled series converge on the same utilization `sacct` accounting
/// reports — the jitter is zero-mean around the job's profile.
#[test]
fn collector_series_agree_with_accounting_profile() {
    let s = build();
    let user = s.user();
    let req = s.long_job(&user, "cpu", 4); // cpu_util 0.72
    let id: u32 = s.run_job(req, 40).parse().unwrap();

    let now = s.site.scenario.clock.now().as_secs() as i64;
    let series = keys::job_cpu(JobId(id));
    let mean = s
        .site
        .scenario
        .telemetry
        .store()
        .series_mean(&series, 0, now + 1)
        .expect("job series exists");
    assert!(
        (mean - 0.72).abs() < 0.05,
        "series mean {mean} should track the profile's 0.72 cpu_util"
    );
}

/// With the `gpu_efficiency` flag on, the efficiency report's GPU figure
/// comes from the collector's measured series — not the finished-job CPU
/// approximation — so it is live and tracks the real GPU profile.
#[test]
fn gpu_efficiency_is_collector_backed_when_flag_is_on() {
    let s = build(); // purdue_like: gpu_efficiency on
    let user = s.user();
    let mut req = s.long_job(&user, "gpu", 8);
    req.gpus_per_node = 2;
    req.usage.cpu_util = 0.9;
    req.usage.gpu_util = 0.35; // far from the cpu*0.9 = 0.81 approximation
    let id = s.run_job(req, 20);

    let overview = s.json(&format!("/api/jobs/{id}"), &user);
    // In per mille.
    let gpu = overview["cards"]["efficiency"]["gpu"]
        .as_u64()
        .expect("running gpu job has collector-backed efficiency");
    assert!(
        gpu.abs_diff(350) < 50,
        "gpu efficiency {gpu} should track the measured 0.35 utilization, \
         not the 0.81 cpu approximation"
    );
}

/// With the flag off, no GPU figure is reported at all.
#[test]
fn gpu_efficiency_flag_off_reports_nothing() {
    let s = build_with(DashboardConfig::generic("Anvil"));
    let user = s.user();
    let mut req = s.long_job(&user, "gpu", 8);
    req.gpus_per_node = 2;
    req.usage.gpu_util = 0.35;
    let id = s.run_job(req, 10);

    let overview = s.json(&format!("/api/jobs/{id}"), &user);
    assert!(
        overview["cards"]["efficiency"]["gpu"].is_null(),
        "flag off: {}",
        overview["cards"]["efficiency"]
    );
}

/// Telemetry routes apply the same ownership filtering as the job routes
/// they decorate.
#[test]
fn telemetry_routes_are_privacy_filtered() {
    let s = build();
    let (a, b) = s.two_users_different_accounts();
    let id = s.run_job(s.long_job(&a, "cpu", 2), 4);

    assert_eq!(s.get(&format!("/api/jobs/{id}/telemetry"), &a).status, 200);
    assert_eq!(
        s.get(&format!("/api/jobs/{id}/telemetry"), &b).status,
        403,
        "another group's job series are forbidden"
    );
    let live_b = s.json("/api/jobtelemetry", &b);
    assert!(
        live_b["jobs"].as_array().unwrap().is_empty(),
        "live strip only lists the caller's own jobs"
    );
}
