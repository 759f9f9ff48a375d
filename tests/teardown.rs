//! A dropped site frees what it built. Owners point down (site →
//! `Dashboard` → context → daemons); every edge back up is a `Weak`, so
//! once a campus `SimSite` or a quad `FedSite` and its `Server` are gone,
//! the controller, accounting and telemetry daemons, the push hub and the
//! metrics registry are gone too, and the live heap is back where it was
//! before the site was built.
//!
//! Each site is warmed up, served and used the way a portal is: every GET
//! route and page, a live `/api/updates/stream` tab, a minted token reading
//! `/slurm/v0/jobs`, and a controller crash with its recovery.
//!
//! Alone in its binary, with one test: it reads the process-wide live-byte
//! count, which any other test's threads would move.

use hpcdash::client::LiveSubscriber;
use hpcdash::core::{Dashboard, DashboardContext};
use hpcdash::http::{HttpClient, Method};
use hpcdash::push::Hub;
use hpcdash::simtime::{Clock, Timestamp};
use hpcdash::slurm::ctld::Slurmctld;
use hpcdash::slurm::dbd::Slurmdbd;
use hpcdash::telemetry::TelemetryD;
use hpcdash::workload::{FederationConfig, Scenario, ScenarioConfig};
use hpcdash::{FedSite, SimSite};
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_obs::Registry;
use hpcdash_testkit::{live_bytes, CountingAlloc};
use serde_json::json;
use std::sync::{Arc, Weak};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// How far above its starting point the live heap may end: room for the
/// process-wide lazies a first request initializes, far below one site.
const SLACK_BYTES: isize = 256 * 1024;

/// Non-owning handles to what a site built below its dashboard.
struct Built {
    ctld: Vec<Weak<Slurmctld>>,
    dbd: Vec<Weak<Slurmdbd>>,
    telemetry: Vec<Weak<TelemetryD>>,
    hub: Weak<Hub>,
    registry: Weak<Registry>,
}

impl Built {
    fn of(sites: &[Scenario], ctx: &DashboardContext) -> Built {
        Built {
            ctld: sites.iter().map(|s| Arc::downgrade(&s.ctld)).collect(),
            dbd: sites.iter().map(|s| Arc::downgrade(&s.dbd)).collect(),
            telemetry: sites.iter().map(|s| Arc::downgrade(&s.telemetry)).collect(),
            hub: Arc::downgrade(&ctx.push),
            registry: Arc::downgrade(&ctx.obs),
        }
    }

    fn assert_dropped(self, site: &str) {
        fn strong<T>(handles: &[Weak<T>]) -> Vec<usize> {
            handles.iter().map(Weak::strong_count).collect()
        }
        for (what, strong) in [
            ("slurmctld", strong(&self.ctld)),
            ("slurmdbd", strong(&self.dbd)),
            ("telemetryd", strong(&self.telemetry)),
            ("push hub", vec![self.hub.strong_count()]),
            ("registry", vec![self.registry.strong_count()]),
        ] {
            assert!(
                strong.iter().all(|&n| n == 0),
                "{site}: {what} still owned after drop (strong counts {strong:?})"
            );
        }
    }
}

/// Serve `dashboard` and use every part of it, moving the home cluster
/// with `advance` between steps; the server is dropped on return.
fn exercise(dashboard: &Dashboard, home: &Scenario, advance: &mut dyn FnMut(u64)) {
    let server = dashboard.serve("127.0.0.1:0", 2).expect("bind");
    let base = server.base_url();
    let client = HttpClient::new();
    let snapshot = home.ctld.snapshot();
    let job = snapshot
        .jobs
        .first()
        .expect("warm-up submitted jobs")
        .clone();
    let user = job.req.user.clone();
    let node = snapshot.nodes[0].name.clone();
    let cluster = home.config.cluster_name.clone();
    let account = job.req.account.clone();
    drop(snapshot);

    let tab = LiveSubscriber::new(&base, &user, "teardown", home.clock.shared());
    tab.poll(0).expect("subscribe the live tab");

    let fetch_every_route = |when: &str| {
        for (method, pattern) in dashboard.router().route_patterns() {
            if method != Method::Get {
                continue;
            }
            let path = pattern
                .replace(":id", &job.id.0.to_string())
                .replace(":name", &node)
                .replace(":cluster", &cluster)
                .replace(":account", &account);
            for viewer in [user.as_str(), "root"] {
                let resp = client
                    .get(&format!("{base}{path}"), &[("X-Remote-User", viewer)])
                    .expect("GET over the socket");
                assert!(
                    resp.status != 500,
                    "{when}: GET {path} as {viewer} answered {}",
                    resp.status
                );
            }
        }
    };
    fetch_every_route("warm");

    let minted = client
        .post(
            &format!("{base}/slurm/v0/admin/tokens"),
            &[("X-Remote-User", "root")],
            json!({ "subject": user, "scopes": ["read-own-jobs"] })
                .to_string()
                .into_bytes(),
        )
        .expect("mint");
    assert_eq!(minted.status, 200, "mint a token");
    let secret = minted.json().expect("mint body")["secret"]
        .as_str()
        .expect("one-time secret")
        .to_string();
    let jobs = client
        .get(
            &format!("{base}/slurm/v0/jobs"),
            &[("Authorization", &format!("Bearer {secret}"))],
        )
        .expect("GET /slurm/v0/jobs");
    assert_eq!(jobs.status, 200, "the bearer reads its jobs");

    advance(300);
    tab.poll(20).expect("the live tab streams");

    // Crash the controller at the next 30 s tick; the first tick past its
    // downtime recovers it.
    let now = home.clock.now().0;
    let crash = FaultRule::crash("slurmctld", 120).during(Timestamp(now + 1), Timestamp(now + 31));
    home.ctld.faults().install(
        Arc::new(FaultPlan::new(0x7ea2).rule(crash)),
        home.clock.shared(),
    );
    advance(60);
    assert!(home.ctld.is_down(), "the controller crashed");
    fetch_every_route("down");
    advance(180);
    assert_eq!(home.ctld.restart_count(), 1, "the controller recovered");
    fetch_every_route("recovered");
    tab.poll(0).expect("the live tab resyncs");
}

#[test]
fn a_dropped_site_frees_what_it_built() {
    let baseline = live_bytes();

    let (campus, campus_held) = {
        let mut cfg = ScenarioConfig::campus();
        cfg.free_daemons = true;
        let site = SimSite::build(cfg);
        let mut driver = site.warm_up(1_800);
        exercise(&site.dashboard, &site.scenario, &mut |secs| {
            driver.advance(secs)
        });
        let held = live_bytes() - baseline;
        (
            Built::of(std::slice::from_ref(&site.scenario), site.ctx()),
            held,
        )
    };
    campus.assert_dropped("campus SimSite");
    let after_campus = live_bytes() - baseline;

    let (quad, quad_held) = {
        let site = FedSite::build(FederationConfig::quad(7));
        let mut driver = site.warm_up(1_800);
        exercise(&site.dashboard, &site.federation.sites[0], &mut |secs| {
            driver.advance(secs)
        });
        let held = live_bytes() - baseline;
        (Built::of(&site.federation.sites, site.ctx()), held)
    };
    quad.assert_dropped("quad FedSite");
    let after_quad = live_bytes() - baseline;

    eprintln!(
        "live heap above baseline: campus {campus_held} B held, {after_campus} B after drop; \
         quad {quad_held} B held, {after_quad} B after drop"
    );
    // The counter moves: a served site holds megabytes.
    assert!(campus_held > 1 << 20 && quad_held > 1 << 20);
    assert!(
        after_campus <= SLACK_BYTES,
        "the campus SimSite left {after_campus} B live"
    );
    assert!(
        after_quad <= SLACK_BYTES,
        "the quad FedSite left {after_quad} B live"
    );
}
