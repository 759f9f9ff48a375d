//! The four workloads and the simulated site each one runs against.
//!
//! Only the stable seams are named here: `SimSite`/`FedSite`,
//! `ScenarioConfig`/`FederationConfig`, `DashboardConfig`/`CachePolicy`,
//! `Dashboard::{serve, handle}` and the drivers' `advance`.

use crate::schedule::{Consumer, Plan, Schedule};
use hpcdash::core::{CachePolicy, Dashboard, DashboardConfig, DashboardContext};
use hpcdash::http::{Method, ParseStatus, Request, Response, Server};
use hpcdash::workload::{FederationConfig, FederationDriver, Scenario, ScenarioConfig, SimDriver};
use hpcdash::{FedSite, SimSite};
use std::net::SocketAddr;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Four federated sites behind one portal, polled by token holders.
    pub fed: bool,
    /// One 30 s scheduler tick between rounds.
    pub ticks: bool,
    /// `CachePolicy::disabled()`: the paper's no-cache ablation.
    pub uncached: bool,
    /// Measured rounds of a `CALIBRATED_SECONDS` run: fixed work, so counts
    /// and digests repeat exactly. Calibrated once, on the commit that added
    /// the benchmark, to fill about 70 % of that budget on two cores, then
    /// frozen. `portal_live` gets fewer: its cost per round grows with its
    /// never-evicted cache entries (4 ms per My Jobs fill at round 10, 9 ms
    /// at round 120) and so does its memory, 8 MB per round.
    pub rounds: u64,
}

/// The `--seconds` the frozen round counts belong to (`run_seconds` in
/// `BENCHMARK.json`). Another `--seconds` scales the rounds in proportion.
pub const CALIBRATED_SECONDS: f64 = 10.0;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "portal_warm",
        why: "Frozen clock, default caches: every request is a 304, a render-bytes hit or a widget-cache hit, so the http fixed cost and the caches' hit path do all the work.",
        fed: false,
        ticks: false,
        uncached: false,
        rounds: 240,
    },
    Workload {
        name: "portal_live",
        why: "One scheduler tick between rounds: caches are filled, expired and purged as well as hit, so cheaper hits bought with dearer fills or invalidation show here.",
        fed: false,
        ticks: true,
        uncached: false,
        rounds: 50,
    },
    Workload {
        name: "portal_cold",
        why: "CachePolicy::disabled(): every request renders command text, parses it, builds and serializes the payload; slurmcli, slurm and core do the work and every cache is bypassed.",
        fed: false,
        ticks: false,
        uncached: true,
        rounds: 140,
    },
    Workload {
        name: "rest_fed",
        why: "Token holders poll /slurm/v0 and the federation aggregates of four sites while they tick: the snapshot-to-serializer read path, with no command text at all.",
        fed: true,
        ticks: true,
        uncached: false,
        rounds: 170,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of the simulated cluster(s): job trace, storage drift, fault-free.
/// Fixed, because a site whose users own more or fewer jobs is another
/// workload, not another sample of this one — across scenario seeds
/// `visit_p99_ms` on `portal_live` ranged from 9.6 to 20.3 ms.
const SCENARIO_SEED: u64 = 42;

/// Simulated seconds of cluster traffic before the dashboard is measured.
const WARM_UP_SECS: u64 = 4 * 3_600;
/// One scheduler tick.
pub const TICK_SECS: u64 = 30;
/// Future traffic preloaded for the between-round ticks (ten simulated days
/// outlast any run the 180 s cap allows).
const DRIVE_WINDOW_SECS: u64 = 10 * 86_400;

// One `World` exists per process: the size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum World {
    Portal {
        site: SimSite,
        driver: SimDriver,
    },
    Fed {
        site: FedSite,
        driver: FederationDriver,
    },
}

pub struct Site {
    pub workload: &'static Workload,
    world: World,
    server: Server,
}

impl Site {
    /// Set-up as `setup_s` times it: build the site, run four simulated
    /// hours of traffic, start serving. The site is the same on every run
    /// (`SCENARIO_SEED`): it is the data the program serves, and `--seed`
    /// varies the requests made against it. Daemons are free on purpose —
    /// `RpcCostModel::burn` is a busy-spin that would bill simulated Slurm
    /// cost to the two cores the measurement shares; daemon load is reported
    /// as a count instead.
    pub fn set_up(workload: &'static Workload) -> Site {
        let mut dash = DashboardConfig::purdue_like();
        if workload.uncached {
            dash.cache = CachePolicy::disabled();
        }
        let world = if workload.fed {
            let site = FedSite::build_with(FederationConfig::quad(SCENARIO_SEED), dash);
            site.warm_up(WARM_UP_SECS);
            let driver = site.federation.driver(DRIVE_WINDOW_SECS);
            World::Fed { site, driver }
        } else {
            let mut cfg = ScenarioConfig::campus();
            cfg.free_daemons = true;
            cfg.seed = SCENARIO_SEED;
            let site = SimSite::build_with(cfg, dash);
            site.warm_up(WARM_UP_SECS);
            let driver = site.driver(DRIVE_WINDOW_SECS);
            World::Portal { site, driver }
        };
        let server = match &world {
            World::Portal { site, .. } => site.serve(),
            World::Fed { site, .. } => site.serve(),
        }
        .expect("bind the dashboard on 127.0.0.1:0");
        Site {
            workload,
            world,
            server,
        }
    }

    pub fn dashboard(&self) -> &Dashboard {
        match &self.world {
            World::Portal { site, .. } => &site.dashboard,
            World::Fed { site, .. } => &site.dashboard,
        }
    }

    pub fn ctx(&self) -> &DashboardContext {
        self.dashboard().ctx()
    }

    /// Every simulated cluster, the portal's home cluster first.
    pub fn scenarios(&self) -> &[Scenario] {
        match &self.world {
            World::Portal { site, .. } => std::slice::from_ref(&site.scenario),
            World::Fed { site, .. } => &site.federation.sites,
        }
    }

    pub fn portal(&self) -> &Scenario {
        &self.scenarios()[0]
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Advance the simulation (arrivals, completions, a new snapshot epoch,
    /// a telemetry collect per tick).
    pub fn advance(&mut self, secs: u64) {
        match &mut self.world {
            World::Portal { driver, .. } => driver.advance(secs),
            World::Fed { driver, .. } => driver.advance(secs),
        }
    }

    /// In-process dispatch of the exact bytes the socket client sends.
    pub fn handle_bytes(&self, request: &[u8]) -> Response {
        self.dashboard().handle(&parse(request))
    }

    /// In-process GET with a consumer's identity headers.
    pub fn get(&self, path: &str, auth: &str) -> Response {
        let mut bytes = Vec::new();
        crate::client::render_request(&mut bytes, path, auth, None);
        self.handle_bytes(&bytes)
    }

    /// Who loads pages on this workload, and from which plan. Runs after
    /// set-up and outside its timing: job ids come from the program's own
    /// My Jobs payload, tokens from its own admin route.
    pub fn schedule(&self, seed: u64) -> Schedule {
        let portal = self.portal();
        let mut consumers: Vec<Consumer> = portal
            .population
            .users
            .iter()
            .map(|user| Consumer {
                name: user.clone(),
                auth: format!("X-Remote-User: {user}\r\n"),
                admin: false,
                accounts: portal.population.accounts_of(user),
                jobs: Vec::new(),
            })
            .collect();
        if !self.workload.fed {
            for c in &mut consumers {
                c.jobs = self.openable_jobs(&c.name, &c.auth);
            }
            let nodes = portal
                .ctld
                .snapshot()
                .nodes
                .iter()
                .map(|n| n.name.clone())
                .collect();
            return Schedule {
                seed,
                plan: Plan::Portal { nodes },
                consumers,
            };
        }
        consumers.push(Consumer {
            name: "root".to_string(),
            auth: "X-Remote-User: root\r\n".to_string(),
            admin: true,
            ..Consumer::default()
        });
        for c in &mut consumers {
            let scope = if c.admin {
                "read-cluster"
            } else {
                "read-own-jobs"
            };
            let secret = self.mint(&c.name, scope);
            c.auth
                .push_str(&format!("Authorization: Bearer {secret}\r\n"));
        }
        let clusters = self
            .scenarios()
            .iter()
            .map(|s| s.config.cluster_name.clone())
            .collect();
        Schedule {
            seed,
            plan: Plan::Fed { clusters },
            consumers,
        }
    }

    /// Up to eight of the user's own listed jobs whose overview and logs
    /// both answer 200. A job page is only ever opened from the job table,
    /// and logs are readable by the submitting user alone, so a group
    /// member's job would answer 403 once it has output.
    fn openable_jobs(&self, user: &str, auth: &str) -> Vec<String> {
        let listing = self.get("/api/myjobs", auth);
        let body = listing.body_json().unwrap_or_default();
        let empty = Vec::new();
        body["jobs"]
            .as_array()
            .unwrap_or(&empty)
            .iter()
            .filter(|j| j["user"].as_str() == Some(user))
            .filter_map(|j| j["id"].as_str())
            .filter(|id| {
                self.get(&format!("/api/jobs/{id}"), auth).status == 200
                    && self.get(&format!("/api/jobs/{id}/logs"), auth).status == 200
            })
            .take(8)
            .map(str::to_string)
            .collect()
    }

    /// `POST /slurm/v0/admin/tokens` as root; returns the one-time secret.
    pub fn mint(&self, subject: &str, scope: &str) -> String {
        let mut req = Request::new(Method::Post, "/slurm/v0/admin/tokens")
            .with_header("X-Remote-User", "root");
        req.body = serde_json::json!({"subject": subject, "scopes": [scope]})
            .to_string()
            .into_bytes();
        let resp = self.dashboard().handle(&req);
        assert_eq!(
            resp.status,
            200,
            "minting {scope} for {subject}: {}",
            resp.body_string()
        );
        resp.body_json().expect("mint reply is JSON")["secret"]
            .as_str()
            .expect("mint reply carries the secret")
            .to_string()
    }
}

/// Parse generator bytes the way the reactor does.
pub fn parse(request: &[u8]) -> Request {
    match Request::parse_buf(request) {
        ParseStatus::Complete { req, .. } => req,
        other => panic!("generator bytes must parse as one request: {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_descriptions_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(
                w.rounds as usize * 40 >= 1_000,
                "{}: p99 wants 1 000 visits",
                w.name
            );
            assert_eq!(workload(w.name).map(|x| x.name), Some(w.name));
        }
    }
}
