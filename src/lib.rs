//! `hpcdash` — a modular, responsive HPC dashboard in Rust, with a full
//! Slurm-simulator substrate.
//!
//! This umbrella crate re-exports the workspace and provides [`SimSite`],
//! the one-call assembly of a simulated site (cluster + daemons + services
//! + workload) with the dashboard mounted on top.
//!
//! Examples, integration tests and the benchmark all start here:
//!
//! ```
//! use hpcdash::SimSite;
//! use hpcdash_workload::ScenarioConfig;
//!
//! let site = SimSite::build(ScenarioConfig::small());
//! site.warm_up(1_800); // half an hour of simulated traffic
//! let server = site.serve().unwrap();
//! let user = site.scenario.population.users[0].clone();
//! let client = site.browser(&server.base_url(), &user);
//! let page = client.load_homepage().unwrap();
//! assert_eq!(page.healthy_widgets(), 5);
//! ```

pub use hpcdash_cache as cache;
pub use hpcdash_client as client;
pub use hpcdash_core as core;
pub use hpcdash_federation as federation;
pub use hpcdash_http as http;
pub use hpcdash_news as news;
pub use hpcdash_push as push;
pub use hpcdash_restapi as restapi;
pub use hpcdash_simtime as simtime;
pub use hpcdash_slurm as slurm;
pub use hpcdash_slurmcli as slurmcli;
pub use hpcdash_storage as storage;
pub use hpcdash_telemetry as telemetry;
pub use hpcdash_workload as workload;

use hpcdash_client::DashboardClient;
use hpcdash_core::{Dashboard, DashboardConfig, DashboardContext};
use hpcdash_http::Server;
use hpcdash_workload::{
    FederatedScenario, FederationConfig, FederationDriver, Scenario, ScenarioConfig, SimDriver,
};

/// A fully wired simulated site: scenario + dashboard.
pub struct SimSite {
    pub scenario: Scenario,
    pub dashboard: Dashboard,
}

impl SimSite {
    /// Build with the dashboard's default (Purdue-like) configuration.
    pub fn build(scenario_cfg: ScenarioConfig) -> SimSite {
        SimSite::build_with(scenario_cfg, DashboardConfig::purdue_like())
    }

    /// Build with an explicit dashboard configuration (site migration,
    /// cache ablations).
    pub fn build_with(scenario_cfg: ScenarioConfig, dash_cfg: DashboardConfig) -> SimSite {
        let scenario = Scenario::build(scenario_cfg);
        let ctx = DashboardContext::new(
            dash_cfg,
            scenario.clock.shared(),
            scenario.ctld.clone(),
            scenario.dbd.clone(),
            scenario.logs.clone(),
            scenario.storage.clone(),
            scenario.news.clone(),
        )
        .with_telemetry(scenario.telemetry.clone());
        SimSite {
            dashboard: Dashboard::new(ctx),
            scenario,
        }
    }

    pub fn ctx(&self) -> &DashboardContext {
        self.dashboard.ctx()
    }

    /// Run `secs` of simulated cluster traffic (submissions + scheduling)
    /// before measuring anything.
    pub fn warm_up(&self, secs: u64) -> SimDriver {
        let mut driver = self.scenario.driver(secs);
        driver.advance(secs);
        driver
    }

    /// A driver preloaded with `window` seconds of future traffic, for
    /// callers that want to interleave dashboard use with cluster activity.
    pub fn driver(&self, window: u64) -> SimDriver {
        self.scenario.driver(window)
    }

    /// Serve the dashboard on an ephemeral local port.
    pub fn serve(&self) -> std::io::Result<Server> {
        self.dashboard.serve("127.0.0.1:0", 8)
    }

    /// A headless browser for `user`, sharing the site's simulated clock and
    /// using the configured client-cache freshness.
    pub fn browser(&self, base_url: &str, user: &str) -> DashboardClient {
        let fresh = self.ctx().cfg.cache.client_fresh;
        DashboardClient::new(
            base_url,
            user,
            self.scenario.clock.shared(),
            if fresh == 0 { None } else { Some(fresh) },
        )
    }
}

/// A fully wired federation: N site scenarios sharing one timeline, with
/// the dashboard portal mounted on the first site and federating all of
/// them (aggregate `/api/federation/*` routes, cluster-scoped `/slurm/v0`,
/// per-site breakers).
pub struct FedSite {
    pub federation: FederatedScenario,
    pub dashboard: Dashboard,
}

impl FedSite {
    /// Build with the dashboard's default (Purdue-like) configuration. The
    /// first site in the config is the portal's home cluster.
    pub fn build(cfg: FederationConfig) -> FedSite {
        FedSite::build_with(cfg, DashboardConfig::purdue_like())
    }

    pub fn build_with(cfg: FederationConfig, dash_cfg: DashboardConfig) -> FedSite {
        let federation = cfg.build();
        let portal = &federation.sites[0];
        let ctx = DashboardContext::new(
            dash_cfg,
            portal.clock.shared(),
            portal.ctld.clone(),
            portal.dbd.clone(),
            portal.logs.clone(),
            portal.storage.clone(),
            portal.news.clone(),
        )
        .with_telemetry(portal.telemetry.clone())
        .with_federation(federation.registry.clone());
        FedSite {
            dashboard: Dashboard::new(ctx),
            federation,
        }
    }

    pub fn ctx(&self) -> &DashboardContext {
        self.dashboard.ctx()
    }

    /// Run `secs` of traffic on every site, the sites side by side.
    pub fn warm_up(&self, secs: u64) -> FederationDriver {
        let mut driver = self.federation.driver(secs);
        driver.advance(secs);
        driver
    }

    /// Serve the portal on an ephemeral local port.
    pub fn serve(&self) -> std::io::Result<Server> {
        self.dashboard.serve("127.0.0.1:0", 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_flow() {
        let site = SimSite::build(ScenarioConfig::small());
        site.warm_up(1_200);
        let server = site.serve().unwrap();
        let user = site.scenario.population.users[0].clone();
        let client = site.browser(&server.base_url(), &user);
        let page = client.load_homepage().unwrap();
        assert_eq!(page.healthy_widgets(), 5);
    }
}
