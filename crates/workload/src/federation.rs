//! Multi-site scenario assembly: N heterogeneous clusters sharing one
//! simulated timeline, registered into a federation registry.
//!
//! Each site keeps its own `SimClock` instance (so `Scenario::build` stays
//! untouched), but the config normalizes every site's start to the first
//! site's, and [`FederationDriver`] advances all sites in lockstep, so the
//! clocks agree tick for tick. The registry borrows the first site's clock
//! for fan-out timestamps.

use crate::scenario::{Scenario, ScenarioConfig};
use crate::SimDriver;
use hpcdash_faults::FaultPlan;
use hpcdash_federation::ClusterRegistry;
use std::sync::Arc;

/// A federation of site scenarios. Site order is significant: the first
/// site's clock drives the registry, and per-site seeds should differ so
/// traffic is heterogeneous.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    pub sites: Vec<ScenarioConfig>,
}

impl FederationConfig {
    /// Federate explicit site configs, normalizing every start instant to
    /// the first site's so the lockstep clocks agree.
    pub fn new(mut sites: Vec<ScenarioConfig>) -> FederationConfig {
        assert!(!sites.is_empty(), "a federation needs at least one site");
        let start = sites[0].start;
        for site in &mut sites[1..] {
            site.start = start;
        }
        FederationConfig { sites }
    }

    /// The stock 4-site heterogeneous federation used by the chaos tests
    /// and the benchmark's `rest_fed`: different sizes, partitions (one site has no
    /// GPU partition), populations, arrival rates, and seeds.
    pub fn quad(seed: u64) -> FederationConfig {
        FederationConfig::new(vec![
            ScenarioConfig::named("alpha")
                .cpu(16, 64, 128_000)
                .gpu(2, 64, 256_000, 4)
                .accounts(4, 2, 4)
                .arrivals_per_hour(40.0)
                .seed(seed),
            ScenarioConfig::named("beta")
                .cpu(8, 128, 257_000)
                .gpu(0, 0, 0, 0)
                .accounts(3, 2, 3)
                .arrivals_per_hour(30.0)
                .seed(seed + 1),
            ScenarioConfig::named("gamma")
                .cpu(24, 32, 96_000)
                .gpu(4, 48, 384_000, 4)
                .accounts(5, 2, 5)
                .diurnal()
                .seed(seed + 2),
            ScenarioConfig::named("delta")
                .cpu(4, 16, 64_000)
                .gpu(1, 32, 256_000, 4)
                .accounts(2, 1, 2)
                .arrivals_per_hour(20.0)
                .seed(seed + 3),
        ])
    }

    /// Arm a fault script on the named site (panics if absent) — the
    /// blackout hook for federated chaos runs.
    pub fn fault_site(mut self, cluster: &str, plan: FaultPlan) -> FederationConfig {
        let site = self
            .sites
            .iter_mut()
            .find(|s| s.cluster_name == cluster)
            .unwrap_or_else(|| panic!("no site named {cluster:?} in federation"));
        site.faults = Some(plan);
        self
    }

    /// Build every site and register them all.
    pub fn build(self) -> FederatedScenario {
        let sites: Vec<Scenario> = self.sites.into_iter().map(Scenario::build).collect();
        let mut registry = ClusterRegistry::new(sites[0].clock.shared());
        for site in &sites {
            registry.register(site.ctld.clone());
        }
        FederatedScenario {
            sites,
            registry: Arc::new(registry),
        }
    }
}

/// N fully assembled sites plus the registry that federates them.
pub struct FederatedScenario {
    pub sites: Vec<Scenario>,
    pub registry: Arc<ClusterRegistry>,
}

impl FederatedScenario {
    pub fn site(&self, cluster: &str) -> Option<&Scenario> {
        self.sites.iter().find(|s| s.config.cluster_name == cluster)
    }

    /// A lockstep driver preloaded with `window_secs` of traffic per site.
    pub fn driver(&self, window_secs: u64) -> FederationDriver {
        FederationDriver {
            drivers: self.sites.iter().map(|s| s.driver(window_secs)).collect(),
        }
    }
}

/// Advances every site's driver in lockstep so the per-site clocks stay in
/// agreement (they were normalized to one start instant at config time).
pub struct FederationDriver {
    drivers: Vec<SimDriver>,
}

impl FederationDriver {
    /// Advance every site by `secs` of simulated time.
    pub fn advance(&mut self, secs: u64) {
        for driver in &mut self.drivers {
            driver.advance(secs);
        }
    }

    /// Total jobs submitted across all sites so far.
    pub fn submitted(&self) -> usize {
        self.drivers.iter().map(|d| d.submitted().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_cache::breaker::{BreakerBoard, BreakerConfig};
    use hpcdash_simtime::Clock;

    #[test]
    fn quad_builds_heterogeneous_sites_on_one_timeline() {
        let fed = FederationConfig::quad(7).build();
        assert_eq!(fed.registry.len(), 4);
        assert_eq!(fed.registry.names(), ["alpha", "beta", "gamma", "delta"]);
        // Heterogeneous: beta is CPU-only, the others have a gpu partition.
        assert_eq!(fed.site("beta").unwrap().ctld.query_partitions().len(), 1);
        assert_eq!(fed.site("alpha").unwrap().ctld.query_partitions().len(), 2);
        // One timeline: every site clock reads the same instant.
        let t0 = fed.sites[0].clock.now();
        assert!(fed.sites.iter().all(|s| s.clock.now() == t0));
    }

    #[test]
    fn lockstep_driver_keeps_clocks_agreeing_and_populates_sites() {
        let fed = FederationConfig::quad(11).build();
        let mut driver = fed.driver(3_600);
        driver.advance(1_800);
        let t = fed.sites[0].clock.now();
        assert!(fed.sites.iter().all(|s| s.clock.now() == t));
        assert!(driver.submitted() > 0);
        // The merged view sees jobs from more than one cluster.
        let breakers = BreakerBoard::new(fed.sites[0].clock.shared(), BreakerConfig::default());
        let snap = fed.registry.snapshot(&breakers);
        assert_eq!(snap.live_sites(), 4);
        let clusters: std::collections::HashSet<String> = snap
            .jobs()
            .map(|(site, _)| site.cluster.to_string())
            .collect();
        assert!(
            clusters.len() >= 2,
            "expected jobs on multiple sites, got {clusters:?}"
        );
    }

    #[test]
    fn fault_site_arms_only_the_named_site() {
        use hpcdash_faults::FaultRule;
        let plan = FaultPlan::new(3).rule(FaultRule::error("slurmctld", "*", "dark"));
        let fed = FederationConfig::quad(5).fault_site("gamma", plan).build();
        assert!(fed.site("gamma").unwrap().ctld.faults().is_armed());
        assert!(!fed.site("alpha").unwrap().ctld.faults().is_armed());
    }
}
