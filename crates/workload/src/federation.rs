//! Multi-site scenario assembly: N heterogeneous clusters sharing one
//! simulated timeline, registered into a federation registry.
//!
//! Each site keeps its own `SimClock` instance (so `Scenario::build` stays
//! untouched), but the config normalizes every site's start to the first
//! site's. [`FederationDriver`] advances the sites concurrently, one site
//! per thread at a time, and returns once every site has reached the
//! target, so the clocks agree at the end of every call. The registry
//! borrows the first site's clock for fan-out timestamps.

use crate::scenario::{Scenario, ScenarioConfig};
use crate::{workers, SimDriver};
use hpcdash_faults::FaultPlan;
use hpcdash_federation::ClusterRegistry;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A federation of site scenarios. Site order is significant: the first
/// site's clock drives the registry, and per-site seeds should differ so
/// traffic is heterogeneous.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    pub sites: Vec<ScenarioConfig>,
}

impl FederationConfig {
    /// Federate explicit site configs, normalizing every start instant to
    /// the first site's so the site clocks agree.
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

    /// A driver preloaded with `window_secs` of traffic per site.
    pub fn driver(&self, window_secs: u64) -> FederationDriver {
        FederationDriver::new(self.sites.iter().map(|s| {
            let nodes = s.config.cpu_nodes + s.config.gpu_nodes;
            (nodes, s.driver(window_secs))
        }))
    }
}

/// A site's driver and its position in the federation's site order.
type Site = (usize, SimDriver);

/// Advances every site's driver to the same instant, the sites side by side
/// on the process's workers (see `workers`).
pub struct FederationDriver {
    /// Each worker's sites, the calling thread's first. Assigned once,
    /// largest site first, to the worker with the fewest nodes so far.
    shares: Vec<Vec<Site>>,
}

impl FederationDriver {
    fn new(sites: impl Iterator<Item = (usize, SimDriver)>) -> FederationDriver {
        let mut sites: Vec<(usize, Site)> = sites
            .enumerate()
            .map(|(index, (nodes, driver))| (nodes, (index, driver)))
            .collect();
        sites.sort_by_key(|&(nodes, _)| std::cmp::Reverse(nodes));
        let mut shares: Vec<Vec<Site>> = (0..workers::count()).map(|_| Vec::new()).collect();
        let mut load = vec![0; shares.len()];
        for (nodes, site) in sites {
            let worker = (0..load.len())
                .min_by_key(|&w| load[w])
                .expect("one worker");
            load[worker] += nodes;
            shares[worker].push(site);
        }
        FederationDriver { shares }
    }

    /// Advance every site by `secs` of simulated time. A panic in any
    /// site's advance is re-raised here once every site is back.
    pub fn advance(&mut self, secs: u64) {
        let (own, helped) = self.shares.split_first_mut().expect("one worker");
        let replies: Vec<_> = helped
            .iter_mut()
            .enumerate()
            .filter(|(_, share)| !share.is_empty())
            .map(|(helper, share)| {
                let mut share = std::mem::take(share);
                let (tx, rx) = mpsc::sync_channel(1);
                workers::run_on(helper, move || {
                    let first_panic = advance_share(&mut share, secs);
                    let _ = tx.send((share, first_panic));
                });
                (helper, rx)
            })
            .collect();
        let mut first_panic = advance_share(own, secs);
        for (helper, rx) in replies {
            let (share, helper_panic) = rx.recv().expect("a site worker answers every task");
            helped[helper] = share;
            first_panic = first_panic.or(helper_panic);
        }
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Wall time each site has spent advancing, in site order.
    pub fn busy(&self) -> Vec<Duration> {
        let mut busy = vec![Duration::ZERO; self.shares.iter().map(Vec::len).sum()];
        for (index, driver) in self.shares.iter().flatten() {
            busy[*index] = driver.busy();
        }
        busy
    }
}

/// Advance every site of `share`, each to the end even if another panics;
/// returns the first panic's payload.
fn advance_share(share: &mut [Site], secs: u64) -> Option<Box<dyn Any + Send>> {
    share.iter_mut().fold(None, |first, (_, driver)| {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| driver.advance(secs)));
        first.or(outcome.err())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use hpcdash_cache::breaker::{BreakerBoard, BreakerConfig};
    use hpcdash_obs::Registry;
    use hpcdash_simtime::Clock;
    use std::sync::atomic::{AtomicBool, Ordering};

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
        let jobs: usize = fed
            .sites
            .iter()
            .map(|s| s.ctld.snapshot().jobs.len() + s.dbd.archived_count())
            .sum();
        assert!(jobs > 0, "the sites were fed submissions");
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

    /// Four hours, then twenty 30 s ticks, as the benchmark plays them.
    fn play(advance: &mut dyn FnMut(u64)) {
        advance(4 * 3_600);
        for _ in 0..20 {
            advance(30);
        }
    }

    /// Sites share no mutable state while they tick, so advancing them side
    /// by side decides, publishes, locks and stores exactly what advancing
    /// each alone on the calling thread does.
    #[test]
    fn side_by_side_sites_match_each_site_advanced_alone() {
        const WINDOW: u64 = 4 * 3_600 + 600;
        for seed in [42, 7] {
            let mut cfg = FederationConfig::quad(seed);
            for site in &mut cfg.sites {
                site.free_daemons = true;
            }
            let fed = cfg.clone().build();
            let mut driver = fed.driver(WINDOW);
            play(&mut |secs| driver.advance(secs));
            for (site, config) in fed.sites.iter().zip(cfg.sites) {
                let name = config.cluster_name.clone();
                let alone = Scenario::build(config);
                let mut alone_driver = alone.driver(WINDOW);
                play(&mut |secs| alone_driver.advance(secs));
                assert_eq!(site.clock.now(), alone.clock.now(), "{name}, seed {seed}");
                assert_eq!(
                    oracle::decisions(site),
                    oracle::decisions(&alone),
                    "{name}, seed {seed}: scheduler decisions"
                );
                assert_eq!(
                    oracle::tsdb_content(site),
                    oracle::tsdb_content(&alone),
                    "{name}, seed {seed}: stored telemetry"
                );
            }
        }
    }

    /// A site whose advance panics hands the panic to the caller; its worker
    /// survives, so the next advance of every site completes.
    #[test]
    fn a_site_panic_reaches_the_caller_and_the_workers_survive() {
        // alpha goes to a helper when there is one, gamma stays on the caller.
        for victim in ["alpha", "gamma"] {
            let fed = FederationConfig::quad(3).build();
            let mut driver = fed.driver(3_600);
            let armed = Arc::new(AtomicBool::new(true));
            let registry = Arc::new(Registry::new());
            let trigger = armed.clone();
            registry.register_collector(move |_: &mut hpcdash_obs::SampleSink| {
                if trigger.swap(false, Ordering::SeqCst) {
                    panic!("scrape failed on {victim}");
                }
            });
            fed.site(victim).unwrap().telemetry.set_registry(&registry);

            let caught = panic::catch_unwind(AssertUnwindSafe(|| driver.advance(60)));
            let payload = caught.expect_err("the site's panic reaches the caller");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some(format!("scrape failed on {victim}").as_str()));
            assert!(!armed.load(Ordering::SeqCst));

            let before: Vec<_> = fed.sites.iter().map(|s| s.clock.now()).collect();
            driver.advance(60);
            for (site, t) in fed.sites.iter().zip(before) {
                assert_eq!(
                    site.clock.now(),
                    t.plus(60),
                    "{victim}: every site advanced"
                );
            }
        }
    }
}
