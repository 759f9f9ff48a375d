//! Scenario assembly: cluster spec + population + services, ready to run.

use crate::jobs::{JobMix, TraceGenerator};
use crate::population::{Population, PopulationConfig};
use hpcdash_faults::FaultPlan;
use hpcdash_news::{Category, NewsFeed};
use hpcdash_simtime::{Clock, SimClock, Timestamp};
use hpcdash_slurm::cluster::ClusterSpec;
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::dbd::Slurmdbd;
use hpcdash_slurm::joblog::JobLogFs;
use hpcdash_slurm::loadmodel::RpcCostModel;
use hpcdash_slurm::node::Node;
use hpcdash_slurm::partition::Partition;
use hpcdash_slurm::qos::Qos;
use hpcdash_storage::{StorageDb, GB, TB};
use hpcdash_telemetry::TelemetryD;
use std::sync::Arc;
use std::time::Duration;

/// Everything needed to stand up a simulated site.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    pub cluster_name: String,
    pub cpu_nodes: usize,
    pub cpu_cores: u32,
    pub cpu_mem_mb: u64,
    pub gpu_nodes: usize,
    pub gpu_cores: u32,
    pub gpu_mem_mb: u64,
    pub gpus_per_node: u32,
    pub population: PopulationConfig,
    pub mix: JobMix,
    pub seed: u64,
    /// Simulation start instant.
    pub start: Timestamp,
    /// Use zero-cost daemons (unit tests) instead of realistic RPC costs.
    pub free_daemons: bool,
    /// Seeded fault script installed into the daemons at build time (chaos
    /// runs). `None` (the default scenarios) leaves every hook disarmed.
    pub faults: Option<FaultPlan>,
}

/// The canonical scenario start instant: 2026-07-04T08:00Z. Every stock
/// scenario begins here so same-seed runs line up tick for tick.
pub const DEFAULT_START: Timestamp = Timestamp(20_638 * 86_400 + 8 * 3_600);

impl ScenarioConfig {
    /// The same scenario with a fault script armed.
    pub fn with_faults(mut self, plan: FaultPlan) -> ScenarioConfig {
        self.faults = Some(plan);
        self
    }
}

impl ScenarioConfig {
    /// Builder base: a named site with the small-testbed shape. Chain the
    /// setters below to describe heterogeneous sites without copying the
    /// whole field list per site.
    pub fn named(name: &str) -> ScenarioConfig {
        ScenarioConfig {
            cluster_name: name.to_string(),
            cpu_nodes: 4,
            cpu_cores: 16,
            cpu_mem_mb: 64_000,
            gpu_nodes: 1,
            gpu_cores: 32,
            gpu_mem_mb: 256_000,
            gpus_per_node: 4,
            population: PopulationConfig {
                accounts: 3,
                users_per_account_min: 2,
                users_per_account_max: 3,
                ..PopulationConfig::default()
            },
            mix: JobMix::default(),
            seed: 7,
            start: DEFAULT_START,
            free_daemons: true,
            faults: None,
        }
    }

    /// CPU fleet shape: `nodes` machines of `cores` cores / `mem_mb` MB.
    pub fn cpu(mut self, nodes: usize, cores: u32, mem_mb: u64) -> ScenarioConfig {
        self.cpu_nodes = nodes;
        self.cpu_cores = cores;
        self.cpu_mem_mb = mem_mb;
        self
    }

    /// GPU fleet shape: `nodes` machines of `cores` cores / `mem_mb` MB with
    /// `per_node` GPUs each. Zero nodes drops the `gpu` partition entirely.
    pub fn gpu(mut self, nodes: usize, cores: u32, mem_mb: u64, per_node: u32) -> ScenarioConfig {
        self.gpu_nodes = nodes;
        self.gpu_cores = cores;
        self.gpu_mem_mb = mem_mb;
        self.gpus_per_node = per_node;
        self
    }

    /// User population: `accounts` groups of `min..=max` members.
    pub fn accounts(mut self, accounts: usize, min: usize, max: usize) -> ScenarioConfig {
        self.population = PopulationConfig {
            accounts,
            users_per_account_min: min,
            users_per_account_max: max,
            ..PopulationConfig::default()
        };
        self
    }

    /// Mean job-arrival rate (Poisson, per simulated hour).
    pub fn arrivals_per_hour(mut self, rate: f64) -> ScenarioConfig {
        self.mix.arrivals_per_hour = rate;
        self
    }

    /// Modulate arrivals with the day/night activity curve.
    pub fn diurnal(mut self) -> ScenarioConfig {
        self.mix.diurnal = true;
        self
    }

    /// RNG seed for population, trace, and fault decisions.
    pub fn seed(mut self, seed: u64) -> ScenarioConfig {
        self.seed = seed;
        self
    }

    /// Charge realistic RPC costs instead of the free test daemons.
    pub fn realistic_costs(mut self) -> ScenarioConfig {
        self.free_daemons = false;
        self
    }

    /// A small cluster for fast tests: 4 CPU nodes, 1 GPU node.
    pub fn small() -> ScenarioConfig {
        ScenarioConfig::named("testbed").arrivals_per_hour(60.0)
    }

    /// A campus-production-scale cluster in the spirit of the paper's site:
    /// 32 CPU nodes of 128 cores plus 4 quad-GPU nodes.
    pub fn campus() -> ScenarioConfig {
        ScenarioConfig::named("anvil-sim")
            .cpu(32, 128, 257_000)
            .gpu(4, 128, 512_000, 4)
            .accounts(10, 3, 8)
            .diurnal()
            .seed(42)
            .realistic_costs()
    }
}

/// A fully assembled site: daemons, services, population.
pub struct Scenario {
    pub config: ScenarioConfig,
    pub clock: SimClock,
    pub ctld: Arc<Slurmctld>,
    pub dbd: Arc<Slurmdbd>,
    pub logs: Arc<JobLogFs>,
    pub storage: Arc<StorageDb>,
    pub news: Arc<NewsFeed>,
    /// The metrics daemon; [`Scenario::driver`] runs a collection pass
    /// after every scheduler tick.
    pub telemetry: Arc<TelemetryD>,
    /// Shared with every driver, which draws its arrivals from it.
    pub population: Arc<Population>,
}

impl Scenario {
    pub fn build(config: ScenarioConfig) -> Scenario {
        let clock = SimClock::new(config.start);
        let population = Population::generate(&config.population);

        // Nodes and partitions.
        let mut nodes = Vec::new();
        let mut cpu_names = Vec::new();
        for i in 1..=config.cpu_nodes {
            let mut n = Node::new(format!("a{i:03}"), config.cpu_cores, config.cpu_mem_mb, 0);
            n.features = vec!["avx2".to_string(), "icelake".to_string()];
            n.boot_time = config.start.minus(30 * 86_400);
            n.last_busy = config.start;
            cpu_names.push(n.name.clone());
            nodes.push(n);
        }
        let mut gpu_names = Vec::new();
        for i in 1..=config.gpu_nodes {
            let mut n = Node::new(
                format!("g{i:03}"),
                config.gpu_cores,
                config.gpu_mem_mb,
                config.gpus_per_node,
            );
            n.features = vec!["a100".to_string(), "nvlink".to_string()];
            n.boot_time = config.start.minus(30 * 86_400);
            n.last_busy = config.start;
            gpu_names.push(n.name.clone());
            nodes.push(n);
        }
        let mut partitions = vec![Partition::new("cpu")
            .with_nodes(cpu_names)
            .default_partition()];
        if !gpu_names.is_empty() {
            partitions.push(Partition::new("gpu").with_nodes(gpu_names));
        }

        let spec = ClusterSpec {
            name: config.cluster_name.clone(),
            nodes,
            partitions,
            qos: Qos::standard_set(),
            assoc: population.assoc.clone(),
        };

        let (ctld_cost, dbd_cost) = if config.free_daemons {
            (RpcCostModel::free(), RpcCostModel::free())
        } else {
            (RpcCostModel::ctld_default(), RpcCostModel::dbd_default())
        };
        let dbd = Arc::new(Slurmdbd::with_cost(dbd_cost));
        let logs = Arc::new(JobLogFs::new());
        let ctld = Arc::new(Slurmctld::with_cost(
            spec,
            clock.shared(),
            dbd.clone(),
            logs.clone(),
            ctld_cost,
        ));

        // Storage: home+scratch per user, depot per account, seeded usage.
        let storage = Arc::new(StorageDb::with_cost(if config.free_daemons {
            Duration::ZERO
        } else {
            Duration::from_micros(400)
        }));
        for user in &population.users {
            storage.provision_user(user, config.start);
        }
        for account in &population.accounts {
            storage.provision_group(account, 20 * TB, config.start);
        }
        // Several days of activity so the bars are not empty; then pin one
        // user near quota so warning styling has a subject.
        for day in 0..5 {
            storage.drift(config.seed + day, config.start);
        }
        if let Some(first) = population.users.first() {
            storage.set_usage(&format!("/home/{first}"), 23 * GB, 380_000, config.start);
        }

        // Announcements: the standard mix of categories and windows.
        let news = Arc::new(NewsFeed::new());
        let s = config.start;
        news.publish(
            "New dashboard features released",
            "My Jobs now shows efficiency columns and friendly pending reasons.",
            Category::Feature,
            s.minus(6 * 86_400),
            None,
        );
        news.publish(
            "Quarterly maintenance window",
            "All queues drained for firmware updates.",
            Category::Maintenance,
            s.minus(3 * 86_400),
            Some((s.plus(2 * 86_400), s.plus(2 * 86_400 + 8 * 3_600))),
        );
        news.publish(
            "Scratch filesystem degraded",
            "GPFS scratch rebuilding; expect reduced bandwidth.",
            Category::Outage,
            s.minus(86_400),
            Some((s.minus(86_400), s.plus(4 * 3_600))),
        );
        news.publish(
            "Past outage resolved: login nodes",
            "The login node issue from last month was resolved.",
            Category::Outage,
            s.minus(30 * 86_400),
            Some((s.minus(30 * 86_400), s.minus(29 * 86_400))),
        );
        news.publish(
            "HPC user workshop signup open",
            "Intro to batch computing, every first Tuesday.",
            Category::News,
            s.minus(10 * 86_400),
            None,
        );

        // Arm the fault script (chaos scenarios) before anything queries the
        // daemons, so even the first RPC sees the scripted weather.
        if let Some(plan) = &config.faults {
            let plan = Arc::new(plan.clone());
            ctld.faults().install(plan.clone(), clock.shared());
            dbd.faults().install(plan, clock.shared());
        }

        let telemetry = Arc::new(if config.free_daemons {
            TelemetryD::free(clock.shared(), ctld.clone())
        } else {
            TelemetryD::new(clock.shared(), ctld.clone())
        });

        Scenario {
            config,
            clock,
            ctld,
            dbd,
            logs,
            storage,
            news,
            telemetry,
            population: Arc::new(population),
        }
    }

    /// A trace generator wired to this scenario's partitions, node shapes
    /// and seed (so generated requests are always schedulable).
    pub fn trace_generator(&self) -> TraceGenerator {
        TraceGenerator::with_caps(
            self.config.seed,
            self.config.mix.clone(),
            "cpu",
            if self.config.gpu_nodes > 0 {
                Some("gpu")
            } else {
                None
            },
            crate::jobs::NodeCaps {
                cpus_per_node: self.config.cpu_cores,
                mem_mb_per_node: self.config.cpu_mem_mb,
            },
        )
    }

    /// A [`crate::SimDriver`] over the next `window_secs` of traffic, each
    /// arrival drawn when the clock reaches it.
    pub fn driver(&self, window_secs: u64) -> crate::SimDriver {
        let trace =
            self.trace_generator()
                .arrivals(self.population.clone(), self.clock.now(), window_secs);
        crate::SimDriver::new(self.clock.clone(), self.ctld.clone(), trace, 30)
            .with_telemetry(self.telemetry.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_builds() {
        let s = Scenario::build(ScenarioConfig::small());
        assert_eq!(s.ctld.query_nodes().len(), 5);
        assert_eq!(s.ctld.query_partitions().len(), 2);
        assert!(!s.population.users.is_empty());
        assert_eq!(s.news.recent(10).unwrap().len(), 5);
        let u = &s.population.users[0];
        let dirs = s
            .storage
            .dirs_for_user(u, &s.population.accounts_of(u))
            .unwrap();
        assert!(dirs.len() >= 3, "home + scratch + at least one depot");
    }

    #[test]
    fn campus_scenario_scale() {
        let s = Scenario::build(ScenarioConfig {
            free_daemons: true,
            ..ScenarioConfig::campus()
        });
        assert_eq!(s.ctld.query_nodes().len(), 36);
        let assoc = s.ctld.query_assoc(None);
        assert_eq!(assoc.len(), 10);
    }

    #[test]
    fn announcements_cover_categories_and_windows() {
        let s = Scenario::build(ScenarioConfig::small());
        let now = s.clock.now();
        let all = s.news.all().unwrap();
        use hpcdash_news::Relevance;
        let relevances: Vec<Relevance> = all.iter().map(|a| a.relevance(now)).collect();
        assert!(relevances.contains(&Relevance::Active));
        assert!(relevances.contains(&Relevance::Upcoming));
        assert!(relevances.contains(&Relevance::Past));
        assert!(relevances.contains(&Relevance::Timeless));
    }

    #[test]
    fn fault_plan_arms_both_daemons() {
        use hpcdash_faults::FaultRule;
        let plan = FaultPlan::new(11)
            .rule(FaultRule::error(
                "slurmctld",
                "squeue",
                "ctld: connection refused",
            ))
            .rule(FaultRule::error("slurmdbd", "sacct_query", "dbd down"));
        let s = Scenario::build(ScenarioConfig::small().with_faults(plan));
        assert!(s.ctld.faults().is_armed());
        assert!(s.dbd.faults().is_armed());
        // The default scenarios stay disarmed: no hidden chaos in tests.
        let calm = Scenario::build(ScenarioConfig::small());
        assert!(!calm.ctld.faults().is_armed());
        assert!(!calm.dbd.faults().is_armed());
    }

    #[test]
    fn builder_describes_heterogeneous_sites() {
        let site = ScenarioConfig::named("edge")
            .cpu(8, 64, 128_000)
            .gpu(0, 0, 0, 0)
            .accounts(2, 1, 2)
            .arrivals_per_hour(10.0)
            .seed(99);
        assert_eq!(site.cluster_name, "edge");
        assert_eq!(site.cpu_nodes, 8);
        assert_eq!(site.gpu_nodes, 0);
        assert_eq!(site.population.accounts, 2);
        assert_eq!(site.seed, 99);
        assert!(site.free_daemons);
        // A GPU-less site builds with a single partition.
        let s = Scenario::build(site);
        assert_eq!(s.ctld.query_partitions().len(), 1);
        assert_eq!(s.ctld.query_nodes().len(), 8);
    }

    #[test]
    fn near_quota_user_exists() {
        let s = Scenario::build(ScenarioConfig::small());
        let first = &s.population.users[0];
        let dirs = s.storage.dirs_for_user(first, &[]).unwrap();
        let home = dirs.iter().find(|d| d.path.starts_with("/home/")).unwrap();
        assert!(home.bytes_fraction() > 0.9);
    }
}
