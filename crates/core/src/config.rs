//! Site configuration: the cluster-specific knobs §8 of the paper says a
//! migrating site must adjust, plus the per-source cache policy from §2.4.

use serde::{Deserialize, Serialize};

/// TTLs (seconds) per data source. Defaults follow the ranges the paper
/// states: squeue ~30 s because users want to see new jobs quickly, news
/// 30-60 min because announcements change rarely, everything else between.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachePolicy {
    pub announcements: u64,
    pub recent_jobs: u64,
    pub system_status: u64,
    pub accounts: u64,
    pub storage: u64,
    pub myjobs: u64,
    pub jobmetrics: u64,
    pub cluster_status: u64,
    pub job_overview: u64,
    pub node_overview: u64,
    /// Telemetry sparkline queries. Same tier as squeue (30 s): sparklines
    /// sit next to live job state, so staler data would visibly disagree
    /// with the queue, while the collector only adds a point per tick
    /// anyway — caching harder buys nothing users could see.
    pub telemetry: u64,
    /// Client-side (IndexedDB) freshness horizon: entries older than this
    /// are revalidated before being trusted, younger ones render instantly.
    pub client_fresh: u64,
    /// The admin observatory summary (`/api/observatory`). Short: operators
    /// debugging an incident want near-live breaker/SLO state, and the
    /// payload is assembled from in-memory stats (no backend RPC), so a
    /// long TTL would only hide the incident it exists to show.
    pub observatory: u64,
    /// Federated aggregate views (`/api/federation/*`). Short like the
    /// squeue tier: the fan-out itself is lock-free snapshot reads, and a
    /// long TTL would freeze the per-site freshness notices these routes
    /// exist to keep honest.
    pub federation: u64,
}

impl Default for CachePolicy {
    fn default() -> CachePolicy {
        CachePolicy {
            announcements: 1_800,
            recent_jobs: 30,
            system_status: 60,
            accounts: 120,
            storage: 600,
            myjobs: 120,
            jobmetrics: 300,
            cluster_status: 60,
            job_overview: 15,
            node_overview: 30,
            telemetry: 30,
            client_fresh: 30,
            observatory: 5,
            federation: 15,
        }
    }
}

impl CachePolicy {
    /// A policy that disables server caching (cache ablations).
    pub fn disabled() -> CachePolicy {
        CachePolicy {
            announcements: 0,
            recent_jobs: 0,
            system_status: 0,
            accounts: 0,
            storage: 0,
            myjobs: 0,
            jobmetrics: 0,
            cluster_status: 0,
            job_overview: 0,
            node_overview: 0,
            telemetry: 0,
            client_fresh: 0,
            observatory: 0,
            federation: 0,
        }
    }
}

/// Knobs for the real-time push hub and its long-poll delivery route
/// (`/api/updates/stream`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PushPolicy {
    /// How long (seconds) a subscriber's resolved account set stays trusted.
    pub accounts_ttl_secs: u64,
    /// Subscribers idle longer than this (seconds) are garbage-collected.
    pub idle_ttl_secs: u64,
    /// Upper bound on a single long-poll wait; client `wait_ms` is clamped.
    pub max_wait_ms: u64,
    /// Cap on server workers parked in long-polls at once; past it the
    /// stream route sheds with `503 + Retry-After`.
    pub max_parked_workers: usize,
}

impl Default for PushPolicy {
    fn default() -> PushPolicy {
        PushPolicy {
            accounts_ttl_secs: 60,
            idle_ttl_secs: 300,
            max_wait_ms: 20_000,
            max_parked_workers: 64,
        }
    }
}

/// Retry, backoff, deadline, and circuit-breaker tuning for the resilient
/// fetch path (`DashboardContext::cached_resilient`).
///
/// The defaults are chosen so the layers compose instead of fighting:
///
/// * **Retries** — `max_retries = 2` means at most 3 attempts per request.
///   Backend blips (a flapping daemon, one garbled render) usually clear
///   within a retry or two; more attempts just add latency to a request
///   that serve-stale will rescue anyway.
/// * **Backoff** — exponential from `backoff_base_ms` capped at
///   `backoff_cap_ms`, scaled by deterministic jitter in `[0.5, 1.5)`
///   keyed on `(seed, cache key, attempt)`. Jitter prevents coordinated
///   retry waves when many widgets fail at once; the seed keeps chaos
///   runs reproducible. The delays are real (wall-clock) sleeps and small,
///   because widget loaders run on request threads.
/// * **Deadline** — `deadline_ms` bounds attempts + backoff per request.
///   A latency fault that makes one attempt overrun the whole deadline
///   stops the retry loop immediately: slow backends degrade to stale
///   data rather than pile-ups.
/// * **Breaker** — `breaker_failure_threshold = 5` is deliberately larger
///   than the 3 attempts a single request makes, so one failed request
///   can never trip a breaker by itself; it takes failures across at
///   least two separate requests, i.e. sustained trouble. An open breaker
///   short-circuits for `breaker_open_secs` of *simulation* time, then
///   admits `breaker_half_open_probes` probe requests; one success closes
///   it. Breaker timing uses sim time so tests can assert transitions at
///   exact ticks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// Extra attempts after the first failure (total attempts = this + 1).
    pub max_retries: u32,
    /// First backoff delay (milliseconds, wall clock).
    pub backoff_base_ms: u64,
    /// Upper bound on any single backoff delay (milliseconds).
    pub backoff_cap_ms: u64,
    /// Per-request budget across attempts and backoff (milliseconds).
    pub deadline_ms: u64,
    /// Consecutive failures (across requests) that trip a source's breaker.
    pub breaker_failure_threshold: u32,
    /// Sim-time seconds an open breaker waits before probing.
    pub breaker_open_secs: u64,
    /// Probe requests admitted per half-open episode.
    pub breaker_half_open_probes: u32,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for ResiliencePolicy {
    fn default() -> ResiliencePolicy {
        ResiliencePolicy {
            max_retries: 2,
            backoff_base_ms: 5,
            backoff_cap_ms: 40,
            deadline_ms: 500,
            breaker_failure_threshold: 5,
            breaker_open_secs: 30,
            breaker_half_open_probes: 1,
            seed: 0x5eed,
        }
    }
}

impl ResiliencePolicy {
    /// Total attempts a single request may make.
    pub(crate) fn max_attempts(&self) -> u32 {
        self.max_retries + 1
    }

    /// A policy that disables retries and breakers (ablation tests: the
    /// pre-resilience behaviour, single attempt, fail fast).
    pub fn disabled() -> ResiliencePolicy {
        ResiliencePolicy {
            max_retries: 0,
            backoff_base_ms: 0,
            backoff_cap_ms: 0,
            deadline_ms: u64::MAX,
            breaker_failure_threshold: u32::MAX,
            breaker_open_secs: 0,
            breaker_half_open_probes: u32::MAX,
            seed: 0,
        }
    }
}

/// Optional features (the paper's future-work items are implemented behind
/// these flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FeatureFlags {
    /// Include a GPU-efficiency column (paper §4.1 marks this as underway).
    pub gpu_efficiency: bool,
    /// Allow users in `admins` to see other users' data (permission-based
    /// accounting, paper §9).
    pub admin_view: bool,
}

/// The full site configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DashboardConfig {
    /// Display name, e.g. "Anvil".
    pub cluster_label: String,
    /// Where "View all news" links.
    pub news_page_url: String,
    /// Where the accounting help link points.
    pub user_guide_url: String,
    /// Usernames with admin view (when the flag is on).
    pub admins: Vec<String>,
    pub cache: CachePolicy,
    pub push: PushPolicy,
    pub resilience: ResiliencePolicy,
    pub features: FeatureFlags,
    /// How many announcements the homepage widget shows.
    pub announcements_limit: usize,
    /// How many jobs the Recent Jobs widget shows.
    pub recent_jobs_limit: usize,
}

impl DashboardConfig {
    /// A generic site (the migration default of §8).
    pub fn generic(cluster_label: &str) -> DashboardConfig {
        DashboardConfig {
            cluster_label: cluster_label.to_string(),
            news_page_url: format!(
                "https://www.example.edu/{}/news",
                cluster_label.to_lowercase()
            ),
            user_guide_url: format!(
                "https://www.example.edu/{}/guide/accounts",
                cluster_label.to_lowercase()
            ),
            admins: Vec::new(),
            cache: CachePolicy::default(),
            push: PushPolicy::default(),
            resilience: ResiliencePolicy::default(),
            features: FeatureFlags::default(),
            announcements_limit: 5,
            recent_jobs_limit: 8,
        }
    }

    /// A site styled after the paper's deployment.
    pub fn purdue_like() -> DashboardConfig {
        DashboardConfig {
            cluster_label: "Anvil".to_string(),
            news_page_url: "https://www.rcac.example.edu/news".to_string(),
            user_guide_url: "https://www.rcac.example.edu/knowledge/anvil/accounts".to_string(),
            admins: vec!["root".to_string()],
            features: FeatureFlags {
                gpu_efficiency: true,
                admin_view: true,
            },
            ..DashboardConfig::generic("Anvil")
        }
    }

    pub fn is_admin(&self, user: &str) -> bool {
        self.features.admin_view && self.admins.iter().any(|a| a == user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_ranges() {
        let c = CachePolicy::default();
        assert_eq!(c.recent_jobs, 30, "squeue cached ~30s (paper §3.2)");
        assert_eq!(
            c.telemetry, c.recent_jobs,
            "sparklines ride the squeue tier"
        );
        assert!(
            c.announcements >= 1_800,
            "announcements 30-60 min (paper §2.4)"
        );
        assert!(c.recent_jobs < c.storage && c.storage < c.announcements);
    }

    #[test]
    fn disabled_policy_is_all_zero() {
        let c = CachePolicy::disabled();
        assert_eq!(c.recent_jobs, 0);
        assert_eq!(c.announcements, 0);
    }

    #[test]
    fn admin_gating() {
        let mut cfg = DashboardConfig::purdue_like();
        assert!(cfg.is_admin("root"));
        assert!(!cfg.is_admin("alice"));
        cfg.features.admin_view = false;
        assert!(
            !cfg.is_admin("root"),
            "flag off disables admin view entirely"
        );
    }

    #[test]
    fn generic_site_parameterizes_urls() {
        let cfg = DashboardConfig::generic("Bell");
        assert!(cfg.news_page_url.contains("bell"));
        assert_eq!(cfg.cluster_label, "Bell");
    }

    #[test]
    fn resilience_defaults_compose() {
        let r = ResiliencePolicy::default();
        assert!(
            r.breaker_failure_threshold > r.max_attempts(),
            "one request's failures must never trip a breaker alone"
        );
        assert!(r.backoff_base_ms <= r.backoff_cap_ms);
        // Worst case attempts + capped backoff fits the deadline.
        let worst_backoff: u64 = (0..r.max_retries)
            .map(|a| (r.backoff_base_ms << a).min(r.backoff_cap_ms) * 3 / 2)
            .sum();
        assert!(worst_backoff < r.deadline_ms);
        let d = ResiliencePolicy::disabled();
        assert_eq!(d.max_attempts(), 1);
    }

    #[test]
    fn config_serializes() {
        let cfg = DashboardConfig::purdue_like();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: DashboardConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
