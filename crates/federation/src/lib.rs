//! Multi-cluster federation: a registry of simulated sites, lock-free
//! cross-site aggregation, and honest per-site degradation.
//!
//! Real centers put several clusters behind one dashboard. This crate adds
//! the layer that makes that possible without giving up the single-site
//! guarantees the stack already has:
//!
//! * [`ClusterRegistry`] owns N heterogeneous sites. The site list is
//!   immutable after construction, so the fan-out path takes **no lock of
//!   any kind** — each site's freshest data comes from its own
//!   epoch-published [`ClusterSnapshot`], and each site's last-known-good
//!   copy lives in its own [`EpochCell`].
//! * [`FederatedSnapshot`] merges the per-site snapshots into cross-cluster
//!   job/node/association views where every row is tagged with its cluster
//!   name and every slice carries per-site `meta` (snapshot seq + age).
//! * The fan-out consults the caller's [`BreakerBoard`] per site (key
//!   `fed@<cluster>`), so one dark site degrades only its slice: its rows
//!   are served from the last good snapshot with an honest age annotation,
//!   while live sites stay fresh. A site that never answered is reported
//!   `Dark` — shown as unavailable, never silently dropped.
//!
//! The "unreachable site" signal is the site daemon's own fault host: a
//! `FaultRule::error("slurmctld", "*", ...)` blackout makes `fed_status`
//! checks fail exactly like every other RPC against that site, while the
//! daemon itself keeps ticking (the site is up; the link is down).

use hpcdash_cache::breaker::BreakerBoard;
use hpcdash_simtime::SharedClock;
use hpcdash_simtime::Timestamp;
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::snapshot::{ClusterSnapshot, EpochCell, StateCounts};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The fault-host RPC name the federation fan-out presents to each site's
/// `slurmctld`. A wildcard blackout rule (`rpc: "*"`) covers it.
pub const FED_RPC: &str = "fed_status";

/// Breaker-board key for one federated site: `fed@<cluster>`. The `@`
/// convention is what lets `/api/health` and the observatory attribute
/// breaker state to a cluster.
pub(crate) fn breaker_source(cluster: &str) -> String {
    format!("fed@{cluster}")
}

/// The last successfully fetched snapshot of one site, with the sim-time
/// instant it was fetched (the basis for "data from N seconds ago").
#[derive(Debug, Clone)]
pub struct SiteRecord {
    pub snapshot: Arc<ClusterSnapshot>,
    pub fetched_at: Timestamp,
}

/// Freshness of one site's slice of a federated view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteHealth {
    /// The site answered this fan-out; its slice is current.
    Live,
    /// The site is unreachable; its slice is the last good snapshot,
    /// `age_secs` old. Honest, not hidden.
    Stale { age_secs: u64, error: String },
    /// The site is unreachable and no snapshot was ever fetched: there is
    /// nothing to serve, only the outage to report.
    Dark { error: String },
}

impl SiteHealth {
    pub fn is_live(&self) -> bool {
        matches!(self, SiteHealth::Live)
    }

    /// Stable label for payloads and metrics: `live` / `stale` / `dark`.
    pub fn as_str(&self) -> &'static str {
        match self {
            SiteHealth::Live => "live",
            SiteHealth::Stale { .. } => "stale",
            SiteHealth::Dark { .. } => "dark",
        }
    }
}

/// One site's contribution to a [`FederatedSnapshot`].
#[derive(Debug, Clone)]
pub struct SiteStatus {
    pub cluster: Arc<str>,
    pub health: SiteHealth,
    /// The snapshot backing this slice (`None` only when `Dark`).
    pub snapshot: Option<Arc<ClusterSnapshot>>,
}

impl SiteStatus {
    /// The snapshot seq this slice reflects (0 when dark).
    pub fn seq(&self) -> u64 {
        self.snapshot.as_ref().map(|s| s.seq).unwrap_or(0)
    }

    /// The user-facing freshness notice for a degraded slice, in the same
    /// voice the widgets already use ("showing data from N ago").
    pub fn notice(&self) -> Option<String> {
        match &self.health {
            SiteHealth::Live => None,
            SiteHealth::Stale { age_secs, .. } => Some(format!(
                "site {}: data from {}s ago",
                self.cluster, age_secs
            )),
            SiteHealth::Dark { error } => {
                Some(format!("site {}: unavailable ({error})", self.cluster))
            }
        }
    }
}

/// A merged, internally consistent view across every registered site at one
/// fan-out instant. Per-site slices keep their own seq and freshness; there
/// is no global version because there is no global lock.
#[derive(Debug, Clone)]
pub struct FederatedSnapshot {
    /// Sim-time instant of the fan-out.
    pub at: Timestamp,
    /// One entry per registered site, in registration order.
    pub sites: Vec<SiteStatus>,
}

impl FederatedSnapshot {
    pub fn live_sites(&self) -> usize {
        self.sites.iter().filter(|s| s.health.is_live()).count()
    }

    pub fn stale_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.health, SiteHealth::Stale { .. }))
            .count()
    }

    pub fn dark_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| matches!(s.health, SiteHealth::Dark { .. }))
            .count()
    }

    /// True when any slice is not live — the aggregate payloads surface
    /// this as a top-level `degraded` flag.
    pub fn is_degraded(&self) -> bool {
        self.sites.iter().any(|s| !s.health.is_live())
    }

    /// Job-state totals summed across every slice that has data.
    pub fn counts(&self) -> StateCounts {
        let mut total = StateCounts::default();
        for snap in self.sites.iter().filter_map(|s| s.snapshot.as_deref()) {
            total.pending += snap.counts.pending;
            total.running += snap.counts.running;
            total.suspended += snap.counts.suspended;
        }
        total
    }

    /// Every job across the federation, tagged with its cluster. Rows from
    /// a stale slice are included — their `SiteStatus` says how old.
    pub fn jobs(&self) -> impl Iterator<Item = (&SiteStatus, &Arc<hpcdash_slurm::job::Job>)> {
        self.sites
            .iter()
            .filter_map(|s| Some((s, s.snapshot.as_deref()?)))
            .flat_map(|(status, snap)| snap.jobs.iter().map(move |job| (status, job)))
    }

    /// One user's jobs across every cluster, via each slice's `by_user`
    /// index (no scan).
    pub fn jobs_of_user<'a>(
        &'a self,
        user: &str,
    ) -> Vec<(&'a SiteStatus, Arc<hpcdash_slurm::job::Job>)> {
        let mut out = Vec::new();
        for status in &self.sites {
            let Some(snap) = status.snapshot.as_deref() else {
                continue;
            };
            for &id in snap.by_user.get(user).unwrap_or_default() {
                out.extend(snap.jobs.by_id(id).map(|job| (status, job.clone())));
            }
        }
        out
    }

    /// Every node across the federation, tagged with its cluster.
    pub fn nodes(&self) -> impl Iterator<Item = (&SiteStatus, &hpcdash_slurm::node::Node)> {
        self.sites
            .iter()
            .filter_map(|s| Some((s, s.snapshot.as_deref()?)))
            .flat_map(|(status, snap)| snap.nodes.iter().map(move |node| (status, &**node)))
    }

    /// Sum of per-site snapshot seqs — monotone non-decreasing across
    /// fan-outs, usable as a cache version for aggregate renders.
    pub fn version(&self) -> u64 {
        self.sites.iter().map(|s| s.seq()).sum()
    }

    pub fn site(&self, cluster: &str) -> Option<&SiteStatus> {
        self.sites.iter().find(|s| &*s.cluster == cluster)
    }
}

/// One registered site: the cluster's `slurmctld` handle plus the
/// last-known-good cell and serve counters. All reads are lock-free.
pub struct ClusterSite {
    name: Arc<str>,
    ctld: Arc<Slurmctld>,
    /// Last good [`SiteRecord`], epoch-published so the fan-out never
    /// blocks a concurrent update (same cell type as the daemon snapshot).
    last_good: EpochCell<Option<SiteRecord>>,
    polls: AtomicU64,
    stale_serves: AtomicU64,
    dark_serves: AtomicU64,
}

impl ClusterSite {
    fn new(ctld: Arc<Slurmctld>) -> ClusterSite {
        let name = ctld.snapshot().name.clone();
        ClusterSite {
            name,
            ctld,
            last_good: EpochCell::new(Arc::new(None)),
            polls: AtomicU64::new(0),
            stale_serves: AtomicU64::new(0),
            dark_serves: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &Arc<str> {
        &self.name
    }

    pub fn ctld(&self) -> &Arc<Slurmctld> {
        &self.ctld
    }

    /// Fan-out polls this site has served (live + stale + dark).
    pub fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    /// Polls answered from the last-known-good snapshot.
    pub fn stale_serves(&self) -> u64 {
        self.stale_serves.load(Ordering::Relaxed)
    }

    /// Polls with nothing to serve (site dark before first success).
    pub fn dark_serves(&self) -> u64 {
        self.dark_serves.load(Ordering::Relaxed)
    }

    /// One fan-out step against this site. Breaker-open short-circuits to
    /// the last good snapshot without touching the site at all; a fault
    /// error records the failure and serves last-known-good; success
    /// refreshes the cell. Never acquires the daemon's state mutex — the
    /// live read is the epoch-published snapshot.
    fn poll(&self, now: Timestamp, breakers: &BreakerBoard) -> SiteStatus {
        self.polls.fetch_add(1, Ordering::Relaxed);
        let source = breaker_source(&self.name);
        if !breakers.allow(&source) {
            return self.serve_last_known(now, "circuit open; probe pending".to_string());
        }
        let check = self.ctld.faults().check(FED_RPC);
        if let Some(msg) = check.error() {
            let msg = msg.to_string();
            breakers.record_failure(&source);
            return self.serve_last_known(now, msg);
        }
        check.burn();
        let snapshot = self.ctld.snapshot();
        breakers.record_success(&source);
        self.last_good.store(Arc::new(Some(SiteRecord {
            snapshot: snapshot.clone(),
            fetched_at: now,
        })));
        SiteStatus {
            cluster: self.name.clone(),
            health: SiteHealth::Live,
            snapshot: Some(snapshot),
        }
    }

    fn serve_last_known(&self, now: Timestamp, error: String) -> SiteStatus {
        match &*self.last_good.load() {
            Some(record) => {
                self.stale_serves.fetch_add(1, Ordering::Relaxed);
                let age_secs = now.0.saturating_sub(record.fetched_at.0);
                SiteStatus {
                    cluster: self.name.clone(),
                    health: SiteHealth::Stale { age_secs, error },
                    snapshot: Some(record.snapshot.clone()),
                }
            }
            None => {
                self.dark_serves.fetch_add(1, Ordering::Relaxed);
                SiteStatus {
                    cluster: self.name.clone(),
                    health: SiteHealth::Dark { error },
                    snapshot: None,
                }
            }
        }
    }
}

/// The registry of federated sites. Built once, then shared (`Arc`) and
/// read lock-free: the site list never changes after construction, so the
/// fan-out is a plain slice walk.
pub struct ClusterRegistry {
    clock: SharedClock,
    sites: Vec<Arc<ClusterSite>>,
}

impl ClusterRegistry {
    pub fn new(clock: SharedClock) -> ClusterRegistry {
        ClusterRegistry {
            clock,
            sites: Vec::new(),
        }
    }

    /// Register a site at build time. The cluster name comes from the
    /// daemon's own snapshot — the identity the site publishes is the
    /// identity the federation uses.
    pub fn register(&mut self, ctld: Arc<Slurmctld>) {
        let site = ClusterSite::new(ctld);
        assert!(
            self.get(&site.name).is_none(),
            "duplicate cluster name {:?} in federation",
            site.name
        );
        self.sites.push(Arc::new(site));
    }

    pub fn sites(&self) -> &[Arc<ClusterSite>] {
        &self.sites
    }

    pub fn get(&self, cluster: &str) -> Option<&Arc<ClusterSite>> {
        self.sites.iter().find(|s| &*s.name == cluster)
    }

    pub fn names(&self) -> Vec<String> {
        self.sites.iter().map(|s| s.name.to_string()).collect()
    }

    pub fn len(&self) -> usize {
        self.sites.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Fan out to every site and merge. Cost is linear in the number of
    /// sites; a dark site costs one breaker check (open) or one failed
    /// fault check (closed) — never a backend wait, never a lock.
    pub fn snapshot(&self, breakers: &BreakerBoard) -> FederatedSnapshot {
        let now = self.clock.now();
        FederatedSnapshot {
            at: now,
            sites: self.sites.iter().map(|s| s.poll(now, breakers)).collect(),
        }
    }

    /// One site's slice, through the same breaker/staleness path as the
    /// full fan-out (cluster-scoped routes use this).
    pub fn site_status(&self, cluster: &str, breakers: &BreakerBoard) -> Option<SiteStatus> {
        let site = self.get(cluster)?;
        Some(site.poll(self.clock.now(), breakers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_cache::breaker::{BreakerConfig, BreakerState};
    use hpcdash_faults::{FaultPlan, FaultRule};
    use hpcdash_simtime::SimClock;
    use hpcdash_slurm::cluster::ClusterSpec;
    use hpcdash_slurm::dbd::Slurmdbd;
    use hpcdash_slurm::joblog::JobLogFs;
    use hpcdash_slurm::loadmodel::RpcCostModel;
    use hpcdash_slurm::node::Node;
    use hpcdash_slurm::partition::Partition;
    use hpcdash_slurm::qos::Qos;

    fn site(name: &str, nodes: usize, clock: &SimClock) -> Arc<Slurmctld> {
        let node_list: Vec<Node> = (1..=nodes)
            .map(|i| Node::new(format!("{name}-n{i:02}"), 16, 64_000, 0))
            .collect();
        let names = node_list.iter().map(|n| n.name.clone()).collect();
        let spec = ClusterSpec {
            name: name.to_string(),
            nodes: node_list,
            partitions: vec![Partition::new("cpu").with_nodes(names).default_partition()],
            qos: Qos::standard_set(),
            assoc: hpcdash_slurm::assoc::AssocStore::new(),
        };
        Arc::new(Slurmctld::with_cost(
            spec,
            clock.shared(),
            Arc::new(Slurmdbd::with_cost(RpcCostModel::free())),
            Arc::new(JobLogFs::new()),
            RpcCostModel::free(),
        ))
    }

    fn board(clock: &SimClock) -> BreakerBoard {
        BreakerBoard::new(
            clock.shared(),
            BreakerConfig {
                failure_threshold: 3,
                open_secs: 30,
                half_open_probes: 1,
            },
        )
    }

    #[test]
    fn merges_sites_tagged_by_cluster() {
        let clock = SimClock::new(Timestamp(1_000));
        let alpha = site("alpha", 2, &clock);
        let beta = site("beta", 3, &clock);
        alpha.tick();
        beta.tick();
        let mut reg = ClusterRegistry::new(clock.shared());
        reg.register(alpha);
        reg.register(beta);
        let breakers = board(&clock);

        let fed = reg.snapshot(&breakers);
        assert_eq!(fed.sites.len(), 2);
        assert_eq!(fed.live_sites(), 2);
        assert!(!fed.is_degraded());
        let mut tagged: Vec<(String, String)> = fed
            .nodes()
            .map(|(s, n)| (s.cluster.to_string(), n.name.clone()))
            .collect();
        tagged.sort();
        assert_eq!(tagged.len(), 5);
        assert!(tagged.iter().all(|(c, n)| n.starts_with(c.as_str())));
        // Per-site meta: each slice reports its own seq, not a global one.
        assert!(fed.site("alpha").unwrap().seq() >= 1);
        assert!(fed.site("beta").unwrap().seq() >= 1);
    }

    #[test]
    fn dark_site_degrades_only_its_slice() {
        let clock = SimClock::new(Timestamp(0));
        let alpha = site("alpha", 2, &clock);
        let beta = site("beta", 2, &clock);
        // Beta goes unreachable from t=100 onward.
        let plan = Arc::new(
            FaultPlan::new(9).rule(
                FaultRule::error("slurmctld", "*", "site link down")
                    .during(Timestamp(100), Timestamp(10_000)),
            ),
        );
        beta.faults().install(plan, clock.shared());
        let mut reg = ClusterRegistry::new(clock.shared());
        reg.register(alpha);
        reg.register(beta);
        let breakers = board(&clock);

        // Warm: both live.
        let fed = reg.snapshot(&breakers);
        assert_eq!(fed.live_sites(), 2);

        clock.advance(140);
        let fed = reg.snapshot(&breakers);
        assert_eq!(fed.live_sites(), 1);
        assert_eq!(fed.stale_sites(), 1);
        assert!(fed.is_degraded());
        let beta_slice = fed.site("beta").unwrap();
        match &beta_slice.health {
            SiteHealth::Stale { age_secs, error } => {
                assert_eq!(*age_secs, 140);
                assert_eq!(error, "site link down");
            }
            other => panic!("expected stale, got {other:?}"),
        }
        // The stale slice still has data (nodes survive from last good).
        assert_eq!(fed.nodes().count(), 4);
        assert_eq!(
            beta_slice.notice().unwrap(),
            "site beta: data from 140s ago"
        );
        assert!(fed.site("alpha").unwrap().notice().is_none());
    }

    #[test]
    fn crashed_site_serves_stale_then_returns_live_after_recovery() {
        let clock = SimClock::new(Timestamp(1_000));
        let alpha = site("alpha", 2, &clock);
        let beta = site("beta", 2, &clock);
        alpha.tick();
        beta.tick();
        let mut reg = ClusterRegistry::new(clock.shared());
        reg.register(alpha);
        reg.register(beta.clone());
        let breakers = board(&clock);
        let warm = reg.snapshot(&breakers);
        assert_eq!(warm.live_sites(), 2);
        let epoch_before = warm.site("beta").unwrap().seq();

        // Beta's controller crashes outright on its next tick: unlike the
        // link-blackout above, *every* RPC refuses until the daemon
        // restarts 60 sim-seconds later.
        beta.faults().install(
            Arc::new(FaultPlan::new(5).rule(
                FaultRule::crash("slurmctld", 60).during(Timestamp(1_010), Timestamp(1_011)),
            )),
            clock.shared(),
        );
        clock.advance(10);
        beta.tick();
        assert!(beta.is_down());
        let fed = reg.snapshot(&breakers);
        assert_eq!(fed.live_sites(), 1);
        assert_eq!(fed.stale_sites(), 1);
        match &fed.site("beta").unwrap().health {
            SiteHealth::Stale { error, .. } => {
                assert!(error.contains("connection refused"), "{error}")
            }
            other => panic!("expected stale while crashed, got {other:?}"),
        }
        // Sustained refusals trip beta's breaker; the slice stays stale —
        // a crashed site is degraded honestly, never silently dropped.
        for _ in 0..5 {
            let _ = reg.snapshot(&breakers);
            clock.advance(1);
        }
        assert_eq!(
            breakers.state_of(&breaker_source("beta")),
            BreakerState::Open
        );
        assert!(reg
            .snapshot(&breakers)
            .site("beta")
            .unwrap()
            .snapshot
            .is_some());

        // The daemon restarts on its first tick past down_until and
        // recovers from checkpoint + WAL.
        clock.advance(60);
        beta.tick();
        assert!(!beta.is_down());
        assert_eq!(beta.restart_count(), 1);
        // Once the breaker cools down, the next poll probes, succeeds, and
        // the site is Live again at a strictly newer epoch.
        clock.advance(31);
        let fed = reg.snapshot(&breakers);
        let slice = fed.site("beta").unwrap();
        assert!(
            slice.health.is_live(),
            "recovered site must serve live: {:?}",
            slice.health
        );
        assert!(
            slice.seq() > epoch_before,
            "post-recovery slice rides a fresh epoch ({} !> {epoch_before})",
            slice.seq()
        );
        assert_eq!(fed.live_sites(), 2);
    }

    #[test]
    fn never_fetched_site_reports_dark_not_stale() {
        let clock = SimClock::new(Timestamp(0));
        let beta = site("beta", 1, &clock);
        let plan =
            Arc::new(FaultPlan::new(1).rule(FaultRule::error("slurmctld", "*", "down from birth")));
        beta.faults().install(plan, clock.shared());
        let mut reg = ClusterRegistry::new(clock.shared());
        reg.register(beta);
        let breakers = board(&clock);

        let fed = reg.snapshot(&breakers);
        assert_eq!(fed.dark_sites(), 1);
        let slice = fed.site("beta").unwrap();
        assert!(slice.snapshot.is_none());
        assert_eq!(
            slice.notice().unwrap(),
            "site beta: unavailable (down from birth)"
        );
        assert_eq!(fed.nodes().count(), 0);
    }

    #[test]
    fn breaker_opens_and_stops_touching_the_dark_site() {
        let clock = SimClock::new(Timestamp(0));
        let beta = site("beta", 1, &clock);
        let plan = Arc::new(
            FaultPlan::new(2).rule(
                FaultRule::error("slurmctld", "*", "blackout")
                    .during(Timestamp(50), Timestamp(1_000_000)),
            ),
        );
        beta.faults().install(plan.clone(), clock.shared());
        let mut reg = ClusterRegistry::new(clock.shared());
        reg.register(beta.clone());
        let breakers = board(&clock);

        reg.snapshot(&breakers); // live warm-up
        clock.advance(60);
        for _ in 0..3 {
            reg.snapshot(&breakers);
        }
        assert_eq!(
            breakers.state_of(&breaker_source("beta")),
            BreakerState::Open
        );
        // Open breaker: fan-outs stop consulting the site's fault host.
        let before = beta.faults().stats().checks;
        reg.snapshot(&breakers);
        assert_eq!(beta.faults().stats().checks, before);
        // ... but the slice still serves last-known-good, honestly aged.
        let fed = reg.snapshot(&breakers);
        assert!(matches!(
            fed.site("beta").unwrap().health,
            SiteHealth::Stale { .. }
        ));
    }

    #[test]
    fn fan_out_never_acquires_a_state_mutex() {
        let clock = SimClock::new(Timestamp(0));
        let alpha = site("alpha", 4, &clock);
        let beta = site("beta", 4, &clock);
        let mut reg = ClusterRegistry::new(clock.shared());
        reg.register(alpha.clone());
        reg.register(beta.clone());
        let breakers = board(&clock);

        let before = (
            alpha.stats().state_lock_count(),
            beta.stats().state_lock_count(),
        );
        for _ in 0..100 {
            let fed = reg.snapshot(&breakers);
            assert_eq!(fed.live_sites(), 2);
            let _ = fed.counts();
            let _ = fed.nodes().count();
        }
        assert_eq!(alpha.stats().state_lock_count(), before.0);
        assert_eq!(beta.stats().state_lock_count(), before.1);
    }

    #[test]
    fn version_is_monotone_across_fanouts() {
        let clock = SimClock::new(Timestamp(0));
        let alpha = site("alpha", 1, &clock);
        let mut reg = ClusterRegistry::new(clock.shared());
        reg.register(alpha.clone());
        let breakers = board(&clock);
        let v1 = reg.snapshot(&breakers).version();
        clock.advance(30);
        alpha.tick();
        let v2 = reg.snapshot(&breakers).version();
        assert!(v2 >= v1, "version must not regress ({v1} -> {v2})");
    }
}
