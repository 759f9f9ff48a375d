//! Exact counts, read where the work happens: the program's own
//! `GET /api/metrics` exposition, `slurmcli::parse_call_count()` and the
//! daemons' `stats()`. Read once after warm-up and once after the measured
//! phase; the difference over the requests made is a `*_per_kreq` metric.

use crate::site::Site;
use std::collections::BTreeMap;
use std::time::Instant;

/// RPC kinds the simulation driver issues itself; they are cluster
/// activity, not dashboard load.
const DRIVER_KINDS: [&str; 3] = ["sched_tick", "submit", "cancel"];

#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Counter samples of the exposition, summed over their label sets.
    by_name: BTreeMap<String, f64>,
    pub parse_calls: u64,
    /// Query RPCs served, over every simulated cluster.
    pub ctld_rpcs: u64,
    pub dbd_rpcs: u64,
    pub state_locks: u64,
    pub rows_scanned: u64,
    /// How long the scrape itself took (`obs.metrics_scrape_ms`).
    pub scrape_ms: f64,
}

impl Counters {
    pub fn read(site: &Site) -> Counters {
        let started = Instant::now();
        let resp = site.get("/api/metrics?format=json", "X-Remote-User: root\r\n");
        let scrape_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(resp.status, 200, "/api/metrics must answer");
        let samples = resp.body_json().expect("/api/metrics?format=json is JSON");
        let mut by_name = BTreeMap::new();
        for s in samples.as_array().map(Vec::as_slice).unwrap_or_default() {
            if s["type"].as_str() != Some("counter") {
                continue;
            }
            if let (Some(name), Some(v)) = (s["name"].as_str(), s["value"].as_f64()) {
                *by_name.entry(name.to_string()).or_insert(0.0) += v;
            }
        }
        let mut c = Counters {
            by_name,
            parse_calls: hpcdash::slurmcli::parse_call_count(),
            scrape_ms,
            ..Counters::default()
        };
        for scenario in site.scenarios() {
            for (stats, rpcs) in [
                (scenario.ctld.stats(), &mut c.ctld_rpcs),
                (scenario.dbd.stats(), &mut c.dbd_rpcs),
            ] {
                c.state_locks += stats.state_lock_count();
                for (kind, k) in stats.snapshot().per_kind {
                    if !DRIVER_KINDS.contains(&kind) {
                        *rpcs += k.count;
                        c.rows_scanned += k.scanned;
                    }
                }
            }
        }
        c
    }

    /// A counter of the exposition, `None` when the program does not
    /// export it (never an error: a later change may rename it).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.by_name.get(name).copied()
    }
}

/// `after - before`, per thousand requests.
pub fn per_kreq(before: u64, after: u64, requests: u64) -> f64 {
    (after - before) as f64 * 1_000.0 / requests.max(1) as f64
}

/// The same for an exposition counter; absent counters read 0.
pub fn scraped_per_kreq(before: &Counters, after: &Counters, name: &str, requests: u64) -> f64 {
    let delta = after.get(name).unwrap_or(0.0) - before.get(name).unwrap_or(0.0);
    delta * 1_000.0 / requests.max(1) as f64
}
