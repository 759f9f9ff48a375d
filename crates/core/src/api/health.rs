//! Health exposition: per-data-source up/degraded/down derived from recent
//! loader outcomes, plus an overall verdict (the worst source wins), and
//! each source's breaker, all read from one snapshot of the sources'
//! records.
//!
//! Distinct from `/healthz` (process liveness): this route reports whether
//! the *data sources* behind the dashboard are answering.

// The health body is still built as a value tree.
#![allow(clippy::disallowed_types, clippy::disallowed_macros)]

use crate::ctx::DashboardContext;
use hpcdash_cache::HealthStatus;
use hpcdash_http::{Request, Response, Router};

pub const ROUTE: &str = "/api/health";

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTE, move |req| handle(&ctx, req));
}

fn handle(ctx: &DashboardContext, _req: &Request) -> Response {
    // React to any crash-recovery before reporting, so the restart counts
    // and purges below are already reflected in what this body describes.
    ctx.observe_recoveries();
    let sources = ctx.breakers.snapshot();
    let overall = sources
        .iter()
        .filter_map(|s| Some(s.health?.status))
        .max()
        .unwrap_or(HealthStatus::Up);
    let mut body = serde_json::json!({
        "status": overall.as_str(),
        "sources": sources
            .iter()
            .filter_map(|s| {
                let h = s.health?;
                let entry = serde_json::json!({
                    "status": h.status.as_str(),
                    "window_size": h.window_size,
                    "window_errors": h.window_errors,
                    "total_ok": h.total_ok,
                    "total_err": h.total_err,
                });
                Some((s.source.clone(), entry))
            })
            .collect::<serde_json::Map>(),
    });
    // Daemon liveness and crash-recovery accounting: is each simulated
    // daemon up, how often has it restarted, and what did the last
    // checkpoint+WAL recovery replay vs lose.
    body["daemons"] = daemons_payload(ctx);
    // Circuit-breaker states ride along: operators reading /api/health see
    // not just that a source is down but whether the dashboard has stopped
    // asking it (open) or is probing for recovery (half_open).
    body["breakers"] = sources
        .into_iter()
        .filter_map(|s| {
            let b = s.breaker?;
            let mut entry = serde_json::json!({
                "state": b.state.as_str(),
                "consecutive_failures": b.consecutive_failures,
                "opens": b.opens,
            });
            // Federated sources (`fed@<cluster>`) say which site they guard,
            // so a stuck-open breaker is attributable to a cluster.
            if let Some(cluster) = b.cluster {
                entry["cluster"] = cluster.into();
            }
            Some((s.source, entry))
        })
        .collect::<serde_json::Map>()
        .into();
    let resp = Response::json(&body);
    match overall {
        // A degraded dashboard still answers 200 (it serves stale/partial
        // data); only Down surfaces as an unhealthy status code.
        HealthStatus::Up | HealthStatus::Degraded => resp,
        HealthStatus::Down => Response {
            status: 503,
            ..resp
        },
    }
}

/// The daemon liveness/recovery section shared by `/api/health` and the
/// observatory summary: per-daemon down flag, restart count, checkpoint
/// count, and the last crash-recovery's honest accounting (what the WAL
/// replayed, what was lost, how long resync took).
pub(crate) fn daemons_payload(ctx: &DashboardContext) -> serde_json::Value {
    fn report(r: Option<hpcdash_slurm::durable::RecoveryReport>) -> serde_json::Value {
        match r {
            None => serde_json::Value::Null,
            Some(r) => serde_json::json!({
                "crashed_at": r.crashed_at.as_secs(),
                "recovered_at": r.recovered_at.as_secs(),
                "checkpoint_at": r.checkpoint_at.as_secs(),
                "wal_replayed": r.wal_replayed,
                "wal_lost": r.wal_lost,
                "epoch_before": r.epoch_before,
                "epoch_after": r.epoch_after,
                "duration_us": r.duration_micros,
            }),
        }
    }
    serde_json::json!({
        "slurmctld": {
            "down": ctx.ctld.is_down(),
            "restarts": ctx.ctld.restart_count(),
            "checkpoints": ctx.ctld.checkpoint_count(),
            "wal_unflushed": ctx.ctld.wal_unflushed(),
            "last_recovery": report(ctx.ctld.last_recovery()),
        },
        "slurmdbd": {
            "down": ctx.dbd.is_down(),
            "restarts": ctx.dbd.restart_count(),
            "checkpoints": ctx.dbd.checkpoint_count(),
            "last_recovery": report(ctx.dbd.last_recovery()),
        },
        "telemetry_gap_skips": ctx.telemetry.gap_skips(),
        "telemetry_last_gap_at": ctx.telemetry.last_gap_at(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::encode;
    use crate::app::Dashboard;
    use crate::config::DashboardConfig;
    use crate::ctx::tests::{test_ctx, test_ctx_clocked_with};
    use hpcdash_cache::{Body, NO_TTL};
    use hpcdash_http::Method;
    use serde_json::json;

    fn request() -> Request {
        Request::new(Method::Get, "/api/health")
    }

    #[test]
    fn all_up_when_sources_answer() {
        let ctx = test_ctx();
        ctx.breakers.record_health("squeue", true);
        ctx.breakers.record_health("sinfo", true);
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["status"], "up");
        assert_eq!(body["sources"]["squeue"]["status"], "up");
    }

    #[test]
    fn down_source_drives_overall_and_status_code() {
        let ctx = test_ctx();
        ctx.breakers.record_health("sinfo", true);
        for _ in 0..3 {
            ctx.breakers.record_health("squeue", false);
        }
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 503);
        let body = resp.body_json().unwrap();
        assert_eq!(body["status"], "down");
        assert_eq!(body["sources"]["squeue"]["status"], "down");
        assert_eq!(body["sources"]["sinfo"]["status"], "up");
    }

    #[test]
    fn the_worst_source_sets_the_overall_status() {
        let ctx = test_ctx();
        // No source has answered yet: nothing is known to be wrong.
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["status"], "up");
        assert_eq!(body["sources"], json!({}));
        // One error in ten degrades `sacct` but not `sinfo`: the dashboard
        // still answers 200, and says it is degraded.
        for i in 0..10 {
            ctx.breakers.record_health("sinfo", true);
            ctx.breakers.record_health("sacct", i != 4);
        }
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["status"], "degraded");
        assert_eq!(body["sources"]["sacct"]["status"], "degraded");
        assert_eq!(body["sources"]["sinfo"]["status"], "up");
    }

    #[test]
    fn breaker_states_ride_along() {
        let ctx = test_ctx();
        ctx.breakers.record_health("sinfo", true);
        for _ in 0..ctx.breakers.config().failure_threshold {
            ctx.breakers.record_failure("sacct");
        }
        ctx.breakers.record_success("sinfo");
        let resp = handle(&ctx, &request());
        let body = resp.body_json().unwrap();
        assert_eq!(body["breakers"]["sacct"]["state"], "open");
        assert_eq!(body["breakers"]["sacct"]["opens"], 1);
        assert_eq!(body["breakers"]["sinfo"]["state"], "closed");
    }

    #[test]
    fn federated_breakers_carry_their_cluster() {
        let ctx = test_ctx();
        ctx.breakers.record_health("sinfo", true);
        ctx.breakers.record_failure("fed@beta");
        ctx.breakers.record_success("sacct");
        let resp = handle(&ctx, &request());
        let body = resp.body_json().unwrap();
        assert_eq!(body["breakers"]["fed@beta"]["cluster"], "beta");
        assert!(body["breakers"]["sacct"]["cluster"].is_null());
    }

    #[test]
    fn daemon_liveness_rides_along() {
        let ctx = test_ctx();
        ctx.breakers.record_health("sinfo", true);
        let resp = handle(&ctx, &request());
        let body = resp.body_json().unwrap();
        let daemons = &body["daemons"];
        assert_eq!(daemons["slurmctld"]["down"], false);
        assert_eq!(daemons["slurmctld"]["restarts"], 0);
        assert!(
            daemons["slurmctld"]["checkpoints"].as_u64().unwrap() >= 1,
            "checkpoint-0 exists from construction"
        );
        assert!(daemons["slurmctld"]["last_recovery"].is_null());
        assert_eq!(daemons["slurmdbd"]["down"], false);
        assert_eq!(daemons["telemetry_gap_skips"], 0);
    }

    /// The widget source's breaker has just opened.
    const OPEN: &str = r#"503 {"breakers":{"fed@beta":{"cluster":"beta","consecutive_failures":1,"opens":0,"state":"closed"},"squeue":{"consecutive_failures":5,"opens":1,"state":"open"}},"daemons":{"slurmctld":{"checkpoints":1,"down":false,"last_recovery":null,"restarts":0,"wal_unflushed":0},"slurmdbd":{"checkpoints":1,"down":false,"last_recovery":null,"restarts":0},"telemetry_gap_skips":0,"telemetry_last_gap_at":null},"sources":{"sinfo":{"status":"degraded","total_err":2,"total_ok":3,"window_errors":2,"window_size":5},"squeue":{"status":"down","total_err":5,"total_ok":1,"window_errors":5,"window_size":6}},"status":"down"}
hpcdash_breaker_opens{source="fed@beta"} 0
hpcdash_breaker_opens{source="squeue"} 1
hpcdash_breaker_short_circuits_total{source="squeue"} 2
hpcdash_breaker_state{source="fed@beta"} 0
hpcdash_breaker_state{source="squeue"} 2
hpcdash_cache_hits_total{source="slurm_v0"} 1
hpcdash_cache_hits_total{source="squeue"} 1
hpcdash_cache_misses_total{source="slurm_v0"} 1
hpcdash_cache_misses_total{source="squeue"} 4
hpcdash_cache_requests_total{source="slurm_v0"} 2
hpcdash_cache_requests_total{source="squeue"} 5
hpcdash_retry_attempts_total{source="squeue"} 3
hpcdash_retry_exhausted_total{source="squeue"} 2
hpcdash_stale_serves_total{source="squeue"} 3
"#;

    /// Its cool-down has passed: half-open.
    const HALF_OPEN: &str = r#"503 {"breakers":{"fed@beta":{"cluster":"beta","consecutive_failures":1,"opens":0,"state":"closed"},"squeue":{"consecutive_failures":5,"opens":1,"state":"half_open"}},"daemons":{"slurmctld":{"checkpoints":1,"down":false,"last_recovery":null,"restarts":0,"wal_unflushed":0},"slurmdbd":{"checkpoints":1,"down":false,"last_recovery":null,"restarts":0},"telemetry_gap_skips":0,"telemetry_last_gap_at":null},"sources":{"sinfo":{"status":"degraded","total_err":2,"total_ok":3,"window_errors":2,"window_size":5},"squeue":{"status":"down","total_err":5,"total_ok":1,"window_errors":5,"window_size":6}},"status":"down"}
hpcdash_breaker_opens{source="fed@beta"} 0
hpcdash_breaker_opens{source="squeue"} 1
hpcdash_breaker_short_circuits_total{source="squeue"} 2
hpcdash_breaker_state{source="fed@beta"} 0
hpcdash_breaker_state{source="squeue"} 1
hpcdash_cache_hits_total{source="slurm_v0"} 1
hpcdash_cache_hits_total{source="squeue"} 1
hpcdash_cache_misses_total{source="slurm_v0"} 1
hpcdash_cache_misses_total{source="squeue"} 4
hpcdash_cache_requests_total{source="slurm_v0"} 2
hpcdash_cache_requests_total{source="squeue"} 5
hpcdash_retry_attempts_total{source="squeue"} 3
hpcdash_retry_exhausted_total{source="squeue"} 2
hpcdash_stale_serves_total{source="squeue"} 3
"#;

    /// A probe succeeded: closed.
    const CLOSED: &str = r#"503 {"breakers":{"fed@beta":{"cluster":"beta","consecutive_failures":1,"opens":0,"state":"closed"},"squeue":{"consecutive_failures":0,"opens":1,"state":"closed"}},"daemons":{"slurmctld":{"checkpoints":1,"down":false,"last_recovery":null,"restarts":0,"wal_unflushed":0},"slurmdbd":{"checkpoints":1,"down":false,"last_recovery":null,"restarts":0},"telemetry_gap_skips":0,"telemetry_last_gap_at":null},"sources":{"sinfo":{"status":"degraded","total_err":2,"total_ok":3,"window_errors":2,"window_size":5},"squeue":{"status":"down","total_err":5,"total_ok":2,"window_errors":5,"window_size":7}},"status":"down"}
hpcdash_breaker_opens{source="fed@beta"} 0
hpcdash_breaker_opens{source="squeue"} 1
hpcdash_breaker_short_circuits_total{source="squeue"} 2
hpcdash_breaker_state{source="fed@beta"} 0
hpcdash_breaker_state{source="squeue"} 0
hpcdash_cache_hits_total{source="slurm_v0"} 1
hpcdash_cache_hits_total{source="squeue"} 1
hpcdash_cache_misses_total{source="slurm_v0"} 1
hpcdash_cache_misses_total{source="squeue"} 5
hpcdash_cache_requests_total{source="slurm_v0"} 2
hpcdash_cache_requests_total{source="squeue"} 6
hpcdash_retry_attempts_total{source="squeue"} 3
hpcdash_retry_exhausted_total{source="squeue"} 2
hpcdash_stale_serves_total{source="squeue"} 3
"#;

    /// `/api/health` (status and body) and every `/api/metrics` sample
    /// labelled by a source.
    fn scrape(d: &Dashboard) -> String {
        let health = d.handle(&Request::new(Method::Get, "/api/health"));
        let metrics = d
            .handle(&Request::new(Method::Get, "/api/metrics"))
            .body_string();
        let mut out = format!("{} {}\n", health.status, health.body_string());
        for line in metrics.lines().filter(|l| l.contains("source=\"")) {
            out += line;
            out.push('\n');
        }
        out
    }

    /// `/api/health` and the per-source `/api/metrics` samples through one
    /// scripted mix, pinned byte for byte: a widget source retried into an
    /// open breaker, then half-open, then closed; an ablation (`ttl = 0`)
    /// source with failures, which has health but no breaker; a federated
    /// site, which has a breaker but no health; and plain lookups.
    #[test]
    fn a_breaker_cycle_reads_the_same_in_health_and_metrics() {
        let mut cfg = DashboardConfig::generic("Test");
        // No wall-clock backoff, so no request can meet its deadline.
        cfg.resilience.backoff_base_ms = 0;
        cfg.resilience.backoff_cap_ms = 0;
        let (ctx, clock) = test_ctx_clocked_with(cfg);
        let d = Dashboard::new(ctx.clone());
        let ok = || Ok(encode(&json!({"jobs": 1})));
        let fail = || Err::<Vec<u8>, _>("squeue down".to_string());
        // A fill and a hit, then three failing requests past the TTL: five
        // failed attempts open the breaker mid-retry, and the third request
        // is short-circuited. Each is served stale.
        ctx.cached_resilient("squeue:alice", 30, ok);
        ctx.cached_resilient("squeue:alice", 30, ok);
        clock.advance(31);
        for _ in 0..3 {
            ctx.cached_resilient("squeue:alice", 30, fail);
        }
        for ok in [true, true, true, false, false] {
            ctx.cached_resilient("sinfo:all", 0, || {
                if ok {
                    Ok(encode(&json!({"nodes": 4})))
                } else {
                    Err("sinfo down".to_string())
                }
            });
        }
        // What the federation fan-out does for a site that failed once.
        assert!(ctx.breakers.allow("fed@beta"));
        ctx.breakers.record_failure("fed@beta");
        assert!(ctx.cache_lookup("slurm_v0:jobs|alice", 1).is_none());
        let store = ctx.cache.cache();
        store.insert("slurm_v0:jobs|alice", Body::json(&json!([])), 1, NO_TTL);
        assert!(ctx.cache_lookup("slurm_v0:jobs|alice", 1).is_some());
        assert_eq!(scrape(&d), OPEN);
        clock.advance(30);
        assert_eq!(scrape(&d), HALF_OPEN);
        // The probe succeeds and closes the breaker.
        ctx.cached_resilient("squeue:alice", 30, ok);
        assert_eq!(scrape(&d), CLOSED);
    }
}
