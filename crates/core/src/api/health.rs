//! Health exposition: per-data-source up/degraded/down derived from recent
//! loader outcomes, plus an overall verdict (the worst source wins).
//!
//! Distinct from `/healthz` (process liveness): this route reports whether
//! the *data sources* behind the dashboard are answering.

// The health body is still built as a value tree.
#![allow(clippy::disallowed_types, clippy::disallowed_macros)]

use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use hpcdash_obs::health::HealthStatus;

pub const ROUTE: &str = "/api/health";

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTE, move |req| handle(&ctx, req));
}

fn handle(ctx: &DashboardContext, _req: &Request) -> Response {
    // React to any crash-recovery before reporting, so the restart counts
    // and purges below are already reflected in what this body describes.
    ctx.observe_recoveries();
    let report = ctx.health.report();
    let mut body = report.to_json();
    // Daemon liveness and crash-recovery accounting: is each simulated
    // daemon up, how often has it restarted, and what did the last
    // checkpoint+WAL recovery replay vs lose.
    body["daemons"] = daemons_payload(ctx);
    // Circuit-breaker states ride along: operators reading /api/health see
    // not just that a source is down but whether the dashboard has stopped
    // asking it (open) or is probing for recovery (half_open).
    body["breakers"] = ctx
        .breakers
        .snapshots()
        .into_iter()
        .map(|s| {
            let mut entry = serde_json::json!({
                "state": s.state.as_str(),
                "consecutive_failures": s.consecutive_failures,
                "opens": s.opens,
            });
            // Federated sources (`fed@<cluster>`) say which site they guard,
            // so a stuck-open breaker is attributable to a cluster.
            if let Some(cluster) = s.cluster {
                entry["cluster"] = cluster.into();
            }
            (s.source, entry)
        })
        .collect::<serde_json::Map>()
        .into();
    let resp = Response::json(&body);
    match report.overall {
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
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;

    fn request() -> Request {
        Request::new(Method::Get, "/api/health")
    }

    #[test]
    fn all_up_when_sources_answer() {
        let ctx = test_ctx();
        ctx.health.record_ok("squeue");
        ctx.health.record_ok("sinfo");
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["status"], "up");
        assert_eq!(body["sources"]["squeue"]["status"], "up");
    }

    #[test]
    fn down_source_drives_overall_and_status_code() {
        let ctx = test_ctx();
        ctx.health.record_ok("sinfo");
        for _ in 0..3 {
            ctx.health.record_error("squeue");
        }
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 503);
        let body = resp.body_json().unwrap();
        assert_eq!(body["status"], "down");
        assert_eq!(body["sources"]["squeue"]["status"], "down");
        assert_eq!(body["sources"]["sinfo"]["status"], "up");
    }

    #[test]
    fn breaker_states_ride_along() {
        let ctx = test_ctx();
        ctx.health.record_ok("sinfo");
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
        ctx.health.record_ok("sinfo");
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
        ctx.health.record_ok("sinfo");
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
}
