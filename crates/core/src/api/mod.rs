//! The backend API routes — one module per dashboard feature, each pairing
//! with exactly one frontend component (the paper's modularity rule, §2.3).
//!
//! Every module declares its `FEATURE` name and `SOURCES` (the data sources
//! of the paper's Table 1); [`feature_table`] assembles the declared table,
//! and `DashboardContext::observed_sources` records what each feature
//! actually touched at runtime so the Table-1 harness can verify the two
//! agree.

pub mod accounts;
pub mod activejobs;
pub mod admin;
pub mod announcements;
pub mod clusterstatus;
pub mod federation;
pub mod health;
pub mod jobmetrics;
pub mod joboverview;
pub mod jobtelemetry;
pub mod metrics;
pub mod myjobs;
pub mod nodeoverview;
pub mod observatory;
pub mod recent_jobs;
pub mod slurmrest;
pub mod storage;
pub mod system_status;
pub mod updates;

use crate::ctx::{DashboardContext, SourceOutcome};
use hpcdash_cache::Body;
use hpcdash_http::{Request, Response, Router};
use std::sync::Arc;

/// 200 with already-serialized JSON bytes and no validator: the form stale
/// and degraded payloads go out in, so they are never revalidated as if
/// they were current.
pub(crate) fn json_bytes(bytes: Arc<[u8]>) -> Response {
    Response::new(200)
        .with_header("Content-Type", "application/json")
        .with_body(bytes)
}

/// 200 with a current payload straight from the cache: the shared bytes
/// plus their `ETag`, which the router's conditional-GET step turns into a
/// 304 when the client already holds it.
pub(crate) fn fresh(body: Body) -> Response {
    let resp = json_bytes(body.bytes);
    // Only the no-cache ablation builds bodies without a validator.
    if body.etag.is_empty() {
        resp
    } else {
        resp.with_header("ETag", &body.etag)
    }
}

/// Turn a resilient fetch outcome into the widget's HTTP response — the
/// single place the per-widget degradation contract is encoded:
///
/// * `Fresh` — 200, the cached bytes as they are, with their `ETag`.
/// * `Stale` — 200, payload annotated with `"degraded": true`,
///   `"stale_age_secs"`, and `"stale_error"` so the frontend can render the
///   accessible "showing data from N min ago" notice instead of silently
///   presenting old numbers as current. The one path that re-parses the
///   cached bytes; it carries no `ETag`.
/// * `Failed` — 503 with the error; only this widget goes dark.
pub(crate) fn respond(outcome: SourceOutcome) -> Response {
    match outcome {
        SourceOutcome::Fresh(body) => fresh(body),
        SourceOutcome::Stale {
            body,
            age_secs,
            error,
        } => {
            // Note the degradation outcome on the current trace: tail
            // sampling retains every trace whose request was served stale
            // or failed, even though both can answer 200/503 — the status
            // alone can't tell the trace store a stale serve happened.
            hpcdash_obs::tracestore::annotate("outcome", "degraded");
            // Every route payload is a JSON object; anything else is served
            // unannotated rather than re-shaped under the client's feet.
            match serde_json::from_slice(&body.bytes) {
                Ok(serde_json::Value::Object(mut obj)) => {
                    obj.insert("degraded".to_string(), serde_json::json!(true));
                    obj.insert("stale_age_secs".to_string(), serde_json::json!(age_secs));
                    obj.insert("stale_error".to_string(), serde_json::json!(error));
                    Response::json(&serde_json::Value::Object(obj))
                }
                _ => json_bytes(body.bytes),
            }
        }
        SourceOutcome::Failed(e) => {
            hpcdash_obs::tracestore::annotate("outcome", "failed");
            Response::service_unavailable(&e)
        }
    }
}

/// A per-viewer cached route: one whose payload depends on who asks and is
/// rebuilt from backends on every miss (a job overview, one federation
/// slice), so it has no data-source key to share between viewers.
///
/// The lookup runs *before* `build` — and so before any authorization in
/// it — keyed on everything that can change the bytes: the concrete path,
/// the authenticated identity with its admin bit, any `X-Act-As`
/// impersonation, and the query string. That is safe because an entry only
/// exists if the same viewer was answered 200 for the same path. An entry
/// is fresh while `version` (the publishing cluster's snapshot seq) has not
/// moved and it is younger than `ttl`; a TTL of zero (the no-cache
/// ablation) and anonymous requests bypass the cache. `build` returns the
/// payload and whether it may be stored (degraded payloads must keep
/// re-reporting their growing age), or the error response to send.
pub(crate) fn per_viewer<T: serde::Serialize>(
    ctx: &DashboardContext,
    req: &Request,
    source: &str,
    ttl: u64,
    version: u64,
    build: impl FnOnce() -> Result<(T, bool), Response>,
) -> Response {
    let key = req.remote_user().filter(|_| ttl > 0).map(|user| {
        let is_admin = ctx.cfg.is_admin(user);
        let mut key = format!(
            "{source}:{}|{}{user}",
            req.path,
            if is_admin { "admin:" } else { "user:" }
        );
        if let Some(target) = req.header("x-act-as").filter(|_| is_admin) {
            key.push_str("|act:");
            key.push_str(target);
        }
        for (k, v) in &req.query {
            key.push_str(&format!("|{k}={v}"));
        }
        key
    });
    if let Some(body) = key.as_ref().and_then(|k| ctx.cache_lookup(k, version)) {
        return fresh(body);
    }
    match (build(), key) {
        (Err(resp), _) => resp,
        (Ok((payload, true)), Some(key)) => {
            let body = Body::json(&payload);
            ctx.cache.cache().insert(key, body.clone(), version, ttl);
            fresh(body)
        }
        (Ok((payload, _)), _) => Response::json(&payload),
    }
}

/// One row of the (declared) Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureInfo {
    pub feature: &'static str,
    pub routes: &'static [&'static str],
    pub sources: &'static [&'static str],
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

/// Register every feature's API route(s).
pub fn register_all(router: &mut Router, ctx: &DashboardContext) {
    announcements::register(router, ctx.clone());
    recent_jobs::register(router, ctx.clone());
    system_status::register(router, ctx.clone());
    accounts::register(router, ctx.clone());
    storage::register(router, ctx.clone());
    myjobs::register(router, ctx.clone());
    jobmetrics::register(router, ctx.clone());
    clusterstatus::register(router, ctx.clone());
    joboverview::register(router, ctx.clone());
    nodeoverview::register(router, ctx.clone());
    // Beyond Table 1: the OOD baseline app (for the paper's §4 comparison),
    // the real-time updates feed, the admin job controls (§9 future work,
    // implemented), and the collector-backed job telemetry series.
    activejobs::register(router, ctx.clone());
    updates::register(router, ctx.clone());
    admin::register(router, ctx.clone());
    jobtelemetry::register(router, ctx.clone());
    // Observability endpoints (not dashboard widgets): metrics exposition
    // and data-source health.
    metrics::register(router, ctx.clone());
    health::register(router, ctx.clone());
    // The admin observatory: stored traces, self-metrics history, and the
    // SLO/breaker/profiler summary behind the `/observatory` page.
    observatory::register(router, ctx.clone());
    // The `/slurm/v0` structured family (token-scoped, snapshot-serialized).
    slurmrest::register(router, ctx.clone());
    // Multi-cluster federation: cross-site aggregates with honest per-site
    // degradation, plus cluster-scoped slices.
    federation::register(router, ctx.clone());
}

/// The declared feature -> data-source table (the paper's Table 1).
pub fn feature_table() -> Vec<FeatureInfo> {
    vec![
        FeatureInfo {
            feature: announcements::FEATURE,
            routes: announcements::ROUTES,
            sources: announcements::SOURCES,
        },
        FeatureInfo {
            feature: recent_jobs::FEATURE,
            routes: recent_jobs::ROUTES,
            sources: recent_jobs::SOURCES,
        },
        FeatureInfo {
            feature: system_status::FEATURE,
            routes: system_status::ROUTES,
            sources: system_status::SOURCES,
        },
        FeatureInfo {
            feature: accounts::FEATURE,
            routes: accounts::ROUTES,
            sources: accounts::SOURCES,
        },
        FeatureInfo {
            feature: storage::FEATURE,
            routes: storage::ROUTES,
            sources: storage::SOURCES,
        },
        FeatureInfo {
            feature: myjobs::FEATURE,
            routes: myjobs::ROUTES,
            sources: myjobs::SOURCES,
        },
        FeatureInfo {
            feature: jobmetrics::FEATURE,
            routes: jobmetrics::ROUTES,
            sources: jobmetrics::SOURCES,
        },
        FeatureInfo {
            feature: clusterstatus::FEATURE,
            routes: clusterstatus::ROUTES,
            sources: clusterstatus::SOURCES,
        },
        FeatureInfo {
            feature: joboverview::FEATURE,
            routes: joboverview::ROUTES,
            sources: joboverview::SOURCES,
        },
        FeatureInfo {
            feature: nodeoverview::FEATURE,
            routes: nodeoverview::ROUTES,
            sources: nodeoverview::SOURCES,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_ten_features_like_the_paper() {
        let table = feature_table();
        assert_eq!(table.len(), 10, "Table 1 lists ten features");
        for row in &table {
            assert!(!row.sources.is_empty(), "{} has no sources", row.feature);
            assert!(!row.routes.is_empty(), "{} has no routes", row.feature);
        }
    }

    #[test]
    fn slurm_backed_features_name_their_command() {
        let table = feature_table();
        let my_jobs = table
            .iter()
            .find(|r| r.feature.contains("My Jobs"))
            .unwrap();
        assert!(my_jobs.sources.iter().any(|s| s.contains("sacct")));
        let status = table
            .iter()
            .find(|r| r.feature.contains("System Status"))
            .unwrap();
        assert!(status.sources.iter().any(|s| s.contains("sinfo")));
    }
}
