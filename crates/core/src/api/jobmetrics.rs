//! Job Performance Metrics API (paper §5): aggregate job statistics over a
//! selectable time range, including a custom date range.

use crate::api::encode;
use crate::auth::CurrentUser;
use crate::ctx::DashboardContext;
use crate::metrics::{JobMetrics, TimeRange};
use hpcdash_cache::Body;
use hpcdash_http::{Request, Response, Router};
use hpcdash_slurmcli::{parse_sacct, sacct, SacctArgs};
use serde::Serialize;
use serde_json::json;

pub const FEATURE: &str = "Job Performance Metrics";
pub const ROUTES: &[&str] = &["/api/jobmetrics"];
pub const SOURCES: &[&str] = &[
    "sacct (slurmdbd)",
    "squeue (slurmctld)",
    "telemetryd (metrics collector)",
];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

/// The cached half of the payload; `"live_jobs"` is spliced in per request
/// ([`with_live_jobs`]).
#[derive(Serialize)]
struct RangeMetrics {
    range: String,
    metrics: JobMetrics,
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    let user = match CurrentUser::from_request(ctx, req) {
        Ok(u) => u,
        Err(resp) => return resp,
    };
    let Some(range) = TimeRange::from_query(
        req.query_param("range"),
        req.query_param("start"),
        req.query_param("end"),
    ) else {
        return Response::bad_request("invalid range");
    };
    // Keyed on the range *selector*: a window relative to `now` would make
    // a new key every simulated second and the TTL would never hit.
    let key = format!("jobmetrics:{}:{range:?}", user.username);
    let outcome = ctx.cached_resilient(&key, ctx.cfg.cache.jobmetrics, || {
        ctx.note_source(FEATURE, "sacct (slurmdbd)");
        let now = ctx.now();
        let (since, until) = range.window(now);
        let text = sacct(
            &ctx.dbd,
            &SacctArgs {
                user: Some(user.username.clone()),
                // Metrics are personal: only the user's own jobs.
                accounts: Vec::new(),
                states: None,
                since,
                until,
                job_ids: None,
            },
            now,
        )?;
        let records = parse_sacct(&text).map_err(|e| format!("sacct parse: {e}"))?;
        Ok(encode(&RangeMetrics {
            range: range.label(),
            metrics: JobMetrics::aggregate(&records),
        }))
    });
    // The live strip: running jobs with their recent collector series,
    // cached on the faster telemetry (squeue-tier) TTL so the sparklines
    // track the queue rather than the metrics range.
    // The sparkline strip is a bonus column: if telemetry is down, the
    // metrics page still renders, just without live series.
    let live = ctx.cached_resilient(
        &format!("telemetry:live:{}", user.username),
        ctx.cfg.cache.telemetry,
        || {
            Ok(crate::api::jobtelemetry::live_jobs_payload(
                ctx,
                FEATURE,
                &user.username,
            ))
        },
    );
    let live = live
        .body()
        .cloned()
        .unwrap_or_else(|| Body::json(&json!({"window_secs": 0, "jobs": []})));
    super::respond(outcome.map_body(|metrics| with_live_jobs(&metrics, &live)))
}

/// The response object — the metrics payload with `"live_jobs"` set —
/// spliced from the two cached bodies without decoding either. Object keys
/// serialize sorted and `"live_jobs"` sorts before both keys of the metrics
/// payload (`"metrics"`, `"range"`), so the new member goes right after the
/// opening brace and the result is byte-identical to inserting into the
/// parsed value and re-encoding.
fn with_live_jobs(metrics: &Body, live: &Body) -> Body {
    const KEY: &[u8] = b"{\"live_jobs\":";
    let mut bytes = Vec::with_capacity(KEY.len() + live.bytes.len() + metrics.bytes.len());
    bytes.extend_from_slice(KEY);
    bytes.extend_from_slice(&live.bytes);
    bytes.push(b',');
    bytes.extend_from_slice(&metrics.bytes[1..]);
    // With the cache off neither part has a validator; nor has the whole.
    match metrics.validator() {
        Some(_) => Body::new(bytes),
        None => Body::unvalidated(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::{test_ctx, test_ctx_clocked};
    use hpcdash_http::Method;
    use hpcdash_slurm::job::{JobRequest, UsageProfile};
    use serde_json::Value;
    use std::sync::Arc;

    fn request(path: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", "alice")
    }

    #[test]
    fn aggregates_user_jobs() {
        let ctx = test_ctx();
        let mut r = JobRequest::simple("alice", "physics", "cpu", 4);
        r.usage = UsageProfile::batch(300);
        ctx.ctld.submit(r).unwrap();
        ctx.ctld.tick();
        let resp = handle(&ctx, &request("/api/jobmetrics?range=7d"));
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        assert_eq!(body["range"], "Last 7 days");
        assert_eq!(body["metrics"]["total_jobs"], 1);
        assert_eq!(body["metrics"]["by_state"]["RUNNING"], 1);
        let live = body["live_jobs"]["jobs"].as_array().unwrap();
        assert_eq!(live.len(), 1, "running job appears in the live strip");
        assert!(live[0]["series"]["cpu"].is_array());
    }

    #[test]
    fn spliced_body_is_byte_identical_to_the_value_built_one() {
        let (ctx, clock) = test_ctx_clocked();
        let mut r = JobRequest::simple("alice", "physics", "cpu", 4);
        r.usage = UsageProfile::batch(24 * 3_600);
        ctx.ctld.submit(r).unwrap();
        ctx.ctld.tick();
        for _ in 0..5 {
            clock.advance(30);
            ctx.ctld.tick();
            ctx.telemetry.collect_now();
        }
        let req = request("/api/jobmetrics?range=7d");
        let fill = handle(&ctx, &req);
        assert_eq!(fill.status, 200);

        // The reference: what the route did before it spliced — decode both
        // cached sources, set the member, encode the whole.
        let cached = |key: &str| -> Value {
            let body = ctx.cache.cache().last_good(key).expect(key).value;
            serde_json::from_slice(&body.bytes).unwrap()
        };
        let mut whole = cached("jobmetrics:alice:Last7d");
        whole["live_jobs"] = cached("telemetry:live:alice");
        assert!(!whole["live_jobs"]["jobs"].as_array().unwrap().is_empty());
        assert_eq!(fill.body, serde_json::to_vec(&whole).unwrap());

        // A hit splices the same two cached bodies: same bytes, same ETag.
        let hit = handle(&ctx, &req);
        assert_eq!(hit.body, fill.body);
        assert!(fill.header("etag").is_some());
        assert_eq!(hit.header("etag"), fill.header("etag"));

        // Accounting goes dark after the TTL: the stale form is the same
        // object plus the degradation members, and carries no validator.
        clock.advance(ctx.cfg.cache.jobmetrics + 1);
        ctx.dbd.faults().install(
            Arc::new(
                hpcdash_faults::FaultPlan::new(1).rule(hpcdash_faults::FaultRule::error(
                    "slurmdbd", "*", "dbd down",
                )),
            ),
            ctx.clock.clone(),
        );
        let stale = handle(&ctx, &req);
        assert_eq!(stale.status, 200);
        assert!(stale.header("etag").is_none());
        let error = stale.body_json().unwrap()["stale_error"].clone();
        assert!(error.as_str().unwrap().contains("dbd down"), "{error}");
        whole["live_jobs"] = cached("telemetry:live:alice");
        whole["degraded"] = json!(true);
        whole["stale_age_secs"] = json!(ctx.cfg.cache.jobmetrics + 1);
        whole["stale_error"] = error;
        assert_eq!(stale.body, serde_json::to_vec(&whole).unwrap());
    }

    #[test]
    fn custom_range_parses() {
        let ctx = test_ctx();
        let resp = handle(
            &ctx,
            &request(
                "/api/jobmetrics?range=custom&start=1970-01-01T00:00:00&end=2030-01-01T00:00:00",
            ),
        );
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_json().unwrap()["metrics"]["total_jobs"], 0);
        assert_eq!(
            handle(&ctx, &request("/api/jobmetrics?range=custom")).status,
            400
        );
    }
}
