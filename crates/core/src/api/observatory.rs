//! The admin observatory API: stored request traces, the dashboard's
//! own metrics history, and the SLO/breaker/profiler summary behind the
//! `/observatory` page.
//!
//! All four routes are operator surface, gated exactly like the admin job
//! controls: callers outside the configured admin list get 403 regardless
//! of what they ask for. The trace routes serve straight from the
//! in-memory [`TraceStore`](hpcdash_obs::tracestore::TraceStore) — caching
//! a debugging view of "what just failed" would only hide the failure.

// The observatory bodies are still built as value trees.
#![allow(clippy::disallowed_types, clippy::disallowed_macros)]

use crate::auth::CurrentUser;
use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use hpcdash_obs::trace::TraceId;
use hpcdash_obs::tracestore::{self, RetainCause, StoredTrace};
use hpcdash_obs::{Histogram, SampleValue};
use serde_json::{json, Value};

pub const FEATURE: &str = "Observatory (admin observability)";
pub const ROUTES: &[&str] = &[
    "/api/observatory",
    "/api/traces",
    "/api/traces/:id",
    "/api/obs/series",
];

/// Default `/api/traces` page size; `?limit=` is capped at the store size.
const DEFAULT_TRACE_LIMIT: usize = 50;
/// Default `/api/obs/series` window (seconds) and step when unspecified.
const DEFAULT_SERIES_WINDOW: i64 = 1_800;
const DEFAULT_SERIES_RESOLUTION: i64 = 30;
/// The availability objective the error-budget summary is computed against.
const SLO_AVAILABILITY: f64 = 0.999;

pub fn register(router: &mut Router, ctx: DashboardContext) {
    let c1 = ctx.clone();
    let c2 = ctx.clone();
    let c3 = ctx.clone();
    router.get(ROUTES[0], move |req| handle_summary(&ctx, req));
    router.get(ROUTES[1], move |req| handle_traces(&c1, req));
    router.get(ROUTES[2], move |req| handle_trace(&c2, req));
    router.get(ROUTES[3], move |req| handle_series(&c3, req));
}

fn require_admin(ctx: &DashboardContext, req: &Request) -> Result<(), Response> {
    let user = CurrentUser::from_request(ctx, req)?;
    if !user.is_admin {
        return Err(Response::forbidden("administrator access required"));
    }
    Ok(())
}

/// Per-route request/error totals and latency read back out of the metrics
/// registry — the SLO board's raw material.
fn slo_rows(ctx: &DashboardContext) -> Vec<Value> {
    let mut requests: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut latency: std::collections::BTreeMap<String, Value> = std::collections::BTreeMap::new();
    ctx.obs.visit(|s| {
        let Some(route) = s.labels.get("route") else {
            return;
        };
        let route = route.to_string();
        match (s.name, s.value) {
            ("hpcdash_http_responses_total", SampleValue::Counter(v)) => {
                let e = requests.entry(route).or_default();
                e.0 += v;
                if s.labels.get("class") == Some("5xx") {
                    e.1 += v;
                }
            }
            ("hpcdash_http_request_latency", SampleValue::Summary(h)) => {
                latency.insert(
                    route,
                    json!({
                        "count": h.count,
                        "p50_ns": h.p50_ns,
                        "p99_ns": h.p99_ns,
                        "max_ns": h.max_ns,
                        "p99_exemplar": s.exemplar.map(|t| t.to_hex()),
                    }),
                );
            }
            _ => {}
        }
    });
    requests
        .into_iter()
        .map(|(route, (total, errors))| {
            let availability = if total == 0 {
                1.0
            } else {
                1.0 - errors as f64 / total as f64
            };
            // Fraction of the error budget burned: 1.0 means the objective
            // is exactly exhausted, >1.0 means the route is out of budget.
            let budget = (total as f64 * (1.0 - SLO_AVAILABILITY)).max(f64::MIN_POSITIVE);
            json!({
                "route": route,
                "requests": total,
                "errors": errors,
                "availability": availability,
                "objective": SLO_AVAILABILITY,
                "budget_burned": errors as f64 / budget,
                "latency": latency.get(&route).cloned().unwrap_or(Value::Null),
            })
        })
        .collect()
}

/// One row per phase that has run, in phase-name order.
fn phase_rows(phases: &[(&str, &Histogram)]) -> Vec<Value> {
    phases
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(phase, h)| {
            let (count, total_ns) = (h.count(), h.sum_ns());
            json!({
                "phase": phase,
                "count": count,
                "total_ns": total_ns,
                "mean_ns": total_ns / count,
                "max_ns": h.max_ns(),
            })
        })
        .collect()
}

/// The act-as audit table: every admin→target identity switch recorded by
/// `hpcdash_act_as_total`, whether it came through the `X-Act-As` header or
/// an `admin-act-as` token on `/slurm/v0`.
fn act_as_rows(ctx: &DashboardContext) -> Vec<Value> {
    let mut rows = Vec::new();
    ctx.obs.visit(|s| {
        if let ("hpcdash_act_as_total", SampleValue::Counter(v)) = (s.name, s.value) {
            let label = |key: &str| s.labels.get(key).unwrap_or_default();
            rows.push(json!({
                "admin": label("admin"),
                "target": label("target"),
                "count": v,
            }));
        }
    });
    rows
}

/// The event-loop frontend panel: connection counts by state, shed and
/// 304-revalidation totals, and per-loop-thread lag (µs by which the last
/// connection deadline the thread took was late: how long due work waited
/// for a free thread), read back out of the registry the HTTP server writes
/// into.
fn http_rows(ctx: &DashboardContext) -> Value {
    let mut connections = serde_json::Map::new();
    let mut reactor_lag = serde_json::Map::new();
    let mut sheds = 0u64;
    let mut not_modified = 0u64;
    ctx.obs.visit(|s| {
        let label = |key: &str| s.labels.get(key).unwrap_or_default().to_string();
        match (s.name, &s.value) {
            ("hpcdash_http_connections", SampleValue::Gauge(v)) => {
                connections.insert(label("state"), json!(v));
            }
            ("hpcdash_http_reactor_loop_lag_us", SampleValue::Gauge(v)) => {
                reactor_lag.insert(label("reactor"), json!(v));
            }
            ("hpcdash_http_sheds_total", SampleValue::Counter(v)) => sheds += v,
            ("hpcdash_http_304_total", SampleValue::Counter(v)) => not_modified += v,
            _ => {}
        }
    });
    json!({
        "connections": Value::Object(connections),
        "sheds": sheds,
        "not_modified": not_modified,
        "reactor_lag_us": Value::Object(reactor_lag),
    })
}

/// The `/api/observatory` payload: everything the page's widgets need in
/// one round trip.
pub(crate) fn summary_payload(ctx: &DashboardContext) -> Value {
    let store = tracestore::store();
    let stats = store.stats();
    let breakers: Vec<Value> = ctx
        .breakers
        .snapshot()
        .into_iter()
        .filter_map(|s| {
            let b = s.breaker?;
            Some(json!({
                "source": s.source,
                "cluster": b.cluster,
                "state": b.state.as_str(),
                "consecutive_failures": b.consecutive_failures,
                "opens": b.opens,
            }))
        })
        .collect();
    let mut phases = serde_json::Map::new();
    phases.insert(
        "slurmctld".to_string(),
        Value::Array(phase_rows(&ctx.ctld.phases())),
    );
    phases.insert(
        "slurmdbd".to_string(),
        Value::Array(phase_rows(&ctx.dbd.phases())),
    );
    phases.insert(
        "telemetryd".to_string(),
        Value::Array(phase_rows(&ctx.telemetry.phases())),
    );
    let by_cause: serde_json::Map = RetainCause::ALL
        .iter()
        .map(|c| {
            (
                c.label().to_string(),
                json!(stats.retained_by_cause[c.index()]),
            )
        })
        .collect();
    json!({
        "slo": slo_rows(ctx),
        "act_as": act_as_rows(ctx),
        "http": http_rows(ctx),
        "daemons": crate::api::health::daemons_payload(ctx),
        "breakers": breakers,
        "phases": Value::Object(phases),
        "traces": {
            "retained": stats.retained_total(),
            "retained_current": stats.retained_current,
            "by_cause": Value::Object(by_cause),
            "evicted": stats.evicted,
            "late_spans": stats.late_spans,
        },
    })
}

fn handle_summary(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = require_admin(ctx, req) {
        return resp;
    }
    let outcome = ctx.cached_resilient("observatory:summary", ctx.cfg.cache.observatory, || {
        Ok(super::encode(&summary_payload(ctx)))
    });
    super::respond(outcome)
}

/// One row of the slowest/errored-traces table.
fn trace_row(t: &StoredTrace) -> Value {
    json!({
        "id": t.id.to_hex(),
        "cause": t.cause.label(),
        "route": t.route,
        "status": t.note("status"),
        "outcome": t.note("outcome"),
        "root_dur_ns": t.root_dur_ns,
        "spans": t.spans.len(),
        "truncated": t.truncated,
    })
}

fn handle_traces(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = require_admin(ctx, req) {
        return resp;
    }
    let limit = req
        .query_param("limit")
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_TRACE_LIMIT);
    let store = tracestore::store();
    let traces: Vec<Value> = store.recent(limit).iter().map(trace_row).collect();
    let stats = store.stats();
    Response::json(&json!({
        "traces": traces,
        "retained_current": stats.retained_current,
        "retained": stats.retained_total(),
    }))
}

/// The accessible waterfall payload: spans root-first, each with its offset
/// from the trace's first span, so the page can render proportional bars
/// and a plain table from the same rows.
fn waterfall(t: &StoredTrace) -> Vec<Value> {
    let t0 = t.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    t.spans
        .iter()
        .map(|s| {
            json!({
                "name": s.name,
                "depth": s.depth,
                "start_offset_ns": s.start_ns.saturating_sub(t0),
                "dur_ns": s.dur_ns,
                "attrs": s.attrs.iter().map(|(k, v)| ((*k).to_string(), json!(v)))
                    .collect::<serde_json::Map>(),
            })
        })
        .collect()
}

fn handle_trace(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = require_admin(ctx, req) {
        return resp;
    }
    let Some(id) = req.param("id").and_then(TraceId::from_hex) else {
        return Response::bad_request("invalid trace id");
    };
    let Some(t) = tracestore::store().get(id) else {
        return Response::not_found("no stored trace with that id");
    };
    Response::json(&json!({
        "id": t.id.to_hex(),
        "cause": t.cause.label(),
        "route": t.route,
        "root_dur_ns": t.root_dur_ns,
        "notes": t.notes.iter().cloned().collect::<std::collections::BTreeMap<String, String>>(),
        "truncated": t.truncated,
        "spans": waterfall(&t),
    }))
}

fn handle_series(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = require_admin(ctx, req) {
        return resp;
    }
    let Some(name) = req.query_param("name") else {
        return Response::bad_request("missing series name");
    };
    // Only the dashboard's own scraped metrics are served here; job/node
    // series stay behind the privacy-filtered telemetry routes.
    if !name.starts_with("self:") {
        return Response::bad_request("series name must start with self:");
    }
    let name = name.to_string();
    let now = ctx.now().as_secs() as i64;
    let end = req
        .query_param("end")
        .and_then(|s| s.parse().ok())
        .unwrap_or(now + 1);
    let start = req
        .query_param("start")
        .and_then(|s| s.parse().ok())
        .unwrap_or(end - DEFAULT_SERIES_WINDOW);
    let resolution = req
        .query_param("resolution")
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SERIES_RESOLUTION)
        .max(1);
    let (points, tier) = ctx.telemetry.query_range(&name, start, end, resolution);
    Response::json(&json!({
        "name": name,
        "start": start,
        "end": end,
        "resolution_secs": resolution,
        "tier": tier.label(),
        "points": points.iter().map(|p| json!([p.t, p.mean])).collect::<Vec<_>>(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::admin::tests::admin_ctx;
    use hpcdash_http::Method;

    fn get(path: &str, user: &str) -> Request {
        Request::new(Method::Get, path).with_header("X-Remote-User", user)
    }

    #[test]
    fn all_routes_are_admin_gated() {
        let ctx = admin_ctx();
        for route in ROUTES {
            let resp = match *route {
                "/api/traces/:id" => {
                    let mut r = get("/api/traces/1f", "alice");
                    r.params.insert("id".to_string(), "1f".to_string());
                    handle_trace(&ctx, &r)
                }
                "/api/observatory" => handle_summary(&ctx, &get(route, "alice")),
                "/api/traces" => handle_traces(&ctx, &get(route, "alice")),
                _ => handle_series(&ctx, &get(route, "alice")),
            };
            assert_eq!(resp.status, 403, "{route} must be admin-only");
        }
    }

    #[test]
    fn summary_reports_slo_breakers_and_phases() {
        let ctx = admin_ctx();
        // Give the SLO board some traffic to summarize.
        ctx.obs
            .counter(
                "hpcdash_http_responses_total",
                &[("route", "/api/myjobs"), ("class", "2xx")],
            )
            .add(99);
        ctx.obs
            .counter(
                "hpcdash_http_responses_total",
                &[("route", "/api/myjobs"), ("class", "5xx")],
            )
            .inc();
        ctx.obs
            .histogram("hpcdash_http_request_latency", &[("route", "/api/myjobs")])
            .observe_ns(1_000_000);
        ctx.ctld.tick();
        let resp = handle_summary(&ctx, &get("/api/observatory", "root"));
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let body = resp.body_json().unwrap();
        let slo = body["slo"].as_array().unwrap();
        let row = slo
            .iter()
            .find(|r| r["route"] == "/api/myjobs")
            .expect("myjobs SLO row");
        assert_eq!(row["requests"], 100);
        assert_eq!(row["errors"], 1);
        assert!((row["availability"].as_f64().unwrap() - 0.99).abs() < 1e-9);
        assert!(row["budget_burned"].as_f64().unwrap() > 1.0, "over budget");
        let phases = body["phases"]["slurmctld"].as_array().unwrap();
        assert!(
            phases.iter().any(|p| p["phase"] == "sched_pass"),
            "tick profiled: {phases:?}"
        );
    }

    #[test]
    fn summary_surfaces_act_as_audit() {
        let ctx = admin_ctx();
        crate::auth::note_act_as(&ctx, "root", "alice");
        crate::auth::note_act_as(&ctx, "root", "alice");
        crate::auth::note_act_as(&ctx, "root", "bob");
        let body = handle_summary(&ctx, &get("/api/observatory", "root"))
            .body_json()
            .unwrap();
        let rows = body["act_as"].as_array().unwrap().clone();
        assert_eq!(rows.len(), 2, "{rows:?}");
        let alice = rows
            .iter()
            .find(|r| r["target"] == "alice")
            .expect("alice row");
        assert_eq!(alice["admin"], "root");
        assert_eq!(alice["count"], 2);
    }

    #[test]
    fn series_route_validates_name_and_serves_self_series() {
        let ctx = admin_ctx();
        let resp = handle_series(&ctx, &get("/api/obs/series", "root"));
        assert_eq!(resp.status, 400, "name is required");
        let resp = handle_series(&ctx, &get("/api/obs/series?name=job:1:cpu", "root"));
        assert_eq!(resp.status, 400, "job series are not served here");
        // Scrape the registry once so a self: series exists.
        ctx.obs.gauge("hpcdash_sched_queue_depth", &[]).set(3);
        ctx.telemetry.collect_now();
        let resp = handle_series(
            &ctx,
            &get(
                "/api/obs/series?name=self:hpcdash_sched_queue_depth&resolution=30",
                "root",
            ),
        );
        assert_eq!(resp.status, 200, "{}", resp.body_string());
        let body = resp.body_json().unwrap();
        assert_eq!(body["name"], "self:hpcdash_sched_queue_depth");
        assert_eq!(
            body["points"].as_array().unwrap().len(),
            1,
            "one collection pass, one point: {body}"
        );
    }

    #[test]
    fn unknown_or_invalid_trace_ids() {
        let ctx = admin_ctx();
        let mut r = get("/api/traces/zz", "root");
        r.params.insert("id".to_string(), "zz".to_string());
        assert_eq!(handle_trace(&ctx, &r).status, 400);
        let mut r = get("/api/traces/deadbeef99", "root");
        r.params.insert("id".to_string(), "deadbeef99".to_string());
        assert_eq!(handle_trace(&ctx, &r).status, 404);
    }
}
