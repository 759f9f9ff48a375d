//! The backend API routes — one module per dashboard feature, each pairing
//! with exactly one frontend component (the paper's modularity rule, §2.3).
//! A route's module also holds its payload's one Rust description: the
//! route encodes it, and the paired renderer (and the headless client)
//! decode the same type. Rows that borrow the command text they describe
//! encode through a borrowing twin with the same field names.
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
use hpcdash_cache::body::annotate_stale;
use hpcdash_cache::Body;
use hpcdash_http::{Request, Response, Router};
use hpcdash_simtime::{TimeLimit, Timestamp};
use hpcdash_slurm::job::JobId;
use std::fmt;

/// A payload's JSON bytes: what a [`DashboardContext::cached_resilient`]
/// loader returns. Encoding inside the loader lets a payload borrow from
/// the command text it describes until the moment it is written.
pub(crate) fn encode<T: serde::Serialize + ?Sized>(payload: &T) -> Vec<u8> {
    serde_json::to_vec(payload).expect("json serializes")
}

/// A JSON string written straight from a value's byte writer: a
/// timestamp, a time limit or a link in a row costs no `String` of its
/// own, and the text is the one `to_string` gives.
pub(crate) struct Text<T>(pub T);

/// A value a [`Text`] holds: it appends what goes between the quotes.
pub(crate) trait Quoted: fmt::Display {
    fn write_inside(&self, out: &mut Vec<u8>);
}

impl<T: Quoted> serde::Serialize for Text<T> {
    // The vendored trait's tree half, which no route calls.
    #[allow(clippy::disallowed_types)]
    fn to_json_value(&self) -> serde_json::Value {
        serde::Serialize::to_json_value(&self.0.to_string())
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        out.push(b'"');
        self.0.write_inside(out);
        out.push(b'"');
    }
}

// Digits, punctuation and `UNLIMITED`: nothing to escape.
impl Quoted for Timestamp {
    fn write_inside(&self, out: &mut Vec<u8>) {
        self.write_slurm(out);
    }
}

impl Quoted for TimeLimit {
    fn write_inside(&self, out: &mut Vec<u8>) {
        self.write_slurm(out);
    }
}

impl Quoted for JobId {
    fn write_inside(&self, out: &mut Vec<u8>) {
        self.write_slurm(out);
    }
}

/// A page link, `prefix` then `id`, for [`Text`]: `/jobs/123_4`.
pub(crate) struct Link<'a>(pub &'static str, pub &'a str);

impl fmt::Display for Link<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)?;
        f.write_str(self.1)
    }
}

/// The id comes from command text, which a garbled answer can fill with
/// anything: it is escaped.
impl Quoted for Link<'_> {
    fn write_inside(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.0.as_bytes());
        serde::value::write_str_inside(self.1, out);
    }
}

/// 200 with already-serialized JSON bytes and no validator: the form stale
/// and degraded payloads go out in, so they are never revalidated as if
/// they were current.
pub(crate) fn json_bytes(bytes: impl Into<hpcdash_http::Body>) -> Response {
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
/// * `Stale` — 200, the cached bytes with `"degraded": true`,
///   `"stale_age_secs"` and `"stale_error"` spliced in
///   ([`hpcdash_cache::body::annotate_stale`]; nothing is parsed), so the
///   frontend renders the accessible "showing data from N min ago" notice
///   instead of presenting old numbers as current. No `ETag`.
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
            match annotate_stale(&body.bytes, age_secs, &error) {
                Some(bytes) => json_bytes(bytes),
                None => json_bytes(body.bytes),
            }
        }
        SourceOutcome::Failed(e) => {
            hpcdash_obs::tracestore::annotate("outcome", "failed");
            Response::service_unavailable(&e)
        }
    }
}

/// A per-viewer cached route: one whose payload depends on who asks and is
/// rebuilt from backends on every miss (a job overview, a federation
/// aggregate or slice), so it has no data-source key to share between
/// viewers.
///
/// The lookup runs *before* `build` — and so before any authorization in
/// it — keyed on everything that can change the bytes: the concrete path,
/// the authenticated identity with its admin bit, any `X-Act-As`
/// impersonation, and the query string. That is safe because an entry only
/// exists if the same viewer was answered 200 for the same path. An entry
/// is fresh while `version` has not moved and it is younger than `ttl`; a
/// TTL of zero (the no-cache ablation), anonymous requests and a `version`
/// of `None` (a degraded payload, which must keep re-reporting its growing
/// age) bypass the cache. `build` returns the encoded payload or the error
/// response to send.
pub(crate) fn per_viewer(
    ctx: &DashboardContext,
    req: &Request,
    source: &str,
    ttl: u64,
    version: Option<u64>,
    build: impl FnOnce() -> Result<Vec<u8>, Response>,
) -> Response {
    let cached = version.filter(|_| ttl > 0).and_then(|version| {
        let viewer = viewer_key(ctx, req)?;
        let mut key = format!("{source}:{}|{viewer}", req.path);
        for (k, v) in &req.query {
            key.push_str(&format!("|{k}={v}"));
        }
        Some((key, version))
    });
    if let Some(body) = cached
        .as_ref()
        .and_then(|(key, version)| ctx.cache_lookup(key, *version))
    {
        return fresh(body);
    }
    match (build(), cached) {
        (Err(resp), _) => resp,
        (Ok(bytes), Some((key, version))) => {
            let body = Body::new(bytes);
            ctx.cache.cache().insert(key, body.clone(), version, ttl);
            fresh(body)
        }
        (Ok(bytes), None) => json_bytes(bytes),
    }
}

/// Who is asking, as a cache or subscriber key: the authenticated identity
/// with its admin bit, plus the `X-Act-As` target an admin named. Viewers
/// with different keys may see different data, so nothing built for one
/// is handed to another. `None` for an anonymous request.
pub(crate) fn viewer_key(ctx: &DashboardContext, req: &Request) -> Option<String> {
    let user = req.remote_user()?;
    let is_admin = ctx.cfg.is_admin(user);
    let mut key = format!("{}{user}", if is_admin { "admin:" } else { "user:" });
    if let Some(target) = req.header("x-act-as").filter(|_| is_admin) {
        key.push_str("|act:");
        key.push_str(target);
    }
    Some(key)
}

/// One row of the (declared) Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureInfo {
    pub feature: &'static str,
    pub routes: &'static [&'static str],
    pub sources: &'static [&'static str],
}

/// Register every feature's API route(s).
pub(crate) fn register_all(router: &mut Router, ctx: &DashboardContext) {
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
