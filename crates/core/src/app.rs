//! Dashboard assembly: the route table (API + pages + assets) and server.

use crate::api;
use crate::auth::CurrentUser;
use crate::ctx::DashboardContext;
use crate::pages;
use hpcdash_http::{Request, Response, Router, Server};
use hpcdash_obs::{Histogram, SampleSink};
use hpcdash_slurm::loadmodel::RpcStats;
use std::sync::Arc;

/// The assembled dashboard application.
pub struct Dashboard {
    ctx: DashboardContext,
    router: Arc<Router>,
}

impl Dashboard {
    pub fn new(ctx: DashboardContext) -> Dashboard {
        let mut router = Router::new();
        router.set_registry(ctx.obs.clone());
        register_collectors(&ctx);
        api::register_all(&mut router, &ctx);
        register_pages(&mut router, &ctx);
        register_assets(&mut router);
        // The process-liveness probe's body is still built as a value tree.
        #[allow(clippy::disallowed_macros)]
        router.get("/healthz", |_| {
            Response::json(&serde_json::json!({"status": "ok"}))
        });
        Dashboard {
            ctx,
            router: Arc::new(router),
        }
    }

    pub fn ctx(&self) -> &DashboardContext {
        &self.ctx
    }

    pub fn router(&self) -> Arc<Router> {
        self.router.clone()
    }

    /// In-process dispatch (no sockets) — used by tests and the benchmark.
    pub fn handle(&self, req: &Request) -> Response {
        self.router.handle(req)
    }

    /// Serve over TCP. Binds immediately; returns the running server.
    pub fn serve(&self, addr: &str, workers: usize) -> std::io::Result<Server> {
        Server::bind(addr, self.router.clone(), workers)
    }
}

/// The metric names one daemon's RPC statistics export under, spelled out
/// once so a scrape formats none of them.
struct DaemonMetrics {
    rpc_total: &'static str,
    busy_ns_total: &'static str,
    lock_wait_ns_total: &'static str,
    latency_ns: &'static str,
}

macro_rules! daemon_metrics {
    ($prefix:literal) => {
        DaemonMetrics {
            rpc_total: concat!($prefix, "_rpc_total"),
            busy_ns_total: concat!($prefix, "_rpc_busy_ns_total"),
            lock_wait_ns_total: concat!($prefix, "_lock_wait_ns_total"),
            latency_ns: concat!($prefix, "_rpc_latency_ns"),
        }
    };
}

const SLURMCTLD: DaemonMetrics = daemon_metrics!("hpcdash_slurmctld");
const SLURMDBD: DaemonMetrics = daemon_metrics!("hpcdash_slurmdbd");
const TELEMETRYD: DaemonMetrics = daemon_metrics!("hpcdash_telemetryd");

/// Pull-time collectors: every `/api/metrics` scrape reads the daemons' and
/// the server cache's own statistics, so those crates export metrics without
/// depending on the registry. Call once per context — collectors stack.
fn register_collectors(ctx: &DashboardContext) {
    let ctld = ctx.ctld.clone();
    ctx.obs.register_collector(move |out| {
        let stats = ctld.stats();
        daemon_samples(out, &SLURMCTLD, stats);
        // The scheduler runs inside slurmctld: its tick count/cost and the
        // pending-job backlog are the paper's "queries delay scheduling"
        // observables.
        stats.for_each_kind(|kind, tick| {
            if kind == "sched_tick" {
                out.counter("hpcdash_sched_ticks_total", &[], tick.count);
                out.counter("hpcdash_sched_tick_busy_ns_total", &[], tick.total_ns);
            }
        });
        out.gauge(
            "hpcdash_sched_queue_depth",
            &[],
            stats.sched_queue_depth() as i64,
        );
        // Epoch-published snapshot health: publication rate, staleness of the
        // current epoch, and how far behind readers observe the tip.
        let ss = ctld.snapshot_stats();
        out.counter("hpcdash_ctld_snapshot_publishes_total", &[], ss.publishes());
        out.gauge(
            "hpcdash_ctld_snapshot_seq",
            &[],
            ss.latest_seq().min(i64::MAX as u64) as i64,
        );
        out.gauge(
            "hpcdash_ctld_snapshot_age_ns",
            &[],
            ss.age().as_nanos().min(i64::MAX as u128) as i64,
        );
        for (label, v) in hpcdash_slurm::snapshot::LAG_BUCKET_LABELS
            .iter()
            .zip(ss.lag_buckets())
        {
            out.counter(
                "hpcdash_ctld_snapshot_reader_lag_total",
                &[("lag", label)],
                v,
            );
        }
    });
    let dbd = ctx.dbd.clone();
    ctx.obs
        .register_collector(move |out| daemon_samples(out, &SLURMDBD, dbd.stats()));
    let telemetry = ctx.telemetry.clone();
    ctx.obs.register_collector(move |out| {
        daemon_samples(out, &TELEMETRYD, telemetry.stats());
        let s = telemetry.store().stats();
        for (name, v) in [
            ("hpcdash_telemetry_series", s.series),
            (
                "hpcdash_telemetry_samples_ingested_total",
                s.samples_ingested,
            ),
            (
                "hpcdash_telemetry_samples_rejected_total",
                s.samples_rejected,
            ),
            ("hpcdash_telemetry_chunks_sealed_total", s.chunks_sealed),
            ("hpcdash_telemetry_compressed_bytes", s.compressed_bytes),
            ("hpcdash_telemetry_expired_points_total", s.expired_points),
            ("hpcdash_telemetry_queries_total", s.queries),
            ("hpcdash_telemetry_points_returned_total", s.points_returned),
        ] {
            out.counter(name, &[], v);
        }
        for tier in hpcdash_telemetry::Tier::ALL {
            out.counter(
                "hpcdash_telemetry_points_scanned_total",
                &[("tier", tier.label())],
                s.scanned[tier.index()],
            );
        }
    });
    // Trace store accounting: retentions by cause, evictions and size.
    ctx.obs.register_collector(move |out| {
        let stats = hpcdash_obs::tracestore::store().stats();
        for cause in hpcdash_obs::RetainCause::ALL {
            out.counter(
                "hpcdash_trace_retained_total",
                &[("cause", cause.label())],
                stats.retained_by_cause[cause.index()],
            );
        }
        out.counter("hpcdash_trace_evicted_total", &[], stats.evicted);
        out.gauge(
            "hpcdash_trace_store_size",
            &[],
            stats.retained_current as i64,
        );
    });
    // Tick-phase wall-time accounting for each simulated daemon.
    let ctld = ctx.ctld.clone();
    let dbd = ctx.dbd.clone();
    let telemetry = ctx.telemetry.clone();
    ctx.obs.register_collector(move |out| {
        let daemons: [(&str, &[(&str, &Histogram)]); 3] = [
            ("slurmctld", &ctld.phases()),
            ("slurmdbd", &dbd.phases()),
            ("telemetryd", &telemetry.phases()),
        ];
        for (daemon, phases) in daemons {
            for &(phase, h) in phases.iter().filter(|(_, h)| h.count() > 0) {
                let labels = [("daemon", daemon), ("phase", phase)];
                out.counter("hpcdash_tick_phase_runs_total", &labels, h.count());
                out.counter("hpcdash_tick_phase_ns_total", &labels, h.sum_ns());
            }
        }
    });
    // Federation fan-out accounting per site. Reads the sites' own atomic
    // counters — no breaker probes, no fault checks: a metrics scrape must
    // never consume a half-open breaker's probe budget.
    let federation = ctx.federation.clone();
    ctx.obs.register_collector(move |out| {
        out.gauge("hpcdash_federation_sites", &[], federation.len() as i64);
        for site in federation.sites() {
            let labels = [("cluster", site.name().as_ref())];
            out.counter("hpcdash_federation_polls_total", &labels, site.polls());
            out.counter(
                "hpcdash_federation_stale_serves_total",
                &labels,
                site.stale_serves(),
            );
            out.counter(
                "hpcdash_federation_dark_serves_total",
                &labels,
                site.dark_serves(),
            );
        }
    });
    let cache = ctx.cache.clone();
    ctx.obs.register_collector(move |out| {
        let s = cache.stats();
        for (name, v) in [
            ("hpcdash_cache_store_inserts_total", s.inserts),
            ("hpcdash_cache_store_expirations_total", s.expirations),
            ("hpcdash_cache_store_coalesced_total", s.coalesced),
        ] {
            out.counter(name, &[], v);
        }
    });
}

fn daemon_samples(out: &mut SampleSink, names: &DaemonMetrics, stats: &RpcStats) {
    stats.for_each_kind(|kind, k| out.counter(names.rpc_total, &[("kind", kind)], k.count));
    out.counter(
        names.busy_ns_total,
        &[],
        stats.total_busy().as_nanos().min(u128::from(u64::MAX)) as u64,
    );
    out.counter(
        names.lock_wait_ns_total,
        &[],
        stats.total_lock_wait().as_nanos().min(u128::from(u64::MAX)) as u64,
    );
    let s = stats.latency().summary();
    if s.count > 0 {
        for (q, ns) in [("0.5", s.p50_ns), ("0.95", s.p95_ns), ("0.99", s.p99_ns)] {
            out.gauge(
                names.latency_ns,
                &[("quantile", q)],
                ns.min(i64::MAX as u64) as i64,
            );
        }
    }
}

fn register_pages(router: &mut Router, ctx: &DashboardContext) {
    let cluster = ctx.cfg.cluster_label.clone();

    let c = cluster.clone();
    let cx = ctx.clone();
    router.get("/", move |req| {
        with_user(&cx, req, |user| {
            Response::html(pages::homepage::render_shell(&c, user))
        })
    });

    let c = cluster.clone();
    let cx = ctx.clone();
    router.get("/myjobs", move |req| {
        with_user(&cx, req, |user| {
            Response::html(pages::myjobs::render_shell(&c, user))
        })
    });

    let c = cluster.clone();
    let cx = ctx.clone();
    router.get("/jobperf", move |req| {
        with_user(&cx, req, |user| {
            Response::html(pages::jobperf::render_shell(&c, user))
        })
    });

    let c = cluster.clone();
    let cx = ctx.clone();
    router.get("/clusterstatus", move |req| {
        with_user(&cx, req, |user| {
            Response::html(pages::clusterstatus::render_shell(&c, user))
        })
    });

    let c = cluster.clone();
    let cx = ctx.clone();
    router.get("/jobs/:id", move |req| {
        let id = req.param("id").unwrap_or("?").to_string();
        with_user(&cx, req, |user| {
            Response::html(pages::joboverview::render_shell(&c, user, &id))
        })
    });

    let c = cluster.clone();
    let cx = ctx.clone();
    router.get("/federation", move |req| {
        with_user(&cx, req, |user| {
            Response::html(pages::federation::render_shell(&c, user))
        })
    });

    let c = cluster.clone();
    let cx = ctx.clone();
    router.get("/news", move |req| {
        with_user(&cx, req, |user| {
            Response::html(pages::newsall::render_shell(&c, user))
        })
    });

    let c = cluster.clone();
    let cx = ctx.clone();
    router.get("/nodes/:name", move |req| {
        let name = req.param("name").unwrap_or("?").to_string();
        with_user(&cx, req, |user| {
            Response::html(pages::nodeoverview::render_shell(&c, user, &name))
        })
    });

    // Admin-only: the observability page. Gated like its API routes — the
    // shell itself leaks nothing, but serving it to non-admins would
    // advertise a surface they can never load.
    let c = cluster;
    let cx = ctx.clone();
    router.get("/observatory", move |req| {
        match CurrentUser::from_request(&cx, req) {
            Ok(user) if user.is_admin => {
                Response::html(pages::observatory::render_shell(&c, &user.username))
            }
            Ok(_) => Response::forbidden("administrator access required"),
            Err(resp) => resp,
        }
    });
}

fn with_user(
    ctx: &DashboardContext,
    req: &Request,
    render: impl FnOnce(&str) -> Response,
) -> Response {
    match CurrentUser::from_request(ctx, req) {
        Ok(user) => render(&user.username),
        Err(resp) => resp,
    }
}

/// Static assets. The JS implements the client half of the design (fetch
/// each widget's API route, render, and keep an IndexedDB cache) for real
/// browsers; the headless `hpcdash-client` crate implements the same logic
/// natively for the experiments.
fn register_assets(router: &mut Router) {
    router.get("/assets/dashboard.css", |_| {
        Response::new(200)
            .with_header("Content-Type", "text/css")
            .with_body(DASHBOARD_CSS.as_bytes().to_vec())
    });
    router.get("/assets/cachedb.js", |_| {
        Response::new(200)
            .with_header("Content-Type", "application/javascript")
            .with_body(CACHEDB_JS.as_bytes().to_vec())
    });
    router.get("/assets/widgets.js", |_| {
        Response::new(200)
            .with_header("Content-Type", "application/javascript")
            .with_body(WIDGETS_JS.as_bytes().to_vec())
    });
}

const DASHBOARD_CSS: &str = r#"
:root { --green:#2e7d32; --yellow:#f9a825; --red:#c62828; --gray:#757575; }
.widget-grid { display:grid; grid-template-columns:repeat(auto-fit,minmax(320px,1fr)); gap:1rem; }
.progress { background:#eee; border-radius:4px; height:1.2rem; }
.progress-bar.bg-green { background:var(--green); }
.progress-bar.bg-yellow { background:var(--yellow); }
.progress-bar.bg-red { background:var(--red); }
.node-grid { display:grid; grid-template-columns:repeat(auto-fill,minmax(64px,1fr)); gap:4px; }
.node-cell.node-green { background:var(--green); color:white; }
.node-cell.node-faded-green { background:#a5d6a7; }
.node-cell.node-yellow { background:var(--yellow); }
.node-cell.node-orange { background:#ef6c00; color:white; }
.node-cell.node-red { background:var(--red); color:white; }
.announcement-past { opacity:0.5; }
.widget-error { border:1px solid var(--red); }
.sparkline { width:120px; height:32px; background:#fafafa; }
.sparkline polyline { fill:none; stroke:var(--green); stroke-width:1.5; }
.spark-mem polyline { stroke:var(--yellow); }
.spark-gpu polyline { stroke:#6a1b9a; }
.telemetry-row { display:inline-flex; gap:0.4rem; align-items:center; margin-right:0.8rem; }
.telemetry-label { font-size:0.8rem; color:var(--gray); }
.telemetry-pending { color:var(--gray); font-style:italic; }
"#;

const CACHEDB_JS: &str = r#"
// IndexedDB-backed response cache: render instantly from cache, then
// revalidate (the client half of the paper's dual caching design).
const DB = 'hpcdash'; const STORE = 'api-cache';
async function cacheGet(key) { /* idb get */ }
async function cachePut(key, value) { /* idb put with fetched_at */ }
async function cachedFetch(url, freshSecs) {
  const hit = await cacheGet(url);
  if (hit) { renderNow(url, hit.value); }
  if (!hit || (Date.now()/1000 - hit.fetched_at) > freshSecs) {
    const resp = await fetch(url, {headers: {'Accept': 'application/json'}});
    const value = await resp.json();
    await cachePut(url, value);
    renderNow(url, value);
  }
}
"#;

const WIDGETS_JS: &str = r#"
// Fill each widget slot from its API route (one component, one route).
document.querySelectorAll('.widget-slot[data-api]').forEach(slot => {
  cachedFetch(slot.dataset.api, 30);
});
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;

    fn dash() -> Dashboard {
        Dashboard::new(test_ctx())
    }

    fn get(dash: &Dashboard, path: &str, user: Option<&str>) -> Response {
        let mut req = Request::new(Method::Get, path);
        if let Some(u) = user {
            req = req.with_header("X-Remote-User", u);
        }
        dash.handle(&req)
    }

    #[test]
    fn all_page_shells_serve() {
        let d = dash();
        for path in [
            "/",
            "/myjobs",
            "/jobperf",
            "/clusterstatus",
            "/federation",
            "/jobs/123",
            "/nodes/a001",
        ] {
            let resp = get(&d, path, Some("alice"));
            assert_eq!(resp.status, 200, "{path}");
            assert!(resp.header("content-type").unwrap().contains("text/html"));
            assert!(resp.body_string().contains("Logged in as alice"));
        }
    }

    #[test]
    fn pages_require_auth() {
        let d = dash();
        assert_eq!(get(&d, "/", None).status, 401);
        assert_eq!(get(&d, "/myjobs", None).status, 401);
    }

    #[test]
    fn api_routes_registered() {
        let d = dash();
        for path in [
            "/api/announcements",
            "/api/recent_jobs",
            "/api/system_status",
            "/api/accounts",
            "/api/storage",
            "/api/myjobs",
            "/api/jobmetrics",
            "/api/clusterstatus",
            "/api/federation/status",
        ] {
            let resp = get(&d, path, Some("alice"));
            assert_eq!(resp.status, 200, "{path}: {}", resp.body_string());
            assert!(resp.header("content-type").unwrap().contains("json"));
        }
    }

    #[test]
    fn assets_and_health() {
        let d = dash();
        assert_eq!(get(&d, "/healthz", None).status, 200);
        let css = get(&d, "/assets/dashboard.css", None);
        assert_eq!(css.status, 200);
        assert!(css.body_string().contains(".widget-grid"));
        let js = get(&d, "/assets/cachedb.js", None);
        assert!(js.body_string().contains("cachedFetch"));
    }

    #[test]
    fn serves_over_tcp() {
        let d = dash();
        let server = d.serve("127.0.0.1:0", 2).unwrap();
        let client = hpcdash_http::HttpClient::new();
        let resp = client
            .get(
                &format!("{}/api/system_status", server.base_url()),
                &[("X-Remote-User", "alice")],
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.json().unwrap()["partitions"].is_array());
    }

    #[test]
    fn route_count_matches_feature_table() {
        let d = dash();
        let patterns = d.router().route_patterns();
        // 10 features -> 13 API routes (incl. accounts export, job
        // logs/array) + baseline Active Jobs + live updates feed (poll +
        // push stream) + 3 admin actions + 2 telemetry routes (live strip +
        // per-job series) + 6 observability routes (/api/metrics,
        // /api/health, /api/observatory, /api/traces, /api/traces/:id,
        // /api/obs/series) + 13 `/slurm/v0` routes (6 reads + mint + list +
        // revoke + clusters inventory + 3 cluster-scoped reads) + 4
        // federation widget routes + 9 pages (incl. /observatory and
        // /federation) + 3 assets + healthz.
        assert_eq!(
            patterns.len(),
            13 + 3 + 3 + 2 + 6 + 13 + 4 + 9 + 3 + 1,
            "{patterns:?}"
        );
    }

    #[test]
    fn observatory_page_is_admin_gated() {
        // The generic test config has no admins: everyone is refused.
        let d = dash();
        assert_eq!(get(&d, "/observatory", Some("alice")).status, 403);
        // An admin-enabled site serves the shell to its operators only.
        let d = Dashboard::new(crate::ctx::tests::test_ctx_with(
            crate::config::DashboardConfig::purdue_like(),
        ));
        assert_eq!(get(&d, "/observatory", Some("alice")).status, 403);
        let resp = get(&d, "/observatory", Some("root"));
        assert_eq!(resp.status, 200);
        assert!(resp.body_string().contains("data-api=\"/api/observatory\""));
        // Tick phases show up after a scheduling pass.
        d.ctx().ctld.tick();
        let resp = get(&d, "/api/metrics", Some("root"));
        assert!(
            resp.body_string()
                .contains("hpcdash_tick_phase_ns_total{daemon=\"slurmctld\",phase=\"sched_pass\"}"),
            "{}",
            resp.body_string()
        );
    }

    #[test]
    fn metrics_route_reports_daemon_traffic() {
        let d = dash();
        get(&d, "/api/system_status", Some("alice"));
        let resp = get(&d, "/api/metrics", None);
        assert_eq!(resp.status, 200);
        let text = resp.body_string();
        assert!(
            text.contains("hpcdash_slurmctld_rpc_total{kind=\"sinfo\"} 1"),
            "collector exports ctld traffic:\n{text}"
        );
        assert!(text.contains("hpcdash_http_requests_total{route=\"/api/system_status\"} 1"));
        assert!(text.contains("hpcdash_cache_misses_total{source=\"system_status\"} 1"));
        assert!(text.contains("hpcdash_sched_queue_depth 0"));
        assert!(
            text.contains("hpcdash_ctld_snapshot_publishes_total"),
            "snapshot health metrics exported:\n{text}"
        );
        assert!(text.contains("hpcdash_ctld_snapshot_reader_lag_total{lag=\"0\"}"));
        assert!(
            text.contains("hpcdash_telemetry_samples_ingested_total")
                && text.contains("hpcdash_telemetry_points_scanned_total{tier=\"raw\"}"),
            "telemetry store metrics exported:\n{text}"
        );
        assert!(
            text.contains("hpcdash_trace_retained_total{cause=\"error\"}"),
            "trace pipeline metrics exported:\n{text}"
        );
        let resp = get(&d, "/api/health", None);
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body_json().unwrap()["sources"]["system_status"]["status"],
            "up"
        );
    }
}
