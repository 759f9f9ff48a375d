//! Metrics exposition: everything the registry and daemon collectors know,
//! in Prometheus text format (default) or JSON (`?format=json`).
//!
//! Not a Table-1 feature — this route serves operators and scrapers, not a
//! dashboard widget.

use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use hpcdash_obs::expo::{scrape_json, scrape_text};

pub const ROUTE: &str = "/api/metrics";

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTE, move |req| handle(&ctx, req));
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    // Refresh the breaker gauges at scrape time: breakers transition lazily
    // (on the next request), so the scrape itself settles cool-downs and
    // reports the effective state.
    for snap in ctx.breakers.snapshot() {
        let Some(breaker) = snap.breaker else {
            continue;
        };
        let labels = [("source", snap.source.as_str())];
        ctx.obs
            .gauge("hpcdash_breaker_state", &labels)
            .set(breaker.state.as_gauge() as i64);
        ctx.obs
            .gauge("hpcdash_breaker_opens", &labels)
            .set(breaker.opens as i64);
    }
    if req.query_param("format").is_some_and(|f| f == "json") {
        return Response::json(&scrape_json(&ctx.obs));
    }
    Response::text(scrape_text(&ctx.obs))
        .with_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use serde_json::json;

    #[test]
    fn exposes_text_and_json() {
        let ctx = test_ctx();
        ctx.cached_resilient("squeue:alice", 60, || Ok(crate::api::encode(&json!(1))));
        let resp = handle(&ctx, &Request::new(Method::Get, "/api/metrics"));
        assert_eq!(resp.status, 200);
        let text = resp.body_string();
        assert!(text.contains("hpcdash_cache_requests_total{source=\"squeue\"} 1"));
        let resp = handle(&ctx, &Request::new(Method::Get, "/api/metrics?format=json"));
        let samples = resp.body_json().unwrap();
        assert!(samples
            .as_array()
            .unwrap()
            .iter()
            .any(|s| s["name"] == "hpcdash_cache_requests_total"));
    }

    #[test]
    fn breaker_gauges_are_scraped() {
        let ctx = test_ctx();
        for _ in 0..ctx.breakers.config().failure_threshold {
            ctx.breakers.record_failure("sacct");
        }
        let resp = handle(&ctx, &Request::new(Method::Get, "/api/metrics"));
        let text = resp.body_string();
        assert!(
            text.contains("hpcdash_breaker_state{source=\"sacct\"} 2"),
            "open breaker exposed as gauge 2: {text}"
        );
        assert!(text.contains("hpcdash_breaker_opens{source=\"sacct\"} 1"));
    }
}
