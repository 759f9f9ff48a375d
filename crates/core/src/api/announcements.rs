//! Announcements widget API (paper §3.1): latest center news with urgency
//! colours and active/upcoming/past styling, cached 30-60 minutes.

use crate::api::encode;
use crate::auth::CurrentUser;
use crate::colors::announcement_color;
use crate::ctx::DashboardContext;
use hpcdash_http::{Request, Response, Router};
use serde_json::json;

pub const FEATURE: &str = "Announcements widget";
pub const ROUTES: &[&str] = &["/api/announcements"];
pub const SOURCES: &[&str] = &["news API"];

pub fn register(router: &mut Router, ctx: DashboardContext) {
    router.get(ROUTES[0], move |req| handle(&ctx, req));
}

fn handle(ctx: &DashboardContext, req: &Request) -> Response {
    if let Err(resp) = CurrentUser::from_request(ctx, req) {
        return resp;
    }
    // `scope=all` backs the "View all news" page (paper §3.1); the homepage
    // widget uses the default limited feed.
    let all = req.query_param("scope") == Some("all");
    let limit = ctx.cfg.announcements_limit;
    let now = ctx.now();
    let news_url = ctx.cfg.news_page_url.clone();
    let key = if all {
        "announcements:all"
    } else {
        "announcements"
    };
    let outcome = ctx.cached_resilient(key, ctx.cfg.cache.announcements, || {
        ctx.note_source(FEATURE, "news API");
        let items = if all {
            ctx.news.all().map_err(|e| e.to_string())?
        } else {
            ctx.news.recent(limit).map_err(|e| e.to_string())?
        };
        Ok(encode(&json!({
            "items": items
                .iter()
                .map(|a| {
                    let relevance = a.relevance(now);
                    json!({
                        "id": a.id,
                        "title": a.title,
                        "body": a.body,
                        "category": a.category.label(),
                        "color": announcement_color(a.category),
                        "relevance": format!("{relevance:?}").to_lowercase(),
                        "faded": relevance == hpcdash_news::Relevance::Past,
                        "posted_at": a.posted_at.to_slurm(),
                        "starts_at": a.starts_at.map(|t| t.to_slurm()),
                        "ends_at": a.ends_at.map(|t| t.to_slurm()),
                    })
                })
                .collect::<Vec<_>>(),
            "all_news_url": news_url,
        })))
    });
    super::respond(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::tests::test_ctx;
    use hpcdash_http::Method;
    use hpcdash_news::Category;
    use hpcdash_simtime::Timestamp;

    fn request() -> Request {
        Request::new(Method::Get, "/api/announcements").with_header("X-Remote-User", "alice")
    }

    #[test]
    fn returns_colored_items() {
        let ctx = test_ctx();
        ctx.news.publish(
            "Outage!",
            "down",
            Category::Outage,
            Timestamp(900),
            Some((Timestamp(900), Timestamp(2_000))),
        );
        ctx.news
            .publish("Note", "hi", Category::News, Timestamp(800), None);
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 200);
        let body = resp.body_json().unwrap();
        let items = body["items"].as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0]["title"], "Outage!");
        assert_eq!(items[0]["color"], "red");
        assert_eq!(items[0]["relevance"], "active");
        assert_eq!(items[1]["color"], "gray");
        assert_eq!(items[1]["faded"], false);
        assert!(body["all_news_url"]
            .as_str()
            .unwrap()
            .starts_with("https://"));
    }

    #[test]
    fn scope_all_ignores_the_widget_limit() {
        let ctx = test_ctx();
        for i in 0..9 {
            ctx.news
                .publish(&format!("n{i}"), "", Category::News, Timestamp(i), None);
        }
        let widget = handle(&ctx, &request());
        assert_eq!(
            widget.body_json().unwrap()["items"]
                .as_array()
                .unwrap()
                .len(),
            ctx.cfg.announcements_limit
        );
        let all_req = Request::new(Method::Get, "/api/announcements?scope=all")
            .with_header("X-Remote-User", "alice");
        let all = handle(&ctx, &all_req);
        assert_eq!(
            all.body_json().unwrap()["items"].as_array().unwrap().len(),
            9
        );
    }

    #[test]
    fn requires_auth() {
        let ctx = test_ctx();
        let resp = handle(&ctx, &Request::new(Method::Get, "/api/announcements"));
        assert_eq!(resp.status, 401);
    }

    #[test]
    fn outage_in_news_service_degrades_to_503() {
        let ctx = test_ctx();
        ctx.news.set_available(false);
        let resp = handle(&ctx, &request());
        assert_eq!(resp.status, 503);
        // Recovery works immediately (errors are not cached).
        ctx.news.set_available(true);
        ctx.news
            .publish("Back", "", Category::News, Timestamp(1), None);
        assert_eq!(handle(&ctx, &request()).status, 200);
    }

    #[test]
    fn cached_across_calls() {
        let ctx = test_ctx();
        ctx.news
            .publish("One", "", Category::News, Timestamp(1), None);
        handle(&ctx, &request());
        ctx.news
            .publish("Two", "", Category::News, Timestamp(2), None);
        let resp = handle(&ctx, &request());
        let items = resp.body_json().unwrap();
        assert_eq!(
            items["items"].as_array().unwrap().len(),
            1,
            "second publish hidden until the cache expires"
        );
    }
}
