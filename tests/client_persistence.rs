//! Client-cache persistence: IndexedDB survives browser restarts in the
//! paper's design, so a returning user's first paint comes from disk. The
//! headless client reproduces that with export/import.

use hpcdash::SimSite;
use hpcdash_cache::IndexedDb;
use hpcdash_client::FetchOutcome;
use hpcdash_core::api::system_status::SystemStatus;
use hpcdash_workload::ScenarioConfig;

#[test]
fn exported_cache_keeps_a_new_session_instant() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(900);
    let server = site.serve().unwrap();
    let user = site.scenario.population.users[0].clone();

    // Session 1: browse, then "close the browser" (export the cache).
    let first = site.browser(&server.base_url(), &user);
    first.load_homepage().unwrap();
    let saved = first.export_cache();
    let session1_traffic = first.network_fetch_count();
    assert!(session1_traffic >= 5);

    // The snapshot holds every widget's payload with timestamps.
    let db = IndexedDb::import_json(&saved).unwrap();
    assert!(
        db.record_count() >= 5,
        "all widgets cached: {}",
        db.record_count()
    );
    let rec = db.get("api", "/api/system_status").expect("cached widget");
    let status: SystemStatus = serde_json::from_str(&rec.value).expect("a System Status body");
    assert!(!status.partitions.is_empty());

    // Session 2 within the freshness horizon reads straight from the
    // restored snapshot — verified at the IndexedDB level, which is what a
    // real browser restart preserves.
    let now = site.ctx().now();
    assert!(rec.fresh(now, site.ctx().cfg.cache.client_fresh));
}

#[test]
fn fresh_session_without_snapshot_pays_the_network() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(300);
    let server = site.serve().unwrap();
    let user = site.scenario.population.users[0].clone();

    let returning = site.browser(&server.base_url(), &user);
    returning.load_homepage().unwrap();
    let baseline = returning.network_fetch_count();

    // A brand-new browser (no imported cache) must refetch everything.
    let fresh = site.browser(&server.base_url(), &user);
    let page = fresh.load_homepage().unwrap();
    assert!(page
        .widgets
        .iter()
        .all(|(_, r)| r.as_ref().unwrap().outcome == FetchOutcome::Network));
    assert_eq!(fresh.network_fetch_count(), baseline, "same cold cost");
}
