//! The real-time monitoring extension (paper §9 future work): clients poll
//! the updates feed — or subscribe to its push-mode stream — and see job
//! transitions as the cluster evolves, without refetching tables.

use hpcdash::SimSite;
use hpcdash_client::{LiveSubscriber, PollOutcome};
use hpcdash_core::DashboardConfig;
use hpcdash_http::{HttpClient, Method, Request};
use hpcdash_workload::ScenarioConfig;

fn poll(client: &HttpClient, base: &str, user: &str, since: u64) -> serde_json::Value {
    let resp = client
        .get(
            &format!("{base}/api/updates?since={since}"),
            &[("X-Remote-User", user)],
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    resp.json().unwrap()
}

#[test]
fn polling_sees_the_cluster_evolve() {
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    // Initial cursor.
    let body = poll(&client, &base, &user, 0);
    let mut cursor = body["latest_seq"].as_u64().unwrap();

    // Run half an hour of traffic; poll incrementally and accumulate.
    let mut driver = site.driver(1_800);
    let mut seen = Vec::new();
    for _ in 0..6 {
        driver.advance(300);
        let body = poll(&client, &base, &user, cursor);
        cursor = body["latest_seq"].as_u64().unwrap();
        for e in body["events"].as_array().unwrap() {
            seen.push(e.clone());
        }
        assert_eq!(body["resync_required"], false, "cursor kept up");
    }

    // The user's own submissions must appear, with transitions in order
    // per job (PENDING before RUNNING before terminal).
    assert!(
        !seen.is_empty(),
        "an active cluster produced no visible events for {user}"
    );
    let mut per_job: std::collections::BTreeMap<String, Vec<String>> = Default::default();
    for e in &seen {
        per_job
            .entry(e["job"].as_str().unwrap().to_string())
            .or_default()
            .push(e["to"].as_str().unwrap().to_string());
    }
    for (job, transitions) in &per_job {
        if let Some(run_idx) = transitions.iter().position(|t| t == "RUNNING") {
            if let Some(pend_idx) = transitions.iter().position(|t| t == "PENDING") {
                assert!(pend_idx < run_idx, "job {job}: RUNNING before PENDING");
            }
        }
    }

    // Sequence numbers strictly increase.
    let seqs: Vec<u64> = seen.iter().map(|e| e["seq"].as_u64().unwrap()).collect();
    for w in seqs.windows(2) {
        assert!(w[0] < w[1], "event sequence regressed");
    }

    // Privacy: every event belongs to the user or their accounts.
    let accounts = site.scenario.population.accounts_of(&user);
    for e in &seen {
        let event_user = e["user"].as_str().unwrap();
        let event_account = e["account"].as_str().unwrap();
        assert!(
            event_user == user || accounts.iter().any(|a| a == event_account),
            "leaked event for {event_user}/{event_account}"
        );
    }
}

#[test]
fn streaming_matches_polling_at_equivalent_freshness() {
    // A push subscriber anchored at the same cursor as a legacy poller must
    // see exactly the same deltas — the fan-out hub changes delivery cost,
    // not content. Both are cursors into the same log, held by the client
    // or by the hub.
    let site = SimSite::build_with(ScenarioConfig::small(), DashboardConfig::purdue_like());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    // Anchor both modes at the current head.
    let body = poll(&client, &base, &user, 0);
    let mut cursor = body["latest_seq"].as_u64().unwrap();
    let sub = LiveSubscriber::new(&base, &user, "e2e", site.scenario.clock.shared());
    sub.anchor_at(cursor);

    let mut driver = site.driver(1_800);
    let mut polled = 0usize;
    let mut last_state: std::collections::BTreeMap<String, String> = Default::default();
    for _ in 0..6 {
        driver.advance(300);
        let body = poll(&client, &base, &user, cursor);
        cursor = body["latest_seq"].as_u64().unwrap();
        for e in body["events"].as_array().unwrap() {
            polled += 1;
            last_state.insert(
                e["job"].as_str().unwrap().to_string(),
                e["to"].as_str().unwrap().to_string(),
            );
        }
        match sub.poll(0).unwrap() {
            PollOutcome::Events(_) | PollOutcome::Empty => {}
            other => panic!("stream should never degrade here: {other:?}"),
        }
    }

    assert!(polled > 0, "an active cluster produced no visible events");
    assert_eq!(
        sub.events_applied(),
        polled as u64,
        "push delivered a different number of deltas than polling"
    );
    assert_eq!(sub.cursor(), cursor, "both modes anchored at the same head");
    for (job, state) in &last_state {
        assert_eq!(
            sub.job_state(job).as_deref(),
            Some(state.as_str()),
            "job {job} diverged between poll and push"
        );
    }
}

#[test]
fn a_stream_round_costs_the_same_for_one_tab_as_for_many() {
    // Once subscribed, a tab reads the event log from its hub cursor: a
    // round of stream requests costs the daemons the same (controller
    // state locks, assoc RPCs) however many tabs make it. A tab's
    // visibility rebuild (once per `accounts_ttl`) and its expiry when idle
    // (after `idle_ttl`) are per-subscriber costs by design, timed on
    // simulated time, so both TTLs outlast these rounds.
    fn per_round_cost(tabs: usize) -> (Vec<(u64, u64)>, u64) {
        let mut cfg = DashboardConfig::purdue_like();
        cfg.push.accounts_ttl_secs = 2 * 3_600;
        cfg.push.idle_ttl_secs = 2 * 3_600;
        let site = SimSite::build_with(ScenarioConfig::small(), cfg);
        site.warm_up(300);
        let pop = &site.scenario.population;
        let users: Vec<String> = (0..tabs)
            .map(|i| pop.user(i % pop.users.len()).to_string())
            .collect();
        let drain = |tab: usize| {
            let req = Request::new(Method::Get, &format!("/api/updates/stream?sub=tab{tab}"))
                .with_header("X-Remote-User", &users[tab]);
            let resp = site.dashboard.handle(&req);
            assert_eq!(resp.status, 200);
            let body = resp.body_json().unwrap();
            assert_eq!(body["resync_required"], false);
            body["events"].as_array().unwrap().len() as u64
        };
        let cost = || {
            (
                site.scenario.ctld.stats().state_lock_count(),
                site.scenario.ctld.stats().count_of("scontrol_assoc"),
            )
        };
        for tab in 0..tabs {
            drain(tab); // subscribe, reading from seq 0
        }
        let mut driver = site.driver(5 * 300);
        let (mut rounds, mut delivered) = (Vec::new(), 0);
        for _ in 0..5 {
            driver.advance(300);
            let before = cost();
            delivered += (0..tabs).map(drain).sum::<u64>();
            let after = cost();
            rounds.push((after.0 - before.0, after.1 - before.1));
        }
        (rounds, delivered)
    }
    let (one, delivered_one) = per_round_cost(1);
    let (many, delivered_many) = per_round_cost(64);
    assert!(delivered_one > 0, "the rounds carried no events");
    assert!(delivered_many >= delivered_one);
    assert_eq!(
        one, many,
        "(state locks, assoc RPCs) per round: 1 tab vs 64"
    );
}

#[test]
fn streaming_subscriber_recovers_from_overflow() {
    // A tab that stops reading while the log's retained window moves past
    // its cursor learns on the next poll that it must resync, drops local
    // state, and keeps streaming.
    let site = SimSite::build_with(ScenarioConfig::small(), DashboardConfig::purdue_like());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let user = site.scenario.population.users[0].clone();
    let account = site.scenario.population.accounts_of(&user)[0].clone();

    let sub = LiveSubscriber::new(&base, &user, "lazy", site.scenario.clock.shared());
    assert!(matches!(sub.poll(0).unwrap(), PollOutcome::Empty));

    // A burst of visible transitions one longer than the log's 4 096-event
    // window, while the tab is not polling.
    let log = site.scenario.ctld.events();
    for _ in 0..4_097 {
        log.push(
            hpcdash_simtime::Timestamp(0),
            hpcdash_slurm::job::JobId(1),
            &user,
            &account,
            None,
            hpcdash_slurm::job::JobState::Pending,
            None,
        );
    }
    assert!(matches!(sub.poll(0).unwrap(), PollOutcome::Resync));
    assert_eq!(sub.tracked_jobs(), 0, "local state dropped on resync");

    // Back to normal streaming afterwards.
    let mut req = hpcdash_slurm::job::JobRequest::simple(&user, &account, "cpu", 1);
    req.usage.planned_runtime_secs = 1;
    site.scenario.ctld.submit(req).unwrap();
    match sub.poll(0).unwrap() {
        PollOutcome::Events(n) => assert!(n >= 1),
        other => panic!("expected events after resync, got {other:?}"),
    }
}

#[test]
fn stale_cursor_requests_resync() {
    let site = SimSite::build(ScenarioConfig::small());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    // Generate far more events than the log retains (4096), with a stale
    // cursor pointing at evicted history.
    let account = site.scenario.population.accounts_of(&user)[0].clone();
    for _ in 0..2_200 {
        let mut req = hpcdash_slurm::job::JobRequest::simple(&user, &account, "cpu", 1);
        req.usage.planned_runtime_secs = 1;
        site.scenario.ctld.submit(req).unwrap();
        site.scenario.clock.advance(2);
        site.scenario.ctld.tick();
    }
    let body = poll(&client, &base, &user, 1);
    assert_eq!(body["resync_required"], true, "client must refetch tables");
}

#[test]
fn an_admin_acting_as_a_user_never_shares_that_users_subscription() {
    // root (an admin) opens `sub=t` while acting as alice, then alice opens
    // her own `sub=t`. The two views differ — root keeps admin rights while
    // acting — so they must be two subscribers: alice's cursor reads only
    // her jobs and her accounts' jobs, whatever root registered first.
    let site = SimSite::build_with(ScenarioConfig::small(), DashboardConfig::purdue_like());
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let alice = site.scenario.population.users[0].clone();
    let accounts = site.scenario.population.accounts_of(&alice);
    let stream = |headers: &[(&str, &str)]| -> Vec<serde_json::Value> {
        let resp = client
            .get(&format!("{base}/api/updates/stream?sub=t"), headers)
            .unwrap();
        assert_eq!(resp.status, 200);
        let body = resp.json().unwrap();
        assert_eq!(body["resync_required"], false);
        body["events"].as_array().unwrap().clone()
    };
    let as_root = [("X-Remote-User", "root"), ("X-Act-As", alice.as_str())];
    let as_alice = [("X-Remote-User", alice.as_str())];

    stream(&as_root);
    stream(&as_alice);
    site.driver(1_800).advance(1_800);

    let outside = |e: &serde_json::Value| {
        e["user"] != alice.as_str() && !accounts.iter().any(|a| e["account"] == a.as_str())
    };
    let alices = stream(&as_alice);
    assert!(!alices.is_empty(), "alice's own activity reaches her");
    if let Some(leak) = alices.iter().find(|e| outside(e)) {
        panic!("alice received another account's event: {leak}");
    }
    assert!(
        stream(&as_root).iter().any(outside),
        "root's act-as view spans other accounts, so the check above has teeth"
    );
}
