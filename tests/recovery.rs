//! Experiment P14: crash faults + durable checkpoint/WAL recovery.
//!
//! A crashed daemon refuses every RPC, restarts a scripted number of
//! sim-seconds later, and rebuilds its state as checkpoint + replayed WAL
//! suffix — losing exactly the un-journaled tail, never silently more or
//! less. The dashboard rides through the outage on serve-stale, observes
//! the recovery, purges every cache that could hold dead-epoch bytes, and
//! resumes fresh. Everything here is seeded and tick-driven, so each test
//! asserts an exact schedule.

use hpcdash::SimSite;
use hpcdash_faults::{FaultPlan, FaultRule};
use hpcdash_http::HttpClient;
use hpcdash_simtime::{Clock, Timestamp};
use hpcdash_slurm::ctld::JobQuery;
use hpcdash_workload::ScenarioConfig;
use std::sync::Arc;

fn fetch(client: &HttpClient, base: &str, path: &str, user: &str) -> (u16, serde_json::Value) {
    let resp = client
        .get(&format!("{base}{path}"), &[("X-Remote-User", user)])
        .unwrap();
    let body = resp.json().unwrap_or(serde_json::Value::Null);
    (resp.status, body)
}

fn kind(status: u16, body: &serde_json::Value) -> &'static str {
    match (status, body["degraded"].as_bool().unwrap_or(false)) {
        (200, false) => "fresh",
        (200, true) => "degraded",
        _ => "failed",
    }
}

/// Crash the site's controller at its next tick, keeping it down for
/// `down_secs`. The window is one tick wide so exactly one crash fires.
fn crash_ctld_next_tick(site: &SimSite, down_secs: u64, window_secs: u64) {
    let now = site.scenario.clock.now();
    site.scenario.ctld.faults().install(
        Arc::new(
            FaultPlan::new(0xc4a5).rule(
                FaultRule::crash("slurmctld", down_secs)
                    .during(Timestamp(now.0 + 1), Timestamp(now.0 + 1 + window_secs)),
            ),
        ),
        site.scenario.clock.shared(),
    );
}

#[test]
fn recovery_is_checkpoint_plus_wal_and_loses_exactly_the_unflushed_tail() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let ctld = &site.scenario.ctld;
    let clock = &site.scenario.clock;

    // The WAL group-commits at every tick, so after warm-up the tail is
    // empty. Submit three jobs between ticks: journaled, not yet flushed.
    let mut template = ctld
        .query_jobs(&JobQuery::all())
        .into_iter()
        .next()
        .expect("warm cluster has jobs")
        .req
        .clone();
    template.array = None;
    template.dependency = None;
    template.begin_time = None;
    assert_eq!(ctld.wal_unflushed(), 0, "the last tick group-committed");
    let mut doomed = Vec::new();
    for _ in 0..3 {
        doomed.extend(ctld.submit(template.clone()).expect("live submit"));
    }
    assert_eq!(ctld.wal_unflushed(), 3);
    let survivors: Vec<u32> = ctld
        .query_jobs(&JobQuery::all())
        .iter()
        .map(|j| j.id.0)
        .filter(|id| !doomed.iter().any(|d| d.0 == *id))
        .collect();
    let epoch_before_crash = ctld.snapshot().seq;

    // Crash fires during the next tick — BEFORE this tick's flush, so the
    // three submissions die with the daemon.
    crash_ctld_next_tick(&site, 120, 1);
    clock.advance(1);
    ctld.tick();
    assert!(ctld.is_down());

    // While down: every RPC refuses, deterministically.
    let err = ctld.submit(template.clone()).unwrap_err();
    assert!(
        err.to_string()
            .contains("unable to contact slurm controller"),
        "{err}"
    );
    // Restart: the first tick past down_until recovers in-line.
    clock.advance(121);
    ctld.tick();
    assert!(!ctld.is_down());
    assert_eq!(ctld.restart_count(), 1);

    let report = ctld.last_recovery().expect("recovery report");
    assert_eq!(
        report.wal_lost, 3,
        "exactly the un-flushed tail is lost — the three doomed submits"
    );
    assert!(
        report.epoch_after > epoch_before_crash,
        "the republished snapshot must be a strictly newer epoch \
         ({} !> {epoch_before_crash})",
        report.epoch_after
    );
    assert!(report.checkpoint_at <= report.crashed_at);
    assert!(report.recovered_at > report.crashed_at);

    // Post-recovery state: every flushed job survives, every doomed one is
    // gone — checkpoint + WAL, nothing else.
    let after: Vec<u32> = ctld
        .query_jobs(&JobQuery::all())
        .iter()
        .map(|j| j.id.0)
        .collect();
    for id in &survivors {
        assert!(after.contains(id), "flushed job {id} must survive recovery");
    }
    for id in &doomed {
        assert!(
            !after.contains(&id.0),
            "un-flushed job {} must NOT survive recovery",
            id.0
        );
    }

    // The daemon is genuinely back: a new submit lands and schedules.
    let revived = ctld.submit(template).expect("post-recovery submit");
    assert!(!revived.is_empty());
}

#[test]
fn same_seed_crash_runs_recover_to_identical_state() {
    // Recovery is replay, and replay is deterministic: two runs of the
    // same seeded scenario with the same scripted crash must rebuild
    // byte-for-byte the same logical state. (Comparison is on sorted
    // structured state, not event order — HashMap iteration may differ.)
    fn run(seed: u64) -> (Vec<(u32, String)>, u64, u64, u64, u64) {
        let mut cfg = ScenarioConfig::small();
        cfg.seed = seed;
        let site = SimSite::build(cfg);
        site.warm_up(900);
        crash_ctld_next_tick(&site, 60, 1);
        site.scenario.clock.advance(1);
        site.scenario.ctld.tick();
        assert!(site.scenario.ctld.is_down());
        site.scenario.clock.advance(61);
        site.scenario.ctld.tick();
        let report = site.scenario.ctld.last_recovery().expect("recovered");
        let mut jobs: Vec<(u32, String)> = site
            .scenario
            .ctld
            .query_jobs(&JobQuery::all())
            .iter()
            .map(|j| (j.id.0, format!("{:?}", j.state)))
            .collect();
        jobs.sort();
        (
            jobs,
            site.scenario.dbd.archived_count() as u64,
            report.wal_replayed,
            report.wal_lost,
            report.epoch_after,
        )
    }
    let a = run(2024);
    let b = run(2024);
    assert_eq!(a, b, "same seed, same crash, same recovered state");
    let c = run(2025);
    assert_ne!(
        a.0, c.0,
        "different seed, different workload, different state"
    );
}

#[test]
fn widgets_stay_available_through_a_controller_outage_and_resync_after() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(600);
    let server = site.serve().unwrap();
    let base = server.base_url();
    let client = HttpClient::new();
    let user = site.scenario.population.users[0].clone();

    // Warm every homepage widget so serve-stale has something to serve.
    for (_, path) in hpcdash_core::pages::homepage::WIDGETS {
        let (status, _) = fetch(&client, &base, path, &user);
        assert_eq!(status, 200, "warm fetch of {path}");
    }

    // Down for 300 s starting at the next tick; ticks run every 61 s here,
    // so rounds 1-5 fetch against a dead controller and round 6 recovers.
    crash_ctld_next_tick(&site, 300, 62);
    let (mut fresh, mut degraded, mut failed) = (0u64, 0u64, 0u64);
    let mut last_round = Vec::new();
    for round in 0..10 {
        site.scenario.clock.advance(61);
        site.scenario.ctld.tick();
        if round == 2 {
            // Mid-outage the telemetry daemon skips its pass instead of
            // backfilling the gap from the dead controller's stale snapshot.
            let out = site.scenario.telemetry.collect_now();
            assert!(out.skipped_down, "collection must skip while down");
            assert_eq!(out.samples, 0);
            assert!(site.scenario.telemetry.gap_skips() >= 1);
        }
        last_round.clear();
        for (_, path) in hpcdash_core::pages::homepage::WIDGETS {
            let (status, body) = fetch(&client, &base, path, &user);
            let k = kind(status, &body);
            last_round.push((path, k));
            match k {
                "fresh" => fresh += 1,
                "degraded" => degraded += 1,
                _ => failed += 1,
            }
        }
        if site.scenario.ctld.restart_count() > 0 {
            // Recovery is replay, not a warm-up: from the restart tick's
            // round on, every widget loads fresh.
            assert!(
                last_round.iter().all(|(_, k)| *k == "fresh"),
                "round {round}, after the restart: {last_round:?}"
            );
        }
    }
    assert_eq!(
        failed, 0,
        "serve-stale keeps every widget available through the outage \
         ({fresh} fresh / {degraded} degraded)"
    );
    assert!(degraded > 0, "the crash actually bit");

    // The recovery was observed exactly once: restart counter, purge
    // counter, and the push hub's forced resync all fired.
    let ctx = site.ctx();
    assert_eq!(site.scenario.ctld.restart_count(), 1);
    assert_eq!(
        ctx.obs
            .counter("hpcdash_daemon_restarts_total", &[("daemon", "slurmctld")])
            .get(),
        1
    );
    assert!(
        ctx.obs
            .counter(
                "hpcdash_recovery_cache_purges_total",
                &[("daemon", "slurmctld")]
            )
            .get()
            >= 1
    );
    assert_eq!(
        ctx.obs
            .counter("hpcdash_push_discontinuities_total", &[])
            .get(),
        1,
        "every push subscriber was told to resync"
    );

    // /api/health narrates the whole story. (The overall status may still
    // read degraded right after the outage — the source error windows are
    // honest about the recent past — but the daemons block must be exact.)
    let (_, body) = fetch(&client, &base, "/api/health", &user);
    let ctld = &body["daemons"]["slurmctld"];
    assert_eq!(ctld["down"], false);
    assert_eq!(ctld["restarts"], 1);
    let recovery = &ctld["last_recovery"];
    assert!(recovery["epoch_after"].as_u64().unwrap() > recovery["epoch_before"].as_u64().unwrap());
    assert!(recovery["duration_us"].as_u64().is_some());
    assert!(
        body["daemons"]["telemetry_gap_skips"].as_u64().unwrap() >= 1,
        "{body}"
    );
}

#[test]
fn dbd_crash_loses_only_unflushed_batches_and_recovers_lazily() {
    let site = SimSite::build(ScenarioConfig::small());
    site.warm_up(4 * 3_600);
    let dbd = &site.scenario.dbd;
    let clock = &site.scenario.clock;
    let archived_before = dbd.archived_count();
    assert!(archived_before > 0, "warm accounting has finished jobs");

    // Crash the dbd on its next RPC; it has no tick loop, so recovery is
    // lazy — performed by the first RPC to arrive after down_until.
    let now = clock.now();
    dbd.faults().install(
        Arc::new(
            FaultPlan::new(7).rule(
                FaultRule::crash("slurmdbd", 90).during(Timestamp(now.0), Timestamp(now.0 + 1)),
            ),
        ),
        clock.shared(),
    );
    let _ = dbd.query_jobs(&hpcdash_slurm::dbd::JobFilter::default());
    assert!(dbd.is_down());
    // While down, archiving refuses: the controller keeps the batch
    // spooled for retry instead of dropping it.
    assert!(!dbd.record_finished(Vec::<hpcdash_slurm::job::Job>::new()));

    clock.advance(91);
    let rows = dbd.query_jobs(&hpcdash_slurm::dbd::JobFilter::default());
    assert!(
        !dbd.is_down(),
        "first RPC after down_until recovers in-line"
    );
    assert_eq!(dbd.restart_count(), 1);
    let report = dbd.last_recovery().expect("recovery report");
    // Every record the dbd acknowledged (per-batch flush) survives: the
    // archive write IS the commit, so acked batches are never lost.
    assert_eq!(
        rows.len(),
        archived_before,
        "acked archive rows survive the crash (wal_replayed={}, wal_lost={})",
        report.wal_replayed,
        report.wal_lost
    );
    assert_eq!(report.wal_lost, 0, "no batch was acked without a flush");
    assert_eq!(
        dbd.mirror_len(),
        0,
        "the active mirror died honestly; the next ctld sync refills it"
    );

    // The spool drains once both daemons are up: new finished jobs keep
    // arriving in accounting after the outage.
    let mut driver = site.driver(1_800);
    driver.advance(1_800);
    assert!(
        dbd.archived_count() > archived_before,
        "accounting flow resumed after recovery"
    );
}
