//! Experiment P6 — poll vs push at fleet scale: 500 dashboard tabs keeping
//! their job tables live.
//!
//! Legacy polling pays per *request*: every `/api/updates` poll scans the
//! event log and re-resolves the viewer's account set through slurmctld, so
//! N tabs × R refresh rounds cost N·R scans + N·R assoc RPCs whether or not
//! anything changed. The push hub pays per *event* and per *subscriber*:
//! one log scan + one assoc resolution at subscribe time, then delivery out
//! of pre-filtered in-memory queues. Equivalent freshness (every tab sees
//! every round's deltas) with daemon traffic that no longer scales with the
//! product of tabs and refresh rate.

use criterion::Criterion;
use hpcdash_bench::{banner, BenchSite};
use hpcdash_core::DashboardConfig;
use hpcdash_push::{Hub, HubConfig, Visibility};
use hpcdash_simtime::Timestamp;
use hpcdash_slurm::events::{EventSink, JobEvent};
use hpcdash_slurm::job::{JobId, JobState};
use hpcdash_workload::ScenarioConfig;
use std::sync::Arc;
use std::time::Duration;

const SUBSCRIBERS: usize = 500;
const ROUNDS: usize = 20;
const ROUND_SECS: u64 = 30;

struct Cost {
    log_scans: u64,
    assoc_rpcs: u64,
    delivered: u64,
}

fn assoc_count(site: &BenchSite) -> u64 {
    site.scenario
        .ctld
        .stats()
        .snapshot()
        .per_kind
        .get("scontrol_assoc")
        .map(|k| k.count)
        .unwrap_or(0)
}

fn site_with_users() -> (BenchSite, Vec<String>) {
    let site = BenchSite::build(ScenarioConfig::small(), DashboardConfig::purdue_like());
    site.warm_up(300);
    let users: Vec<String> = (0..SUBSCRIBERS)
        .map(|i| {
            site.scenario
                .population
                .user(i % site.scenario.population.users.len())
                .to_string()
        })
        .collect();
    (site, users)
}

/// 500 tabs polling `/api/updates?since=` every round.
fn run_poll() -> Cost {
    let (site, users) = site_with_users();
    let log = site.scenario.ctld.events();
    let scans0 = log.scan_count();
    let assoc0 = assoc_count(&site);
    let mut cursors = vec![0u64; SUBSCRIBERS];
    let mut delivered = 0u64;
    let mut driver = site.scenario.driver(ROUNDS as u64 * ROUND_SECS);
    for _ in 0..ROUNDS {
        driver.advance(ROUND_SECS);
        for (i, user) in users.iter().enumerate() {
            let resp = site.get(&format!("/api/updates?since={}", cursors[i]), user);
            assert_eq!(resp.status, 200);
            let body = resp.body_json().unwrap();
            cursors[i] = body["latest_seq"].as_u64().unwrap();
            delivered += body["events"].as_array().unwrap().len() as u64;
        }
    }
    Cost {
        log_scans: log.scan_count() - scans0,
        assoc_rpcs: assoc_count(&site) - assoc0,
        delivered,
    }
}

/// 500 tabs subscribed to `/api/updates/stream`, drained every round.
fn run_push() -> Cost {
    let (site, users) = site_with_users();
    let log = site.scenario.ctld.events();
    let scans0 = log.scan_count();
    let assoc0 = assoc_count(&site);
    let mut delivered = 0u64;
    let mut driver = site.scenario.driver(ROUNDS as u64 * ROUND_SECS);
    for round in 0..ROUNDS {
        driver.advance(ROUND_SECS);
        for (i, user) in users.iter().enumerate() {
            // sub tokens are per-tab; the first round registers + backfills.
            let resp = site.get(&format!("/api/updates/stream?sub=tab{i}"), user);
            assert_eq!(resp.status, 200);
            let body = resp.body_json().unwrap();
            assert_eq!(
                body["resync_required"], false,
                "round {round}: a drained-every-round queue never overflows"
            );
            delivered += body["events"].as_array().unwrap().len() as u64;
        }
    }
    Cost {
        log_scans: log.scan_count() - scans0,
        assoc_rpcs: assoc_count(&site) - assoc0,
        delivered,
    }
}

fn main() {
    banner(
        "P6",
        &format!(
            "live updates at scale: {SUBSCRIBERS} tabs x {ROUNDS} refresh rounds, poll vs push"
        ),
    );
    let poll = run_poll();
    let push = run_push();
    println!(
        "{:>6} | {:>10} {:>10} {:>10}",
        "mode", "log scans", "assoc RPCs", "delivered"
    );
    println!("{}", "-".repeat(44));
    for (name, c) in [("poll", &poll), ("push", &push)] {
        println!(
            "{:>6} | {:>10} {:>10} {:>10}",
            name, c.log_scans, c.assoc_rpcs, c.delivered
        );
    }

    // The claim this bench exists to hold: at equivalent freshness, push
    // costs the daemons >=10x less than polling.
    let poll_reads = poll.log_scans + poll.assoc_rpcs;
    let push_reads = push.log_scans + push.assoc_rpcs;
    assert!(
        poll_reads >= 10 * push_reads.max(1),
        "push must cut daemon reads >=10x (poll {poll_reads} vs push {push_reads})"
    );
    // And not by delivering less: both modes saw the same stream of deltas.
    assert!(
        push.delivered >= poll.delivered,
        "push under-delivered ({} vs {})",
        push.delivered,
        poll.delivered
    );
    println!("\nshape: polling costs {SUBSCRIBERS} log scans + {SUBSCRIBERS} assoc RPCs per round");
    println!("(N*R total); push pays one scan + one assoc per *subscriber* at registration");
    println!("and delivers every later round out of pre-filtered in-memory queues.");

    // Criterion: the marginal costs the modes multiply — one fan-out publish
    // into 500 queues (with amortized drains) vs one empty stream drain.
    let mut cbench = Criterion::default().configure_from_args().sample_size(30);
    {
        let hub = Arc::new(Hub::new(
            HubConfig::default(),
            Arc::new(|_: &str, _| -> Visibility {
                Box::new(|e: &JobEvent| e.account == "physics")
            }),
        ));
        let handles: Vec<_> = (0..SUBSCRIBERS)
            .map(|i| hub.ensure(&format!("u{i}:tab"), &format!("u{i}"), false).0)
            .collect();
        let mut group = cbench.benchmark_group("push_fanout");
        let mut seq = 0u64;
        group.bench_function("publish_500_subscribers", |b| {
            b.iter(|| {
                seq += 1;
                hub.publish(&JobEvent {
                    seq,
                    at: Timestamp(seq),
                    cluster: "testbed".to_string(),
                    job: JobId(seq as u32),
                    user: "u0".to_string(),
                    account: "physics".to_string(),
                    from: None,
                    to: JobState::Pending,
                    reason: None,
                });
                // Drain periodically so queues stay in steady state instead
                // of degenerating into coalesced resyncs.
                if seq.is_multiple_of(100) {
                    for h in &handles {
                        hub.wait(h, Duration::ZERO);
                    }
                }
            })
        });
        group.finish();

        let site = BenchSite::fast();
        site.warm_up(300);
        let user = site.user();
        site.get("/api/updates/stream?sub=bench", &user); // register + backfill
        let mut group = cbench.benchmark_group("stream_route");
        group.bench_function("drain_empty", |b| {
            b.iter(|| site.get("/api/updates/stream?sub=bench", &user))
        });
        group.finish();
    }
    cbench.final_summary();
}
