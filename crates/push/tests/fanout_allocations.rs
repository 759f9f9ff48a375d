//! Fan-out cost does not depend on how many tabs are subscribed: an event is
//! stored once, in the log, and publishing it only wakes the subscribers
//! that may see it. A hub that copied each event into every subscriber's
//! own buffer would allocate its three strings once per subscriber.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash_obs::Registry;
use hpcdash_push::{Hub, HubConfig, Visibility};
use hpcdash_simtime::{SimClock, Timestamp};
use hpcdash_slurm::events::{EventLog, JobEvent};
use hpcdash_slurm::job::{JobId, JobState};
use hpcdash_testkit::{allocations, CountingAlloc};
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const EVENTS: u64 = 256;

/// Allocations made publishing `EVENTS` events every one of `subscribers`
/// tabs may see, and what the busiest tab then reads.
fn publish_cost(subscribers: usize) -> (u64, usize) {
    let log = Arc::new(EventLog::new(4_096));
    let everyone = Arc::new(|_: &str, _| -> Visibility { Box::new(|_: &JobEvent| true) });
    let hub = Hub::new(
        HubConfig::default(),
        SimClock::new(Timestamp(0)).shared(),
        log.clone(),
        everyone,
        &Registry::new(),
    );
    let tabs: Vec<_> = (0..subscribers)
        .map(|i| hub.ensure(&format!("user{i}:tab"), &format!("user{i}"), false, 0))
        .collect();
    let before = allocations();
    for _ in 0..EVENTS {
        log.push(
            Timestamp(0),
            JobId(1),
            "alice",
            "physics",
            None,
            JobState::Running,
            None,
        );
    }
    let cost = allocations() - before;
    (cost, hub.wait(&tabs[0], Duration::ZERO).events.len())
}

#[test]
fn publishing_costs_the_same_for_one_subscriber_as_for_a_thousand() {
    let (one, read_one) = publish_cost(1);
    let (many, read_many) = publish_cost(1_000);
    assert_eq!((read_one, read_many), (256, 256), "every event was visible");
    // The constant covers what a push allocates whoever listens: the
    // stored event and its span. Copying the event into 999 more tabs
    // would add about 3 x 256 x 999 allocations.
    assert!(
        many.abs_diff(one) <= 16,
        "{one} allocations with 1 subscriber, {many} with 1000"
    );
}
