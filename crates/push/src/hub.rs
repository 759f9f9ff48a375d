//! The subscription hub: a sharded registry of cursors into one event log.
//!
//! A subscriber holds no events, only a cursor (a log seq). `wait` reads the
//! shared [`EventLog`] past that cursor, filtering with the subscriber's
//! [`Visibility`] as it reads, and moves the cursor to the head it saw.
//! `publish` copies nothing: for each subscriber that may see the event it
//! only wakes a parked reader. A slow consumer stays bounded because the
//! log's retained window is.
//!
//! One resync rule: the cursor fell out of the retained window, or a
//! discontinuity (a daemon crash-recovery) passed since the last read.
//!
//! The hub holds no privacy rule. Which events a subscriber may see is a
//! [`Visibility`] check its owner's [`VisibilityResolver`] builds; the hub
//! only decides *when* to build it: at subscribe time, then once per
//! `accounts_ttl` for non-admin subscribers (an admin's view cannot
//! narrow).
//!
//! Freshness reads the dashboard's clock (simulated time in a simulated
//! run), as the caches and breakers do: the visibility TTL, subscriber
//! expiry and the sweep's rate limit. Only the long-poll deadline in
//! [`Hub::wait`] is a host-clock wait.
//!
//! Lock ordering (deadlock freedom): the resolver reaches into `slurmctld`
//! (daemon lock), and the publisher calls [`Hub::publish`] *while holding*
//! that daemon lock. The hub therefore never invokes the resolver while
//! holding any hub lock — checks are built first and swapped in afterwards
//! — and the publish path only ever takes a shard lock and per-subscriber
//! locks, each held at most for one bounded log read.

use hpcdash_obs::{Counter, Gauge, Registry, Span};
use hpcdash_simtime::{SharedClock, Timestamp};
use hpcdash_slurm::events::{EventLog, EventSink, JobEvent};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// May this subscriber see this event?
pub type Visibility = Box<dyn Fn(&JobEvent) -> bool + Send + Sync>;

/// Builds the [`Visibility`] of a subscriber streaming `user`'s view, with
/// admin rights when the flag is set. Called at subscribe time and then at
/// most once per TTL window per non-admin subscriber — never on the
/// per-event fan-out path.
pub type VisibilityResolver = Arc<dyn Fn(&str, bool) -> Visibility + Send + Sync>;

/// Hub tuning knobs.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Registry shards (subscribe/fan-out contention granularity).
    pub shards: usize,
    /// How long a resolved [`Visibility`] (the account memberships it was
    /// built from) stays trusted before the next `wait` rebuilds it.
    pub accounts_ttl: Duration,
    /// Subscribers that have not polled for this long are garbage-collected.
    pub idle_ttl: Duration,
}

impl Default for HubConfig {
    fn default() -> HubConfig {
        HubConfig {
            shards: 8,
            accounts_ttl: Duration::from_secs(60),
            idle_ttl: Duration::from_secs(300),
        }
    }
}

/// What one read from a subscriber's cursor returns.
#[derive(Debug, Clone, Default)]
pub struct Delivery {
    /// Visible events past the cursor, in sequence order.
    pub events: Vec<JobEvent>,
    /// The log head the read saw; the cursor now points here.
    pub latest_seq: u64,
    /// The delta stream has a hole (see the module docs): the client
    /// refetches its tables, then keeps streaming from `latest_seq`.
    pub resync_required: bool,
}

/// Where a subscriber has read to. Its mutex also closes the race between
/// a reader that found nothing and is about to park, and a publish.
struct Cursor {
    seq: u64,
    /// The hub's discontinuity epoch at the last read.
    epoch: u64,
}

struct Resolved {
    sees: Visibility,
    refreshed: Timestamp,
}

struct Subscriber {
    user: String,
    is_admin: bool,
    visibility: RwLock<Resolved>,
    cursor: Mutex<Cursor>,
    wake: Condvar,
    last_poll: Mutex<Timestamp>,
    /// One-shot callback fired (and consumed) on the next wake. Installed
    /// by an event-loop long-poll parking this subscriber's connection; the
    /// condvar path ignores it entirely.
    notify: Mutex<Option<Box<dyn Fn() + Send>>>,
}

/// Has less than `ttl` passed from `then` to `now`?
fn within(now: Timestamp, then: Timestamp, ttl: Duration) -> bool {
    Duration::from_secs(now.since(then)) < ttl
}

impl Subscriber {
    fn is_live(&self, now: Timestamp, idle_ttl: Duration) -> bool {
        within(now, *self.last_poll.lock(), idle_ttl)
    }

    /// Wake a parked `wait` and fire the one-shot callback. Taking the
    /// cursor mutex orders this after a reader's read-then-park.
    fn signal(&self) {
        drop(self.cursor.lock());
        self.wake.notify_all();
        if let Some(notify) = self.notify.lock().take() {
            notify();
        }
    }
}

/// A cheap, cloneable reference to a registered subscriber.
#[derive(Clone)]
pub struct SubscriberHandle {
    sub: Arc<Subscriber>,
}

struct Instruments {
    subscribers: Arc<Gauge>,
    published: Arc<Counter>,
    delivered: Arc<Counter>,
    resyncs: Arc<Counter>,
    discontinuities: Arc<Counter>,
    parked: Arc<Gauge>,
}

/// One registry shard. The sweep timestamp rate-limits opportunistic GC:
/// without it, every registration in a burst pays a full shard scan and a
/// 100k-tab fleet costs O(n²) mutex acquisitions to stand up.
struct Shard {
    subs: HashMap<String, Arc<Subscriber>>,
    swept: Timestamp,
}

/// The fan-out hub. One per dashboard context; registered as an
/// [`EventSink`] on the cluster's `EventLog`, which it also reads.
pub struct Hub {
    cfg: HubConfig,
    clock: SharedClock,
    log: Arc<EventLog>,
    shards: Vec<Mutex<Shard>>,
    resolver: VisibilityResolver,
    /// Bumped by every discontinuity; a cursor last read under an older
    /// epoch resyncs.
    epoch: AtomicU64,
    ins: Instruments,
}

impl Hub {
    /// A hub over `log`, registered on it as a sink, its TTLs read on
    /// `clock`, metered in `registry`: `hpcdash_push_subscribers`,
    /// `hpcdash_push_events_published_total`,
    /// `hpcdash_push_events_delivered_total`, `hpcdash_push_resyncs_total`,
    /// `hpcdash_push_discontinuities_total`, `hpcdash_push_parked_workers`.
    pub fn new(
        cfg: HubConfig,
        clock: SharedClock,
        log: Arc<EventLog>,
        resolver: VisibilityResolver,
        registry: &Registry,
    ) -> Arc<Hub> {
        let swept = clock.now();
        let hub = Arc::new(Hub {
            shards: (0..cfg.shards.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        subs: HashMap::new(),
                        swept,
                    })
                })
                .collect(),
            cfg,
            clock,
            log,
            resolver,
            epoch: AtomicU64::new(0),
            ins: Instruments {
                subscribers: registry.gauge("hpcdash_push_subscribers", &[]),
                published: registry.counter("hpcdash_push_events_published_total", &[]),
                delivered: registry.counter("hpcdash_push_events_delivered_total", &[]),
                resyncs: registry.counter("hpcdash_push_resyncs_total", &[]),
                discontinuities: registry.counter("hpcdash_push_discontinuities_total", &[]),
                parked: registry.gauge("hpcdash_push_parked_workers", &[]),
            },
        });
        hub.log.add_sink(&hub);
        hub
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up or create the subscriber for `key`, which streams `user`'s
    /// view (with admin rights when `is_admin`). The key must tell apart
    /// every viewer whose visibility differs — a subscriber found under it
    /// is handed out as is. A created subscriber's cursor starts at `since`,
    /// so its first read replays the history the client has not seen.
    /// Stale subscribers on the same shard are garbage-collected
    /// opportunistically, at most one sweep per shard per `idle_ttl` — a
    /// registration burst must not pay per-burst-size scans.
    pub fn ensure(&self, key: &str, user: &str, is_admin: bool, since: u64) -> SubscriberHandle {
        let idle_ttl = self.cfg.idle_ttl;
        let now = self.clock.now();
        // A stale entry falls through to the slow path, which sweeps it and
        // registers a fresh subscriber in its place.
        if let Some(sub) = self.shard_of(key).lock().subs.get(key) {
            if sub.is_live(now, idle_ttl) {
                return SubscriberHandle { sub: sub.clone() };
            }
        }
        // Resolve visibility BEFORE taking any hub lock (the resolver takes
        // the daemon lock, which publishers hold while calling into us).
        let sees = (self.resolver)(user, is_admin);
        let fresh = Arc::new(Subscriber {
            user: user.to_string(),
            is_admin,
            visibility: RwLock::new(Resolved {
                sees,
                refreshed: now,
            }),
            cursor: Mutex::new(Cursor {
                seq: since,
                epoch: self.epoch.load(Ordering::SeqCst),
            }),
            wake: Condvar::new(),
            last_poll: Mutex::new(now),
            notify: Mutex::new(None),
        });
        let mut shard = self.shard_of(key).lock();
        let before = shard.subs.len();
        if !within(now, shard.swept, idle_ttl) {
            shard.swept = now;
            shard.subs.retain(|_, sub| sub.is_live(now, idle_ttl));
        }
        // The key's own entry is checked sweep or no sweep: a stale
        // subscriber must never be resurrected with its old cursor.
        let sub = match shard.subs.get(key) {
            // Raced with another worker creating the same key.
            Some(existing) if existing.is_live(now, idle_ttl) => existing.clone(),
            _ => {
                shard.subs.insert(key.to_string(), fresh.clone());
                fresh
            }
        };
        let added = shard.subs.len() as i64 - before as i64;
        self.ins.subscribers.add(added);
        SubscriberHandle { sub }
    }

    /// Live subscriber count (all shards).
    pub fn subscriber_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().subs.len()).sum()
    }

    /// Install a one-shot wake callback, fired the next time a visible
    /// event (or a discontinuity) reaches this subscriber and then consumed.
    /// This is how an event-loop long-poll parks a *connection* instead of
    /// a thread: the callback pokes the event loop that holds it. Replaces any
    /// previously installed callback.
    pub fn set_notify(&self, handle: &SubscriberHandle, notify: impl Fn() + Send + 'static) {
        *handle.sub.notify.lock() = Some(Box::new(notify));
    }

    /// Drop an installed wake callback without firing it (the poll was
    /// answered some other way).
    pub fn clear_notify(&self, handle: &SubscriberHandle) {
        handle.sub.notify.lock().take();
    }

    /// Read the visible events past the subscriber's cursor, parking up to
    /// `deadline` (host time) while there are none. A zero deadline reads
    /// without parking. Also rebuilds the subscriber's visibility when its
    /// TTL has lapsed.
    pub fn wait(&self, handle: &SubscriberHandle, deadline: Duration) -> Delivery {
        let sub = &*handle.sub;
        let now = self.clock.now();
        *sub.last_poll.lock() = now;
        self.refresh_visibility(sub, now);
        let start = Instant::now();
        let mut cursor = sub.cursor.lock();
        loop {
            let epoch = self.epoch.load(Ordering::SeqCst);
            let read = {
                let visibility = sub.visibility.read();
                self.log.read(cursor.seq, |e| (visibility.sees)(e))
            };
            let resync_required = read.truncated || cursor.epoch != epoch;
            *cursor = Cursor {
                seq: read.head,
                epoch,
            };
            if resync_required {
                self.ins.resyncs.inc();
                return Delivery {
                    events: Vec::new(),
                    latest_seq: read.head,
                    resync_required: true,
                };
            }
            if !read.entries.is_empty() || start.elapsed() >= deadline {
                self.ins.delivered.add(read.entries.len() as u64);
                return Delivery {
                    events: read.entries,
                    latest_seq: read.head,
                    resync_required: false,
                };
            }
            self.ins.parked.inc();
            sub.wake
                .wait_for(&mut cursor, deadline.saturating_sub(start.elapsed()));
            self.ins.parked.dec();
        }
    }

    /// Rebuild the subscriber's visibility if its TTL lapsed. The resolver
    /// runs with no hub locks held; concurrent refreshes are harmless.
    fn refresh_visibility(&self, sub: &Subscriber, now: Timestamp) {
        if sub.is_admin {
            return;
        }
        if within(now, sub.visibility.read().refreshed, self.cfg.accounts_ttl) {
            return;
        }
        let sees = (self.resolver)(&sub.user, false);
        *sub.visibility.write() = Resolved {
            sees,
            refreshed: now,
        };
    }

    /// Signal every subscriber `wants` picks, walking each shard under its
    /// lock rather than copying the registry out: a publish allocates
    /// nothing per subscriber.
    fn signal_all(&self, mut wants: impl FnMut(&Subscriber) -> bool) {
        for shard in &self.shards {
            for sub in shard.lock().subs.values() {
                if wants(sub) {
                    sub.signal();
                }
            }
        }
    }
}

impl EventSink for Hub {
    /// Wake every subscriber that may see the appended event. Called on
    /// the publisher's thread (typically under the daemon lock): the event
    /// is already in the log, so per-subscriber work is one visibility
    /// check and a wake — no copy, nothing that waits on a consumer.
    fn publish(&self, event: &JobEvent) {
        let _span = Span::enter("push-fanout").attr("seq", event.seq);
        self.ins.published.inc();
        self.signal_all(|sub| (sub.visibility.read().sees)(event));
    }

    /// The event stream has a gap no subscriber can paper over (a daemon
    /// crashed and recovered; replayed history was not re-delivered). Move
    /// to a new epoch: every cursor's next read reports `resync_required`,
    /// so the client refetches its tables before streaming again.
    fn discontinuity(&self) {
        let _span = Span::enter("push-fanout").attr("kind", "discontinuity");
        self.ins.discontinuities.inc();
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.signal_all(|_| true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::SimClock;
    use hpcdash_slurm::job::{JobId, JobState};

    fn push(log: &EventLog, user: &str, account: &str) -> u64 {
        log.push(
            Timestamp(0),
            JobId(1),
            user,
            account,
            None,
            JobState::Pending,
            None,
        )
    }

    fn seqs(d: &Delivery) -> Vec<u64> {
        d.events.iter().map(|e| e.seq).collect()
    }

    /// A fixed table of what each test stream carries: alice's the physics
    /// account, root's everything, anyone else's nothing.
    fn stub_visibility(user: &str) -> Visibility {
        match user {
            "alice" => Box::new(|e: &JobEvent| e.account == "physics"),
            "root" => Box::new(|_: &JobEvent| true),
            _ => Box::new(|_: &JobEvent| false),
        }
    }

    /// A hub over a fresh log retaining `capacity` events, metered in `reg`,
    /// on a clock that never moves.
    fn metered(cfg: HubConfig, capacity: usize, reg: &Registry) -> (Arc<Hub>, Arc<EventLog>) {
        let log = Arc::new(EventLog::new(capacity));
        let resolver = Arc::new(|user: &str, _| stub_visibility(user));
        let clock = SimClock::new(Timestamp(0)).shared();
        (Hub::new(cfg, clock, log.clone(), resolver, reg), log)
    }

    fn hub_with(cfg: HubConfig, capacity: usize) -> (Arc<Hub>, Arc<EventLog>) {
        metered(cfg, capacity, &Registry::new())
    }

    #[test]
    fn visible_events_are_delivered_in_order() {
        let (hub, log) = hub_with(HubConfig::default(), 100);
        let alice = hub.ensure("alice:t", "alice", false, 0);
        push(&log, "alice", "physics");
        push(&log, "bob", "physics"); // group-visible
        push(&log, "mallory", "secret"); // invisible
        let d = hub.wait(&alice, Duration::ZERO);
        assert_eq!(seqs(&d), vec![1, 2]);
        assert!(!d.resync_required);
        assert_eq!(d.latest_seq, 3, "the cursor passes filtered events too");
        // Nothing left.
        let d = hub.wait(&alice, Duration::ZERO);
        assert!(d.events.is_empty());
    }

    #[test]
    fn delivery_follows_the_resolved_visibility() {
        let (hub, log) = hub_with(HubConfig::default(), 100);
        let root = hub.ensure("root:t", "root", true, 0);
        let bob = hub.ensure("bob:t", "bob", false, 0);
        push(&log, "mallory", "secret");
        push(&log, "bob", "physics");
        assert_eq!(hub.wait(&root, Duration::ZERO).events.len(), 2);
        assert!(hub.wait(&bob, Duration::ZERO).events.is_empty());
    }

    #[test]
    fn visibility_is_built_at_subscribe_then_per_ttl_and_never_again_for_admins() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let record = calls.clone();
        let clock = SimClock::new(Timestamp(1_000));
        let hub = Hub::new(
            HubConfig {
                accounts_ttl: Duration::from_secs(60),
                ..HubConfig::default()
            },
            clock.shared(),
            Arc::new(EventLog::new(10)),
            Arc::new(move |user: &str, is_admin: bool| {
                record.lock().push((user.to_string(), is_admin));
                stub_visibility(user)
            }),
            &Registry::new(),
        );
        let alice = hub.ensure("alice:t", "alice", false, 0);
        let root = hub.ensure("root:t", "root", true, 0);
        hub.wait(&alice, Duration::ZERO);
        hub.wait(&root, Duration::ZERO);
        clock.advance(59);
        hub.wait(&alice, Duration::ZERO);
        assert_eq!(calls.lock().len(), 2, "nothing rebuilt within the TTL");
        clock.advance(1);
        hub.wait(&alice, Duration::ZERO);
        hub.wait(&root, Duration::ZERO);
        let expected = [("alice", false), ("root", true), ("alice", false)];
        let expected: Vec<(String, bool)> = expected
            .iter()
            .map(|&(u, admin)| (u.to_string(), admin))
            .collect();
        assert_eq!(*calls.lock(), expected);
    }

    /// A user removed from an account stops seeing its events once the
    /// visibility TTL has passed on the dashboard's clock, however little
    /// host time went by.
    #[test]
    fn a_revoked_account_drops_out_after_the_ttl_on_the_sim_clock() {
        let member = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let resolved = member.clone();
        let clock = SimClock::new(Timestamp(1_000));
        let log = Arc::new(EventLog::new(100));
        let hub = Hub::new(
            HubConfig::default(),
            clock.shared(),
            log.clone(),
            Arc::new(move |_: &str, _| -> Visibility {
                let member = resolved.load(Ordering::SeqCst);
                Box::new(move |e: &JobEvent| member && e.account == "physics")
            }),
            &Registry::new(),
        );
        let alice = hub.ensure("alice:t", "alice", false, 0);
        push(&log, "bob", "physics");
        assert_eq!(seqs(&hub.wait(&alice, Duration::ZERO)), vec![1]);

        member.store(false, Ordering::SeqCst);
        clock.advance(HubConfig::default().accounts_ttl.as_secs());
        push(&log, "bob", "physics");
        let d = hub.wait(&alice, Duration::ZERO);
        assert!(d.events.is_empty(), "revoked account leaked {:?}", seqs(&d));
        assert_eq!(d.latest_seq, 2);
    }

    #[test]
    fn overflow_coalesces_to_resync_and_recovers() {
        let (hub, log) = hub_with(HubConfig::default(), 4);
        let alice = hub.ensure("alice:t", "alice", false, 0);
        for _ in 1..=10 {
            push(&log, "alice", "physics");
        }
        let d = hub.wait(&alice, Duration::ZERO);
        assert!(d.resync_required, "a window of 4 cannot hold 10 events");
        assert!(d.events.is_empty(), "a cursor with a hole delivers nothing");
        assert_eq!(d.latest_seq, 10, "the resync re-anchors at the head");
        // After the resync is reported the subscriber streams again.
        push(&log, "alice", "physics");
        let d = hub.wait(&alice, Duration::ZERO);
        assert_eq!(seqs(&d), vec![11]);
        assert!(!d.resync_required);
    }

    #[test]
    fn a_seeded_cursor_replays_history_then_streams_each_event_once() {
        let (hub, log) = hub_with(HubConfig::default(), 100);
        for _ in 1..=5 {
            push(&log, "alice", "physics");
        }
        // The client last saw seq 2; a live publish lands before its read.
        let alice = hub.ensure("alice:t", "alice", false, 2);
        push(&log, "alice", "physics");
        let d = hub.wait(&alice, Duration::ZERO);
        assert_eq!(seqs(&d), vec![3, 4, 5, 6]);
        assert!(hub.wait(&alice, Duration::ZERO).events.is_empty());
    }

    #[test]
    fn a_cursor_seeded_before_the_window_resyncs() {
        let (hub, log) = hub_with(HubConfig::default(), 4);
        for _ in 1..=10 {
            push(&log, "alice", "physics");
        }
        let behind = hub.ensure("alice:behind", "alice", false, 2);
        assert!(hub.wait(&behind, Duration::ZERO).resync_required);
        let inside = hub.ensure("alice:inside", "alice", false, 6);
        assert_eq!(seqs(&hub.wait(&inside, Duration::ZERO)), vec![7, 8, 9, 10]);
    }

    #[test]
    fn discontinuity_forces_resync_on_every_subscriber() {
        let reg = Registry::new();
        let (hub, log) = metered(HubConfig::default(), 100, &reg);
        let alice = hub.ensure("alice:t", "alice", false, 0);
        let root = hub.ensure("root:t", "root", true, 0);
        push(&log, "alice", "physics");
        push(&log, "mallory", "secret");
        // A daemon crash-recovery fires the sink's discontinuity hook:
        // events past the cursors are dead-epoch data and must not be read.
        log.signal_discontinuity();
        for handle in [&alice, &root] {
            let d = hub.wait(handle, Duration::ZERO);
            assert!(d.resync_required, "every live subscriber must resync");
            assert!(d.events.is_empty(), "dead-epoch events are not delivered");
        }
        assert_eq!(
            reg.counter("hpcdash_push_discontinuities_total", &[]).get(),
            1
        );
        // Streaming resumes cleanly after the resync.
        push(&log, "alice", "physics");
        let d = hub.wait(&alice, Duration::ZERO);
        assert_eq!(seqs(&d), vec![3]);
    }

    #[test]
    fn wait_parks_until_publish() {
        let (hub, log) = hub_with(HubConfig::default(), 100);
        let alice = hub.ensure("alice:t", "alice", false, 0);
        let h2 = hub.clone();
        let waiter = std::thread::spawn(move || h2.wait(&alice, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        push(&log, "alice", "physics");
        let d = waiter.join().unwrap();
        assert_eq!(d.events.len(), 1, "woken by the publish, not the timeout");
    }

    #[test]
    fn wait_deadline_expires_empty() {
        let (hub, _log) = hub_with(HubConfig::default(), 100);
        let alice = hub.ensure("alice:t", "alice", false, 0);
        let start = Instant::now();
        let d = hub.wait(&alice, Duration::from_millis(40));
        assert!(d.events.is_empty() && !d.resync_required);
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn ensure_is_idempotent_and_gc_reclaims_idle() {
        let cfg = HubConfig {
            idle_ttl: Duration::from_secs(300),
            ..HubConfig::default()
        };
        let log = Arc::new(EventLog::new(100));
        let clock = SimClock::new(Timestamp(1_000));
        let resolver = Arc::new(|user: &str, _| stub_visibility(user));
        let hub = Hub::new(cfg, clock.shared(), log.clone(), resolver, &Registry::new());
        push(&log, "alice", "physics");
        let a = hub.ensure("alice:t", "alice", false, 0);
        assert_eq!(seqs(&hub.wait(&a, Duration::ZERO)), vec![1]);
        // The same key finds the same cursor, whatever `since` it carries.
        let a = hub.ensure("alice:t", "alice", false, 0);
        assert!(hub.wait(&a, Duration::ZERO).events.is_empty());
        assert_eq!(hub.subscriber_count(), 1);
        clock.advance(300);
        // After expiry the stale entry is swept and recreated at `since`.
        let a = hub.ensure("alice:t", "alice", false, 0);
        assert_eq!(
            seqs(&hub.wait(&a, Duration::ZERO)),
            vec![1],
            "idle subscriber was reclaimed"
        );
        assert_eq!(hub.subscriber_count(), 1);
    }

    #[test]
    fn metrics_reflect_hub_activity() {
        let reg = Registry::new();
        let (hub, log) = metered(HubConfig::default(), 2, &reg);
        let alice = hub.ensure("alice:t", "alice", false, 0);
        for _ in 1..=5 {
            push(&log, "alice", "physics");
        }
        let d = hub.wait(&alice, Duration::ZERO);
        assert!(d.resync_required);
        assert_eq!(reg.gauge("hpcdash_push_subscribers", &[]).get(), 1);
        assert_eq!(
            reg.counter("hpcdash_push_events_published_total", &[])
                .get(),
            5
        );
        assert_eq!(reg.counter("hpcdash_push_resyncs_total", &[]).get(), 1);
        push(&log, "alice", "physics");
        hub.wait(&alice, Duration::ZERO);
        assert_eq!(
            reg.counter("hpcdash_push_events_delivered_total", &[])
                .get(),
            1
        );
    }
}
