//! The subscription hub: sharded registry, bounded queues, condvar wakeups.
//!
//! The hub holds no privacy rule. Which events a subscriber may see is a
//! [`Visibility`] check its owner's [`VisibilityResolver`] builds; the hub
//! only decides *when* to build it: at subscribe time, then once per
//! `accounts_ttl` for non-admin subscribers (an admin's view cannot
//! narrow).
//!
//! Lock ordering (deadlock freedom): the resolver reaches into `slurmctld`
//! (daemon lock), and the publisher calls [`Hub::publish`] *while holding*
//! that daemon lock. The hub therefore never invokes the resolver while
//! holding any hub lock — checks are built first and swapped in afterwards
//! — and the publish path only ever takes a shard lock and per-subscriber
//! locks, each for O(queue op) time.

use hpcdash_obs::{Counter, Gauge, Histogram, Registry, Span};
use hpcdash_slurm::events::{EventSink, JobEvent};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
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
    /// Bounded per-subscriber queue length; overflowing coalesces the queue
    /// into a single `resync_required` marker.
    pub queue_capacity: usize,
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
            queue_capacity: 256,
            accounts_ttl: Duration::from_secs(60),
            idle_ttl: Duration::from_secs(300),
        }
    }
}

/// What a drained subscriber receives.
#[derive(Debug, Clone, Default)]
pub struct Delivery {
    /// Visible events in sequence order, deduplicated, each delivered at
    /// most once per subscriber.
    pub events: Vec<JobEvent>,
    /// The subscriber overflowed (or was backfilled from a truncated log):
    /// its delta stream has a hole and it must refetch tables, then keep
    /// streaming. Reported once; the flag clears on read.
    pub resync_required: bool,
}

struct QueuedEvent {
    event: JobEvent,
    enqueued: Instant,
}

/// Queue state guarded by the subscriber's mutex; the condvar parks the
/// long-poll worker against it.
struct SubQueue {
    queue: VecDeque<QueuedEvent>,
    resync_required: bool,
    /// Highest seq handed out, so overlapping backfill + live publishes
    /// never deliver an event twice.
    delivered_through: u64,
}

struct Resolved {
    sees: Visibility,
    refreshed: Instant,
}

struct Subscriber {
    user: String,
    is_admin: bool,
    visibility: RwLock<Resolved>,
    q: Mutex<SubQueue>,
    wake: Condvar,
    last_poll: Mutex<Instant>,
    /// One-shot callback fired (and consumed) when something lands in the
    /// queue. Installed by an event-loop long-poll parking this subscriber's
    /// connection; the thread-era condvar path ignores it entirely.
    notify: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl Subscriber {
    fn sees(&self, event: &JobEvent) -> bool {
        (self.visibility.read().sees)(event)
    }
}

/// A cheap, cloneable reference to a registered subscriber.
#[derive(Clone)]
pub struct SubscriberHandle {
    sub: Arc<Subscriber>,
}

#[derive(Clone)]
struct Instruments {
    subscribers: Arc<Gauge>,
    published: Arc<Counter>,
    delivered: Arc<Counter>,
    overflows: Arc<Counter>,
    resyncs: Arc<Counter>,
    discontinuities: Arc<Counter>,
    fanout_lag: Arc<Histogram>,
    parked: Arc<Gauge>,
}

/// One registry shard. The sweep timestamp rate-limits opportunistic GC:
/// without it, every registration in a burst pays a full shard scan and a
/// 100k-tab fleet costs O(n²) mutex acquisitions to stand up.
struct Shard {
    subs: HashMap<String, Arc<Subscriber>>,
    swept: Instant,
}

impl Default for Shard {
    fn default() -> Shard {
        Shard {
            subs: HashMap::new(),
            swept: Instant::now(),
        }
    }
}

/// The fan-out hub. One per dashboard context; registered as an
/// [`EventSink`] on the cluster's `EventLog`.
pub struct Hub {
    cfg: HubConfig,
    shards: Vec<Mutex<Shard>>,
    resolver: VisibilityResolver,
    instruments: RwLock<Option<Instruments>>,
}

impl Hub {
    pub fn new(cfg: HubConfig, resolver: VisibilityResolver) -> Hub {
        let shards = (0..cfg.shards.max(1)).map(|_| Mutex::default()).collect();
        Hub {
            cfg,
            shards,
            resolver,
            instruments: RwLock::new(None),
        }
    }

    /// Attach a metrics registry; the hub is unmetered without one.
    /// Exports `hpcdash_push_subscribers`, `hpcdash_push_events_published_total`,
    /// `hpcdash_push_events_delivered_total`, `hpcdash_push_overflows_total`,
    /// `hpcdash_push_resyncs_total`, `hpcdash_push_discontinuities_total`,
    /// `hpcdash_push_fanout_lag`, `hpcdash_push_parked_workers`.
    pub fn set_registry(&self, registry: &Registry) {
        *self.instruments.write() = Some(Instruments {
            subscribers: registry.gauge("hpcdash_push_subscribers", &[]),
            published: registry.counter("hpcdash_push_events_published_total", &[]),
            delivered: registry.counter("hpcdash_push_events_delivered_total", &[]),
            overflows: registry.counter("hpcdash_push_overflows_total", &[]),
            resyncs: registry.counter("hpcdash_push_resyncs_total", &[]),
            discontinuities: registry.counter("hpcdash_push_discontinuities_total", &[]),
            fanout_lag: registry.histogram("hpcdash_push_fanout_lag", &[]),
            parked: registry.gauge("hpcdash_push_parked_workers", &[]),
        });
    }

    fn instruments(&self) -> Option<Instruments> {
        self.instruments.read().clone()
    }

    fn shard_of(&self, key: &str) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Look up or create the subscriber for `key`, which streams `user`'s
    /// view (with admin rights when `is_admin`). The key must tell apart
    /// every viewer whose visibility differs — a subscriber found under it
    /// is handed out as is. Returns `true` when it was created — the caller
    /// then backfills it from the event log. Stale subscribers on the same shard are
    /// garbage-collected opportunistically, at most one sweep per shard per
    /// `idle_ttl` — a registration burst must not pay per-burst-size scans.
    pub fn ensure(&self, key: &str, user: &str, is_admin: bool) -> (SubscriberHandle, bool) {
        if let Some(sub) = self.shard_of(key).lock().subs.get(key) {
            // A stale entry falls through to the slow path, which sweeps it
            // and registers a fresh subscriber in its place.
            if sub.last_poll.lock().elapsed() < self.cfg.idle_ttl {
                return (SubscriberHandle { sub: sub.clone() }, false);
            }
        }
        // Resolve visibility BEFORE taking any hub lock (the resolver takes
        // the daemon lock, which publishers hold while calling into us).
        let sees = (self.resolver)(user, is_admin);
        let now = Instant::now();
        let fresh = Arc::new(Subscriber {
            user: user.to_string(),
            is_admin,
            visibility: RwLock::new(Resolved {
                sees,
                refreshed: now,
            }),
            q: Mutex::new(SubQueue {
                queue: VecDeque::new(),
                resync_required: false,
                delivered_through: 0,
            }),
            wake: Condvar::new(),
            last_poll: Mutex::new(now),
            notify: Mutex::new(None),
        });
        let (sub, created, reclaimed) = {
            let mut shard = self.shard_of(key).lock();
            let mut reclaimed = if shard.swept.elapsed() >= self.cfg.idle_ttl {
                shard.swept = now;
                Hub::gc_shard(&mut shard.subs, self.cfg.idle_ttl)
            } else {
                0
            };
            // The key's own entry is checked sweep or no sweep: a stale
            // subscriber must never be resurrected with its dead queue.
            match shard.subs.get(key).cloned() {
                // Raced with another worker creating the same key.
                Some(existing) if existing.last_poll.lock().elapsed() < self.cfg.idle_ttl => {
                    (existing, false, reclaimed)
                }
                stale => {
                    if stale.is_some() {
                        reclaimed += 1;
                    }
                    shard.subs.insert(key.to_string(), fresh.clone());
                    (fresh, true, reclaimed)
                }
            }
        };
        if let Some(ins) = self.instruments() {
            if created {
                ins.subscribers.inc();
            }
            ins.subscribers.add(-(reclaimed as i64));
        }
        (SubscriberHandle { sub }, created)
    }

    fn gc_shard(shard: &mut HashMap<String, Arc<Subscriber>>, idle_ttl: Duration) -> usize {
        let before = shard.len();
        shard.retain(|_, sub| sub.last_poll.lock().elapsed() < idle_ttl);
        before - shard.len()
    }

    /// Live subscriber count (all shards).
    pub fn subscriber_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().subs.len()).sum()
    }

    /// Install a one-shot wake callback, fired the next time an event (or a
    /// resync marker) lands in this subscriber's queue and then consumed.
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

    /// Enqueue `event` for `sub` if visible, applying the overflow policy.
    fn offer(&self, sub: &Subscriber, event: &JobEvent, ins: &Option<Instruments>) {
        if !sub.sees(event) {
            return;
        }
        let mut q = sub.q.lock();
        if q.resync_required {
            // Already coalesced: the pending resync covers this event.
            return;
        }
        if event.seq <= q.delivered_through {
            return;
        }
        if q.queue.len() >= self.cfg.queue_capacity {
            // Coalesce-to-resync: drop the whole queue rather than block
            // the publisher or grow without bound.
            q.queue.clear();
            q.resync_required = true;
            if let Some(ins) = ins {
                ins.overflows.inc();
            }
        } else {
            q.queue.push_back(QueuedEvent {
                event: event.clone(),
                enqueued: Instant::now(),
            });
        }
        drop(q);
        sub.wake.notify_all();
        if let Some(notify) = sub.notify.lock().take() {
            notify();
        }
    }

    /// Seed a fresh subscriber with history the client has not seen (from
    /// `EventLog::since(cursor)`). `truncated` marks the cursor as already
    /// behind the retained window.
    pub fn backfill(&self, handle: &SubscriberHandle, events: &[JobEvent], truncated: bool) {
        let ins = self.instruments();
        if truncated {
            let mut q = handle.sub.q.lock();
            q.queue.clear();
            q.resync_required = true;
            drop(q);
            handle.sub.wake.notify_all();
            if let Some(notify) = handle.sub.notify.lock().take() {
                notify();
            }
            return;
        }
        for event in events {
            self.offer(&handle.sub, event, &ins);
        }
    }

    /// Drain queued events, parking up to `deadline` while the queue is
    /// empty. A zero deadline drains without parking. Also rebuilds the
    /// subscriber's visibility when its TTL has lapsed.
    pub fn wait(&self, handle: &SubscriberHandle, deadline: Duration) -> Delivery {
        let sub = &*handle.sub;
        *sub.last_poll.lock() = Instant::now();
        self.refresh_visibility(sub);
        let ins = self.instruments();
        let start = Instant::now();
        let mut q = sub.q.lock();
        loop {
            if q.resync_required {
                q.resync_required = false;
                q.queue.clear();
                if let Some(ins) = &ins {
                    ins.resyncs.inc();
                }
                return Delivery {
                    events: Vec::new(),
                    resync_required: true,
                };
            }
            if !q.queue.is_empty() {
                let now = Instant::now();
                let mut events: Vec<JobEvent> = Vec::with_capacity(q.queue.len());
                for qe in q.queue.drain(..) {
                    if let Some(ins) = &ins {
                        ins.fanout_lag.observe(now.duration_since(qe.enqueued));
                    }
                    events.push(qe.event);
                }
                // Backfill and live publishes may interleave out of order.
                events.sort_unstable_by_key(|e| e.seq);
                events.dedup_by_key(|e| e.seq);
                events.retain(|e| e.seq > q.delivered_through);
                if let Some(last) = events.last() {
                    q.delivered_through = last.seq;
                }
                if events.is_empty() {
                    // Everything drained was a duplicate; keep waiting.
                    continue;
                }
                if let Some(ins) = &ins {
                    ins.delivered.add(events.len() as u64);
                }
                return Delivery {
                    events,
                    resync_required: false,
                };
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return Delivery::default();
            }
            if let Some(ins) = &ins {
                ins.parked.inc();
            }
            let timed_out = sub.wake.wait_for(&mut q, deadline - elapsed).timed_out();
            if let Some(ins) = &ins {
                ins.parked.dec();
            }
            if timed_out && q.queue.is_empty() && !q.resync_required {
                return Delivery::default();
            }
        }
    }

    /// Rebuild the subscriber's visibility if its TTL lapsed. The resolver
    /// runs with no hub locks held; concurrent refreshes are harmless.
    fn refresh_visibility(&self, sub: &Subscriber) {
        if sub.is_admin {
            return;
        }
        if sub.visibility.read().refreshed.elapsed() < self.cfg.accounts_ttl {
            return;
        }
        let sees = (self.resolver)(&sub.user, false);
        *sub.visibility.write() = Resolved {
            sees,
            refreshed: Instant::now(),
        };
    }
}

impl EventSink for Hub {
    /// Fan one event out to every subscriber that may see it. Called on the
    /// publisher's thread (typically under the daemon lock): per-subscriber
    /// work is one visibility check plus a non-blocking bounded-queue
    /// push, so a stuck subscriber can never stall the cluster.
    fn publish(&self, event: &JobEvent) {
        let _span = Span::enter("push-fanout").attr("seq", event.seq.to_string());
        let ins = self.instruments();
        if let Some(ins) = &ins {
            ins.published.inc();
        }
        for shard in &self.shards {
            let subs: Vec<Arc<Subscriber>> = shard.lock().subs.values().cloned().collect();
            for sub in subs {
                self.offer(&sub, event, &ins);
            }
        }
    }

    /// The event stream has a gap no subscriber can paper over (a daemon
    /// crashed and recovered; replayed history was not re-delivered).
    /// Coalesce EVERY subscriber to resync: queued events reflect the dead
    /// epoch and are dropped; the next `wait` reports `resync_required` so
    /// the client refetches its tables before streaming again.
    fn discontinuity(&self) {
        let _span = Span::enter("push-fanout").attr("kind", "discontinuity");
        let ins = self.instruments();
        if let Some(ins) = &ins {
            ins.discontinuities.inc();
        }
        for shard in &self.shards {
            let subs: Vec<Arc<Subscriber>> = shard.lock().subs.values().cloned().collect();
            for sub in subs {
                let mut q = sub.q.lock();
                q.queue.clear();
                q.resync_required = true;
                drop(q);
                sub.wake.notify_all();
                if let Some(notify) = sub.notify.lock().take() {
                    notify();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::Timestamp;
    use hpcdash_slurm::job::{JobId, JobState};

    fn event(seq: u64, user: &str, account: &str) -> JobEvent {
        JobEvent {
            seq,
            at: Timestamp(seq),
            cluster: "testbed".to_string(),
            job: JobId(seq as u32),
            user: user.to_string(),
            account: account.to_string(),
            from: None,
            to: JobState::Pending,
            reason: None,
        }
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

    fn hub_with(cfg: HubConfig) -> Hub {
        Hub::new(cfg, Arc::new(|user: &str, _| stub_visibility(user)))
    }

    #[test]
    fn visible_events_are_delivered_in_order() {
        let hub = hub_with(HubConfig::default());
        let (alice, created) = hub.ensure("alice:t", "alice", false);
        assert!(created);
        hub.publish(&event(1, "alice", "physics"));
        hub.publish(&event(2, "bob", "physics")); // group-visible
        hub.publish(&event(3, "mallory", "secret")); // invisible
        let d = hub.wait(&alice, Duration::ZERO);
        assert_eq!(
            d.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(!d.resync_required);
        // Nothing left.
        let d = hub.wait(&alice, Duration::ZERO);
        assert!(d.events.is_empty());
    }

    #[test]
    fn delivery_follows_the_resolved_visibility() {
        let hub = hub_with(HubConfig::default());
        let (root, _) = hub.ensure("root:t", "root", true);
        let (bob, _) = hub.ensure("bob:t", "bob", false);
        hub.publish(&event(1, "mallory", "secret"));
        hub.publish(&event(2, "bob", "physics"));
        assert_eq!(hub.wait(&root, Duration::ZERO).events.len(), 2);
        assert!(hub.wait(&bob, Duration::ZERO).events.is_empty());
    }

    #[test]
    fn visibility_is_built_at_subscribe_then_per_ttl_and_never_again_for_admins() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let log = calls.clone();
        let hub = Hub::new(
            HubConfig {
                accounts_ttl: Duration::from_millis(20),
                ..HubConfig::default()
            },
            Arc::new(move |user: &str, is_admin: bool| {
                log.lock().push((user.to_string(), is_admin));
                stub_visibility(user)
            }),
        );
        let (alice, _) = hub.ensure("alice:t", "alice", false);
        let (root, _) = hub.ensure("root:t", "root", true);
        hub.wait(&alice, Duration::ZERO);
        hub.wait(&root, Duration::ZERO);
        assert_eq!(calls.lock().len(), 2, "nothing rebuilt within the TTL");
        std::thread::sleep(Duration::from_millis(30));
        hub.wait(&alice, Duration::ZERO);
        hub.wait(&root, Duration::ZERO);
        let expected = [("alice", false), ("root", true), ("alice", false)];
        let expected: Vec<(String, bool)> = expected
            .iter()
            .map(|&(u, admin)| (u.to_string(), admin))
            .collect();
        assert_eq!(*calls.lock(), expected);
    }

    #[test]
    fn overflow_coalesces_to_resync_and_recovers() {
        let hub = hub_with(HubConfig {
            queue_capacity: 4,
            ..HubConfig::default()
        });
        let (alice, _) = hub.ensure("alice:t", "alice", false);
        for seq in 1..=10 {
            hub.publish(&event(seq, "alice", "physics"));
        }
        let d = hub.wait(&alice, Duration::ZERO);
        assert!(d.resync_required, "queue of 4 cannot hold 10 events");
        assert!(d.events.is_empty(), "coalesced queue is dropped");
        // After the resync is reported the subscriber streams again.
        hub.publish(&event(11, "alice", "physics"));
        let d = hub.wait(&alice, Duration::ZERO);
        assert_eq!(d.events.len(), 1);
        assert!(!d.resync_required);
    }

    #[test]
    fn backfill_and_live_publishes_dedup() {
        let hub = hub_with(HubConfig::default());
        let (alice, _) = hub.ensure("alice:t", "alice", false);
        // A live publish lands before the route's backfill completes.
        hub.publish(&event(5, "alice", "physics"));
        let history: Vec<JobEvent> = [3, 4, 5]
            .iter()
            .map(|&s| event(s, "alice", "physics"))
            .collect();
        hub.backfill(&alice, &history, false);
        let d = hub.wait(&alice, Duration::ZERO);
        assert_eq!(
            d.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "sorted and deduplicated"
        );
    }

    #[test]
    fn truncated_backfill_forces_resync() {
        let hub = hub_with(HubConfig::default());
        let (alice, _) = hub.ensure("alice:t", "alice", false);
        hub.backfill(&alice, &[], true);
        assert!(hub.wait(&alice, Duration::ZERO).resync_required);
    }

    #[test]
    fn discontinuity_forces_resync_on_every_subscriber() {
        let reg = Registry::new();
        let hub = hub_with(HubConfig::default());
        hub.set_registry(&reg);
        let (alice, _) = hub.ensure("alice:t", "alice", false);
        let (root, _) = hub.ensure("root:t", "root", true);
        hub.publish(&event(1, "alice", "physics"));
        hub.publish(&event(2, "mallory", "secret"));
        // A daemon crash-recovery fires the sink's discontinuity hook:
        // queued pre-crash events are dead-epoch data and must be dropped.
        hub.discontinuity();
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
        hub.publish(&event(3, "alice", "physics"));
        let d = hub.wait(&alice, Duration::ZERO);
        assert_eq!(d.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn wait_parks_until_publish() {
        let hub = Arc::new(hub_with(HubConfig::default()));
        let (alice, _) = hub.ensure("alice:t", "alice", false);
        let h2 = hub.clone();
        let waiter = std::thread::spawn(move || h2.wait(&alice, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        hub.publish(&event(1, "alice", "physics"));
        let d = waiter.join().unwrap();
        assert_eq!(d.events.len(), 1, "woken by the publish, not the timeout");
    }

    #[test]
    fn wait_deadline_expires_empty() {
        let hub = hub_with(HubConfig::default());
        let (alice, _) = hub.ensure("alice:t", "alice", false);
        let start = Instant::now();
        let d = hub.wait(&alice, Duration::from_millis(40));
        assert!(d.events.is_empty() && !d.resync_required);
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn ensure_is_idempotent_and_gc_reclaims_idle() {
        let hub = hub_with(HubConfig {
            idle_ttl: Duration::from_millis(30),
            ..HubConfig::default()
        });
        let (_a, created) = hub.ensure("alice:t", "alice", false);
        assert!(created);
        let (_a2, created) = hub.ensure("alice:t", "alice", false);
        assert!(!created);
        assert_eq!(hub.subscriber_count(), 1);
        std::thread::sleep(Duration::from_millis(50));
        // A new subscriber landing on the same shard sweeps the idle one.
        // (Keys hash to shards; ensure on the same key's shard by reusing it
        // after expiry: the stale entry is swept and recreated.)
        let (_b, created) = hub.ensure("alice:t", "alice", false);
        assert!(created, "idle subscriber was reclaimed");
        assert_eq!(hub.subscriber_count(), 1);
    }

    #[test]
    fn metrics_reflect_hub_activity() {
        let reg = Registry::new();
        let hub = hub_with(HubConfig {
            queue_capacity: 2,
            ..HubConfig::default()
        });
        hub.set_registry(&reg);
        let (alice, _) = hub.ensure("alice:t", "alice", false);
        for seq in 1..=5 {
            hub.publish(&event(seq, "alice", "physics"));
        }
        let d = hub.wait(&alice, Duration::ZERO);
        assert!(d.resync_required);
        assert_eq!(reg.gauge("hpcdash_push_subscribers", &[]).get(), 1);
        assert_eq!(
            reg.counter("hpcdash_push_events_published_total", &[])
                .get(),
            5
        );
        assert!(reg.counter("hpcdash_push_overflows_total", &[]).get() >= 1);
        assert_eq!(reg.counter("hpcdash_push_resyncs_total", &[]).get(), 1);
        hub.publish(&event(6, "alice", "physics"));
        hub.wait(&alice, Duration::ZERO);
        assert_eq!(
            reg.counter("hpcdash_push_events_delivered_total", &[])
                .get(),
            1
        );
        assert_eq!(reg.histogram("hpcdash_push_fanout_lag", &[]).count(), 1);
    }
}
