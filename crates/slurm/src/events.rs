//! The cluster event log: every job state transition, timestamped.
//!
//! This powers the dashboard's real-time job monitoring (listed as future
//! work in the paper's §9 and implemented here). Every reader is a cursor
//! into this one log: a poll client holds its own (`/api/updates?since=`),
//! and the push hub (`hpcdash-push`) holds one per live tab, waking the tab
//! through [`EventSink`] when a visible event lands.
//!
//! The storage core — a bounded deque with a monotonic sequence under one
//! lock — is factored out as the generic [`Journal`], which also backs the
//! daemons' write-ahead logs ([`crate::durable::Wal`]): same retention,
//! same cursor semantics, same "truncated means resync" contract.

use crate::job::{JobId, JobState, PendingReason};
use hpcdash_simtime::Timestamp;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};

/// One job state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Monotonic sequence number (cluster-wide).
    pub seq: u64,
    pub at: Timestamp,
    /// Which cluster emitted this transition. Stamped by the log (see
    /// `EventLog::set_cluster`) so federated consumers can attribute
    /// merged event streams; empty on logs that never set an identity.
    pub cluster: String,
    pub job: JobId,
    pub user: String,
    pub account: String,
    pub from: Option<JobState>,
    pub to: JobState,
    /// Pending reason attached at the transition, if any.
    pub reason: Option<PendingReason>,
}

/// A consumer of appended events, notified synchronously from
/// [`EventLog::push`] (after the log's own lock is released). Sinks must be
/// non-blocking: they run on the publisher's thread, which typically holds
/// the daemon lock.
pub trait EventSink: Send + Sync {
    fn publish(&self, event: &JobEvent);

    /// The event stream has a gap the sink cannot paper over: a daemon
    /// crashed and recovered (replayed history is not re-delivered), or
    /// retention was trimmed past a live cursor. Incremental delivery is
    /// no longer trustworthy — consumers must resync from a fresh
    /// snapshot. Default: ignore (poll-based consumers learn the same
    /// thing from [`Read::truncated`]).
    fn discontinuity(&self) {}
}

/// A bounded, append-only journal with a monotonic sequence — the storage
/// core shared by the cluster [`EventLog`] and the daemons' write-ahead
/// logs ([`crate::durable::Wal`]).
///
/// Sequence assignment and storage live under ONE lock so a [`Read`]'s
/// `head` is never ahead of the entries it returns (a two-lock version
/// allowed a reader to see the bumped counter before the entry landed in
/// the deque).
pub struct Journal<T> {
    state: RwLock<JournalState<T>>,
    capacity: usize,
}

struct JournalState<T> {
    entries: VecDeque<(u64, T)>,
    next_seq: u64,
    /// Highest seq ever dropped from the FRONT (capacity eviction or
    /// [`Journal::trim_through`]). A cursor below this floor has missed
    /// retained history and must resync. Seqs dropped from the BACK by
    /// [`Journal::truncate_after`] do NOT move it: a burned tail is not
    /// history anyone was entitled to replay.
    trimmed_through: u64,
}

/// What one read past a cursor saw, all under the journal's one lock.
#[derive(Debug, Clone, PartialEq)]
pub struct Read<T> {
    /// The picked entries with `seq > cursor`, oldest first.
    pub entries: Vec<T>,
    /// History the cursor was entitled to replay was dropped from the front
    /// (capacity eviction or `Journal::trim_through`): the consumer must
    /// resync rather than silently miss entries. A tail burned by
    /// `Journal::truncate_after` never trips it: those seqs were
    /// crash-lost everywhere, not skipped.
    pub truncated: bool,
    /// The newest seq issued when the read was taken: the reader's next
    /// cursor. Nothing at or below it can land after the read.
    pub head: u64,
}

impl<T: Clone> Journal<T> {
    pub fn new(capacity: usize) -> Journal<T> {
        Journal {
            state: RwLock::new(JournalState {
                entries: VecDeque::new(),
                next_seq: 1,
                trimmed_through: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append, letting the caller build the entry from its assigned seq.
    /// Returns the seq and a clone of the stored entry.
    pub(crate) fn append_with(&self, make: impl FnOnce(u64) -> T) -> (u64, T) {
        let mut state = self.state.write();
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.entries.len() >= self.capacity {
            if let Some((evicted, _)) = state.entries.pop_front() {
                state.trimmed_through = state.trimmed_through.max(evicted);
            }
        }
        let item = make(seq);
        state.entries.push_back((seq, item.clone()));
        (seq, item)
    }

    /// Append an entry; returns its sequence number.
    pub fn append(&self, item: T) -> u64 {
        let mut state = self.state.write();
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.entries.len() >= self.capacity {
            if let Some((evicted, _)) = state.entries.pop_front() {
                state.trimmed_through = state.trimmed_through.max(evicted);
            }
        }
        state.entries.push_back((seq, item));
        seq
    }

    /// The entries with `seq > since` that `pick` maps to `Some`, oldest
    /// first. Seqs ascend, so the read seeks to the cursor: it costs
    /// O(log n + entries past the cursor), not the whole window.
    pub fn read<U>(&self, since: u64, mut pick: impl FnMut(u64, &T) -> Option<U>) -> Read<U> {
        let state = self.state.read();
        let start = state.entries.partition_point(|(seq, _)| *seq <= since);
        Read {
            entries: state
                .entries
                .range(start..)
                .filter_map(|(seq, item)| pick(*seq, item))
                .collect(),
            truncated: since < state.trimmed_through,
            head: state.next_seq - 1,
        }
    }

    /// Drop every entry with `seq <= through` (checkpoint compaction: the
    /// prefix is covered by a snapshot, only the suffix must replay).
    pub(crate) fn trim_through(&self, through: u64) {
        let mut state = self.state.write();
        while state
            .entries
            .front()
            .map(|(seq, _)| *seq <= through)
            .unwrap_or(false)
        {
            state.entries.pop_front();
        }
        // Clamp to issued seqs: trimming "through 100" on a journal whose
        // history stops at 10 leaves a cursor at 10 fully caught up.
        let issued = state.next_seq - 1;
        state.trimmed_through = state.trimmed_through.max(through.min(issued));
    }

    /// Drop every entry with `seq > after` — the crash-recovery "lost
    /// tail": records appended but never committed die here. The sequence
    /// counter is NOT rewound, so the discarded seqs are burned forever and
    /// a later append can never silently resurrect a lost position.
    pub(crate) fn truncate_after(&self, after: u64) {
        let mut state = self.state.write();
        while state
            .entries
            .back()
            .map(|(seq, _)| *seq > after)
            .unwrap_or(false)
        {
            state.entries.pop_back();
        }
    }

    /// The newest sequence number issued (0 when empty).
    pub fn latest_seq(&self) -> u64 {
        self.state.read().next_seq - 1
    }

    pub fn len(&self) -> usize {
        self.state.read().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.state.read().entries.is_empty()
    }
}

/// A bounded, append-only event log.
pub struct EventLog {
    journal: Journal<JobEvent>,
    /// Non-owning: a sink (the push hub) is owned by its dashboard and may
    /// itself hold the daemon that owns this log. A dropped sink is pruned
    /// by the next append or discontinuity that finds it dead.
    sinks: RwLock<Vec<Weak<dyn EventSink>>>,
    /// Cluster identity stamped onto every appended event (set once at
    /// daemon construction; `Arc<str>` so the hot path clones a refcount).
    cluster: RwLock<Arc<str>>,
    /// Raised while a recovering daemon replays its WAL: replayed
    /// transitions are reconstruction, not new history — the pre-crash log
    /// already delivered the journaled prefix — so appends are dropped and
    /// sinks stay quiet until the follow-up discontinuity signal.
    replay_mute: AtomicBool,
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("capacity", &self.journal.capacity())
            .field("len", &self.len())
            .field("latest_seq", &self.latest_seq())
            .finish()
    }
}

impl EventLog {
    pub fn new(capacity: usize) -> EventLog {
        EventLog {
            journal: Journal::new(capacity),
            sinks: RwLock::new(Vec::new()),
            cluster: RwLock::new(Arc::from("")),
            replay_mute: AtomicBool::new(false),
        }
    }

    /// Register a sink notified on every append (e.g. the push hub) for as
    /// long as its owner keeps it.
    pub fn add_sink<S: EventSink + 'static>(&self, sink: &Arc<S>) {
        let sink: Weak<S> = Arc::downgrade(sink);
        self.sinks.write().push(sink);
    }

    /// Sinks held: the live ones, plus any dropped since the last append
    /// or discontinuity.
    pub fn sink_count(&self) -> usize {
        self.sinks.read().len()
    }

    /// Call `f` on every live sink, then forget the dead ones.
    fn each_sink(&self, mut f: impl FnMut(&dyn EventSink)) {
        let mut dead = false;
        for sink in self.sinks.read().iter() {
            match sink.upgrade() {
                Some(sink) => f(&*sink),
                None => dead = true,
            }
        }
        if dead {
            self.sinks.write().retain(|s| s.strong_count() > 0);
        }
    }

    /// Set the cluster identity stamped onto every subsequent append. The
    /// owning daemon calls this once at construction with its spec name.
    pub(crate) fn set_cluster(&self, cluster: &str) {
        *self.cluster.write() = Arc::from(cluster);
    }

    /// The cluster identity this log stamps (empty if never set).
    pub fn cluster(&self) -> Arc<str> {
        self.cluster.read().clone()
    }

    /// Mute (or unmute) appends during crash-recovery replay. While muted,
    /// `push` is a no-op returning seq 0. Recovery wraps its replay in
    /// mute/unmute and then calls [`EventLog::signal_discontinuity`].
    pub(crate) fn set_replay_mute(&self, muted: bool) {
        self.replay_mute.store(muted, Ordering::Release);
    }

    /// Tell every sink the stream has a gap (crash recovery completed, or
    /// history was trimmed past live cursors): incremental delivery cannot
    /// be trusted, consumers must resync from a fresh snapshot.
    pub fn signal_discontinuity(&self) {
        self.each_sink(|sink| sink.discontinuity());
    }

    /// Append a transition; returns its sequence number (0 if the log is
    /// replay-muted and the append was dropped).
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        at: Timestamp,
        job: JobId,
        user: &str,
        account: &str,
        from: Option<JobState>,
        to: JobState,
        reason: Option<PendingReason>,
    ) -> u64 {
        if self.replay_mute.load(Ordering::Relaxed) {
            return 0;
        }
        let cluster = self.cluster.read().clone();
        let (seq, event) = self.journal.append_with(|seq| JobEvent {
            seq,
            at,
            cluster: cluster.to_string(),
            job,
            user: user.to_string(),
            account: account.to_string(),
            from,
            to,
            reason,
        });
        // Fan out with the log lock released; sinks are non-blocking.
        self.each_sink(|sink| sink.publish(&event));
        seq
    }

    /// The events with `seq > since` that `keep` accepts, oldest first, and
    /// the head to resume from. `truncated` is true when the retained window
    /// no longer reaches back to `since` — including for a fresh `since = 0`
    /// cursor against a log whose front has already been evicted past seq 1
    /// — so the client knows to do a full refresh rather than silently
    /// missing history.
    pub fn read(&self, since: u64, mut keep: impl FnMut(&JobEvent) -> bool) -> Read<JobEvent> {
        self.journal.read(since, |_, e| keep(e).then(|| e.clone()))
    }

    /// The newest sequence number issued (0 when empty).
    pub fn latest_seq(&self) -> u64 {
        self.journal.latest_seq()
    }

    pub fn len(&self) -> usize {
        self.journal.len()
    }

    pub fn is_empty(&self) -> bool {
        self.journal.is_empty()
    }
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new(4_096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Clone> Journal<T> {
        /// The oldest retained sequence number, if any entry is retained.
        pub(crate) fn first_seq(&self) -> Option<u64> {
            self.state.read().entries.front().map(|(seq, _)| *seq)
        }
    }

    fn push_n(log: &EventLog, n: u64) {
        for i in 0..n {
            log.push(
                Timestamp(i),
                JobId(i as u32 + 1),
                "alice",
                "physics",
                Some(JobState::Pending),
                JobState::Running,
                None,
            );
        }
    }

    /// Every retained event past `cursor`, and whether the cursor was cut.
    fn since(log: &EventLog, cursor: u64) -> (Vec<JobEvent>, bool) {
        let read = log.read(cursor, |_| true);
        (read.entries, read.truncated)
    }

    fn journal_since(j: &Journal<u64>, cursor: u64) -> (Vec<(u64, u64)>, bool) {
        let read = j.read(cursor, |seq, item| Some((seq, *item)));
        (read.entries, read.truncated)
    }

    #[test]
    fn sequence_is_monotonic() {
        let log = EventLog::new(100);
        push_n(&log, 5);
        let (events, truncated) = since(&log, 0);
        assert_eq!(events.len(), 5);
        assert!(!truncated);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        assert_eq!(log.latest_seq(), 5);
    }

    #[test]
    fn events_carry_the_cluster_identity() {
        let log = EventLog::new(10);
        log.set_cluster("anvil-sim");
        push_n(&log, 2);
        let (events, _) = since(&log, 0);
        assert!(events.iter().all(|e| e.cluster == "anvil-sim"));
        assert_eq!(&*log.cluster(), "anvil-sim");
        // A log that never set an identity stamps the empty string.
        let anon = EventLog::new(10);
        push_n(&anon, 1);
        assert_eq!(since(&anon, 0).0[0].cluster, "");
    }

    #[test]
    fn since_filters() {
        let log = EventLog::new(100);
        push_n(&log, 10);
        // A cursor mid-window seeks to the entry after it.
        let read = log.read(7, |_| true);
        assert_eq!(
            read.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
        assert!(!read.truncated);
        assert_eq!(read.head, 10);
        // A cursor at the head reads nothing and stays there.
        let read = log.read(10, |_| true);
        assert!(read.entries.is_empty() && !read.truncated);
        assert_eq!(read.head, 10);
        // The filter drops entries but never the head past them.
        let read = log.read(3, |e| e.seq % 2 == 0);
        assert_eq!(
            read.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![4, 6, 8, 10]
        );
        assert_eq!(read.head, 10);
    }

    #[test]
    fn capacity_evicts_and_flags_truncation() {
        let log = EventLog::new(4);
        push_n(&log, 10);
        assert_eq!(log.len(), 4);
        // Client last saw seq 2, but the log now starts at 7.
        let (events, truncated) = since(&log, 2);
        assert!(truncated, "client is told to do a full refresh");
        assert_eq!(events.first().unwrap().seq, 7);
        // A client that is up to date is not truncated.
        let (_, truncated) = since(&log, 9);
        assert!(!truncated);
    }

    #[test]
    fn fresh_client_is_never_truncated_from_zero_on_small_logs() {
        let log = EventLog::new(100);
        push_n(&log, 3);
        let (events, truncated) = since(&log, 0);
        assert_eq!(events.len(), 3);
        assert!(!truncated);
    }

    #[test]
    fn fresh_client_behind_evicted_history_must_resync() {
        // Regression: `since = 0` against a log whose front seq is already
        // past 1 used to report `truncated = false`, silently hiding the
        // evicted prefix from brand-new clients.
        let log = EventLog::new(4);
        push_n(&log, 10);
        let (events, truncated) = since(&log, 0);
        assert!(truncated, "a fresh cursor cannot see seqs 1..=6 — resync");
        assert_eq!(events.first().unwrap().seq, 7);
    }

    #[test]
    fn latest_seq_never_ahead_of_since_under_concurrency() {
        // With one lock over (events, next_seq), any seq implied by
        // `latest_seq()` must be visible to an immediate read, and a read's
        // own head is exactly the last entry it returned.
        let log = Arc::new(EventLog::new(100_000));
        let writer = {
            let log = log.clone();
            std::thread::spawn(move || push_n(&log, 20_000))
        };
        for _ in 0..2_000 {
            let latest = log.latest_seq();
            let read = log.read(0, |_| true);
            let max_seen = read.entries.last().map(|e| e.seq).unwrap_or(0);
            assert!(
                max_seen >= latest,
                "latest_seq {latest} observed ahead of stored events (max {max_seen})"
            );
            assert_eq!(read.head, max_seen, "a read's head is what it saw");
        }
        writer.join().unwrap();
    }

    #[test]
    fn sinks_observe_every_append() {
        struct Collect(parking_lot::Mutex<Vec<u64>>);
        impl EventSink for Collect {
            fn publish(&self, event: &JobEvent) {
                self.0.lock().push(event.seq);
            }
        }
        let log = EventLog::new(8);
        let sink = Arc::new(Collect(parking_lot::Mutex::new(Vec::new())));
        log.add_sink(&sink);
        push_n(&log, 20);
        let seen = sink.0.lock();
        assert_eq!(seen.len(), 20, "sinks see evicted events too");
        assert_eq!(seen.first(), Some(&1));
        assert_eq!(seen.last(), Some(&20));
    }

    #[test]
    fn a_dropped_sink_is_pruned_by_the_next_append() {
        #[derive(Default)]
        struct Count(std::sync::atomic::AtomicU64);
        impl EventSink for Count {
            fn publish(&self, _: &JobEvent) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let log = EventLog::new(8);
        let kept = Arc::new(Count::default());
        let dropped = Arc::new(Count::default());
        log.add_sink(&kept);
        log.add_sink(&dropped);
        push_n(&log, 1);
        drop(dropped);
        assert_eq!(log.sink_count(), 2, "nothing has appended since the drop");
        push_n(&log, 3);
        assert_eq!(log.sink_count(), 1);
        assert_eq!(kept.0.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_pushes_keep_unique_seqs() {
        let log = std::sync::Arc::new(EventLog::new(10_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    log.push(
                        Timestamp(0),
                        JobId(1),
                        "u",
                        "a",
                        None,
                        JobState::Pending,
                        None,
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (events, _) = since(&log, 0);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        let before = seqs.len();
        seqs.dedup();
        assert_eq!(seqs.len(), before, "no duplicate sequence numbers");
        assert_eq!(log.latest_seq(), 4_000);
    }

    #[test]
    fn journal_trim_through_compacts_the_prefix() {
        let j: Journal<u64> = Journal::new(100);
        for i in 0..10 {
            assert_eq!(j.append(i), i + 1);
        }
        j.trim_through(6);
        assert_eq!(j.first_seq(), Some(7));
        assert_eq!(j.len(), 4);
        assert_eq!(j.latest_seq(), 10, "trim never moves the seq counter");
        // Trimming past the tail empties the journal but keeps the seq.
        j.trim_through(100);
        assert!(j.is_empty());
        assert_eq!(j.latest_seq(), 10);
        assert_eq!(j.append(99), 11, "appends resume after full trim");
    }

    #[test]
    fn truncate_after_burns_the_lost_tail() {
        let j: Journal<u64> = Journal::new(100);
        for i in 0..10 {
            j.append(i);
        }
        j.truncate_after(7);
        assert_eq!(j.latest_seq(), 10, "seq counter is never rewound");
        assert_eq!(j.len(), 7);
        let (entries, truncated) = journal_since(&j, 0);
        assert_eq!(entries.last().map(|(s, _)| *s), Some(7));
        assert!(!truncated, "the front is intact; only the tail died");
        // The burned seqs 8..=10 are gone for good: the next append takes
        // seq 11, so no later record can impersonate a lost one.
        assert_eq!(j.append(99), 11);
        // A cursor inside the burned tail seeks past it to the new entry,
        // and is not told to resync for seqs nobody could have read.
        assert_eq!(journal_since(&j, 9), (vec![(11, 99)], false));
        assert_eq!(journal_since(&j, 7), (vec![(11, 99)], false));
        assert_eq!(j.read(9, |_, _| Some(())).head, 11);
    }

    #[test]
    fn cursor_predating_trimmed_journal_gets_resync_signal() {
        // The WAL-compaction contract: a consumer whose cursor predates
        // the retained journal must see `truncated = true`, never a silent
        // gap — same rule as capacity eviction.
        let j: Journal<u64> = Journal::new(100);
        for i in 0..10 {
            j.append(i);
        }
        j.trim_through(6);
        let (entries, truncated) = journal_since(&j, 2);
        assert!(truncated, "cursor 2 predates retained front 7 — resync");
        assert_eq!(
            entries.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![7, 8, 9, 10]
        );
        // A cursor exactly at the trim point is fine: nothing was skipped.
        let (entries, truncated) = journal_since(&j, 6);
        assert!(!truncated);
        assert_eq!(entries.len(), 4);
        // A fully trimmed journal still flags stale cursors...
        j.trim_through(100);
        let (entries, truncated) = journal_since(&j, 3);
        assert!(entries.is_empty());
        assert!(truncated, "empty journal with history past the cursor");
        // ...but an up-to-date cursor against it is clean.
        let (_, truncated) = journal_since(&j, 10);
        assert!(!truncated);
    }

    #[test]
    fn replay_mute_drops_appends_and_sink_fanout() {
        struct Collect(parking_lot::Mutex<Vec<u64>>);
        impl EventSink for Collect {
            fn publish(&self, event: &JobEvent) {
                self.0.lock().push(event.seq);
            }
        }
        let log = EventLog::new(100);
        let sink = Arc::new(Collect(parking_lot::Mutex::new(Vec::new())));
        log.add_sink(&sink);
        push_n(&log, 3);
        log.set_replay_mute(true);
        let seq = log.push(
            Timestamp(9),
            JobId(9),
            "u",
            "a",
            None,
            JobState::Pending,
            None,
        );
        assert_eq!(seq, 0, "muted append is dropped");
        assert_eq!(log.latest_seq(), 3);
        log.set_replay_mute(false);
        push_n(&log, 1);
        assert_eq!(log.latest_seq(), 4);
        assert_eq!(sink.0.lock().len(), 4, "sink never saw the muted push");
    }

    #[test]
    fn discontinuity_reaches_every_sink() {
        #[derive(Default)]
        struct Gap(std::sync::atomic::AtomicU64);
        impl EventSink for Gap {
            fn publish(&self, _event: &JobEvent) {}
            fn discontinuity(&self) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let log = EventLog::new(8);
        let a = Arc::new(Gap::default());
        let b = Arc::new(Gap::default());
        log.add_sink(&a);
        log.add_sink(&b);
        log.signal_discontinuity();
        assert_eq!(a.0.load(Ordering::Relaxed), 1);
        assert_eq!(b.0.load(Ordering::Relaxed), 1);
    }
}
