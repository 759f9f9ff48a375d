//! `slurmctld`: the central management daemon.
//!
//! Mutations (submit/cancel/tick/admin ops) go through one big daemon
//! lock, exactly like the single-threaded RPC loop in real slurmctld. Live
//! *queries* (`squeue`, `sinfo`, `scontrol show ...`), however, run on an
//! epoch-published immutable [`ClusterSnapshot`](crate::snapshot) and never
//! touch that lock: every mutation and every scheduler tick publishes a
//! fresh snapshot (with per-user / per-account / per-partition indexes)
//! while still holding the lock, and readers load it with two atomic ops.
//! Dashboard query storms therefore cost CPU (the RPC cost model still
//! burns per row *scanned*) but can no longer delay scheduling — the
//! contention the paper's §3.2 caching argument is built around now lives
//! entirely on the write side.

use crate::assoc::{Account, AccountUsage};
use crate::cluster::{CheckpointState, ClusterError, ClusterSpec, ClusterState};
use crate::durable::{DurableStore, RecoveryReport, Wal, WalRecord};
use crate::job::{Job, JobId, JobRequest, JobState};
use crate::joblog::JobLogFs;
use crate::loadmodel::{RpcCostModel, RpcStats};
use crate::node::{AdminFlag, Node};
use crate::partition::{Partition, PartitionState};
use crate::snapshot::{ClusterSnapshot, EpochCell, SnapshotStats};
use hpcdash_faults::{FaultHost, RestartToken};
use hpcdash_obs::{PhaseProfiler, Span};
use hpcdash_simtime::{SharedClock, Timestamp};
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default sim-seconds between periodic checkpoints.
const DEFAULT_CHECKPOINT_EVERY_SECS: u64 = 300;

/// WAL retention (records). Far above what one checkpoint interval can
/// produce, so `replay_from` never sees a truncated window in practice.
const WAL_CAPACITY: usize = 65_536;

/// Visibility/filtering for live job queries (`squeue` flags).
#[derive(Debug, Clone, Default)]
pub struct JobQuery {
    /// Match jobs submitted by this user...
    pub user: Option<String>,
    /// ...or charged to any of these accounts (OR-combined with `user`).
    pub accounts: Vec<String>,
    pub partition: Option<String>,
    /// Jobs currently running on this node.
    pub node: Option<String>,
}

impl JobQuery {
    pub fn all() -> JobQuery {
        JobQuery::default()
    }

    pub fn for_user(user: &str) -> JobQuery {
        JobQuery {
            user: Some(user.to_string()),
            ..JobQuery::default()
        }
    }

    fn matches(&self, job: &Job) -> bool {
        if self.user.is_some() || !self.accounts.is_empty() {
            let by_user = self.user.as_deref() == Some(job.req.user.as_str());
            let by_account = self.accounts.contains(&job.req.account);
            if !by_user && !by_account {
                return false;
            }
        }
        if let Some(p) = &self.partition {
            if job.req.partition != *p {
                return false;
            }
        }
        if let Some(n) = &self.node {
            if !job.nodes.iter().any(|x| x == n) {
                return false;
            }
        }
        true
    }

    /// Run the query against a snapshot, walking the narrowest precomputed
    /// index. Returns the matches (ascending id, the `squeue` presentation
    /// order) plus how many rows were actually scanned — the cost-model
    /// input, which scales with the index selectivity rather than the
    /// total active-job count.
    fn select(&self, snap: &ClusterSnapshot) -> (Vec<Arc<Job>>, usize) {
        let candidates: Option<Vec<u32>> = if self.user.is_some() || !self.accounts.is_empty() {
            let mut lists: Vec<&[u32]> = Vec::new();
            if let Some(u) = &self.user {
                if let Some(l) = snap.by_user.get(u) {
                    lists.push(l);
                }
            }
            for a in &self.accounts {
                if let Some(l) = snap.by_account.get(a) {
                    lists.push(l);
                }
            }
            Some(merge_ascending(&lists))
        } else {
            self.partition
                .as_ref()
                .map(|p| snap.by_partition.get(p).cloned().unwrap_or_default())
        };
        match candidates {
            Some(idx) => {
                let scanned = idx.len();
                let out = idx
                    .iter()
                    .map(|&i| &snap.jobs[i as usize])
                    .filter(|j| self.matches(j))
                    .cloned()
                    .collect();
                (out, scanned)
            }
            None => {
                let scanned = snap.jobs.len();
                let out = snap
                    .jobs
                    .iter()
                    .filter(|j| self.matches(j))
                    .cloned()
                    .collect();
                (out, scanned)
            }
        }
    }
}

/// Merge ascending, internally deduped index lists into one ascending
/// deduped list (preserves id order across a user OR accounts union).
fn merge_ascending(lists: &[&[u32]]) -> Vec<u32> {
    match lists {
        [] => Vec::new(),
        [one] => one.to_vec(),
        many => {
            let mut all: Vec<u32> = many.iter().flat_map(|l| l.iter().copied()).collect();
            all.sort_unstable();
            all.dedup();
            all
        }
    }
}

/// One account row from `scontrol show assoc`-style queries.
#[derive(Debug, Clone)]
pub struct AssocRecord {
    pub account: Account,
    pub usage: AccountUsage,
    pub members: Vec<String>,
}

/// The central management daemon.
pub struct Slurmctld {
    state: Mutex<ClusterState>,
    /// The epoch-published read path: an immutable snapshot swapped in on
    /// every mutation and every tick. Queries load this, never `state`.
    snap: EpochCell<ClusterSnapshot>,
    snap_stats: SnapshotStats,
    /// The event log, cached here so `events()` needs no state lock.
    events: Arc<crate::events::EventLog>,
    clock: SharedClock,
    cost: RpcCostModel,
    stats: RpcStats,
    dbd: Arc<crate::dbd::Slurmdbd>,
    logs: Arc<JobLogFs>,
    /// Injected-fault hook, consulted by every RPC. Disarmed (the default)
    /// it costs one relaxed atomic load. Latency faults burn inside the
    /// RPC; error/garble faults are enforced at the CLI render boundary
    /// (`hpcdash-slurmcli`), which consults this same host.
    faults: FaultHost,
    /// Per-phase wall time inside `tick` (sched pass, snapshot publish,
    /// joblog refresh, dbd handoff) — the profiling foundation for the
    /// scale work: it shows where a tick's budget actually goes.
    phases: PhaseProfiler,
    /// Write-ahead log of logical mutations since the last checkpoint,
    /// group-committed by `tick` (see `crate::durable`).
    wal: Wal<WalRecord>,
    /// Latest serialized checkpoint (the `StateSaveLocation` stand-in).
    durable: DurableStore,
    /// Sim-seconds between periodic checkpoints (settable for tests).
    checkpoint_every: AtomicU64,
    /// Sim time (secs) of the last checkpoint.
    last_checkpoint: AtomicU64,
    /// Completed crash recoveries.
    restarts: AtomicU64,
    last_recovery: Mutex<Option<RecoveryReport>>,
    /// Finished jobs slurmdbd refused to archive (it was down) — retried
    /// every tick; archival is idempotent so re-sends are safe.
    dbd_spool: Mutex<Vec<Arc<Job>>>,
}

impl Slurmctld {
    pub fn new(
        spec: ClusterSpec,
        clock: SharedClock,
        dbd: Arc<crate::dbd::Slurmdbd>,
        logs: Arc<JobLogFs>,
    ) -> Slurmctld {
        Slurmctld::with_cost(spec, clock, dbd, logs, RpcCostModel::ctld_default())
    }

    pub fn with_cost(
        spec: ClusterSpec,
        clock: SharedClock,
        dbd: Arc<crate::dbd::Slurmdbd>,
        logs: Arc<JobLogFs>,
        cost: RpcCostModel,
    ) -> Slurmctld {
        let cluster_name = spec.name.clone();
        let state = ClusterState::new(spec);
        let events = state.events();
        events.set_cluster(&cluster_name);
        // Seq 0: queries are answerable (nodes/partitions/assoc populated)
        // before the first tick or submit ever publishes.
        let initial = Arc::new(state.capture_snapshot(0, clock.now()));
        // Checkpoint 0 at construction: a crash before the first periodic
        // checkpoint still has an image to recover from.
        let durable = DurableStore::new();
        durable.save(
            serde_json::to_vec(&state.checkpoint()).expect("checkpoint serializes"),
            clock.now(),
            0,
        );
        let last_checkpoint = AtomicU64::new(clock.now().as_secs());
        Slurmctld {
            state: Mutex::new(state),
            snap: EpochCell::new(initial),
            snap_stats: SnapshotStats::new(),
            events,
            clock,
            cost,
            stats: RpcStats::new(),
            dbd,
            logs,
            faults: FaultHost::new("slurmctld"),
            phases: PhaseProfiler::new(),
            wal: Wal::new(WAL_CAPACITY),
            durable,
            checkpoint_every: AtomicU64::new(DEFAULT_CHECKPOINT_EVERY_SECS),
            last_checkpoint,
            restarts: AtomicU64::new(0),
            last_recovery: Mutex::new(None),
            dbd_spool: Mutex::new(Vec::new()),
        }
    }

    /// The daemon's fault-injection hook (install a `FaultPlan` here).
    pub fn faults(&self) -> &FaultHost {
        &self.faults
    }

    /// Per-phase wall-time accounting for the tick loop.
    pub fn phase_profile(&self) -> &PhaseProfiler {
        &self.phases
    }

    /// Acquire the state mutex, recording the wait and counting the
    /// acquisition. Only mutations call this; the read RPCs must not.
    fn lock_state(&self, since: Instant) -> MutexGuard<'_, ClusterState> {
        let guard = self.state.lock();
        self.stats.record_lock_wait(since.elapsed());
        self.stats.note_state_lock();
        guard
    }

    /// Publish a fresh snapshot of `state`. Called while the caller still
    /// holds the state lock, so publications are ordered and `seq` is
    /// strictly increasing with the mutations it reflects.
    fn publish_locked(&self, state: &ClusterState, now: Timestamp) -> Arc<ClusterSnapshot> {
        let seq = self.snap_stats.next_seq();
        let snap = Arc::new(state.capture_snapshot(seq, now));
        self.snap.store(snap.clone());
        self.snap_stats.note_publish();
        snap
    }

    fn load_snapshot(&self) -> Arc<ClusterSnapshot> {
        let snap = self.snap.load();
        self.snap_stats.note_read(snap.seq);
        snap
    }

    /// The current epoch-published snapshot (what every read RPC serves
    /// from). Exposed for `sinfo`-style aggregation and stress tests.
    pub fn snapshot(&self) -> Arc<ClusterSnapshot> {
        self.load_snapshot()
    }

    /// Snapshot publication/freshness telemetry.
    pub fn snapshot_stats(&self) -> &SnapshotStats {
        &self.snap_stats
    }

    /// Advance the simulation to the clock's current instant: run the
    /// scheduler, stream finished jobs to accounting, refresh job logs.
    /// The critical section is scheduling + snapshot publication only; log
    /// formatting and the accounting mirror run on the published snapshot
    /// after the lock drops.
    pub fn tick(&self) {
        let _span = Span::enter("ctld").attr("kind", "sched_tick");
        let start = Instant::now();
        // A crashed daemon whose restart time has arrived comes back first:
        // rebuild from checkpoint + WAL, then run this tick normally.
        if let Some(token) = self.faults.take_restart() {
            self.recover(token);
        }
        let now = self.clock.now();
        self.faults.check("sched_tick").burn();
        if self.faults.is_down() {
            // Crashed (possibly by the check above): no scheduling, no
            // publication, nothing — the daemon is gone until restart.
            return;
        }
        let (finished, snap) = {
            let mut state = self.lock_state(start);
            self.wal.append(WalRecord::Tick { now });
            let finished = self.phases.time("sched_pass", || {
                state.tick(now);
                let finished = state.drain_finished();
                // The scheduling pass genuinely occupies the daemon.
                self.cost.burn(state.active_jobs().count());
                finished
            });
            let snap = self
                .phases
                .time("snapshot_publish", || self.publish_locked(&state, now));
            // Group commit: this tick and every mutation journaled since
            // the previous one become durable together.
            self.wal.flush();
            self.maybe_checkpoint(&state, now);
            (finished, snap)
        };
        self.stats
            .set_sched_queue_depth(u64::from(snap.counts.pending));
        // Running jobs keep their stdout fresh: one progress line per
        // elapsed minute, so the Job Overview output tab has content.
        // Formatted from the immutable snapshot — the lock is gone.
        self.phases.time("joblog_write", || {
            for job in snap.jobs.iter().filter(|j| j.state == JobState::Running) {
                let header = format!(
                    "=== job {} ({}) starting on {} ===",
                    job.id,
                    job.req.name,
                    job.nodes.join(",")
                );
                let wanted = 1 + (job.elapsed_secs(now) / 60).min(200) as usize;
                let steps = |lines: std::ops::Range<usize>| {
                    lines.map(|n| format!("step {0}: processed batch {0} ok", n - 1))
                };
                // A file this loop wrote holds the header and the steps so
                // far: add the missing ones. Anything else — no file, more
                // lines than are due, a header naming other nodes — is
                // replaced whole, as every file used to be on every tick.
                let path = &job.stdout_path;
                let have = self
                    .logs
                    .line_count(path)
                    .filter(|have| *have <= wanted && self.logs.first_line_is(path, &header));
                match have {
                    Some(have) if have == wanted => {}
                    Some(have) => self.logs.append(path, &job.req.user, steps(have..wanted)),
                    None => {
                        let lines = std::iter::once(header).chain(steps(1..wanted)).collect();
                        self.logs.write(path, &job.req.user, lines);
                    }
                }
            }
            for f in &finished {
                self.logs
                    .write(&f.job.stdout_path, &f.job.req.user, f.stdout_lines.clone());
                self.logs
                    .write(&f.job.stderr_path, &f.job.req.user, f.stderr_lines.clone());
            }
        });
        self.phases.time("dbd_record", || {
            let mut spool = self.dbd_spool.lock();
            spool.extend(finished.into_iter().map(|f| f.job));
            if !spool.is_empty() {
                // One batch covering any backlog from ticks where slurmdbd
                // was down. Archival upserts by job id, so retrying a batch
                // the dbd half-processed is safe.
                if self.dbd.record_finished(spool.iter().cloned()) {
                    spool.clear();
                }
            }
        });
        // The active mirror shares the snapshot's Arc<Job> rows: refcount
        // bumps, not a second deep clone of every active job.
        self.phases.time("dbd_sync", || {
            self.dbd.sync_active(snap.jobs.iter().cloned())
        });
        self.stats.record("sched_tick", start.elapsed());
    }

    /// Crash recovery: rebuild cluster state as checkpoint + durable WAL
    /// suffix, discard the unflushed tail, republish a fresh snapshot at a
    /// strictly higher epoch, and tell every event consumer to resync.
    /// The dead in-memory state is never consulted — `*state = rebuilt`
    /// overwrites it wholesale.
    #[cold]
    fn recover(&self, token: RestartToken) {
        let rebuild_start = Instant::now();
        let now = self.clock.now();
        let epoch_before = self.snap.load().seq;
        let wal_lost = self.wal.unflushed_len();
        self.wal.drop_unflushed();
        let cp = self
            .durable
            .latest()
            .expect("construction always writes checkpoint 0");
        let parsed: CheckpointState =
            serde_json::from_slice(&cp.bytes).expect("checkpoint decodes");
        let mut rebuilt = ClusterState::from_checkpoint(parsed, self.events.clone());
        // Replay with event fan-out muted: these transitions are
        // reconstruction of history the log already delivered, not news.
        self.events.set_replay_mute(true);
        let (records, truncated) = self.wal.replay_from(cp.wal_seq);
        debug_assert!(!truncated, "checkpoints only trim the WAL they cover");
        let wal_replayed = records.len() as u64;
        for (_seq, record) in &records {
            record.apply(&mut rebuilt);
        }
        self.events.set_replay_mute(false);
        let snap = {
            let mut state = self.lock_state(rebuild_start);
            *state = rebuilt;
            // Jobs that finished during replay may or may not have reached
            // slurmdbd pre-crash; archival is idempotent, so re-spool all.
            let replayed_finished = state.drain_finished();
            let snap = self.publish_locked(&state, now);
            self.dbd_spool
                .lock()
                .extend(replayed_finished.into_iter().map(|f| f.job));
            snap
        };
        // Incremental event delivery across the gap is not trustworthy:
        // force every subscriber to resync from the fresh snapshot.
        self.events.signal_discontinuity();
        self.restarts.fetch_add(1, Ordering::Relaxed);
        *self.last_recovery.lock() = Some(RecoveryReport {
            crashed_at: token.crashed_at,
            recovered_at: now,
            checkpoint_at: cp.at,
            wal_replayed,
            wal_lost,
            epoch_before,
            epoch_after: snap.seq,
            duration_micros: rebuild_start.elapsed().as_micros() as u64,
        });
    }

    /// Periodic checkpoint, taken inside the tick's critical section so the
    /// image is consistent with the flushed WAL watermark it records.
    fn maybe_checkpoint(&self, state: &ClusterState, now: Timestamp) {
        let every = self.checkpoint_every.load(Ordering::Relaxed);
        let last = self.last_checkpoint.load(Ordering::Relaxed);
        if now.as_secs().saturating_sub(last) < every {
            return;
        }
        self.phases.time("checkpoint", || {
            let wal_seq = self.wal.flushed_seq();
            let bytes = serde_json::to_vec(&state.checkpoint()).expect("checkpoint serializes");
            self.durable.save(bytes, now, wal_seq);
            // The image covers everything up to wal_seq: compact it away.
            self.wal.trim_through(wal_seq);
            self.last_checkpoint.store(now.as_secs(), Ordering::Relaxed);
        });
    }

    /// Submit a job or array (`sbatch`).
    pub fn submit(&self, req: JobRequest) -> Result<Vec<JobId>, ClusterError> {
        let _span = Span::enter("ctld").attr("kind", "submit");
        let start = Instant::now();
        let now = self.clock.now();
        self.faults.check("submit").burn();
        if self.faults.is_down() {
            self.stats.record("submit", start.elapsed());
            return Err(ClusterError::ControllerDown);
        }
        let result = {
            let mut state = self.lock_state(start);
            self.cost.burn(1);
            let record = WalRecord::Submit {
                req: Box::new(req.clone()),
                now,
            };
            let result = state.submit(req, now);
            if result.is_ok() {
                self.wal.append(record);
                self.publish_locked(&state, now);
            }
            result
        };
        self.stats.record("submit", start.elapsed());
        result
    }

    /// Cancel a job (`scancel`).
    pub fn cancel(&self, id: JobId, user: &str) -> Result<(), ClusterError> {
        let _span = Span::enter("ctld").attr("kind", "cancel");
        let start = Instant::now();
        let now = self.clock.now();
        self.faults.check("cancel").burn();
        if self.faults.is_down() {
            self.stats.record("cancel", start.elapsed());
            return Err(ClusterError::ControllerDown);
        }
        let result = {
            let mut state = self.lock_state(start);
            self.cost.burn(1);
            let result = state.cancel(id, user, now);
            if result.is_ok() {
                self.wal.append(WalRecord::Cancel {
                    id,
                    user: user.to_string(),
                    now,
                });
                self.publish_locked(&state, now);
            }
            result
        };
        self.stats.record("cancel", start.elapsed());
        result
    }

    /// Live job listing (`squeue`): served from the current snapshot via
    /// the per-user/per-account/per-partition indexes. Zero state-lock
    /// acquisitions; the cost model burns per row *scanned*.
    pub fn query_jobs(&self, query: &JobQuery) -> Vec<Arc<Job>> {
        let _span = Span::enter("ctld").attr("kind", "squeue");
        let start = Instant::now();
        self.faults.check("squeue").burn();
        let snap = self.load_snapshot();
        let (out, scanned) = query.select(&snap);
        self.cost.burn(scanned);
        self.stats.record_scanned("squeue", scanned as u64);
        self.stats.record("squeue", start.elapsed());
        out
    }

    /// The pre-snapshot `squeue` implementation: takes the state mutex and
    /// deep-clones every match. Kept (under a distinct stats kind) as the
    /// contention baseline that `bench_ctld_snapshot` measures against —
    /// not called by any production path.
    pub fn query_jobs_locked(&self, query: &JobQuery) -> Vec<Job> {
        let _span = Span::enter("ctld").attr("kind", "squeue_locked");
        let start = Instant::now();
        let out = {
            let state = self.lock_state(start);
            let all: Vec<&Arc<Job>> = state.active_jobs().collect();
            self.cost.burn(all.len());
            self.stats.record_scanned("squeue_locked", all.len() as u64);
            all.into_iter()
                .filter(|j| query.matches(j))
                .map(|j| Job::clone(j))
                .collect()
        };
        self.stats.record("squeue_locked", start.elapsed());
        out
    }

    /// One live job (`scontrol show job`).
    pub fn query_job(&self, id: JobId) -> Option<Arc<Job>> {
        let _span = Span::enter("ctld").attr("kind", "scontrol_job");
        let start = Instant::now();
        self.faults.check("scontrol_job").burn();
        let snap = self.load_snapshot();
        self.cost.burn(1);
        self.stats.record_scanned("scontrol_job", 1);
        let out = snap.job(id).cloned();
        self.stats.record("scontrol_job", start.elapsed());
        out
    }

    /// Node inventory (`scontrol show node` / `sinfo` substrate). The
    /// returned slice is shared with the snapshot — no copy.
    pub fn query_nodes(&self) -> Arc<[Node]> {
        let _span = Span::enter("ctld").attr("kind", "scontrol_node");
        let start = Instant::now();
        self.faults.check("scontrol_node").burn();
        let snap = self.load_snapshot();
        self.cost.burn(snap.nodes.len());
        self.stats
            .record_scanned("scontrol_node", snap.nodes.len() as u64);
        let out = snap.nodes.clone();
        self.stats.record("scontrol_node", start.elapsed());
        out
    }

    pub fn query_node(&self, name: &str) -> Option<Node> {
        let _span = Span::enter("ctld").attr("kind", "scontrol_node");
        let start = Instant::now();
        self.faults.check("scontrol_node").burn();
        let snap = self.load_snapshot();
        self.cost.burn(1);
        self.stats.record_scanned("scontrol_node", 1);
        // The snapshot's node slice is name-ascending (BTreeMap order).
        let out = snap
            .nodes
            .binary_search_by(|n| n.name.as_str().cmp(name))
            .ok()
            .map(|i| snap.nodes[i].clone());
        self.stats.record("scontrol_node", start.elapsed());
        out
    }

    /// Partition definitions (`scontrol show partition` / `sinfo`).
    pub fn query_partitions(&self) -> Arc<[Partition]> {
        let _span = Span::enter("ctld").attr("kind", "sinfo");
        let start = Instant::now();
        self.faults.check("sinfo").burn();
        let snap = self.load_snapshot();
        self.cost.burn(snap.partitions.len());
        self.stats
            .record_scanned("sinfo", snap.partitions.len() as u64);
        let out = snap.partitions.clone();
        self.stats.record("sinfo", start.elapsed());
        out
    }

    /// The combined `sinfo` read: one snapshot load covering the node
    /// inventory and the partition table, with the same RPC accounting as
    /// the separate `query_nodes` + `query_partitions` calls it replaces.
    /// `sinfo` renders from the snapshot's precomputed per-partition node
    /// groups instead of re-grouping on every call.
    pub fn query_cluster(&self) -> Arc<ClusterSnapshot> {
        let _span = Span::enter("ctld").attr("kind", "scontrol_node");
        let start = Instant::now();
        self.faults.check("sinfo").burn();
        let snap = self.load_snapshot();
        self.cost.burn(snap.nodes.len());
        self.stats
            .record_scanned("scontrol_node", snap.nodes.len() as u64);
        self.stats.record("scontrol_node", start.elapsed());
        let _span = Span::enter("ctld").attr("kind", "sinfo");
        let start = Instant::now();
        self.cost.burn(snap.partitions.len());
        self.stats
            .record_scanned("sinfo", snap.partitions.len() as u64);
        self.stats.record("sinfo", start.elapsed());
        snap
    }

    /// Association dump (`scontrol show assoc_mgr`): accounts with live
    /// usage, restricted to those `user` belongs to unless `user` is None.
    pub fn query_assoc(&self, user: Option<&str>) -> Vec<AssocRecord> {
        let _span = Span::enter("ctld").attr("kind", "scontrol_assoc");
        let start = Instant::now();
        self.faults.check("scontrol_assoc").burn();
        let snap = self.load_snapshot();
        let records: Vec<AssocRecord> = snap
            .assoc
            .iter()
            .filter(|r| match user {
                Some(u) => r.members.iter().any(|m| m == u),
                None => true,
            })
            .cloned()
            .collect();
        self.cost.burn(records.len().max(1));
        self.stats
            .record_scanned("scontrol_assoc", records.len().max(1) as u64);
        self.stats.record("scontrol_assoc", start.elapsed());
        records
    }

    /// Cluster name (cheap, cached by callers).
    pub fn cluster_name(&self) -> String {
        self.load_snapshot().name.to_string()
    }

    // ---- admin operations (fault injection, maintenance) ------------------

    pub fn set_node_flag(&self, name: &str, flag: AdminFlag, reason: Option<String>) -> bool {
        let start = Instant::now();
        let now = self.clock.now();
        if self.faults.is_down() {
            return false;
        }
        let mut state = self.lock_state(start);
        let ok = match state.node_mut(name) {
            Some(n) => {
                n.admin_flag = flag;
                n.reason = reason.clone();
                true
            }
            None => false,
        };
        if ok {
            self.wal.append(WalRecord::SetNodeFlag {
                node: name.to_string(),
                flag,
                reason,
            });
            self.publish_locked(&state, now);
        }
        ok
    }

    pub fn set_partition_state(&self, name: &str, pstate: PartitionState) -> bool {
        let start = Instant::now();
        let now = self.clock.now();
        if self.faults.is_down() {
            return false;
        }
        let mut state = self.lock_state(start);
        let ok = match state.partition_mut(name) {
            Some(p) => {
                p.state = pstate;
                true
            }
            None => false,
        };
        if ok {
            self.wal.append(WalRecord::SetPartitionState {
                partition: name.to_string(),
                state: pstate,
            });
            self.publish_locked(&state, now);
        }
        ok
    }

    pub fn hold(&self, id: JobId, by_admin: bool) -> Result<(), ClusterError> {
        let start = Instant::now();
        let now = self.clock.now();
        if self.faults.is_down() {
            return Err(ClusterError::ControllerDown);
        }
        let mut state = self.lock_state(start);
        let result = state.hold(id, by_admin);
        if result.is_ok() {
            self.wal.append(WalRecord::Hold { id, by_admin });
            self.publish_locked(&state, now);
        }
        result
    }

    pub fn release(&self, id: JobId) -> Result<(), ClusterError> {
        let start = Instant::now();
        let now = self.clock.now();
        if self.faults.is_down() {
            return Err(ClusterError::ControllerDown);
        }
        let mut state = self.lock_state(start);
        let result = state.release(id);
        if result.is_ok() {
            self.wal.append(WalRecord::Release { id });
            self.publish_locked(&state, now);
        }
        result
    }

    // ---- introspection -----------------------------------------------------

    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    pub fn clock_now(&self) -> Timestamp {
        self.clock.now()
    }

    pub fn logs(&self) -> &Arc<JobLogFs> {
        &self.logs
    }

    /// The cluster's job-event log (real-time monitoring feed). Cached at
    /// construction — no state lock.
    pub fn events(&self) -> Arc<crate::events::EventLog> {
        self.events.clone()
    }

    pub fn dbd(&self) -> &Arc<crate::dbd::Slurmdbd> {
        &self.dbd
    }

    // ---- durability / crash recovery ---------------------------------------

    /// True while a crash fault holds the daemon down (restart not yet due
    /// or not yet consumed by a tick).
    pub fn is_down(&self) -> bool {
        self.faults.is_down()
    }

    /// Completed crash recoveries.
    pub fn restart_count(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// What the most recent recovery replayed, lost, and cost.
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        *self.last_recovery.lock()
    }

    /// Checkpoints written so far (including checkpoint 0 at construction).
    pub fn checkpoint_count(&self) -> u64 {
        self.durable.save_count()
    }

    /// Sim-seconds between periodic checkpoints (tests shrink this to
    /// exercise checkpoint + WAL-suffix recovery without long runs).
    pub fn set_checkpoint_interval(&self, secs: u64) {
        self.checkpoint_every.store(secs, Ordering::Relaxed);
    }

    /// Take a checkpoint immediately (admin/test hook). Flushes first so
    /// the image and watermark agree.
    pub fn checkpoint_now(&self) {
        let start = Instant::now();
        let now = self.clock.now();
        let state = self.lock_state(start);
        self.wal.flush();
        let wal_seq = self.wal.flushed_seq();
        let bytes = serde_json::to_vec(&state.checkpoint()).expect("checkpoint serializes");
        self.durable.save(bytes, now, wal_seq);
        self.wal.trim_through(wal_seq);
        self.last_checkpoint.store(now.as_secs(), Ordering::Relaxed);
    }

    /// WAL records appended but not yet group-committed — what a crash at
    /// this instant would lose.
    pub fn wal_unflushed(&self) -> u64 {
        self.wal.unflushed_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::AssocStore;
    use crate::job::UsageProfile;
    use crate::qos::Qos;
    use hpcdash_simtime::{Clock, SimClock};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn spec() -> ClusterSpec {
        let mut assoc = AssocStore::new();
        assoc.add_account(Account::new("physics"));
        assoc.add_user("physics", "alice");
        assoc.add_user("physics", "bob");
        let nodes: Vec<Node> = (1..=2)
            .map(|i| Node::new(format!("a{i:03}"), 16, 64_000, 0))
            .collect();
        let names: Vec<String> = nodes.iter().map(|n| n.name.clone()).collect();
        ClusterSpec {
            name: "test".to_string(),
            nodes,
            partitions: vec![Partition::new("cpu").with_nodes(names).default_partition()],
            qos: Qos::standard_set(),
            assoc,
        }
    }

    fn daemon() -> (Arc<Slurmctld>, SimClock) {
        let clock = SimClock::new(Timestamp(0));
        let dbd = Arc::new(crate::dbd::Slurmdbd::with_cost(RpcCostModel::free()));
        let logs = Arc::new(JobLogFs::new());
        let ctld = Arc::new(Slurmctld::with_cost(
            spec(),
            clock.shared(),
            dbd,
            logs,
            RpcCostModel::free(),
        ));
        (ctld, clock)
    }

    fn req(user: &str, cpus: u32, runtime: u64) -> JobRequest {
        let mut r = JobRequest::simple(user, "physics", "cpu", cpus);
        r.mem_mb_per_node = 1_000;
        r.usage = UsageProfile::batch(runtime);
        r
    }

    #[test]
    fn end_to_end_lifecycle_through_daemons() {
        let (ctld, clock) = daemon();
        let id = ctld.submit(req("alice", 4, 120)).unwrap()[0];
        clock.advance(1);
        ctld.tick();
        assert_eq!(ctld.query_job(id).unwrap().state, JobState::Running);
        // Active mirror reached dbd.
        assert_eq!(ctld.dbd().job(id).unwrap().state, JobState::Running);

        clock.advance(200);
        ctld.tick();
        assert!(ctld.query_job(id).is_none(), "left live state");
        let archived = ctld.dbd().job(id).unwrap();
        assert_eq!(archived.state, JobState::Completed);
        // Logs were written and are owner-readable.
        let tail = ctld
            .logs()
            .tail_default(&archived.stdout_path, "alice")
            .unwrap();
        assert!(!tail.lines.is_empty());
        assert!(ctld
            .logs()
            .tail_default(&archived.stdout_path, "bob")
            .is_err());
    }

    /// What `tick` wrote for a running job before it appended: the whole
    /// file, formatted anew.
    fn whole_stdout(job: &Job, now: Timestamp) -> Vec<String> {
        let mut lines = vec![format!(
            "=== job {} ({}) starting on {} ===",
            job.id,
            job.req.name,
            job.nodes.join(",")
        )];
        let minutes = job.elapsed_secs(now) / 60;
        for i in 0..minutes.min(200) {
            lines.push(format!("step {i}: processed batch {i} ok"));
        }
        lines
    }

    #[test]
    fn appended_stdout_is_the_whole_reformat_after_every_tick() {
        let (ctld, clock) = daemon();
        // Short, hour-long and past the 200-step cap; more than fit at once,
        // so some start late.
        for (i, runtime) in [90, 400, 3_700, 14_000, 7_200, 1_000, 13_000]
            .into_iter()
            .enumerate()
        {
            let mut r = req("alice", 2 + i as u32 % 3, runtime);
            r.time_limit = hpcdash_simtime::TimeLimit::Limited(5 * 3_600);
            ctld.submit(r).unwrap();
        }
        let read = |path: &str| -> Vec<String> {
            let tail = ctld.logs().tail(path, "root", usize::MAX).unwrap();
            tail.lines.into_iter().map(|(_, line)| line).collect()
        };
        let mut compared = 0;
        for tick in 0..500u64 {
            clock.advance(30);
            // Now and then the file is not what the last tick left: as after
            // a requeue elsewhere, with lines that are not due, or empty.
            if let Some(job) = ctld
                .query_jobs(&JobQuery::all())
                .iter()
                .find(|j| j.state == JobState::Running && tick % 7 == j.id.0 as u64 % 7)
            {
                let mut lines = whole_stdout(job, clock.now());
                match tick % 3 {
                    0 => lines[0] = lines[0].replace(" on ", " on elsewhere,"),
                    1 => lines.extend(["step 998: extra".to_string(), "step 999".to_string()]),
                    _ => lines.clear(),
                }
                ctld.logs().write(&job.stdout_path, &job.req.user, lines);
            }
            ctld.tick();
            let now = clock.now();
            for job in ctld.query_jobs(&JobQuery::all()) {
                if job.state == JobState::Running {
                    assert_eq!(
                        read(&job.stdout_path),
                        whole_stdout(&job, now),
                        "tick {tick}"
                    );
                    assert_eq!(
                        ctld.logs().owner(&job.stdout_path).as_deref(),
                        Some("alice")
                    );
                    compared += 1;
                }
            }
        }
        assert!(compared > 1_000, "jobs ran: {compared} comparisons");
        // Finished jobs end with what the completion wrote, cap and all.
        let done = ctld.dbd().query_jobs(&crate::dbd::JobFilter::default());
        assert_eq!(done.len(), 7, "every job ran to its end");
        for job in done {
            let steps = (job.elapsed_secs(clock.now()) / 60).min(200) as usize;
            assert_eq!(read(&job.stdout_path).len(), 1 + steps, "{:?}", job.id);
        }
    }

    #[test]
    fn query_filters() {
        let (ctld, clock) = daemon();
        ctld.submit(req("alice", 2, 600)).unwrap();
        ctld.submit(req("bob", 2, 600)).unwrap();
        clock.advance(1);
        ctld.tick();
        assert_eq!(ctld.query_jobs(&JobQuery::all()).len(), 2);
        assert_eq!(ctld.query_jobs(&JobQuery::for_user("alice")).len(), 1);
        let by_account = ctld.query_jobs(&JobQuery {
            accounts: vec!["physics".to_string()],
            ..JobQuery::default()
        });
        assert_eq!(by_account.len(), 2);
        let node = ctld.query_jobs(&JobQuery::all())[0].nodes[0].clone();
        let on_node = ctld.query_jobs(&JobQuery {
            node: Some(node),
            ..JobQuery::default()
        });
        assert!(!on_node.is_empty());
    }

    #[test]
    fn snapshot_and_locked_paths_agree() {
        let (ctld, clock) = daemon();
        for i in 0..10 {
            ctld.submit(req(if i % 2 == 0 { "alice" } else { "bob" }, 1, 300 + i))
                .unwrap();
        }
        clock.advance(1);
        ctld.tick();
        for q in [
            JobQuery::all(),
            JobQuery::for_user("alice"),
            JobQuery {
                accounts: vec!["physics".to_string()],
                ..JobQuery::default()
            },
            JobQuery {
                partition: Some("cpu".to_string()),
                ..JobQuery::default()
            },
        ] {
            let snap_ids: Vec<JobId> = ctld.query_jobs(&q).iter().map(|j| j.id).collect();
            let locked_ids: Vec<JobId> = ctld.query_jobs_locked(&q).iter().map(|j| j.id).collect();
            assert_eq!(snap_ids, locked_ids, "paths disagree for {q:?}");
        }
    }

    #[test]
    fn assoc_visibility() {
        let (ctld, _clock) = daemon();
        let mine = ctld.query_assoc(Some("alice"));
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].account.name, "physics");
        assert!(ctld.query_assoc(Some("stranger")).is_empty());
        assert_eq!(ctld.query_assoc(None).len(), 1);
    }

    #[test]
    fn admin_flags_via_daemon() {
        let (ctld, clock) = daemon();
        assert!(ctld.set_node_flag("a001", AdminFlag::Drain, Some("bad DIMM".into())));
        assert!(!ctld.set_node_flag("zzz", AdminFlag::Drain, None));
        clock.advance(1);
        ctld.tick();
        let nodes = ctld.query_nodes();
        let a001 = nodes.iter().find(|n| n.name == "a001").unwrap();
        assert_eq!(a001.state(), crate::node::NodeState::Drained);
        assert_eq!(a001.reason.as_deref(), Some("bad DIMM"));

        assert!(ctld.set_partition_state("cpu", PartitionState::Down));
        let parts = ctld.query_partitions();
        assert_eq!(parts[0].state, PartitionState::Down);
    }

    #[test]
    fn rpc_stats_count_queries() {
        let (ctld, clock) = daemon();
        ctld.submit(req("alice", 1, 60)).unwrap();
        clock.advance(1);
        ctld.tick();
        for _ in 0..5 {
            ctld.query_jobs(&JobQuery::all());
        }
        ctld.query_nodes();
        assert_eq!(ctld.stats().count_of("squeue"), 5);
        assert_eq!(ctld.stats().count_of("scontrol_node"), 1);
        assert!(ctld.stats().count_of("sched_tick") >= 1);
    }

    #[test]
    fn squeue_cost_scales_with_users_job_count() {
        let (ctld, clock) = daemon();
        for _ in 0..30 {
            ctld.submit(req("bob", 1, 600)).unwrap();
        }
        for _ in 0..3 {
            ctld.submit(req("alice", 1, 600)).unwrap();
        }
        clock.advance(1);
        ctld.tick();
        // `squeue -u alice` scans only alice's rows...
        ctld.stats().reset();
        assert_eq!(ctld.query_jobs(&JobQuery::for_user("alice")).len(), 3);
        assert_eq!(ctld.stats().scanned_of("squeue"), 3);
        // ...an unfiltered squeue scans everything...
        ctld.stats().reset();
        assert_eq!(ctld.query_jobs(&JobQuery::all()).len(), 33);
        assert_eq!(ctld.stats().scanned_of("squeue"), 33);
        // ...and the legacy locked path scanned everything even for -u.
        ctld.stats().reset();
        ctld.query_jobs_locked(&JobQuery::for_user("alice"));
        assert_eq!(ctld.stats().scanned_of("squeue_locked"), 33);
    }

    #[test]
    fn read_rpcs_never_acquire_state_mutex() {
        let (ctld, clock) = daemon();
        ctld.submit(req("alice", 1, 600)).unwrap();
        let id = ctld.submit(req("bob", 1, 600)).unwrap()[0];
        clock.advance(1);
        ctld.tick();
        let locks_before = ctld.stats().state_lock_count();
        let wait_before = ctld.stats().total_lock_wait();
        for _ in 0..25 {
            ctld.query_jobs(&JobQuery::all());
            ctld.query_jobs(&JobQuery::for_user("alice"));
            ctld.query_job(id);
            ctld.query_nodes();
            ctld.query_node("a001");
            ctld.query_partitions();
            ctld.query_cluster();
            ctld.query_assoc(Some("alice"));
            ctld.cluster_name();
            ctld.events();
        }
        assert_eq!(
            ctld.stats().state_lock_count(),
            locks_before,
            "a read RPC acquired the state mutex"
        );
        assert_eq!(ctld.stats().total_lock_wait(), wait_before);
    }

    #[test]
    fn snapshot_readers_see_monotonic_untorn_views() {
        let (ctld, clock) = daemon();
        for i in 0..30 {
            ctld.submit(req(if i % 2 == 0 { "alice" } else { "bob" }, 1, 20 + i))
                .unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let c = ctld.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last_seq = 0u64;
                    let mut loads = 0u64;
                    // `loads == 0` guard: even if this thread is starved
                    // until the ticks finish, it validates one snapshot.
                    while !stop.load(Ordering::Relaxed) || loads == 0 {
                        let snap = c.snapshot();
                        assert!(snap.seq >= last_seq, "snapshot seq went backwards");
                        last_seq = snap.seq;
                        // No torn view: every running job's allocated nodes
                        // exist in the *same* snapshot's node table, and the
                        // job slice is id-ascending.
                        let names: HashSet<&str> =
                            snap.nodes.iter().map(|n| n.name.as_str()).collect();
                        let mut prev = None;
                        for job in snap.jobs.iter() {
                            assert!(Some(job.id) > prev, "jobs out of id order");
                            prev = Some(job.id);
                            if job.state == JobState::Running {
                                for n in &job.nodes {
                                    assert!(
                                        names.contains(n.as_str()),
                                        "job {} allocated to unknown node {n}",
                                        job.id
                                    );
                                }
                            }
                        }
                        loads += 1;
                    }
                    loads
                })
            })
            .collect();
        for round in 0..60u64 {
            clock.advance(5);
            ctld.tick();
            if round % 4 == 0 {
                let _ = ctld.submit(req("alice", 1, 25));
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader never loaded a snapshot");
        }
        assert!(ctld.snapshot_stats().publishes() > 60);
    }

    #[test]
    fn concurrent_queries_and_ticks() {
        let (ctld, clock) = daemon();
        for i in 0..20 {
            ctld.submit(req(if i % 2 == 0 { "alice" } else { "bob" }, 1, 50 + i))
                .unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = ctld.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let _ = c.query_jobs(&JobQuery::all());
                }
            }));
        }
        for _ in 0..10 {
            clock.advance(10);
            ctld.tick();
        }
        for h in handles {
            h.join().unwrap();
        }
        // No deadlocks, and stats saw all the traffic.
        assert_eq!(ctld.stats().count_of("squeue"), 200);
    }
}
