//! `slurmdbd`: the accounting daemon. Archives every job that ever ran and
//! mirrors active jobs, so `sacct`-style queries (the dashboard's My Jobs
//! and Job Performance Metrics backends) see the full picture without
//! touching slurmctld.

use crate::durable::{DurableStore, RecoveryReport, Wal};
use crate::job::{Job, JobId, JobState};
use crate::loadmodel::{RpcCostModel, RpcStats};
use hpcdash_faults::{FaultFailure, FaultHost, RestartToken};
use hpcdash_obs::{PhaseProfiler, Span};
use hpcdash_simtime::Timestamp;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Checkpoint the archive every N accepted `record_finished` batches.
const CHECKPOINT_EVERY_BATCHES: u64 = 8;

/// Filter for accounting queries, mirroring the sacct flags the dashboard
/// uses (`-u`, `-A`, `-S`, `-E`, `--state`, `-j`).
#[derive(Debug, Clone, Default)]
pub struct JobFilter {
    /// Visibility: match jobs submitted by this user...
    pub user: Option<String>,
    /// ...or charged to any of these accounts. Both empty = no visibility
    /// restriction (admin view).
    pub accounts: Vec<String>,
    pub states: Option<Vec<JobState>>,
    /// Only jobs still relevant after this instant (active, or ended later).
    pub since: Option<Timestamp>,
    /// Only jobs submitted at or before this instant.
    pub until: Option<Timestamp>,
    pub job_ids: Option<Vec<JobId>>,
}

impl JobFilter {
    pub fn for_user(user: &str, accounts: Vec<String>) -> JobFilter {
        JobFilter {
            user: Some(user.to_string()),
            accounts,
            ..JobFilter::default()
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
        if let Some(states) = &self.states {
            if !states.contains(&job.state) {
                return false;
            }
        }
        if let Some(since) = self.since {
            let ended_before = job.end_time.map(|e| e < since).unwrap_or(false);
            if ended_before {
                return false;
            }
        }
        if let Some(until) = self.until {
            if job.submit_time > until {
                return false;
            }
        }
        if let Some(ids) = &self.job_ids {
            let in_list = ids.contains(&job.id)
                || job
                    .array
                    .map(|a| ids.contains(&a.array_job_id))
                    .unwrap_or(false);
            if !in_list {
                return false;
            }
        }
        true
    }
}

/// The accounting daemon. Rows are `Arc<Job>` so slurmctld can feed it the
/// shared rows of its published snapshot (refcount bumps, not deep clones).
pub struct Slurmdbd {
    archived: RwLock<BTreeMap<JobId, Arc<Job>>>,
    active_mirror: RwLock<BTreeMap<JobId, Arc<Job>>>,
    cost: RpcCostModel,
    stats: RpcStats,
    /// Injected-fault hook. Latency faults burn inside the query RPCs; a
    /// `Lag` fault on `sync_active` freezes the active mirror (accounting
    /// answers from stale data, exactly like a lagging production dbd);
    /// error/garble faults are enforced at the `sacct`/`seff` render
    /// boundary in `hpcdash-slurmcli`.
    faults: FaultHost,
    /// Per-phase wall time on the ingest side (archive writes, mirror
    /// syncs) — the dbd half of the tick-phase profile.
    phases: PhaseProfiler,
    /// Write-ahead log of archived rows since the last checkpoint,
    /// flushed per accepted batch (each archive write IS the commit).
    wal: Wal<Arc<Job>>,
    /// Latest serialized archive checkpoint.
    durable: DurableStore,
    /// Accepted archive batches (drives the checkpoint cadence).
    archive_batches: AtomicU64,
    restarts: AtomicU64,
    last_recovery: Mutex<Option<RecoveryReport>>,
}

impl Slurmdbd {
    pub fn new() -> Slurmdbd {
        Slurmdbd::with_cost(RpcCostModel::dbd_default())
    }

    pub fn with_cost(cost: RpcCostModel) -> Slurmdbd {
        // Checkpoint 0 (empty archive): a crash before the first periodic
        // checkpoint still has an image to recover from.
        let durable = DurableStore::new();
        durable.save(
            serde_json::to_vec(&Vec::<Job>::new()).expect("checkpoint serializes"),
            Timestamp(0),
            0,
        );
        Slurmdbd {
            archived: RwLock::new(BTreeMap::new()),
            active_mirror: RwLock::new(BTreeMap::new()),
            cost,
            stats: RpcStats::new(),
            faults: FaultHost::new("slurmdbd"),
            phases: PhaseProfiler::new(),
            wal: Wal::new(65_536),
            durable,
            archive_batches: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            last_recovery: Mutex::new(None),
        }
    }

    /// The daemon's fault-injection hook (install a `FaultPlan` here).
    pub fn faults(&self) -> &FaultHost {
        &self.faults
    }

    /// Per-phase wall-time accounting for the ingest path.
    pub fn phase_profile(&self) -> &PhaseProfiler {
        &self.phases
    }

    /// Archive finished jobs (called by slurmctld). Accepts owned `Job`s or
    /// shared `Arc<Job>` rows. Returns false if the daemon is down (a crash
    /// fault is active): the batch was refused and the caller must retain
    /// it for retry — archival upserts by job id, so retries are safe.
    pub fn record_finished<J: Into<Arc<Job>>>(&self, jobs: impl IntoIterator<Item = J>) -> bool {
        self.try_recover();
        let check = self.faults.check("record_finished");
        check.burn();
        if self.faults.is_down() {
            return false;
        }
        self.phases.time("archive", || {
            let mut archived = self.archived.write();
            for job in jobs {
                let job = job.into();
                self.wal.append(job.clone());
                archived.insert(job.id, job);
            }
        });
        // Each accepted batch commits immediately: slurmctld treats a
        // `true` return as durable and drops the batch from its spool.
        self.wal.flush();
        let batches = self.archive_batches.fetch_add(1, Ordering::Relaxed) + 1;
        if batches.is_multiple_of(CHECKPOINT_EVERY_BATCHES) {
            self.checkpoint_now();
        }
        true
    }

    /// Replace the mirror of currently active jobs (called by slurmctld on
    /// every tick, handing over the snapshot's shared rows).
    pub fn sync_active<J: Into<Arc<Job>>>(&self, jobs: impl IntoIterator<Item = J>) {
        self.try_recover();
        self.phases.time("mirror_sync", || {
            let check = self.faults.check("sync_active");
            check.burn();
            if self.faults.is_down() {
                // Crashed: the sync never arrives. The mirror is rebuilt by
                // the first sync after recovery; nothing is retried.
                return;
            }
            if matches!(check.failure, Some(FaultFailure::Lag)) {
                // The accounting daemon has fallen behind: drop this sync and
                // keep answering queries from the last mirror it applied.
                return;
            }
            let mut mirror = self.active_mirror.write();
            mirror.clear();
            for job in jobs {
                let job = job.into();
                mirror.insert(job.id, job);
            }
        });
    }

    /// Lazy crash recovery: the dbd has no tick loop, so the first RPC to
    /// arrive after the restart time performs the rebuild.
    fn try_recover(&self) {
        if let Some(token) = self.faults.take_restart() {
            self.recover(token);
        }
    }

    /// Rebuild the archive as checkpoint + durable WAL suffix. The active
    /// mirror died with the daemon and is NOT restored — it repopulates on
    /// the next slurmctld sync; until then accounting honestly serves
    /// archives only (the same observable gap a real dbd restart has).
    #[cold]
    fn recover(&self, token: RestartToken) {
        let rebuild_start = Instant::now();
        let wal_lost = self.wal.unflushed_len();
        self.wal.drop_unflushed();
        let cp = self
            .durable
            .latest()
            .expect("construction always writes checkpoint 0");
        let rows: Vec<Job> = serde_json::from_slice(&cp.bytes).expect("checkpoint decodes");
        let mut rebuilt: BTreeMap<JobId, Arc<Job>> =
            rows.into_iter().map(|j| (j.id, Arc::new(j))).collect();
        let (records, truncated) = self.wal.replay_from(cp.wal_seq);
        debug_assert!(!truncated, "checkpoints only trim the WAL they cover");
        let wal_replayed = records.len() as u64;
        for (_seq, job) in records {
            rebuilt.insert(job.id, job);
        }
        *self.archived.write() = rebuilt;
        self.active_mirror.write().clear();
        self.restarts.fetch_add(1, Ordering::Relaxed);
        *self.last_recovery.lock() = Some(RecoveryReport {
            crashed_at: token.crashed_at,
            recovered_at: token.down_until,
            checkpoint_at: cp.at,
            wal_replayed,
            wal_lost,
            // The dbd publishes no snapshot epoch; these stay 0.
            epoch_before: 0,
            epoch_after: 0,
            duration_micros: rebuild_start.elapsed().as_micros() as u64,
        });
    }

    /// Checkpoint the archive now and compact the covered WAL prefix. The
    /// image's timestamp is the newest end time it contains (accounting
    /// data carries its own time; the dbd holds no clock).
    pub fn checkpoint_now(&self) {
        let archived = self.archived.read();
        let wal_seq = self.wal.flushed_seq();
        let rows: Vec<Job> = archived.values().map(|j| Job::clone(j)).collect();
        let at = rows
            .iter()
            .filter_map(|j| j.end_time)
            .max()
            .unwrap_or(Timestamp(0));
        self.durable.save(
            serde_json::to_vec(&rows).expect("checkpoint serializes"),
            at,
            wal_seq,
        );
        self.wal.trim_through(wal_seq);
    }

    /// `sacct`-style query across active + archived jobs, newest first. The
    /// rows are the stored ones, shared (as `Slurmctld::query_jobs` shares
    /// the snapshot's): a match costs a refcount, not a deep clone.
    pub fn query_jobs(&self, filter: &JobFilter) -> Vec<Arc<Job>> {
        let _span = Span::enter("dbd").attr("kind", "sacct_query");
        let start = Instant::now();
        self.try_recover();
        self.faults.check("sacct_query").burn();
        let mut out: Vec<Arc<Job>> = Vec::new();
        let scanned;
        {
            let active = self.active_mirror.read();
            let archived = self.archived.read();
            scanned = active.len() + archived.len();
            out.extend(archived.values().filter(|j| filter.matches(j)).cloned());
            // A job can momentarily exist in both maps between ticks; the
            // archived (final) record wins if the filter lets it through.
            let shadowed = |j: &Job| archived.get(&j.id).is_some_and(|a| filter.matches(a));
            out.extend(
                active
                    .values()
                    .filter(|j| filter.matches(j) && !shadowed(j))
                    .cloned(),
            );
        }
        self.cost.burn(scanned);
        out.sort_by_key(|j| (std::cmp::Reverse(j.submit_time), std::cmp::Reverse(j.id)));
        self.stats.record("sacct_query", start.elapsed());
        out
    }

    /// Look up one job anywhere in accounting.
    pub fn job(&self, id: JobId) -> Option<Arc<Job>> {
        let _span = Span::enter("dbd").attr("kind", "job_lookup");
        let start = Instant::now();
        self.try_recover();
        self.faults.check("job_lookup").burn();
        let result = self
            .archived
            .read()
            .get(&id)
            .cloned()
            .or_else(|| self.active_mirror.read().get(&id).cloned());
        self.cost.burn(1);
        self.stats.record("job_lookup", start.elapsed());
        result
    }

    /// All sibling tasks of a job array, task order.
    pub fn array_tasks(&self, array_job_id: JobId) -> Vec<Arc<Job>> {
        let _span = Span::enter("dbd").attr("kind", "array_lookup");
        let start = Instant::now();
        self.try_recover();
        self.faults.check("array_lookup").burn();
        let mut out: Vec<Arc<Job>> = Vec::new();
        {
            let active = self.active_mirror.read();
            let archived = self.archived.read();
            let pick = |j: &Job| {
                j.array
                    .map(|a| a.array_job_id == array_job_id)
                    .unwrap_or(false)
            };
            out.extend(active.values().filter(|j| pick(j)).cloned());
            for job in archived.values().filter(|j| pick(j)) {
                if !out.iter().any(|j| j.id == job.id) {
                    out.push(job.clone());
                }
            }
        }
        self.cost.burn(out.len().max(1));
        out.sort_by_key(|j| j.array.map(|a| a.task_id).unwrap_or(0));
        self.stats.record("array_lookup", start.elapsed());
        out
    }

    pub fn archived_count(&self) -> usize {
        self.archived.read().len()
    }

    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    /// True while a crash fault holds the daemon down.
    pub fn is_down(&self) -> bool {
        self.faults.is_down()
    }

    /// Completed crash recoveries.
    pub fn restart_count(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        *self.last_recovery.lock()
    }

    /// Checkpoints written so far (including checkpoint 0 at construction).
    pub fn checkpoint_count(&self) -> u64 {
        self.durable.save_count()
    }

    /// Jobs currently in the active mirror (observability: it empties on a
    /// dbd restart and refills on the next slurmctld sync).
    pub fn mirror_len(&self) -> usize {
        self.active_mirror.read().len()
    }
}

impl Default for Slurmdbd {
    fn default() -> Slurmdbd {
        Slurmdbd::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobRequest;

    fn job(
        id: u32,
        user: &str,
        account: &str,
        state: JobState,
        submit: u64,
        end: Option<u64>,
    ) -> Job {
        let req = JobRequest::simple(user, account, "cpu", 1);
        Job {
            id: JobId(id),
            array: None,
            req,
            state,
            reason: None,
            priority: 0,
            submit_time: Timestamp(submit),
            eligible_time: Timestamp(submit),
            start_time: end.map(|_| Timestamp(submit + 10)),
            end_time: end.map(Timestamp),
            nodes: Vec::new(),
            exit_code: None,
            stats: None,
            stdout_path: String::new(),
            stderr_path: String::new(),
        }
    }

    fn dbd() -> Slurmdbd {
        let d = Slurmdbd::with_cost(RpcCostModel::free());
        d.record_finished(vec![
            job(1, "alice", "physics", JobState::Completed, 100, Some(200)),
            job(2, "alice", "physics", JobState::Failed, 150, Some(250)),
            job(3, "bob", "physics", JobState::Completed, 180, Some(400)),
            job(4, "carol", "bio", JobState::Completed, 190, Some(500)),
        ]);
        d.sync_active(vec![
            job(5, "alice", "physics", JobState::Running, 300, None),
            job(6, "bob", "physics", JobState::Pending, 350, None),
        ]);
        d
    }

    #[test]
    fn user_visibility_or_accounts() {
        let d = dbd();
        let mine = d.query_jobs(&JobFilter::for_user("alice", vec![]));
        assert_eq!(
            mine.iter().map(|j| j.id.0).collect::<Vec<_>>(),
            vec![5, 2, 1]
        );

        // Group visibility: alice sees bob's physics jobs too.
        let group = d.query_jobs(&JobFilter::for_user("alice", vec!["physics".to_string()]));
        assert_eq!(group.len(), 5);
        assert!(group.iter().all(|j| j.req.account == "physics"));

        // Unrestricted (admin) sees everything.
        let all = d.query_jobs(&JobFilter::default());
        assert_eq!(all.len(), 6);
    }

    #[test]
    fn state_filter() {
        let d = dbd();
        let failed = d.query_jobs(&JobFilter {
            states: Some(vec![JobState::Failed]),
            ..JobFilter::default()
        });
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].id, JobId(2));
    }

    #[test]
    fn time_window() {
        let d = dbd();
        // since=300: jobs ended before 300 drop out; active jobs stay.
        let recent = d.query_jobs(&JobFilter {
            since: Some(Timestamp(300)),
            ..JobFilter::default()
        });
        let ids: Vec<u32> = recent.iter().map(|j| j.id.0).collect();
        assert!(!ids.contains(&1) && !ids.contains(&2));
        assert!(ids.contains(&3) && ids.contains(&5) && ids.contains(&6));

        let older = d.query_jobs(&JobFilter {
            until: Some(Timestamp(200)),
            ..JobFilter::default()
        });
        assert_eq!(older.len(), 4, "submitted at or before 200");
    }

    #[test]
    fn job_id_filter_and_lookup() {
        let d = dbd();
        let two = d.query_jobs(&JobFilter {
            job_ids: Some(vec![JobId(2), JobId(5)]),
            ..JobFilter::default()
        });
        assert_eq!(two.len(), 2);
        assert_eq!(d.job(JobId(4)).unwrap().req.user, "carol");
        assert_eq!(d.job(JobId(5)).unwrap().state, JobState::Running);
        assert!(d.job(JobId(99)).is_none());
    }

    #[test]
    fn newest_first_ordering() {
        let d = dbd();
        let all = d.query_jobs(&JobFilter::default());
        let submits: Vec<u64> = all.iter().map(|j| j.submit_time.as_secs()).collect();
        let mut sorted = submits.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(submits, sorted);
    }

    #[test]
    fn archived_record_wins_over_mirror() {
        let d = Slurmdbd::with_cost(RpcCostModel::free());
        d.sync_active(vec![job(
            7,
            "alice",
            "physics",
            JobState::Running,
            100,
            None,
        )]);
        d.record_finished(vec![job(
            7,
            "alice",
            "physics",
            JobState::Completed,
            100,
            Some(300),
        )]);
        let got = d.query_jobs(&JobFilter::default());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].state, JobState::Completed);
    }

    #[test]
    fn queries_hand_out_the_stored_rows_once_each_in_order() {
        let d = Slurmdbd::with_cost(RpcCostModel::free());
        let shared = |j: Job| Arc::new(j);
        let archived = [
            shared(job(
                1,
                "alice",
                "physics",
                JobState::Completed,
                100,
                Some(200),
            )),
            shared(job(3, "bob", "physics", JobState::Failed, 300, Some(400))),
            // Same submit second as 3: the higher id comes first.
            shared(job(
                4,
                "bob",
                "physics",
                JobState::Completed,
                300,
                Some(450),
            )),
            shared(job(
                7,
                "alice",
                "physics",
                JobState::Completed,
                250,
                Some(500),
            )),
        ];
        let mirror = [
            shared(job(7, "alice", "physics", JobState::Running, 250, None)),
            shared(job(9, "alice", "physics", JobState::Pending, 50, None)),
        ];
        d.record_finished(archived.iter().cloned());
        d.sync_active(mirror.iter().cloned());

        // Newest first; job 7 is in both maps and comes back once, as the
        // archived row; every row IS the stored row, not a copy of it.
        let got = d.query_jobs(&JobFilter::default());
        let expected = [
            &archived[2],
            &archived[1],
            &archived[3],
            &archived[0],
            &mirror[1],
        ];
        assert_eq!(got.len(), expected.len());
        for (row, stored) in got.iter().zip(expected) {
            assert!(Arc::ptr_eq(row, stored), "{:?} vs {:?}", row.id, stored.id);
        }

        // The archived row wins only where the filter lets it through: asked
        // for running jobs, the mirror's row of job 7 is the answer.
        let running = d.query_jobs(&JobFilter {
            states: Some(vec![JobState::Running]),
            ..JobFilter::default()
        });
        assert_eq!(running.len(), 1);
        assert!(Arc::ptr_eq(&running[0], &mirror[0]));

        assert!(Arc::ptr_eq(&d.job(JobId(7)).unwrap(), &archived[3]));
        assert!(Arc::ptr_eq(&d.job(JobId(9)).unwrap(), &mirror[1]));
    }

    #[test]
    fn array_tasks_sorted() {
        use crate::job::ArrayMeta;
        let d = Slurmdbd::with_cost(RpcCostModel::free());
        let mut t2 = job(12, "alice", "physics", JobState::Completed, 100, Some(200));
        t2.array = Some(ArrayMeta {
            array_job_id: JobId(10),
            task_id: 2,
            max_concurrent: None,
        });
        let mut t0 = job(10, "alice", "physics", JobState::Completed, 100, Some(150));
        t0.array = Some(ArrayMeta {
            array_job_id: JobId(10),
            task_id: 0,
            max_concurrent: None,
        });
        d.record_finished(vec![t2, t0]);
        let mut t1 = job(11, "alice", "physics", JobState::Running, 100, None);
        t1.array = Some(ArrayMeta {
            array_job_id: JobId(10),
            task_id: 1,
            max_concurrent: None,
        });
        d.sync_active(vec![t1]);
        let tasks = d.array_tasks(JobId(10));
        assert_eq!(
            tasks
                .iter()
                .map(|t| t.array.unwrap().task_id)
                .collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn stats_recorded() {
        let d = dbd();
        d.query_jobs(&JobFilter::default());
        assert!(d.stats().count_of("sacct_query") >= 1);
    }
}
