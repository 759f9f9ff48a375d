//! `slurmdbd`: the accounting daemon. Archives every job that ever ran and
//! mirrors active jobs, so `sacct`-style queries (the dashboard's My Jobs
//! and Job Performance Metrics backends) see the full picture without
//! touching slurmctld.

use crate::durable::{join_arrays, DurableStore, RecoveryReport, Wal};
use crate::job::{Job, JobId, JobState};
use crate::loadmodel::{RpcCostModel, RpcStats};
use crate::snapshot::ClusterSnapshot;
use hpcdash_faults::{FaultFailure, FaultHost, RestartToken};
use hpcdash_obs::{Histogram, Span};
use hpcdash_simtime::Timestamp;
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
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

    /// Whether the filter says who may be seen (`-u`, `-A`); without either
    /// it is the admin view.
    fn restricts_visibility(&self) -> bool {
        self.user.is_some() || !self.accounts.is_empty()
    }

    fn matches(&self, job: &Job) -> bool {
        if self.restricts_visibility() {
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

/// Every archived job by id, and the lists a query reads instead of the
/// whole table: each user's, each account's and each array's jobs. A row
/// sits in each list it belongs to exactly once, whatever was upserted.
#[derive(Default)]
struct Archive {
    rows: BTreeMap<JobId, Arc<Job>>,
    by_user: HashMap<String, Vec<Arc<Job>>>,
    by_account: HashMap<String, Vec<Arc<Job>>>,
    by_array: HashMap<JobId, Vec<Arc<Job>>>,
}

impl Archive {
    fn of(rows: impl IntoIterator<Item = Arc<Job>>) -> Archive {
        let mut archive = Archive::default();
        for job in rows {
            archive.upsert(job);
        }
        archive
    }

    /// Store `job`, replacing a row of the same id in the table and in
    /// every list, so that a retried batch neither moves nor doubles a job.
    fn upsert(&mut self, job: Arc<Job>) {
        if let Some(old) = self.rows.insert(job.id, job.clone()) {
            let drop_old = |list: &mut Vec<Arc<Job>>| list.retain(|j| j.id != old.id);
            self.by_user.get_mut(&old.req.user).map(drop_old);
            self.by_account.get_mut(&old.req.account).map(drop_old);
            if let Some(a) = old.array {
                self.by_array.get_mut(&a.array_job_id).map(drop_old);
            }
        }
        list_of(&mut self.by_user, &job.req.user).push(job.clone());
        list_of(&mut self.by_account, &job.req.account).push(job.clone());
        if let Some(a) = job.array {
            self.by_array.entry(a.array_job_id).or_default().push(job);
        }
    }

    /// The rows `filter` can match, from the narrowest lists that hold them
    /// all: the named jobs and their arrays' tasks, else the viewer's user
    /// and account lists, else every row. A row in two of the lists comes
    /// twice.
    fn candidates(&self, filter: &JobFilter) -> Vec<&Arc<Job>> {
        if let Some(ids) = &filter.job_ids {
            ids.iter()
                .flat_map(|id| {
                    let tasks = self.by_array.get(id).into_iter().flatten();
                    self.rows.get(id).into_iter().chain(tasks)
                })
                .collect()
        } else if filter.restricts_visibility() {
            let user = filter.user.iter().filter_map(|u| self.by_user.get(u));
            let accounts = filter
                .accounts
                .iter()
                .filter_map(|a| self.by_account.get(a));
            user.chain(accounts).flatten().collect()
        } else {
            self.rows.values().collect()
        }
    }
}

/// `map[key]`, made empty first if it is not there.
fn list_of<'m>(map: &'m mut HashMap<String, Vec<Arc<Job>>>, key: &str) -> &'m mut Vec<Arc<Job>> {
    if !map.contains_key(key) {
        map.insert(key.to_string(), Vec::new());
    }
    map.get_mut(key).expect("just inserted")
}

/// The mirror rows `filter` can match: the viewer's positions in the
/// snapshot's user and account indexes, or every active job.
fn mirror_candidates<'s>(mirror: &'s ClusterSnapshot, filter: &JobFilter) -> Vec<&'s Arc<Job>> {
    if filter.job_ids.is_none() && filter.restricts_visibility() {
        let user = filter.user.iter().filter_map(|u| mirror.by_user.get(u));
        let accounts = filter
            .accounts
            .iter()
            .filter_map(|a| mirror.by_account.get(a));
        user.chain(accounts)
            .flatten()
            .filter_map(|&id| mirror.jobs.by_id(id))
            .collect()
    } else {
        mirror.jobs.iter().collect()
    }
}

/// The accounting daemon. Rows are `Arc<Job>`, and the active mirror is
/// slurmctld's published snapshot itself, so neither an archived row nor a
/// mirrored one is ever deep-cloned on its way in or out.
pub struct Slurmdbd {
    archived: RwLock<Archive>,
    /// The active jobs as of the last applied `sync_active`, with the
    /// snapshot's per-user and per-account indexes.
    active_mirror: RwLock<Arc<ClusterSnapshot>>,
    cost: RpcCostModel,
    stats: RpcStats,
    /// Injected-fault hook. Latency faults burn inside the query RPCs; a
    /// `Lag` fault on `sync_active` freezes the active mirror (accounting
    /// answers from stale data, exactly like a lagging production dbd);
    /// error/garble faults are enforced at the `sacct`/`seff` render
    /// boundary in `hpcdash-slurmcli`.
    faults: FaultHost,
    /// Wall time of each phase on the ingest side (see
    /// [`Slurmdbd::phases`]) — the dbd half of the tick-phase profile.
    archive: Histogram,
    mirror_sync: Histogram,
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

/// The mirror before the first sync, and after a restart.
fn no_active_jobs() -> Arc<ClusterSnapshot> {
    Arc::new(ClusterSnapshot::empty("slurmdbd"))
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
            archived: RwLock::new(Archive::default()),
            active_mirror: RwLock::new(no_active_jobs()),
            cost,
            stats: RpcStats::new(),
            faults: FaultHost::new("slurmdbd"),
            archive: Histogram::default(),
            mirror_sync: Histogram::default(),
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

    /// Each phase of the ingest path and its wall times, by phase name.
    pub fn phases(&self) -> [(&'static str, &Histogram); 2] {
        [
            ("archive", &self.archive),
            ("mirror_sync", &self.mirror_sync),
        ]
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
        self.archive.time(|| {
            let mut archived = self.archived.write();
            for job in jobs {
                let job = job.into();
                self.wal.append(job.clone());
                archived.upsert(job);
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

    /// Replace the mirror of currently active jobs with `snapshot`, the one
    /// slurmctld just published (called on every tick): its rows and
    /// indexes are shared, not copied.
    pub fn sync_active(&self, snapshot: Arc<ClusterSnapshot>) {
        self.try_recover();
        self.mirror_sync.time(|| {
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
            *self.active_mirror.write() = snapshot;
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
        let rows: Vec<Job> = cp
            .images()
            .flat_map(|image| {
                serde_json::from_slice::<Vec<Job>>(image).expect("checkpoint decodes")
            })
            .collect();
        let (records, truncated) = self.wal.replay_from(cp.wal_seq);
        debug_assert!(!truncated, "checkpoints only trim the WAL they cover");
        let wal_replayed = records.len() as u64;
        let rebuilt = Archive::of(
            rows.into_iter()
                .map(Arc::new)
                .chain(records.into_iter().map(|(_seq, job)| job)),
        );
        *self.archived.write() = rebuilt;
        *self.active_mirror.write() = no_active_jobs();
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

    /// Checkpoint the archive now and compact the covered WAL prefix: the
    /// rows archived since the previous checkpoint become one segment of
    /// the image, and once the segments outgrow the base they are folded
    /// into a new base without being decoded. The image's timestamp is the
    /// newest end time it contains (accounting data carries its own time;
    /// the dbd holds no clock).
    fn checkpoint_now(&self) {
        let wal_seq = self.wal.flushed_seq();
        let (after, mut at, base, segments) = self
            .durable
            .peek(|cp| (cp.wal_seq, cp.at, cp.bytes.len(), cp.segment_bytes()))
            .expect("construction always writes checkpoint 0");
        let mut segment = vec![b'['];
        self.wal.for_each_durable(after, wal_seq, |job| {
            if segment.len() > 1 {
                segment.push(b',');
            }
            job.write_json(&mut segment);
            at = at.max(job.end_time.unwrap_or(at));
        });
        segment.push(b']');
        if segments + segment.len() > base {
            let cp = self.durable.latest().expect("peeked above");
            let joined = join_arrays(cp.images().chain([&segment[..]]));
            self.durable.save(joined, at, wal_seq);
        } else {
            self.durable.append(segment, at, wal_seq);
        }
        self.wal.trim_through(wal_seq);
    }

    /// `sacct`-style query across active + archived jobs, newest first. The
    /// rows are the stored ones, shared (as `Slurmctld::query_jobs` shares
    /// the snapshot's): a match costs a refcount, not a deep clone. Only
    /// the index lists the filter names are walked, and what was walked is
    /// what the cost model and `scanned` count.
    pub fn query_jobs(&self, filter: &JobFilter) -> Vec<Arc<Job>> {
        let _span = Span::enter("dbd").attr("kind", "sacct_query");
        let start = Instant::now();
        self.try_recover();
        self.faults.check("sacct_query").burn();
        let mut out: Vec<Arc<Job>> = Vec::new();
        let scanned;
        {
            let mirror = self.active_mirror.read();
            let archived = self.archived.read();
            let (stored, active) = (
                archived.candidates(filter),
                mirror_candidates(&mirror, filter),
            );
            scanned = stored.len() + active.len();
            out.extend(stored.into_iter().filter(|j| filter.matches(j)).cloned());
            // A job can momentarily exist in both between ticks; the
            // archived (final) record wins if the filter lets it through.
            let shadowed = |j: &Job| archived.rows.get(&j.id).is_some_and(|a| filter.matches(a));
            out.extend(
                active
                    .into_iter()
                    .filter(|j| filter.matches(j) && !shadowed(j))
                    .cloned(),
            );
        }
        self.cost.burn(scanned);
        self.stats.record_scanned("sacct_query", scanned as u64);
        out.sort_by_key(|j| (std::cmp::Reverse(j.submit_time), std::cmp::Reverse(j.id)));
        // A row reached through two lists (the viewer's own job, charged to
        // one of the viewer's accounts) is the same row twice, side by side.
        out.dedup_by_key(|j| j.id);
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
            .rows
            .get(&id)
            .cloned()
            .or_else(|| self.active_mirror.read().job(id).cloned());
        self.cost.burn(1);
        self.stats.record("job_lookup", start.elapsed());
        result
    }

    /// All sibling tasks of a job array, task order: the array's archived
    /// list, then the active jobs no archived row stands for.
    pub fn array_tasks(&self, array_job_id: JobId) -> Vec<Arc<Job>> {
        let _span = Span::enter("dbd").attr("kind", "array_lookup");
        let start = Instant::now();
        self.try_recover();
        self.faults.check("array_lookup").burn();
        let mut out: Vec<Arc<Job>> = Vec::new();
        let scanned;
        {
            let mirror = self.active_mirror.read();
            let archived = self.archived.read();
            let stored = archived
                .by_array
                .get(&array_job_id)
                .map_or(&[][..], Vec::as_slice);
            scanned = stored.len() + mirror.jobs.len();
            out.extend(stored.iter().cloned());
            let task = |j: &Job| j.array.is_some_and(|a| a.array_job_id == array_job_id);
            out.extend(
                mirror
                    .jobs
                    .iter()
                    .filter(|j| task(j) && !archived.rows.contains_key(&j.id))
                    .cloned(),
            );
        }
        self.cost.burn(scanned.max(1));
        self.stats.record_scanned("array_lookup", scanned as u64);
        out.sort_by_key(|j| j.array.map(|a| a.task_id).unwrap_or(0));
        self.stats.record("array_lookup", start.elapsed());
        out
    }

    pub fn archived_count(&self) -> usize {
        self.archived.read().rows.len()
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
        self.active_mirror.read().jobs.len()
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
    use crate::ctld::AssocRecord;
    use crate::job::{ArrayMeta, JobRequest};
    use crate::node::Node;
    use crate::partition::Partition;
    use hpcdash_faults::{FaultPlan, FaultRule};
    use hpcdash_simtime::{Clock, SimClock};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// A published snapshot whose active jobs are `jobs`, as slurmctld
    /// hands it to `sync_active`.
    fn published<J: Into<Arc<Job>>>(jobs: impl IntoIterator<Item = J>) -> Arc<ClusterSnapshot> {
        let mut jobs: Vec<Arc<Job>> = jobs.into_iter().map(Into::into).collect();
        jobs.sort_by_key(|j| j.id);
        Arc::new(ClusterSnapshot::build(
            1,
            Timestamp(0),
            Arc::from("test"),
            jobs,
            Vec::<Arc<Node>>::new(),
            Vec::<Partition>::new(),
            Vec::<Arc<AssocRecord>>::new(),
        ))
    }

    fn dbd() -> Slurmdbd {
        let d = Slurmdbd::with_cost(RpcCostModel::free());
        d.record_finished(vec![
            job(1, "alice", "physics", JobState::Completed, 100, Some(200)),
            job(2, "alice", "physics", JobState::Failed, 150, Some(250)),
            job(3, "bob", "physics", JobState::Completed, 180, Some(400)),
            job(4, "carol", "bio", JobState::Completed, 190, Some(500)),
        ]);
        d.sync_active(published(vec![
            job(5, "alice", "physics", JobState::Running, 300, None),
            job(6, "bob", "physics", JobState::Pending, 350, None),
        ]));
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
        d.sync_active(published(vec![job(
            7,
            "alice",
            "physics",
            JobState::Running,
            100,
            None,
        )]));
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
        d.sync_active(published(mirror.iter().cloned()));

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
        d.sync_active(published(vec![t1]));
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

    // ---- the indexes against the scan they replaced ------------------------

    /// The linear scan the indexes replaced: every archived row, then every
    /// mirrored one the archive does not answer for.
    fn scan_oracle(d: &Slurmdbd, filter: &JobFilter) -> Vec<Arc<Job>> {
        let archived = d.archived.read();
        let mirror = d.active_mirror.read();
        let mut out: Vec<Arc<Job>> = archived
            .rows
            .values()
            .filter(|j| filter.matches(j))
            .cloned()
            .collect();
        let shadowed = |j: &Job| archived.rows.get(&j.id).is_some_and(|a| filter.matches(a));
        out.extend(
            mirror
                .jobs
                .iter()
                .filter(|j| filter.matches(j) && !shadowed(j))
                .cloned(),
        );
        out.sort_by_key(|j| (std::cmp::Reverse(j.submit_time), std::cmp::Reverse(j.id)));
        out
    }

    /// Every task of an array by the same scan: archived rows first.
    fn array_oracle(d: &Slurmdbd, array_job_id: JobId) -> Vec<Arc<Job>> {
        let archived = d.archived.read();
        let mirror = d.active_mirror.read();
        let task = |j: &&Arc<Job>| j.array.is_some_and(|a| a.array_job_id == array_job_id);
        let mut out: Vec<Arc<Job>> = archived.rows.values().filter(task).cloned().collect();
        out.extend(
            mirror
                .jobs
                .iter()
                .filter(task)
                .filter(|j| !archived.rows.contains_key(&j.id))
                .cloned(),
        );
        out.sort_by_key(|j| j.array.map(|a| a.task_id).unwrap_or(0));
        out
    }

    fn same_rows(got: &[Arc<Job>], want: &[Arc<Job>], what: &str) {
        let ids = |rows: &[Arc<Job>]| rows.iter().map(|j| j.id.0).collect::<Vec<_>>();
        assert_eq!(ids(got), ids(want), "{what}");
        for (g, w) in got.iter().zip(want) {
            assert!(Arc::ptr_eq(g, w), "{what}: job {} is another row", g.id);
        }
    }

    const USERS: [&str; 4] = ["alice", "bob", "carol", "dave"];
    const ACCOUNTS: [&str; 3] = ["physics", "bio", "chem"];
    const STATES: [JobState; 4] = [
        JobState::Pending,
        JobState::Running,
        JobState::Completed,
        JobState::Failed,
    ];

    /// A job with a random owner, state and times; every fifth id belongs
    /// to the array whose id is the multiple of ten below it.
    fn random_job(rng: &mut StdRng, id: u32, finished: bool) -> Job {
        let user = USERS[rng.gen_range(0..USERS.len())];
        let account = ACCOUNTS[rng.gen_range(0..ACCOUNTS.len())];
        let submit = rng.gen_range(0..1_000u64);
        let state = if finished {
            STATES[rng.gen_range(2..4)]
        } else {
            STATES[rng.gen_range(0..2)]
        };
        let mut j = job(id, user, account, state, submit, None);
        if finished {
            j.end_time = Some(Timestamp(submit + rng.gen_range(1..500u64)));
        }
        if id.is_multiple_of(5) {
            j.array = Some(ArrayMeta {
                array_job_id: JobId(id - id % 10),
                task_id: id % 10,
                max_concurrent: None,
            });
        }
        j
    }

    fn random_filter(rng: &mut StdRng) -> JobFilter {
        let some = |rng: &mut StdRng| rng.gen_bool(0.5);
        JobFilter {
            user: some(rng).then(|| USERS[rng.gen_range(0..USERS.len())].to_string()),
            accounts: ACCOUNTS
                .iter()
                .filter(|_| rng.gen_bool(0.3))
                .map(|a| a.to_string())
                .collect(),
            states: some(rng).then(|| {
                STATES
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(0.5))
                    .collect()
            }),
            since: some(rng).then(|| Timestamp(rng.gen_range(0..1_500))),
            until: some(rng).then(|| Timestamp(rng.gen_range(0..1_000))),
            job_ids: rng.gen_bool(0.3).then(|| {
                (0..rng.gen_range(1..4))
                    .map(|_| JobId(rng.gen_range(1..80)))
                    .collect()
            }),
        }
    }

    /// Every query and array lookup answers as the scan does.
    fn agrees_with_the_scan(d: &Slurmdbd, rng: &mut StdRng, what: &str) {
        for round in 0..200 {
            let filter = random_filter(rng);
            let what = format!("{what}, filter {round}: {filter:?}");
            same_rows(&d.query_jobs(&filter), &scan_oracle(d, &filter), &what);
        }
        for array in (0..80).step_by(10) {
            let id = JobId(array);
            same_rows(&d.array_tasks(id), &array_oracle(d, id), what);
        }
    }

    #[test]
    fn indexed_queries_answer_as_the_scan_did() {
        let clock = SimClock::new(Timestamp(10_000));
        for seed in 0..8 {
            let rng = &mut StdRng::seed_from_u64(seed);
            let d = Slurmdbd::with_cost(RpcCostModel::free());
            let finished: Vec<Job> = (1..60).map(|id| random_job(rng, id, true)).collect();
            for batch in finished.chunks(7) {
                d.record_finished(batch.to_vec());
            }
            // Active jobs: new ids, and some the archive also holds (the
            // row a lagging mirror still shows).
            let active: Vec<Job> = (55..80).map(|id| random_job(rng, id, false)).collect();
            d.sync_active(published(active.clone()));
            agrees_with_the_scan(&d, rng, &format!("seed {seed}"));

            // A retried batch: the same ids again, some of them now
            // another user's or account's, none of them twice in a list.
            let retried: Vec<Job> = (20..40).map(|id| random_job(rng, id, true)).collect();
            d.record_finished(retried);
            d.record_finished(finished[..10].to_vec());
            agrees_with_the_scan(&d, rng, &format!("seed {seed}, retried"));
            for list in d.archived.read().by_user.values() {
                let mut ids: Vec<JobId> = list.iter().map(|j| j.id).collect();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), list.len(), "a job listed twice under one user");
            }
            let listed: usize = d.archived.read().by_account.values().map(Vec::len).sum();
            assert_eq!(
                listed,
                d.archived_count(),
                "every row under exactly one account"
            );

            // Crash and recover: the index is rebuilt from checkpoint + WAL.
            let now = clock.now();
            d.faults().install(
                Arc::new(
                    FaultPlan::new(seed)
                        .rule(FaultRule::crash("slurmdbd", 10).during(now, Timestamp(now.0 + 1))),
                ),
                clock.shared(),
            );
            let _ = d.query_jobs(&JobFilter::default());
            assert!(d.is_down());
            clock.advance(11);
            let _ = d.query_jobs(&JobFilter::default());
            assert_eq!(d.restart_count(), 1);
            assert_eq!(d.mirror_len(), 0, "the mirror died with the daemon");
            agrees_with_the_scan(&d, rng, &format!("seed {seed}, recovered"));
            d.sync_active(published(active));
            agrees_with_the_scan(&d, rng, &format!("seed {seed}, recovered and synced"));
        }
    }

    /// The archive as a rebuild sees it: each row by id, and the ids each
    /// user, account and array list holds.
    type Listed = BTreeMap<String, Vec<JobId>>;

    fn archive_view(a: &Archive) -> (Vec<Job>, [Listed; 3]) {
        let ids = |lists: Vec<(String, &Vec<Arc<Job>>)>| -> Listed {
            lists
                .into_iter()
                .map(|(k, l)| {
                    let mut ids: Vec<JobId> = l.iter().map(|j| j.id).collect();
                    ids.sort_unstable();
                    (k, ids)
                })
                .collect()
        };
        (
            a.rows.values().map(|j| Job::clone(j)).collect(),
            [
                ids(a.by_user.iter().map(|(k, l)| (k.clone(), l)).collect()),
                ids(a.by_account.iter().map(|(k, l)| (k.clone(), l)).collect()),
                ids(a.by_array.iter().map(|(k, l)| (k.to_string(), l)).collect()),
            ],
        )
    }

    /// Crash slurmdbd after every batch of a seeded stream of finished
    /// jobs (so at every checkpoint, every segment append, every fold into
    /// a new base and every point between them): the recovered archive is
    /// the one a single full image of the same rows rebuilds, and the
    /// recovery report counts what an independent tally says it replayed.
    #[test]
    fn recovery_at_every_checkpoint_and_segment_boundary_rebuilds_the_full_image() {
        let rng = &mut StdRng::seed_from_u64(42);
        let mut next = 1u32;
        let batches: Vec<Vec<Job>> = (0..90)
            .map(|b| {
                let mut batch: Vec<Job> = (0..rng.gen_range(1..6))
                    .map(|_| {
                        next += 1;
                        random_job(rng, next, true)
                    })
                    .collect();
                if b % 11 == 10 {
                    // A retried row: an id archived before, sent again.
                    batch.push(random_job(rng, next - 7, true));
                }
                batch
            })
            .collect();
        let (mut segmented, mut folded) = (0, 0);
        for crash_after in 1..=batches.len() {
            let clock = SimClock::new(Timestamp(1_000));
            let d = Slurmdbd::with_cost(RpcCostModel::free());
            for batch in &batches[..crash_after] {
                assert!(d.record_finished(batch.clone()));
            }
            let image = d.durable.latest().unwrap();
            segmented += usize::from(!image.segments.is_empty());
            folded += usize::from(image.segments.is_empty() && image.wal_seq > 0);

            // Independently: the last checkpoint came after batch
            // `8 * k`; its time is the newest end time up to there, and
            // recovery replays every row sent after it.
            let covered = crash_after / CHECKPOINT_EVERY_BATCHES as usize * 8;
            let checkpoint_at = batches[..covered]
                .iter()
                .flatten()
                .filter_map(|j| j.end_time)
                .max()
                .unwrap_or(Timestamp(0));
            let replayed: usize = batches[covered..crash_after].iter().map(Vec::len).sum();

            let now = clock.now();
            d.faults().install(
                Arc::new(
                    FaultPlan::new(7)
                        .rule(FaultRule::crash("slurmdbd", 10).during(now, Timestamp(now.0 + 1))),
                ),
                clock.shared(),
            );
            let _ = d.query_jobs(&JobFilter::default());
            assert!(d.is_down());
            clock.advance(11);
            let _ = d.query_jobs(&JobFilter::default());
            let report = d.last_recovery().expect("recovered");
            assert_eq!(
                report.checkpoint_at, checkpoint_at,
                "after batch {crash_after}"
            );
            assert_eq!(
                report.wal_replayed, replayed as u64,
                "after batch {crash_after}"
            );

            // One full image of the same rows, last version of each id.
            let mut latest: BTreeMap<JobId, Job> = BTreeMap::new();
            for job in batches[..crash_after].iter().flatten() {
                latest.insert(job.id, job.clone());
            }
            let full = serde_json::to_vec(&latest.into_values().collect::<Vec<Job>>()).unwrap();
            let rows: Vec<Job> = serde_json::from_slice(&full).unwrap();
            let rebuilt = Archive::of(rows.into_iter().map(Arc::new));
            let recovered = archive_view(&d.archived.read());
            let (want_rows, want_lists) = archive_view(&rebuilt);
            assert_eq!(
                serde_json::to_vec(&recovered.0).unwrap(),
                serde_json::to_vec(&want_rows).unwrap(),
                "rows after batch {crash_after}"
            );
            assert_eq!(recovered.1, want_lists, "lists after batch {crash_after}");
        }
        assert!(
            segmented > 10 && folded > 3,
            "{segmented} segmented, {folded} folded images"
        );
    }

    #[test]
    fn a_query_scans_the_lists_it_walks() {
        let rng = &mut StdRng::seed_from_u64(7);
        let d = Slurmdbd::with_cost(RpcCostModel::free());
        d.record_finished(
            (1..60)
                .map(|id| random_job(rng, id, true))
                .collect::<Vec<_>>(),
        );
        d.sync_active(published((60..80).map(|id| random_job(rng, id, false))));
        let scanned = |filter: &JobFilter| {
            let before = d.stats().scanned_of("sacct_query");
            d.query_jobs(filter);
            d.stats().scanned_of("sacct_query") - before
        };
        let (archived, active) = (d.archived.read(), d.active_mirror.read());
        let (listed, mirrored) = (
            |key: &str, by_user: bool| {
                let map = if by_user {
                    &archived.by_user
                } else {
                    &archived.by_account
                };
                map.get(key).map_or(0, Vec::len) as u64
            },
            |key: &str, by_user: bool| {
                let map = if by_user {
                    &active.by_user
                } else {
                    &active.by_account
                };
                map.get(key).map_or(0, <[_]>::len) as u64
            },
        );

        // My Jobs: the viewer's list and each of their accounts' lists.
        let mine = JobFilter::for_user("alice", vec!["bio".to_string(), "chem".to_string()]);
        let walked = listed("alice", true) + listed("bio", false) + listed("chem", false);
        let mirrored_walked =
            mirrored("alice", true) + mirrored("bio", false) + mirrored("chem", false);
        assert_eq!(scanned(&mine), walked + mirrored_walked);
        assert!(walked < archived.rows.len() as u64);
        // Job Performance: the viewer's own list only.
        let own = JobFilter::for_user("bob", Vec::new());
        assert_eq!(scanned(&own), listed("bob", true) + mirrored("bob", true));
        // A job page: the job, its array's tasks, and the mirror's scan.
        let page = JobFilter {
            job_ids: Some(vec![JobId(40), JobId(7)]),
            ..JobFilter::default()
        };
        let tasks = archived.by_array.get(&JobId(40)).map_or(0, Vec::len) as u64;
        assert_eq!(scanned(&page), 2 + tasks + active.jobs.len() as u64);
        // The admin view walks everything.
        assert_eq!(
            scanned(&JobFilter::default()),
            (archived.rows.len() + active.jobs.len()) as u64
        );
        // An array lookup: the array's list and the mirror.
        let before = d.stats().scanned_of("array_lookup");
        d.array_tasks(JobId(40));
        assert_eq!(
            d.stats().scanned_of("array_lookup") - before,
            tasks + active.jobs.len() as u64
        );
    }
}
