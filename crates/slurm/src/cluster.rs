//! Live cluster state: submissions, cancellations, and the scheduling tick.

use crate::assoc::AssocStore;
use crate::events::EventLog;
use crate::job::{
    ArrayMeta, Job, JobId, JobRequest, JobState, JobStats, PendingReason, PlannedOutcome,
};
use crate::node::Node;
use crate::partition::Partition;
use crate::qos::Qos;
use crate::sched::backfill::{PlanInputs, RunningJobInfo};
use crate::sched::{self, PriorityWeights, ScheduleDecision};
use hpcdash_simtime::{TimeLimit, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Errors surfaced to submitters — the cases real slurmctld rejects at
/// submit time rather than leaving the job pending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    UnknownPartition(String),
    UnknownAccount(String),
    UnknownQos(String),
    NotAccountMember {
        user: String,
        account: String,
    },
    QosSubmitLimit {
        qos: String,
        cap: u32,
    },
    UnknownJob(JobId),
    PermissionDenied(String),
    InvalidRequest(String),
    /// The daemon is crashed (a `FaultKind::Crash` window is active): the
    /// RPC never reached cluster state at all.
    ControllerDown,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownPartition(p) => write!(f, "invalid partition specified: {p}"),
            ClusterError::UnknownAccount(a) => write!(f, "invalid account specified: {a}"),
            ClusterError::UnknownQos(q) => write!(f, "invalid qos specified: {q}"),
            ClusterError::NotAccountMember { user, account } => {
                write!(f, "user {user} is not a member of account {account}")
            }
            ClusterError::QosSubmitLimit { qos, cap } => {
                write!(f, "job submit limit reached for qos {qos} (max {cap})")
            }
            ClusterError::UnknownJob(id) => write!(f, "invalid job id specified: {id}"),
            ClusterError::PermissionDenied(msg) => write!(f, "access/permission denied: {msg}"),
            ClusterError::InvalidRequest(msg) => write!(f, "invalid job request: {msg}"),
            ClusterError::ControllerDown => {
                write!(f, "unable to contact slurm controller (connect failure)")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Static description used to build a cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSpec {
    pub name: String,
    pub nodes: Vec<Node>,
    pub partitions: Vec<Partition>,
    pub qos: Vec<Qos>,
    pub assoc: AssocStore,
}

/// How a started job is planned to finish (simulator-internal). Serialized
/// into checkpoints so a recovered daemon finishes replayed jobs on the
/// original schedule.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct RunPlan {
    end: Timestamp,
    final_state: JobState,
    exit_code: (i32, i32),
}

/// A finished job handed to accounting, plus the log lines it "wrote".
/// The job is shared (`Arc`): accounting and the log writer take refcount
/// bumps, not copies.
#[derive(Debug, Clone)]
pub struct FinishedJob {
    pub job: Arc<Job>,
    pub stdout_lines: Vec<String>,
    pub stderr_lines: Vec<String>,
}

/// The live cluster: what slurmctld holds in memory.
#[derive(Debug)]
pub struct ClusterState {
    pub name: String,
    pub nodes: BTreeMap<String, Node>,
    pub partitions: BTreeMap<String, Partition>,
    pub qos: BTreeMap<String, Qos>,
    pub assoc: AssocStore,
    /// Active (pending/running/suspended) jobs. Stored as `Arc<Job>` so
    /// snapshot publication shares rows with readers; mutations go through
    /// `Arc::make_mut` (copy-on-write when a snapshot still holds the row).
    jobs: BTreeMap<JobId, Arc<Job>>,
    run_plans: HashMap<JobId, RunPlan>,
    next_id: u32,
    weights: PriorityWeights,
    /// Finished jobs waiting to be drained into slurmdbd.
    finished: VecDeque<FinishedJob>,
    /// Ring buffer of scheduler log lines (diagnostics).
    sched_log: VecDeque<String>,
    /// Monotonically increasing count of completed scheduling passes.
    pub sched_passes: u64,
    /// Job state transitions, for the real-time-updates feed.
    events: Arc<EventLog>,
}

impl ClusterState {
    pub fn new(spec: ClusterSpec) -> ClusterState {
        let mut nodes = BTreeMap::new();
        for mut n in spec.nodes {
            // Derive partition membership from the partition definitions.
            n.partitions = spec
                .partitions
                .iter()
                .filter(|p| p.nodes.contains(&n.name))
                .map(|p| p.name.clone())
                .collect();
            nodes.insert(n.name.clone(), n);
        }
        ClusterState {
            name: spec.name,
            nodes,
            partitions: spec
                .partitions
                .into_iter()
                .map(|p| (p.name.clone(), p))
                .collect(),
            qos: spec.qos.into_iter().map(|q| (q.name.clone(), q)).collect(),
            assoc: spec.assoc,
            jobs: BTreeMap::new(),
            run_plans: HashMap::new(),
            next_id: 1_000,
            weights: PriorityWeights::default(),
            finished: VecDeque::new(),
            sched_log: VecDeque::new(),
            sched_passes: 0,
            events: Arc::new(EventLog::default()),
        }
    }

    /// The shared event log (job state transitions).
    pub fn events(&self) -> Arc<EventLog> {
        self.events.clone()
    }

    /// Submit a job (or a whole array). Returns the created job ids.
    pub fn submit(&mut self, req: JobRequest, now: Timestamp) -> Result<Vec<JobId>, ClusterError> {
        self.validate(&req)?;
        let task_specs: Vec<Option<(u32, Option<u32>)>> = match &req.array {
            None => vec![None],
            Some(spec) => {
                if spec.last < spec.first {
                    return Err(ClusterError::InvalidRequest(
                        "array last index before first".to_string(),
                    ));
                }
                (spec.first..=spec.last)
                    .map(|t| Some((t, spec.max_concurrent)))
                    .collect()
            }
        };

        let array_job_id = JobId(self.next_id);
        let mut ids = Vec::with_capacity(task_specs.len());
        for task in task_specs {
            let id = JobId(self.next_id);
            self.next_id += 1;
            let array = task.map(|(task_id, max_concurrent)| ArrayMeta {
                array_job_id,
                task_id,
                max_concurrent,
            });
            let stdout_path = format!("{}/slurm-{}.out", req.work_dir, id);
            let stderr_path = format!("{}/slurm-{}.err", req.work_dir, id);
            let job = Job {
                id,
                array,
                req: req.clone(),
                state: JobState::Pending,
                reason: initial_reason(&req, now),
                priority: 0,
                submit_time: now,
                eligible_time: req.begin_time.filter(|b| *b > now).unwrap_or(now),
                start_time: None,
                end_time: None,
                nodes: Vec::new(),
                exit_code: None,
                stats: None,
                stdout_path,
                stderr_path,
            };
            self.assoc.note_queued(&req.account, job.alloc_cpus());
            self.events.push(
                now,
                id,
                &req.user,
                &req.account,
                None,
                JobState::Pending,
                job.reason,
            );
            self.jobs.insert(id, Arc::new(job));
            ids.push(id);
        }
        Ok(ids)
    }

    fn validate(&self, req: &JobRequest) -> Result<(), ClusterError> {
        if !self.partitions.contains_key(&req.partition) {
            return Err(ClusterError::UnknownPartition(req.partition.clone()));
        }
        if self.assoc.account(&req.account).is_none() {
            return Err(ClusterError::UnknownAccount(req.account.clone()));
        }
        if !self.assoc.is_member(&req.account, &req.user) {
            return Err(ClusterError::NotAccountMember {
                user: req.user.clone(),
                account: req.account.clone(),
            });
        }
        let Some(qos) = self.qos.get(&req.qos) else {
            return Err(ClusterError::UnknownQos(req.qos.clone()));
        };
        if req.nodes == 0 || req.cpus_per_node == 0 {
            return Err(ClusterError::InvalidRequest(
                "jobs must request at least one node and one CPU".to_string(),
            ));
        }
        if let Some(cap) = qos.max_submit_per_user {
            let submitted = self
                .jobs
                .values()
                .filter(|j| j.req.user == req.user && j.req.qos == req.qos)
                .count() as u32;
            let adding = req.array.map(|a| a.task_count()).unwrap_or(1);
            if submitted + adding > cap {
                return Err(ClusterError::QosSubmitLimit {
                    qos: req.qos.clone(),
                    cap,
                });
            }
        }
        Ok(())
    }

    /// Cancel a job. Only the owner (or an operator acting as `root`) may.
    pub fn cancel(&mut self, id: JobId, user: &str, now: Timestamp) -> Result<(), ClusterError> {
        let job = self.jobs.get(&id).ok_or(ClusterError::UnknownJob(id))?;
        if job.req.user != user && user != "root" {
            return Err(ClusterError::PermissionDenied(format!(
                "job {id} belongs to {}",
                job.req.user
            )));
        }
        let mut job = self.jobs.remove(&id).expect("checked above");
        match job.state {
            JobState::Pending => {
                self.assoc.note_dequeued(&job.req.account, job.alloc_cpus());
            }
            JobState::Running | JobState::Suspended => {
                self.release_job_nodes(&job, now);
                let elapsed = job.elapsed_secs(now);
                let factor = self.usage_factor(&job.req.qos);
                let total = job.req.total_tres();
                self.assoc.note_end(
                    &job.req.account,
                    &job.req.user,
                    total.cpus,
                    total.gpus,
                    elapsed,
                    factor,
                );
                self.run_plans.remove(&id);
            }
            _ => {}
        }
        let prior_state = job.state;
        {
            let j = Arc::make_mut(&mut job);
            j.state = JobState::Cancelled;
            j.end_time = Some(now);
            j.reason = None;
            j.exit_code = Some((0, 15));
            if j.start_time.is_some() {
                j.stats = Some(final_stats(j, now));
            }
        }
        self.events.push(
            now,
            id,
            &job.req.user,
            &job.req.account,
            Some(prior_state),
            JobState::Cancelled,
            None,
        );
        self.finish(job, now, Some("CANCELLED"));
        Ok(())
    }

    /// Hold a pending job (used by admin tooling and tests).
    pub fn hold(&mut self, id: JobId, by_admin: bool) -> Result<(), ClusterError> {
        let job = self.jobs.get_mut(&id).ok_or(ClusterError::UnknownJob(id))?;
        if job.state == JobState::Pending {
            Arc::make_mut(job).reason = Some(if by_admin {
                PendingReason::JobHeldAdmin
            } else {
                PendingReason::JobHeldUser
            });
        }
        Ok(())
    }

    /// Release a held job so the scheduler considers it again.
    pub fn release(&mut self, id: JobId) -> Result<(), ClusterError> {
        let job = self.jobs.get_mut(&id).ok_or(ClusterError::UnknownJob(id))?;
        if job.state == JobState::Pending
            && matches!(
                job.reason,
                Some(PendingReason::JobHeldUser) | Some(PendingReason::JobHeldAdmin)
            )
        {
            Arc::make_mut(job).reason = Some(PendingReason::Priority);
        }
        Ok(())
    }

    /// Advance the cluster to `now`: complete due jobs, refresh eligibility,
    /// run a scheduling pass, and refresh node load signals.
    pub fn tick(&mut self, now: Timestamp) {
        self.complete_due_jobs(now);
        self.refresh_eligibility(now);
        self.schedule_pass(now);
        self.refresh_node_loads(now);
        self.sched_passes += 1;
    }

    fn complete_due_jobs(&mut self, now: Timestamp) {
        let mut due: Vec<(Timestamp, JobId)> = self
            .run_plans
            .iter()
            .filter(|(_, plan)| plan.end <= now)
            .map(|(id, plan)| (plan.end, *id))
            .collect();
        // `run_plans` is a `HashMap`: without this, the jobs that finish in
        // one tick would push their events, release their nodes and enter
        // the `finished` queue in a different order in every process.
        due.sort_unstable();
        for (_, id) in due {
            let plan = self.run_plans.remove(&id).expect("listed above");
            let Some(mut job) = self.jobs.remove(&id) else {
                continue;
            };
            self.release_job_nodes(&job, plan.end);
            {
                let j = Arc::make_mut(&mut job);
                j.state = plan.final_state;
                j.end_time = Some(plan.end);
                j.exit_code = Some(plan.exit_code);
                j.reason = None;
                j.stats = Some(final_stats(j, plan.end));
            }
            self.events.push(
                plan.end,
                id,
                &job.req.user,
                &job.req.account,
                Some(JobState::Running),
                plan.final_state,
                None,
            );
            let elapsed = job.elapsed_secs(plan.end);
            let factor = self.usage_factor(&job.req.qos);
            let total = job.req.total_tres();
            self.assoc.note_end(
                &job.req.account,
                &job.req.user,
                total.cpus,
                total.gpus,
                elapsed,
                factor,
            );
            self.finish(job, now, None);
        }
    }

    fn refresh_eligibility(&mut self, now: Timestamp) {
        let dep_states: HashMap<JobId, Option<JobState>> = self
            .jobs
            .values()
            .filter_map(|j| j.req.dependency)
            .map(|dep| (dep, self.jobs.get(&dep).map(|d| d.state)))
            .collect();

        for job in self.jobs.values_mut() {
            if job.state != JobState::Pending {
                continue;
            }
            // Holds stick until explicitly released.
            if matches!(
                job.reason,
                Some(PendingReason::JobHeldUser) | Some(PendingReason::JobHeldAdmin)
            ) {
                continue;
            }
            if let Some(begin) = job.req.begin_time {
                if begin > now {
                    if job.reason != Some(PendingReason::BeginTime) {
                        Arc::make_mut(job).reason = Some(PendingReason::BeginTime);
                    }
                    continue;
                } else if job.reason == Some(PendingReason::BeginTime) {
                    Arc::make_mut(job).reason = Some(PendingReason::Priority);
                }
            }
            if let Some(dep) = job.req.dependency {
                match dep_states.get(&dep).copied().flatten() {
                    // Dependency still active in the queue.
                    Some(s) if s.is_active() => {
                        if job.reason != Some(PendingReason::Dependency) {
                            Arc::make_mut(job).reason = Some(PendingReason::Dependency);
                        }
                        continue;
                    }
                    // Dependency left the active set: it finished, so the
                    // job is released (the simulator treats every finished
                    // dependency as satisfied).
                    _ => {
                        if job.reason == Some(PendingReason::Dependency) {
                            Arc::make_mut(job).reason = Some(PendingReason::Priority);
                        }
                    }
                }
            }
        }
    }

    fn schedule_pass(&mut self, now: Timestamp) {
        // Compute priorities for pending jobs.
        let mut pending_ids: Vec<JobId> = Vec::new();
        let priorities: HashMap<JobId, u64> = self
            .jobs
            .values()
            .filter(|j| j.state == JobState::Pending)
            .map(|j| {
                let p = sched::compute_priority(
                    j,
                    now,
                    &self.assoc,
                    self.qos.get(&j.req.qos),
                    self.partitions.get(&j.req.partition),
                    &self.weights,
                );
                (j.id, p)
            })
            .collect();
        for (id, p) in &priorities {
            if let Some(j) = self.jobs.get_mut(id) {
                if j.priority != *p {
                    Arc::make_mut(j).priority = *p;
                }
            }
        }

        // Eligible = pending, not held, not waiting on begin-time/dependency.
        for job in self.jobs.values() {
            if job.state != JobState::Pending {
                continue;
            }
            if matches!(
                job.reason,
                Some(PendingReason::JobHeldUser)
                    | Some(PendingReason::JobHeldAdmin)
                    | Some(PendingReason::BeginTime)
                    | Some(PendingReason::Dependency)
            ) {
                continue;
            }
            pending_ids.push(job.id);
        }
        pending_ids.sort_by_key(|id| {
            let j = &self.jobs[id];
            (std::cmp::Reverse(j.priority), j.submit_time, *id)
        });

        let running_info: Vec<RunningJobInfo> = self
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .map(|j| RunningJobInfo {
                nodes: j.nodes.clone(),
                per_node: j.req.per_node_tres(),
                expected_end: match j.req.time_limit {
                    TimeLimit::Limited(secs) => {
                        Timestamp(j.start_time.unwrap_or(now).as_secs() + secs)
                    }
                    TimeLimit::Unlimited => Timestamp(u64::MAX),
                },
            })
            .collect();

        let mut run_counts: HashMap<(String, String), u32> = HashMap::new();
        let mut array_running: HashMap<JobId, u32> = HashMap::new();
        for j in self.jobs.values().filter(|j| j.state == JobState::Running) {
            *run_counts
                .entry((j.req.user.clone(), j.req.qos.clone()))
                .or_insert(0) += 1;
            if let Some(a) = &j.array {
                *array_running.entry(a.array_job_id).or_insert(0) += 1;
            }
        }

        let pending_jobs: Vec<&Job> = pending_ids.iter().map(|id| &*self.jobs[id]).collect();
        let plan = sched::plan_schedule(PlanInputs {
            nodes: &self.nodes,
            partitions: &self.partitions,
            qos: &self.qos,
            assoc: &self.assoc,
            running: &running_info,
            pending: &pending_jobs,
            run_counts: &run_counts,
            array_running: &array_running,
            now,
        });

        for decision in plan.decisions {
            match decision {
                ScheduleDecision::Start {
                    job: id,
                    nodes,
                    backfilled,
                } => {
                    self.start_job(id, nodes, now);
                    if backfilled {
                        self.log_sched(format!("backfilled job {id} at {now}"));
                    }
                }
                ScheduleDecision::Pend { job: id, reason } => {
                    if let Some(j) = self.jobs.get_mut(&id) {
                        if j.reason != Some(reason) {
                            Arc::make_mut(j).reason = Some(reason);
                        }
                    }
                }
            }
        }
    }

    fn start_job(&mut self, id: JobId, node_names: Vec<String>, now: Timestamp) {
        let per_node = {
            let job = self.jobs.get(&id).expect("plan references live job");
            job.req.per_node_tres()
        };
        for name in &node_names {
            self.nodes
                .get_mut(name)
                .expect("plan chose known node")
                .allocate(per_node, now);
        }
        let (account, cpus, plan) = {
            let arc = self.jobs.get_mut(&id).expect("plan references live job");
            let job = Arc::make_mut(arc);
            job.state = JobState::Running;
            job.reason = None;
            job.start_time = Some(now);
            job.nodes = node_names;
            let plan = run_plan(job, now);
            (job.req.account.clone(), job.alloc_cpus(), plan)
        };
        {
            let job = &self.jobs[&id];
            self.events.push(
                now,
                id,
                &job.req.user,
                &job.req.account,
                Some(JobState::Pending),
                JobState::Running,
                None,
            );
        }
        self.assoc.note_dequeued(&account, cpus);
        self.assoc.note_start(&account, cpus);
        self.run_plans.insert(id, plan);
    }

    fn release_job_nodes(&mut self, job: &Job, now: Timestamp) {
        let per_node = job.req.per_node_tres();
        for name in &job.nodes {
            if let Some(n) = self.nodes.get_mut(name) {
                n.release(per_node, now);
            }
        }
    }

    fn usage_factor(&self, qos: &str) -> f64 {
        self.qos.get(qos).map(|q| q.usage_factor).unwrap_or(1.0)
    }

    fn finish(&mut self, job: Arc<Job>, _now: Timestamp, note: Option<&str>) {
        let (stdout_lines, stderr_lines) = synth_log_lines(&job, note);
        self.finished.push_back(FinishedJob {
            job,
            stdout_lines,
            stderr_lines,
        });
    }

    fn refresh_node_loads(&mut self, _now: Timestamp) {
        for node in self.nodes.values_mut() {
            // Load tracks allocation with a deterministic wobble so the
            // Cluster Status load columns are not perfectly flat.
            let base = node.alloc.cpus as f64;
            let wobble = (node.name.len() % 3) as f64 * 0.17;
            node.cpu_load = (base * 0.95 + wobble).max(0.0);
        }
    }

    fn log_sched(&mut self, line: String) {
        if self.sched_log.len() >= 512 {
            self.sched_log.pop_front();
        }
        self.sched_log.push_back(line);
    }

    // ---- read API used by the daemons -------------------------------------

    /// Active jobs (pending/running/suspended), id order.
    pub fn active_jobs(&self) -> impl Iterator<Item = &Arc<Job>> {
        self.jobs.values()
    }

    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id).map(|a| a.as_ref())
    }

    pub fn node(&self, name: &str) -> Option<&Node> {
        self.nodes.get(name)
    }

    pub fn partition(&self, name: &str) -> Option<&Partition> {
        self.partitions.get(name)
    }

    /// Drain finished jobs (the ctld pushes these into slurmdbd + job logs).
    pub fn drain_finished(&mut self) -> Vec<FinishedJob> {
        self.finished.drain(..).collect()
    }

    pub fn sched_log(&self) -> impl Iterator<Item = &String> {
        self.sched_log.iter()
    }

    /// Mutable node access for admin actions (drain/down in tests, fault
    /// injection in benches).
    pub fn node_mut(&mut self, name: &str) -> Option<&mut Node> {
        self.nodes.get_mut(name)
    }

    pub fn partition_mut(&mut self, name: &str) -> Option<&mut Partition> {
        self.partitions.get_mut(name)
    }

    /// Association records in `AssocStore::accounts()` order, optionally
    /// restricted to the accounts `user` belongs to.
    pub fn assoc_records(&self, user: Option<&str>) -> Vec<crate::ctld::AssocRecord> {
        self.assoc
            .accounts()
            .filter(|a| match user {
                Some(u) => self.assoc.is_member(&a.name, u),
                None => true,
            })
            .map(|a| crate::ctld::AssocRecord {
                account: a.clone(),
                usage: self.assoc.usage(&a.name).cloned().unwrap_or_default(),
                members: self.assoc.users_of_account(&a.name).to_vec(),
            })
            .collect()
    }

    /// Materialize an immutable snapshot of the whole cluster for epoch
    /// publication. Jobs are shared (`Arc` clones); nodes/partitions/assoc
    /// rows are copied once per publication instead of once per read RPC.
    pub fn capture_snapshot(&self, seq: u64, now: Timestamp) -> crate::snapshot::ClusterSnapshot {
        crate::snapshot::ClusterSnapshot::build(
            seq,
            now,
            Arc::from(self.name.as_str()),
            self.jobs.values().cloned().collect(),
            self.nodes.values().cloned().collect(),
            self.partitions.values().cloned().collect(),
            self.assoc_records(None),
        )
    }

    /// Capture the durable image of this cluster: everything a restarted
    /// slurmctld needs to resume scheduling where the checkpoint left off.
    /// Deliberately excluded (and therefore lost on crash): the undrained
    /// `finished` queue (re-derived by replay, and slurmdbd archival is
    /// idempotent) and the `sched_log` diagnostics ring.
    pub fn checkpoint(&self) -> CheckpointState {
        let mut run_plans: Vec<(JobId, RunPlan)> =
            self.run_plans.iter().map(|(id, p)| (*id, *p)).collect();
        // HashMap iteration order is unstable; sort so identical states
        // checkpoint to identical bytes.
        run_plans.sort_by_key(|(id, _)| *id);
        CheckpointState {
            name: self.name.clone(),
            nodes: self.nodes.clone(),
            partitions: self.partitions.clone(),
            qos: self.qos.clone(),
            assoc: self.assoc.clone(),
            jobs: self.jobs.values().map(|j| Job::clone(j)).collect(),
            run_plans,
            next_id: self.next_id,
            sched_passes: self.sched_passes,
        }
    }

    /// Rebuild live state from a checkpoint. The event log is supplied by
    /// the caller: it survives the crash (clients hold cursors into it), so
    /// recovery must NOT start a fresh one.
    pub fn from_checkpoint(cp: CheckpointState, events: Arc<EventLog>) -> ClusterState {
        ClusterState {
            name: cp.name,
            nodes: cp.nodes,
            partitions: cp.partitions,
            qos: cp.qos,
            assoc: cp.assoc,
            jobs: cp.jobs.into_iter().map(|j| (j.id, Arc::new(j))).collect(),
            run_plans: cp.run_plans.into_iter().collect(),
            next_id: cp.next_id,
            weights: PriorityWeights::default(),
            finished: VecDeque::new(),
            sched_log: VecDeque::new(),
            sched_passes: cp.sched_passes,
            events,
        }
    }
}

/// The serializable image of a [`ClusterState`] — what a checkpoint writes
/// and crash recovery reads back. Fields are private: the only producers
/// and consumers are [`ClusterState::checkpoint`] /
/// [`ClusterState::from_checkpoint`] and the serde boundary between them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointState {
    name: String,
    nodes: BTreeMap<String, Node>,
    partitions: BTreeMap<String, Partition>,
    qos: BTreeMap<String, Qos>,
    assoc: AssocStore,
    jobs: Vec<Job>,
    run_plans: Vec<(JobId, RunPlan)>,
    next_id: u32,
    sched_passes: u64,
}

fn initial_reason(req: &JobRequest, now: Timestamp) -> Option<PendingReason> {
    if let Some(begin) = req.begin_time {
        if begin > now {
            return Some(PendingReason::BeginTime);
        }
    }
    if req.dependency.is_some() {
        return Some(PendingReason::Dependency);
    }
    Some(PendingReason::Priority)
}

/// Decide, at start time, when and how the job will end.
fn run_plan(job: &Job, start: Timestamp) -> RunPlan {
    let limit = job.req.time_limit.as_secs().unwrap_or(u64::MAX);
    let planned = job.req.usage.planned_runtime_secs.max(1);
    let (elapsed, final_state, exit_code) = match job.req.usage.outcome {
        PlannedOutcome::Success if planned > limit => (limit, JobState::Timeout, (0, 15)),
        PlannedOutcome::Success => (planned, JobState::Completed, (0, 0)),
        PlannedOutcome::Fail { .. } if planned > limit => (limit, JobState::Timeout, (0, 15)),
        PlannedOutcome::Fail { exit_code } => (planned, JobState::Failed, (exit_code, 0)),
        PlannedOutcome::OutOfMemory => (
            (planned.min(limit) * 7 / 10).max(1),
            JobState::OutOfMemory,
            (0, 9),
        ),
        PlannedOutcome::RunsOverLimit => (limit, JobState::Timeout, (0, 15)),
        PlannedOutcome::CancelledMidway => (
            (planned.min(limit) / 2).max(1),
            JobState::Cancelled,
            (0, 15),
        ),
    };
    RunPlan {
        end: start.plus(elapsed),
        final_state,
        exit_code,
    }
}

/// Final accounting stats derived from the job's usage profile.
fn final_stats(job: &Job, end: Timestamp) -> JobStats {
    let elapsed = job.elapsed_secs(end);
    let total_cpu = (job.alloc_cpus() as f64 * elapsed as f64 * job.req.usage.cpu_util) as u64;
    let max_rss = (job.req.mem_mb_per_node as f64 * job.req.usage.mem_util) as u64;
    JobStats {
        total_cpu_secs: total_cpu,
        max_rss_mb: max_rss,
    }
}

/// Plausible log lines for the output/error tabs.
fn synth_log_lines(job: &Job, note: Option<&str>) -> (Vec<String>, Vec<String>) {
    let mut out = vec![format!(
        "=== job {} ({}) starting on {} ===",
        job.id,
        job.req.name,
        job.nodes.join(",")
    )];
    let steps = (job.elapsed_secs(job.end_time.unwrap_or(job.submit_time)) / 60).min(200);
    for i in 0..steps {
        out.push(format!("step {i}: processed batch {i} ok"));
    }
    if let Some(n) = note {
        out.push(format!("*** {n} ***"));
    }
    let mut err = Vec::new();
    match job.state {
        JobState::Failed => {
            err.push("Traceback (most recent call last):".to_string());
            err.push(format!(
                "RuntimeError: task failed with exit code {}",
                job.exit_code.map(|(c, _)| c).unwrap_or(1)
            ));
        }
        JobState::OutOfMemory => {
            err.push(format!(
                "slurmstepd: error: Detected 1 oom_kill event in StepId={}.0",
                job.id
            ));
        }
        JobState::Timeout => {
            err.push(format!(
                "slurmstepd: error: *** JOB {} ON {} CANCELLED DUE TO TIME LIMIT ***",
                job.id,
                job.nodes.first().cloned().unwrap_or_default()
            ));
        }
        _ => {}
    }
    (out, err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::Account;
    use crate::job::{ArraySpec, UsageProfile};

    pub(crate) fn small_spec() -> ClusterSpec {
        let mut assoc = AssocStore::new();
        assoc.add_account(Account::new("physics").with_cpu_limit(64));
        assoc.add_user("physics", "alice");
        assoc.add_user("physics", "bob");
        assoc.add_account(Account::new("bio"));
        assoc.add_user("bio", "carol");
        let nodes: Vec<Node> = (1..=4)
            .map(|i| Node::new(format!("a{i:03}"), 16, 64_000, 0))
            .collect();
        let node_names: Vec<String> = nodes.iter().map(|n| n.name.clone()).collect();
        ClusterSpec {
            name: "testcluster".to_string(),
            nodes,
            partitions: vec![Partition::new("cpu")
                .with_nodes(node_names)
                .default_partition()],
            qos: Qos::standard_set(),
            assoc,
        }
    }

    fn req(user: &str, account: &str, cpus: u32, runtime: u64) -> JobRequest {
        let mut r = JobRequest::simple(user, account, "cpu", cpus);
        r.mem_mb_per_node = 1_000;
        r.usage = UsageProfile::batch(runtime);
        r
    }

    #[test]
    fn submit_validates() {
        let mut c = ClusterState::new(small_spec());
        let now = Timestamp(0);
        assert!(matches!(
            c.submit(req("alice", "nope", 1, 60), now),
            Err(ClusterError::UnknownAccount(_))
        ));
        assert!(matches!(
            c.submit(req("carol", "physics", 1, 60), now),
            Err(ClusterError::NotAccountMember { .. })
        ));
        let mut bad_part = req("alice", "physics", 1, 60);
        bad_part.partition = "gpu".to_string();
        assert!(matches!(
            c.submit(bad_part, now),
            Err(ClusterError::UnknownPartition(_))
        ));
        let mut bad_qos = req("alice", "physics", 1, 60);
        bad_qos.qos = "vip".to_string();
        assert!(matches!(
            c.submit(bad_qos, now),
            Err(ClusterError::UnknownQos(_))
        ));
        let mut zero = req("alice", "physics", 1, 60);
        zero.cpus_per_node = 0;
        assert!(matches!(
            c.submit(zero, now),
            Err(ClusterError::InvalidRequest(_))
        ));
    }

    #[test]
    fn job_lifecycle_completes() {
        let mut c = ClusterState::new(small_spec());
        let ids = c
            .submit(req("alice", "physics", 8, 600), Timestamp(0))
            .unwrap();
        assert_eq!(ids.len(), 1);
        c.tick(Timestamp(1));
        let j = c.job(ids[0]).unwrap();
        assert_eq!(j.state, JobState::Running);
        assert_eq!(j.nodes.len(), 1);
        assert_eq!(c.assoc.usage("physics").unwrap().cpus_running, 8);

        // Not done yet.
        c.tick(Timestamp(300));
        assert_eq!(c.job(ids[0]).unwrap().state, JobState::Running);

        // Done after 600s of runtime (started at t=1).
        c.tick(Timestamp(601));
        assert!(c.job(ids[0]).is_none(), "job left the active set");
        let finished = c.drain_finished();
        assert_eq!(finished.len(), 1);
        let fj = &finished[0].job;
        assert_eq!(fj.state, JobState::Completed);
        assert_eq!(fj.exit_code, Some((0, 0)));
        assert_eq!(fj.start_time, Some(Timestamp(1)));
        assert_eq!(fj.end_time, Some(Timestamp(601)));
        let stats = fj.stats.unwrap();
        assert!(stats.total_cpu_secs > 0);
        assert_eq!(c.assoc.usage("physics").unwrap().cpus_running, 0);
        // All nodes idle again.
        assert!(c.nodes.values().all(|n| n.alloc.cpus == 0));
    }

    #[test]
    fn queue_fills_then_drains() {
        let mut c = ClusterState::new(small_spec());
        // physics capped at 64 CPUs = exactly the cluster. Submit 6x16.
        let mut ids = Vec::new();
        for _ in 0..6 {
            ids.extend(
                c.submit(req("alice", "physics", 16, 1_000), Timestamp(0))
                    .unwrap(),
            );
        }
        c.tick(Timestamp(1));
        let running = ids
            .iter()
            .filter(|id| c.job(**id).map(|j| j.state) == Some(JobState::Running))
            .count();
        assert_eq!(running, 4, "cluster fits 4x16 cpus");
        let pending: Vec<_> = ids
            .iter()
            .filter(|id| c.job(**id).map(|j| j.state) == Some(JobState::Pending))
            .collect();
        assert_eq!(pending.len(), 2);
        // The GrpCPU cap (64) is also exactly full, so pending jobs show the
        // association limit reason.
        let j = c.job(*pending[0]).unwrap();
        assert_eq!(j.reason, Some(PendingReason::AssocGrpCpuLimit));

        // After completion everything eventually runs.
        c.tick(Timestamp(1_002));
        let still_running = ids
            .iter()
            .filter(|id| c.job(**id).map(|j| j.state) == Some(JobState::Running))
            .count();
        assert_eq!(still_running, 2);
    }

    #[test]
    fn timeout_and_failures() {
        let mut c = ClusterState::new(small_spec());
        let mut r = req("alice", "physics", 1, 100);
        r.time_limit = TimeLimit::Limited(50);
        let id_timeout = c.submit(r, Timestamp(0)).unwrap()[0];

        let mut r = req("alice", "physics", 1, 100);
        r.usage.outcome = PlannedOutcome::Fail { exit_code: 2 };
        let id_fail = c.submit(r, Timestamp(0)).unwrap()[0];

        let mut r = req("alice", "physics", 1, 100);
        r.usage.outcome = PlannedOutcome::OutOfMemory;
        let id_oom = c.submit(r, Timestamp(0)).unwrap()[0];

        c.tick(Timestamp(1));
        c.tick(Timestamp(200));
        let finished = c.drain_finished();
        let by_id: HashMap<JobId, &FinishedJob> = finished.iter().map(|f| (f.job.id, f)).collect();
        assert_eq!(by_id[&id_timeout].job.state, JobState::Timeout);
        assert_eq!(by_id[&id_fail].job.state, JobState::Failed);
        assert_eq!(by_id[&id_fail].job.exit_code, Some((2, 0)));
        assert_eq!(by_id[&id_oom].job.state, JobState::OutOfMemory);
        assert!(!by_id[&id_oom].stderr_lines.is_empty());
    }

    #[test]
    fn cancel_pending_and_running() {
        let mut c = ClusterState::new(small_spec());
        let a = c
            .submit(req("alice", "physics", 4, 600), Timestamp(0))
            .unwrap()[0];
        let b = c
            .submit(req("alice", "physics", 4, 600), Timestamp(0))
            .unwrap()[0];
        // Cancel `a` while pending.
        c.cancel(a, "alice", Timestamp(0)).unwrap();
        assert!(c.job(a).is_none());
        c.tick(Timestamp(1));
        assert_eq!(c.job(b).unwrap().state, JobState::Running);
        // Bob cannot cancel alice's job.
        assert!(matches!(
            c.cancel(b, "bob", Timestamp(2)),
            Err(ClusterError::PermissionDenied(_))
        ));
        c.cancel(b, "alice", Timestamp(10)).unwrap();
        let finished = c.drain_finished();
        assert_eq!(finished.len(), 2);
        assert!(finished.iter().all(|f| f.job.state == JobState::Cancelled));
        assert!(
            c.nodes.values().all(|n| n.alloc.cpus == 0),
            "cancelled running job released nodes"
        );
        assert_eq!(c.assoc.usage("physics").unwrap().cpus_running, 0);
    }

    #[test]
    fn dependency_waits_for_parent() {
        let mut c = ClusterState::new(small_spec());
        let parent = c
            .submit(req("alice", "physics", 1, 100), Timestamp(0))
            .unwrap()[0];
        let mut r = req("alice", "physics", 1, 100);
        r.dependency = Some(parent);
        let child = c.submit(r, Timestamp(0)).unwrap()[0];
        c.tick(Timestamp(1));
        assert_eq!(c.job(parent).unwrap().state, JobState::Running);
        assert_eq!(c.job(child).unwrap().state, JobState::Pending);
        assert_eq!(
            c.job(child).unwrap().reason,
            Some(PendingReason::Dependency)
        );
        // Parent completes; child becomes eligible and runs.
        c.tick(Timestamp(102));
        assert_eq!(c.job(child).unwrap().state, JobState::Running);
    }

    #[test]
    fn begin_time_respected() {
        let mut c = ClusterState::new(small_spec());
        let mut r = req("alice", "physics", 1, 100);
        r.begin_time = Some(Timestamp(500));
        let id = c.submit(r, Timestamp(0)).unwrap()[0];
        c.tick(Timestamp(1));
        let j = c.job(id).unwrap();
        assert_eq!(j.state, JobState::Pending);
        assert_eq!(j.reason, Some(PendingReason::BeginTime));
        c.tick(Timestamp(501));
        assert_eq!(c.job(id).unwrap().state, JobState::Running);
    }

    #[test]
    fn array_expansion_and_throttle() {
        let mut c = ClusterState::new(small_spec());
        let mut r = req("alice", "physics", 1, 1_000);
        r.array = Some(ArraySpec {
            first: 0,
            last: 5,
            max_concurrent: Some(2),
        });
        let ids = c.submit(r, Timestamp(0)).unwrap();
        assert_eq!(ids.len(), 6);
        c.tick(Timestamp(1));
        let running = ids
            .iter()
            .filter(|id| c.job(**id).map(|j| j.state) == Some(JobState::Running))
            .count();
        assert_eq!(running, 2, "array throttled to 2 concurrent tasks");
        let throttled = ids
            .iter()
            .filter(|id| {
                c.job(**id).map(|j| j.reason) == Some(Some(PendingReason::JobArrayTaskLimit))
            })
            .count();
        assert_eq!(throttled, 4);
        // Display ids include the task index.
        let j = c.job(ids[3]).unwrap();
        assert_eq!(j.display_id(), format!("{}_{}", ids[0], 3));
    }

    #[test]
    fn qos_submit_cap_rejects() {
        let mut c = ClusterState::new(small_spec());
        let mut r = req("alice", "physics", 1, 100);
        r.qos = "standby".to_string();
        // standby has max 4 running; give it a submit cap via custom qos.
        c.qos.get_mut("standby").unwrap().max_submit_per_user = Some(2);
        assert!(c.submit(r.clone(), Timestamp(0)).is_ok());
        assert!(c.submit(r.clone(), Timestamp(0)).is_ok());
        assert!(matches!(
            c.submit(r, Timestamp(0)),
            Err(ClusterError::QosSubmitLimit { .. })
        ));
    }

    #[test]
    fn hold_keeps_job_pending() {
        let mut c = ClusterState::new(small_spec());
        let id = c
            .submit(req("alice", "physics", 1, 100), Timestamp(0))
            .unwrap()[0];
        c.hold(id, true).unwrap();
        c.tick(Timestamp(1));
        let j = c.job(id).unwrap();
        assert_eq!(j.state, JobState::Pending);
        assert_eq!(j.reason, Some(PendingReason::JobHeldAdmin));
    }

    #[test]
    fn drained_node_not_used() {
        let mut c = ClusterState::new(small_spec());
        for name in ["a001", "a002", "a003"] {
            c.node_mut(name).unwrap().admin_flag = crate::node::AdminFlag::Drain;
        }
        let ids: Vec<_> = (0..2)
            .flat_map(|_| {
                c.submit(req("alice", "physics", 16, 100), Timestamp(0))
                    .unwrap()
            })
            .collect();
        c.tick(Timestamp(1));
        let running: Vec<_> = ids
            .iter()
            .filter(|id| c.job(**id).map(|j| j.state) == Some(JobState::Running))
            .collect();
        assert_eq!(running.len(), 1, "only a004 is schedulable");
        assert_eq!(c.job(*running[0]).unwrap().nodes, vec!["a004".to_string()]);
    }
}
