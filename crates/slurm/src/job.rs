//! Jobs: requests, lifecycle state, pending reasons, arrays, and usage stats.

use crate::tres::Tres;
use hpcdash_simtime::{write_num, TimeLimit, Timestamp};
use serde::{Deserialize, Serialize};

/// A cluster-unique job id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Job lifecycle states. The dashboard's My Jobs app deliberately shows all
/// of them, not just queued/running (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum JobState {
    Pending,
    Running,
    Suspended,
    Completed,
    Failed,
    Cancelled,
    Timeout,
    NodeFail,
    OutOfMemory,
    Preempted,
}

impl JobState {
    pub fn to_slurm(self) -> &'static str {
        match self {
            JobState::Pending => "PENDING",
            JobState::Running => "RUNNING",
            JobState::Suspended => "SUSPENDED",
            JobState::Completed => "COMPLETED",
            JobState::Failed => "FAILED",
            JobState::Cancelled => "CANCELLED",
            JobState::Timeout => "TIMEOUT",
            JobState::NodeFail => "NODE_FAIL",
            JobState::OutOfMemory => "OUT_OF_MEMORY",
            JobState::Preempted => "PREEMPTED",
        }
    }

    /// Short code used in `squeue`'s `ST` column.
    pub fn to_compact(self) -> &'static str {
        match self {
            JobState::Pending => "PD",
            JobState::Running => "R",
            JobState::Suspended => "S",
            JobState::Completed => "CD",
            JobState::Failed => "F",
            JobState::Cancelled => "CA",
            JobState::Timeout => "TO",
            JobState::NodeFail => "NF",
            JobState::OutOfMemory => "OOM",
            JobState::Preempted => "PR",
        }
    }

    pub fn parse(s: &str) -> Option<JobState> {
        // sacct renders cancelled-by-user as `CANCELLED by <uid>`.
        let s = s.split_whitespace().next()?;
        match s {
            "PENDING" | "PD" => Some(JobState::Pending),
            "RUNNING" | "R" => Some(JobState::Running),
            "SUSPENDED" | "S" => Some(JobState::Suspended),
            "COMPLETED" | "CD" => Some(JobState::Completed),
            "FAILED" | "F" => Some(JobState::Failed),
            "CANCELLED" | "CA" => Some(JobState::Cancelled),
            "TIMEOUT" | "TO" => Some(JobState::Timeout),
            "NODE_FAIL" | "NF" => Some(JobState::NodeFail),
            "OUT_OF_MEMORY" | "OOM" => Some(JobState::OutOfMemory),
            "PREEMPTED" | "PR" => Some(JobState::Preempted),
            _ => None,
        }
    }

    /// Still occupying or waiting for resources?
    pub fn is_active(self) -> bool {
        matches!(
            self,
            JobState::Pending | JobState::Running | JobState::Suspended
        )
    }

    /// Reached a terminal state?
    pub fn is_finished(self) -> bool {
        !self.is_active()
    }

    pub const ALL: [JobState; 10] = [
        JobState::Pending,
        JobState::Running,
        JobState::Suspended,
        JobState::Completed,
        JobState::Failed,
        JobState::Cancelled,
        JobState::Timeout,
        JobState::NodeFail,
        JobState::OutOfMemory,
        JobState::Preempted,
    ];
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.to_slurm())
    }
}

/// Why a pending job is pending — the codes the dashboard translates into
/// friendly messages (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PendingReason {
    /// Waiting behind higher-priority work.
    Priority,
    /// First in line, waiting for resources to free up.
    Resources,
    /// Waiting on a dependency job.
    Dependency,
    /// Requested start time has not arrived.
    BeginTime,
    /// Account hit its group CPU cap.
    AssocGrpCpuLimit,
    /// Account exhausted its GPU-minutes allocation.
    AssocGrpGresMinutes,
    /// User hit the QoS running-jobs cap.
    QosMaxJobsPerUser,
    /// User hit the QoS submitted-jobs cap.
    QosMaxSubmitJobPerUser,
    /// Target partition is down or drained.
    PartitionDown,
    /// Requested time limit exceeds the partition maximum.
    PartitionTimeLimit,
    /// Requested constraint/features match no schedulable node.
    BadConstraints,
    /// Requested node(s) unavailable (down/drained).
    ReqNodeNotAvail,
    /// Job array throttle (`--array=...%N`).
    JobArrayTaskLimit,
    /// Held by the user.
    JobHeldUser,
    /// Held by an administrator.
    JobHeldAdmin,
}

impl PendingReason {
    /// Slurm's reason token as shown by `squeue -o %r` / `scontrol`.
    pub fn to_slurm(self) -> &'static str {
        match self {
            PendingReason::Priority => "Priority",
            PendingReason::Resources => "Resources",
            PendingReason::Dependency => "Dependency",
            PendingReason::BeginTime => "BeginTime",
            PendingReason::AssocGrpCpuLimit => "AssocGrpCpuLimit",
            PendingReason::AssocGrpGresMinutes => "AssocGrpGRESMinutes",
            PendingReason::QosMaxJobsPerUser => "QOSMaxJobsPerUserLimit",
            PendingReason::QosMaxSubmitJobPerUser => "QOSMaxSubmitJobPerUserLimit",
            PendingReason::PartitionDown => "PartitionDown",
            PendingReason::PartitionTimeLimit => "PartitionTimeLimit",
            PendingReason::BadConstraints => "BadConstraints",
            PendingReason::ReqNodeNotAvail => "ReqNodeNotAvail",
            PendingReason::JobArrayTaskLimit => "JobArrayTaskLimit",
            PendingReason::JobHeldUser => "JobHeldUser",
            PendingReason::JobHeldAdmin => "JobHeldAdmin",
        }
    }

    pub fn parse(s: &str) -> Option<PendingReason> {
        match s {
            "Priority" => Some(PendingReason::Priority),
            "Resources" => Some(PendingReason::Resources),
            "Dependency" => Some(PendingReason::Dependency),
            "BeginTime" => Some(PendingReason::BeginTime),
            "AssocGrpCpuLimit" => Some(PendingReason::AssocGrpCpuLimit),
            "AssocGrpGRESMinutes" => Some(PendingReason::AssocGrpGresMinutes),
            "QOSMaxJobsPerUserLimit" => Some(PendingReason::QosMaxJobsPerUser),
            "QOSMaxSubmitJobPerUserLimit" => Some(PendingReason::QosMaxSubmitJobPerUser),
            "PartitionDown" => Some(PendingReason::PartitionDown),
            "PartitionTimeLimit" => Some(PendingReason::PartitionTimeLimit),
            "BadConstraints" => Some(PendingReason::BadConstraints),
            "ReqNodeNotAvail" => Some(PendingReason::ReqNodeNotAvail),
            "JobArrayTaskLimit" => Some(PendingReason::JobArrayTaskLimit),
            "JobHeldUser" => Some(PendingReason::JobHeldUser),
            "JobHeldAdmin" => Some(PendingReason::JobHeldAdmin),
            _ => None,
        }
    }

    pub const ALL: [PendingReason; 15] = [
        PendingReason::Priority,
        PendingReason::Resources,
        PendingReason::Dependency,
        PendingReason::BeginTime,
        PendingReason::AssocGrpCpuLimit,
        PendingReason::AssocGrpGresMinutes,
        PendingReason::QosMaxJobsPerUser,
        PendingReason::QosMaxSubmitJobPerUser,
        PendingReason::PartitionDown,
        PendingReason::PartitionTimeLimit,
        PendingReason::BadConstraints,
        PendingReason::ReqNodeNotAvail,
        PendingReason::JobArrayTaskLimit,
        PendingReason::JobHeldUser,
        PendingReason::JobHeldAdmin,
    ];
}

impl std::fmt::Display for PendingReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.to_slurm())
    }
}

/// How the job will end, decided by the workload generator at submit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannedOutcome {
    /// Runs for its planned runtime, exits 0.
    Success,
    /// Runs for its planned runtime, exits nonzero.
    Fail { exit_code: i32 },
    /// Killed by the OOM handler partway through.
    OutOfMemory,
    /// Runs past its time limit and is killed (TIMEOUT).
    RunsOverLimit,
    /// Cancelled by the user partway through.
    CancelledMidway,
}

/// How a job behaves relative to what it requested. This is the ground truth
/// that makes the dashboard's efficiency metrics (paper §4.3) meaningful:
/// e.g. interactive Jupyter jobs request much and use little.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UsageProfile {
    /// Fraction of allocated CPU time actually burned, in `[0, 1]`.
    pub cpu_util: f64,
    /// Peak resident set as a fraction of requested memory, in `[0, 1]`.
    pub mem_util: f64,
    /// Fraction of allocated GPU time actually burned, in `[0, 1]`.
    /// Ground truth for the telemetry collector's GPU series; zero for
    /// jobs that request no GPUs.
    pub gpu_util: f64,
    /// Wall seconds the job would run if not limited.
    pub planned_runtime_secs: u64,
    pub outcome: PlannedOutcome,
}

impl UsageProfile {
    /// A well-behaved batch job profile.
    pub fn batch(planned_runtime_secs: u64) -> UsageProfile {
        UsageProfile {
            cpu_util: 0.92,
            mem_util: 0.7,
            gpu_util: 0.0,
            planned_runtime_secs,
            outcome: PlannedOutcome::Success,
        }
    }

    /// A typical interactive-app profile: low utilization, short actual use.
    pub fn interactive(planned_runtime_secs: u64) -> UsageProfile {
        UsageProfile {
            cpu_util: 0.06,
            mem_util: 0.15,
            gpu_util: 0.0,
            planned_runtime_secs,
            outcome: PlannedOutcome::Success,
        }
    }
}

/// A job-array specification (`--array=0-9%4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArraySpec {
    pub first: u32,
    pub last: u32,
    /// Throttle: max tasks running at once (`%N`), if any.
    pub max_concurrent: Option<u32>,
}

impl ArraySpec {
    pub fn task_count(&self) -> u32 {
        self.last.saturating_sub(self.first) + 1
    }
}

/// Array membership recorded on each task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayMeta {
    /// The id shared by the whole array (the first task's own id).
    pub array_job_id: JobId,
    pub task_id: u32,
    pub max_concurrent: Option<u32>,
}

/// Everything a user specifies when submitting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRequest {
    pub name: String,
    pub user: String,
    pub account: String,
    pub partition: String,
    pub qos: String,
    pub nodes: u32,
    pub cpus_per_node: u32,
    pub mem_mb_per_node: u64,
    pub gpus_per_node: u32,
    pub time_limit: TimeLimit,
    /// Earliest allowed start (`--begin`).
    pub begin_time: Option<Timestamp>,
    /// `--dependency=afterok:<id>`.
    pub dependency: Option<JobId>,
    pub array: Option<ArraySpec>,
    /// Required node features (`--constraint`).
    pub constraints: Vec<String>,
    /// Free-form comment; Open OnDemand stores interactive-session metadata
    /// here (`ood:<app>:<session_id>:<workdir>`), which the dashboard's
    /// Session tab parses (paper §7).
    pub comment: Option<String>,
    pub work_dir: String,
    pub usage: UsageProfile,
}

impl JobRequest {
    /// A minimal single-node batch request; tests and examples build on this.
    pub fn simple(user: &str, account: &str, partition: &str, cpus: u32) -> JobRequest {
        JobRequest {
            name: format!("{user}-job"),
            user: user.to_string(),
            account: account.to_string(),
            partition: partition.to_string(),
            qos: "normal".to_string(),
            nodes: 1,
            cpus_per_node: cpus,
            mem_mb_per_node: 2_048 * cpus as u64,
            gpus_per_node: 0,
            time_limit: TimeLimit::Limited(4 * 3_600),
            begin_time: None,
            dependency: None,
            array: None,
            constraints: Vec::new(),
            comment: None,
            work_dir: format!("/home/{user}"),
            usage: UsageProfile::batch(1_800),
        }
    }

    /// Per-node resource footprint.
    pub fn per_node_tres(&self) -> Tres {
        Tres::new(
            self.cpus_per_node,
            self.mem_mb_per_node,
            self.gpus_per_node,
            1,
        )
    }

    /// Whole-job resource footprint.
    pub fn total_tres(&self) -> Tres {
        Tres::new(
            self.cpus_per_node * self.nodes,
            self.mem_mb_per_node * self.nodes as u64,
            self.gpus_per_node * self.nodes,
            self.nodes,
        )
    }
}

/// Final usage statistics, recorded into accounting when the job ends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobStats {
    /// CPU-seconds actually consumed (sacct's `TotalCPU`).
    pub total_cpu_secs: u64,
    /// Peak resident set in MB (sacct's `MaxRSS`), per node.
    pub max_rss_mb: u64,
}

/// A job record, live in slurmctld and archived in slurmdbd.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    pub id: JobId,
    pub array: Option<ArrayMeta>,
    pub req: JobRequest,
    pub state: JobState,
    pub reason: Option<PendingReason>,
    pub priority: u64,
    pub submit_time: Timestamp,
    /// When the job became eligible (dependencies/begin-time satisfied).
    pub eligible_time: Timestamp,
    pub start_time: Option<Timestamp>,
    pub end_time: Option<Timestamp>,
    /// Names of allocated nodes (empty while pending).
    pub nodes: Vec<String>,
    /// `exit:signal`, recorded at completion.
    pub exit_code: Option<(i32, i32)>,
    pub stats: Option<JobStats>,
    pub stdout_path: String,
    pub stderr_path: String,
}

impl Job {
    /// The id users see: `1234` or `1234_7` for array tasks.
    pub fn display_id(&self) -> String {
        self.shown_id().to_string()
    }

    /// [`Job::display_id`] as a value that writes itself: the one writer.
    pub fn shown_id(&self) -> impl std::fmt::Display {
        let (id, task) = match self.array {
            Some(a) => (a.array_job_id, Some(a.task_id)),
            None => (self.id, None),
        };
        std::fmt::from_fn(move |f| {
            write_num(f, id.0.into(), 1)?;
            let Some(task) = task else { return Ok(()) };
            f.write_str("_")?;
            write_num(f, task.into(), 1)
        })
    }

    /// Seconds spent waiting in the queue (so far, or until start).
    pub fn wait_secs(&self, now: Timestamp) -> u64 {
        match self.start_time {
            Some(s) => s.since(self.submit_time),
            None if self.state == JobState::Pending => now.since(self.submit_time),
            None => self
                .end_time
                .map(|e| e.since(self.submit_time))
                .unwrap_or(0),
        }
    }

    /// Elapsed wall seconds (so far for running jobs).
    pub fn elapsed_secs(&self, now: Timestamp) -> u64 {
        match (self.start_time, self.end_time) {
            (Some(s), Some(e)) => e.since(s),
            (Some(s), None) => now.since(s),
            _ => 0,
        }
    }

    /// Remaining wall seconds under the time limit, for running jobs.
    pub fn remaining_secs(&self, now: Timestamp) -> Option<u64> {
        let limit = self.req.time_limit.as_secs()?;
        let start = self.start_time?;
        if self.end_time.is_some() {
            return Some(0);
        }
        Some(limit.saturating_sub(now.since(start)))
    }

    /// GPU-hours consumed so far.
    pub fn gpu_hours(&self, now: Timestamp) -> f64 {
        let gpus = (self.req.gpus_per_node * self.req.nodes) as f64;
        gpus * self.elapsed_secs(now) as f64 / 3_600.0
    }

    /// Allocated CPU count (total across nodes).
    pub fn alloc_cpus(&self) -> u32 {
        self.req.cpus_per_node * self.req.nodes
    }

    /// True when `user` may view this job's logs (paper §2.4 privacy rule:
    /// log access inherits file ownership).
    pub fn logs_visible_to(&self, user: &str) -> bool {
        self.req.user == user
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_job() -> Job {
        let req = JobRequest::simple("alice", "physics", "cpu", 4);
        Job {
            id: JobId(100),
            array: None,
            req,
            state: JobState::Pending,
            reason: Some(PendingReason::Priority),
            priority: 1_000,
            submit_time: Timestamp(1_000),
            eligible_time: Timestamp(1_000),
            start_time: None,
            end_time: None,
            nodes: Vec::new(),
            exit_code: None,
            stats: None,
            stdout_path: "/home/alice/slurm-100.out".into(),
            stderr_path: "/home/alice/slurm-100.err".into(),
        }
    }

    #[test]
    fn state_roundtrip() {
        for s in JobState::ALL {
            assert_eq!(JobState::parse(s.to_slurm()), Some(s));
            assert_eq!(JobState::parse(s.to_compact()), Some(s));
        }
        assert_eq!(
            JobState::parse("CANCELLED by 1001"),
            Some(JobState::Cancelled)
        );
        assert_eq!(JobState::parse("???"), None);
    }

    #[test]
    fn reason_roundtrip() {
        for r in PendingReason::ALL {
            assert_eq!(PendingReason::parse(r.to_slurm()), Some(r));
        }
        assert_eq!(PendingReason::parse("whatever"), None);
    }

    #[test]
    fn activity_classification() {
        assert!(JobState::Pending.is_active());
        assert!(JobState::Running.is_active());
        assert!(!JobState::Completed.is_active());
        assert!(JobState::Timeout.is_finished());
    }

    #[test]
    fn wait_time_pending_grows_with_now() {
        let j = sample_job();
        assert_eq!(j.wait_secs(Timestamp(1_500)), 500);
        assert_eq!(j.wait_secs(Timestamp(3_000)), 2_000);
    }

    #[test]
    fn wait_time_frozen_at_start() {
        let mut j = sample_job();
        j.state = JobState::Running;
        j.start_time = Some(Timestamp(1_700));
        assert_eq!(j.wait_secs(Timestamp(9_999)), 700);
    }

    #[test]
    fn elapsed_and_remaining() {
        let mut j = sample_job();
        j.state = JobState::Running;
        j.start_time = Some(Timestamp(2_000));
        assert_eq!(j.elapsed_secs(Timestamp(2_600)), 600);
        // 4h limit.
        assert_eq!(j.remaining_secs(Timestamp(2_600)), Some(4 * 3_600 - 600));
        j.end_time = Some(Timestamp(3_000));
        assert_eq!(j.elapsed_secs(Timestamp(99_999)), 1_000);
        assert_eq!(j.remaining_secs(Timestamp(99_999)), Some(0));
    }

    #[test]
    fn gpu_hours_counts_all_nodes() {
        let mut j = sample_job();
        j.req.gpus_per_node = 2;
        j.req.nodes = 2;
        j.start_time = Some(Timestamp(0));
        j.end_time = Some(Timestamp(3_600));
        assert!((j.gpu_hours(Timestamp(3_600)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn display_id_for_arrays() {
        let mut j = sample_job();
        assert_eq!(j.display_id(), "100");
        j.array = Some(ArrayMeta {
            array_job_id: JobId(100),
            task_id: 7,
            max_concurrent: Some(4),
        });
        assert_eq!(j.display_id(), "100_7");
    }

    #[test]
    fn array_spec_counts() {
        assert_eq!(
            ArraySpec {
                first: 0,
                last: 9,
                max_concurrent: None
            }
            .task_count(),
            10
        );
        assert_eq!(
            ArraySpec {
                first: 5,
                last: 5,
                max_concurrent: None
            }
            .task_count(),
            1
        );
    }

    #[test]
    fn log_privacy() {
        let j = sample_job();
        assert!(j.logs_visible_to("alice"));
        assert!(!j.logs_visible_to("bob"));
    }

    #[test]
    fn tres_totals() {
        let mut req = JobRequest::simple("alice", "physics", "cpu", 8);
        req.nodes = 3;
        req.gpus_per_node = 1;
        assert_eq!(req.per_node_tres(), Tres::new(8, 16_384, 1, 1));
        assert_eq!(req.total_tres(), Tres::new(24, 49_152, 3, 3));
    }
}
