//! Structured JSON straight from snapshot structs — the whole point of the
//! `/slurm/v0` family. Nothing in this module renders command text or
//! parses anything; every body is built from the immutable
//! [`ClusterSnapshot`] the epoch cell published: one borrowed row struct per
//! object, encoded once into the `Vec<u8>` that becomes the response body,
//! with no `Value` tree in between. A job row is encoded once per job and
//! kept while only the job's priority moves, with gaps at `elapsed_secs`
//! and `priority` (`JobTable::row`), and each body that lists it splices in
//! its own two values. Field names follow
//! `slurmrestd`'s `openapi/v0.0.x` vocabulary where the simulator has an
//! equivalent (`job_id`, `user_name`, `node_count`, `state_reason`, ...),
//! so external consumers written against real Slurm mostly port over.
//!
//! (The rows reach serde through `serde_json`'s re-export, hence the
//! `#[serde(crate = ...)]` on each: a `serde` dependency of this crate's own
//! would be a new edge in the frozen `benchmark/Cargo.lock`.)

use hpcdash_slurm::ctld::AssocRecord;
use hpcdash_slurm::job::Job;
use hpcdash_slurm::node::Node;
use hpcdash_slurm::snapshot::{ClusterSnapshot, EncodedRow};
use serde_json::serde::Serialize;
use serde_json::Value;
use std::cell::Cell;

/// The response envelope every endpoint shares: which plugin emitted it,
/// which cluster, and which publication epoch the data came from. `seq`
/// makes staleness observable to clients (and testable).
#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct Meta<'a> {
    plugin: Plugin,
    cluster: &'a str,
    snapshot_seq: u64,
    time: u64,
}

#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct Plugin {
    r#type: &'static str,
    name: &'static str,
}

impl<'a> Meta<'a> {
    fn of(snap: &'a ClusterSnapshot) -> Meta<'a> {
        Meta {
            plugin: Plugin {
                r#type: "hpcdash/v0",
                name: "snapshot",
            },
            cluster: &snap.name,
            snapshot_seq: snap.seq,
            time: snap.now.as_secs(),
        }
    }
}

/// One job, `slurmrestd`-shaped.
#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct JobRow<'a> {
    job_id: u32,
    name: &'a str,
    user_name: &'a str,
    account: &'a str,
    partition: &'a str,
    qos: &'a str,
    job_state: &'static str,
    state_reason: Option<&'static str>,
    /// Moves on every scheduler pass: a gap too, so that a row outlives it.
    priority: Gap,
    node_count: u32,
    cpus: u32,
    memory_per_node_mb: u64,
    gpus_per_node: u32,
    nodes: &'a [String],
    array_job_id: Option<u32>,
    array_task_id: Option<u32>,
    submit_time: u64,
    start_time: Option<u64>,
    end_time: Option<u64>,
    /// The one field that depends on the snapshot: a gap each body fills.
    elapsed_secs: Gap,
    time_limit_secs: Option<u64>,
}

/// Where a spliced value goes: encoding writes nothing and notes the offset
/// (a `JobRow` is only ever written by `encode_row`, which reads it back).
#[derive(Default)]
struct Gap(Cell<usize>);

impl Serialize for Gap {
    fn to_json_value(&self) -> Value {
        Value::Null
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        self.0.set(out.len());
    }
}

impl<'a> From<&'a Job> for JobRow<'a> {
    fn from(job: &'a Job) -> JobRow<'a> {
        JobRow {
            job_id: job.id.0,
            name: &job.req.name,
            user_name: &job.req.user,
            account: &job.req.account,
            partition: &job.req.partition,
            qos: &job.req.qos,
            job_state: job.state.to_slurm(),
            state_reason: job.reason.map(|r| r.to_slurm()),
            priority: Gap::default(),
            node_count: job.req.nodes,
            cpus: job.alloc_cpus(),
            memory_per_node_mb: job.req.mem_mb_per_node,
            gpus_per_node: job.req.gpus_per_node,
            nodes: &job.nodes,
            array_job_id: job.array.map(|a| a.array_job_id.0),
            array_task_id: job.array.map(|a| a.task_id),
            submit_time: job.submit_time.as_secs(),
            start_time: job.start_time.map(|t| t.as_secs()),
            end_time: job.end_time.map(|t| t.as_secs()),
            elapsed_secs: Gap::default(),
            time_limit_secs: job.req.time_limit.as_secs(),
        }
    }
}

/// One node.
#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct NodeRow<'a> {
    name: &'a str,
    state: &'static str,
    cpus: u32,
    alloc_cpus: u32,
    cpu_load: f64,
    real_memory_mb: u64,
    alloc_memory_mb: u64,
    gpus: u32,
    alloc_gpus: u32,
    gpu_type: Option<&'a str>,
    features: &'a [String],
    partitions: &'a [String],
    operating_system: &'a str,
    reason: Option<&'a str>,
    boot_time: u64,
    last_busy: u64,
}

impl<'a> From<&'a Node> for NodeRow<'a> {
    fn from(node: &'a Node) -> NodeRow<'a> {
        NodeRow {
            name: &node.name,
            state: node.state().to_slurm(),
            cpus: node.cpus,
            alloc_cpus: node.alloc.cpus,
            cpu_load: node.cpu_load,
            real_memory_mb: node.real_memory_mb,
            alloc_memory_mb: node.alloc.mem_mb,
            gpus: node.gpus,
            alloc_gpus: node.alloc.gpus,
            gpu_type: node.gpu_type.as_deref(),
            features: &node.features,
            partitions: &node.partitions,
            operating_system: &node.os,
            reason: node.reason.as_deref(),
            boot_time: node.boot_time.as_secs(),
            last_busy: node.last_busy.as_secs(),
        }
    }
}

/// One partition.
#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct PartitionRow<'a> {
    name: &'a str,
    state: &'static str,
    nodes: &'a [String],
    node_count: u64,
    total_cpus: u64,
    max_time_secs: Option<u64>,
    default_time_secs: Option<u64>,
    priority_tier: u32,
    is_default: bool,
    max_nodes_per_job: Option<u32>,
}

impl<'a> PartitionRow<'a> {
    /// By snapshot index, so member totals come from the precomputed
    /// `partition_nodes` groups.
    fn of(snap: &'a ClusterSnapshot, idx: usize) -> PartitionRow<'a> {
        let p = &snap.partitions[idx];
        let mut total_cpus = 0u64;
        let mut total_nodes = 0u64;
        for n in snap.nodes_of_partition(idx) {
            total_cpus += u64::from(n.cpus);
            total_nodes += 1;
        }
        PartitionRow {
            name: &p.name,
            state: p.state.to_slurm(),
            nodes: &p.nodes,
            node_count: total_nodes,
            total_cpus,
            max_time_secs: p.max_time.as_secs(),
            default_time_secs: p.default_time.as_secs(),
            priority_tier: p.priority_tier,
            is_default: p.is_default,
            max_nodes_per_job: p.max_nodes_per_job,
        }
    }
}

/// One association record.
#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct AssocRow<'a> {
    account: &'a str,
    description: &'a str,
    parent: Option<&'a str>,
    members: &'a [String],
    limits: AssocLimits,
    usage: AssocUsage,
}

#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct AssocLimits {
    grp_cpu: Option<u32>,
    grp_gpu_mins: Option<u64>,
}

#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct AssocUsage {
    cpus_running: u32,
    cpus_queued: u32,
    cpu_seconds: u64,
    gpu_seconds: u64,
}

impl<'a> From<&'a AssocRecord> for AssocRow<'a> {
    fn from(rec: &'a AssocRecord) -> AssocRow<'a> {
        AssocRow {
            account: &rec.account.name,
            description: &rec.account.description,
            parent: rec.account.parent.as_deref(),
            members: &rec.members,
            limits: AssocLimits {
                grp_cpu: rec.account.grp_cpu_limit,
                grp_gpu_mins: rec.account.grp_gpu_mins_limit,
            },
            usage: AssocUsage {
                cpus_running: rec.usage.cpus_running,
                cpus_queued: rec.usage.cpus_queued,
                cpu_seconds: rec.usage.cpu_seconds,
                gpu_seconds: rec.usage.gpu_seconds,
            },
        }
    }
}

#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct NodesBody<'a> {
    meta: Meta<'a>,
    nodes: Vec<NodeRow<'a>>,
}

#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct PartitionsBody<'a> {
    meta: Meta<'a>,
    partitions: Vec<PartitionRow<'a>>,
}

#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct AssocBody<'a> {
    meta: Meta<'a>,
    associations: Vec<AssocRow<'a>>,
}

#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct DiagBody<'a> {
    meta: Meta<'a>,
    statistics: Statistics<'a>,
}

#[derive(Serialize)]
#[serde(crate = "serde_json::serde")]
struct Statistics<'a> {
    jobs_pending: u32,
    jobs_running: u32,
    jobs_suspended: u32,
    job_count: usize,
    node_count: usize,
    partition_count: usize,
    association_count: usize,
    server: &'a Value,
}

fn encode<T: Serialize>(body: &T) -> Vec<u8> {
    serde_json::to_vec(body).expect("json serializes")
}

/// One job's row with gaps where its `elapsed_secs` and `priority` values
/// go (in that order: the derive writes keys in byte order): the rest is
/// the same for every snapshot that holds this job at any priority.
fn encode_row(job: &Job) -> EncodedRow {
    let row = JobRow::from(job);
    let mut bytes = Vec::with_capacity(512);
    row.write_json(&mut bytes);
    bytes.shrink_to_fit();
    let gaps = [row.elapsed_secs.0.get(), row.priority.0.get()];
    debug_assert!(gaps[0] <= gaps[1]);
    EncodedRow {
        bytes: bytes.into(),
        gaps,
    }
}

/// The values a job's row takes in `snap`, in gap order.
fn spliced(snap: &ClusterSnapshot, job: &Job) -> [u64; 2] {
    [job.elapsed_secs(snap.now), job.priority]
}

/// The job at `pos` in `snap`: its row, encoded by the first body that
/// lists this job at any priority, and the values it takes in `snap`.
fn row(snap: &ClusterSnapshot, pos: usize) -> (&EncodedRow, [u64; 2]) {
    let (job, row) = snap.jobs.row(pos, encode_row);
    (row, spliced(snap, job))
}

/// A job-list body, sized up front: `{"jobs":[..],"meta":..}`, keys in the
/// byte order the derive writes, each row spliced around its two values.
fn jobs_envelope(snap: &ClusterSnapshot, rows: Vec<(&EncodedRow, [u64; 2])>) -> Vec<u8> {
    let size: usize = rows.iter().map(|(row, _)| row.bytes.len() + 41).sum();
    let mut out = Vec::with_capacity(size + 256 + snap.name.len());
    out.extend_from_slice(b"{\"jobs\":[");
    for (i, (row, values)) in rows.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        let mut from = 0;
        for (at, value) in row.gaps.into_iter().zip(values) {
            out.extend_from_slice(&row.bytes[from..at]);
            value.write_json(&mut out);
            from = at;
        }
        out.extend_from_slice(&row.bytes[from..]);
    }
    out.extend_from_slice(b"],\"meta\":");
    Meta::of(snap).write_json(&mut out);
    out.push(b'}');
    out
}

/// `/slurm/v0/jobs`: the given positions into `snap.jobs`, in ascending id
/// order.
pub fn jobs_body(snap: &ClusterSnapshot, positions: &[u32]) -> Vec<u8> {
    jobs_envelope(
        snap,
        positions.iter().map(|&p| row(snap, p as usize)).collect(),
    )
}

/// `/slurm/v0/jobs/:id`: the same envelope around one job of `snap` (a job
/// the snapshot does not hold is encoded for this body alone).
pub fn job_body(snap: &ClusterSnapshot, job: &Job) -> Vec<u8> {
    match snap.jobs.position(job.id) {
        Some(pos) if std::ptr::eq(&*snap.jobs[pos], job) => {
            jobs_envelope(snap, vec![row(snap, pos)])
        }
        _ => jobs_envelope(snap, vec![(&encode_row(job), spliced(snap, job))]),
    }
}

/// `/slurm/v0/nodes`: all nodes, or the subset at `positions` (a
/// partition-scoped view).
pub fn nodes_body(snap: &ClusterSnapshot, positions: Option<&[u32]>) -> Vec<u8> {
    let nodes = match positions {
        None => snap.nodes.iter().map(|n| NodeRow::from(&**n)).collect(),
        Some(ps) => ps
            .iter()
            .map(|&p| NodeRow::from(&*snap.nodes[p as usize]))
            .collect(),
    };
    encode(&NodesBody {
        meta: Meta::of(snap),
        nodes,
    })
}

/// `/slurm/v0/partitions`: the partitions at `indices`.
pub fn partitions_body(snap: &ClusterSnapshot, indices: &[usize]) -> Vec<u8> {
    encode(&PartitionsBody {
        meta: Meta::of(snap),
        partitions: indices.iter().map(|&i| PartitionRow::of(snap, i)).collect(),
    })
}

/// `/slurm/v0/associations`: the records at `indices`.
pub fn assoc_body(snap: &ClusterSnapshot, indices: &[usize]) -> Vec<u8> {
    encode(&AssocBody {
        meta: Meta::of(snap),
        associations: indices
            .iter()
            .map(|&i| AssocRow::from(&*snap.assoc[i]))
            .collect(),
    })
}

/// `/slurm/v0/diag`: snapshot-wide statistics plus whatever server-side
/// `extra` the host wires in (RPC counters, token counts).
pub fn diag_body(snap: &ClusterSnapshot, extra: &Value) -> Vec<u8> {
    encode(&DiagBody {
        meta: Meta::of(snap),
        statistics: Statistics {
            jobs_pending: snap.counts.pending,
            jobs_running: snap.counts.running,
            jobs_suspended: snap.counts.suspended,
            job_count: snap.jobs.len(),
            node_count: snap.nodes.len(),
            partition_count: snap.partitions.len(),
            association_count: snap.assoc.len(),
            server: extra,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::Timestamp;
    use hpcdash_slurm::assoc::{Account, AccountUsage};
    use hpcdash_slurm::job::{JobId, JobRequest, JobState};
    use hpcdash_slurm::partition::Partition;
    use hpcdash_slurm::snapshot::chunk_key;
    use serde_json::json;
    use std::sync::Arc;

    fn snap_with_one_of_each() -> ClusterSnapshot {
        let req = JobRequest::simple("alice", "physics", "cpu", 4);
        let job = Job {
            id: JobId(10),
            array: None,
            req,
            state: JobState::Running,
            reason: None,
            priority: 500,
            submit_time: Timestamp(100),
            eligible_time: Timestamp(100),
            start_time: Some(Timestamp(200)),
            end_time: None,
            nodes: vec!["a001".to_string()],
            exit_code: None,
            stats: None,
            stdout_path: String::new(),
            stderr_path: String::new(),
        };
        let node = Node::new("a001", 16, 64_000, 0);
        let part = Partition::new("cpu").with_nodes(vec!["a001".to_string()]);
        let assoc = AssocRecord {
            account: Account::new("physics"),
            usage: AccountUsage::default(),
            members: vec!["alice".to_string()],
        };
        ClusterSnapshot::build(
            3,
            Timestamp(1_000),
            Arc::from("t"),
            vec![Arc::new(job)],
            vec![Arc::new(node)],
            vec![part],
            vec![Arc::new(assoc)],
        )
    }

    #[test]
    fn jobs_body_is_slurmrestd_shaped() {
        let snap = snap_with_one_of_each();
        let body: Value = serde_json::from_slice(&jobs_body(&snap, &[0])).unwrap();
        assert_eq!(body["meta"]["snapshot_seq"], 3);
        assert_eq!(body["meta"]["cluster"], "t");
        let j = &body["jobs"][0];
        assert_eq!(j["job_id"], 10);
        assert_eq!(j["user_name"], "alice");
        assert_eq!(j["account"], "physics");
        assert_eq!(j["job_state"], "RUNNING");
        assert_eq!(j["elapsed_secs"], 800, "now=1000, start=200");
        assert_eq!(j["nodes"][0], "a001");
        assert_eq!(j["state_reason"], Value::Null);
    }

    /// `snap`'s parts at another instant, with the chunks of `changed`
    /// replaced: published after `snap` (so sharing its row memo) as
    /// slurmctld publishes, or from scratch.
    fn republish(
        snap: &ClusterSnapshot,
        now: u64,
        changed: Vec<Arc<Job>>,
        after: bool,
    ) -> ClusterSnapshot {
        let (seq, now, name) = (snap.seq + 1, Timestamp(now), snap.name.clone());
        let (nodes, partitions, assoc) = (
            snap.nodes.clone(),
            snap.partitions.clone(),
            snap.assoc.clone(),
        );
        if !after {
            let jobs = snap.jobs.to_vec();
            return ClusterSnapshot::build(seq, now, name, jobs, nodes, partitions, assoc);
        }
        let chunks = changed.into_iter().map(|j| (chunk_key(j.id), vec![j]));
        ClusterSnapshot::assemble(seq, now, name, chunks, nodes, partitions, assoc, Some(snap))
    }

    /// `snap` as a snapshot of its own, holding no row.
    fn unmemoized(snap: &ClusterSnapshot) -> ClusterSnapshot {
        let (nodes, partitions, assoc) = (
            snap.nodes.clone(),
            snap.partitions.clone(),
            snap.assoc.clone(),
        );
        let (seq, now, name, jobs) = (snap.seq, snap.now, snap.name.clone(), snap.jobs.to_vec());
        ClusterSnapshot::build(seq, now, name, jobs, nodes, partitions, assoc)
    }

    #[test]
    fn memoized_rows_take_the_elapsed_time_of_each_snapshot() {
        let first = snap_with_one_of_each();
        jobs_body(&first, &[0]);
        assert_eq!(first.jobs.rows_encoded(), 1);

        // The same job version later: the row is carried over, and spliced
        // around the new elapsed time it is the body a fresh encode gives.
        let later = republish(&first, 1_500, Vec::new(), true);
        assert_eq!(later.jobs.rows_encoded(), 1, "carried from the first");
        let memoized = jobs_body(&later, &[0]);
        let fresh = republish(&first, 1_500, Vec::new(), false);
        assert_eq!(fresh.jobs.rows_encoded(), 0);
        assert_eq!(memoized, jobs_body(&fresh, &[0]));
        let body: Value = serde_json::from_slice(&memoized).unwrap();
        assert_eq!(body["jobs"][0]["elapsed_secs"], 1_300);
        assert_eq!(job_body(&later, &later.jobs[0]), memoized);

        // A version at another priority keeps the row, spliced around its
        // own priority: the body a fresh encode gives.
        let mut bumped = Job::clone(&later.jobs[0]);
        bumped.priority += 7;
        let moved = republish(&later, 1_800, vec![Arc::new(bumped)], true);
        assert_eq!(moved.jobs.rows_encoded(), 1, "carried to a new priority");
        let body = jobs_body(&moved, &[0]);
        assert_eq!(body, jobs_body(&unmemoized(&moved), &[0]));
        let parsed: Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(parsed["jobs"][0]["priority"], 507);
        assert_eq!(parsed["jobs"][0]["elapsed_secs"], 1_600);

        // A new version of the job is a new row, never the old one.
        let mut done = Job::clone(&first.jobs[0]);
        done.state = JobState::Completed;
        done.end_time = Some(Timestamp(1_600));
        let next = republish(&later, 2_000, vec![Arc::new(done)], true);
        assert_eq!(
            next.jobs.rows_encoded(),
            0,
            "not carried to another version"
        );
        let body: Value = serde_json::from_slice(&jobs_body(&next, &[0])).unwrap();
        assert_eq!(body["jobs"][0]["job_state"], "COMPLETED");
        assert_eq!(body["jobs"][0]["elapsed_secs"], 1_400);
    }

    #[test]
    fn nodes_body_full_and_subset() {
        let snap = snap_with_one_of_each();
        let all: Value = serde_json::from_slice(&nodes_body(&snap, None)).unwrap();
        assert_eq!(all["nodes"].as_array().unwrap().len(), 1);
        assert_eq!(all["nodes"][0]["name"], "a001");
        assert_eq!(all["nodes"][0]["cpus"], 16);
        let none: Value = serde_json::from_slice(&nodes_body(&snap, Some(&[]))).unwrap();
        assert_eq!(none["nodes"].as_array().unwrap().len(), 0);
    }

    #[test]
    fn partition_body_aggregates_member_nodes() {
        let snap = snap_with_one_of_each();
        let body: Value = serde_json::from_slice(&partitions_body(&snap, &[0])).unwrap();
        let p = &body["partitions"][0];
        assert_eq!(p["name"], "cpu");
        assert_eq!(p["node_count"], 1);
        assert_eq!(p["total_cpus"], 16);
    }

    #[test]
    fn assoc_and_diag_bodies() {
        let snap = snap_with_one_of_each();
        let body: Value = serde_json::from_slice(&assoc_body(&snap, &[0])).unwrap();
        assert_eq!(body["associations"][0]["account"], "physics");
        assert_eq!(body["associations"][0]["members"][0], "alice");

        let diag: Value =
            serde_json::from_slice(&diag_body(&snap, &json!({"tokens_active": 2}))).unwrap();
        assert_eq!(diag["statistics"]["jobs_running"], 1);
        assert_eq!(diag["statistics"]["node_count"], 1);
        assert_eq!(diag["statistics"]["server"]["tokens_active"], 2);
    }
}
