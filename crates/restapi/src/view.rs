//! Scope → snapshot-index resolution.
//!
//! The hot path promises zero text render, zero parse, and zero state-mutex
//! acquisitions. [`visible_job_positions`] delivers the first two by
//! unioning the snapshot's precomputed per-user / per-account /
//! per-partition indexes. (Serialized bodies are cached by the dashboard's
//! one server cache, keyed per view and versioned on the snapshot seq —
//! the caching the Palmetto paper layers over its Slurm REST API.)

use crate::scope::ScopeSet;
use hpcdash_slurm::job::JobId;
use hpcdash_slurm::snapshot::ClusterSnapshot;
use std::collections::BTreeSet;

/// The job positions (into `snap.jobs`) these scopes may see, ascending.
/// `None` means the scopes grant no job visibility at all — the caller
/// answers 403, distinct from an empty-but-authorized list.
pub fn visible_job_positions(
    snap: &ClusterSnapshot,
    scopes: &ScopeSet,
    subject: &str,
) -> Option<Vec<u32>> {
    if !scopes.has_job_scope() {
        return None;
    }
    if scopes.has_cluster() {
        return Some((0..snap.jobs.len() as u32).collect());
    }
    let mut ids: BTreeSet<JobId> = BTreeSet::new();
    if scopes.contains(&crate::scope::Scope::ReadOwnJobs) {
        ids.extend(snap.by_user.get(subject).unwrap_or_default());
    }
    for acct in scopes.accounts() {
        ids.extend(snap.by_account.get(acct).unwrap_or_default());
    }
    for part in scopes.partitions() {
        ids.extend(snap.by_partition.get(part).unwrap_or_default());
    }
    // Ascending ids sit at ascending positions.
    Some(
        ids.into_iter()
            .filter_map(|id| snap.jobs.position(id))
            .map(|pos| pos as u32)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;
    use hpcdash_simtime::Timestamp;
    use hpcdash_slurm::job::{Job, JobId, JobRequest, JobState};
    use hpcdash_slurm::node::Node;
    use hpcdash_slurm::partition::Partition;
    use std::sync::Arc;

    fn job(id: u32, user: &str, account: &str, partition: &str) -> Arc<Job> {
        let mut req = JobRequest::simple(user, account, partition, 1);
        req.partition = partition.to_string();
        Arc::new(Job {
            id: JobId(id),
            array: None,
            req,
            state: JobState::Pending,
            reason: None,
            priority: 0,
            submit_time: Timestamp(0),
            eligible_time: Timestamp(0),
            start_time: None,
            end_time: None,
            nodes: Vec::new(),
            exit_code: None,
            stats: None,
            stdout_path: String::new(),
            stderr_path: String::new(),
        })
    }

    fn snap() -> ClusterSnapshot {
        ClusterSnapshot::build(
            1,
            Timestamp(0),
            Arc::from("t"),
            vec![
                job(1, "alice", "physics", "cpu"),
                job(2, "bob", "physics", "gpu"),
                job(3, "carol", "chem", "gpu"),
            ],
            vec![Arc::new(Node::new("a001", 8, 32_000, 0))],
            vec![Partition::new("cpu"), Partition::new("gpu")],
            vec![],
        )
    }

    fn set(scopes: impl IntoIterator<Item = Scope>) -> ScopeSet {
        ScopeSet::new(scopes)
    }

    #[test]
    fn positions_union_across_scopes() {
        let s = snap();
        assert_eq!(
            visible_job_positions(&s, &set([Scope::ReadOwnJobs]), "alice"),
            Some(vec![0])
        );
        assert_eq!(
            visible_job_positions(&s, &set([Scope::ReadAccount("physics".into())]), "zed"),
            Some(vec![0, 1])
        );
        assert_eq!(
            visible_job_positions(&s, &set([Scope::ReadPartition("gpu".into())]), "zed"),
            Some(vec![1, 2])
        );
        // Union dedupes: own ∪ account both contain alice's job.
        assert_eq!(
            visible_job_positions(
                &s,
                &set([Scope::ReadOwnJobs, Scope::ReadAccount("physics".into())]),
                "alice"
            ),
            Some(vec![0, 1])
        );
        assert_eq!(
            visible_job_positions(&s, &set([Scope::ReadCluster]), "zed"),
            Some(vec![0, 1, 2])
        );
        // No job scope at all -> None (403), not empty (200).
        assert_eq!(
            visible_job_positions(&s, &set([Scope::AdminActAs]), "root"),
            None
        );
        // Authorized but nothing visible -> empty, still 200.
        assert_eq!(
            visible_job_positions(&s, &set([Scope::ReadOwnJobs]), "mallory"),
            Some(vec![])
        );
    }
}
