//! Friendly pending-reason messages (paper §4.1).
//!
//! Slurm's reason codes ("AssocGrpCpuLimit", "ReqNodeNotAvail", ...) are
//! opaque to beginners; the dashboard shows a plain-English sentence next to
//! each. The AssocGrpCpuLimit wording is the paper's own example.

use hpcdash_slurm::job::PendingReason;

/// The plain-English explanation shown next to a reason code.
pub(crate) fn friendly_reason(reason: PendingReason) -> &'static str {
    match reason {
        PendingReason::Priority => {
            "It means other queued jobs currently have higher priority; your job will move up as it waits."
        }
        PendingReason::Resources => {
            "It means your job is at the front of the queue and is waiting for enough CPUs, memory, or GPUs to free up."
        }
        PendingReason::Dependency => {
            "It means this job is waiting for another job it depends on to finish first."
        }
        PendingReason::BeginTime => {
            "It means you asked this job not to start before a specific time, which has not arrived yet."
        }
        PendingReason::AssocGrpCpuLimit => {
            "It means this job's association has reached its aggregate group CPU limit."
        }
        PendingReason::AssocGrpGresMinutes => {
            "It means your group has used up its allocated GPU time for this period; the job will wait until the allocation is renewed."
        }
        PendingReason::QosMaxJobsPerUser => {
            "It means you already have the maximum number of running jobs allowed by this quality of service; the job will start as your other jobs finish."
        }
        PendingReason::QosMaxSubmitJobPerUser => {
            "It means you have reached the maximum number of submitted jobs allowed by this quality of service."
        }
        PendingReason::PartitionDown => {
            "It means the partition this job targets is currently down or drained, often for maintenance; check the announcements."
        }
        PendingReason::PartitionTimeLimit => {
            "It means the time limit you requested is longer than this partition allows; resubmit with a shorter limit or a different partition."
        }
        PendingReason::BadConstraints => {
            "It means no node can ever satisfy the resources or features this job requests; it will not start as submitted."
        }
        PendingReason::ReqNodeNotAvail => {
            "It means a specific node this job requires is unavailable (down or drained)."
        }
        PendingReason::JobArrayTaskLimit => {
            "It means this array task is waiting because the array's concurrent-task throttle has been reached."
        }
        PendingReason::JobHeldUser => {
            "It means you placed this job on hold; release it to let it run."
        }
        PendingReason::JobHeldAdmin => {
            "It means an administrator placed this job on hold; contact support if this is unexpected."
        }
    }
}

/// Code + message pair as the job table renders it.
pub fn describe(reason: PendingReason) -> String {
    format!("{} — {}", reason.to_slurm(), friendly_reason(reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn papers_example_wording() {
        assert_eq!(
            friendly_reason(PendingReason::AssocGrpCpuLimit),
            "It means this job's association has reached its aggregate group CPU limit."
        );
    }

    #[test]
    fn every_reason_has_a_nonempty_sentence() {
        for r in PendingReason::ALL {
            let msg = friendly_reason(r);
            assert!(msg.len() > 20, "{r:?} message too short");
            assert!(
                msg.starts_with("It means"),
                "{r:?} should follow the paper's phrasing"
            );
        }
    }

    #[test]
    fn describe_includes_code() {
        let d = describe(PendingReason::QosMaxJobsPerUser);
        assert!(d.starts_with("QOSMaxJobsPerUserLimit — "));
    }

    #[test]
    fn messages_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for r in PendingReason::ALL {
            assert!(
                seen.insert(friendly_reason(r)),
                "duplicate message for {r:?}"
            );
        }
    }
}
