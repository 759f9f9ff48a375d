//! Multifactor job priority, modelled on Slurm's priority/multifactor
//! plugin: a weighted sum of age, fairshare, QoS and partition factors.

use crate::assoc::AssocStore;
use crate::job::Job;
use crate::partition::Partition;
use crate::qos::Qos;
use hpcdash_simtime::Timestamp;
use std::collections::BTreeMap;

/// Weights for the priority factors. Defaults approximate a typical
/// university-cluster configuration.
#[derive(Debug, Clone, Copy)]
pub struct PriorityWeights {
    pub age: u64,
    pub fairshare: u64,
    pub qos: u64,
    pub partition: u64,
    /// Age saturates after this many seconds (Slurm's `PriorityMaxAge`).
    pub max_age_secs: u64,
}

impl Default for PriorityWeights {
    fn default() -> PriorityWeights {
        PriorityWeights {
            age: 1_000,
            fairshare: 10_000,
            qos: 1,
            partition: 100,
            max_age_secs: 7 * 86_400,
        }
    }
}

/// What every job of one account, QoS and partition shares in its
/// priority: looked up once per scheduling pass, not once per job.
#[derive(Debug, Clone, Copy)]
pub struct SharedTerms {
    /// The account's fairshare factor.
    pub fairshare: f64,
    /// The QoS priority (0 without a QoS).
    pub qos: u64,
    /// The partition's priority tier (1 without a partition).
    pub tier: u64,
}

impl SharedTerms {
    /// The priority of `job` at `now`: Slurm's multifactor sum of the age,
    /// fairshare, QoS and partition factors.
    pub fn priority(&self, job: &Job, now: Timestamp, weights: &PriorityWeights) -> u64 {
        let age_secs = now.since(job.eligible_time).min(weights.max_age_secs);
        let age_factor = age_secs as f64 / weights.max_age_secs as f64;
        (age_factor * weights.age as f64) as u64
            + (self.fairshare * weights.fairshare as f64) as u64
            + self.qos * weights.qos
            + self.tier * weights.partition
    }
}

/// [`SharedTerms`] by account, QoS and partition name, refreshed at the
/// start of each pass. The maps keep their keys between passes, so a
/// steady pass allocates nothing.
#[derive(Debug, Default)]
pub struct PassTerms {
    fairshare: BTreeMap<String, f64>,
    qos: BTreeMap<String, u64>,
    tier: BTreeMap<String, u64>,
}

impl PassTerms {
    /// Recompute every account's, QoS's and partition's term.
    pub fn refresh(
        &mut self,
        assoc: &AssocStore,
        qos: &BTreeMap<String, Qos>,
        partitions: &BTreeMap<String, Partition>,
    ) {
        for account in assoc.accounts() {
            let fs = assoc.fairshare(&account.name);
            match self.fairshare.get_mut(&account.name) {
                Some(slot) => *slot = fs,
                None => {
                    self.fairshare.insert(account.name.clone(), fs);
                }
            }
        }
        for (name, q) in qos {
            match self.qos.get_mut(name) {
                Some(slot) => *slot = q.priority as u64,
                None => {
                    self.qos.insert(name.clone(), q.priority as u64);
                }
            }
        }
        for (name, p) in partitions {
            match self.tier.get_mut(name) {
                Some(slot) => *slot = p.priority_tier as u64,
                None => {
                    self.tier.insert(name.clone(), p.priority_tier as u64);
                }
            }
        }
    }

    /// The terms of `job`: its account's fairshare, its QoS's priority and
    /// its partition's tier, as a per-job lookup would find them.
    pub fn of(&self, job: &Job, assoc: &AssocStore) -> SharedTerms {
        let req = &job.req;
        SharedTerms {
            fairshare: match self.fairshare.get(&req.account) {
                Some(&fs) => fs,
                None => assoc.fairshare(&req.account),
            },
            qos: self.qos.get(&req.qos).copied().unwrap_or(0),
            tier: self.tier.get(&req.partition).copied().unwrap_or(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::Account;
    use crate::job::{JobId, JobRequest, JobState};

    /// Compute a job's scheduling priority at `now`.
    fn compute_priority(
        job: &Job,
        now: Timestamp,
        assoc: &AssocStore,
        qos: Option<&Qos>,
        partition: Option<&Partition>,
        weights: &PriorityWeights,
    ) -> u64 {
        let terms = SharedTerms {
            fairshare: assoc.fairshare(&job.req.account),
            qos: qos.map(|q| q.priority as u64).unwrap_or(0),
            tier: partition.map(|p| p.priority_tier as u64).unwrap_or(1),
        };
        terms.priority(job, now, weights)
    }

    fn job_at(eligible: u64) -> Job {
        let req = JobRequest::simple("alice", "physics", "cpu", 4);
        Job {
            id: JobId(1),
            array: None,
            req,
            state: JobState::Pending,
            reason: None,
            priority: 0,
            submit_time: Timestamp(eligible),
            eligible_time: Timestamp(eligible),
            start_time: None,
            end_time: None,
            nodes: Vec::new(),
            exit_code: None,
            stats: None,
            stdout_path: String::new(),
            stderr_path: String::new(),
        }
    }

    fn assoc() -> AssocStore {
        let mut a = AssocStore::new();
        a.add_account(Account::new("physics"));
        a.add_user("physics", "alice");
        a
    }

    /// Terms looked up once per pass give every job the priority a lookup
    /// per job gives, whatever order accounts, QoS and partitions come in.
    #[test]
    fn pass_terms_give_the_per_job_priority() {
        let mut a = assoc();
        a.add_account(Account::new("chem"));
        a.add_user("chem", "bob");
        a.note_end("chem", "bob", 64, 2, 40_000, 1.0);
        let qos: BTreeMap<String, Qos> = Qos::standard_set()
            .into_iter()
            .map(|q| (q.name.clone(), q))
            .collect();
        let mut gpu = Partition::new("gpu");
        gpu.priority_tier = 3;
        let partitions: BTreeMap<String, Partition> = [Partition::new("cpu"), gpu]
            .into_iter()
            .map(|p| (p.name.clone(), p))
            .collect();
        let w = PriorityWeights::default();
        let mut terms = PassTerms::default();
        for pass in 0..2 {
            terms.refresh(&a, &qos, &partitions);
            for i in 0..24u64 {
                let mut job = job_at(i * 500);
                job.req.account = ["physics", "chem", "gone"][(i % 3) as usize].to_string();
                job.req.qos = ["normal", "high", "nope"][(i / 2 % 3) as usize].to_string();
                job.req.partition = ["cpu", "gpu", "none"][(i / 4 % 3) as usize].to_string();
                let now = Timestamp(20_000 + pass * 7_000);
                let want = compute_priority(
                    &job,
                    now,
                    &a,
                    qos.get(&job.req.qos),
                    partitions.get(&job.req.partition),
                    &w,
                );
                assert_eq!(terms.of(&job, &a).priority(&job, now, &w), want, "job {i}");
            }
            a.note_end("physics", "alice", 32, 0, 90_000, 1.0);
        }
    }

    #[test]
    fn age_increases_priority() {
        let a = assoc();
        let w = PriorityWeights::default();
        let job = job_at(0);
        let p_young = compute_priority(&job, Timestamp(60), &a, None, None, &w);
        let p_old = compute_priority(&job, Timestamp(86_400), &a, None, None, &w);
        assert!(p_old > p_young);
    }

    #[test]
    fn age_saturates() {
        let a = assoc();
        let w = PriorityWeights::default();
        let job = job_at(0);
        let p1 = compute_priority(&job, Timestamp(w.max_age_secs), &a, None, None, &w);
        let p2 = compute_priority(&job, Timestamp(w.max_age_secs * 5), &a, None, None, &w);
        assert_eq!(p1, p2);
    }

    #[test]
    fn heavy_usage_lowers_priority() {
        let mut a = assoc();
        let w = PriorityWeights::default();
        let job = job_at(0);
        let before = compute_priority(&job, Timestamp(0), &a, None, None, &w);
        a.note_start("physics", 1_000);
        a.note_end("physics", "alice", 1_000, 0, 360_000, 1.0);
        let after = compute_priority(&job, Timestamp(0), &a, None, None, &w);
        assert!(after < before);
    }

    #[test]
    fn qos_priority_adds() {
        let a = assoc();
        let w = PriorityWeights::default();
        let job = job_at(0);
        let base = compute_priority(&job, Timestamp(0), &a, None, None, &w);
        let high = Qos::new("high", 10_000);
        let boosted = compute_priority(&job, Timestamp(0), &a, Some(&high), None, &w);
        assert_eq!(boosted, base + 10_000);
    }
}
