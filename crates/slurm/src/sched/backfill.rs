//! EASY backfill scheduling over a scratch view of cluster state.
//!
//! The planner never mutates live state, and copies none of it: it plans
//! on a `ScratchView` (each node's allocation, in node-name order) and a
//! `Ledger` of what its planned starts add to the association, QoS and
//! array limits, and returns the decisions, which `ClusterState::tick`
//! applies. Each partition has its own "blocker" (the highest-priority job
//! that cannot start); lower-priority jobs in that partition may backfill
//! only if they cannot delay the blocker's reservation.

use crate::assoc::{AssocStore, LimitViolation};
use crate::job::{Job, JobId, PendingReason};
use crate::node::Node;
use crate::partition::{Partition, PartitionState};
use crate::qos::Qos;
use crate::sched::fit::ScratchView;
use hpcdash_simtime::Timestamp;
use std::collections::{BTreeMap, HashMap};

/// What the planner decided for one pending job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleDecision {
    Start {
        job: JobId,
        nodes: Vec<String>,
        backfilled: bool,
    },
    Pend {
        job: JobId,
        reason: PendingReason,
    },
}

/// Inputs to one scheduling pass.
pub struct PlanInputs<'a> {
    pub nodes: &'a BTreeMap<String, Node>,
    pub partitions: &'a BTreeMap<String, Partition>,
    pub qos: &'a BTreeMap<String, Qos>,
    pub assoc: &'a AssocStore,
    /// Running jobs, id order.
    pub running: &'a [&'a Job],
    /// Eligible pending jobs, highest priority first.
    pub pending: &'a [&'a Job],
    pub now: Timestamp,
}

/// One partition as the pass sees it.
struct PartitionPlan<'a> {
    partition: &'a Partition,
    /// Its nodes in best-fit order, kept sorted as the pass plans starts.
    order: Vec<(u32, u32)>,
    /// Set by the partition's first job that cannot start.
    blocker: Option<Reservation>,
}

struct Reservation {
    shadow: Timestamp,
    /// Positions of the nodes held for the blocker, ascending.
    nodes: Vec<u32>,
}

/// The limits' half of the scratch view: what the running jobs and the
/// pass's planned starts count against each per-user, per-array and
/// per-account cap. Keys borrow the jobs' strings.
#[derive(Default)]
struct Ledger<'a> {
    /// (user, QoS) -> running jobs, for QoS levels with a per-user cap.
    per_user_qos: HashMap<(&'a str, &'a str), u32>,
    /// array_job_id -> running tasks, for throttled arrays.
    per_array: HashMap<JobId, u32>,
    /// account -> CPUs of planned starts. Running jobs' CPUs are already in
    /// the `AssocStore`.
    planned_cpus: HashMap<&'a str, u32>,
}

impl<'a> Ledger<'a> {
    /// Count a running job against the caps `limit_reason` reads; a job
    /// under no cap counts against nothing.
    fn count(&mut self, job: &'a Job, qos: &BTreeMap<String, Qos>) {
        if qos
            .get(&job.req.qos)
            .is_some_and(|q| q.max_jobs_per_user.is_some())
        {
            *self
                .per_user_qos
                .entry((&job.req.user, &job.req.qos))
                .or_insert(0) += 1;
        }
        if let Some(a) = job.array.filter(|a| a.max_concurrent.is_some()) {
            *self.per_array.entry(a.array_job_id).or_insert(0) += 1;
        }
    }
}

/// Compute the decisions of one scheduling pass, in `pending` order: every
/// start, and every pending reason that changes. Pure with respect to the
/// inputs.
pub(crate) fn plan_schedule(inputs: PlanInputs<'_>) -> Vec<ScheduleDecision> {
    let PlanInputs {
        nodes,
        partitions,
        qos,
        assoc,
        running,
        pending,
        now,
    } = inputs;

    let mut view = ScratchView::new(nodes);
    let mut ledger = Ledger::default();
    for job in running {
        ledger.count(job, qos);
    }
    let mut parts: Vec<PartitionPlan> = Vec::new();
    // Running jobs by expected end, sorted once, when a first blocker needs them.
    let mut endings: Option<Vec<(Timestamp, &Job)>> = None;
    let mut decisions = Vec::new();

    for &job in pending {
        // A job that stays pending for the reason it has needs no decision.
        let pend = |reason| {
            (job.reason != Some(reason)).then_some(ScheduleDecision::Pend {
                job: job.id,
                reason,
            })
        };
        let Some(partition) = partitions.get(&job.req.partition) else {
            decisions.extend(pend(PendingReason::BadConstraints));
            continue;
        };
        if let Some(reason) = limit_reason(job, partition, qos, assoc, &ledger) {
            decisions.extend(pend(reason));
            continue;
        }
        let p = match parts
            .iter()
            .position(|p| p.partition.name == partition.name)
        {
            Some(p) => p,
            None => {
                parts.push(PartitionPlan {
                    partition,
                    order: view.best_fit_order(partition),
                    blocker: None,
                });
                parts.len() - 1
            }
        };

        let blocked = parts[p].blocker.is_some();
        let placement = match &parts[p].blocker {
            None => view.select(&parts[p].order, &job.req, &[]),
            Some(r) => try_backfill(&view, &parts[p].order, job, r, now),
        };
        match placement {
            Some(chosen) => {
                for &pos in &chosen {
                    let orders = parts.iter_mut().map(|p| &mut p.order);
                    view.allocate(pos, job.req.per_node_tres(), orders);
                }
                *ledger.planned_cpus.entry(&job.req.account).or_insert(0) += job.alloc_cpus();
                ledger.count(job, qos);
                decisions.push(ScheduleDecision::Start {
                    job: job.id,
                    nodes: chosen
                        .iter()
                        .map(|&pos| view.name(pos).to_string())
                        .collect(),
                    backfilled: blocked,
                });
            }
            None if !view.could_ever_fit(&parts[p].order, &job.req) => {
                decisions.extend(pend(PendingReason::BadConstraints));
            }
            None if blocked => decisions.extend(pend(PendingReason::Priority)),
            None => {
                // This job becomes the partition's blocker; compute its
                // reservation so later jobs can only harmlessly backfill.
                let endings = endings.get_or_insert_with(|| by_expected_end(running, now));
                parts[p].blocker = Some(reserve(&view, &parts[p], job, endings));
                decisions.extend(pend(PendingReason::Resources));
            }
        }
    }

    decisions
}

/// First limit the job trips, if any — in the order slurmctld reports them.
fn limit_reason(
    job: &Job,
    partition: &Partition,
    qos: &BTreeMap<String, Qos>,
    assoc: &AssocStore,
    ledger: &Ledger<'_>,
) -> Option<PendingReason> {
    if partition.state != PartitionState::Up {
        return Some(PendingReason::PartitionDown);
    }
    if !partition.allows_time(job.req.time_limit) {
        return Some(PendingReason::PartitionTimeLimit);
    }
    if let Some(max_nodes) = partition.max_nodes_per_job {
        if job.req.nodes > max_nodes {
            return Some(PendingReason::BadConstraints);
        }
    }
    let total = job.req.total_tres();
    let planned = ledger.planned_cpus.get(job.req.account.as_str());
    match assoc.check_start(
        &job.req.account,
        total.cpus + planned.unwrap_or(&0),
        total.gpus,
    ) {
        Err(LimitViolation::GrpCpuLimit) => return Some(PendingReason::AssocGrpCpuLimit),
        Err(LimitViolation::GrpGpuMinsLimit) => return Some(PendingReason::AssocGrpGresMinutes),
        Ok(()) => {}
    }
    if let Some(q) = qos.get(&job.req.qos) {
        if let Some(cap) = q.max_jobs_per_user {
            let running = ledger
                .per_user_qos
                .get(&(job.req.user.as_str(), job.req.qos.as_str()))
                .copied()
                .unwrap_or(0);
            if running >= cap {
                return Some(PendingReason::QosMaxJobsPerUser);
            }
        }
    }
    if let Some(a) = &job.array {
        if let Some(throttle) = a.max_concurrent {
            let running = ledger.per_array.get(&a.array_job_id).copied().unwrap_or(0);
            if running >= throttle {
                return Some(PendingReason::JobArrayTaskLimit);
            }
        }
    }
    None
}

/// Running jobs with the instant they end at the latest (start plus time
/// limit), soonest first; ties keep id order.
fn by_expected_end<'a>(running: &[&'a Job], now: Timestamp) -> Vec<(Timestamp, &'a Job)> {
    let mut endings: Vec<(Timestamp, &Job)> = running
        .iter()
        .map(|&j| {
            let start = j.start_time.unwrap_or(now).as_secs();
            let end = j.req.time_limit.as_secs().map_or(u64::MAX, |s| start + s);
            (Timestamp(end), j)
        })
        .collect();
    endings.sort_by_key(|&(end, _)| end);
    endings
}

/// When, and on which nodes, could `blocker` start if running jobs end at
/// their time limits? One walk: release the endings in order into a copy
/// of the view, keeping count of the partition's nodes the blocker now
/// fits, and choose its nodes once, at the ending that makes enough fit.
fn reserve(
    view: &ScratchView<'_>,
    plan: &PartitionPlan<'_>,
    blocker: &Job,
    endings: &[(Timestamp, &Job)],
) -> Reservation {
    let mut scratch = view.clone();
    // The partition's nodes the blocker does not fit yet, by position.
    let mut waiting: Vec<u32> = plan.order.iter().map(|&(_, pos)| pos).collect();
    waiting.retain(|&pos| !scratch.fits(pos, &blocker.req));
    waiting.sort_unstable();
    for &(end, job) in endings {
        for name in &job.nodes {
            let Some(pos) = scratch.position(name) else {
                continue;
            };
            scratch.release(pos, job.req.per_node_tres());
            if let Ok(i) = waiting.binary_search(&pos) {
                if scratch.fits(pos, &blocker.req) {
                    waiting.remove(i);
                }
            }
        }
        if plan.order.len() - waiting.len() >= blocker.req.nodes as usize {
            let order = scratch.best_fit_order(plan.partition);
            let mut nodes = scratch
                .select(&order, &blocker.req, &[])
                .expect("enough of the partition's nodes fit");
            nodes.sort_unstable();
            return Reservation { shadow: end, nodes };
        }
    }
    Reservation {
        shadow: Timestamp(u64::MAX),
        nodes: Vec::new(),
    }
}

/// Can `job` start now without delaying the blocker? Either it finishes
/// before the shadow time (then any nodes are fine), or it avoids the
/// reserved nodes entirely.
fn try_backfill(
    view: &ScratchView<'_>,
    order: &[(u32, u32)],
    job: &Job,
    reservation: &Reservation,
    now: Timestamp,
) -> Option<Vec<u32>> {
    let limit = job.req.time_limit.as_secs();
    let guaranteed_end = limit.map_or(u64::MAX, |secs| now.as_secs().saturating_add(secs));
    let reserved: &[u32] = if Timestamp(guaranteed_end) <= reservation.shadow {
        &[]
    } else {
        &reservation.nodes
    };
    view.select(order, &job.req, reserved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::Account;
    use crate::job::{JobRequest, JobState, UsageProfile};
    use hpcdash_simtime::TimeLimit;

    fn mk_job(id: u32, cpus: u32, nodes: u32, limit_secs: u64) -> Job {
        let mut req = JobRequest::simple("alice", "physics", "cpu", cpus);
        req.nodes = nodes;
        req.mem_mb_per_node = 1_000;
        req.time_limit = TimeLimit::Limited(limit_secs);
        req.usage = UsageProfile::batch(limit_secs / 2);
        Job {
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
        }
    }

    struct Fixture {
        nodes: BTreeMap<String, Node>,
        partitions: BTreeMap<String, Partition>,
        qos: BTreeMap<String, Qos>,
        assoc: AssocStore,
    }

    fn fixture(node_count: usize, cpus_per_node: u32) -> Fixture {
        let mut nodes = BTreeMap::new();
        for i in 1..=node_count {
            let n = Node::new(format!("a{i:03}"), cpus_per_node, 64_000, 0);
            nodes.insert(n.name.clone(), n);
        }
        let part = Partition::new("cpu").with_nodes(nodes.keys().cloned().collect());
        let mut partitions = BTreeMap::new();
        partitions.insert("cpu".to_string(), part);
        let mut qos = BTreeMap::new();
        qos.insert("normal".to_string(), Qos::new("normal", 0));
        let mut assoc = AssocStore::new();
        assoc.add_account(Account::new("physics"));
        assoc.add_user("physics", "alice");
        Fixture {
            nodes,
            partitions,
            qos,
            assoc,
        }
    }

    fn plan(fix: &Fixture, running: &[&Job], pending: &[&Job], now: u64) -> Vec<ScheduleDecision> {
        plan_schedule(PlanInputs {
            nodes: &fix.nodes,
            partitions: &fix.partitions,
            qos: &fix.qos,
            assoc: &fix.assoc,
            running,
            pending,
            now: Timestamp(now),
        })
    }

    #[test]
    fn starts_jobs_that_fit() {
        let fix = fixture(2, 16);
        let j1 = mk_job(1, 16, 1, 3_600);
        let j2 = mk_job(2, 16, 1, 3_600);
        let p = plan(&fix, &[], &[&j1, &j2], 0);
        assert!(matches!(
            p[0],
            ScheduleDecision::Start {
                backfilled: false,
                ..
            }
        ));
        assert!(matches!(
            p[1],
            ScheduleDecision::Start {
                backfilled: false,
                ..
            }
        ));
    }

    #[test]
    fn first_unfittable_becomes_resources_blocker() {
        let fix = fixture(2, 16);
        let wide = mk_job(1, 16, 2, 3_600); // needs both nodes
        let filler = mk_job(2, 16, 2, 3_600);
        let p = plan(&fix, &[], &[&wide, &filler], 0);
        // wide starts (fits on empty cluster); filler blocked.
        assert!(matches!(p[0], ScheduleDecision::Start { .. }));
        assert_eq!(
            p[1],
            ScheduleDecision::Pend {
                job: JobId(2),
                reason: PendingReason::Resources
            }
        );
    }

    #[test]
    fn backfill_short_job_behind_blocker() {
        // One node busy until t=1000 (its limit); blocker wants 2 nodes.
        let mut fix = fixture(2, 16);
        let mut running = mk_job(9, 16, 1, 1_000);
        running.state = JobState::Running;
        running.start_time = Some(Timestamp(0));
        running.nodes = vec!["a001".to_string()];
        fix.nodes
            .get_mut("a001")
            .unwrap()
            .allocate(running.req.per_node_tres(), Timestamp(0));
        let blocker = mk_job(1, 16, 2, 3_600);
        // Ends exactly at the shadow (1000): may use any node.
        let short = mk_job(2, 8, 1, 1_000);
        // One second past the shadow, and a002 is reserved: must wait.
        let long = mk_job(3, 8, 1, 1_001);
        let p = plan(&fix, &[&running], &[&blocker, &short, &long], 0);
        assert_eq!(
            p[0],
            ScheduleDecision::Pend {
                job: JobId(1),
                reason: PendingReason::Resources
            }
        );
        assert_eq!(
            p[1],
            ScheduleDecision::Start {
                job: JobId(2),
                nodes: vec!["a002".to_string()],
                backfilled: true
            },
            "short job should backfill"
        );
        // The long job must not delay the blocker; a002 is reserved, a001 is
        // full, so it pends with Priority.
        assert_eq!(
            p[2],
            ScheduleDecision::Pend {
                job: JobId(3),
                reason: PendingReason::Priority
            }
        );
    }

    #[test]
    fn reservation_walk_stops_at_the_first_ending_that_makes_room() {
        // Four nodes, each busy until a different limit; the blocker needs
        // two whole nodes, so its shadow is the second ending (t=200) and
        // it holds the two nodes freed by then.
        let mut fix = fixture(4, 16);
        let running: Vec<Job> = [(400, "a001"), (100, "a002"), (300, "a003"), (200, "a004")]
            .into_iter()
            .enumerate()
            .map(|(i, (limit, node))| {
                let mut j = mk_job(10 + i as u32, 16, 1, limit);
                j.state = JobState::Running;
                j.start_time = Some(Timestamp(0));
                j.nodes = vec![node.to_string()];
                j
            })
            .collect();
        for j in &running {
            fix.nodes
                .get_mut(&j.nodes[0])
                .unwrap()
                .allocate(j.req.per_node_tres(), Timestamp(0));
        }
        let running: Vec<&Job> = running.iter().collect();
        let blocker = mk_job(1, 16, 2, 3_600);
        let view = ScratchView::new(&fix.nodes);
        let cpu = PartitionPlan {
            partition: &fix.partitions["cpu"],
            order: view.best_fit_order(&fix.partitions["cpu"]),
            blocker: None,
        };
        let endings = by_expected_end(&running, Timestamp(0));
        let r = reserve(&view, &cpu, &blocker, &endings);
        assert_eq!(r.shadow, Timestamp(200));
        let held: Vec<&str> = r.nodes.iter().map(|&p| view.name(p)).collect();
        assert_eq!(held, ["a002", "a004"]);
        assert_eq!(
            plan(&fix, &running, &[&blocker], 0),
            [ScheduleDecision::Pend {
                job: JobId(1),
                reason: PendingReason::Resources
            }]
        );
    }

    #[test]
    fn assoc_limit_reason() {
        let mut fix = fixture(2, 16);
        fix.assoc
            .add_account(Account::new("tiny").with_cpu_limit(8));
        fix.assoc.add_user("tiny", "alice");
        let mut j = mk_job(1, 16, 1, 3_600);
        j.req.account = "tiny".to_string();
        let p = plan(&fix, &[], &[&j], 0);
        assert_eq!(
            p[0],
            ScheduleDecision::Pend {
                job: JobId(1),
                reason: PendingReason::AssocGrpCpuLimit
            }
        );
    }

    #[test]
    fn assoc_limit_counts_planned_starts() {
        // Account capped at 16 CPUs: first job takes all of it, second must
        // pend even though the plan has not been applied to live state yet.
        let mut fix = fixture(2, 16);
        fix.assoc
            .add_account(Account::new("capped").with_cpu_limit(16));
        fix.assoc.add_user("capped", "alice");
        let mut j1 = mk_job(1, 16, 1, 3_600);
        j1.req.account = "capped".to_string();
        let mut j2 = mk_job(2, 16, 1, 3_600);
        j2.req.account = "capped".to_string();
        let p = plan(&fix, &[], &[&j1, &j2], 0);
        assert!(matches!(p[0], ScheduleDecision::Start { .. }));
        assert_eq!(
            p[1],
            ScheduleDecision::Pend {
                job: JobId(2),
                reason: PendingReason::AssocGrpCpuLimit
            }
        );
    }

    #[test]
    fn qos_running_cap() {
        let mut fix = fixture(4, 16);
        fix.qos.insert(
            "high".to_string(),
            Qos::new("high", 100).with_max_jobs_per_user(1),
        );
        let mut j1 = mk_job(1, 1, 1, 600);
        j1.req.qos = "high".to_string();
        let mut j2 = mk_job(2, 1, 1, 600);
        j2.req.qos = "high".to_string();
        let p = plan(&fix, &[], &[&j1, &j2], 0);
        assert!(matches!(p[0], ScheduleDecision::Start { .. }));
        assert_eq!(
            p[1],
            ScheduleDecision::Pend {
                job: JobId(2),
                reason: PendingReason::QosMaxJobsPerUser
            }
        );
    }

    #[test]
    fn partition_down_and_timelimit_reasons() {
        let mut fix = fixture(1, 16);
        let j = mk_job(1, 1, 1, 600);
        fix.partitions.get_mut("cpu").unwrap().state = PartitionState::Down;
        let p = plan(&fix, &[], &[&j], 0);
        assert_eq!(
            p[0],
            ScheduleDecision::Pend {
                job: JobId(1),
                reason: PendingReason::PartitionDown
            }
        );

        fix.partitions.get_mut("cpu").unwrap().state = PartitionState::Up;
        fix.partitions.get_mut("cpu").unwrap().max_time = TimeLimit::Limited(60);
        let p = plan(&fix, &[], &[&j], 0);
        assert_eq!(
            p[0],
            ScheduleDecision::Pend {
                job: JobId(1),
                reason: PendingReason::PartitionTimeLimit
            }
        );
    }

    #[test]
    fn impossible_request_is_bad_constraints() {
        let fix = fixture(2, 16);
        let giant = mk_job(1, 64, 1, 600);
        let p = plan(&fix, &[], &[&giant], 0);
        assert_eq!(
            p[0],
            ScheduleDecision::Pend {
                job: JobId(1),
                reason: PendingReason::BadConstraints
            }
        );
    }

    #[test]
    fn array_throttle() {
        use crate::job::ArrayMeta;
        let fix = fixture(4, 16);
        let mut t0 = mk_job(10, 1, 1, 600);
        t0.array = Some(ArrayMeta {
            array_job_id: JobId(10),
            task_id: 0,
            max_concurrent: Some(1),
        });
        let mut t1 = mk_job(11, 1, 1, 600);
        t1.array = Some(ArrayMeta {
            array_job_id: JobId(10),
            task_id: 1,
            max_concurrent: Some(1),
        });
        let p = plan(&fix, &[], &[&t0, &t1], 0);
        assert!(matches!(p[0], ScheduleDecision::Start { .. }));
        assert_eq!(
            p[1],
            ScheduleDecision::Pend {
                job: JobId(11),
                reason: PendingReason::JobArrayTaskLimit
            }
        );
    }
}
