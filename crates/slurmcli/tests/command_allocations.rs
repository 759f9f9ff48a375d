//! The command boundary allocates for its output and nothing else: a
//! renderer makes one pre-sized `String` for the whole table, a parser makes
//! its `Vec` of records, which borrow their text from the output — no
//! `String` per field, no `Vec` or map per record.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash_simtime::{TimeLimit, Timestamp};
use hpcdash_slurm::job::{ArrayMeta, Job, JobId, JobRequest, JobState, JobStats, PendingReason};
use hpcdash_slurm::node::{AdminFlag, Node};
use hpcdash_slurm::tres::Tres;
use hpcdash_slurmcli::{parse_sacct, parse_show_node, parse_squeue_long, sacct, scontrol, squeue};
use hpcdash_testkit::{counted, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ROWS: usize = 1_000;

/// Every shape a row takes: array tasks, no end, no nodes, no stats, no
/// comment, `UNLIMITED`, a name the renderers must clean, day-long times.
fn jobs() -> Vec<Job> {
    (0..ROWS as u32)
        .map(|i| {
            let mut req = JobRequest::simple("alice", "physics", "cpu", 1 + i % 64);
            req.name = if i % 7 == 0 {
                format!("odd|name {i}\nx")
            } else {
                format!("run-{i}")
            };
            req.gpus_per_node = i % 3;
            req.time_limit = if i % 11 == 0 {
                TimeLimit::Unlimited
            } else {
                TimeLimit::Limited(600 * u64::from(i))
            };
            req.comment = (i % 2 == 0).then(|| format!("ood:jupyter:sess{i}:/home/alice"));
            let pending = i % 5 == 0;
            Job {
                id: JobId(10_000 + i),
                array: (i % 4 == 0).then_some(ArrayMeta {
                    array_job_id: JobId(10_000 + i - i % 16),
                    task_id: i % 16,
                    max_concurrent: None,
                }),
                req,
                state: if pending {
                    JobState::Pending
                } else {
                    JobState::Completed
                },
                reason: pending.then_some(PendingReason::Priority),
                priority: 1,
                submit_time: Timestamp(1_783_000_000 + u64::from(i)),
                eligible_time: Timestamp(1_783_000_000 + u64::from(i)),
                start_time: (!pending).then_some(Timestamp(1_783_000_100 + u64::from(i))),
                end_time: (!pending).then_some(Timestamp(1_783_000_100 + 1_000 * u64::from(i))),
                nodes: if pending {
                    Vec::new()
                } else {
                    vec!["a001".to_string(), "a002".to_string()]
                },
                exit_code: (i % 3 == 0).then_some((1, 0)),
                stats: (i % 2 == 1).then_some(JobStats {
                    total_cpu_secs: 977 * u64::from(i),
                    max_rss_mb: 1_024 * u64::from(i % 40) + u64::from(i % 2),
                }),
                stdout_path: String::new(),
                stderr_path: String::new(),
            }
        })
        .collect()
}

/// What a parse of a thousand rows may allocate: the records' `Vec`, and
/// room for a size guess that ran short. Measured: one allocation for
/// `sacct` and for `squeue`, two for the node records. Owned records took
/// 8 501, 6 001 and 39 600: nine strings per `sacct` row, six per `squeue`
/// row, and a map of every token plus two lists per node.
const PARSE_BOUND: u64 = 8;

#[test]
fn a_thousand_sacct_rows_cost_their_output_and_one_vec() {
    let jobs = jobs();
    let now = Timestamp(1_784_000_000);

    let (text, during) = counted(|| sacct::render(&jobs, now));
    assert_eq!(text.lines().count(), ROWS + 1);
    // The pre-sized output, and room for a guess that ran short. The
    // pre-streaming renderer made some 25 allocations per row.
    assert!(during <= 8, "{during} allocations to render {ROWS} rows");

    let (records, during) = counted(|| parse_sacct(&text).expect("rendered text parses"));
    assert_eq!(records.len(), ROWS);
    assert!(
        during <= PARSE_BOUND,
        "{during} allocations to parse {ROWS} rows"
    );
}

#[test]
fn a_thousand_squeue_rows_cost_the_same_kind() {
    let jobs = jobs();
    let now = Timestamp(1_784_000_000);

    let (short, during) = counted(|| squeue::render(&jobs, now));
    assert_eq!(short.lines().count(), ROWS + 1);
    assert!(during <= 8, "{during} allocations to render {ROWS} rows");

    let (text, during) = counted(|| squeue::render_long(&jobs, now));
    assert_eq!(text.lines().count(), ROWS + 1);
    assert!(during <= 8, "{during} allocations to render {ROWS} rows");

    let (rows, during) = counted(|| parse_squeue_long(&text).expect("rendered text parses"));
    assert_eq!(rows.len(), ROWS);
    assert!(
        during <= PARSE_BOUND,
        "{during} allocations to parse {ROWS} rows"
    );
}

#[test]
fn a_thousand_node_records_cost_one_vec() {
    // Every shape a record takes: GPUs or none, features or `(null)`,
    // drained with a reason, allocated or idle.
    let text = (0..ROWS as u32)
        .map(|i| {
            let mut node = Node::new(format!("n{i:04}"), 128, 257_000, 4 * (i % 2));
            if i % 3 > 0 {
                node.features = vec!["avx512".to_string(), "ib".to_string()];
            }
            node.partitions = vec!["cpu".to_string(), "debug".to_string()];
            node.gpu_type = (i % 2 == 1).then(|| "a100".to_string());
            if i % 5 == 0 {
                node.admin_flag = AdminFlag::Drain;
                node.reason = Some(format!("bad dimm {i}"));
            } else {
                node.allocate(Tres::new(i % 128, 1_000, 0, 1), Timestamp(500));
            }
            scontrol::render_node(&node)
        })
        .collect::<Vec<_>>()
        .join("\n");

    let (nodes, during) = counted(|| parse_show_node(&text).expect("rendered text parses"));
    assert_eq!(nodes.len(), ROWS);
    assert!(
        during <= PARSE_BOUND,
        "{during} allocations to parse {ROWS} node records"
    );
    // The key=value view is built only when asked for.
    assert_eq!(nodes[1].details()["Gres"], "gpu:a100:4");
}
