//! The command boundary allocates for its output and nothing else: a
//! renderer makes one pre-sized `String` for the whole table, a parser makes
//! its `Vec` of records and the strings each record keeps — no `String` per
//! field, no `Vec` per line.
//!
//! Alone in its file because it installs a counting global allocator; the
//! count is kept per thread, so the harness's own threads do not disturb it.

use hpcdash_simtime::{TimeLimit, Timestamp};
use hpcdash_slurm::job::{ArrayMeta, Job, JobId, JobRequest, JobState, JobStats, PendingReason};
use hpcdash_slurmcli::{parse_sacct, parse_squeue_long, sacct, squeue};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a counter in a
// const-initialized thread-local `Cell<u64>`, which allocates nothing and
// has no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counted<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

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

#[test]
fn a_thousand_sacct_rows_cost_their_output_and_the_strings_a_record_keeps() {
    let jobs = jobs();
    let now = Timestamp(1_784_000_000);

    let (text, during) = counted(|| sacct::render(&jobs, now));
    assert_eq!(text.lines().count(), ROWS + 1);
    // The pre-sized output, and room for a guess that ran short. The
    // pre-streaming renderer made some 25 allocations per row.
    assert!(during <= 8, "{during} allocations to render {ROWS} rows");

    let (records, during) = counted(|| parse_sacct(&text).expect("rendered text parses"));
    assert_eq!(records.len(), ROWS);
    // A record keeps nine strings: id, name, user, account, partition, qos,
    // exit code, node list, comment. The rest is numbers.
    let bound = 9 * ROWS as u64 + 8;
    assert!(
        during <= bound,
        "{during} allocations to parse {ROWS} rows (bound {bound})"
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
    // Six strings: id, partition, name, user, time limit, node list.
    let bound = 6 * ROWS as u64 + 8;
    assert!(
        during <= bound,
        "{during} allocations to parse {ROWS} rows (bound {bound})"
    );
}
