//! `squeue`: live queue listing against slurmctld.
//!
//! Output matches the default format:
//! `JOBID PARTITION NAME USER ST TIME NODES NODELIST(REASON)`.

use crate::{cleaned, joined, no_space, put, time_or};
use hpcdash_obs::Span;
use hpcdash_simtime::{Elapsed, Timestamp};
use hpcdash_slurm::ctld::{JobQuery, Slurmctld};
use hpcdash_slurm::job::{Job, JobState, PendingReason};
use std::fmt;

/// Flags the dashboard passes to `squeue`.
#[derive(Debug, Clone, Default)]
pub struct SqueueArgs {
    /// `-u <user>`
    pub user: Option<String>,
    /// `-A <accounts>` (OR-combined with `-u`, like the dashboard's group
    /// visibility rule)
    pub accounts: Vec<String>,
    /// `-p <partition>`
    pub partition: Option<String>,
}

/// One parsed `squeue` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqueueRow {
    /// Display id (`1234` or `1234_7`).
    pub job_id: String,
    pub partition: String,
    pub name: String,
    pub user: String,
    pub state: JobState,
    /// Elapsed seconds (0 while pending).
    pub time_secs: u64,
    pub nodes: u32,
    /// Node list for running jobs, or the pending reason.
    pub nodelist_or_reason: String,
}

impl SqueueRow {
    /// The pending reason, when the row carries one.
    pub fn reason(&self) -> Option<PendingReason> {
        let inner = self
            .nodelist_or_reason
            .strip_prefix('(')?
            .strip_suffix(')')?;
        PendingReason::parse(inner)
    }
}

const HEADER: &str = "JOBID PARTITION NAME USER ST TIME NODES NODELIST(REASON)";
const LONG_HEADER: &str =
    "JOBID PARTITION NAME USER STATE SUBMIT_TIME START_TIME TIME TIME_LIMIT NODES NODELIST(REASON)";

/// One parsed line of the long format (`squeue -o "%i %P %j %u %T %V %S %M %l %D %R"`),
/// which the Recent Jobs widget uses because it needs submit/start times.
#[derive(Debug, Clone, PartialEq)]
pub struct SqueueLongRow {
    pub job_id: String,
    pub partition: String,
    pub name: String,
    pub user: String,
    pub state: JobState,
    pub submit_time: Option<Timestamp>,
    pub start_time: Option<Timestamp>,
    pub time_secs: u64,
    pub time_limit: String,
    pub nodes: u32,
    pub nodelist_or_reason: String,
}

impl SqueueLongRow {
    pub fn reason(&self) -> Option<PendingReason> {
        let inner = self
            .nodelist_or_reason
            .strip_prefix('(')?
            .strip_suffix(')')?;
        PendingReason::parse(inner)
    }
}

/// Run `squeue` with the long format. `Err` is the command failing the way
/// a real popen would: non-zero exit, message on stderr.
pub fn squeue_long(ctld: &Slurmctld, args: &SqueueArgs) -> Result<String, String> {
    let _span = Span::enter("slurmcli").attr("cmd", "squeue_long");
    let query = JobQuery {
        user: args.user.clone(),
        accounts: args.accounts.clone(),
        partition: args.partition.clone(),
        node: None,
    };
    let mut jobs = ctld.query_jobs(&query);
    jobs.sort_by_key(|j| std::cmp::Reverse(j.submit_time));
    let now = ctld.clock_now();
    crate::boundary(ctld.faults(), "squeue", render_long(&jobs, now))
}

/// The `TIME` column: elapsed so far, `0:00` while pending.
fn time(job: &Job, now: Timestamp) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| match job.state {
        JobState::Pending => f.write_str("0:00"),
        _ => fmt::Display::fmt(&Elapsed(job.elapsed_secs(now)), f),
    })
}

/// The `NODELIST(REASON)` column.
fn nodes_or_reason(job: &Job) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| {
        if job.nodes.is_empty() {
            let reason = job.reason.map(|r| r.to_slurm()).unwrap_or("None");
            f.write_str("(")?;
            f.write_str(reason)?;
            f.write_str(")")
        } else {
            fmt::Display::fmt(&joined(&job.nodes, ""), f)
        }
    })
}

/// A job name as a `squeue` column ([`display_name`], streamed).
fn column(name: &str) -> impl fmt::Display + '_ {
    cleaned(name, no_space, "-")
}

/// Render the long format (newest submissions first, as the widget shows).
/// Generic over `Borrow<Job>` so it accepts both owned rows (tests) and the
/// shared `Arc<Job>` rows the snapshot read path returns.
pub fn render_long<J: std::borrow::Borrow<Job>>(jobs: &[J], now: Timestamp) -> String {
    let mut out = String::with_capacity((jobs.len() + 1) * 128);
    out.push_str(LONG_HEADER);
    out.push('\n');
    for job in jobs {
        let job = job.borrow();
        put!(
            &mut out,
            "{} {} {} {} {} {} {} {} {} {} {}\n",
            job.shown_id(),
            job.req.partition,
            column(&job.req.name),
            job.req.user,
            job.state.to_slurm(),
            job.submit_time,
            time_or(job.start_time, "N/A"),
            time(job, now),
            job.req.time_limit,
            job.req.nodes,
            nodes_or_reason(job),
        );
    }
    out
}

/// Parse long-format output.
pub fn parse_squeue_long(text: &str) -> Result<Vec<SqueueLongRow>, String> {
    crate::note_parse();
    let mut lines = text.lines();
    if let Some(header) = lines.next().filter(|h| h.trim() != LONG_HEADER) {
        return Err(format!("unexpected squeue long header: {header:?}"));
    }
    let mut rows = Vec::with_capacity(text.len() / LONG_HEADER.len());
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let parts = crate::fields::<11>(crate::words(line))
            .map_err(|n| format!("malformed squeue long line ({n} cols): {line:?}"))?;
        let state = JobState::parse(parts[4]).ok_or_else(|| format!("bad state {:?}", parts[4]))?;
        let time_secs = if parts[7] == "0:00" {
            0
        } else {
            hpcdash_simtime::parse_duration(parts[7])
                .ok_or_else(|| format!("bad time {:?}", parts[7]))?
        };
        rows.push(SqueueLongRow {
            job_id: parts[0].to_string(),
            partition: parts[1].to_string(),
            name: parts[2].to_string(),
            user: parts[3].to_string(),
            state,
            submit_time: hpcdash_simtime::parse_timestamp(parts[5]),
            start_time: hpcdash_simtime::parse_timestamp(parts[6]),
            time_secs,
            time_limit: parts[8].to_string(),
            nodes: parts[9]
                .parse()
                .map_err(|_| format!("bad node count {:?}", parts[9]))?,
            nodelist_or_reason: parts[10].to_string(),
        });
    }
    Ok(rows)
}

/// Run `squeue` against the daemon and return its textual output. `Err`
/// is the command failing the way a real popen would.
pub fn squeue(ctld: &Slurmctld, args: &SqueueArgs) -> Result<String, String> {
    let _span = Span::enter("slurmcli").attr("cmd", "squeue");
    let query = JobQuery {
        user: args.user.clone(),
        accounts: args.accounts.clone(),
        partition: args.partition.clone(),
        node: None,
    };
    let mut jobs = ctld.query_jobs(&query);
    jobs.sort_by_key(|j| j.id);
    let now = ctld.clock_now();
    crate::boundary(ctld.faults(), "squeue", render(&jobs, now))
}

/// Render job records as `squeue` text (separated so tests can build rows
/// without a daemon). Generic over `Borrow<Job>` — see [`render_long`].
pub fn render<J: std::borrow::Borrow<Job>>(jobs: &[J], now: Timestamp) -> String {
    let mut out = String::with_capacity((jobs.len() + 1) * 80);
    out.push_str(HEADER);
    out.push('\n');
    for job in jobs {
        let job = job.borrow();
        put!(
            &mut out,
            "{} {} {} {} {} {} {} {}\n",
            job.shown_id(),
            job.req.partition,
            column(&job.req.name),
            job.req.user,
            job.state.to_compact(),
            time(job, now),
            job.req.nodes,
            nodes_or_reason(job),
        );
    }
    out
}

/// Parse `squeue` output back into rows.
pub fn parse_squeue(text: &str) -> Result<Vec<SqueueRow>, String> {
    crate::note_parse();
    let mut lines = text.lines();
    if let Some(header) = lines.next().filter(|h| h.trim() != HEADER) {
        return Err(format!("unexpected squeue header: {header:?}"));
    }
    let mut rows = Vec::with_capacity(text.len() / HEADER.len());
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let parts = crate::fields::<8>(crate::words(line))
            .map_err(|n| format!("malformed squeue line ({n} cols): {line:?}"))?;
        let state = JobState::parse(parts[4]).ok_or_else(|| format!("bad state {:?}", parts[4]))?;
        let time_secs = if parts[5] == "0:00" {
            0
        } else {
            hpcdash_simtime::parse_duration(parts[5])
                .ok_or_else(|| format!("bad time {:?}", parts[5]))?
        };
        rows.push(SqueueRow {
            job_id: parts[0].to_string(),
            partition: parts[1].to_string(),
            name: parts[2].to_string(),
            user: parts[3].to_string(),
            state,
            time_secs,
            nodes: parts[6]
                .parse()
                .map_err(|_| format!("bad node count {:?}", parts[6]))?,
            nodelist_or_reason: parts[7].to_string(),
        });
    }
    Ok(rows)
}

/// Job names can contain whitespace; squeue columns cannot. Public so the
/// structured widget path renders names exactly as a squeue round-trip
/// would (the byte-parity the opt-in flag promises).
pub fn display_name(name: &str) -> String {
    column(name).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::TimeLimit;
    use hpcdash_slurm::job::{JobId, JobRequest, UsageProfile};
    use proptest::prelude::*;

    fn job(id: u32, state: JobState) -> Job {
        let mut req = JobRequest::simple("alice", "physics", "cpu", 4);
        req.name = format!("sim-{id}");
        req.time_limit = TimeLimit::Limited(3_600);
        req.usage = UsageProfile::batch(600);
        Job {
            id: JobId(id),
            array: None,
            req,
            state,
            reason: if state == JobState::Pending {
                Some(PendingReason::Priority)
            } else {
                None
            },
            priority: 1,
            submit_time: Timestamp(0),
            eligible_time: Timestamp(0),
            start_time: (state != JobState::Pending).then_some(Timestamp(100)),
            end_time: None,
            nodes: if state == JobState::Running {
                vec!["a001".to_string()]
            } else {
                Vec::new()
            },
            exit_code: None,
            stats: None,
            stdout_path: String::new(),
            stderr_path: String::new(),
        }
    }

    #[test]
    fn render_and_parse_roundtrip() {
        let jobs = vec![job(1, JobState::Running), job(2, JobState::Pending)];
        let text = render(&jobs, Timestamp(700));
        let rows = parse_squeue(&text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].job_id, "1");
        assert_eq!(rows[0].state, JobState::Running);
        assert_eq!(rows[0].time_secs, 600);
        assert_eq!(rows[0].nodelist_or_reason, "a001");
        assert_eq!(rows[1].state, JobState::Pending);
        assert_eq!(rows[1].time_secs, 0);
        assert_eq!(rows[1].reason(), Some(PendingReason::Priority));
        assert_eq!(rows[0].reason(), None);
    }

    #[test]
    fn header_mismatch_rejected() {
        assert!(parse_squeue("BOGUS HEADER\n").is_err());
        assert_eq!(
            parse_squeue("").unwrap(),
            Vec::<SqueueRow>::new(),
            "empty output is an empty queue"
        );
    }

    #[test]
    fn malformed_lines_rejected() {
        let text = format!("{HEADER}\n1 cpu name alice R\n");
        assert!(parse_squeue(&text).is_err());
        let text = format!("{HEADER}\n1 cpu name alice ZZ 0:00 1 (Priority)\n");
        assert!(parse_squeue(&text).is_err());
    }

    #[test]
    fn long_format_roundtrip() {
        let mut running = job(3, JobState::Running);
        running.submit_time = Timestamp(50);
        let jobs = vec![running, job(4, JobState::Pending)];
        let text = render_long(&jobs, Timestamp(700));
        let rows = parse_squeue_long(&text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].submit_time, Some(Timestamp(50)));
        assert_eq!(rows[0].start_time, Some(Timestamp(100)));
        assert_eq!(rows[0].time_secs, 600);
        assert_eq!(rows[0].time_limit, "01:00:00");
        assert_eq!(rows[1].start_time, None);
        assert_eq!(rows[1].reason(), Some(PendingReason::Priority));
        assert!(parse_squeue_long("BAD\n").is_err());
    }

    #[test]
    fn names_with_spaces_sanitized() {
        let mut j = job(1, JobState::Pending);
        j.req.name = "my cool job".to_string();
        let text = render(&[j], Timestamp(0));
        let rows = parse_squeue(&text).unwrap();
        assert_eq!(rows[0].name, "my_cool_job");
    }

    proptest! {
        #[test]
        fn roundtrip_many(ids in proptest::collection::vec(1u32..100_000, 0..20)) {
            let jobs: Vec<Job> = ids
                .iter()
                .enumerate()
                .map(|(i, id)| job(*id, if i % 2 == 0 { JobState::Running } else { JobState::Pending }))
                .collect();
            let text = render(&jobs, Timestamp(10_000));
            let rows = parse_squeue(&text).unwrap();
            prop_assert_eq!(rows.len(), jobs.len());
            for (row, job) in rows.iter().zip(&jobs) {
                prop_assert_eq!(&row.job_id, &job.display_id());
                prop_assert_eq!(row.state, job.state);
            }
        }
    }
}
