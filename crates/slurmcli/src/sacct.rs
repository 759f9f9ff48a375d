//! `sacct --parsable2`: accounting queries against slurmdbd.
//!
//! This is the dashboard's workhorse: My Jobs (paper §4), Job Performance
//! Metrics (§5) and the efficiency engine all read these records. Field set
//! mirrors the flags the paper's dashboard passes to sacct — identity,
//! timing, allocation, and usage (`TotalCPU`, `MaxRSS`) for efficiency.

use crate::{cleaned, columns, Cleaned, Joined, Or, Put, ShownId};
use hpcdash_obs::Span;
use hpcdash_simtime::{parse_duration, parse_timestamp, Elapsed, TimeLimit, Timestamp};
use hpcdash_slurm::dbd::{JobFilter, Slurmdbd};
use hpcdash_slurm::job::{Job, JobId, JobState};
use hpcdash_slurm::tres::{parse_mem_mb, MemMb, Tres};
use std::borrow::Borrow;

/// The field list the dashboard requests (sacct `--format=`).
pub const SACCT_FIELDS: [&str; 21] = [
    "JobID",
    "JobName",
    "User",
    "Account",
    "Partition",
    "QOS",
    "State",
    "Submit",
    "Start",
    "End",
    "Elapsed",
    "Timelimit",
    "AllocCPUS",
    "AllocNodes",
    "AllocTRES",
    "ReqMem",
    "MaxRSS",
    "TotalCPU",
    "ExitCode",
    "NodeList",
    "Comment",
];

/// Flags for an accounting query.
#[derive(Debug, Clone, Default)]
pub struct SacctArgs {
    /// `-u`
    pub user: Option<String>,
    /// `-A` (OR-combined with `-u` for group visibility)
    pub accounts: Vec<String>,
    /// `--state`
    pub states: Option<Vec<JobState>>,
    /// `-S`
    pub since: Option<Timestamp>,
    /// `-E`
    pub until: Option<Timestamp>,
    /// `-j`
    pub job_ids: Option<Vec<JobId>>,
}

impl SacctArgs {
    fn to_filter(&self) -> JobFilter {
        JobFilter {
            user: self.user.clone(),
            accounts: self.accounts.clone(),
            states: self.states.clone(),
            since: self.since,
            until: self.until,
            job_ids: self.job_ids.clone(),
        }
    }
}

/// One parsed accounting record. Its text fields are slices of the
/// `sacct` output it was parsed from: a record costs no allocation of its
/// own, and lives as long as that text.
#[derive(Debug, Clone, PartialEq)]
pub struct SacctRecord<'t> {
    pub job_id: &'t str,
    pub job_name: &'t str,
    pub user: &'t str,
    pub account: &'t str,
    pub partition: &'t str,
    pub qos: &'t str,
    pub state: JobState,
    pub submit: Option<Timestamp>,
    pub start: Option<Timestamp>,
    pub end: Option<Timestamp>,
    pub elapsed_secs: u64,
    pub timelimit: TimeLimit,
    pub alloc_cpus: u32,
    pub alloc_nodes: u32,
    /// Full allocated TRES bundle (CPUs, memory, GPUs, nodes).
    pub alloc_tres: Tres,
    /// Requested memory per node, MB.
    pub req_mem_mb: u64,
    /// Peak RSS, MB (None until the job has usage data).
    pub max_rss_mb: Option<u64>,
    /// Consumed CPU time, seconds (None until the job has usage data).
    pub total_cpu_secs: Option<u64>,
    pub exit_code: &'t str,
    pub nodelist: &'t str,
    pub comment: &'t str,
}

impl SacctRecord<'_> {
    /// GPU-hours consumed by this record.
    pub fn gpu_hours(&self) -> f64 {
        self.alloc_tres.gpus as f64 * self.elapsed_secs as f64 / 3_600.0
    }

    /// Queue wait in seconds, when start is known.
    pub fn wait_secs(&self) -> Option<u64> {
        match (self.submit, self.start) {
            (Some(s), Some(st)) => Some(st.since(s)),
            _ => None,
        }
    }
}

/// Run an accounting query and return `--parsable2` text. `now` is used to
/// report elapsed-so-far for still-running jobs, as real sacct does.
pub fn sacct(dbd: &Slurmdbd, args: &SacctArgs, now: Timestamp) -> Result<String, String> {
    let _span = Span::enter("slurmcli").attr("cmd", "sacct");
    let jobs = dbd.query_jobs(&args.to_filter());
    crate::boundary(dbd.faults(), "sacct", render(&jobs, now))
}

/// About what one row takes; sizes the output once for the whole table.
const ROW_BYTES: usize = 224;

/// Render accounting records as parsable2 text. Generic over `Borrow<Job>`
/// so it takes the shared `Arc<Job>` rows the daemon hands out as they are.
pub fn render<J: Borrow<Job>>(jobs: &[J], now: Timestamp) -> String {
    let mut out = Vec::with_capacity((jobs.len() + 1) * ROW_BYTES);
    for (i, field) in SACCT_FIELDS.iter().enumerate() {
        if i > 0 {
            out.push(b'|');
        }
        field.put(&mut out);
    }
    out.push(b'\n');
    for job in jobs {
        let job = job.borrow();
        let (code, signal) = job.exit_code.unwrap_or((0, 0));
        columns!(&mut out, b'|';
            ShownId(job),
            one_line(&job.req.name),
            job.req.user,
            job.req.account,
            job.req.partition,
            job.req.qos,
            job.state.to_slurm(),
            job.submit_time,
            Or(job.start_time, "Unknown"),
            Or(job.end_time, "Unknown"),
            Elapsed(job.elapsed_secs(now)),
            job.req.time_limit,
            job.alloc_cpus(),
            job.req.nodes,
            job.req.total_tres(),
            MemMb(job.req.mem_mb_per_node),
            job.stats.map(|s| MemMb(s.max_rss_mb)),
            job.stats.map(|s| Elapsed(s.total_cpu_secs)),
            (code, b':', signal),
            Joined(&job.nodes, "None"),
            one_line(job.req.comment.as_deref().unwrap_or_default()),
        );
    }
    crate::text(out)
}

/// Free text as one column: a job name or comment may hold neither the
/// column separator nor a line break.
fn one_line(text: &str) -> Cleaned<'_, impl Fn(char) -> char> {
    cleaned(text, pipe_free, "")
}

fn pipe_free(c: char) -> char {
    match c {
        '|' => '/',
        '\n' => ' ',
        c => c,
    }
}

/// Parse parsable2 output back into records that borrow from it.
pub fn parse_sacct(text: &str) -> Result<Vec<SacctRecord<'_>>, String> {
    crate::note_parse();
    let mut rows = crate::rows::<{ SACCT_FIELDS.len() }>(text, b'|');
    let header = rows.next().map_or("", |row| row.line);
    if !header.split('|').eq(SACCT_FIELDS) {
        return Err(format!("unexpected sacct header: {header:?}"));
    }
    // A row is about as long as the header: a guess the input bounds.
    let mut out = Vec::with_capacity(text.len() / header.len());
    for row in rows {
        if row.line.trim().is_empty() {
            continue;
        }
        if row.count != SACCT_FIELDS.len() {
            let (n, line) = (row.count, row.line);
            return Err(format!("malformed sacct line ({n} fields): {line:?}"));
        }
        let f = row.fields;
        out.push(SacctRecord {
            job_id: f[0],
            job_name: f[1],
            user: f[2],
            account: f[3],
            partition: f[4],
            qos: f[5],
            state: JobState::parse(f[6]).ok_or_else(|| format!("bad state {:?}", f[6]))?,
            submit: parse_timestamp(f[7]),
            start: parse_timestamp(f[8]),
            end: parse_timestamp(f[9]),
            elapsed_secs: parse_duration(f[10])
                .ok_or_else(|| format!("bad elapsed {:?}", f[10]))?,
            timelimit: hpcdash_simtime::parse_timelimit(f[11])
                .ok_or_else(|| format!("bad timelimit {:?}", f[11]))?,
            alloc_cpus: f[12].parse().map_err(|_| format!("bad cpus {:?}", f[12]))?,
            alloc_nodes: f[13]
                .parse()
                .map_err(|_| format!("bad nodes {:?}", f[13]))?,
            alloc_tres: Tres::parse(f[14]).ok_or_else(|| format!("bad tres {:?}", f[14]))?,
            req_mem_mb: parse_mem_mb(f[15]).ok_or_else(|| format!("bad mem {:?}", f[15]))?,
            max_rss_mb: if f[16].is_empty() {
                None
            } else {
                parse_mem_mb(f[16])
            },
            total_cpu_secs: if f[17].is_empty() {
                None
            } else {
                parse_duration(f[17])
            },
            exit_code: f[18],
            nodelist: f[19],
            comment: f[20],
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_slurm::job::{JobRequest, JobStats, UsageProfile};
    use proptest::prelude::*;

    fn finished_job(id: u32) -> Job {
        let mut req = JobRequest::simple("alice", "physics", "cpu", 8);
        req.name = format!("prod-run-{id}");
        req.time_limit = TimeLimit::Limited(7_200);
        req.usage = UsageProfile::batch(3_600);
        req.comment = Some(format!("ood:jupyter:sess{id}:/home/alice/ondemand"));
        Job {
            id: JobId(id),
            array: None,
            req,
            state: JobState::Completed,
            reason: None,
            priority: 0,
            submit_time: Timestamp(1_000),
            eligible_time: Timestamp(1_000),
            start_time: Some(Timestamp(1_450)),
            end_time: Some(Timestamp(5_050)),
            nodes: vec!["a001".to_string(), "a002".to_string()],
            exit_code: Some((0, 0)),
            stats: Some(JobStats {
                total_cpu_secs: 26_000,
                max_rss_mb: 11_468,
            }),
            stdout_path: String::new(),
            stderr_path: String::new(),
        }
    }

    fn pending_job(id: u32) -> Job {
        let req = JobRequest::simple("bob", "physics", "cpu", 2);
        Job {
            id: JobId(id),
            array: None,
            req,
            state: JobState::Pending,
            reason: None,
            priority: 0,
            submit_time: Timestamp(2_000),
            eligible_time: Timestamp(2_000),
            start_time: None,
            end_time: None,
            nodes: Vec::new(),
            exit_code: None,
            stats: None,
            stdout_path: String::new(),
            stderr_path: String::new(),
        }
    }

    #[test]
    fn roundtrip_finished() {
        let jobs = vec![finished_job(42)];
        let text = render(&jobs, Timestamp(9_000));
        let recs = parse_sacct(&text).unwrap();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.job_id, "42");
        assert_eq!(r.state, JobState::Completed);
        assert_eq!(r.submit, Some(Timestamp(1_000)));
        assert_eq!(r.start, Some(Timestamp(1_450)));
        assert_eq!(r.end, Some(Timestamp(5_050)));
        assert_eq!(r.elapsed_secs, 3_600);
        assert_eq!(r.wait_secs(), Some(450));
        assert_eq!(r.alloc_cpus, 8);
        assert_eq!(r.req_mem_mb, 16_384);
        assert_eq!(r.max_rss_mb, Some(11_468));
        assert_eq!(r.total_cpu_secs, Some(26_000));
        assert_eq!(r.exit_code, "0:0");
        assert_eq!(r.nodelist, "a001,a002");
        assert!(r.comment.starts_with("ood:jupyter:"));
    }

    #[test]
    fn roundtrip_pending_has_unknowns() {
        let text = render(&[pending_job(7)], Timestamp(9_000));
        let recs = parse_sacct(&text).unwrap();
        let r = &recs[0];
        assert_eq!(r.start, None);
        assert_eq!(r.end, None);
        assert_eq!(r.elapsed_secs, 0);
        assert_eq!(r.max_rss_mb, None);
        assert_eq!(r.total_cpu_secs, None);
        assert_eq!(r.wait_secs(), None);
        assert_eq!(r.nodelist, "None");
    }

    #[test]
    fn pipe_in_name_sanitized() {
        let mut j = finished_job(1);
        j.req.name = "weird|name".to_string();
        let text = render(&[j], Timestamp(9_000));
        let recs = parse_sacct(&text).unwrap();
        assert_eq!(recs[0].job_name, "weird/name");
    }

    #[test]
    fn header_and_shape_validated() {
        assert!(parse_sacct("nope\n").is_err());
        let text = format!("{}\nonly|three|fields\n", SACCT_FIELDS.join("|"));
        assert!(parse_sacct(&text).is_err());
    }

    proptest! {
        #[test]
        fn roundtrip_random_mix(n in 0usize..12, seed in 0u32..1000) {
            let jobs: Vec<Job> = (0..n)
                .map(|i| if (seed + i as u32).is_multiple_of(3) { pending_job(i as u32 + 1) } else { finished_job(i as u32 + 1) })
                .collect();
            let text = render(&jobs, Timestamp(9_000));
            let recs = parse_sacct(&text).unwrap();
            prop_assert_eq!(recs.len(), jobs.len());
            for (r, j) in recs.iter().zip(&jobs) {
                prop_assert_eq!(&r.job_id, &j.display_id());
                prop_assert_eq!(r.state, j.state);
                prop_assert_eq!(r.alloc_cpus, j.alloc_cpus());
            }
        }
    }
}
