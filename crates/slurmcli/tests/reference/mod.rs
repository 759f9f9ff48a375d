//! The command boundary as it was before it streamed: the four grammar
//! formatters/parsers of `hpcdash-simtime` and `hpcdash-slurm` and the eight
//! render/parse pairs of this crate, kept verbatim (minus the parse counter,
//! which is crate-private, plus the one-line cleaning of the `sacct`
//! comment, which the writer took on as a fix) as the reference `command_boundary.rs` holds the
//! streaming writers and borrowing parsers to. Test-only: nothing here is
//! reachable from the library.

#![allow(dead_code)]

use hpcdash_simtime::{CivilDateTime, TimeLimit, Timestamp};
use hpcdash_slurm::ctld::AssocRecord;
use hpcdash_slurm::job::{Job, JobId, JobState, PendingReason};
use hpcdash_slurm::node::{Node, NodeState};
use hpcdash_slurm::partition::Partition;
use hpcdash_slurm::tres::Tres;
use hpcdash_slurmcli::{AssocRow, PartitionUsage, ScontrolJob, SinfoRow, SqueueRow, SACCT_FIELDS};
use std::collections::BTreeMap;

// ---- the owned records ------------------------------------------------------
//
// The library's `SacctRecord`, `SqueueLongRow` and `ScontrolNode` borrow
// from the text they were parsed from; these are the owned records they
// replaced. Names, fields and field order are the same, so a borrowed
// record and its reference print the same `Debug` text.

/// One parsed accounting record.
#[derive(Debug, Clone, PartialEq)]
pub struct SacctRecord {
    pub job_id: String,
    pub job_name: String,
    pub user: String,
    pub account: String,
    pub partition: String,
    pub qos: String,
    pub state: JobState,
    pub submit: Option<Timestamp>,
    pub start: Option<Timestamp>,
    pub end: Option<Timestamp>,
    pub elapsed_secs: u64,
    pub timelimit: TimeLimit,
    pub alloc_cpus: u32,
    pub alloc_nodes: u32,
    pub alloc_tres: Tres,
    pub req_mem_mb: u64,
    pub max_rss_mb: Option<u64>,
    pub total_cpu_secs: Option<u64>,
    pub exit_code: String,
    pub nodelist: String,
    pub comment: String,
}

/// One parsed line of the long `squeue` format.
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

/// A parsed `scontrol show node` record, with every token in `raw`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScontrolNode {
    pub name: String,
    pub state: NodeState,
    pub cpu_alloc: u32,
    pub cpu_total: u32,
    pub cpu_load: f64,
    pub real_memory_mb: u64,
    pub alloc_memory_mb: u64,
    pub gres: Option<String>,
    pub gres_used: Option<String>,
    pub features: Vec<String>,
    pub partitions: Vec<String>,
    pub os: String,
    pub boot_time: Option<Timestamp>,
    pub last_busy: Option<Timestamp>,
    pub reason: Option<String>,
    pub raw: BTreeMap<String, String>,
}

impl ScontrolNode {
    /// A borrowed record in the owned shape: every field copied, and `raw`
    /// taken from the record's key=value view.
    pub fn from_borrowed(n: &hpcdash_slurmcli::ScontrolNode<'_>) -> ScontrolNode {
        let owned = |v: Option<&str>| v.map(str::to_string);
        ScontrolNode {
            name: n.name.to_string(),
            state: n.state,
            cpu_alloc: n.cpu_alloc,
            cpu_total: n.cpu_total,
            cpu_load: n.cpu_load,
            real_memory_mb: n.real_memory_mb,
            alloc_memory_mb: n.alloc_memory_mb,
            gres: owned(n.gres),
            gres_used: owned(n.gres_used),
            features: n.features.iter().map(str::to_string).collect(),
            partitions: n.partitions.iter().map(str::to_string).collect(),
            os: n.os.to_string(),
            boot_time: n.boot_time,
            last_busy: n.last_busy,
            reason: owned(n.reason),
            raw: n
                .details()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

// ---- hpcdash-simtime: timefmt.rs --------------------------------------------

pub fn timelimit_to_slurm(limit: TimeLimit) -> String {
    match limit {
        TimeLimit::Limited(s) => format_duration(s),
        TimeLimit::Unlimited => "UNLIMITED".to_string(),
    }
}

/// Format a Unix timestamp as `%Y-%m-%dT%H:%M:%S` (Slurm's ISO form).
pub fn format_timestamp(t: Timestamp) -> String {
    let dt = CivilDateTime::from_unix(t.as_secs());
    format!(
        "{:04}-{:02}-{:02}T{:02}:{:02}:{:02}",
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
    )
}

/// Parse a `%Y-%m-%dT%H:%M:%S` timestamp. Also accepts a trailing `Z` and the
/// Slurm sentinels `Unknown`/`N/A`/`None` (which yield `None`).
pub fn parse_timestamp(s: &str) -> Option<Timestamp> {
    let s = s.trim().trim_end_matches('Z');
    if s.is_empty() || s == "Unknown" || s == "N/A" || s == "None" {
        return None;
    }
    let (date, time) = s.split_once('T')?;
    let mut dp = date.split('-');
    let year: i64 = dp.next()?.parse().ok()?;
    let month: u32 = dp.next()?.parse().ok()?;
    let day: u32 = dp.next()?.parse().ok()?;
    if dp.next().is_some() {
        return None;
    }
    let mut tp = time.split(':');
    let hour: u32 = tp.next()?.parse().ok()?;
    let minute: u32 = tp.next()?.parse().ok()?;
    let second: u32 = tp.next()?.parse().ok()?;
    if tp.next().is_some()
        || month == 0
        || month > 12
        || day == 0
        || hour > 23
        || minute > 59
        || second > 59
    {
        return None;
    }
    let dt = CivilDateTime {
        year,
        month,
        day,
        hour,
        minute,
        second,
    };
    dt.to_unix().map(Timestamp)
}

/// Format seconds as Slurm elapsed time: `MM:SS`, `HH:MM:SS` or `D-HH:MM:SS`.
pub fn format_duration(total_secs: u64) -> String {
    let days = total_secs / 86_400;
    let hours = (total_secs % 86_400) / 3_600;
    let minutes = (total_secs % 3_600) / 60;
    let seconds = total_secs % 60;
    if days > 0 {
        format!("{days}-{hours:02}:{minutes:02}:{seconds:02}")
    } else {
        format!("{hours:02}:{minutes:02}:{seconds:02}")
    }
}

/// Parse a Slurm elapsed duration. Accepted forms (per `sacct`/`squeue`):
/// `SS`, `MM:SS`, `HH:MM:SS`, `D-HH`, `D-HH:MM`, `D-HH:MM:SS`.
pub fn parse_duration(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (days, rest) = match s.split_once('-') {
        Some((d, rest)) => (d.parse::<u64>().ok()?, rest),
        None => (0, s),
    };
    let parts: Vec<&str> = rest.split(':').collect();
    let nums: Vec<u64> = parts
        .iter()
        .map(|p| p.parse::<u64>().ok())
        .collect::<Option<Vec<_>>>()?;
    let secs = if days > 0 {
        // Day-prefixed forms are hour-first.
        match nums.as_slice() {
            [h] => h * 3_600,
            [h, m] => h * 3_600 + m * 60,
            [h, m, sec] => h * 3_600 + m * 60 + sec,
            _ => return None,
        }
    } else {
        match nums.as_slice() {
            [sec] => *sec,
            [m, sec] => m * 60 + sec,
            [h, m, sec] => h * 3_600 + m * 60 + sec,
            _ => return None,
        }
    };
    Some(days * 86_400 + secs)
}

/// Parse a Slurm time limit: any [`parse_duration`] form, or `UNLIMITED`,
/// `infinite`, `Partition_Limit`-style sentinels are rejected (caller decides).
pub fn parse_timelimit(s: &str) -> Option<TimeLimit> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("unlimited") || s.eq_ignore_ascii_case("infinite") {
        return Some(TimeLimit::Unlimited);
    }
    parse_duration(s).map(TimeLimit::Limited)
}

// ---- hpcdash-slurm: tres.rs, job.rs -----------------------------------------

/// `Tres::to_slurm`.
pub fn tres_to_slurm(t: Tres) -> String {
    let mut parts = vec![format!("cpu={}", t.cpus)];
    if t.mem_mb > 0 {
        parts.push(format!("mem={}", format_mem_mb(t.mem_mb)));
    }
    if t.nodes > 0 {
        parts.push(format!("node={}", t.nodes));
    }
    if t.gpus > 0 {
        parts.push(format!("gres/gpu={}", t.gpus));
    }
    parts.join(",")
}

/// `Tres::parse`.
pub fn tres_parse(s: &str) -> Option<Tres> {
    let mut t = Tres::default();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part.split_once('=')?;
        match key {
            "cpu" => t.cpus = value.parse().ok()?,
            "mem" => t.mem_mb = parse_mem_mb(value)?,
            "node" => t.nodes = value.parse().ok()?,
            "gres/gpu" | "gpu" => t.gpus = value.parse().ok()?,
            _ => {}
        }
    }
    Some(t)
}

/// Format megabytes the way Slurm does: `512M`, `16G`, `1.50T`.
pub fn format_mem_mb(mem_mb: u64) -> String {
    const G: u64 = 1_024;
    const T: u64 = 1_024 * 1_024;
    if mem_mb >= T && mem_mb.is_multiple_of(T) {
        format!("{}T", mem_mb / T)
    } else if mem_mb >= G && mem_mb.is_multiple_of(G) {
        format!("{}G", mem_mb / G)
    } else {
        format!("{mem_mb}M")
    }
}

/// Parse a Slurm memory string (`4000M`, `16G`, `2T`, bare `4096` = MB,
/// fractional `1.5G`). Returns megabytes.
pub fn parse_mem_mb(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (num, mult) = match s.as_bytes()[s.len() - 1].to_ascii_uppercase() {
        b'K' => (&s[..s.len() - 1], 0.001),
        b'M' => (&s[..s.len() - 1], 1.0),
        b'G' => (&s[..s.len() - 1], 1_024.0),
        b'T' => (&s[..s.len() - 1], 1_024.0 * 1_024.0),
        b'0'..=b'9' => (s, 1.0),
        _ => return None,
    };
    let value: f64 = num.parse().ok()?;
    if value.is_nan() || value < 0.0 {
        return None;
    }
    Some((value * mult).round() as u64)
}

/// `Job::display_id`.
pub fn display_id(job: &Job) -> String {
    match &job.array {
        Some(a) => format!("{}_{}", a.array_job_id.0, a.task_id),
        None => job.id.0.to_string(),
    }
}

/// `Timestamp::to_slurm`.
fn ts(t: Timestamp) -> String {
    format_timestamp(t)
}

/// `slurmcli::opt_time`.
fn opt_time(t: Option<Timestamp>) -> String {
    match t {
        Some(t) => ts(t),
        None => "Unknown".to_string(),
    }
}

// ---- sacct.rs ---------------------------------------------------------------

pub mod sacct {
    use super::*;

    /// Render accounting records as parsable2 text.
    pub fn render(jobs: &[Job], now: Timestamp) -> String {
        let mut out = SACCT_FIELDS.join("|");
        out.push('\n');
        for job in jobs {
            let elapsed = job.elapsed_secs(now);
            let fields: Vec<String> = vec![
                display_id(job),
                sanitize(&job.req.name),
                job.req.user.clone(),
                job.req.account.clone(),
                job.req.partition.clone(),
                job.req.qos.clone(),
                job.state.to_slurm().to_string(),
                opt_time(Some(job.submit_time)),
                opt_time(job.start_time),
                opt_time(job.end_time),
                format_duration(elapsed),
                timelimit_to_slurm(job.req.time_limit),
                job.alloc_cpus().to_string(),
                job.req.nodes.to_string(),
                tres_to_slurm(job.req.total_tres()),
                format_mem_mb(job.req.mem_mb_per_node),
                job.stats
                    .map(|s| format_mem_mb(s.max_rss_mb))
                    .unwrap_or_default(),
                job.stats
                    .map(|s| format_duration(s.total_cpu_secs))
                    .unwrap_or_default(),
                job.exit_code
                    .map(|(c, s)| format!("{c}:{s}"))
                    .unwrap_or_else(|| "0:0".to_string()),
                if job.nodes.is_empty() {
                    "None".to_string()
                } else {
                    job.nodes.join(",")
                },
                // Cleaned like the name: a `|` or a line break broke the row.
                sanitize(job.req.comment.as_deref().unwrap_or_default()),
            ];
            out.push_str(&fields.join("|"));
            out.push('\n');
        }
        out
    }

    /// Parse parsable2 output back into records.
    pub fn parse_sacct(text: &str) -> Result<Vec<SacctRecord>, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != SACCT_FIELDS.join("|") {
            return Err(format!("unexpected sacct header: {header:?}"));
        }
        let mut out = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('|').collect();
            if f.len() != SACCT_FIELDS.len() {
                return Err(format!(
                    "malformed sacct line ({} fields): {line:?}",
                    f.len()
                ));
            }
            out.push(SacctRecord {
                job_id: f[0].to_string(),
                job_name: f[1].to_string(),
                user: f[2].to_string(),
                account: f[3].to_string(),
                partition: f[4].to_string(),
                qos: f[5].to_string(),
                state: JobState::parse(f[6]).ok_or_else(|| format!("bad state {:?}", f[6]))?,
                submit: parse_timestamp(f[7]),
                start: parse_timestamp(f[8]),
                end: parse_timestamp(f[9]),
                elapsed_secs: parse_duration(f[10])
                    .ok_or_else(|| format!("bad elapsed {:?}", f[10]))?,
                timelimit: parse_timelimit(f[11])
                    .ok_or_else(|| format!("bad timelimit {:?}", f[11]))?,
                alloc_cpus: f[12].parse().map_err(|_| format!("bad cpus {:?}", f[12]))?,
                alloc_nodes: f[13]
                    .parse()
                    .map_err(|_| format!("bad nodes {:?}", f[13]))?,
                alloc_tres: tres_parse(f[14]).ok_or_else(|| format!("bad tres {:?}", f[14]))?,
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
                exit_code: f[18].to_string(),
                nodelist: f[19].to_string(),
                comment: f[20].to_string(),
            });
        }
        Ok(out)
    }

    fn sanitize(name: &str) -> String {
        name.replace('|', "/").replace('\n', " ")
    }
}

// ---- squeue.rs --------------------------------------------------------------

pub mod squeue {
    use super::*;

    const HEADER: &str = "JOBID PARTITION NAME USER ST TIME NODES NODELIST(REASON)";
    const LONG_HEADER: &str =
        "JOBID PARTITION NAME USER STATE SUBMIT_TIME START_TIME TIME TIME_LIMIT NODES NODELIST(REASON)";

    /// Render the long format (newest submissions first, as the widget shows).
    /// Generic over `Borrow<Job>` so it accepts both owned rows (tests) and the
    /// shared `Arc<Job>` rows the snapshot read path returns.
    pub fn render_long<J: std::borrow::Borrow<Job>>(jobs: &[J], now: Timestamp) -> String {
        let mut out = String::from(LONG_HEADER);
        out.push('\n');
        for job in jobs {
            let job = job.borrow();
            let time = if job.state == JobState::Pending {
                "0:00".to_string()
            } else {
                format_duration(job.elapsed_secs(now))
            };
            let nodelist = if job.nodes.is_empty() {
                format!("({})", job.reason.map(|r| r.to_slurm()).unwrap_or("None"))
            } else {
                job.nodes.join(",")
            };
            out.push_str(&format!(
                "{} {} {} {} {} {} {} {} {} {} {}\n",
                display_id(job),
                job.req.partition,
                sanitize(&job.req.name),
                job.req.user,
                job.state.to_slurm(),
                ts(job.submit_time),
                job.start_time.map(ts).unwrap_or_else(|| "N/A".to_string()),
                time,
                timelimit_to_slurm(job.req.time_limit),
                job.req.nodes,
                nodelist
            ));
        }
        out
    }

    /// Parse long-format output.
    pub fn parse_squeue_long(text: &str) -> Result<Vec<SqueueLongRow>, String> {
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 {
                if line.trim() != LONG_HEADER {
                    return Err(format!("unexpected squeue long header: {line:?}"));
                }
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 11 {
                return Err(format!(
                    "malformed squeue long line ({} cols): {line:?}",
                    parts.len()
                ));
            }
            let state =
                JobState::parse(parts[4]).ok_or_else(|| format!("bad state {:?}", parts[4]))?;
            let time_secs = if parts[7] == "0:00" {
                0
            } else {
                parse_duration(parts[7]).ok_or_else(|| format!("bad time {:?}", parts[7]))?
            };
            rows.push(SqueueLongRow {
                job_id: parts[0].to_string(),
                partition: parts[1].to_string(),
                name: parts[2].to_string(),
                user: parts[3].to_string(),
                state,
                submit_time: parse_timestamp(parts[5]),
                start_time: parse_timestamp(parts[6]),
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

    /// Render job records as `squeue` text (separated so tests can build rows
    /// without a daemon). Generic over `Borrow<Job>` — see [`render_long`].
    pub fn render<J: std::borrow::Borrow<Job>>(jobs: &[J], now: Timestamp) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for job in jobs {
            let job = job.borrow();
            let time = if job.state == JobState::Pending {
                "0:00".to_string()
            } else {
                format_duration(job.elapsed_secs(now))
            };
            let nodelist = if job.nodes.is_empty() {
                format!("({})", job.reason.map(|r| r.to_slurm()).unwrap_or("None"))
            } else {
                job.nodes.join(",")
            };
            out.push_str(&format!(
                "{} {} {} {} {} {} {} {}\n",
                display_id(job),
                job.req.partition,
                sanitize(&job.req.name),
                job.req.user,
                job.state.to_compact(),
                time,
                job.req.nodes,
                nodelist
            ));
        }
        out
    }

    /// Parse `squeue` output back into rows.
    pub fn parse_squeue(text: &str) -> Result<Vec<SqueueRow>, String> {
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 {
                if line.trim() != HEADER {
                    return Err(format!("unexpected squeue header: {line:?}"));
                }
                continue;
            }
            if line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 8 {
                return Err(format!(
                    "malformed squeue line ({} cols): {line:?}",
                    parts.len()
                ));
            }
            let state =
                JobState::parse(parts[4]).ok_or_else(|| format!("bad state {:?}", parts[4]))?;
            let time_secs = if parts[5] == "0:00" {
                0
            } else {
                parse_duration(parts[5]).ok_or_else(|| format!("bad time {:?}", parts[5]))?
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
        let cleaned: String = name
            .chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect();
        if cleaned.is_empty() {
            "-".to_string()
        } else {
            cleaned
        }
    }

    fn sanitize(name: &str) -> String {
        display_name(name)
    }
}

// ---- sinfo.rs ---------------------------------------------------------------

pub mod sinfo {
    use super::*;

    /// Emit the summary rows for one partition given its nodes in declared
    /// order.
    fn push_summary_rows<'a>(
        out: &mut String,
        part: &Partition,
        nodes: impl Iterator<Item = &'a Node>,
    ) {
        let mut groups: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
        for node in nodes {
            groups
                .entry(node.state().to_slurm())
                .or_default()
                .push(node.name.clone());
        }
        let display = if part.is_default {
            format!("{}*", part.name)
        } else {
            part.name.clone()
        };
        for (state, members) in groups {
            out.push_str(&format!(
                "{} {} {} {} {} {}\n",
                display,
                if part.state == hpcdash_slurm::partition::PartitionState::Up {
                    "up"
                } else {
                    "down"
                },
                timelimit_to_slurm(part.max_time),
                members.len(),
                state.to_lowercase(),
                members.join(",")
            ));
        }
    }

    const SUMMARY_HEADER: &str = "PARTITION AVAIL TIMELIMIT NODES STATE NODELIST\n";

    pub fn render_summary(partitions: &[Partition], nodes: &[Node]) -> String {
        let by_name: BTreeMap<&str, &Node> = nodes.iter().map(|n| (n.name.as_str(), n)).collect();
        let mut out = String::from(SUMMARY_HEADER);
        for part in partitions {
            push_summary_rows(
                &mut out,
                part,
                part.nodes
                    .iter()
                    .filter_map(|n| by_name.get(n.as_str()).copied()),
            );
        }
        out
    }

    /// Parse the default summary back into rows.
    pub fn parse_sinfo_summary(text: &str) -> Result<Vec<SinfoRow>, String> {
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 || line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 6 {
                return Err(format!("malformed sinfo line: {line:?}"));
            }
            rows.push(SinfoRow {
                partition: parts[0].trim_end_matches('*').to_string(),
                avail: parts[1].to_string(),
                timelimit: parts[2].to_string(),
                node_count: parts[3]
                    .parse()
                    .map_err(|_| format!("bad count {:?}", parts[3]))?,
                state: NodeState::parse(&parts[4].to_uppercase())
                    .ok_or_else(|| format!("bad state {:?}", parts[4]))?,
                nodelist: parts[5].split(',').map(str::to_string).collect(),
            });
        }
        Ok(rows)
    }

    pub fn render_usage(partitions: &[Partition], nodes: &[Node]) -> String {
        format_usage(compute_usage(partitions, nodes))
    }

    fn compute_usage(partitions: &[Partition], nodes: &[Node]) -> Vec<PartitionUsage> {
        let by_name: BTreeMap<&str, &Node> = nodes.iter().map(|n| (n.name.as_str(), n)).collect();
        partitions
            .iter()
            .map(|part| {
                let mut u = PartitionUsage {
                    partition: part.name.clone(),
                    avail: if part.state == hpcdash_slurm::partition::PartitionState::Up {
                        "up".to_string()
                    } else {
                        "down".to_string()
                    },
                    cpus_alloc: 0,
                    cpus_idle: 0,
                    cpus_other: 0,
                    cpus_total: 0,
                    gpus_alloc: 0,
                    gpus_total: 0,
                    nodes_total: 0,
                    nodes_in_use: 0,
                };
                for name in &part.nodes {
                    let Some(node) = by_name.get(name.as_str()) else {
                        continue;
                    };
                    u.nodes_total += 1;
                    u.cpus_total += node.cpus;
                    u.gpus_total += node.gpus;
                    if node.state().schedulable() {
                        u.cpus_alloc += node.alloc.cpus;
                        u.cpus_idle += node.cpus - node.alloc.cpus.min(node.cpus);
                        u.gpus_alloc += node.alloc.gpus;
                        if node.alloc.cpus > 0 {
                            u.nodes_in_use += 1;
                        }
                    } else {
                        u.cpus_other += node.cpus;
                    }
                }
                u
            })
            .collect()
    }

    fn format_usage(usages: Vec<PartitionUsage>) -> String {
        let mut out = String::from("PARTITION AVAIL CPUS(A/I/O/T) GPUS(A/T) NODES(U/T)\n");
        for u in usages {
            out.push_str(&format!(
                "{} {} {}/{}/{}/{} {}/{} {}/{}\n",
                u.partition,
                u.avail,
                u.cpus_alloc,
                u.cpus_idle,
                u.cpus_other,
                u.cpus_total,
                u.gpus_alloc,
                u.gpus_total,
                u.nodes_in_use,
                u.nodes_total,
            ));
        }
        out
    }

    /// Parse the usage format back into records.
    pub fn parse_sinfo_usage(text: &str) -> Result<Vec<PartitionUsage>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 || line.trim().is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            if parts.len() != 5 {
                return Err(format!("malformed sinfo usage line: {line:?}"));
            }
            let cpus: Vec<u32> = parts[2]
                .split('/')
                .map(|x| {
                    x.parse::<u32>()
                        .map_err(|_| format!("bad cpus {:?}", parts[2]))
                })
                .collect::<Result<_, _>>()?;
            let gpus: Vec<u32> = parts[3]
                .split('/')
                .map(|x| {
                    x.parse::<u32>()
                        .map_err(|_| format!("bad gpus {:?}", parts[3]))
                })
                .collect::<Result<_, _>>()?;
            let nodes: Vec<u32> = parts[4]
                .split('/')
                .map(|x| {
                    x.parse::<u32>()
                        .map_err(|_| format!("bad nodes {:?}", parts[4]))
                })
                .collect::<Result<_, _>>()?;
            if cpus.len() != 4 || gpus.len() != 2 || nodes.len() != 2 {
                return Err(format!("malformed sinfo usage tuple: {line:?}"));
            }
            out.push(PartitionUsage {
                partition: parts[0].to_string(),
                avail: parts[1].to_string(),
                cpus_alloc: cpus[0],
                cpus_idle: cpus[1],
                cpus_other: cpus[2],
                cpus_total: cpus[3],
                gpus_alloc: gpus[0],
                gpus_total: gpus[1],
                nodes_in_use: nodes[0],
                nodes_total: nodes[1],
            });
        }
        Ok(out)
    }
}

// ---- scontrol.rs ------------------------------------------------------------

pub mod scontrol {
    use super::*;

    /// Render one job record.
    pub fn render_job(job: &Job, now: Timestamp) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "JobId={} JobName={}\n",
            job.id,
            token(&job.req.name)
        ));
        s.push_str(&format!(
            "   UserId={}(1000) Account={} QOS={} Priority={}\n",
            job.req.user, job.req.account, job.req.qos, job.priority
        ));
        s.push_str(&format!(
            "   JobState={} Reason={} Dependency={}\n",
            job.state.to_slurm(),
            job.reason.map(|r| r.to_slurm()).unwrap_or("None"),
            job.req
                .dependency
                .map(|d| format!("afterok:{d}"))
                .unwrap_or_else(|| "(null)".to_string()),
        ));
        s.push_str(&format!(
            "   SubmitTime={} EligibleTime={}\n",
            ts(job.submit_time),
            ts(job.eligible_time)
        ));
        s.push_str(&format!(
            "   StartTime={} EndTime={}\n",
            opt_time(job.start_time),
            opt_time(job.end_time)
        ));
        s.push_str(&format!(
            "   TimeLimit={} RunTime={}\n",
            timelimit_to_slurm(job.req.time_limit),
            format_duration(job.elapsed_secs(now))
        ));
        s.push_str(&format!(
            "   Partition={} NodeList={}\n",
            job.req.partition,
            if job.nodes.is_empty() {
                "(null)".to_string()
            } else {
                job.nodes.join(",")
            }
        ));
        s.push_str(&format!(
            "   NumNodes={} NumCPUs={} MinMemoryNode={}",
            job.req.nodes,
            job.alloc_cpus(),
            format_mem_mb(job.req.mem_mb_per_node)
        ));
        if job.req.gpus_per_node > 0 {
            s.push_str(&format!(" Gres=gpu:{}", job.req.gpus_per_node));
        }
        s.push('\n');
        s.push_str(&format!("   WorkDir={}\n", token(&job.req.work_dir)));
        s.push_str(&format!(
            "   StdOut={} StdErr={}\n",
            token(&job.stdout_path),
            token(&job.stderr_path)
        ));
        if let Some(c) = &job.req.comment {
            s.push_str(&format!("   Comment={}\n", token(c)));
        }
        if let Some(a) = &job.array {
            s.push_str(&format!(
                "   ArrayJobId={} ArrayTaskId={}\n",
                a.array_job_id, a.task_id
            ));
        }
        s
    }

    /// Parse a `scontrol show job` dump (one record).
    pub fn parse_show_job(text: &str) -> Result<ScontrolJob, String> {
        let raw = tokenize(text);
        let get = |k: &str| raw.get(k).cloned();
        let req = |k: &str| get(k).ok_or_else(|| format!("missing {k}"));
        Ok(ScontrolJob {
            job_id: JobId(req("JobId")?.parse().map_err(|_| "bad JobId".to_string())?),
            name: req("JobName")?,
            user: req("UserId")?
                .split('(')
                .next()
                .unwrap_or_default()
                .to_string(),
            account: req("Account")?,
            qos: req("QOS")?,
            state: JobState::parse(&req("JobState")?).ok_or("bad JobState")?,
            reason: get("Reason")
                .filter(|r| r != "None")
                .and_then(|r| PendingReason::parse(&r)),
            priority: req("Priority")?
                .parse()
                .map_err(|_| "bad Priority".to_string())?,
            partition: req("Partition")?,
            submit_time: get("SubmitTime").and_then(|v| parse_timestamp(&v)),
            eligible_time: get("EligibleTime").and_then(|v| parse_timestamp(&v)),
            start_time: get("StartTime").and_then(|v| parse_timestamp(&v)),
            end_time: get("EndTime").and_then(|v| parse_timestamp(&v)),
            time_limit: req("TimeLimit")?,
            run_time_secs: parse_duration(&req("RunTime")?).ok_or("bad RunTime")?,
            num_nodes: req("NumNodes")?
                .parse()
                .map_err(|_| "bad NumNodes".to_string())?,
            num_cpus: req("NumCPUs")?
                .parse()
                .map_err(|_| "bad NumCPUs".to_string())?,
            mem_per_node: req("MinMemoryNode")?,
            gres: get("Gres"),
            nodelist: get("NodeList").filter(|v| v != "(null)"),
            work_dir: req("WorkDir")?,
            std_out: req("StdOut")?,
            std_err: req("StdErr")?,
            comment: get("Comment"),
            array_job_id: get("ArrayJobId").and_then(|v| v.parse().ok()).map(JobId),
            array_task_id: get("ArrayTaskId").and_then(|v| v.parse().ok()),
            dependency: get("Dependency")
                .filter(|v| v != "(null)")
                .and_then(|v| v.strip_prefix("afterok:").and_then(|x| x.parse().ok()))
                .map(JobId),
            raw,
        })
    }

    /// Render one node record.
    pub fn render_node(node: &Node) -> String {
        let mut s = String::new();
        s.push_str(&format!("NodeName={} Arch=x86_64\n", node.name));
        s.push_str(&format!(
            "   CPUAlloc={} CPUTot={} CPULoad={:.2}\n",
            node.alloc.cpus, node.cpus, node.cpu_load
        ));
        s.push_str(&format!(
            "   AvailableFeatures={}\n",
            if node.features.is_empty() {
                "(null)".to_string()
            } else {
                node.features.join(",")
            }
        ));
        if node.gpus > 0 {
            let ty = node.gpu_type.as_deref().unwrap_or("gpu");
            s.push_str(&format!(
                "   Gres=gpu:{}:{} GresUsed=gpu:{}:{}\n",
                ty, node.gpus, ty, node.alloc.gpus
            ));
        }
        s.push_str(&format!(
            "   RealMemory={} AllocMem={}\n",
            node.real_memory_mb, node.alloc.mem_mb
        ));
        s.push_str(&format!(
            "   State={} Partitions={}\n",
            node.state().to_slurm(),
            if node.partitions.is_empty() {
                "(null)".to_string()
            } else {
                node.partitions.join(",")
            }
        ));
        s.push_str(&format!("   OS={}\n", token(&node.os)));
        s.push_str(&format!(
            "   BootTime={} LastBusyTime={}\n",
            ts(node.boot_time),
            ts(node.last_busy)
        ));
        if let Some(r) = &node.reason {
            s.push_str(&format!("   Reason={}\n", token(r)));
        }
        s
    }

    /// Parse one or more `scontrol show node` records.
    pub fn parse_show_node(text: &str) -> Result<Vec<ScontrolNode>, String> {
        let mut out = Vec::new();
        for chunk in split_records(text) {
            let raw = tokenize(&chunk);
            let get = |k: &str| raw.get(k).cloned();
            let req = |k: &str| get(k).ok_or_else(|| format!("missing {k}"));
            out.push(ScontrolNode {
                name: req("NodeName")?,
                state: NodeState::parse(&req("State")?).ok_or("bad State")?,
                cpu_alloc: req("CPUAlloc")?
                    .parse()
                    .map_err(|_| "bad CPUAlloc".to_string())?,
                cpu_total: req("CPUTot")?
                    .parse()
                    .map_err(|_| "bad CPUTot".to_string())?,
                cpu_load: req("CPULoad")?
                    .parse()
                    .map_err(|_| "bad CPULoad".to_string())?,
                real_memory_mb: req("RealMemory")?
                    .parse()
                    .map_err(|_| "bad RealMemory".to_string())?,
                alloc_memory_mb: req("AllocMem")?
                    .parse()
                    .map_err(|_| "bad AllocMem".to_string())?,
                gres: get("Gres"),
                gres_used: get("GresUsed"),
                features: get("AvailableFeatures")
                    .filter(|v| v != "(null)")
                    .map(|v| v.split(',').map(str::to_string).collect())
                    .unwrap_or_default(),
                partitions: get("Partitions")
                    .filter(|v| v != "(null)")
                    .map(|v| v.split(',').map(str::to_string).collect())
                    .unwrap_or_default(),
                os: req("OS")?,
                boot_time: get("BootTime").and_then(|v| parse_timestamp(&v)),
                last_busy: get("LastBusyTime").and_then(|v| parse_timestamp(&v)),
                reason: get("Reason"),
                raw,
            });
        }
        Ok(out)
    }

    /// The text `show_assoc` rendered from the controller's records.
    pub fn render_assoc(records: &[AssocRecord]) -> String {
        let mut s = String::from(
            "Account GrpTRESCpu GrpTRESMinsGpu CPUsInUse CPUsQueued GPUSecondsUsed Users\n",
        );
        for r in records {
            s.push_str(&format!(
                "{} {} {} {} {} {} {}\n",
                r.account.name,
                r.account
                    .grp_cpu_limit
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "N".to_string()),
                r.account
                    .grp_gpu_mins_limit
                    .map(|m| m.to_string())
                    .unwrap_or_else(|| "N".to_string()),
                r.usage.cpus_running,
                r.usage.cpus_queued,
                r.usage.gpu_seconds,
                if r.members.is_empty() {
                    "-".to_string()
                } else {
                    r.members.join(",")
                }
            ));
        }
        s
    }

    /// Parse the assoc dump.
    pub fn parse_show_assoc(text: &str) -> Result<Vec<AssocRow>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if i == 0 || line.trim().is_empty() {
                continue;
            }
            let p: Vec<&str> = line.split_whitespace().collect();
            if p.len() != 7 {
                return Err(format!("malformed assoc line: {line:?}"));
            }
            let opt_num = |s: &str| -> Option<u64> {
                if s == "N" {
                    None
                } else {
                    s.parse().ok()
                }
            };
            out.push(AssocRow {
                account: p[0].to_string(),
                grp_cpu_limit: opt_num(p[1]).map(|x| x as u32),
                grp_gpu_mins_limit: opt_num(p[2]),
                cpus_in_use: p[3].parse().map_err(|_| "bad cpus_in_use".to_string())?,
                cpus_queued: p[4].parse().map_err(|_| "bad cpus_queued".to_string())?,
                gpu_seconds_used: p[5].parse().map_err(|_| "bad gpu_seconds".to_string())?,
                users: if p[6] == "-" {
                    Vec::new()
                } else {
                    p[6].split(',').map(str::to_string).collect()
                },
            });
        }
        Ok(out)
    }

    // ---- shared helpers ---------------------------------------------------------

    /// Split a multi-record dump into per-record chunks (records start with a
    /// non-indented line).
    fn split_records(text: &str) -> Vec<String> {
        let mut records: Vec<String> = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if !line.starts_with(' ') && !records.is_empty() {
                records.push(String::new());
            }
            if records.is_empty() {
                records.push(String::new());
            }
            let last = records.last_mut().expect("pushed above");
            last.push_str(line);
            last.push('\n');
        }
        records.retain(|r| !r.trim().is_empty());
        records
    }

    /// Tokenize `Key=Value` pairs across the record.
    fn tokenize(text: &str) -> BTreeMap<String, String> {
        let mut map = BTreeMap::new();
        for tok in text.split_whitespace() {
            if let Some((k, v)) = tok.split_once('=') {
                // First occurrence wins (JobId before ArrayJobId etc. are
                // distinct keys, so this only matters for malformed input).
                map.entry(k.to_string()).or_insert_with(|| v.to_string());
            }
        }
        map
    }

    /// scontrol values cannot contain whitespace.
    fn token(v: &str) -> String {
        let t: String = v
            .chars()
            .map(|c| if c.is_whitespace() { '_' } else { c })
            .collect();
        if t.is_empty() {
            "(null)".to_string()
        } else {
            t
        }
    }
}
