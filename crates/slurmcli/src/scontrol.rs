//! `scontrol show job|node|assoc_mgr`: detailed single-entity dumps.
//!
//! Output uses slurm's `Key=Value` token format, records separated by blank
//! lines. The Node Overview page (paper §6.1) is fed from the node dump and
//! the Accounts widget (§3.4) from the assoc dump. The job record has a
//! renderer and a parser ([`render_job`], [`parse_show_job`]) but no
//! command: the Job Overview reads slurmctld's snapshot.

use crate::{cleaned, no_space, push, Cleaned, Joined, Or};
use hpcdash_obs::Span;
use hpcdash_simtime::{parse_timestamp, Elapsed, Timestamp};
use hpcdash_slurm::ctld::{AssocRecord, Slurmctld};
use hpcdash_slurm::job::{Job, JobId, JobState, PendingReason};
use hpcdash_slurm::node::{Node, NodeState};
use hpcdash_slurm::tres::MemMb;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;

/// A parsed `scontrol show job` record.
#[derive(Debug, Clone, PartialEq)]
pub struct ScontrolJob {
    pub job_id: JobId,
    pub name: String,
    pub user: String,
    pub account: String,
    pub qos: String,
    pub state: JobState,
    pub reason: Option<PendingReason>,
    pub priority: u64,
    pub partition: String,
    pub submit_time: Option<Timestamp>,
    pub eligible_time: Option<Timestamp>,
    pub start_time: Option<Timestamp>,
    pub end_time: Option<Timestamp>,
    pub time_limit: String,
    pub run_time_secs: u64,
    pub num_nodes: u32,
    pub num_cpus: u32,
    pub mem_per_node: String,
    pub gres: Option<String>,
    pub nodelist: Option<String>,
    pub work_dir: String,
    pub std_out: String,
    pub std_err: String,
    pub comment: Option<String>,
    pub array_job_id: Option<JobId>,
    pub array_task_id: Option<u32>,
    pub dependency: Option<JobId>,
    /// Every raw key=value token, for fields the typed view omits.
    pub raw: BTreeMap<String, String>,
}

/// A parsed `scontrol show node` record. Its text fields are slices of the
/// dump it was parsed from, and `block` is the whole record: the
/// key=value view of [`ScontrolNode::details`] is read out of it only by
/// the page that shows it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScontrolNode<'t> {
    pub name: &'t str,
    pub state: NodeState,
    pub cpu_alloc: u32,
    pub cpu_total: u32,
    pub cpu_load: f64,
    pub real_memory_mb: u64,
    pub alloc_memory_mb: u64,
    pub gres: Option<&'t str>,
    pub gres_used: Option<&'t str>,
    pub features: List<'t>,
    pub partitions: List<'t>,
    pub os: &'t str,
    pub boot_time: Option<Timestamp>,
    pub last_busy: Option<Timestamp>,
    pub reason: Option<&'t str>,
    pub block: &'t str,
}

impl<'t> ScontrolNode<'t> {
    /// Every `Key=Value` token of the record, sorted by key; the first of a
    /// repeated key wins.
    pub fn details(&self) -> BTreeMap<&'t str, &'t str> {
        let mut map = BTreeMap::new();
        for (k, v) in tokens(self.block) {
            map.entry(k).or_insert(v);
        }
        map
    }
}

/// A comma-separated value of a record, borrowed: `(null)` or an absent key
/// is the empty list. It shows (`Debug`) and serializes as its items.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct List<'t>(Option<&'t str>);

impl<'t> List<'t> {
    fn of(value: Option<&'t str>) -> List<'t> {
        List(value.filter(|v| *v != "(null)"))
    }

    pub fn iter(&self) -> impl Iterator<Item = &'t str> {
        self.0.into_iter().flat_map(|v| v.split(','))
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

impl fmt::Debug for List<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl serde::Serialize for List<'_> {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Array(self.iter().map(|v| v.into()).collect())
    }

    fn write_json(&self, out: &mut Vec<u8>) {
        out.push(b'[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            serde::value::write_str(item, out);
        }
        out.push(b']');
    }
}

/// Render one job record.
pub fn render_job(job: &Job, now: Timestamp) -> String {
    let mut s = Vec::with_capacity(640);
    push!(&mut s;
        "JobId=", job.id, " JobName=", token(&job.req.name),
        "\n   UserId=", job.req.user, "(1000) Account=", job.req.account,
        " QOS=", job.req.qos, " Priority=", job.priority,
        "\n   JobState=", job.state.to_slurm(),
        " Reason=", job.reason.map(|r| r.to_slurm()).unwrap_or("None"),
        " Dependency=", Or(job.req.dependency.map(|d| ("afterok", b':', d)), "(null)"),
        "\n   SubmitTime=", job.submit_time, " EligibleTime=", job.eligible_time,
        "\n   StartTime=", Or(job.start_time, "Unknown"),
        " EndTime=", Or(job.end_time, "Unknown"),
        "\n   TimeLimit=", job.req.time_limit, " RunTime=", Elapsed(job.elapsed_secs(now)),
        "\n   Partition=", job.req.partition, " NodeList=", Joined(&job.nodes, "(null)"),
        "\n   NumNodes=", job.req.nodes, " NumCPUs=", job.alloc_cpus(),
        " MinMemoryNode=", MemMb(job.req.mem_mb_per_node),
    );
    if job.req.gpus_per_node > 0 {
        push!(&mut s; " Gres=gpu:", job.req.gpus_per_node);
    }
    push!(&mut s;
        "\n   WorkDir=", token(&job.req.work_dir),
        "\n   StdOut=", token(&job.stdout_path), " StdErr=", token(&job.stderr_path), b'\n',
    );
    if let Some(c) = &job.req.comment {
        push!(&mut s; "   Comment=", token(c), b'\n');
    }
    if let Some(a) = &job.array {
        push!(&mut s; "   ArrayJobId=", a.array_job_id, " ArrayTaskId=", a.task_id, b'\n');
    }
    crate::text(s)
}

/// Parse a `scontrol show job` dump (one record). The typed fields are read
/// out of `raw` by reference; only what the record keeps is copied.
pub fn parse_show_job(text: &str) -> Result<ScontrolJob, String> {
    crate::note_parse();
    let raw = tokenize(text);
    let get = |k: &str| raw.get(k).map(String::as_str);
    let req = |k: &str| get(k).ok_or_else(|| format!("missing {k}"));
    let text_of = |k: &str| req(k).map(str::to_string);
    Ok(ScontrolJob {
        job_id: JobId(req("JobId")?.parse().map_err(|_| "bad JobId".to_string())?),
        name: text_of("JobName")?,
        user: req("UserId")?
            .split('(')
            .next()
            .unwrap_or_default()
            .to_string(),
        account: text_of("Account")?,
        qos: text_of("QOS")?,
        state: JobState::parse(req("JobState")?).ok_or("bad JobState")?,
        reason: get("Reason")
            .filter(|r| *r != "None")
            .and_then(PendingReason::parse),
        priority: req("Priority")?
            .parse()
            .map_err(|_| "bad Priority".to_string())?,
        partition: text_of("Partition")?,
        submit_time: get("SubmitTime").and_then(parse_timestamp),
        eligible_time: get("EligibleTime").and_then(parse_timestamp),
        start_time: get("StartTime").and_then(parse_timestamp),
        end_time: get("EndTime").and_then(parse_timestamp),
        time_limit: text_of("TimeLimit")?,
        run_time_secs: hpcdash_simtime::parse_duration(req("RunTime")?).ok_or("bad RunTime")?,
        num_nodes: req("NumNodes")?
            .parse()
            .map_err(|_| "bad NumNodes".to_string())?,
        num_cpus: req("NumCPUs")?
            .parse()
            .map_err(|_| "bad NumCPUs".to_string())?,
        mem_per_node: text_of("MinMemoryNode")?,
        gres: get("Gres").map(str::to_string),
        nodelist: get("NodeList")
            .filter(|v| *v != "(null)")
            .map(str::to_string),
        work_dir: text_of("WorkDir")?,
        std_out: text_of("StdOut")?,
        std_err: text_of("StdErr")?,
        comment: get("Comment").map(str::to_string),
        array_job_id: get("ArrayJobId").and_then(|v| v.parse().ok()).map(JobId),
        array_task_id: get("ArrayTaskId").and_then(|v| v.parse().ok()),
        dependency: get("Dependency")
            .filter(|v| *v != "(null)")
            .and_then(|v| v.strip_prefix("afterok:").and_then(|x| x.parse().ok()))
            .map(JobId),
        raw,
    })
}

/// `scontrol show node [<name>]`: one or all nodes.
pub fn show_node(ctld: &Slurmctld, name: Option<&str>) -> Result<String, String> {
    let _span = Span::enter("slurmcli").attr("cmd", "scontrol_show_node");
    let text = match name {
        Some(n) => ctld
            .query_node(n)
            .map(|node| render_node(&node))
            .unwrap_or_default(),
        None => {
            let nodes = ctld.query_nodes();
            let mut text = Vec::with_capacity(nodes.len() * NODE_BYTES);
            for (i, node) in nodes.iter().enumerate() {
                if i > 0 {
                    text.push(b'\n');
                }
                push_node(&mut text, node);
            }
            crate::text(text)
        }
    };
    crate::boundary(ctld.faults(), "scontrol_node", text)
}

/// About what one node record takes; sizes a dump once.
const NODE_BYTES: usize = 384;

/// Render one node record.
pub fn render_node(node: &Node) -> String {
    let mut s = Vec::with_capacity(NODE_BYTES);
    push_node(&mut s, node);
    crate::text(s)
}

fn push_node(s: &mut Vec<u8>, node: &Node) {
    push!(s;
        "NodeName=", node.name,
        " Arch=x86_64\n   CPUAlloc=", node.alloc.cpus, " CPUTot=", node.cpus, " CPULoad=",
    );
    // The one float of the command boundary keeps `fmt`'s rounding.
    write!(s, "{:.2}", node.cpu_load).expect("a Vec takes every write");
    push!(s; "\n   AvailableFeatures=", Joined(&node.features, "(null)"), b'\n');
    if node.gpus > 0 {
        let ty = node.gpu_type.as_deref().unwrap_or("gpu");
        push!(s;
            "   Gres=gpu:", ty, b':', node.gpus,
            " GresUsed=gpu:", ty, b':', node.alloc.gpus, b'\n',
        );
    }
    push!(s;
        "   RealMemory=", node.real_memory_mb, " AllocMem=", node.alloc.mem_mb,
        "\n   State=", node.state().to_slurm(),
        " Partitions=", Joined(&node.partitions, "(null)"),
        "\n   OS=", token(&node.os),
        "\n   BootTime=", node.boot_time, " LastBusyTime=", node.last_busy, b'\n',
    );
    if let Some(r) = &node.reason {
        push!(s; "   Reason=", token(r), b'\n');
    }
}

/// The keys a [`ScontrolNode`] reads, in the order its fields check them.
const NODE_KEYS: [&str; 15] = [
    "NodeName",
    "State",
    "CPUAlloc",
    "CPUTot",
    "CPULoad",
    "RealMemory",
    "AllocMem",
    "Gres",
    "GresUsed",
    "AvailableFeatures",
    "Partitions",
    "OS",
    "BootTime",
    "LastBusyTime",
    "Reason",
];

/// Parse one or more `scontrol show node` records into records that borrow
/// from the dump. One pass over each record's tokens keeps the first value
/// of every key in `NODE_KEYS`; nothing else is looked at until
/// [`ScontrolNode::details`] is asked for.
pub fn parse_show_node<'t>(text: &'t str) -> Result<Vec<ScontrolNode<'t>>, String> {
    crate::note_parse();
    let mut out = Vec::with_capacity(text.len() / NODE_BYTES + 1);
    for block in split_records(text) {
        let mut values = [None; NODE_KEYS.len()];
        for (k, v) in tokens(block) {
            if let Some(slot) = NODE_KEYS.iter().position(|key| *key == k) {
                values[slot].get_or_insert(v);
            }
        }
        let [name, state, cpu_alloc, cpu_total, cpu_load, real_memory, alloc_mem, gres, gres_used, features, partitions, os, boot_time, last_busy, reason] =
            values;
        let req = |v: Option<&'t str>, k: &str| v.ok_or_else(|| format!("missing {k}"));
        out.push(ScontrolNode {
            name: req(name, "NodeName")?,
            state: NodeState::parse(req(state, "State")?).ok_or("bad State")?,
            cpu_alloc: req(cpu_alloc, "CPUAlloc")?
                .parse()
                .map_err(|_| "bad CPUAlloc".to_string())?,
            cpu_total: req(cpu_total, "CPUTot")?
                .parse()
                .map_err(|_| "bad CPUTot".to_string())?,
            cpu_load: req(cpu_load, "CPULoad")?
                .parse()
                .map_err(|_| "bad CPULoad".to_string())?,
            real_memory_mb: req(real_memory, "RealMemory")?
                .parse()
                .map_err(|_| "bad RealMemory".to_string())?,
            alloc_memory_mb: req(alloc_mem, "AllocMem")?
                .parse()
                .map_err(|_| "bad AllocMem".to_string())?,
            gres,
            gres_used,
            features: List::of(features),
            partitions: List::of(partitions),
            os: req(os, "OS")?,
            boot_time: boot_time.and_then(parse_timestamp),
            last_busy: last_busy.and_then(parse_timestamp),
            reason,
            block,
        });
    }
    Ok(out)
}

/// `scontrol show assoc_mgr`-flavoured account dump (simplified format, one
/// line per account).
pub fn show_assoc(ctld: &Slurmctld, user: Option<&str>) -> Result<String, String> {
    let _span = Span::enter("slurmcli").attr("cmd", "scontrol_show_assoc");
    let text = render_assoc(&ctld.query_assoc(user));
    crate::boundary(ctld.faults(), "scontrol_assoc", text)
}

/// Render the assoc dump.
pub fn render_assoc(records: &[AssocRecord]) -> String {
    const HEADER: &str =
        "Account GrpTRESCpu GrpTRESMinsGpu CPUsInUse CPUsQueued GPUSecondsUsed Users\n";
    let mut s = Vec::with_capacity(HEADER.len() * (records.len() + 1));
    s.extend_from_slice(HEADER.as_bytes());
    for r in records {
        // A group limit is `N` when there is none.
        crate::columns!(&mut s, b' ';
            r.account.name,
            Or(r.account.grp_cpu_limit, "N"),
            Or(r.account.grp_gpu_mins_limit, "N"),
            r.usage.cpus_running,
            r.usage.cpus_queued,
            r.usage.gpu_seconds,
            Joined(&r.members, "-"),
        );
    }
    crate::text(s)
}

/// One parsed assoc row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssocRow {
    pub account: String,
    pub grp_cpu_limit: Option<u32>,
    pub grp_gpu_mins_limit: Option<u64>,
    pub cpus_in_use: u32,
    pub cpus_queued: u32,
    pub gpu_seconds_used: u64,
    pub users: Vec<String>,
}

/// Parse the assoc dump.
pub fn parse_show_assoc(text: &str) -> Result<Vec<AssocRow>, String> {
    crate::note_parse();
    let mut out = Vec::new();
    for row in crate::blank_rows::<7>(text).skip(1) {
        let line = row.line;
        if row.count == 0 {
            continue;
        }
        if row.count != 7 {
            return Err(format!("malformed assoc line: {line:?}"));
        }
        let p = row.fields;
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

/// Split a multi-record dump into its records, borrowed from the text: one
/// starts at every non-blank line that is not indented, and at the first.
fn split_records(text: &str) -> impl Iterator<Item = &str> {
    let mut lines = text.split_inclusive('\n');
    let mut record_at = None;
    let mut next_line_at = 0;
    std::iter::from_fn(move || loop {
        let Some(line) = lines.next() else {
            return record_at.take().map(|from| &text[from..]);
        };
        let line_at = next_line_at;
        next_line_at += line.len();
        if line.trim().is_empty() {
            continue;
        }
        match record_at {
            Some(from) if !line.starts_with(' ') => {
                record_at = Some(line_at);
                return Some(&text[from..line_at]);
            }
            Some(_) => {}
            None => record_at = Some(line_at),
        }
    })
}

/// The `Key=Value` tokens of a record, borrowed, in text order.
fn tokens(text: &str) -> impl Iterator<Item = (&str, &str)> {
    crate::words(text).filter_map(|tok| tok.split_once('='))
}

/// The record's tokens as the owned map a [`ScontrolJob`] keeps as `raw`.
fn tokenize(text: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for (k, v) in tokens(text) {
        // First occurrence wins (JobId before ArrayJobId etc. are
        // distinct keys, so this only matters for malformed input).
        map.entry(k.to_string()).or_insert_with(|| v.to_string());
    }
    map
}

/// scontrol values cannot contain whitespace.
fn token(v: &str) -> Cleaned<'_, impl Fn(char) -> char> {
    cleaned(v, no_space, "(null)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::TimeLimit;
    use hpcdash_slurm::job::{ArrayMeta, JobRequest, UsageProfile};
    use hpcdash_slurm::tres::Tres;

    fn running_job() -> Job {
        let mut req = JobRequest::simple("alice", "physics", "cpu", 8);
        req.nodes = 2;
        req.gpus_per_node = 1;
        req.time_limit = TimeLimit::Limited(7_200);
        req.usage = UsageProfile::batch(3_600);
        req.comment = Some("ood:rstudio:sess9:/home/alice/ondemand".to_string());
        Job {
            id: JobId(55),
            array: Some(ArrayMeta {
                array_job_id: JobId(55),
                task_id: 3,
                max_concurrent: None,
            }),
            req,
            state: JobState::Running,
            reason: None,
            priority: 12_345,
            submit_time: Timestamp(100),
            eligible_time: Timestamp(100),
            start_time: Some(Timestamp(400)),
            end_time: None,
            nodes: vec!["a001".to_string(), "a002".to_string()],
            exit_code: None,
            stats: None,
            stdout_path: "/home/alice/slurm-55.out".to_string(),
            stderr_path: "/home/alice/slurm-55.err".to_string(),
        }
    }

    #[test]
    fn job_roundtrip() {
        let j = running_job();
        let text = render_job(&j, Timestamp(1_000));
        let p = parse_show_job(&text).unwrap();
        assert_eq!(p.job_id, JobId(55));
        assert_eq!(p.user, "alice");
        assert_eq!(p.state, JobState::Running);
        assert_eq!(p.reason, None);
        assert_eq!(p.priority, 12_345);
        assert_eq!(p.start_time, Some(Timestamp(400)));
        assert_eq!(p.end_time, None);
        assert_eq!(p.run_time_secs, 600);
        assert_eq!(p.num_cpus, 16);
        assert_eq!(p.num_nodes, 2);
        assert_eq!(p.nodelist.as_deref(), Some("a001,a002"));
        assert_eq!(p.gres.as_deref(), Some("gpu:1"));
        assert_eq!(p.array_job_id, Some(JobId(55)));
        assert_eq!(p.array_task_id, Some(3));
        assert!(p.comment.unwrap().starts_with("ood:rstudio"));
        assert_eq!(p.std_out, "/home/alice/slurm-55.out");
    }

    #[test]
    fn pending_job_with_reason_and_dependency() {
        let mut j = running_job();
        j.state = JobState::Pending;
        j.reason = Some(PendingReason::AssocGrpCpuLimit);
        j.req.dependency = Some(JobId(54));
        j.start_time = None;
        j.nodes = Vec::new();
        let p = parse_show_job(&render_job(&j, Timestamp(1_000))).unwrap();
        assert_eq!(p.reason, Some(PendingReason::AssocGrpCpuLimit));
        assert_eq!(p.dependency, Some(JobId(54)));
        assert_eq!(p.nodelist, None);
        assert_eq!(p.start_time, None);
    }

    #[test]
    fn node_roundtrip_single_and_multi() {
        let mut n1 = Node::new("g001", 64, 512_000, 4);
        n1.features = vec!["a100".to_string(), "nvlink".to_string()];
        n1.partitions = vec!["gpu".to_string()];
        n1.allocate(Tres::new(32, 200_000, 2, 1), Timestamp(500));
        n1.cpu_load = 30.72;
        let mut n2 = Node::new("a001", 128, 257_000, 0);
        n2.admin_flag = hpcdash_slurm::node::AdminFlag::Drain;
        n2.reason = Some("bad DIMM".to_string());

        let text = format!("{}\n{}", render_node(&n1), render_node(&n2));
        let parsed = parse_show_node(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        let p1 = &parsed[0];
        assert_eq!(p1.name, "g001");
        assert_eq!(p1.state, NodeState::Mixed);
        assert_eq!(p1.cpu_alloc, 32);
        assert_eq!(p1.cpu_total, 64);
        assert!((p1.cpu_load - 30.72).abs() < 1e-9);
        assert_eq!(p1.gres, Some("gpu:a100:4"));
        assert_eq!(p1.gres_used, Some("gpu:a100:2"));
        assert_eq!(p1.features.iter().collect::<Vec<_>>(), ["a100", "nvlink"]);
        assert_eq!(p1.partitions.iter().collect::<Vec<_>>(), ["gpu"]);
        assert_eq!(p1.details()["CPUTot"], "64");
        assert_eq!(p1.details()["Gres"], "gpu:a100:4");
        assert!(parsed[1].features.is_empty());
        let p2 = &parsed[1];
        assert_eq!(p2.state, NodeState::Drained);
        assert_eq!(p2.reason, Some("bad_DIMM"));
        assert_eq!(p2.alloc_memory_mb, 0);
    }

    #[test]
    fn assoc_roundtrip() {
        let text = "Account GrpTRESCpu GrpTRESMinsGpu CPUsInUse CPUsQueued GPUSecondsUsed Users\n\
                    physics 256 6000 32 16 7200 alice,bob\n\
                    bio N N 0 0 0 carol\n\
                    empty N N 0 0 0 -\n";
        let rows = parse_show_assoc(text).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].grp_cpu_limit, Some(256));
        assert_eq!(rows[0].users, vec!["alice", "bob"]);
        assert_eq!(rows[1].grp_cpu_limit, None);
        assert!(rows[2].users.is_empty());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_show_job("JobId=abc").is_err());
        assert!(parse_show_job("nothing useful").is_err());
        assert!(
            parse_show_node("NodeName=a001\n   State=IDLE\n").is_err(),
            "missing fields"
        );
        assert!(parse_show_assoc("hdr\nfoo bar\n").is_err());
    }

    #[test]
    fn split_records_handles_indentation() {
        let text = "A=1\n   B=2\nC=3\n   D=4\n";
        let recs: Vec<&str> = split_records(text).collect();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].contains("B=2"));
        assert!(recs[1].contains("C=3"));
    }
}
