//! `scontrol show job|node|assoc_mgr`: detailed single-entity dumps.
//!
//! Output uses slurm's `Key=Value` token format, records separated by blank
//! lines. The Node Overview and Job Overview pages (paper §6.1, §7) are fed
//! from these, and the Accounts widget (§3.4) from the assoc dump.

use crate::{cleaned, joined, no_space, put, time_or};
use hpcdash_obs::Span;
use hpcdash_simtime::{parse_timestamp, Elapsed, Timestamp};
use hpcdash_slurm::ctld::{AssocRecord, Slurmctld};
use hpcdash_slurm::job::{Job, JobId, JobState, PendingReason};
use hpcdash_slurm::node::{Node, NodeState};
use hpcdash_slurm::tres::MemMb;
use std::collections::BTreeMap;
use std::fmt;

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

/// A parsed `scontrol show node` record.
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

/// `scontrol show job <id>`: live job details from slurmctld. `Ok(None)`
/// if the job is unknown, `Err` if the command itself fails.
pub fn show_job(ctld: &Slurmctld, id: JobId) -> Result<Option<String>, String> {
    let _span = Span::enter("slurmcli").attr("cmd", "scontrol_show_job");
    match ctld.query_job(id) {
        Some(j) => {
            let text = render_job(&j, ctld.clock_now());
            crate::boundary(ctld.faults(), "scontrol_job", text).map(Some)
        }
        None => crate::boundary(ctld.faults(), "scontrol_job", String::new()).map(|_| None),
    }
}

/// Render one job record.
pub fn render_job(job: &Job, now: Timestamp) -> String {
    let mut s = String::with_capacity(640);
    put!(
        &mut s,
        "JobId={} JobName={}\n   UserId={}(1000) Account={} QOS={} Priority={}\n",
        job.id,
        token(&job.req.name),
        job.req.user,
        job.req.account,
        job.req.qos,
        job.priority,
    );
    put!(
        &mut s,
        "   JobState={} Reason={} Dependency=",
        job.state.to_slurm(),
        job.reason.map(|r| r.to_slurm()).unwrap_or("None"),
    );
    match job.req.dependency {
        Some(d) => put!(&mut s, "afterok:{d}\n"),
        None => s.push_str("(null)\n"),
    }
    put!(
        &mut s,
        "   SubmitTime={} EligibleTime={}\n   StartTime={} EndTime={}\n   TimeLimit={} RunTime={}\n",
        job.submit_time,
        job.eligible_time,
        time_or(job.start_time, "Unknown"),
        time_or(job.end_time, "Unknown"),
        job.req.time_limit,
        Elapsed(job.elapsed_secs(now)),
    );
    put!(
        &mut s,
        "   Partition={} NodeList={}\n   NumNodes={} NumCPUs={} MinMemoryNode={}",
        job.req.partition,
        joined(&job.nodes, "(null)"),
        job.req.nodes,
        job.alloc_cpus(),
        MemMb(job.req.mem_mb_per_node),
    );
    if job.req.gpus_per_node > 0 {
        put!(&mut s, " Gres=gpu:{}", job.req.gpus_per_node);
    }
    put!(
        &mut s,
        "\n   WorkDir={}\n   StdOut={} StdErr={}\n",
        token(&job.req.work_dir),
        token(&job.stdout_path),
        token(&job.stderr_path),
    );
    if let Some(c) = &job.req.comment {
        put!(&mut s, "   Comment={}\n", token(c));
    }
    if let Some(a) = &job.array {
        put!(
            &mut s,
            "   ArrayJobId={} ArrayTaskId={}\n",
            a.array_job_id,
            a.task_id
        );
    }
    s
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
            let mut text = String::with_capacity(nodes.len() * NODE_BYTES);
            for (i, node) in nodes.iter().enumerate() {
                if i > 0 {
                    text.push('\n');
                }
                push_node(&mut text, node);
            }
            text
        }
    };
    crate::boundary(ctld.faults(), "scontrol_node", text)
}

/// About what one node record takes; sizes a dump once.
const NODE_BYTES: usize = 384;

/// Render one node record.
pub fn render_node(node: &Node) -> String {
    let mut s = String::with_capacity(NODE_BYTES);
    push_node(&mut s, node);
    s
}

fn push_node(s: &mut String, node: &Node) {
    put!(
        s,
        "NodeName={} Arch=x86_64\n   CPUAlloc={} CPUTot={} CPULoad={:.2}\n   AvailableFeatures={}\n",
        node.name,
        node.alloc.cpus,
        node.cpus,
        node.cpu_load,
        joined(&node.features, "(null)"),
    );
    if node.gpus > 0 {
        let ty = node.gpu_type.as_deref().unwrap_or("gpu");
        put!(
            s,
            "   Gres=gpu:{ty}:{} GresUsed=gpu:{ty}:{}\n",
            node.gpus,
            node.alloc.gpus
        );
    }
    put!(
        s,
        "   RealMemory={} AllocMem={}\n   State={} Partitions={}\n   OS={}\n   BootTime={} LastBusyTime={}\n",
        node.real_memory_mb,
        node.alloc.mem_mb,
        node.state().to_slurm(),
        joined(&node.partitions, "(null)"),
        token(&node.os),
        node.boot_time,
        node.last_busy,
    );
    if let Some(r) = &node.reason {
        put!(s, "   Reason={}\n", token(r));
    }
}

/// The exact `Key=Value` map [`render_node`] emits, built without the text
/// round-trip. The structured Node Overview path uses this for its details
/// tab so the payload stays byte-compatible with the parsed-text path; a
/// test pins it against `tokenize(render_node(n))` to prevent divergence.
pub fn node_fields(node: &Node) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    let mut put = |k: &str, v: String| {
        map.insert(k.to_string(), v);
    };
    put("NodeName", node.name.clone());
    put("Arch", "x86_64".to_string());
    put("CPUAlloc", node.alloc.cpus.to_string());
    put("CPUTot", node.cpus.to_string());
    put("CPULoad", format!("{:.2}", node.cpu_load));
    put(
        "AvailableFeatures",
        if node.features.is_empty() {
            "(null)".to_string()
        } else {
            node.features.join(",")
        },
    );
    if node.gpus > 0 {
        let ty = node.gpu_type.as_deref().unwrap_or("gpu");
        put("Gres", format!("gpu:{}:{}", ty, node.gpus));
        put("GresUsed", format!("gpu:{}:{}", ty, node.alloc.gpus));
    }
    put("RealMemory", node.real_memory_mb.to_string());
    put("AllocMem", node.alloc.mem_mb.to_string());
    put("State", node.state().to_slurm().to_string());
    put(
        "Partitions",
        if node.partitions.is_empty() {
            "(null)".to_string()
        } else {
            node.partitions.join(",")
        },
    );
    put("OS", token(&node.os).to_string());
    put("BootTime", node.boot_time.to_slurm());
    put("LastBusyTime", node.last_busy.to_slurm());
    if let Some(r) = &node.reason {
        put("Reason", token(r).to_string());
    }
    map
}

/// Parse one or more `scontrol show node` records (see [`parse_show_job`]).
pub fn parse_show_node(text: &str) -> Result<Vec<ScontrolNode>, String> {
    crate::note_parse();
    let mut out = Vec::with_capacity(text.len() / NODE_BYTES + 1);
    for chunk in split_records(text) {
        let raw = tokenize(chunk);
        let get = |k: &str| raw.get(k).map(String::as_str);
        let req = |k: &str| get(k).ok_or_else(|| format!("missing {k}"));
        let list = |k: &str| -> Vec<String> {
            get(k)
                .filter(|v| *v != "(null)")
                .map(|v| v.split(',').map(str::to_string).collect())
                .unwrap_or_default()
        };
        out.push(ScontrolNode {
            name: req("NodeName")?.to_string(),
            state: NodeState::parse(req("State")?).ok_or("bad State")?,
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
            gres: get("Gres").map(str::to_string),
            gres_used: get("GresUsed").map(str::to_string),
            features: list("AvailableFeatures"),
            partitions: list("Partitions"),
            os: req("OS")?.to_string(),
            boot_time: get("BootTime").and_then(parse_timestamp),
            last_busy: get("LastBusyTime").and_then(parse_timestamp),
            reason: get("Reason").map(str::to_string),
            raw,
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

/// A group limit, `N` when there is none.
fn limit(limit: Option<impl fmt::Display>) -> impl fmt::Display {
    fmt::from_fn(move |f| match &limit {
        Some(limit) => limit.fmt(f),
        None => f.write_str("N"),
    })
}

/// Render the assoc dump.
pub fn render_assoc(records: &[AssocRecord]) -> String {
    const HEADER: &str =
        "Account GrpTRESCpu GrpTRESMinsGpu CPUsInUse CPUsQueued GPUSecondsUsed Users\n";
    let mut s = String::with_capacity(HEADER.len() * (records.len() + 1));
    s.push_str(HEADER);
    for r in records {
        put!(
            &mut s,
            "{} {} {} {} {} {} {}\n",
            r.account.name,
            limit(r.account.grp_cpu_limit),
            limit(r.account.grp_gpu_mins_limit),
            r.usage.cpus_running,
            r.usage.cpus_queued,
            r.usage.gpu_seconds,
            joined(&r.members, "-"),
        );
    }
    s
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
    for (i, line) in text.lines().enumerate() {
        if i == 0 || line.trim().is_empty() {
            continue;
        }
        let p = crate::fields::<7>(crate::words(line))
            .map_err(|_| format!("malformed assoc line: {line:?}"))?;
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

/// Tokenize `Key=Value` pairs across the record: the owned map the record
/// keeps as `raw`.
fn tokenize(text: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for tok in crate::words(text) {
        if let Some((k, v)) = tok.split_once('=') {
            // First occurrence wins (JobId before ArrayJobId etc. are
            // distinct keys, so this only matters for malformed input).
            map.entry(k.to_string()).or_insert_with(|| v.to_string());
        }
    }
    map
}

/// scontrol values cannot contain whitespace.
fn token(v: &str) -> impl fmt::Display + '_ {
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
        assert_eq!(p1.gres.as_deref(), Some("gpu:a100:4"));
        assert_eq!(p1.gres_used.as_deref(), Some("gpu:a100:2"));
        assert_eq!(p1.features, vec!["a100", "nvlink"]);
        assert_eq!(p1.partitions, vec!["gpu"]);
        let p2 = &parsed[1];
        assert_eq!(p2.state, NodeState::Drained);
        assert_eq!(p2.reason.as_deref(), Some("bad_DIMM"));
        assert_eq!(p2.alloc_memory_mb, 0);
    }

    #[test]
    fn node_fields_matches_rendered_tokens_exactly() {
        // `node_fields` must never drift from what `render_node` emits:
        // the structured Node Overview path serves it as the details tab
        // in place of the parsed text.
        let mut gpu = Node::new("g001", 64, 512_000, 4);
        gpu.features = vec!["a100".to_string(), "nvlink".to_string()];
        gpu.partitions = vec!["gpu".to_string()];
        gpu.allocate(Tres::new(32, 200_000, 2, 1), Timestamp(500));
        gpu.cpu_load = 30.72;
        let mut drained = Node::new("a001", 128, 257_000, 0);
        drained.admin_flag = hpcdash_slurm::node::AdminFlag::Drain;
        drained.reason = Some("bad DIMM".to_string());
        for n in [&gpu, &drained] {
            assert_eq!(tokenize(&render_node(n)), node_fields(n), "{}", n.name);
        }
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
