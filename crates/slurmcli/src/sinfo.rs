//! `sinfo`: partition/node summaries against slurmctld.
//!
//! Two shapes are implemented, matching the two the dashboard needs:
//!
//! * [`sinfo_summary`] — the default `PARTITION AVAIL TIMELIMIT NODES STATE
//!   NODELIST` grouping, for the Cluster Status list view.
//! * [`sinfo_usage`] — `sinfo -o "%P %a %C %G"`-style per-partition CPU/GPU
//!   usage (`alloc/idle/other/total`), which drives the System Status
//!   widget's utilization bars (paper §3.3).

use crate::put;
use hpcdash_obs::Span;
use hpcdash_slurm::ctld::Slurmctld;
use hpcdash_slurm::node::{Node, NodeState};
use hpcdash_slurm::partition::{Partition, PartitionState};
use hpcdash_slurm::snapshot::ClusterSnapshot;
use std::collections::BTreeMap;

/// One row of the default `sinfo` grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinfoRow {
    pub partition: String,
    pub avail: String,
    pub timelimit: String,
    pub node_count: u32,
    pub state: NodeState,
    pub nodelist: Vec<String>,
}

/// Per-partition resource usage for the System Status widget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionUsage {
    pub partition: String,
    /// `UP` / `DOWN` / ...
    pub avail: String,
    pub cpus_alloc: u32,
    pub cpus_idle: u32,
    /// CPUs on nodes that are down/drained/maint.
    pub cpus_other: u32,
    pub cpus_total: u32,
    pub gpus_alloc: u32,
    pub gpus_total: u32,
    pub nodes_total: u32,
    pub nodes_in_use: u32,
}

impl PartitionUsage {
    /// CPU utilization over the *usable* pool, in `[0, 1]`.
    pub fn cpu_utilization(&self) -> f64 {
        let usable = self.cpus_alloc + self.cpus_idle;
        if usable == 0 {
            0.0
        } else {
            self.cpus_alloc as f64 / usable as f64
        }
    }

    pub fn gpu_utilization(&self) -> f64 {
        if self.gpus_total == 0 {
            0.0
        } else {
            self.gpus_alloc as f64 / self.gpus_total as f64
        }
    }
}

/// Default `sinfo` output: nodes grouped by (partition, state). Served from
/// one snapshot load; grouping uses the snapshot's precomputed per-partition
/// node lists instead of rebuilding a name index per call.
pub fn sinfo_summary(ctld: &Slurmctld) -> Result<String, String> {
    let _span = Span::enter("slurmcli").attr("cmd", "sinfo_summary");
    let text = render_summary_snapshot(&ctld.query_cluster());
    crate::boundary(ctld.faults(), "sinfo", text)
}

/// `sinfo` groups a partition's nodes by state, in the order of the states'
/// names.
const STATES_BY_NAME: [NodeState; 6] = [
    NodeState::Allocated,
    NodeState::Down,
    NodeState::Drained,
    NodeState::Idle,
    NodeState::Maint,
    NodeState::Mixed,
];

fn avail(part: &Partition) -> &'static str {
    if part.state == PartitionState::Up {
        "up"
    } else {
        "down"
    }
}

/// Emit the summary rows for one partition given its nodes in declared
/// order — the single formatting path both entry points share, so snapshot
/// output is byte-identical to the slice-based renderer. The nodes are
/// walked once per state instead of being sorted into lists of names.
fn push_summary_rows<'a>(
    out: &mut String,
    part: &Partition,
    nodes: impl Iterator<Item = &'a Node> + Clone,
) {
    for state in STATES_BY_NAME {
        let members = nodes.clone().filter(|n| n.state() == state);
        let count = members.clone().count();
        if count == 0 {
            continue;
        }
        put!(
            out,
            "{}{} {} {} {count} ",
            part.name,
            if part.is_default { "*" } else { "" },
            avail(part),
            part.max_time,
        );
        out.extend(state.to_slurm().chars().map(|c| c.to_ascii_lowercase()));
        for (i, node) in members.enumerate() {
            out.push(if i == 0 { ' ' } else { ',' });
            out.push_str(&node.name);
        }
        out.push('\n');
    }
}

const SUMMARY_HEADER: &str = "PARTITION AVAIL TIMELIMIT NODES STATE NODELIST\n";

/// The slice-based entry points find a partition's nodes by name.
fn by_name(nodes: &[Node]) -> BTreeMap<&str, &Node> {
    nodes.iter().map(|n| (n.name.as_str(), n)).collect()
}

/// `part`'s nodes in declared order; names `index` does not know are skipped.
fn members<'a>(
    part: &'a Partition,
    index: &'a BTreeMap<&str, &'a Node>,
) -> impl Iterator<Item = &'a Node> + Clone {
    part.nodes
        .iter()
        .filter_map(|n| index.get(n.as_str()).copied())
}

pub fn render_summary(partitions: &[Partition], nodes: &[Node]) -> String {
    let index = by_name(nodes);
    let mut out = String::from(SUMMARY_HEADER);
    for part in partitions {
        push_summary_rows(&mut out, part, members(part, &index));
    }
    out
}

/// Render the summary straight from a snapshot's per-partition node groups.
pub fn render_summary_snapshot(snap: &ClusterSnapshot) -> String {
    let mut out = String::from(SUMMARY_HEADER);
    for (i, part) in snap.partitions.iter().enumerate() {
        push_summary_rows(&mut out, part, snap.nodes_of_partition(i));
    }
    out
}

/// Parse the default summary back into rows.
pub fn parse_sinfo_summary(text: &str) -> Result<Vec<SinfoRow>, String> {
    crate::note_parse();
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 || line.trim().is_empty() {
            continue;
        }
        let parts = crate::fields::<6>(crate::words(line))
            .map_err(|_| format!("malformed sinfo line: {line:?}"))?;
        rows.push(SinfoRow {
            partition: parts[0].trim_end_matches('*').to_string(),
            avail: parts[1].to_string(),
            timelimit: parts[2].to_string(),
            node_count: parts[3]
                .parse()
                .map_err(|_| format!("bad count {:?}", parts[3]))?,
            state: state_of_word(parts[4]).ok_or_else(|| format!("bad state {:?}", parts[4]))?,
            nodelist: parts[5].split(',').map(str::to_string).collect(),
        });
    }
    Ok(rows)
}

/// `NodeState::parse` of the upper-cased word, upper-cased on the stack. The
/// suffix marks go first: they may repeat without bound, a state may not.
fn state_of_word(word: &str) -> Option<NodeState> {
    let mut upper = [0u8; 16];
    let mut len = 0;
    let word = word.trim_end_matches(['*', '+', '~', '#']);
    for c in word.chars().flat_map(char::to_uppercase) {
        c.encode_utf8(upper.get_mut(len..len + c.len_utf8())?);
        len += c.len_utf8();
    }
    NodeState::parse(std::str::from_utf8(&upper[..len]).ok()?)
}

/// `sinfo -o "%P %a %C %G"`-style usage output:
/// `PARTITION AVAIL CPUS(A/I/O/T) GPUS(A/T) NODES(I/T)`.
pub fn sinfo_usage(ctld: &Slurmctld) -> Result<String, String> {
    let _span = Span::enter("slurmcli").attr("cmd", "sinfo_usage");
    let text = render_usage_snapshot(&ctld.query_cluster());
    crate::boundary(ctld.faults(), "sinfo", text)
}

const USAGE_HEADER: &str = "PARTITION AVAIL CPUS(A/I/O/T) GPUS(A/T) NODES(U/T)\n";

pub fn render_usage(partitions: &[Partition], nodes: &[Node]) -> String {
    let index = by_name(nodes);
    let mut out = String::from(USAGE_HEADER);
    for part in partitions {
        push_usage_row(&mut out, part, members(part, &index));
    }
    out
}

/// Render the usage table straight from a snapshot's node groups.
pub fn render_usage_snapshot(snap: &ClusterSnapshot) -> String {
    let mut out = String::from(USAGE_HEADER);
    for (i, part) in snap.partitions.iter().enumerate() {
        push_usage_row(&mut out, part, snap.nodes_of_partition(i));
    }
    out
}

fn push_usage_row<'a>(out: &mut String, part: &Partition, nodes: impl Iterator<Item = &'a Node>) {
    let u = tally(nodes);
    put!(
        out,
        "{} {} {}/{}/{}/{} {}/{} {}/{}\n",
        part.name,
        avail(part),
        u.cpus_alloc,
        u.cpus_idle,
        u.cpus_other,
        u.cpus_total,
        u.gpus_alloc,
        u.gpus_total,
        u.nodes_in_use,
        u.nodes_total,
    );
}

/// Sum one partition's nodes into the counters of a usage record; whoever
/// keeps the record names it ([`usage_of`]), the renderer does not need to.
fn tally<'a>(nodes: impl Iterator<Item = &'a Node>) -> PartitionUsage {
    let mut u = PartitionUsage {
        partition: String::new(),
        avail: String::new(),
        cpus_alloc: 0,
        cpus_idle: 0,
        cpus_other: 0,
        cpus_total: 0,
        gpus_alloc: 0,
        gpus_total: 0,
        nodes_total: 0,
        nodes_in_use: 0,
    };
    for node in nodes {
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
}

/// Aggregate one partition's nodes into a usage record.
fn usage_of<'a>(part: &Partition, nodes: impl Iterator<Item = &'a Node>) -> PartitionUsage {
    PartitionUsage {
        partition: part.name.clone(),
        avail: avail(part).to_string(),
        ..tally(nodes)
    }
}

/// Aggregate node state into per-partition usage records.
pub fn compute_usage(partitions: &[Partition], nodes: &[Node]) -> Vec<PartitionUsage> {
    let index = by_name(nodes);
    partitions
        .iter()
        .map(|part| usage_of(part, members(part, &index)))
        .collect()
}

/// Usage records from a snapshot's precomputed per-partition node groups.
pub fn compute_usage_snapshot(snap: &ClusterSnapshot) -> Vec<PartitionUsage> {
    snap.partitions
        .iter()
        .enumerate()
        .map(|(i, part)| usage_of(part, snap.nodes_of_partition(i)))
        .collect()
}

/// Parse the usage format back into records.
pub fn parse_sinfo_usage(text: &str) -> Result<Vec<PartitionUsage>, String> {
    crate::note_parse();
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 || line.trim().is_empty() {
            continue;
        }
        let parts = crate::fields::<5>(crate::words(line))
            .map_err(|_| format!("malformed sinfo usage line: {line:?}"))?;
        let counts = (
            tuple::<4>(parts[2], "cpus")?,
            tuple::<2>(parts[3], "gpus")?,
            tuple::<2>(parts[4], "nodes")?,
        );
        let (Some(cpus), Some(gpus), Some(nodes)) = counts else {
            return Err(format!("malformed sinfo usage tuple: {line:?}"));
        };
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

/// The numbers of one `a/b/..` column. `Err` names the column when a part is
/// not a number; `None` when they all are but there are not `N` of them.
fn tuple<const N: usize>(column: &str, what: &str) -> Result<Option<[u32; N]>, String> {
    let mut out = [0; N];
    let mut count = 0;
    for part in column.split('/') {
        let num = part.parse().map_err(|_| format!("bad {what} {column:?}"))?;
        if let Some(slot) = out.get_mut(count) {
            *slot = num;
        }
        count += 1;
    }
    Ok((count == N).then_some(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::Timestamp;
    use hpcdash_slurm::node::AdminFlag;
    use hpcdash_slurm::tres::Tres;

    fn fixture() -> (Vec<Partition>, Vec<Node>) {
        let mut nodes: Vec<Node> = (1..=3)
            .map(|i| Node::new(format!("a{i:03}"), 16, 64_000, 0))
            .collect();
        let mut gpu_node = Node::new("g001", 64, 512_000, 4);
        gpu_node.allocate(Tres::new(32, 100_000, 2, 1), Timestamp(0));
        nodes[0].allocate(Tres::new(16, 1_000, 0, 1), Timestamp(0));
        nodes[2].admin_flag = AdminFlag::Drain;
        nodes.push(gpu_node);
        let cpu = Partition::new("cpu")
            .with_nodes(vec!["a001".into(), "a002".into(), "a003".into()])
            .default_partition();
        let gpu = Partition::new("gpu").with_nodes(vec!["g001".into()]);
        (vec![cpu, gpu], nodes)
    }

    #[test]
    fn usage_aggregation() {
        let (parts, nodes) = fixture();
        let usage = compute_usage(&parts, &nodes);
        let cpu = &usage[0];
        assert_eq!(cpu.partition, "cpu");
        assert_eq!(cpu.cpus_total, 48);
        assert_eq!(cpu.cpus_alloc, 16);
        assert_eq!(cpu.cpus_idle, 16);
        assert_eq!(cpu.cpus_other, 16, "drained node counts as other");
        assert_eq!(cpu.nodes_in_use, 1);
        assert!((cpu.cpu_utilization() - 0.5).abs() < 1e-9);

        let gpu = &usage[1];
        assert_eq!(gpu.gpus_total, 4);
        assert_eq!(gpu.gpus_alloc, 2);
        assert!((gpu.gpu_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn usage_roundtrip() {
        let (parts, nodes) = fixture();
        let text = render_usage(&parts, &nodes);
        let parsed = parse_sinfo_usage(&text).unwrap();
        assert_eq!(parsed, compute_usage(&parts, &nodes));
    }

    #[test]
    fn summary_groups_by_state() {
        let (parts, nodes) = fixture();
        let text = render_summary(&parts, &nodes);
        let rows = parse_sinfo_summary(&text).unwrap();
        // cpu partition has allocated(a001), idle(a002), drained(a003).
        let cpu_rows: Vec<&SinfoRow> = rows.iter().filter(|r| r.partition == "cpu").collect();
        assert_eq!(cpu_rows.len(), 3);
        let states: Vec<NodeState> = cpu_rows.iter().map(|r| r.state).collect();
        assert!(states.contains(&NodeState::Allocated));
        assert!(states.contains(&NodeState::Idle));
        assert!(states.contains(&NodeState::Drained));
        // gpu partition: one mixed node.
        let gpu_rows: Vec<&SinfoRow> = rows.iter().filter(|r| r.partition == "gpu").collect();
        assert_eq!(gpu_rows.len(), 1);
        assert_eq!(gpu_rows[0].state, NodeState::Mixed);
        assert_eq!(gpu_rows[0].nodelist, vec!["g001".to_string()]);
    }

    #[test]
    fn every_state_has_its_group_in_name_order() {
        assert!(STATES_BY_NAME
            .windows(2)
            .all(|w| w[0].to_slurm() < w[1].to_slurm()));
        // A state added to the enum must be added to the groups: this match
        // stops compiling until it is counted here.
        let known = |state| match state {
            NodeState::Idle
            | NodeState::Mixed
            | NodeState::Allocated
            | NodeState::Drained
            | NodeState::Maint
            | NodeState::Down => 6,
        };
        assert_eq!(STATES_BY_NAME.len(), known(NodeState::Idle));
    }

    #[test]
    fn empty_partition_renders_nothing() {
        let p = Partition::new("empty");
        let text = render_summary(&[p], &[]);
        assert_eq!(parse_sinfo_summary(&text).unwrap().len(), 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_sinfo_usage("HDR\ncpu up 1/2/3 0/0 1/1\n").is_err());
        assert!(parse_sinfo_usage("HDR\ncpu up a/b/c/d 0/0 1/1\n").is_err());
        assert!(parse_sinfo_summary("HDR\ncpu up\n").is_err());
    }
}
