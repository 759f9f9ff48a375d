//! Partitions: named groups of nodes with scheduling policy attached.

use hpcdash_simtime::TimeLimit;
use serde::{Deserialize, Serialize};

/// Whether a partition accepts and schedules work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionState {
    Up,
    Down,
    Drain,
    Inactive,
}

impl PartitionState {
    pub fn to_slurm(self) -> &'static str {
        match self {
            PartitionState::Up => "UP",
            PartitionState::Down => "DOWN",
            PartitionState::Drain => "DRAIN",
            PartitionState::Inactive => "INACTIVE",
        }
    }

    pub fn parse(s: &str) -> Option<PartitionState> {
        match s {
            "UP" => Some(PartitionState::Up),
            "DOWN" => Some(PartitionState::Down),
            "DRAIN" => Some(PartitionState::Drain),
            "INACTIVE" => Some(PartitionState::Inactive),
            _ => None,
        }
    }
}

impl std::fmt::Display for PartitionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.to_slurm())
    }
}

/// A scheduling partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    pub name: String,
    /// Names of member nodes.
    pub nodes: Vec<String>,
    pub state: PartitionState,
    pub max_time: TimeLimit,
    pub default_time: TimeLimit,
    /// Higher tiers are scheduled first.
    pub priority_tier: u32,
    /// Is this the cluster's default partition?
    pub is_default: bool,
    /// Per-job ceiling on nodes, if any.
    pub max_nodes_per_job: Option<u32>,
}

impl Partition {
    pub fn new(name: impl Into<String>) -> Partition {
        Partition {
            name: name.into(),
            nodes: Vec::new(),
            state: PartitionState::Up,
            max_time: TimeLimit::Limited(4 * 86_400),
            default_time: TimeLimit::Limited(30 * 60),
            priority_tier: 1,
            is_default: false,
            max_nodes_per_job: None,
        }
    }

    pub fn with_nodes(mut self, nodes: Vec<String>) -> Partition {
        self.nodes = nodes;
        self
    }

    pub fn with_max_time(mut self, limit: TimeLimit) -> Partition {
        self.max_time = limit;
        self
    }

    pub fn default_partition(mut self) -> Partition {
        self.is_default = true;
        self
    }

    /// Does a requested time limit fit under this partition's ceiling?
    pub(crate) fn allows_time(&self, requested: TimeLimit) -> bool {
        match (requested, self.max_time) {
            (_, TimeLimit::Unlimited) => true,
            (TimeLimit::Unlimited, TimeLimit::Limited(_)) => false,
            (TimeLimit::Limited(r), TimeLimit::Limited(m)) => r <= m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_limit_policy() {
        let p = Partition::new("cpu").with_max_time(TimeLimit::Limited(3_600));
        assert!(p.allows_time(TimeLimit::Limited(3_600)));
        assert!(p.allows_time(TimeLimit::Limited(60)));
        assert!(!p.allows_time(TimeLimit::Limited(3_601)));
        assert!(!p.allows_time(TimeLimit::Unlimited));

        let open = Partition::new("debug").with_max_time(TimeLimit::Unlimited);
        assert!(open.allows_time(TimeLimit::Unlimited));
        assert!(open.allows_time(TimeLimit::Limited(999_999)));
    }

    #[test]
    fn builder() {
        let p = Partition::new("gpu")
            .with_nodes(vec!["g001".into(), "g002".into()])
            .default_partition();
        assert_eq!(p.name, "gpu");
        assert_eq!(p.nodes.len(), 2);
        assert!(p.is_default);
        assert_eq!(p.state, PartitionState::Up);
    }

    #[test]
    fn state_tokens() {
        for s in [
            PartitionState::Up,
            PartitionState::Down,
            PartitionState::Drain,
            PartitionState::Inactive,
        ] {
            assert_eq!(PartitionState::parse(s.to_slurm()), Some(s));
        }
        assert_eq!(PartitionState::parse("nope"), None);
    }
}
