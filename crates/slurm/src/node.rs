//! Compute nodes and their state machine.

use crate::tres::Tres;
use hpcdash_simtime::Timestamp;
use serde::{Deserialize, Serialize};

/// Administrative / derived node state, matching the states the dashboard's
/// Cluster Status grid colour-codes (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeState {
    /// Online, no jobs running.
    Idle,
    /// Online, some resources allocated.
    Mixed,
    /// Online, fully allocated.
    Allocated,
    /// Admin-drained: running jobs may finish, no new work.
    Drained,
    /// Scheduled maintenance.
    Maint,
    /// Offline / unreachable.
    Down,
}

impl NodeState {
    /// Slurm's display token, e.g. in `sinfo` / `scontrol show node`.
    pub fn to_slurm(self) -> &'static str {
        match self {
            NodeState::Idle => "IDLE",
            NodeState::Mixed => "MIXED",
            NodeState::Allocated => "ALLOCATED",
            NodeState::Drained => "DRAINED",
            NodeState::Maint => "MAINT",
            NodeState::Down => "DOWN",
        }
    }

    pub fn parse(s: &str) -> Option<NodeState> {
        // Tolerate the `*`/`+` suffixes slurm appends for non-responding /
        // power-saving nodes.
        match s.trim_end_matches(['*', '+', '~', '#']) {
            "IDLE" => Some(NodeState::Idle),
            "MIXED" => Some(NodeState::Mixed),
            "ALLOCATED" | "ALLOC" => Some(NodeState::Allocated),
            "DRAINED" | "DRAIN" | "DRAINING" => Some(NodeState::Drained),
            "MAINT" | "MAINTENANCE" => Some(NodeState::Maint),
            "DOWN" => Some(NodeState::Down),
            _ => None,
        }
    }

    /// Can the scheduler place new work here?
    pub fn schedulable(self) -> bool {
        matches!(
            self,
            NodeState::Idle | NodeState::Mixed | NodeState::Allocated
        )
    }

    /// Is the node reachable at all (running jobs can continue)?
    pub fn online(self) -> bool {
        !matches!(self, NodeState::Down | NodeState::Maint)
    }
}

impl std::fmt::Display for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.to_slurm())
    }
}

/// Admin override applied on top of the allocation-derived state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AdminFlag {
    #[default]
    None,
    Drain,
    Maint,
    Down,
}

/// One compute node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    pub name: String,
    /// Configured resources.
    pub cpus: u32,
    pub real_memory_mb: u64,
    pub gpus: u32,
    pub gpu_type: Option<String>,
    pub features: Vec<String>,
    /// Partitions this node belongs to.
    pub partitions: Vec<String>,
    pub os: String,
    /// Currently allocated resources (maintained by the scheduler).
    pub alloc: Tres,
    /// 1-minute load average reported by slurmd; the simulator derives it
    /// from allocation plus jitter.
    pub cpu_load: f64,
    pub admin_flag: AdminFlag,
    /// Why the node was drained/downed, if it was.
    pub reason: Option<String>,
    pub boot_time: Timestamp,
    /// Last instant the node had work (drives "last active" on the
    /// Node Overview status card).
    pub last_busy: Timestamp,
}

impl Node {
    pub fn new(name: impl Into<String>, cpus: u32, real_memory_mb: u64, gpus: u32) -> Node {
        Node {
            name: name.into(),
            cpus,
            real_memory_mb,
            gpus,
            gpu_type: if gpus > 0 {
                Some("a100".to_string())
            } else {
                None
            },
            features: Vec::new(),
            partitions: Vec::new(),
            os: "Linux 5.14.0-427.el9".to_string(),
            alloc: Tres::default(),
            cpu_load: 0.0,
            admin_flag: AdminFlag::None,
            reason: None,
            boot_time: Timestamp::ZERO,
            last_busy: Timestamp::ZERO,
        }
    }

    /// Total configured resources as a TRES bundle.
    pub fn configured(&self) -> Tres {
        Tres::new(self.cpus, self.real_memory_mb, self.gpus, 1)
    }

    /// Resources still free for new allocations.
    pub fn free(&self) -> Tres {
        self.configured()
            .minus(self.alloc)
            .with_node_if_idle(self.alloc.cpus == 0)
    }

    /// The effective state shown to users.
    pub fn state(&self) -> NodeState {
        match self.admin_flag {
            AdminFlag::Down => NodeState::Down,
            AdminFlag::Maint => NodeState::Maint,
            AdminFlag::Drain => NodeState::Drained,
            AdminFlag::None => {
                if self.alloc.cpus == 0 {
                    NodeState::Idle
                } else if self.alloc.cpus >= self.cpus {
                    NodeState::Allocated
                } else {
                    NodeState::Mixed
                }
            }
        }
    }

    /// Can the scheduler place a new allocation of `req` on this node?
    pub(crate) fn can_fit(&self, req: Tres) -> bool {
        self.can_fit_beside(self.alloc, req)
    }

    /// [`Node::can_fit`] as if `alloc` were allocated here, as the planner
    /// asks; with no admin flag set the node is always schedulable.
    pub(crate) fn can_fit_beside(&self, alloc: Tres, req: Tres) -> bool {
        self.admin_flag == AdminFlag::None
            && req.cpus <= self.cpus.saturating_sub(alloc.cpus)
            && req.mem_mb <= self.real_memory_mb.saturating_sub(alloc.mem_mb)
            && req.gpus <= self.gpus.saturating_sub(alloc.gpus)
    }

    /// Allocate resources. Panics if they do not fit — the scheduler must
    /// check `Node::can_fit` first; violating that is a simulator bug.
    pub fn allocate(&mut self, req: Tres, now: Timestamp) {
        assert!(
            self.can_fit(req),
            "allocation {req} does not fit on {} (alloc {})",
            self.name,
            self.alloc
        );
        self.alloc = self.alloc.plus(Tres { nodes: 0, ..req });
        self.last_busy = now;
    }

    /// Release a previous allocation.
    pub fn release(&mut self, req: Tres, now: Timestamp) {
        self.alloc = self.alloc.minus(Tres { nodes: 0, ..req });
        self.last_busy = now;
    }

    /// Fraction of CPUs allocated, in `[0, 1]`.
    pub fn cpu_utilization(&self) -> f64 {
        if self.cpus == 0 {
            0.0
        } else {
            self.alloc.cpus as f64 / self.cpus as f64
        }
    }
}

trait WithNodeIfIdle {
    fn with_node_if_idle(self, idle: bool) -> Self;
}

impl WithNodeIfIdle for Tres {
    fn with_node_if_idle(mut self, idle: bool) -> Tres {
        self.nodes = if idle { 1 } else { 0 };
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new("a001", 128, 257_000, 0)
    }

    #[test]
    fn derived_states() {
        let mut n = node();
        assert_eq!(n.state(), NodeState::Idle);
        n.allocate(Tres::new(4, 8_192, 0, 1), Timestamp(10));
        assert_eq!(n.state(), NodeState::Mixed);
        n.allocate(Tres::new(124, 1_000, 0, 1), Timestamp(11));
        assert_eq!(n.state(), NodeState::Allocated);
        n.release(Tres::new(124, 1_000, 0, 1), Timestamp(12));
        n.release(Tres::new(4, 8_192, 0, 1), Timestamp(13));
        assert_eq!(n.state(), NodeState::Idle);
        assert_eq!(n.last_busy, Timestamp(13));
    }

    #[test]
    fn admin_flags_override() {
        let mut n = node();
        n.admin_flag = AdminFlag::Drain;
        assert_eq!(n.state(), NodeState::Drained);
        assert!(!n.can_fit(Tres::new(1, 1, 0, 1)));
        n.admin_flag = AdminFlag::Down;
        assert_eq!(n.state(), NodeState::Down);
        assert!(!n.state().online());
        n.admin_flag = AdminFlag::Maint;
        assert_eq!(n.state(), NodeState::Maint);
    }

    #[test]
    fn fit_checks_all_dimensions() {
        let mut n = Node::new("g001", 64, 512_000, 4);
        assert!(n.can_fit(Tres::new(64, 512_000, 4, 1)));
        assert!(!n.can_fit(Tres::new(65, 1, 0, 1)));
        assert!(!n.can_fit(Tres::new(1, 512_001, 0, 1)));
        assert!(!n.can_fit(Tres::new(1, 1, 5, 1)));
        n.allocate(Tres::new(32, 256_000, 2, 1), Timestamp(1));
        assert!(n.can_fit(Tres::new(32, 256_000, 2, 1)));
        assert!(!n.can_fit(Tres::new(33, 1, 0, 1)));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn over_allocation_panics() {
        let mut n = node();
        n.allocate(Tres::new(200, 1, 0, 1), Timestamp(1));
    }

    #[test]
    fn utilization_fractions() {
        let mut n = node();
        assert_eq!(n.cpu_utilization(), 0.0);
        n.allocate(Tres::new(64, 128_500, 0, 1), Timestamp(1));
        assert!((n.cpu_utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn state_tokens_roundtrip() {
        for s in [
            NodeState::Idle,
            NodeState::Mixed,
            NodeState::Allocated,
            NodeState::Drained,
            NodeState::Maint,
            NodeState::Down,
        ] {
            assert_eq!(NodeState::parse(s.to_slurm()), Some(s));
        }
        assert_eq!(NodeState::parse("IDLE*"), Some(NodeState::Idle));
        assert_eq!(NodeState::parse("bogus"), None);
    }

    #[test]
    fn free_resources() {
        let mut n = Node::new("g001", 64, 512_000, 4);
        assert_eq!(n.free(), Tres::new(64, 512_000, 4, 1));
        n.allocate(Tres::new(16, 100_000, 1, 1), Timestamp(1));
        assert_eq!(n.free(), Tres::new(48, 412_000, 3, 0));
    }
}
