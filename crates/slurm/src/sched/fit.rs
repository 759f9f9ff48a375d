//! Node selection over the planner's scratch view: which nodes could host
//! a job now, or ever.

use crate::job::JobRequest;
use crate::node::Node;
use crate::partition::Partition;
use crate::tres::Tres;
use std::collections::BTreeMap;

/// One scheduling pass's view of the nodes: every live node, borrowed, with
/// a copy of its allocation that the pass's planned starts are added to.
/// Positions follow the live `BTreeMap`, i.e. node-name order, so ordering
/// by position is ordering by name without touching a `String`.
#[derive(Clone)]
pub(crate) struct ScratchView<'a> {
    nodes: Vec<&'a Node>,
    alloc: Vec<Tres>,
}

impl<'a> ScratchView<'a> {
    pub(crate) fn new(nodes: &'a BTreeMap<String, Node>) -> ScratchView<'a> {
        ScratchView {
            nodes: nodes.values().collect(),
            alloc: nodes.values().map(|n| n.alloc).collect(),
        }
    }

    /// The position of the node called `name`, if there is one.
    pub(crate) fn position(&self, name: &str) -> Option<u32> {
        self.nodes
            .binary_search_by(|n| n.name.as_str().cmp(name))
            .ok()
            .map(|p| p as u32)
    }

    pub(crate) fn name(&self, pos: u32) -> &'a str {
        &self.nodes[pos as usize].name
    }

    /// CPUs still free on node `pos`: the best-fit sort key.
    fn free_cpus(&self, pos: u32) -> u32 {
        let p = pos as usize;
        self.nodes[p].cpus.saturating_sub(self.alloc[p].cpus)
    }

    /// Could one node's share of `req` be placed on node `pos` now?
    pub(crate) fn fits(&self, pos: u32, req: &JobRequest) -> bool {
        let p = pos as usize;
        self.nodes[p].can_fit_beside(self.alloc[p], req.per_node_tres())
            && has_features(self.nodes[p], &req.constraints)
    }

    /// `partition`'s nodes in best-fit order: `(free CPUs, position)`,
    /// ascending, so the fullest node that fits comes first and ties go to
    /// the name. Names the partition lists but no node has are skipped.
    pub(crate) fn best_fit_order(&self, partition: &Partition) -> Vec<(u32, u32)> {
        let mut order: Vec<(u32, u32)> = partition
            .nodes
            .iter()
            .filter_map(|name| self.position(name))
            .map(|pos| (self.free_cpus(pos), pos))
            .collect();
        order.sort_unstable();
        order
    }

    /// The first `req.nodes` nodes of `order` that fit `req` now, skipping
    /// the positions in `skip` (ascending); `None` if fewer fit. `order` is
    /// best-fit order, so nodes with too few free CPUs are never visited.
    pub(crate) fn select(
        &self,
        order: &[(u32, u32)],
        req: &JobRequest,
        skip: &[u32],
    ) -> Option<Vec<u32>> {
        let cpus = req.per_node_tres().cpus;
        let from = order.partition_point(|&(free, _)| free < cpus);
        let chosen: Vec<u32> = order[from..]
            .iter()
            .map(|&(_, pos)| pos)
            .filter(|pos| skip.binary_search(pos).is_err() && self.fits(*pos, req))
            .take(req.nodes as usize)
            .collect();
        (chosen.len() == req.nodes as usize).then_some(chosen)
    }

    /// Plan one node's share of a start on node `pos`, keeping each of
    /// `orders` (best-fit orders over this view) sorted.
    pub(crate) fn allocate<'o>(
        &mut self,
        pos: u32,
        per_node: Tres,
        orders: impl Iterator<Item = &'o mut Vec<(u32, u32)>>,
    ) {
        let old = (self.free_cpus(pos), pos);
        self.alloc[pos as usize] = self.alloc[pos as usize].plus(per_node);
        let new = (self.free_cpus(pos), pos);
        for order in orders {
            if let Ok(i) = order.binary_search(&old) {
                order.remove(i);
                let j = order.binary_search(&new).unwrap_or_else(|j| j);
                order.insert(j, new);
            }
        }
    }

    /// Release one node's share of a running job from node `pos`.
    pub(crate) fn release(&mut self, pos: u32, per_node: Tres) {
        self.alloc[pos as usize] = self.alloc[pos as usize].minus(per_node);
    }

    /// Could `req` ever be satisfied by the nodes of `order` if they were
    /// empty? Distinguishes `BadConstraints` (never) from
    /// `Resources`/`Priority` (not yet): ignores allocations and admin flags.
    pub(crate) fn could_ever_fit(&self, order: &[(u32, u32)], req: &JobRequest) -> bool {
        let per_node = req.per_node_tres();
        // `take` stops the count at the nodes the job needs: most need one.
        let matching = order
            .iter()
            .map(|&(_, pos)| self.nodes[pos as usize])
            .filter(|n| {
                per_node.cpus <= n.cpus
                    && per_node.mem_mb <= n.real_memory_mb
                    && per_node.gpus <= n.gpus
                    && has_features(n, &req.constraints)
            })
            .take(req.nodes as usize)
            .count();
        matching as u32 >= req.nodes
    }
}

fn has_features(node: &Node, constraints: &[String]) -> bool {
    constraints
        .iter()
        .all(|c| node.features.iter().any(|f| f == c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcdash_simtime::Timestamp;

    fn cluster() -> (BTreeMap<String, Node>, Partition) {
        let mut nodes = BTreeMap::new();
        for i in 1..=4 {
            let mut n = Node::new(format!("a{i:03}"), 16, 64_000, 0);
            n.features = vec!["avx2".to_string()];
            nodes.insert(n.name.clone(), n);
        }
        let part = Partition::new("cpu").with_nodes(nodes.keys().cloned().collect());
        (nodes, part)
    }

    fn req(nodes: u32, cpus: u32) -> JobRequest {
        let mut r = JobRequest::simple("alice", "physics", "cpu", cpus);
        r.nodes = nodes;
        r.mem_mb_per_node = 1_000;
        r
    }

    fn select(
        nodes: &BTreeMap<String, Node>,
        part: &Partition,
        r: &JobRequest,
    ) -> Option<Vec<String>> {
        let view = ScratchView::new(nodes);
        let chosen = view.select(&view.best_fit_order(part), r, &[])?;
        Some(chosen.iter().map(|&p| view.name(p).to_string()).collect())
    }

    fn could_ever_fit(nodes: &BTreeMap<String, Node>, part: &Partition, r: &JobRequest) -> bool {
        let view = ScratchView::new(nodes);
        view.could_ever_fit(&view.best_fit_order(part), r)
    }

    #[test]
    fn selects_requested_count() {
        let (nodes, part) = cluster();
        let chosen = select(&nodes, &part, &req(2, 8)).unwrap();
        assert_eq!(chosen.len(), 2);
    }

    #[test]
    fn best_fit_prefers_fuller_nodes() {
        let (mut nodes, part) = cluster();
        // a003 has 12 free CPUs, the rest have 16.
        nodes
            .get_mut("a003")
            .unwrap()
            .allocate(Tres::new(4, 1_000, 0, 1), Timestamp(0));
        let chosen = select(&nodes, &part, &req(2, 8)).unwrap();
        assert_eq!(
            chosen,
            ["a003", "a001"],
            "least-free node first, then ties by name"
        );
    }

    #[test]
    fn planned_starts_keep_the_order_sorted() {
        let (nodes, part) = cluster();
        let mut view = ScratchView::new(&nodes);
        let mut sorted = view.best_fit_order(&part);
        let a002 = view.position("a002").unwrap();
        view.allocate(a002, req(1, 10).per_node_tres(), [&mut sorted].into_iter());
        assert_eq!(sorted[0], (6, a002));
        assert_eq!(sorted, view.best_fit_order(&part));
        // Six free CPUs are too few for 8; the planned start is not live.
        let chosen = view.select(&sorted, &req(1, 8), &[]).unwrap();
        assert_eq!(view.name(chosen[0]), "a001");
        assert_eq!(nodes["a002"].alloc.cpus, 0);
        let others = view.select(&sorted, &req(2, 8), &[chosen[0]]).unwrap();
        assert_eq!(others.len(), 2);
        assert!(!others.contains(&chosen[0]), "skipped nodes are not chosen");
        assert!(view.select(&sorted, &req(3, 8), &[chosen[0]]).is_none());
        assert!(view.select(&sorted, &req(4, 8), &[]).is_none());
    }

    #[test]
    fn no_fit_when_busy() {
        let (mut nodes, part) = cluster();
        for n in nodes.values_mut() {
            n.allocate(Tres::new(16, 1_000, 0, 1), Timestamp(0));
        }
        assert!(select(&nodes, &part, &req(1, 1)).is_none());
        assert!(
            could_ever_fit(&nodes, &part, &req(1, 1)),
            "would fit on an empty cluster"
        );
    }

    #[test]
    fn constraints_filter_nodes() {
        let (nodes, part) = cluster();
        let mut r = req(1, 1);
        r.constraints = vec!["avx2".to_string()];
        assert!(select(&nodes, &part, &r).is_some());
        r.constraints = vec!["nvlink".to_string()];
        assert!(select(&nodes, &part, &r).is_none());
        assert!(!could_ever_fit(&nodes, &part, &r));
    }

    #[test]
    fn impossible_requests_never_fit() {
        let (nodes, part) = cluster();
        assert!(
            !could_ever_fit(&nodes, &part, &req(1, 17)),
            "more CPUs than any node"
        );
        assert!(
            !could_ever_fit(&nodes, &part, &req(5, 1)),
            "more nodes than the partition"
        );
        let mut r = req(1, 1);
        r.gpus_per_node = 1;
        assert!(!could_ever_fit(&nodes, &part, &r), "no GPUs in partition");
    }
}
