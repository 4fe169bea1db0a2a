//! Cluster and node hardware models.

use serde::{Deserialize, Serialize};
use simkit::ResourcePool;

/// Identifier of a node within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Index of this node within the cluster.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Hardware description of one computing node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Hardware threads (the paper's Xeon E5-2650: 8 cores, 16 threads).
    pub hw_threads: usize,
    /// Physical RAM in GB.
    pub ram_gb: f64,
    /// Swap space in GB.
    pub swap_gb: f64,
}

impl NodeSpec {
    /// The node of the paper's testbed: 16 threads, 64 GB RAM, 16 GB swap.
    #[must_use]
    pub fn paper_node() -> Self {
        NodeSpec {
            hw_threads: 16,
            ram_gb: 64.0,
            swap_gb: 16.0,
        }
    }
}

/// Description of an entire cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of computing nodes (the driver runs on a separate
    /// coordinating node, as in §5.1).
    pub nodes: usize,
    /// Per-node hardware.
    pub node: NodeSpec,
}

impl ClusterSpec {
    /// The paper's 40-node cluster.
    #[must_use]
    pub fn paper_cluster() -> Self {
        ClusterSpec {
            nodes: 40,
            node: NodeSpec::paper_node(),
        }
    }

    /// A small cluster for fast tests.
    #[must_use]
    pub fn small(nodes: usize) -> Self {
        Self::with_nodes(nodes)
    }

    /// A cluster of `n` paper-spec nodes: the scale sweep's axis. The
    /// paper's testbed is [`ClusterSpec::paper_cluster`] (pinned at 40);
    /// this constructor is how benches and experiments vary node count
    /// without touching per-node hardware.
    #[must_use]
    pub fn with_nodes(n: usize) -> Self {
        ClusterSpec {
            nodes: n,
            node: NodeSpec::paper_node(),
        }
    }
}

/// Runtime state of one node: its memory pool (tracking *predicted*
/// reservations made by the scheduler) plus bookkeeping for actual usage.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    spec: NodeSpec,
    /// Scheduler-visible reservations (predicted footprints).
    reserved: ResourcePool,
    /// Whether the node accepts work. Crashed nodes go offline until the
    /// fault layer restores them; all nodes start online.
    online: bool,
}

impl Node {
    pub(crate) fn new(id: NodeId, spec: NodeSpec) -> Self {
        Node {
            id,
            spec,
            reserved: ResourcePool::new(spec.ram_gb),
            online: true,
        }
    }

    /// The node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's hardware spec.
    #[must_use]
    pub fn spec(&self) -> NodeSpec {
        self.spec
    }

    /// Memory not yet reserved by any executor (GB), by predicted
    /// footprints. This is what the resource monitor reports (§4.2).
    #[must_use]
    pub fn free_memory_gb(&self) -> f64 {
        self.reserved.available()
    }

    /// Whether the node is accepting work (not crashed).
    #[must_use]
    pub fn is_online(&self) -> bool {
        self.online
    }

    pub(crate) fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    pub(crate) fn reserve(&mut self, gb: f64) -> Result<(), simkit::ResourceError> {
        self.reserved.reserve(gb)
    }

    pub(crate) fn release(&mut self, gb: f64) -> Result<(), simkit::ResourceError> {
        self.reserved.release(gb)
    }
}

/// The collection of nodes.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    nodes: Vec<Node>,
    /// Nodes touched since the last [`Cluster::take_touched`], each once,
    /// in first-touch order. Every mutable borrow of a node goes through
    /// [`Cluster::node_mut`], which files it here.
    touched: Vec<NodeId>,
    /// Whether each node is in `touched`, guarding it against duplicates.
    is_touched: Vec<bool>,
}

impl Cluster {
    /// Instantiates all nodes of a spec.
    #[must_use]
    pub fn new(spec: ClusterSpec) -> Self {
        let nodes = (0..spec.nodes)
            .map(|i| Node::new(NodeId(i), spec.node))
            .collect();
        Cluster {
            touched: Vec::new(),
            is_touched: vec![false; spec.nodes],
            spec,
            nodes,
        }
    }

    /// The cluster's spec.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node ids, in index order.
    ///
    /// Allocates; callers that only iterate should prefer
    /// [`Cluster::node_ids_iter`].
    #[must_use]
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.node_ids_iter().collect()
    }

    /// Iterates node ids in index order without allocating.
    pub fn node_ids_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(Node::id)
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics on an id from another cluster.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Mutably borrow a node, filing it as touched.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.touch(id);
        &mut self.nodes[id.0]
    }

    /// Files `id` as touched: something a reader of the node's state may
    /// see changed since the last [`Cluster::take_touched`].
    pub(crate) fn touch(&mut self, id: NodeId) {
        if !self.is_touched[id.0] {
            self.is_touched[id.0] = true;
            self.touched.push(id);
        }
    }

    /// Moves the nodes touched since the last call into `out` (cleared
    /// first), each once, in first-touch order.
    pub(crate) fn take_touched(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        std::mem::swap(out, &mut self.touched);
        for &id in out.iter() {
            self.is_touched[id.0] = false;
        }
    }

    /// Checks that `id` indexes this cluster.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        id.0 < self.nodes.len()
    }

    /// Iterates over nodes.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_matches_section_5_1() {
        let spec = ClusterSpec::paper_cluster();
        assert_eq!(spec.nodes, 40);
        assert_eq!(spec.node.hw_threads, 16);
        assert_eq!(spec.node.ram_gb, 64.0);
        assert_eq!(spec.node.swap_gb, 16.0);
    }

    #[test]
    fn with_nodes_scales_count_but_not_hardware() {
        let spec = ClusterSpec::with_nodes(4000);
        assert_eq!(spec.nodes, 4000);
        assert_eq!(spec.node, NodeSpec::paper_node());
        // The paper testbed stays pinned regardless of sweep scales.
        assert_eq!(ClusterSpec::paper_cluster().nodes, 40);
    }

    #[test]
    fn cluster_instantiates_all_nodes() {
        let c = Cluster::new(ClusterSpec::small(5));
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        assert_eq!(c.node_ids().len(), 5);
        assert!(c.contains(NodeId(4)));
        assert!(!c.contains(NodeId(5)));
    }

    #[test]
    fn node_memory_accounting() {
        let mut c = Cluster::new(ClusterSpec::small(1));
        let id = c.node_ids()[0];
        assert_eq!(c.node(id).free_memory_gb(), 64.0);
        c.node_mut(id).reserve(24.0).unwrap();
        assert_eq!(c.node(id).free_memory_gb(), 40.0);
        assert_eq!(c.node(id).reserved.in_use(), 24.0);
        assert!(c.node_mut(id).reserve(41.0).is_err());
        c.node_mut(id).release(24.0).unwrap();
        assert_eq!(c.node(id).free_memory_gb(), 64.0);
    }

    #[test]
    fn nodes_start_online_and_toggle() {
        let mut c = Cluster::new(ClusterSpec::small(2));
        let id = c.node_ids()[0];
        assert!(c.node(id).is_online());
        c.node_mut(id).set_online(false);
        assert!(!c.node(id).is_online());
        assert!(c.node(c.node_ids()[1]).is_online(), "other nodes untouched");
        c.node_mut(id).set_online(true);
        assert!(c.node(id).is_online());
    }

    #[test]
    fn node_mut_files_each_node_once_until_taken() {
        let mut c = Cluster::new(ClusterSpec::small(3));
        let ids = c.node_ids();
        let mut out = vec![ids[0]];
        c.take_touched(&mut out);
        assert!(out.is_empty(), "a fresh cluster has touched nothing");
        c.node_mut(ids[2]).reserve(1.0).unwrap();
        c.node_mut(ids[0]).set_online(false);
        c.node_mut(ids[2]).release(1.0).unwrap();
        c.take_touched(&mut out);
        assert_eq!(out, vec![ids[2], ids[0]]);
        c.take_touched(&mut out);
        assert!(out.is_empty());
        c.node_mut(ids[2]).set_online(true);
        c.take_touched(&mut out);
        assert_eq!(out, vec![ids[2]]);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(NodeId(3).index(), 3);
    }
}
