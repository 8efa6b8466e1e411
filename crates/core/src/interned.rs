//! The interned graph view: device names resolved to dense `u32` ids once
//! per graph build.
//!
//! Step 7 runs once per mapping pair, and a resident engine runs it for
//! dozens of perspectives against the *same* infrastructure epoch. Before
//! this module, every discovered path materialized a `Vec<String>` of
//! cloned device names — a heap allocation per node per path per pair.
//! [`InternedGraph`] pays the string work once: the graph's node weights
//! are interned ids (equal to the node's index, since the view is built
//! without removals), a shared [`NameTable`] maps ids back to names, and a
//! [`ict_graph::prune::BlockCutTree`] built alongside lets every query
//! restrict its DFS to the blocks between requester and provider.
//!
//! [`crate::discovery::DiscoveredPaths`] stores interned paths plus an
//! `Arc` of the table, so results stay self-describing without cloning a
//! single name.
//!
//! The view also keeps a copy of its graph whose adjacency is sorted by
//! (neighbour id, link index), built once with the view: the serving
//! path's Step 7 walks it, so its DFS meets paths in the order
//! `ServiceAvailabilityModel::from_run` sorts them into.

use crate::infrastructure::Infrastructure;
use ict_graph::prune::BlockCutTree;
use ict_graph::{Graph, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

/// An append-only device-name table: `u32` id ⇄ name, both directions O(1)
/// (the reverse direction via a hash map).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NameTable {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl NameTable {
    /// The name of `id`.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// The name of `id`, if interned.
    pub fn get(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// The id of `name`, if interned.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Interns `name`, returning its (possibly pre-existing) id.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.ids.get(name) {
            return *id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }
}

/// The infrastructure's graph view with interned node names and a
/// pre-computed block-cut tree.
///
/// Node weights are the interned ids; because the view is built fresh
/// (no removals), a node's id always equals its [`NodeId::index`], so
/// discovered paths convert to interned form without lookups. Edge weights
/// are the link's index into the infrastructure's `objects.links`, exactly
/// like [`Infrastructure::to_graph`].
#[derive(Debug, Clone)]
pub struct InternedGraph {
    graph: Graph<u32, usize>,
    /// `graph` with every adjacency list sorted by (neighbour, link).
    sorted: Graph<u32, usize>,
    names: Arc<NameTable>,
    tree: BlockCutTree,
}

impl InternedGraph {
    /// Builds the interned view (graph + name table + block-cut tree) from
    /// an infrastructure. One-time cost, linear in devices + links.
    pub fn from_infrastructure(infrastructure: &Infrastructure) -> Self {
        let mut names = NameTable::default();
        let mut graph = Graph::new_undirected();
        for inst in &infrastructure.objects.instances {
            let id = names.intern(&inst.name);
            let node = graph.add_node(id);
            debug_assert_eq!(node.index() as u32, id, "node index tracks intern id");
        }
        for (i, link) in infrastructure.objects.links.iter().enumerate() {
            let a = names.id(&link.end_a).expect("link endpoint is a device");
            let b = names.id(&link.end_b).expect("link endpoint is a device");
            graph.add_edge(
                NodeId::from_index(a as usize),
                NodeId::from_index(b as usize),
                i,
            );
        }
        let tree = BlockCutTree::new(&graph);
        let mut sorted = graph.clone();
        sorted.sort_adjacency();
        InternedGraph {
            graph,
            sorted,
            names: Arc::new(names),
            tree,
        }
    }

    /// The underlying graph (node weight = interned id, edge weight = link
    /// index).
    pub fn graph(&self) -> &Graph<u32, usize> {
        &self.graph
    }

    /// [`Self::graph`] with every adjacency list sorted by (neighbour id,
    /// link index), node and edge ids unchanged: a DFS over it meets a
    /// pair's simple paths with their node sequences in sorted order
    /// ([`Graph::sort_adjacency`]).
    pub fn sorted_graph(&self) -> &Graph<u32, usize> {
        &self.sorted
    }

    /// The shared name table.
    pub fn names(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// The pre-computed block-cut tree for pruned discovery.
    pub fn tree(&self) -> &BlockCutTree {
        &self.tree
    }

    /// Resolves a device name to its node.
    pub fn node_of(&self, name: &str) -> Option<NodeId> {
        self.names
            .id(name)
            .map(|id| NodeId::from_index(id as usize))
    }

    /// The device name of a node of this view.
    pub fn name_of(&self, node: NodeId) -> &str {
        self.names.name(node.index() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infrastructure::DeviceClassSpec;

    fn diamond() -> Infrastructure {
        let mut infra = Infrastructure::new("diamond");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::switch("Sw", 61320.0, 0.5))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1))
            .unwrap();
        for (n, c) in [("t1", "Comp"), ("a", "Sw"), ("b", "Sw"), ("srv", "Server")] {
            infra.add_device(n, c).unwrap();
        }
        for (x, y) in [("t1", "a"), ("t1", "b"), ("a", "srv"), ("b", "srv")] {
            infra.connect(x, y).unwrap();
        }
        infra
    }

    #[test]
    fn ids_track_node_indices_and_round_trip() {
        let infra = diamond();
        let view = InternedGraph::from_infrastructure(&infra);
        assert_eq!(view.graph().node_count(), 4);
        assert_eq!(view.graph().edge_count(), 4);
        assert_eq!(view.names().len(), 4);
        for (node, &id) in view.graph().nodes() {
            assert_eq!(node.index() as u32, id);
            let name = view.name_of(node);
            assert_eq!(view.node_of(name), Some(node));
        }
        assert_eq!(view.node_of("ghost"), None);
    }

    #[test]
    fn matches_to_graph_topology() {
        let infra = diamond();
        let view = InternedGraph::from_infrastructure(&infra);
        let (graph, index) = infra.to_graph();
        for (name, &node) in &index {
            let mine = view.node_of(name).unwrap();
            assert_eq!(
                view.graph().degree(mine),
                graph.degree(node),
                "degree mismatch at {name}"
            );
        }
        // Edge weights are link indices in both views.
        let mut a: Vec<usize> = view.graph().edges().map(|(_, _, _, &w)| w).collect();
        let mut b: Vec<usize> = graph.edges().map(|(_, _, _, &w)| w).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn block_cut_tree_is_prebuilt() {
        let infra = diamond();
        let view = InternedGraph::from_infrastructure(&infra);
        // The diamond is one biconnected component.
        assert_eq!(view.tree().block_count(), 1);
        let s = view.node_of("t1").unwrap();
        let t = view.node_of("srv").unwrap();
        let mut mask = Vec::new();
        assert_eq!(view.tree().relevant_nodes(s, t, &mut mask), 4);
    }
}
