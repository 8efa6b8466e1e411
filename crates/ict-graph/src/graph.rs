//! The core graph data structure.
//!
//! Design notes:
//!
//! * **Index-stable**: [`NodeId`]/[`EdgeId`] are small copyable handles that
//!   stay valid across unrelated removals (removed slots become tombstones).
//!   This matters for the dynamicity experiments (paper Sec. V-A3), where a
//!   topology change must not invalidate the identities of the surviving
//!   components.
//! * **Multigraph**: the USI case study contains redundant links between the
//!   same device pair; parallel edges are first-class.
//! * **Directed or undirected**: infrastructure graphs are undirected
//!   (a network link carries traffic both ways), activity/flow graphs are
//!   directed.

use std::fmt;

/// Handle to a node. Stable across removals of *other* nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

/// Handle to an edge. Stable across removals of *other* edges.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub(crate) u32);

impl NodeId {
    /// The raw index of this node (for dense side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index previously obtained via
    /// [`NodeId::index`]. The caller must ensure it refers to a live node of
    /// the same graph.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl EdgeId {
    /// The raw index of this edge (for dense side tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a raw index previously obtained via
    /// [`EdgeId::index`].
    pub fn from_index(index: usize) -> Self {
        EdgeId(index as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Whether edges are traversable in one or both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Edges may be traversed both ways (network links).
    Undirected,
    /// Edges may only be traversed from source to target (control flow).
    Directed,
}

#[derive(Debug, Clone)]
struct EdgeRecord<E> {
    source: NodeId,
    target: NodeId,
    weight: E,
}

/// An adjacency entry: the neighbouring node and the connecting edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adjacency {
    /// The node on the other end of the edge (for directed graphs: the
    /// target when iterating out-neighbours).
    pub node: NodeId,
    /// The connecting edge.
    pub edge: EdgeId,
}

/// An index-stable directed or undirected multigraph.
#[derive(Debug, Clone)]
pub struct Graph<N, E> {
    direction: Direction,
    nodes: Vec<Option<N>>,
    edges: Vec<Option<EdgeRecord<E>>>,
    /// Outgoing adjacency (for undirected graphs: all incident edges).
    adjacency: Vec<Vec<Adjacency>>,
    /// Incoming adjacency, maintained only for directed graphs.
    in_adjacency: Vec<Vec<Adjacency>>,
    live_nodes: usize,
    live_edges: usize,
}

impl<N, E> Graph<N, E> {
    /// Creates an empty graph with the given edge direction semantics.
    pub fn new(direction: Direction) -> Self {
        Graph {
            direction,
            nodes: Vec::new(),
            edges: Vec::new(),
            adjacency: Vec::new(),
            in_adjacency: Vec::new(),
            live_nodes: 0,
            live_edges: 0,
        }
    }

    /// Creates an empty undirected graph.
    pub fn new_undirected() -> Self {
        Self::new(Direction::Undirected)
    }

    /// Creates an empty directed graph.
    pub fn new_directed() -> Self {
        Self::new(Direction::Directed)
    }

    /// The direction semantics of this graph.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// `true` if edges are directed.
    pub fn is_directed(&self) -> bool {
        self.direction == Direction::Directed
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Upper bound over all node indices ever allocated (for side tables).
    pub fn node_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Upper bound over all edge indices ever allocated (for side tables).
    pub fn edge_capacity(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node and returns its handle.
    pub fn add_node(&mut self, weight: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Some(weight));
        self.adjacency.push(Vec::new());
        self.in_adjacency.push(Vec::new());
        self.live_nodes += 1;
        id
    }

    /// Adds an edge between two live nodes and returns its handle.
    ///
    /// # Panics
    /// Panics if either endpoint is not a live node.
    pub fn add_edge(&mut self, source: NodeId, target: NodeId, weight: E) -> EdgeId {
        assert!(
            self.contains_node(source),
            "source {source:?} is not a live node"
        );
        assert!(
            self.contains_node(target),
            "target {target:?} is not a live node"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Some(EdgeRecord {
            source,
            target,
            weight,
        }));
        self.adjacency[source.index()].push(Adjacency {
            node: target,
            edge: id,
        });
        match self.direction {
            Direction::Undirected => {
                if source != target {
                    self.adjacency[target.index()].push(Adjacency {
                        node: source,
                        edge: id,
                    });
                }
            }
            Direction::Directed => {
                self.in_adjacency[target.index()].push(Adjacency {
                    node: source,
                    edge: id,
                });
            }
        }
        self.live_edges += 1;
        id
    }

    /// `true` if `id` refers to a live node.
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(Option::is_some)
    }

    /// `true` if `id` refers to a live edge.
    pub fn contains_edge(&self, id: EdgeId) -> bool {
        self.edges.get(id.index()).is_some_and(Option::is_some)
    }

    /// The weight of a live node.
    pub fn node(&self, id: NodeId) -> Option<&N> {
        self.nodes.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to a node weight.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut N> {
        self.nodes.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// The weight of a live edge.
    pub fn edge(&self, id: EdgeId) -> Option<&E> {
        self.edges
            .get(id.index())
            .and_then(|e| e.as_ref().map(|r| &r.weight))
    }

    /// Mutable access to an edge weight.
    pub fn edge_mut(&mut self, id: EdgeId) -> Option<&mut E> {
        self.edges
            .get_mut(id.index())
            .and_then(|e| e.as_mut().map(|r| &mut r.weight))
    }

    /// The `(source, target)` endpoints of a live edge.
    pub fn endpoints(&self, id: EdgeId) -> Option<(NodeId, NodeId)> {
        self.edges
            .get(id.index())
            .and_then(|e| e.as_ref().map(|r| (r.source, r.target)))
    }

    /// Given one endpoint of an edge, returns the other.
    pub fn opposite(&self, id: EdgeId, node: NodeId) -> Option<NodeId> {
        let (s, t) = self.endpoints(id)?;
        if node == s {
            Some(t)
        } else if node == t {
            Some(s)
        } else {
            None
        }
    }

    /// Iterates over live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeId(i as u32)))
    }

    /// Iterates over `(id, weight)` for live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &N)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|w| (NodeId(i as u32), w)))
    }

    /// Iterates over live edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|_| EdgeId(i as u32)))
    }

    /// Iterates over `(id, source, target, weight)` for live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> {
        self.edges.iter().enumerate().filter_map(|(i, e)| {
            e.as_ref()
                .map(|r| (EdgeId(i as u32), r.source, r.target, &r.weight))
        })
    }

    /// Out-adjacency of a node (all incident edges for undirected graphs).
    ///
    /// Entries for edges removed via [`Graph::remove_edge`] are filtered out.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = Adjacency> + '_ {
        self.adjacency
            .get(id.index())
            .into_iter()
            .flatten()
            .copied()
            .filter(|a| self.contains_edge(a.edge))
    }

    /// Raw out-adjacency slice of a node (all incident edges for undirected
    /// graphs). Unlike [`Graph::neighbors`] this performs no per-entry
    /// liveness filtering — the removal APIs ([`Graph::remove_edge`],
    /// [`Graph::remove_node`]) compact adjacency lists eagerly, so every
    /// entry refers to a live edge and therefore a live neighbour. Hot
    /// enumeration loops use this to walk neighbours by cursor without
    /// collecting an iterator into a fresh `Vec` per visited node.
    pub fn adjacency_slice(&self, id: NodeId) -> &[Adjacency] {
        self.adjacency
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// In-adjacency of a node. Empty iterator for undirected graphs (use
    /// [`Graph::neighbors`] there).
    pub fn in_neighbors(&self, id: NodeId) -> impl Iterator<Item = Adjacency> + '_ {
        self.in_adjacency
            .get(id.index())
            .into_iter()
            .flatten()
            .copied()
            .filter(|a| self.contains_edge(a.edge))
    }

    /// Degree (out-degree for directed graphs).
    pub fn degree(&self, id: NodeId) -> usize {
        self.neighbors(id).count()
    }

    /// Removes an edge, returning its weight.
    pub fn remove_edge(&mut self, id: EdgeId) -> Option<E> {
        let record = self.edges.get_mut(id.index())?.take()?;
        self.live_edges -= 1;
        // Adjacency entries are filtered lazily by `contains_edge`; compact
        // the source list eagerly to keep iteration costs bounded.
        self.adjacency[record.source.index()].retain(|a| a.edge != id);
        match self.direction {
            Direction::Undirected => {
                self.adjacency[record.target.index()].retain(|a| a.edge != id);
            }
            Direction::Directed => {
                self.in_adjacency[record.target.index()].retain(|a| a.edge != id);
            }
        }
        Some(record.weight)
    }

    /// Removes a node and all incident edges, returning the node weight.
    pub fn remove_node(&mut self, id: NodeId) -> Option<N> {
        let weight = self.nodes.get_mut(id.index())?.take()?;
        self.live_nodes -= 1;
        let incident: Vec<EdgeId> = self
            .edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| {
                e.as_ref()
                    .and_then(|r| (r.source == id || r.target == id).then_some(EdgeId(i as u32)))
            })
            .collect();
        for e in incident {
            self.remove_edge(e);
        }
        self.adjacency[id.index()].clear();
        self.in_adjacency[id.index()].clear();
        Some(weight)
    }

    /// Finds the first edge connecting `a` and `b` (in either direction for
    /// undirected graphs).
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.neighbors(a)
            .find(|adj| adj.node == b)
            .map(|adj| adj.edge)
    }

    /// All edges connecting `a` and `b`.
    pub fn edges_between(&self, a: NodeId, b: NodeId) -> Vec<EdgeId> {
        self.neighbors(a)
            .filter(|adj| adj.node == b)
            .map(|adj| adj.edge)
            .collect()
    }

    /// Sorts every adjacency list by (neighbour, edge), keeping every node
    /// and edge id. A DFS that tries neighbours in adjacency order then
    /// lists the simple paths of a graph without parallel edges sorted by
    /// their node sequences; with parallel edges, the paths through one
    /// node sequence come in one DFS subtree per edge choice, so a path's
    /// node sequence first appears in that sorted order all the same.
    pub fn sort_adjacency(&mut self) {
        for list in self.adjacency.iter_mut().chain(&mut self.in_adjacency) {
            list.sort_unstable_by_key(|a| (a.node, a.edge));
        }
    }
}

impl<N: Clone, E: Clone> Graph<N, E> {
    /// The subgraph induced by the nodes satisfying `keep`: those nodes and
    /// every edge whose endpoints both survive. Node/edge ids are **not**
    /// preserved; the returned map translates old node ids to new ones.
    /// (This is the graph-level analogue of the UPSIM filter semantics.)
    pub fn induced_subgraph(
        &self,
        keep: impl Fn(NodeId, &N) -> bool,
    ) -> (Graph<N, E>, std::collections::HashMap<NodeId, NodeId>) {
        let mut out = Graph::new(self.direction);
        let mut map = std::collections::HashMap::new();
        for (id, weight) in self.nodes() {
            if keep(id, weight) {
                map.insert(id, out.add_node(weight.clone()));
            }
        }
        for (_, s, t, weight) in self.edges() {
            if let (Some(&ns), Some(&nt)) = (map.get(&s), map.get(&t)) {
                out.add_edge(ns, nt, weight.clone());
            }
        }
        (out, map)
    }
}

impl<N, E> Graph<N, E>
where
    N: PartialEq,
{
    /// Finds a node by its weight (linear scan; fine for model-sized graphs).
    pub fn find_node(&self, weight: &N) -> Option<NodeId> {
        self.nodes().find(|(_, w)| *w == weight).map(|(id, _)| id)
    }
}

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Self::new_undirected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph<&'static str, u32>, [NodeId; 3]) {
        let mut g = Graph::new_undirected();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge(a, b, 1);
        g.add_edge(b, c, 2);
        g.add_edge(c, a, 3);
        (g, [a, b, c])
    }

    #[test]
    fn add_and_query_nodes_edges() {
        let (g, [a, b, c]) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.node(a), Some(&"a"));
        assert_eq!(g.degree(b), 2);
        let e = g.find_edge(a, b).unwrap();
        assert_eq!(g.edge(e), Some(&1));
        assert_eq!(g.opposite(e, a), Some(b));
        assert_eq!(g.opposite(e, c), None);
    }

    #[test]
    fn undirected_adjacency_is_symmetric() {
        let (g, [a, b, _]) = triangle();
        assert!(g.neighbors(a).any(|adj| adj.node == b));
        assert!(g.neighbors(b).any(|adj| adj.node == a));
    }

    #[test]
    fn directed_adjacency_is_one_way() {
        let mut g: Graph<(), ()> = Graph::new_directed();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        assert_eq!(g.neighbors(a).count(), 1);
        assert_eq!(g.neighbors(b).count(), 0);
        assert_eq!(g.in_neighbors(b).count(), 1);
    }

    #[test]
    fn remove_edge_keeps_other_ids_stable() {
        let (mut g, [a, b, c]) = triangle();
        let ab = g.find_edge(a, b).unwrap();
        let bc = g.find_edge(b, c).unwrap();
        assert_eq!(g.remove_edge(ab), Some(1));
        assert!(!g.contains_edge(ab));
        assert!(g.contains_edge(bc));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.remove_edge(ab), None, "double removal is a no-op");
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, [a, b, c]) = triangle();
        assert_eq!(g.remove_node(b), Some("b"));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.find_edge(a, c).is_some());
        assert!(g.find_edge(a, b).is_none());
    }

    #[test]
    fn parallel_edges_supported() {
        let mut g: Graph<&str, u32> = Graph::new_undirected();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        assert_eq!(g.edges_between(a, b).len(), 2);
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    fn self_loop_counted_once_in_adjacency() {
        let mut g: Graph<&str, ()> = Graph::new_undirected();
        let a = g.add_node("a");
        g.add_edge(a, a, ());
        assert_eq!(g.neighbors(a).count(), 1);
    }

    #[test]
    fn find_node_by_weight() {
        let (g, [_, b, _]) = triangle();
        assert_eq!(g.find_node(&"b"), Some(b));
        assert_eq!(g.find_node(&"zz"), None);
    }

    #[test]
    #[should_panic(expected = "not a live node")]
    fn edge_to_dead_node_panics() {
        let (mut g, [a, b, _]) = triangle();
        g.remove_node(b);
        g.add_edge(a, b, 9);
    }

    #[test]
    fn induced_subgraph_filters_nodes_and_edges() {
        let (g, [a, b, c]) = triangle();
        let (sub, map) = g.induced_subgraph(|id, _| id != b);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1, "only the a-c edge survives");
        assert!(map.contains_key(&a) && map.contains_key(&c) && !map.contains_key(&b));
        let (na, nc) = (map[&a], map[&c]);
        assert!(sub.find_edge(na, nc).is_some());
        assert_eq!(sub.node(na), Some(&"a"));
    }

    #[test]
    fn induced_subgraph_of_everything_is_isomorphic() {
        let (g, _) = triangle();
        let (sub, _) = g.induced_subgraph(|_, _| true);
        assert_eq!(sub.node_count(), g.node_count());
        assert_eq!(sub.edge_count(), g.edge_count());
    }

    #[test]
    fn adjacency_slice_holds_only_live_edges() {
        let (mut g, [a, b, c]) = triangle();
        let ab = g.find_edge(a, b).unwrap();
        g.remove_edge(ab);
        assert!(g.adjacency_slice(a).iter().all(|adj| adj.edge != ab));
        assert_eq!(g.adjacency_slice(a).len(), 1);
        g.remove_node(c);
        assert!(g.adjacency_slice(a).is_empty());
        assert!(g.adjacency_slice(NodeId::from_index(99)).is_empty());
        let entries: Vec<_> = g.adjacency_slice(b).to_vec();
        assert!(entries.iter().all(|adj| g.contains_edge(adj.edge)));
    }

    #[test]
    fn iteration_skips_tombstones() {
        let (mut g, [a, _, _]) = triangle();
        g.remove_node(a);
        assert_eq!(g.node_ids().count(), 2);
        assert_eq!(g.edge_ids().count(), 1);
        assert_eq!(g.nodes().count(), 2);
    }
}
