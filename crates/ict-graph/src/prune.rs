//! Block-cut-tree pruning for the all-simple-paths search.
//!
//! Path discovery (paper Sec. V-D) is the methodology's only
//! super-polynomial step, yet on real campus topologies almost all of the
//! graph is provably irrelevant to any given `(source, target)` pair: a
//! node can lie on *some* simple path between `s` and `t` **iff** it
//! belongs to a biconnected component (block) on the unique path between
//! `s` and `t` in the graph's block-cut tree. Access subtrees hanging off
//! that path are dead weight the plain DFS discovers one dead end at a
//! time; this module removes them before enumeration starts.
//!
//! [`BlockCutTree`] computes blocks, cut vertices, and connected components
//! once per graph build (linear time, one iterative Tarjan DFS).
//! [`BlockCutTree::relevant_nodes`] then answers per-pair queries by walking the tree path between the two
//! endpoints and unioning the block node sets, producing a mask for
//! [`crate::paths::walk_paths`].
//!
//! **Soundness on directed graphs:** blocks are computed on the undirected
//! view. Every directed simple path is also an undirected simple path, so
//! the mask is a (possibly loose) superset of the relevant nodes — pruning
//! never removes a genuine path, it merely prunes less aggressively.

use std::collections::VecDeque;

use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::{collect_simple_paths, Path};

const UNASSIGNED: u32 = u32::MAX;
/// `parent[b]` marker for BFS roots (blocks containing the source).
const BFS_ROOT: u32 = u32::MAX - 1;

/// Biconnected components, cut vertices, and connected components of a
/// graph, queryable as a block-cut tree.
///
/// Self-loops are ignored (they can never lie on a simple path). Directed
/// edges are treated as undirected (see module docs for why that is sound).
#[derive(Debug, Clone)]
pub struct BlockCutTree {
    /// Node sets of each block, indexed by block id.
    block_nodes: Vec<Vec<NodeId>>,
    /// Blocks containing each node index (cut vertices belong to several).
    node_blocks: Vec<Vec<u32>>,
    /// Block id per edge index (`UNASSIGNED` for dead or self-loop edges).
    edge_block: Vec<u32>,
    /// Cut-vertex flag per node index.
    is_cut: Vec<bool>,
    /// Connected-component id per node index (`UNASSIGNED` for dead slots).
    component: Vec<u32>,
}

impl BlockCutTree {
    /// Computes blocks, cut vertices and connected components in one
    /// iterative DFS over the (undirected view of the) graph.
    pub fn new<N, E>(graph: &Graph<N, E>) -> Self {
        let cap = graph.node_capacity();
        // Undirected adjacency over live, non-loop edges. Built explicitly
        // so directed graphs get their undirected view; one-time cost at
        // graph build, amortized over every per-pair query.
        let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); cap];
        for (id, s, t, _) in graph.edges() {
            if s == t {
                continue; // self-loops never lie on a simple path
            }
            adj[s.index()].push((t, id));
            adj[t.index()].push((s, id));
        }

        let mut tree = BlockCutTree {
            block_nodes: Vec::new(),
            node_blocks: vec![Vec::new(); cap],
            edge_block: vec![UNASSIGNED; graph.edge_capacity()],
            is_cut: vec![false; cap],
            component: vec![UNASSIGNED; cap],
        };
        let mut disc = vec![0u32; cap]; // discovery time, 0 = unvisited
        let mut low = vec![0u32; cap];
        let mut timer = 0u32;
        let mut components = 0u32;
        let mut edge_stack: Vec<EdgeId> = Vec::new();
        // Stamp array deduplicating node membership while a block is popped.
        let mut block_stamp = vec![UNASSIGNED; cap];

        struct DfsFrame {
            node: NodeId,
            parent_edge: Option<EdgeId>,
            cursor: usize,
        }

        for root in graph.node_ids() {
            if disc[root.index()] != 0 {
                continue;
            }
            let comp = components;
            components += 1;
            timer += 1;
            disc[root.index()] = timer;
            low[root.index()] = timer;
            tree.component[root.index()] = comp;
            let mut root_children = 0usize;
            let mut stack = vec![DfsFrame {
                node: root,
                parent_edge: None,
                cursor: 0,
            }];
            while let Some(frame) = stack.last_mut() {
                let u = frame.node;
                if frame.cursor < adj[u.index()].len() {
                    let (v, e) = adj[u.index()][frame.cursor];
                    frame.cursor += 1;
                    if frame.parent_edge == Some(e) {
                        continue; // don't reuse the tree edge; parallel edges do recurse
                    }
                    if disc[v.index()] == 0 {
                        // Tree edge: descend.
                        edge_stack.push(e);
                        timer += 1;
                        disc[v.index()] = timer;
                        low[v.index()] = timer;
                        tree.component[v.index()] = comp;
                        if u == root {
                            root_children += 1;
                        }
                        stack.push(DfsFrame {
                            node: v,
                            parent_edge: Some(e),
                            cursor: 0,
                        });
                    } else if disc[v.index()] < disc[u.index()] {
                        // Back edge to an ancestor; forward edges are the
                        // same physical edge seen from the other side and
                        // must not be stacked twice.
                        edge_stack.push(e);
                        low[u.index()] = low[u.index()].min(disc[v.index()]);
                    }
                } else {
                    let child = stack.pop().expect("frame exists");
                    let Some(parent_frame) = stack.last() else {
                        continue; // root retreat: all blocks already popped
                    };
                    let p = parent_frame.node;
                    let v = child.node;
                    low[p.index()] = low[p.index()].min(low[v.index()]);
                    if low[v.index()] >= disc[p.index()] {
                        // `p` separates `v`'s subtree: pop one block.
                        if p != root {
                            tree.is_cut[p.index()] = true;
                        }
                        let parent_edge = child.parent_edge.expect("non-root child");
                        let bid = tree.block_nodes.len() as u32;
                        tree.block_nodes.push(Vec::new());
                        loop {
                            let e = edge_stack.pop().expect("edge stack underflow");
                            tree.edge_block[e.index()] = bid;
                            let (es, et) = graph.endpoints(e).expect("live edge");
                            for n in [es, et] {
                                if block_stamp[n.index()] != bid {
                                    block_stamp[n.index()] = bid;
                                    tree.block_nodes[bid as usize].push(n);
                                    tree.node_blocks[n.index()].push(bid);
                                }
                            }
                            if e == parent_edge {
                                break;
                            }
                        }
                    }
                }
            }
            if root_children >= 2 {
                tree.is_cut[root.index()] = true;
            }
        }
        tree
    }

    /// Number of biconnected components (blocks).
    pub fn block_count(&self) -> usize {
        self.block_nodes.len()
    }

    /// `true` if removing `node` would disconnect its component.
    pub fn is_cut_vertex(&self, node: NodeId) -> bool {
        self.is_cut.get(node.index()).copied().unwrap_or(false)
    }

    /// The node set of block `block` (unspecified order).
    pub fn block(&self, block: usize) -> &[NodeId] {
        &self.block_nodes[block]
    }

    /// The block containing `edge`, if it is live and not a self-loop.
    pub fn edge_block(&self, edge: EdgeId) -> Option<usize> {
        match self.edge_block.get(edge.index()) {
            Some(&b) if b != UNASSIGNED => Some(b as usize),
            _ => None,
        }
    }

    /// `true` when `source` and `target` are live nodes of the same
    /// connected component (a necessary condition for any path).
    pub fn connected(&self, source: NodeId, target: NodeId) -> bool {
        match (
            self.component.get(source.index()),
            self.component.get(target.index()),
        ) {
            (Some(&a), Some(&b)) => a != UNASSIGNED && a == b,
            _ => false,
        }
    }

    /// Fills `mask` (re-sized to the graph's node capacity) with exactly
    /// the nodes that can lie on **some** simple path from `source` to
    /// `target`: the union of the blocks on the block-cut-tree path between
    /// them. Returns the number of allowed nodes (0 when no path exists).
    ///
    /// The mask plugs directly into [`crate::paths::walk_paths`]; `mask` is
    /// reusable across calls without reallocation.
    pub fn relevant_nodes(&self, source: NodeId, target: NodeId, mask: &mut Vec<bool>) -> usize {
        mask.clear();
        mask.resize(self.node_blocks.len(), false);
        if !self.connected(source, target) {
            return 0;
        }
        if source == target {
            mask[source.index()] = true;
            return 1;
        }
        // BFS over the block-cut tree, block vertices only (cut vertices
        // are traversed implicitly): start from every block containing the
        // source — equivalent to rooting at the source's tree vertex.
        let mut parent = vec![UNASSIGNED; self.block_nodes.len()];
        let mut queue = VecDeque::new();
        for &b in &self.node_blocks[source.index()] {
            parent[b as usize] = BFS_ROOT;
            queue.push_back(b);
        }
        let target_blocks = &self.node_blocks[target.index()];
        let mut found = None;
        'bfs: while let Some(b) = queue.pop_front() {
            if target_blocks.contains(&b) {
                found = Some(b);
                break 'bfs;
            }
            for &v in &self.block_nodes[b as usize] {
                if !self.is_cut[v.index()] {
                    continue;
                }
                for &next in &self.node_blocks[v.index()] {
                    if parent[next as usize] == UNASSIGNED {
                        parent[next as usize] = b;
                        queue.push_back(next);
                    }
                }
            }
        }
        // Same component and distinct endpoints implies both touch at
        // least one edge, hence at least one block, and the tree connects
        // them — but stay defensive.
        let Some(found) = found else {
            return 0;
        };
        let mut allowed = 0usize;
        let mut cursor = found;
        loop {
            for &n in &self.block_nodes[cursor as usize] {
                if !mask[n.index()] {
                    mask[n.index()] = true;
                    allowed += 1;
                }
            }
            match parent[cursor as usize] {
                BFS_ROOT => break,
                next => cursor = next,
            }
        }
        allowed
    }
}

/// Enumerates all simple paths between `source` and `target` with
/// block-cut-tree pruning: builds a [`BlockCutTree`], masks the search to
/// the relevant blocks, and runs the DFS of [`crate::paths`]. The result is
/// the same path list, in the same DFS order, as
/// [`crate::paths::all_simple_paths`].
///
/// For repeated queries over one graph, build the tree once and drive
/// [`crate::paths::walk_paths`] with a reused mask/scratch instead.
pub fn pruned_simple_paths<N, E>(graph: &Graph<N, E>, source: NodeId, target: NodeId) -> Vec<Path> {
    let tree = BlockCutTree::new(graph);
    let mut mask = Vec::new();
    if tree.relevant_nodes(source, target, &mut mask) == 0 {
        return Vec::new();
    }
    collect_simple_paths(graph, source, target, Some(&mask))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::all_simple_paths;

    /// Two triangles sharing the cut vertex `c`, plus a pendant `tail`:
    ///
    /// ```text
    ///   a --- b        d --- e
    ///    \   /          \   /
    ///      c ------------ (c)    c --- tail
    /// ```
    fn two_triangles_and_tail() -> (Graph<&'static str, ()>, [NodeId; 6]) {
        let mut g = Graph::new_undirected();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        let e = g.add_node("e");
        let tail = g.add_node("tail");
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(c, a, ());
        g.add_edge(c, d, ());
        g.add_edge(d, e, ());
        g.add_edge(e, c, ());
        g.add_edge(c, tail, ());
        (g, [a, b, c, d, e, tail])
    }

    #[test]
    fn blocks_and_cut_vertices_of_two_triangles() {
        let (g, [a, b, c, d, e, tail]) = two_triangles_and_tail();
        let tree = BlockCutTree::new(&g);
        // Three blocks: each triangle and the c-tail bridge.
        assert_eq!(tree.block_count(), 3);
        assert!(tree.is_cut_vertex(c));
        for n in [a, b, d, e, tail] {
            assert!(!tree.is_cut_vertex(n), "{:?}", g.node(n));
        }
        // Both triangle edges of one triangle share a block.
        let ab = g.find_edge(a, b).unwrap();
        let bc = g.find_edge(b, c).unwrap();
        let de = g.find_edge(d, e).unwrap();
        assert_eq!(tree.edge_block(ab), tree.edge_block(bc));
        assert_ne!(tree.edge_block(ab), tree.edge_block(de));
    }

    #[test]
    fn relevant_nodes_collapses_to_tree_path() {
        let (g, [a, b, c, d, e, tail]) = two_triangles_and_tail();
        let tree = BlockCutTree::new(&g);
        let mut mask = Vec::new();
        // a -> e crosses both triangles but never the tail.
        let n = tree.relevant_nodes(a, e, &mut mask);
        assert_eq!(n, 5);
        for node in [a, b, c, d, e] {
            assert!(mask[node.index()]);
        }
        assert!(!mask[tail.index()]);
        // a -> b stays inside one triangle.
        let n = tree.relevant_nodes(a, b, &mut mask);
        assert_eq!(n, 3);
        assert!(!mask[d.index()] && !mask[e.index()] && !mask[tail.index()]);
        // tail -> d: bridge block + second triangle (c is the junction).
        let n = tree.relevant_nodes(tail, d, &mut mask);
        assert_eq!(n, 4);
        assert!(!mask[a.index()] && !mask[b.index()]);
    }

    #[test]
    fn relevant_nodes_trivial_and_disconnected() {
        let (mut g, [a, _, _, _, _, _]) = two_triangles_and_tail();
        let lonely = g.add_node("lonely");
        let tree = BlockCutTree::new(&g);
        let mut mask = Vec::new();
        assert_eq!(tree.relevant_nodes(a, lonely, &mut mask), 0);
        assert!(mask.iter().all(|&m| !m));
        assert_eq!(tree.relevant_nodes(a, a, &mut mask), 1);
        assert!(mask[a.index()]);
        assert!(!tree.connected(a, lonely));
        assert!(tree.connected(a, a));
    }

    #[test]
    fn parallel_edges_form_a_cycle_block() {
        let mut g: Graph<&str, u8> = Graph::new_undirected();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let e1 = g.add_edge(a, b, 1);
        let e2 = g.add_edge(a, b, 2);
        let e3 = g.add_edge(b, c, 3);
        let tree = BlockCutTree::new(&g);
        // The parallel pair is 2-edge-connected (one block); b-c is a bridge.
        assert_eq!(tree.block_count(), 2);
        assert_eq!(tree.edge_block(e1), tree.edge_block(e2));
        assert_ne!(tree.edge_block(e1), tree.edge_block(e3));
        assert!(tree.is_cut_vertex(b));
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut g: Graph<&str, ()> = Graph::new_undirected();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let looped = g.add_edge(a, a, ());
        g.add_edge(a, b, ());
        let tree = BlockCutTree::new(&g);
        assert_eq!(tree.block_count(), 1);
        assert_eq!(tree.edge_block(looped), None);
        let mut mask = Vec::new();
        assert_eq!(tree.relevant_nodes(a, b, &mut mask), 2);
    }

    #[test]
    fn pruned_equals_unpruned_on_fixture() {
        let (g, ids) = two_triangles_and_tail();
        for &s in &ids {
            for &t in &ids {
                let mut expected = all_simple_paths(&g, s, t);
                let mut got = pruned_simple_paths(&g, s, t);
                assert_eq!(got, expected, "pre-sort order must match too");
                expected.sort();
                got.sort();
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn directed_graph_pruning_is_sound() {
        // Directed cycle a->b->c->a plus pendant c->d: pruning uses the
        // undirected view but must not lose directed paths.
        let mut g: Graph<&str, ()> = Graph::new_directed();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(c, a, ());
        g.add_edge(c, d, ());
        for (s, t) in [(a, c), (c, b), (a, d), (d, a)] {
            assert_eq!(pruned_simple_paths(&g, s, t), all_simple_paths(&g, s, t),);
        }
    }

    #[test]
    fn tombstoned_graph_is_handled() {
        let (mut g, [a, b, _c, _, e, tail]) = two_triangles_and_tail();
        g.remove_node(b);
        let tree = BlockCutTree::new(&g);
        let mut mask = Vec::new();
        // a-c is now a bridge; a -> e goes a-c then the second triangle.
        let n = tree.relevant_nodes(a, e, &mut mask);
        assert_eq!(n, 4);
        assert!(!mask[b.index()] && !mask[tail.index()]);
        assert_eq!(pruned_simple_paths(&g, a, e), all_simple_paths(&g, a, e),);
    }
}
