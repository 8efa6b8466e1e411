//! Block-cut-tree pruning and composition for the all-simple-paths search.
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
//! once per graph build (linear time, one iterative Tarjan DFS), and roots
//! the tree there. [`BlockCutTree::block_chain`] then answers per-pair
//! queries by climbing the rooted tree from both endpoints: the blocks
//! between them, in order, each with the nodes where the paths enter and
//! leave it. [`BlockCutTree::relevant_nodes`] unions those blocks into a
//! mask for [`crate::paths::walk_paths`].
//!
//! Every simple path from `s` to `t` is one simple path from entry to exit
//! inside each block of the chain, joined at the cut vertices between
//! them, and every such choice is a simple path: two blocks share at most
//! one node, and an edge lies in one block. So the paths compose from
//! per-block walks ([`BlockCutTree::walk_block`], [`Crossing`]):
//! [`chain_count`] is the product of the blocks' counts, [`chain_path_sets`]
//! the product of their chordless sets (a chord joins two nodes of one
//! block), and [`chain_order`] numbers the nodes as one counting walk over
//! the sorted graph ([`crate::Graph::sort_adjacency`]) meets them. A
//! walk in one block is reused by every pair that crosses the block
//! between the same two nodes.
//!
//! **Soundness on directed graphs:** blocks are computed on the undirected
//! view. Every directed simple path is also an undirected simple path, so
//! the mask is a (possibly loose) superset of the relevant nodes — pruning
//! never removes a genuine path, it merely prunes less aggressively.

use std::sync::Arc;

use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::{
    collect_simple_paths, walk_paths, DiscoveryScratch, FramesExhausted, Path, PathKind,
};

const UNASSIGNED: u32 = u32::MAX;

/// Biconnected components, cut vertices, and connected components of a
/// graph, queryable as a block-cut tree rooted where the DFS started each
/// component.
///
/// Self-loops are ignored (they can never lie on a simple path). Directed
/// edges are treated as undirected (see module docs for why that is sound).
#[derive(Debug, Clone)]
pub struct BlockCutTree {
    /// Node sets of each block, indexed by block id.
    block_nodes: Vec<Vec<NodeId>>,
    /// The number of edges in each block, parallel ones included.
    block_links: Vec<u32>,
    /// The node each block hangs from: the one of its nodes nearest the
    /// root.
    block_head: Vec<NodeId>,
    /// The block above each node index, whose head is the next node up
    /// (`UNASSIGNED` for roots and dead slots).
    parent_block: Vec<u32>,
    /// Blocks between each node index and its component's root.
    depth: Vec<u32>,
    /// Block id per edge index (`UNASSIGNED` for dead or self-loop edges).
    edge_block: Vec<u32>,
    /// Cut-vertex flag per node index.
    is_cut: Vec<bool>,
    /// Connected-component id per node index (`UNASSIGNED` for dead slots).
    component: Vec<u32>,
}

/// One block on the block-cut-tree path between two nodes: every simple
/// path between them crosses `block` from `entry` to `exit`
/// ([`BlockCutTree::block_chain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockStep {
    /// The block id ([`BlockCutTree::block`]).
    pub block: usize,
    /// Where the paths enter the block: the source, or the cut vertex
    /// shared with the previous block.
    pub entry: NodeId,
    /// Where they leave it: the cut vertex shared with the next block, or
    /// the target.
    pub exit: NodeId,
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
            block_links: Vec::new(),
            block_head: Vec::new(),
            parent_block: vec![UNASSIGNED; cap],
            depth: vec![0; cap],
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
        // Nodes in discovery order: a node's head is discovered before it.
        let mut discovered: Vec<NodeId> = Vec::with_capacity(cap);

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
            discovered.push(root);
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
                        discovered.push(v);
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
                        // `p` separates `v`'s subtree: pop one block, which
                        // hangs from `p`.
                        if p != root {
                            tree.is_cut[p.index()] = true;
                        }
                        let parent_edge = child.parent_edge.expect("non-root child");
                        let bid = tree.block_nodes.len() as u32;
                        tree.block_nodes.push(Vec::new());
                        tree.block_links.push(0);
                        tree.block_head.push(p);
                        block_stamp[p.index()] = bid;
                        tree.block_nodes[bid as usize].push(p);
                        loop {
                            let e = edge_stack.pop().expect("edge stack underflow");
                            tree.edge_block[e.index()] = bid;
                            tree.block_links[bid as usize] += 1;
                            let (es, et) = graph.endpoints(e).expect("live edge");
                            for n in [es, et] {
                                if block_stamp[n.index()] != bid {
                                    block_stamp[n.index()] = bid;
                                    tree.block_nodes[bid as usize].push(n);
                                    tree.parent_block[n.index()] = bid;
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
        for node in discovered {
            if let Some(block) = tree.parent_of(node) {
                let head = tree.block_head[block];
                tree.depth[node.index()] = tree.depth[head.index()] + 1;
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

    /// How the simple paths cross `step`'s block when it has two nodes, a
    /// bridge or parallel links: one path per link, with no walk. `None`
    /// for a block of more nodes, which [`Self::walk_block`] walks.
    pub fn links_crossing(&self, step: BlockStep) -> Option<Crossing> {
        (self.block_nodes[step.block].len() == 2).then(|| Crossing::Links {
            ends: [step.entry, step.exit],
            links: self.block_links[step.block] as usize,
        })
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

    /// The block above `node` in the rooted tree, if `node` is no root.
    fn parent_of(&self, node: NodeId) -> Option<usize> {
        match self.parent_block[node.index()] {
            UNASSIGNED => None,
            block => Some(block as usize),
        }
    }

    /// Fills `chain` with the blocks on the block-cut-tree path from
    /// `source` to `target`, in path order, each with the node where the
    /// simple paths from `source` to `target` enter it and the node where
    /// they leave it; each exit is the next block's entry. Returns `false`,
    /// with `chain` empty, when no path joins the two; `source == target`
    /// gives an empty chain.
    ///
    /// Climbs the rooted tree from both ends to where they meet: a cost of
    /// one step per block on the path, whatever the size of the graph.
    pub fn block_chain(&self, source: NodeId, target: NodeId, chain: &mut Vec<BlockStep>) -> bool {
        chain.clear();
        if !self.connected(source, target) {
            return false;
        }
        let depth = |n: NodeId| self.depth[n.index()];
        let up = |n: NodeId| -> (usize, NodeId) {
            let block = self.parent_of(n).expect("a node below its root");
            (block, self.block_head[block])
        };
        // First count the climbs from each end: the deeper end climbs
        // (the source on a tie) until both ends meet at a node, or sit
        // below the same block, which the paths then cross between them.
        let (mut a, mut b) = (source, target);
        let (mut left, mut right) = (0, 0);
        while a != b {
            if depth(a) == depth(b) && self.parent_block[a.index()] == self.parent_block[b.index()]
            {
                break;
            }
            if depth(a) >= depth(b) {
                a = up(a).1;
                left += 1;
            } else {
                b = up(b).1;
                right += 1;
            }
        }
        let mut a = source;
        for _ in 0..left {
            let (block, head) = up(a);
            chain.push(BlockStep {
                block,
                entry: a,
                exit: head,
            });
            a = head;
        }
        let mid = chain.len();
        let mut b = target;
        for _ in 0..right {
            let (block, head) = up(b);
            chain.push(BlockStep {
                block,
                entry: head,
                exit: b,
            });
            b = head;
        }
        chain[mid..].reverse();
        if a != b {
            chain.insert(
                mid,
                BlockStep {
                    block: up(a).0,
                    entry: a,
                    exit: b,
                },
            );
        }
        true
    }

    /// Fills `mask` (re-sized to the graph's node capacity) with exactly
    /// the nodes that can lie on **some** simple path from `source` to
    /// `target`: the union of the blocks of their [`Self::block_chain`].
    /// Returns the number of allowed nodes (0 when no path exists).
    ///
    /// The mask plugs directly into [`crate::paths::walk_paths`]; `mask` is
    /// reusable across calls without reallocation.
    pub fn relevant_nodes(&self, source: NodeId, target: NodeId, mask: &mut Vec<bool>) -> usize {
        mask.clear();
        mask.resize(self.component.len(), false);
        let mut chain = Vec::new();
        if !self.block_chain(source, target, &mut chain) {
            return 0;
        }
        if source == target {
            mask[source.index()] = true;
            return 1;
        }
        let mut allowed = 0usize;
        for step in &chain {
            for &n in &self.block_nodes[step.block] {
                if !mask[n.index()] {
                    mask[n.index()] = true;
                    allowed += 1;
                }
            }
        }
        allowed
    }

    /// Walks the simple paths from `step.entry` to `step.exit` inside
    /// block `step.block` of `graph` (the graph this tree was built from,
    /// or a copy with sorted adjacency), twice under one budget of
    /// `budget` DFS frames: once counting them
    /// and ordering the block's nodes, once for the chordless ones. Past
    /// the budget it returns [`FramesExhausted`].
    ///
    /// On a sorted adjacency ([`Graph::sort_adjacency`]) the counting walk
    /// meets the paths with their node sequences in sorted order, so the
    /// first path is the lexicographically smallest; [`chain_order`]
    /// relies on that.
    pub fn walk_block<N, E>(
        &self,
        graph: &Graph<N, E>,
        step: BlockStep,
        budget: usize,
        scratch: &mut BlockScratch,
    ) -> Result<BlockPaths, FramesExhausted> {
        let BlockScratch { dfs, mask, seen } = scratch;
        let nodes = &self.block_nodes[step.block];
        // Both stay all false between walks, so they only ever grow.
        let cap = graph.node_capacity();
        if mask.len() < cap {
            mask.resize(cap, false);
            seen.resize(cap, false);
        }
        for n in nodes {
            mask[n.index()] = true;
        }
        let mut left = budget;
        let mut order = Vec::with_capacity(nodes.len());
        let mut first_len = 0;
        let mut sets: Vec<Vec<NodeId>> = Vec::new();
        let walked = walk_paths(
            graph,
            step.entry,
            step.exit,
            PathKind::Simple,
            Some(mask.as_slice()),
            &mut left,
            dfs,
            |path, _| {
                if first_len == 0 {
                    first_len = path.len();
                }
                for &n in path {
                    if !seen[n.index()] {
                        seen[n.index()] = true;
                        order.push(n);
                    }
                }
            },
        )
        .and_then(|count| {
            walk_paths(
                graph,
                step.entry,
                step.exit,
                PathKind::Chordless,
                Some(mask.as_slice()),
                &mut left,
                dfs,
                |path, _| {
                    let mut set = path.to_vec();
                    set.sort_unstable();
                    sets.push(set);
                },
            )?;
            Ok(count)
        });
        for n in nodes {
            mask[n.index()] = false;
            seen[n.index()] = false;
        }
        let count = walked?;
        // Parallel links repeat a set.
        sets.sort_unstable();
        sets.dedup();
        Ok(BlockPaths {
            count,
            order,
            first_len,
            sets,
            frames: budget - left,
        })
    }
}

/// Reusable buffers for [`BlockCutTree::walk_block`]: the DFS scratch, the
/// block's mask and the nodes its walk has ordered.
#[derive(Debug, Default)]
pub struct BlockScratch {
    dfs: DiscoveryScratch,
    mask: Vec<bool>,
    seen: Vec<bool>,
}

/// What the simple paths between two nodes of one block contribute to the
/// paths that cross it ([`BlockCutTree::walk_block`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPaths {
    /// The simple paths from entry to exit inside the block.
    pub count: usize,
    /// The nodes on those paths, in the order the counting walk first
    /// meets them; the first [`Self::first_len`] are the first path's, in
    /// path order from the entry.
    pub order: Vec<NodeId>,
    /// The number of nodes on the first path.
    pub first_len: usize,
    /// The node sets of the chordless paths: each sorted, without repeats.
    pub sets: Vec<Vec<NodeId>>,
    /// The DFS frames both walks pushed.
    pub frames: usize,
}

/// How the simple paths along a block chain cross one of its blocks.
#[derive(Debug, Clone)]
pub enum Crossing {
    /// A block of two nodes, a bridge or parallel links: one path per
    /// link, from `ends[0]` to `ends[1]`, known without a walk.
    Links {
        /// The entry and the exit.
        ends: [NodeId; 2],
        /// The links between them.
        links: usize,
    },
    /// A block of more nodes, walked ([`BlockCutTree::walk_block`]).
    Walked(Arc<BlockPaths>),
}

impl Crossing {
    /// The simple paths across the block.
    pub fn count(&self) -> usize {
        match self {
            Crossing::Links { links, .. } => *links,
            Crossing::Walked(paths) => paths.count,
        }
    }

    /// The nodes of the first path the counting walk meets, entry first.
    fn first_path(&self) -> &[NodeId] {
        match self {
            Crossing::Links { ends, .. } => ends,
            Crossing::Walked(paths) => &paths.order[..paths.first_len],
        }
    }

    /// The block's other nodes on its paths, in its walk's order.
    fn rest(&self) -> &[NodeId] {
        match self {
            Crossing::Links { .. } => &[],
            Crossing::Walked(paths) => &paths.order[paths.first_len..],
        }
    }

    /// The chordless paths across the block, by node set.
    fn choices(&self) -> usize {
        match self {
            Crossing::Links { .. } => 1,
            Crossing::Walked(paths) => paths.sets.len(),
        }
    }
}

/// The simple paths along a chain of crossings: the product of their
/// counts, or `None` past `usize::MAX`.
pub fn chain_count(chain: &[Crossing]) -> Option<usize> {
    chain.iter().try_fold(1usize, |paths, crossing| {
        paths.checked_mul(crossing.count())
    })
}

/// Visits the nodes on the simple paths along a chain of crossings in the
/// order one counting walk over the sorted graph, masked to the chain's
/// blocks, first meets them: the first path's nodes block by block, then
/// each block's other nodes in its own walk's order, the last block first.
///
/// The whole walk meets the paths in sorted order, and two paths compare
/// as their first differing block's parts do. So it meets every path of
/// the last block after the first parts of all the others, then every path
/// of the block before, and so on.
pub fn chain_order(chain: &[Crossing], mut visit: impl FnMut(NodeId)) {
    for (i, crossing) in chain.iter().enumerate() {
        // Each entry after the first is the previous exit, visited.
        for &n in &crossing.first_path()[usize::from(i > 0)..] {
            visit(n);
        }
    }
    for crossing in chain.iter().rev() {
        for &n in crossing.rest() {
            visit(n);
        }
    }
}

/// The minimal path sets along a chain of crossings: one per choice of a
/// chordless path in each block, whose nodes `number` maps into the
/// returned sets. Each set is sorted, and the sets are ordered by length,
/// then members. `None` when there would be more than `cap` of them.
pub fn chain_path_sets(
    chain: &[Crossing],
    number: impl Fn(NodeId) -> usize,
    cap: usize,
) -> Option<Vec<Vec<usize>>> {
    let total = chain.iter().try_fold(1usize, |sets, crossing| {
        sets.checked_mul(crossing.choices())
    })?;
    if total > cap {
        return None;
    }
    let mut sets: Vec<Vec<usize>> = vec![Vec::new()];
    for (i, crossing) in chain.iter().enumerate() {
        let entry = crossing.first_path()[0];
        // The entry after the first block is the previous exit, in every
        // set already.
        let fresh = |n: &&NodeId| i == 0 || **n != entry;
        match crossing {
            Crossing::Links { ends, .. } => {
                for set in &mut sets {
                    set.extend(ends.iter().filter(fresh).map(|&n| number(n)));
                }
            }
            Crossing::Walked(paths) => {
                let mut next = Vec::with_capacity(sets.len() * paths.sets.len());
                for prefix in &sets {
                    for block_set in &paths.sets {
                        let mut set = prefix.clone();
                        set.extend(block_set.iter().filter(fresh).map(|&n| number(n)));
                        next.push(set);
                    }
                }
                sets = next;
            }
        }
    }
    for set in &mut sets {
        set.sort_unstable();
    }
    sets.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    Some(sets)
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
    fn block_chain_orders_the_blocks_from_source_to_target() {
        let (g, [a, b, c, d, e, tail]) = two_triangles_and_tail();
        let tree = BlockCutTree::new(&g);
        let block = |x, y| tree.edge_block(g.find_edge(x, y).unwrap()).unwrap();
        let step = |x, y, entry, exit| BlockStep {
            block: block(x, y),
            entry,
            exit,
        };
        let mut chain = Vec::new();
        assert!(tree.block_chain(a, e, &mut chain));
        assert_eq!(chain, [step(a, b, a, c), step(d, e, c, e)]);
        assert!(tree.block_chain(e, tail, &mut chain));
        assert_eq!(chain, [step(d, e, e, c), step(c, tail, c, tail)]);
        assert!(tree.block_chain(a, b, &mut chain));
        assert_eq!(chain, [step(a, b, a, b)]);
        assert!(tree.block_chain(c, c, &mut chain));
        assert!(chain.is_empty());
        // Two nodes only: the bridge is composed from its one link.
        let links = tree.links_crossing(step(c, tail, c, tail));
        assert!(matches!(links, Some(Crossing::Links { links: 1, .. })));
        assert!(tree.links_crossing(step(a, b, a, b)).is_none());
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
        let mut chain = Vec::new();
        assert!(!tree.block_chain(a, lonely, &mut chain));
        assert!(chain.is_empty());
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
