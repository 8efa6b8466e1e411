//! All-simple-paths discovery — the paper's path discovery algorithm.
//!
//! Paper Sec. V-D: *"We chose to implement a depth-first search (DFS)
//! algorithm with a path tracking mechanism to avoid live-locks within
//! cycles."* This module implements exactly that, once: the current path is
//! tracked in an on-path bitset, so cycles are never re-entered, and every
//! extension reaching the target is handed to a visitor in DFS order
//! ([`for_each_simple_path`]). [`all_simple_paths`], [`count_simple_paths`],
//! [`minimal_path_sets`], the pruned search in [`crate::prune`] and each
//! worker of [`crate::parallel`] all run that one loop.
//!
//! The enumeration is **edge-distinct**: two parallel edges between the same
//! device pair yield two distinct paths (they are distinct physical routes
//! with independent failure behaviour, which matters for the downstream
//! reliability analysis).

use crate::graph::{EdgeId, Graph, NodeId};
use std::ops::ControlFlow;

/// A simple path: `nodes.len() == edges.len() + 1`, no repeated nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    /// Visited nodes from source to target, inclusive.
    pub nodes: Vec<NodeId>,
    /// Traversed edges, `edges[i]` connecting `nodes[i]` and `nodes[i+1]`.
    pub edges: Vec<EdgeId>,
}

impl Path {
    /// Number of edges (hops).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` for the trivial single-node path (source == target).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path has at least one node")
    }

    /// The target node.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }

    /// Checks the structural invariants against a graph: endpoints match,
    /// every edge connects consecutive nodes, no node repeats.
    pub fn validate<N, E>(&self, graph: &Graph<N, E>) -> bool {
        if self.nodes.is_empty() || self.nodes.len() != self.edges.len() + 1 {
            return false;
        }
        let mut seen = std::collections::HashSet::new();
        if !self.nodes.iter().all(|n| seen.insert(*n)) {
            return false;
        }
        self.edges.iter().enumerate().all(|(i, &e)| {
            graph.endpoints(e).is_some_and(|(s, t)| {
                (s == self.nodes[i] && t == self.nodes[i + 1])
                    || (!graph.is_directed() && t == self.nodes[i] && s == self.nodes[i + 1])
            })
        })
    }
}

/// Caps on the enumeration, to keep worst-case `O(n!)` searches bounded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathLimits {
    /// Maximum number of nodes per emitted path (`None` = unlimited).
    pub max_nodes: Option<usize>,
    /// Maximum number of paths to emit (`None` = unlimited).
    pub max_paths: Option<usize>,
}

impl PathLimits {
    /// No limits — the paper's semantics ("all redundant paths included").
    pub fn unlimited() -> Self {
        PathLimits::default()
    }

    /// Caps the number of nodes per path.
    pub fn with_max_nodes(mut self, n: usize) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Caps the number of emitted paths.
    pub fn with_max_paths(mut self, n: usize) -> Self {
        self.max_paths = Some(n);
        self
    }
}

/// Reusable DFS state for [`for_each_simple_path`]: the on-path bitset, the
/// per-depth cursor stack, and the current path buffers.
///
/// One instance serves any number of enumerations over any number of graphs
/// (buffers are re-sized per call), so a warm sweep over many
/// `(source, target)` pairs performs **zero** heap allocations once the
/// buffers have reached their high-water mark.
#[derive(Debug, Default)]
pub struct DiscoveryScratch {
    on_path: Vec<bool>,
    cursors: Vec<usize>,
    path_nodes: Vec<NodeId>,
    path_edges: Vec<EdgeId>,
}

impl DiscoveryScratch {
    /// A fresh, empty scratch (equivalent to `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Work/output counters returned by [`for_each_simple_path`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumerationStats {
    /// DFS descents pushed onto the stack — a proxy for search work that is
    /// independent of how long each visit takes.
    pub frames: usize,
    /// Paths handed to the visitor.
    pub emitted: usize,
}

/// Visits every simple path from `source` to `target` without materializing
/// it: the visitor receives borrowed node/edge slices valid only for the
/// duration of the call.
///
/// Paths arrive in DFS order: neighbours are tried in adjacency order, so
/// a path is emitted before every path that leaves the common prefix by a
/// later adjacency entry. `limits.max_nodes` drops longer paths without
/// reordering the rest, and `limits.max_paths` stops the search after that
/// many emissions. If `source == target` the single trivial path
/// `[source]` is emitted (a requester co-located with its provider uses no
/// network components beyond itself).
///
/// `mask`, when present, restricts the search to nodes whose index maps to
/// `true` — exactly as if every other node had been removed from the graph.
/// [`crate::prune::BlockCutTree::relevant_nodes`] produces a mask that
/// provably preserves the full path multiset while collapsing the DFS
/// frontier to the source/target's block-cut-tree path.
///
/// All bookkeeping buffers come from `scratch`.
pub fn for_each_simple_path<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    limits: PathLimits,
    mask: Option<&[bool]>,
    scratch: &mut DiscoveryScratch,
    mut emit: impl FnMut(&[NodeId], &[EdgeId]),
) -> EnumerationStats {
    let mut stats = EnumerationStats::default();
    let allowed = |n: NodeId| mask.is_none_or(|m| m.get(n.index()).copied().unwrap_or(false));
    if !graph.contains_node(source)
        || !graph.contains_node(target)
        || !allowed(source)
        || !allowed(target)
    {
        return stats;
    }
    let cap = limits.max_paths.unwrap_or(usize::MAX);
    if cap == 0 {
        return stats;
    }
    if source == target {
        emit(&[source], &[]);
        stats.emitted = 1;
        return stats;
    }
    stats.frames = extend_simple_paths(
        graph,
        &[source],
        &[],
        target,
        limits.max_nodes,
        mask,
        scratch,
        |nodes, edges| {
            emit(nodes, edges);
            stats.emitted += 1;
            if stats.emitted >= cap {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    );
    stats
}

/// The DFS with path tracking (paper Sec. V-D), the one enumeration loop
/// of this crate: extends the simple path `prefix_nodes` (joined by
/// `prefix_edges`) to `target` in every possible way and hands each
/// completed path to `emit`, in DFS order, until `emit` breaks. The prefix
/// must be non-empty, must not contain `target`, and its nodes must pass
/// `mask`. `max_nodes` bounds the completed path's node count. Returns the
/// frames pushed, counting the prefix's head as one.
///
/// [`for_each_simple_path`] seeds it with the source alone;
/// [`crate::parallel`] seeds it with each prefix of its fan-out.
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_simple_paths<N, E>(
    graph: &Graph<N, E>,
    prefix_nodes: &[NodeId],
    prefix_edges: &[EdgeId],
    target: NodeId,
    max_nodes: Option<usize>,
    mask: Option<&[bool]>,
    scratch: &mut DiscoveryScratch,
    mut emit: impl FnMut(&[NodeId], &[EdgeId]) -> ControlFlow<()>,
) -> usize {
    let allowed = |n: NodeId| mask.is_none_or(|m| m.get(n.index()).copied().unwrap_or(false));
    scratch.on_path.clear();
    scratch.on_path.resize(graph.node_capacity(), false);
    for n in prefix_nodes {
        scratch.on_path[n.index()] = true;
    }
    scratch.path_nodes.clear();
    scratch.path_nodes.extend_from_slice(prefix_nodes);
    scratch.path_edges.clear();
    scratch.path_edges.extend_from_slice(prefix_edges);
    scratch.cursors.clear();
    scratch.cursors.push(0);
    let mut frames = 1;
    while let Some(depth) = scratch.cursors.len().checked_sub(1) {
        let node = *scratch.path_nodes.last().expect("one node per frame");
        let neighbors = graph.adjacency_slice(node);
        let cursor = scratch.cursors[depth];
        if cursor >= neighbors.len() {
            scratch.cursors.pop();
            if let Some(n) = scratch.path_nodes.pop() {
                scratch.on_path[n.index()] = false;
            }
            scratch.path_edges.pop();
            continue;
        }
        scratch.cursors[depth] = cursor + 1;
        let adj = neighbors[cursor];

        if adj.node == target {
            let within = max_nodes.is_none_or(|max| scratch.path_nodes.len() < max);
            if within {
                scratch.path_nodes.push(target);
                scratch.path_edges.push(adj.edge);
                let flow = emit(&scratch.path_nodes, &scratch.path_edges);
                scratch.path_nodes.pop();
                scratch.path_edges.pop();
                if flow.is_break() {
                    break;
                }
            }
            continue;
        }
        if scratch.on_path[adj.node.index()] || !allowed(adj.node) {
            continue; // path tracking: never re-enter the current path
        }
        // Only descend if a target hop could still fit under the cap.
        let room = max_nodes.is_none_or(|max| scratch.path_nodes.len() + 2 <= max);
        if !room {
            continue;
        }
        scratch.on_path[adj.node.index()] = true;
        scratch.path_nodes.push(adj.node);
        scratch.path_edges.push(adj.edge);
        scratch.cursors.push(0);
        frames += 1;
    }
    scratch.path_nodes.clear();
    scratch.path_edges.clear();
    scratch.cursors.clear();
    frames
}

/// Collects the paths [`for_each_simple_path`] visits, in its order, with
/// a fresh scratch.
pub(crate) fn collect_simple_paths<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    limits: PathLimits,
    mask: Option<&[bool]>,
) -> Vec<Path> {
    let mut out = Vec::new();
    for_each_simple_path(
        graph,
        source,
        target,
        limits,
        mask,
        &mut DiscoveryScratch::new(),
        |nodes, edges| {
            out.push(Path {
                nodes: nodes.to_vec(),
                edges: edges.to_vec(),
            })
        },
    );
    out
}

/// Collects all simple paths into a vector, in DFS order.
pub fn all_simple_paths<N, E>(graph: &Graph<N, E>, source: NodeId, target: NodeId) -> Vec<Path> {
    collect_simple_paths(graph, source, target, PathLimits::unlimited(), None)
}

/// Counts simple paths without materializing them.
pub fn count_simple_paths<N, E>(graph: &Graph<N, E>, source: NodeId, target: NodeId) -> usize {
    for_each_simple_path(
        graph,
        source,
        target,
        PathLimits::unlimited(),
        None,
        &mut DiscoveryScratch::new(),
        |_, _| {},
    )
    .emitted
}

/// Computes the **minimal path sets** over nodes: the node sets of all
/// simple paths, with non-minimal sets (strict supersets of another path's
/// set) removed. This is the input to the sum-of-disjoint-products and
/// cut-set analyses in the `dependability` crate.
pub fn minimal_path_sets<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
) -> Vec<Vec<NodeId>> {
    let mut sets: Vec<Vec<NodeId>> = all_simple_paths(graph, source, target)
        .into_iter()
        .map(|p| {
            let mut nodes = p.nodes;
            nodes.sort_unstable();
            nodes
        })
        .collect();
    sets.sort();
    sets.dedup();
    // Subset minimization: keep a set only if no *other* kept set is a
    // strict subset. Sorting by length lets us only test shorter sets.
    sets.sort_by_key(Vec::len);
    let mut minimal: Vec<Vec<NodeId>> = Vec::new();
    'outer: for candidate in sets {
        for kept in &minimal {
            if is_subset(kept, &candidate) {
                continue 'outer;
            }
        }
        minimal.push(candidate);
    }
    minimal
}

/// `true` if sorted slice `a` ⊆ sorted slice `b`.
fn is_subset(a: &[NodeId], b: &[NodeId]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            if y == x {
                continue 'outer;
            }
            if y > x {
                return false;
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn complete(n: usize) -> (Graph<usize, ()>, Vec<NodeId>) {
        let mut g = Graph::new_undirected();
        let ids: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(ids[i], ids[j], ());
            }
        }
        (g, ids)
    }

    /// Expected #simple paths between two distinct vertices of `K_n`:
    /// sum over k intermediates of (n-2)!/(n-2-k)!.
    fn expected_kn_paths(n: usize) -> usize {
        let m = n - 2;
        (0..=m).map(|k| ((m - k + 1)..=m).product::<usize>()).sum()
    }

    #[test]
    fn triangle_has_two_paths() {
        let (g, ids) = complete(3);
        let paths = all_simple_paths(&g, ids[0], ids[2]);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert!(p.validate(&g));
            assert_eq!(p.source(), ids[0]);
            assert_eq!(p.target(), ids[2]);
        }
    }

    #[test]
    fn complete_graph_counts_match_formula() {
        for n in 2..=6 {
            let (g, ids) = complete(n);
            assert_eq!(
                count_simple_paths(&g, ids[0], ids[1]),
                expected_kn_paths(n),
                "K_{n}"
            );
        }
    }

    #[test]
    fn parallel_edges_give_distinct_paths() {
        let mut g: Graph<&str, u8> = Graph::new_undirected();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        let paths = all_simple_paths(&g, a, b);
        assert_eq!(paths.len(), 2);
        assert_ne!(paths[0].edges, paths[1].edges);
        assert_eq!(paths[0].nodes, paths[1].nodes);
    }

    #[test]
    fn directed_graph_respects_orientation() {
        let mut g: Graph<(), ()> = Graph::new_directed();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(c, a, ()); // back edge must not create an a->c shortcut
        assert_eq!(count_simple_paths(&g, a, c), 1);
        assert_eq!(count_simple_paths(&g, c, b), 1); // c->a->b
    }

    #[test]
    fn trivial_path_when_source_equals_target() {
        let (g, ids) = complete(3);
        let paths = all_simple_paths(&g, ids[0], ids[0]);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].is_empty());
        assert_eq!(paths[0].nodes, vec![ids[0]]);
    }

    #[test]
    fn unreachable_target_yields_no_paths() {
        let mut g: Graph<(), ()> = Graph::new_undirected();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        assert_eq!(count_simple_paths(&g, a, c), 0);
    }

    #[test]
    fn max_paths_limit_respected() {
        let (g, ids) = complete(6);
        let limits = PathLimits::default().with_max_paths(7);
        let limited = collect_simple_paths(&g, ids[0], ids[1], limits, None);
        assert_eq!(limited.len(), 7);
    }

    #[test]
    fn max_nodes_limit_respected() {
        let (g, ids) = complete(5);
        let limits = PathLimits::default().with_max_nodes(3);
        let limited = collect_simple_paths(&g, ids[0], ids[1], limits, None);
        // direct (2 nodes) + one-intermediate paths (3 nodes): 1 + 3 = 4
        assert_eq!(limited.len(), 4);
        assert!(limited.iter().all(|p| p.nodes.len() <= 3));
    }

    #[test]
    fn cycles_do_not_livelock() {
        // Ring of 6: exactly 2 simple paths between opposite nodes.
        let mut g: Graph<usize, ()> = Graph::new_undirected();
        let ids: Vec<_> = (0..6).map(|i| g.add_node(i)).collect();
        for i in 0..6 {
            g.add_edge(ids[i], ids[(i + 1) % 6], ());
        }
        assert_eq!(count_simple_paths(&g, ids[0], ids[3]), 2);
    }

    #[test]
    fn all_emitted_paths_are_valid_and_unique() {
        let (g, ids) = complete(5);
        let paths = all_simple_paths(&g, ids[0], ids[4]);
        let mut seen = std::collections::HashSet::new();
        for p in &paths {
            assert!(p.validate(&g));
            assert!(seen.insert(p.clone()), "duplicate path {p:?}");
        }
    }

    #[test]
    fn minimal_path_sets_drop_supersets() {
        // a - b - t  plus direct a - t: the 2-node set {a,t} makes the
        // 3-node set {a,b,t} non-minimal.
        let mut g: Graph<&str, ()> = Graph::new_undirected();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_edge(a, b, ());
        g.add_edge(b, t, ());
        g.add_edge(a, t, ());
        let sets = minimal_path_sets(&g, a, t);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 2);
    }

    #[test]
    fn minimal_path_sets_keep_disjoint_routes() {
        // Two disjoint 3-hop routes: both minimal.
        let mut g: Graph<&str, ()> = Graph::new_undirected();
        let s = g.add_node("s");
        let x = g.add_node("x");
        let y = g.add_node("y");
        let t = g.add_node("t");
        g.add_edge(s, x, ());
        g.add_edge(x, t, ());
        g.add_edge(s, y, ());
        g.add_edge(y, t, ());
        assert_eq!(minimal_path_sets(&g, s, t).len(), 2);
    }

    fn collect_visited(
        g: &Graph<usize, ()>,
        s: NodeId,
        t: NodeId,
        limits: PathLimits,
        mask: Option<&[bool]>,
        scratch: &mut DiscoveryScratch,
    ) -> (Vec<Path>, EnumerationStats) {
        let mut out = Vec::new();
        let stats = for_each_simple_path(g, s, t, limits, mask, scratch, |nodes, edges| {
            out.push(Path {
                nodes: nodes.to_vec(),
                edges: edges.to_vec(),
            })
        });
        (out, stats)
    }

    #[test]
    fn visitor_enumeration_trivial_and_missing_endpoints() {
        let (g, ids) = complete(3);
        let mut scratch = DiscoveryScratch::new();
        let (paths, stats) = collect_visited(
            &g,
            ids[0],
            ids[0],
            PathLimits::unlimited(),
            None,
            &mut scratch,
        );
        assert_eq!(stats.emitted, 1);
        assert!(paths[0].is_empty());
        let dead = NodeId::from_index(77);
        let (paths, stats) = collect_visited(
            &g,
            ids[0],
            dead,
            PathLimits::unlimited(),
            None,
            &mut scratch,
        );
        assert!(paths.is_empty());
        assert_eq!(stats, EnumerationStats::default());
    }

    #[test]
    fn mask_restricts_search_like_node_removal() {
        // Square a-b-t, a-c-t: masking out c leaves exactly the path via b.
        let mut g: Graph<usize, ()> = Graph::new_undirected();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        let t = g.add_node(3);
        g.add_edge(a, b, ());
        g.add_edge(b, t, ());
        g.add_edge(a, c, ());
        g.add_edge(c, t, ());
        let mut mask = vec![true; g.node_capacity()];
        mask[c.index()] = false;
        let mut scratch = DiscoveryScratch::new();
        let (paths, _) =
            collect_visited(&g, a, t, PathLimits::unlimited(), Some(&mask), &mut scratch);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![a, b, t]);
        // A mask excluding an endpoint yields nothing.
        mask[t.index()] = false;
        let (paths, stats) =
            collect_visited(&g, a, t, PathLimits::unlimited(), Some(&mask), &mut scratch);
        assert!(paths.is_empty());
        assert_eq!(stats.frames, 0);
    }

    #[test]
    fn max_paths_zero_emits_nothing() {
        let (g, ids) = complete(4);
        let mut scratch = DiscoveryScratch::new();
        let (paths, stats) = collect_visited(
            &g,
            ids[0],
            ids[1],
            PathLimits::default().with_max_paths(0),
            None,
            &mut scratch,
        );
        assert!(paths.is_empty());
        assert_eq!(stats.frames, 0);
    }

    #[test]
    fn scratch_reuse_across_graphs_is_clean() {
        let (big, big_ids) = complete(6);
        let (small, small_ids) = complete(3);
        let mut scratch = DiscoveryScratch::new();
        let (_, _) = collect_visited(
            &big,
            big_ids[0],
            big_ids[5],
            PathLimits::unlimited(),
            None,
            &mut scratch,
        );
        let (paths, _) = collect_visited(
            &small,
            small_ids[0],
            small_ids[2],
            PathLimits::unlimited(),
            None,
            &mut scratch,
        );
        assert_eq!(paths.len(), 2, "stale scratch state must not leak");
    }

    #[test]
    fn is_subset_logic() {
        let a = [NodeId::from_index(1), NodeId::from_index(3)];
        let b = [
            NodeId::from_index(1),
            NodeId::from_index(2),
            NodeId::from_index(3),
        ];
        assert!(is_subset(&a, &b));
        assert!(!is_subset(&b, &a));
        assert!(is_subset(&[], &a));
    }
}
