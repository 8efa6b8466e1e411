//! All-simple-paths discovery — the paper's path discovery algorithm.
//!
//! Paper Sec. V-D: *"We chose to implement a depth-first search (DFS)
//! algorithm with a path tracking mechanism to avoid live-locks within
//! cycles."* This module implements exactly that, once: the current path is
//! tracked in an on-path bitset, so cycles are never re-entered, and every
//! extension reaching the target is handed to a visitor in DFS order.
//! [`walk_paths`] is the one way into that loop: it visits every simple
//! path, or only the chordless ones, and charges the frames it pushes to a
//! budget. [`all_simple_paths`], [`count_simple_paths`],
//! [`minimal_path_sets`] and the pruned search in [`crate::prune`] call it
//! with an unlimited budget.
//!
//! The enumeration is **edge-distinct**: two parallel edges between the same
//! device pair yield two distinct paths (they are distinct physical routes
//! with independent failure behaviour, which matters for the downstream
//! reliability analysis).

use crate::graph::{Adjacency, EdgeId, Graph, NodeId};
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

/// Reusable DFS state for [`walk_paths`]: the on-path bitset, the
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

/// Which simple paths [`walk_paths`] visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Every simple path.
    Simple,
    /// Every chordless simple path: no edge joins two of its nodes that are
    /// not consecutive on it (on a directed graph, no edge leads from a
    /// node to a later node other than the next). A simple path's node set
    /// contains another path's set exactly when the path has a chord, so
    /// the chordless paths' node sets are the minimal path sets
    /// ([`minimal_path_sets`]); parallel edges repeat a set.
    Chordless,
}

/// A walk needed more DFS frames than its budget held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FramesExhausted;

/// Visits the simple paths of `kind` from `source` to `target` without
/// materializing them, and charges each DFS frame pushed to `budget`. The
/// visitor receives borrowed node/edge slices valid only for the duration
/// of the call. Returns the number of paths visited, or [`FramesExhausted`]
/// once the walk needs more frames than `budget` holds; then `budget` is
/// spent, and the paths visited so far are only a prefix of the walk's, so
/// a caller must not read them as the answer. A budget of `usize::MAX` is
/// never exhausted.
///
/// Paths arrive in DFS order: neighbours are tried in adjacency order, so
/// a path is visited before every path that leaves the common prefix by a
/// later adjacency entry. If `source == target` the single trivial path
/// `[source]` is visited (a requester co-located with its provider uses no
/// network components beyond itself).
///
/// `mask`, when present, restricts the search to nodes whose index maps to
/// `true` — exactly as if every other node had been removed from the graph.
/// [`crate::prune::BlockCutTree::relevant_nodes`] produces a mask that
/// provably preserves the full path multiset while collapsing the DFS
/// frontier to the source/target's block-cut-tree path.
///
/// One budget shared by several walks bounds their total search, whatever
/// the number of paths: frames, not visited paths, measure the work, and
/// a dense graph pushes many frames per path. All bookkeeping buffers come
/// from `scratch`.
#[allow(clippy::too_many_arguments)]
pub fn walk_paths<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    kind: PathKind,
    mask: Option<&[bool]>,
    budget: &mut usize,
    scratch: &mut DiscoveryScratch,
    mut emit: impl FnMut(&[NodeId], &[EdgeId]),
) -> Result<usize, FramesExhausted> {
    let allowed = |n: NodeId| mask.is_none_or(|m| m.get(n.index()).copied().unwrap_or(false));
    if !graph.contains_node(source)
        || !graph.contains_node(target)
        || !allowed(source)
        || !allowed(target)
    {
        return Ok(0);
    }
    if source == target {
        emit(&[source], &[]);
        return Ok(1);
    }
    let walk = Walk {
        chordless: kind == PathKind::Chordless,
        max_frames: *budget,
    };
    let mut emitted = 0;
    let frames = extend_simple_paths(
        graph,
        source,
        target,
        walk,
        mask,
        scratch,
        |nodes, edges| {
            emit(nodes, edges);
            emitted += 1;
            ControlFlow::Continue(())
        },
    );
    if frames > *budget {
        *budget = 0;
        return Err(FramesExhausted);
    }
    *budget -= frames;
    Ok(emitted)
}

/// How [`extend_simple_paths`] walks: which extensions it takes and how
/// much search it may spend.
#[derive(Debug, Clone, Copy)]
struct Walk {
    /// Extend a path only by a node with no edge from the path's nodes
    /// other than its head, so every completed path is chordless.
    chordless: bool,
    /// Most frames the walk may push; it stops at the first frame past it.
    max_frames: usize,
}

/// The DFS with path tracking (paper Sec. V-D), the one enumeration loop
/// of this crate: extends the path `[source]` to `target` in every
/// possible way that `walk` allows and hands each completed path to
/// `emit`, in DFS order, until `emit` breaks or the walk pushes more than
/// `walk.max_frames` frames. `source` must differ from `target` and pass
/// `mask`. Returns the frames pushed, counting the source's as one; a
/// count over `walk.max_frames` means the walk stopped there.
/// [`walk_paths`] is its only caller.
fn extend_simple_paths<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    walk: Walk,
    mask: Option<&[bool]>,
    scratch: &mut DiscoveryScratch,
    mut emit: impl FnMut(&[NodeId], &[EdgeId]) -> ControlFlow<()>,
) -> usize {
    let allowed = |n: NodeId| mask.is_none_or(|m| m.get(n.index()).copied().unwrap_or(false));
    // A chord of the extended path is an edge into `next` from a path node
    // other than the head (on a directed graph, only an edge into `next`
    // shortens the path).
    let has_chord = |next: NodeId, head: NodeId, on_path: &[bool]| {
        let from_path = |a: Adjacency| a.node != head && on_path[a.node.index()];
        if graph.is_directed() {
            graph.in_neighbors(next).any(from_path)
        } else {
            graph.adjacency_slice(next).iter().copied().any(from_path)
        }
    };
    scratch.on_path.clear();
    scratch.on_path.resize(graph.node_capacity(), false);
    scratch.on_path[source.index()] = true;
    scratch.path_nodes.clear();
    scratch.path_nodes.push(source);
    scratch.path_edges.clear();
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
            if !(walk.chordless && has_chord(target, node, &scratch.on_path)) {
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
        if walk.chordless && has_chord(adj.node, node, &scratch.on_path) {
            continue;
        }
        scratch.on_path[adj.node.index()] = true;
        scratch.path_nodes.push(adj.node);
        scratch.path_edges.push(adj.edge);
        scratch.cursors.push(0);
        frames += 1;
        if frames > walk.max_frames {
            break;
        }
    }
    scratch.path_nodes.clear();
    scratch.path_edges.clear();
    scratch.cursors.clear();
    frames
}

/// Collects the paths an unlimited [`walk_paths`] of every simple path
/// visits, in its order, with a fresh scratch.
pub(crate) fn collect_simple_paths<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    mask: Option<&[bool]>,
) -> Vec<Path> {
    let mut out = Vec::new();
    let mut budget = usize::MAX;
    walk_paths(
        graph,
        source,
        target,
        PathKind::Simple,
        mask,
        &mut budget,
        &mut DiscoveryScratch::new(),
        |nodes, edges| {
            out.push(Path {
                nodes: nodes.to_vec(),
                edges: edges.to_vec(),
            })
        },
    )
    .expect("an unlimited budget is never exhausted");
    out
}

/// Collects all simple paths into a vector, in DFS order.
pub fn all_simple_paths<N, E>(graph: &Graph<N, E>, source: NodeId, target: NodeId) -> Vec<Path> {
    collect_simple_paths(graph, source, target, None)
}

/// Counts simple paths without materializing them.
pub fn count_simple_paths<N, E>(graph: &Graph<N, E>, source: NodeId, target: NodeId) -> usize {
    let mut budget = usize::MAX;
    walk_paths(
        graph,
        source,
        target,
        PathKind::Simple,
        None,
        &mut budget,
        &mut DiscoveryScratch::new(),
        |_, _| {},
    )
    .expect("an unlimited budget is never exhausted")
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

    /// The paths an unlimited walk of every simple path visits, in its
    /// order, with the frames it charged.
    fn collect_visited(
        g: &Graph<usize, ()>,
        s: NodeId,
        t: NodeId,
        mask: Option<&[bool]>,
        scratch: &mut DiscoveryScratch,
    ) -> (Vec<Path>, usize) {
        let mut out = Vec::new();
        let mut budget = usize::MAX;
        let visited = walk_paths(
            g,
            s,
            t,
            PathKind::Simple,
            mask,
            &mut budget,
            scratch,
            |nodes, edges| {
                out.push(Path {
                    nodes: nodes.to_vec(),
                    edges: edges.to_vec(),
                })
            },
        );
        assert_eq!(visited, Ok(out.len()));
        (out, usize::MAX - budget)
    }

    #[test]
    fn visitor_enumeration_trivial_and_missing_endpoints() {
        let (g, ids) = complete(3);
        let mut scratch = DiscoveryScratch::new();
        let (paths, frames) = collect_visited(&g, ids[0], ids[0], None, &mut scratch);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].is_empty());
        assert_eq!(frames, 0);
        let dead = NodeId::from_index(77);
        let (paths, frames) = collect_visited(&g, ids[0], dead, None, &mut scratch);
        assert!(paths.is_empty());
        assert_eq!(frames, 0);
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
        let (paths, _) = collect_visited(&g, a, t, Some(&mask), &mut scratch);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![a, b, t]);
        // A mask excluding an endpoint yields nothing.
        mask[t.index()] = false;
        let (paths, frames) = collect_visited(&g, a, t, Some(&mask), &mut scratch);
        assert!(paths.is_empty());
        assert_eq!(frames, 0);
    }

    #[test]
    fn scratch_reuse_across_graphs_is_clean() {
        let (big, big_ids) = complete(6);
        let (small, small_ids) = complete(3);
        let mut scratch = DiscoveryScratch::new();
        collect_visited(&big, big_ids[0], big_ids[5], None, &mut scratch);
        let (paths, _) = collect_visited(&small, small_ids[0], small_ids[2], None, &mut scratch);
        assert_eq!(paths.len(), 2, "stale scratch state must not leak");
    }

    #[test]
    fn chordless_walk_skips_paths_with_a_shortcut() {
        // a - b - t plus a - t: a-b-t has the chord a-t.
        let mut g: Graph<&str, ()> = Graph::new_undirected();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_edge(a, b, ());
        g.add_edge(b, t, ());
        g.add_edge(a, t, ());
        let walk = |kind| {
            let mut out = Vec::new();
            let mut budget = usize::MAX;
            let n = walk_paths(
                &g,
                a,
                t,
                kind,
                None,
                &mut budget,
                &mut DiscoveryScratch::new(),
                |nodes, _| out.push(nodes.to_vec()),
            );
            (n, out)
        };
        assert_eq!(
            walk(PathKind::Simple),
            (Ok(2), vec![vec![a, b, t], vec![a, t]])
        );
        assert_eq!(walk(PathKind::Chordless), (Ok(1), vec![vec![a, t]]));
    }

    #[test]
    fn directed_chords_point_forward() {
        // a -> b -> c with a back edge c -> a: a-b-c is chordless; a
        // forward edge a -> c is a chord of it.
        let mut g: Graph<(), ()> = Graph::new_directed();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        g.add_edge(c, a, ());
        let chordless = |g: &Graph<(), ()>| {
            let mut out = Vec::new();
            let mut budget = usize::MAX;
            walk_paths(
                g,
                a,
                c,
                PathKind::Chordless,
                None,
                &mut budget,
                &mut DiscoveryScratch::new(),
                |nodes, _| out.push(nodes.to_vec()),
            )
            .unwrap();
            out
        };
        assert_eq!(chordless(&g), vec![vec![a, b, c]]);
        g.add_edge(a, c, ());
        assert_eq!(chordless(&g), vec![vec![a, c]]);
    }

    #[test]
    fn walks_charge_frames_to_a_shared_budget() {
        let (g, ids) = complete(6);
        let mut scratch = DiscoveryScratch::new();
        let (paths, frames) = collect_visited(&g, ids[0], ids[1], None, &mut scratch);
        let mut walk = |budget: &mut usize| {
            walk_paths(
                &g,
                ids[0],
                ids[1],
                PathKind::Simple,
                None,
                budget,
                &mut scratch,
                |_, _| {},
            )
        };
        // Exactly enough frames: the whole count, and nothing left.
        let mut budget = frames;
        assert_eq!(walk(&mut budget), Ok(paths.len()));
        assert_eq!(budget, 0);
        // One frame short: refused, and the budget is spent.
        let mut budget = frames - 1;
        assert_eq!(walk(&mut budget), Err(FramesExhausted));
        assert_eq!(budget, 0);
        // A second walk on a shared budget gets what the first left.
        let mut budget = 2 * frames - 1;
        assert_eq!(walk(&mut budget), Ok(paths.len()));
        assert_eq!(walk(&mut budget), Err(FramesExhausted));
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
