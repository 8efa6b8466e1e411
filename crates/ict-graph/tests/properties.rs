//! Property-based tests for the graph engine: the paper's path-discovery
//! semantics (all simple paths, no livelock) checked against brute force on
//! random graphs.

use ict_graph::paths::{
    all_simple_paths, count_simple_paths, minimal_path_sets, walk_paths, DiscoveryScratch, Path,
    PathKind,
};
use ict_graph::prune::{pruned_simple_paths, BlockCutTree};
use ict_graph::{Graph, NodeId};
use proptest::prelude::*;

/// A random undirected graph on `n` nodes given by an edge list.
fn graph_strategy() -> impl Strategy<Value = (Graph<usize, ()>, Vec<NodeId>)> {
    (2usize..8).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(12)).prop_map(move |pairs| {
            let mut g = Graph::new_undirected();
            let ids: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
            for (a, b) in pairs {
                if a != b {
                    g.add_edge(ids[a], ids[b], ());
                }
            }
            (g, ids)
        })
    })
}

/// Brute-force simple-path enumeration by recursion over node sequences.
/// It tries neighbours in adjacency order, as the DFS does, so it lists the
/// paths in DFS order too.
fn brute_force_paths(g: &Graph<usize, ()>, s: NodeId, t: NodeId) -> Vec<Path> {
    fn recurse(
        g: &Graph<usize, ()>,
        t: NodeId,
        nodes: &mut Vec<NodeId>,
        edges: &mut Vec<ict_graph::EdgeId>,
        out: &mut Vec<Path>,
    ) {
        let head = *nodes.last().unwrap();
        if head == t {
            out.push(Path {
                nodes: nodes.clone(),
                edges: edges.clone(),
            });
            return;
        }
        for adj in g.neighbors(head) {
            if nodes.contains(&adj.node) {
                continue;
            }
            nodes.push(adj.node);
            edges.push(adj.edge);
            recurse(g, t, nodes, edges, out);
            nodes.pop();
            edges.pop();
        }
    }
    let mut out = Vec::new();
    if s == t {
        return vec![Path {
            nodes: vec![s],
            edges: vec![],
        }];
    }
    recurse(g, t, &mut vec![s], &mut Vec::new(), &mut out);
    out
}

/// The DFS frames a walk of every simple path from `s` to `t` pushes, by
/// brute force: one per simple path from `s` that does not reach `t`,
/// the trivial path `[s]` included.
fn brute_force_frames(g: &Graph<usize, ()>, s: NodeId, t: NodeId) -> usize {
    fn recurse(g: &Graph<usize, ()>, t: NodeId, nodes: &mut Vec<NodeId>) -> usize {
        let head = *nodes.last().unwrap();
        let mut frames = 1;
        for adj in g.neighbors(head) {
            if adj.node == t || nodes.contains(&adj.node) {
                continue;
            }
            nodes.push(adj.node);
            frames += recurse(g, t, nodes);
            nodes.pop();
        }
        frames
    }
    if s == t {
        return 0;
    }
    recurse(g, t, &mut vec![s])
}

/// The paths a budget-free walk of `kind` visits, in its order.
fn walked(g: &Graph<usize, ()>, s: NodeId, t: NodeId, kind: PathKind) -> Vec<Path> {
    let mut out = Vec::new();
    let mut budget = usize::MAX;
    let count = walk_paths(
        g,
        s,
        t,
        kind,
        None,
        &mut budget,
        &mut DiscoveryScratch::new(),
        |nodes, edges| {
            out.push(Path {
                nodes: nodes.to_vec(),
                edges: edges.to_vec(),
            })
        },
    )
    .expect("an unbounded budget");
    assert_eq!(count, out.len());
    out
}

/// Node indices numbered at their first occurrence over `paths`.
fn first_occurrence(paths: &[Path]) -> Vec<NodeId> {
    let mut order = Vec::new();
    for node in paths.iter().flat_map(|p| &p.nodes) {
        if !order.contains(node) {
            order.push(*node);
        }
    }
    order
}

/// The chordless walk's node sets as `minimal_path_sets` lists them: each
/// set sorted, no duplicates, ordered by length, then members.
fn chordless_sets(g: &Graph<usize, ()>, s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    let mut sets: Vec<Vec<NodeId>> = walked(g, s, t, PathKind::Chordless)
        .into_iter()
        .map(|p| {
            let mut nodes = p.nodes;
            nodes.sort_unstable();
            nodes
        })
        .collect();
    sets.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    sets.dedup();
    sets
}

/// The sorted view's walk against every simple path sorted by (node ids,
/// edge ids): the same first-occurrence numbering, and without parallel
/// edges the same list.
fn sorted_view_agrees(g: &Graph<usize, ()>, s: NodeId, t: NodeId) -> Result<(), TestCaseError> {
    let mut sorted = g.clone();
    sorted.sort_adjacency();
    let walk = walked(&sorted, s, t, PathKind::Simple);
    let mut want = all_simple_paths(g, s, t);
    want.sort();
    prop_assert_eq!(first_occurrence(&walk), first_occurrence(&want));
    let parallel = g.node_ids().any(|n| {
        let mut seen: Vec<NodeId> = g.neighbors(n).map(|a| a.node).collect();
        let len = seen.len();
        seen.sort_unstable();
        seen.dedup();
        seen.len() < len
    });
    if !parallel {
        prop_assert_eq!(walk, want);
    }
    Ok(())
}

/// A dense random multigraph: every vertex pair carries 0..=2 parallel
/// edges, so most of the graph is one big biconnected component — the
/// worst case for pruning (it must degrade to a no-op, not lose paths).
fn dense_graph_strategy() -> impl Strategy<Value = (Graph<usize, ()>, Vec<NodeId>)> {
    (3usize..7).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        proptest::collection::vec(0usize..=2, pairs..=pairs).prop_map(move |multiplicity| {
            let mut g = Graph::new_undirected();
            let ids: Vec<_> = (0..n).map(|i| g.add_node(i)).collect();
            let mut k = 0;
            for i in 0..n {
                for j in (i + 1)..n {
                    for _ in 0..multiplicity[k] {
                        g.add_edge(ids[i], ids[j], ());
                    }
                    k += 1;
                }
            }
            (g, ids)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn enumeration_matches_brute_force((g, ids) in graph_strategy(), si in 0usize..8, ti in 0usize..8) {
        // Same paths in the same order: the kernel is an exact DFS.
        let s = ids[si % ids.len()];
        let t = ids[ti % ids.len()];
        prop_assert_eq!(all_simple_paths(&g, s, t), brute_force_paths(&g, s, t));
    }

    #[test]
    fn every_path_is_simple_and_valid((g, ids) in graph_strategy()) {
        let s = ids[0];
        let t = ids[ids.len() - 1];
        for p in all_simple_paths(&g, s, t) {
            prop_assert!(p.validate(&g));
            prop_assert_eq!(p.source(), s);
            prop_assert_eq!(p.target(), t);
        }
    }

    #[test]
    fn minimal_path_sets_are_antichain_and_cover((g, ids) in graph_strategy()) {
        let s = ids[0];
        let t = ids[ids.len() - 1];
        let sets = minimal_path_sets(&g, s, t);
        // Antichain: no set strictly contains another.
        for (i, a) in sets.iter().enumerate() {
            for (j, b) in sets.iter().enumerate() {
                if i != j {
                    let a_subset_b = a.iter().all(|x| b.binary_search(x).is_ok());
                    prop_assert!(!a_subset_b || a.len() == b.len());
                }
            }
        }
        // Cover: there is a path iff there is a minimal path set.
        let has_path = !all_simple_paths(&g, s, t).is_empty();
        prop_assert_eq!(!sets.is_empty(), has_path);
    }

    #[test]
    fn pruned_equals_unpruned_on_random_graphs((g, ids) in graph_strategy(), si in 0usize..8, ti in 0usize..8) {
        let s = ids[si % ids.len()];
        let t = ids[ti % ids.len()];
        let mut unpruned = all_simple_paths(&g, s, t);
        let mut pruned = pruned_simple_paths(&g, s, t);
        prop_assert_eq!(&pruned, &unpruned, "DFS emission order must be preserved");
        pruned.sort();
        unpruned.sort();
        prop_assert_eq!(pruned, unpruned);
    }

    #[test]
    fn pruned_equals_unpruned_on_dense_multigraphs((g, ids) in dense_graph_strategy()) {
        let s = ids[0];
        let t = ids[ids.len() - 1];
        let unpruned = all_simple_paths(&g, s, t);
        let pruned = pruned_simple_paths(&g, s, t);
        prop_assert_eq!(pruned, unpruned);
    }

    #[test]
    fn chordless_walk_finds_the_minimal_path_sets((g, ids) in graph_strategy(), si in 0usize..8, ti in 0usize..8) {
        let s = ids[si % ids.len()];
        let t = ids[ti % ids.len()];
        prop_assert_eq!(chordless_sets(&g, s, t), minimal_path_sets(&g, s, t));
    }

    #[test]
    fn chordless_walk_finds_the_minimal_path_sets_of_multigraphs((g, ids) in dense_graph_strategy()) {
        let s = ids[0];
        let t = ids[ids.len() - 1];
        prop_assert_eq!(chordless_sets(&g, s, t), minimal_path_sets(&g, s, t));
    }

    #[test]
    fn simple_paths_cover_exactly_the_relevant_mask((g, ids) in graph_strategy(), si in 0usize..8, ti in 0usize..8) {
        let s = ids[si % ids.len()];
        let t = ids[ti % ids.len()];
        let mut covered = vec![false; g.node_capacity()];
        for p in all_simple_paths(&g, s, t) {
            for n in p.nodes {
                covered[n.index()] = true;
            }
        }
        let mut mask = Vec::new();
        let allowed = BlockCutTree::new(&g).relevant_nodes(s, t, &mut mask);
        prop_assert_eq!(allowed, covered.iter().filter(|&&c| c).count());
        prop_assert_eq!(mask, covered);
    }

    #[test]
    fn sorted_view_numbers_nodes_in_sorted_path_order((g, ids) in graph_strategy(), si in 0usize..8, ti in 0usize..8) {
        sorted_view_agrees(&g, ids[si % ids.len()], ids[ti % ids.len()])?;
    }

    #[test]
    fn sorted_view_numbers_nodes_in_sorted_path_order_on_multigraphs((g, ids) in dense_graph_strategy()) {
        sorted_view_agrees(&g, ids[0], ids[ids.len() - 1])?;
    }

    #[test]
    fn counting_walk_counts_every_simple_path((g, ids) in dense_graph_strategy(), si in 0usize..7, ti in 0usize..7) {
        let s = ids[si % ids.len()];
        let t = ids[ti % ids.len()];
        let count = count_simple_paths(&g, s, t);
        let mut budget = usize::MAX;
        let walked = walk_paths(
            &g, s, t, PathKind::Simple, None, &mut budget, &mut DiscoveryScratch::new(), |_, _| {},
        );
        prop_assert_eq!(walked, Ok(count));
        // The frames it charged are the DFS frames a brute force counts.
        prop_assert_eq!(usize::MAX - budget, brute_force_frames(&g, s, t));
    }

    #[test]
    fn critical_elements_are_really_critical((g, ids) in graph_strategy()) {
        let crit = ict_graph::connectivity::critical_elements(&g);
        let base = ict_graph::connectivity::connected_components(&g).len();
        for e in crit.bridges {
            let mut g2 = g.clone();
            g2.remove_edge(e);
            prop_assert!(ict_graph::connectivity::connected_components(&g2).len() > base);
        }
        for n in crit.articulation_points {
            let mut g2 = g.clone();
            g2.remove_node(n);
            // Removing the node also removes it from the census; critical
            // means the rest splits into more parts than just losing `n`.
            // Removing an articulation point splits its component into at
            // least two, so the total count strictly increases.
            let after = ict_graph::connectivity::connected_components(&g2).len();
            prop_assert!(after > base, "articulation {n:?} did not disconnect");
        }
        let _ = ids;
    }
}
