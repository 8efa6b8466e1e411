//! Property-based tests for the graph engine: the paper's path-discovery
//! semantics (all simple paths, no livelock) checked against brute force and
//! against the parallel implementation on random graphs.

use ict_graph::parallel::{parallel_simple_paths, ParallelOptions};
use ict_graph::paths::{
    all_simple_paths, for_each_simple_path, minimal_path_sets, DiscoveryScratch, Path, PathLimits,
};
use ict_graph::prune::pruned_simple_paths;
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

/// The unmasked kernel's paths under `limits`, in emission order.
fn kernel_paths(g: &Graph<usize, ()>, s: NodeId, t: NodeId, limits: PathLimits) -> Vec<Path> {
    let mut out = Vec::new();
    let mut scratch = DiscoveryScratch::new();
    for_each_simple_path(g, s, t, limits, None, &mut scratch, |nodes, edges| {
        out.push(Path {
            nodes: nodes.to_vec(),
            edges: edges.to_vec(),
        })
    });
    out
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
    fn limits_filter_then_truncate_the_brute_force_order(
        (g, ids) in graph_strategy(),
        max_nodes in 1usize..9,
        max_paths in 0usize..12,
        which in 0u8..3,
    ) {
        // `max_nodes` drops longer paths without reordering the rest, and
        // `max_paths` keeps the first paths of what is left.
        let s = ids[0];
        let t = ids[ids.len() - 1];
        let limits = PathLimits {
            max_nodes: (which != 1).then_some(max_nodes),
            max_paths: (which != 0).then_some(max_paths),
        };
        let want: Vec<Path> = brute_force_paths(&g, s, t)
            .into_iter()
            .filter(|p| limits.max_nodes.is_none_or(|max| p.nodes.len() <= max))
            .take(limits.max_paths.unwrap_or(usize::MAX))
            .collect();
        prop_assert_eq!(kernel_paths(&g, s, t, limits), want, "limits {:?}", limits);
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
    fn parallel_equals_sequential((g, ids) in graph_strategy(), threads in 1usize..5) {
        let s = ids[0];
        let t = ids[ids.len() - 1];
        let mut seq = all_simple_paths(&g, s, t);
        seq.sort();
        let par = parallel_simple_paths(&g, s, t, ParallelOptions { threads, ..Default::default() });
        prop_assert_eq!(par, seq);
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
        let mut pruned = pruned_simple_paths(&g, s, t, PathLimits::unlimited());
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
        let pruned = pruned_simple_paths(&g, s, t, PathLimits::unlimited());
        prop_assert_eq!(pruned, unpruned);
    }

    #[test]
    fn pruned_capped_is_a_dfs_prefix((g, ids) in graph_strategy(), cap in 0usize..6) {
        // Pruning never reorders the DFS, so a capped pruned run returns
        // exactly the first `cap` paths of the unpruned enumeration.
        let s = ids[0];
        let t = ids[ids.len() - 1];
        let all = all_simple_paths(&g, s, t);
        let capped = pruned_simple_paths(&g, s, t, PathLimits::unlimited().with_max_paths(cap));
        let want = &all[..cap.min(all.len())];
        prop_assert_eq!(capped.as_slice(), want);
    }

    #[test]
    fn parallel_capped_preserves_cap_semantics((g, ids) in dense_graph_strategy(), cap in 1usize..9, threads in 1usize..4) {
        let s = ids[0];
        let t = ids[ids.len() - 1];
        let full = all_simple_paths(&g, s, t);
        let capped = parallel_simple_paths(&g, s, t, ParallelOptions {
            threads,
            limits: PathLimits::unlimited().with_max_paths(cap),
            ..Default::default()
        });
        // Deterministic count, sorted distinct output, and every returned
        // path is a genuine member of the full enumeration.
        prop_assert_eq!(capped.len(), cap.min(full.len()));
        for w in capped.windows(2) {
            prop_assert!(w[0] < w[1], "output must be sorted and duplicate-free");
        }
        let universe: std::collections::HashSet<_> = full.into_iter().collect();
        for p in &capped {
            prop_assert!(p.validate(&g));
            prop_assert!(universe.contains(p));
        }
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
