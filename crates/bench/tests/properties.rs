//! Property-based tests for the experiments' graph analyses on random
//! graphs.

use ict_graph::{Graph, NodeId};
use proptest::prelude::*;
use upsim_bench::connectivity::{connected_components, critical_elements};

/// A random undirected graph on `n` nodes given by an edge list.
fn graph_strategy() -> impl Strategy<Value = Graph<usize, ()>> {
    (2usize..8).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(12)).prop_map(move |pairs| {
            let mut g = Graph::new_undirected();
            let ids: Vec<NodeId> = (0..n).map(|i| g.add_node(i)).collect();
            for (a, b) in pairs {
                if a != b {
                    g.add_edge(ids[a], ids[b], ());
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn critical_elements_are_really_critical(g in graph_strategy()) {
        let crit = critical_elements(&g);
        let base = connected_components(&g).len();
        for e in crit.bridges {
            let mut g2 = g.clone();
            g2.remove_edge(e);
            prop_assert!(connected_components(&g2).len() > base);
        }
        for n in crit.articulation_points {
            let mut g2 = g.clone();
            g2.remove_node(n);
            // Removing the node also removes it from the census; critical
            // means the rest splits into more parts than just losing `n`.
            // Removing an articulation point splits its component into at
            // least two, so the total count strictly increases.
            let after = connected_components(&g2).len();
            prop_assert!(after > base, "articulation {n:?} did not disconnect");
        }
    }
}
