//! Property-based tests for the graph engine: the paper's path-discovery
//! semantics (all simple paths, no livelock) checked against brute force on
//! random graphs.

use ict_graph::paths::{
    all_simple_paths, count_simple_paths, minimal_path_sets, walk_paths, DiscoveryScratch, Path,
    PathKind,
};
use ict_graph::prune::{
    chain_count, chain_order, chain_path_sets, pruned_simple_paths, BlockCutTree, BlockScratch,
    Crossing,
};
use ict_graph::{Graph, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

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

/// One pair's Step 7 as one walk of each kind over the sorted graph masked
/// to the pair's blocks, the walks the block composition replaces: the
/// simple paths, the nodes in the order the counting walk first meets
/// them, the chordless walk's node sets (by node index, each sorted,
/// ordered by length, then members) and the frames both walks pushed.
struct WholeWalk {
    paths: usize,
    order: Vec<NodeId>,
    sets: Vec<Vec<usize>>,
    frames: usize,
}

fn whole_walk(sorted: &Graph<usize, ()>, tree: &BlockCutTree, s: NodeId, t: NodeId) -> WholeWalk {
    let mut mask = Vec::new();
    let mut whole = WholeWalk {
        paths: 0,
        order: Vec::new(),
        sets: Vec::new(),
        frames: 0,
    };
    if tree.relevant_nodes(s, t, &mut mask) == 0 {
        return whole;
    }
    let mut budget = usize::MAX;
    let mut scratch = DiscoveryScratch::new();
    let order = &mut whole.order;
    whole.paths = walk_paths(
        sorted,
        s,
        t,
        PathKind::Simple,
        Some(&mask),
        &mut budget,
        &mut scratch,
        |nodes, _| {
            for node in nodes {
                if !order.contains(node) {
                    order.push(*node);
                }
            }
        },
    )
    .expect("an unbounded budget");
    let sets = &mut whole.sets;
    walk_paths(
        sorted,
        s,
        t,
        PathKind::Chordless,
        Some(&mask),
        &mut budget,
        &mut scratch,
        |nodes, _| {
            let mut set: Vec<usize> = nodes.iter().map(|n| n.index()).collect();
            set.sort_unstable();
            sets.push(set);
        },
    )
    .expect("an unbounded budget");
    whole
        .sets
        .sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    whole.sets.dedup();
    whole.frames = usize::MAX - budget;
    whole
}

/// The crossings of the chain from `s` to `t` on the sorted graph, every
/// block of more than two nodes walked without a budget, or `None` when no
/// path joins them.
fn crossings(
    sorted: &Graph<usize, ()>,
    tree: &BlockCutTree,
    s: NodeId,
    t: NodeId,
) -> Option<Vec<Crossing>> {
    let mut chain = Vec::new();
    if !tree.block_chain(s, t, &mut chain) {
        return None;
    }
    let mut scratch = BlockScratch::default();
    Some(
        chain
            .into_iter()
            .map(|step| {
                tree.links_crossing(step).unwrap_or_else(|| {
                    let walked = tree
                        .walk_block(sorted, step, usize::MAX, &mut scratch)
                        .expect("an unbounded budget");
                    Crossing::Walked(Arc::new(walked))
                })
            })
            .collect(),
    )
}

/// One pair on the sorted graph, as the serving path walks it: the
/// crossings of its chain (`None` when no path joins the two) and its
/// whole walks.
fn composed(g: &Graph<usize, ()>, s: NodeId, t: NodeId) -> (Option<Vec<Crossing>>, WholeWalk) {
    let mut sorted = g.clone();
    sorted.sort_adjacency();
    let tree = BlockCutTree::new(&sorted);
    (
        crossings(&sorted, &tree, s, t),
        whole_walk(&sorted, &tree, s, t),
    )
}

/// The product of the blocks' counts is the simple-path count.
fn counts_multiply(g: &Graph<usize, ()>, s: NodeId, t: NodeId) -> Result<(), TestCaseError> {
    let (chain, whole) = composed(g, s, t);
    let count = chain.map_or(Some(0), |chain| chain_count(&chain));
    prop_assert_eq!(count, Some(count_simple_paths(g, s, t)));
    prop_assert_eq!(count, Some(whole.paths));
    Ok(())
}

/// The product of the blocks' chordless sets is the minimal path sets.
fn chordless_sets_multiply(
    g: &Graph<usize, ()>,
    s: NodeId,
    t: NodeId,
) -> Result<(), TestCaseError> {
    let (Some(chain), whole) = composed(g, s, t) else {
        prop_assert!(minimal_path_sets(g, s, t).is_empty());
        return Ok(());
    };
    if s == t {
        // The trivial path crosses no block.
        prop_assert!(chain.is_empty());
        return Ok(());
    }
    let sets = chain_path_sets(&chain, |n| n.index(), usize::MAX).expect("no cap");
    let minimal: Vec<Vec<usize>> = minimal_path_sets(g, s, t)
        .into_iter()
        .map(|set| set.into_iter().map(|n| n.index()).collect())
        .collect();
    prop_assert_eq!(&sets, &minimal);
    prop_assert_eq!(&sets, &whole.sets);
    Ok(())
}

/// The composed numbering is the whole counting walk's.
fn orders_compose(g: &Graph<usize, ()>, s: NodeId, t: NodeId) -> Result<(), TestCaseError> {
    let (chain, whole) = composed(g, s, t);
    let mut order = Vec::new();
    if s != t {
        chain_order(chain.as_deref().unwrap_or_default(), |n| order.push(n));
    } else if chain.is_some() {
        order.push(s);
    }
    prop_assert_eq!(order, whole.order);
    Ok(())
}

/// The block walks push no more frames than the two whole walks.
fn charge_is_bounded(g: &Graph<usize, ()>, s: NodeId, t: NodeId) -> Result<(), TestCaseError> {
    let (chain, whole) = composed(g, s, t);
    let charged: usize = chain
        .unwrap_or_default()
        .iter()
        .map(|crossing| match crossing {
            Crossing::Links { .. } => 0,
            Crossing::Walked(paths) => paths.frames,
        })
        .sum();
    prop_assert!(
        charged <= whole.frames,
        "block walks charged {} frames, the whole walks {}",
        charged,
        whole.frames
    );
    Ok(())
}

/// Random blocks in series: each block a cycle of 3–5 nodes with random
/// chords, sharing one node with the next, and the node ids shuffled, so
/// that several blocks of more than two nodes lie between the two ends,
/// each met in its own order. Returns the graph and a node of the first
/// block and of the last.
fn block_chain_strategy() -> impl Strategy<Value = (Graph<usize, ()>, NodeId, NodeId)> {
    (
        proptest::collection::vec(
            (
                3usize..6,
                proptest::collection::vec((0usize..5, 0usize..5), 0..3),
            ),
            2..4,
        ),
        proptest::collection::vec(0u32..1000, 16),
        0usize..5,
        0usize..5,
    )
        .prop_map(|(blocks, keys, si, ti)| {
            // Nodes by label, in build order; each block after the first
            // starts from the last node of the one before.
            let mut edges = Vec::new();
            let mut labels = 1;
            let mut first = Vec::new();
            let mut last = Vec::new();
            for (size, chords) in &blocks {
                let nodes: Vec<usize> = std::iter::once(labels - 1)
                    .chain(labels..labels + size - 1)
                    .collect();
                labels += size - 1;
                for i in 0..*size {
                    edges.push((nodes[i], nodes[(i + 1) % size]));
                }
                for &(a, b) in chords {
                    let (a, b) = (nodes[a % size], nodes[b % size]);
                    if a != b {
                        edges.push((a, b));
                    }
                }
                if first.is_empty() {
                    first = nodes.clone();
                }
                last = nodes;
            }
            let mut order: Vec<usize> = (0..labels).collect();
            order.sort_by_key(|&label| (keys[label], label));
            let mut id_of = vec![0; labels];
            let mut g = Graph::new_undirected();
            for &label in &order {
                id_of[label] = g.add_node(label).index();
            }
            let id = |label: usize| NodeId::from_index(id_of[label]);
            for (a, b) in edges {
                g.add_edge(id(a), id(b), ());
            }
            let s = id(first[si % (first.len() - 1)]);
            let t = id(last[1 + ti % (last.len() - 1)]);
            (g, s, t)
        })
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
    fn block_counts_multiply_to_the_simple_path_count((g, ids) in graph_strategy(), si in 0usize..8, ti in 0usize..8) {
        counts_multiply(&g, ids[si % ids.len()], ids[ti % ids.len()])?;
    }

    #[test]
    fn block_counts_multiply_to_the_simple_path_count_on_multigraphs((g, ids) in dense_graph_strategy(), si in 0usize..7, ti in 0usize..7) {
        counts_multiply(&g, ids[si % ids.len()], ids[ti % ids.len()])?;
    }

    #[test]
    fn block_counts_multiply_to_the_simple_path_count_on_block_chains((g, s, t) in block_chain_strategy()) {
        counts_multiply(&g, s, t)?;
    }

    #[test]
    fn block_chordless_sets_multiply_to_the_minimal_path_sets((g, ids) in graph_strategy(), si in 0usize..8, ti in 0usize..8) {
        chordless_sets_multiply(&g, ids[si % ids.len()], ids[ti % ids.len()])?;
    }

    #[test]
    fn block_chordless_sets_multiply_to_the_minimal_path_sets_on_multigraphs((g, ids) in dense_graph_strategy(), si in 0usize..7, ti in 0usize..7) {
        chordless_sets_multiply(&g, ids[si % ids.len()], ids[ti % ids.len()])?;
    }

    #[test]
    fn block_chordless_sets_multiply_to_the_minimal_path_sets_on_block_chains((g, s, t) in block_chain_strategy()) {
        chordless_sets_multiply(&g, s, t)?;
    }

    #[test]
    fn block_orders_compose_the_counting_walks_numbering((g, ids) in graph_strategy(), si in 0usize..8, ti in 0usize..8) {
        orders_compose(&g, ids[si % ids.len()], ids[ti % ids.len()])?;
    }

    #[test]
    fn block_orders_compose_the_counting_walks_numbering_on_multigraphs((g, ids) in dense_graph_strategy(), si in 0usize..7, ti in 0usize..7) {
        orders_compose(&g, ids[si % ids.len()], ids[ti % ids.len()])?;
    }

    #[test]
    fn block_orders_compose_the_counting_walks_numbering_on_block_chains((g, s, t) in block_chain_strategy()) {
        orders_compose(&g, s, t)?;
    }

    #[test]
    fn block_walks_charge_no_more_than_the_whole_walks((g, ids) in graph_strategy(), si in 0usize..8, ti in 0usize..8) {
        charge_is_bounded(&g, ids[si % ids.len()], ids[ti % ids.len()])?;
    }

    #[test]
    fn block_walks_charge_no_more_than_the_whole_walks_on_multigraphs((g, ids) in dense_graph_strategy(), si in 0usize..7, ti in 0usize..7) {
        charge_is_bounded(&g, ids[si % ids.len()], ids[ti % ids.len()])?;
    }

    #[test]
    fn block_walks_charge_no_more_than_the_whole_walks_on_block_chains((g, s, t) in block_chain_strategy()) {
        charge_is_bounded(&g, s, t)?;
    }
}
