//! Bottleneck-capacity (widest-path) analysis.
//!
//! The paper's network profile attaches a `throughput` attribute to every
//! communication link (Fig. 7) and names performability among the
//! user-perceived properties the UPSIM enables (Sec. VII). The classic
//! graph question behind that is the **widest path**: the route maximizing
//! the minimum link capacity, and the **maximum bottleneck capacity**
//! between requester and provider.

use ict_graph::graph::{EdgeId, Graph, NodeId};
use ict_graph::Path;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(PartialEq)]
struct HeapItem {
    width: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on width; ties broken on node id for determinism.
        self.width
            .partial_cmp(&other.width)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Finds the widest path from `source` to `target` under a non-negative
/// edge capacity function: the path maximizing the minimum edge capacity.
/// Returns the path and its bottleneck capacity, or `None` if unreachable.
///
/// Dijkstra-variant with max-min relaxation; `O((n + m) log n)`.
pub fn widest_path<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    capacity: impl Fn(EdgeId) -> f64,
) -> Option<(Path, f64)> {
    if !graph.contains_node(source) || !graph.contains_node(target) {
        return None;
    }
    if source == target {
        return Some((
            Path {
                nodes: vec![source],
                edges: vec![],
            },
            f64::INFINITY,
        ));
    }
    let cap = graph.node_capacity();
    let mut best = vec![0.0f64; cap];
    let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; cap];
    let mut settled = vec![false; cap];
    let mut heap = BinaryHeap::new();
    best[source.index()] = f64::INFINITY;
    heap.push(HeapItem {
        width: f64::INFINITY,
        node: source,
    });

    while let Some(HeapItem { width, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        if node == target {
            break;
        }
        for adj in graph.neighbors(node) {
            if settled[adj.node.index()] {
                continue;
            }
            let c = capacity(adj.edge);
            debug_assert!(c >= 0.0, "capacities must be non-negative");
            let through = width.min(c);
            if through > best[adj.node.index()] {
                best[adj.node.index()] = through;
                prev[adj.node.index()] = Some((node, adj.edge));
                heap.push(HeapItem {
                    width: through,
                    node: adj.node,
                });
            }
        }
    }

    if best[target.index()] <= 0.0 {
        return None;
    }
    let mut nodes = vec![target];
    let mut edges = Vec::new();
    let mut cur = target;
    while cur != source {
        let (p, e) = prev[cur.index()].expect("predecessor chain complete");
        nodes.push(p);
        edges.push(e);
        cur = p;
    }
    nodes.reverse();
    edges.reverse();
    Some((Path { nodes, edges }, best[target.index()]))
}

/// The **max-flow** capacity between two terminals under real-valued edge
/// capacities — the aggregate throughput the infrastructure could carry if
/// traffic may split across routes. Edmonds–Karp on the undirected/directed
/// residual network.
pub fn max_flow_capacity<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    target: NodeId,
    capacity: impl Fn(EdgeId) -> f64,
) -> f64 {
    if source == target || !graph.contains_node(source) || !graph.contains_node(target) {
        return 0.0;
    }
    let ecap = graph.edge_capacity();
    let mut residual = vec![[0.0f64; 2]; ecap];
    for (e, _, _, _) in graph.edges() {
        let c = capacity(e);
        residual[e.index()][0] = c;
        residual[e.index()][1] = if graph.is_directed() { 0.0 } else { c };
    }
    let mut flow = 0.0;
    loop {
        // BFS for any augmenting path.
        let mut prev: Vec<Option<(NodeId, EdgeId, usize)>> = vec![None; graph.node_capacity()];
        let mut visited = vec![false; graph.node_capacity()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source);
        visited[source.index()] = true;
        'bfs: while let Some(n) = queue.pop_front() {
            for (e, s, t, _) in graph.edges() {
                let (next, dir) = if s == n {
                    (t, 0usize)
                } else if t == n {
                    (s, 1usize)
                } else {
                    continue;
                };
                if visited[next.index()] || residual[e.index()][dir] <= 1e-12 {
                    continue;
                }
                visited[next.index()] = true;
                prev[next.index()] = Some((n, e, dir));
                if next == target {
                    break 'bfs;
                }
                queue.push_back(next);
            }
        }
        if !visited[target.index()] {
            return flow;
        }
        // Bottleneck along the path.
        let mut bottleneck = f64::INFINITY;
        let mut cur = target;
        while cur != source {
            let (p, e, dir) = prev[cur.index()].expect("path recorded");
            bottleneck = bottleneck.min(residual[e.index()][dir]);
            cur = p;
        }
        let mut cur = target;
        while cur != source {
            let (p, e, dir) = prev[cur.index()].expect("path recorded");
            residual[e.index()][dir] -= bottleneck;
            residual[e.index()][1 - dir] += bottleneck;
            cur = p;
        }
        flow += bottleneck;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ict_graph::graph::Graph;

    /// s -(10)- a -(1)- t   and   s -(3)- b -(3)- t
    fn net() -> (Graph<&'static str, f64>, [NodeId; 4]) {
        let mut g = Graph::new_undirected();
        let s = g.add_node("s");
        let a = g.add_node("a");
        let b = g.add_node("b");
        let t = g.add_node("t");
        g.add_edge(s, a, 10.0);
        g.add_edge(a, t, 1.0);
        g.add_edge(s, b, 3.0);
        g.add_edge(b, t, 3.0);
        (g, [s, a, b, t])
    }

    #[test]
    fn widest_path_prefers_bottleneck_over_hops() {
        let (g, [s, _, b, t]) = net();
        let cap = |e: EdgeId| *g.edge(e).unwrap();
        let (path, width) = widest_path(&g, s, t, cap).unwrap();
        assert_eq!(path.nodes, vec![s, b, t], "3-wide route beats 1-wide route");
        assert!((width - 3.0).abs() < 1e-12);
        assert!(path.validate(&g));
    }

    #[test]
    fn widest_path_trivial_and_unreachable() {
        let (g, [s, ..]) = net();
        let (p, w) = widest_path(&g, s, s, |_| 1.0).unwrap();
        assert!(p.is_empty());
        assert!(w.is_infinite());

        let mut g2: Graph<(), f64> = Graph::new_undirected();
        let x = g2.add_node(());
        let y = g2.add_node(());
        assert!(widest_path(&g2, x, y, |_| 1.0).is_none());
    }

    #[test]
    fn zero_capacity_edges_block() {
        let mut g: Graph<(), f64> = Graph::new_undirected();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, 0.0);
        assert!(widest_path(&g, s, t, |e| *g.edge(e).unwrap()).is_none());
    }

    #[test]
    fn max_flow_sums_disjoint_routes() {
        let (g, [s, _, _, t]) = net();
        let cap = |e: EdgeId| *g.edge(e).unwrap();
        // route via a carries min(10,1)=1, via b carries 3 → total 4.
        let flow = max_flow_capacity(&g, s, t, cap);
        assert!((flow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn max_flow_chain_is_bottleneck() {
        let mut g: Graph<(), f64> = Graph::new_undirected();
        let ids: Vec<_> = (0..3).map(|_| g.add_node(())).collect();
        g.add_edge(ids[0], ids[1], 7.0);
        g.add_edge(ids[1], ids[2], 2.0);
        let flow = max_flow_capacity(&g, ids[0], ids[2], |e| *g.edge(e).unwrap());
        assert!((flow - 2.0).abs() < 1e-12);
    }

    #[test]
    fn max_flow_at_least_widest_path() {
        let (g, [s, _, _, t]) = net();
        let cap = |e: EdgeId| *g.edge(e).unwrap();
        let (_, width) = widest_path(&g, s, t, cap).unwrap();
        let flow = max_flow_capacity(&g, s, t, cap);
        assert!(flow >= width - 1e-12);
    }
}
