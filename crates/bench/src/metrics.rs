//! Structural graph statistics used by the experiment reports.

use ict_graph::graph::{Graph, NodeId};
use ict_graph::traversal::Bfs;

/// Summary statistics of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Live node count.
    pub nodes: usize,
    /// Live edge count.
    pub edges: usize,
    /// Minimum degree over live nodes (0 for the empty graph).
    pub min_degree: usize,
    /// Maximum degree over live nodes.
    pub max_degree: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Edge density `2m / (n (n-1))` for undirected graphs
    /// (`m / (n (n-1))` for directed).
    pub density: f64,
    /// Number of connected components.
    pub components: usize,
    /// Longest shortest-path (hops) within any component; `None` if empty.
    pub diameter: Option<usize>,
}

/// Computes [`GraphMetrics`]. Diameter is exact (`O(n·m)` all-source BFS),
/// fine for model-scale graphs.
pub fn metrics<N, E>(graph: &Graph<N, E>) -> GraphMetrics {
    let n = graph.node_count();
    let m = graph.edge_count();
    let degrees: Vec<usize> = graph.node_ids().map(|id| graph.degree(id)).collect();
    let min_degree = degrees.iter().copied().min().unwrap_or(0);
    let max_degree = degrees.iter().copied().max().unwrap_or(0);
    let mean_degree = if n == 0 {
        0.0
    } else {
        degrees.iter().sum::<usize>() as f64 / n as f64
    };
    let density = if n < 2 {
        0.0
    } else {
        let pairs = (n * (n - 1)) as f64;
        if graph.is_directed() {
            m as f64 / pairs
        } else {
            2.0 * m as f64 / pairs
        }
    };
    let components = crate::connectivity::connected_components(graph).len();
    let diameter = diameter(graph);
    GraphMetrics {
        nodes: n,
        edges: m,
        min_degree,
        max_degree,
        mean_degree,
        density,
        components,
        diameter,
    }
}

/// Eccentricity of `start`: hops to the farthest reachable node.
pub fn eccentricity<N, E>(graph: &Graph<N, E>, start: NodeId) -> usize {
    let mut depth = vec![usize::MAX; graph.node_capacity()];
    depth[start.index()] = 0;
    let mut bfs = Bfs::new(graph, start);
    let mut max = 0;
    while let Some(node) = bfs.next(graph) {
        let d = depth[node.index()];
        max = max.max(d);
        for adj in graph.neighbors(node) {
            if depth[adj.node.index()] == usize::MAX {
                depth[adj.node.index()] = d + 1;
            }
        }
    }
    max
}

/// Exact diameter over all components (max eccentricity); `None` for the
/// empty graph.
pub fn diameter<N, E>(graph: &Graph<N, E>) -> Option<usize> {
    graph.node_ids().map(|n| eccentricity(graph, n)).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ict_graph::graph::Graph;

    #[test]
    fn metrics_of_chain() {
        let mut g: Graph<u32, ()> = Graph::new_undirected();
        let ids: Vec<_> = (0..4).map(|i| g.add_node(i)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        let m = metrics(&g);
        assert_eq!(m.nodes, 4);
        assert_eq!(m.edges, 3);
        assert_eq!(m.min_degree, 1);
        assert_eq!(m.max_degree, 2);
        assert_eq!(m.components, 1);
        assert_eq!(m.diameter, Some(3));
        assert!((m.density - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metrics_of_empty_graph() {
        let g: Graph<(), ()> = Graph::new_undirected();
        let m = metrics(&g);
        assert_eq!(m.nodes, 0);
        assert_eq!(m.diameter, None);
        assert_eq!(m.components, 0);
    }

    #[test]
    fn eccentricity_of_star_center_vs_leaf() {
        let mut g: Graph<u32, ()> = Graph::new_undirected();
        let center = g.add_node(0);
        let leaves: Vec<_> = (1..5).map(|i| g.add_node(i)).collect();
        for &l in &leaves {
            g.add_edge(center, l, ());
        }
        assert_eq!(eccentricity(&g, center), 1);
        assert_eq!(eccentricity(&g, leaves[0]), 2);
        assert_eq!(diameter(&g), Some(2));
    }

    #[test]
    fn diameter_of_disconnected_is_max_of_components() {
        let mut g: Graph<u32, ()> = Graph::new_undirected();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        g.add_edge(a, b, ());
        let _ = c;
        assert_eq!(diameter(&g), Some(1));
    }
}
