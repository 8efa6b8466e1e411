//! Connectivity analysis: components, bridges, articulation points.
//!
//! Bridges and articulation points are the single points of failure of an
//! infrastructure — the UPSIM outlook (paper Sec. VII) motivates exactly this
//! kind of "where can the service problem be caused" analysis.

use ict_graph::graph::{EdgeId, Graph, NodeId};

/// Partitions live nodes into connected components (edge direction ignored).
pub fn connected_components<N, E>(graph: &Graph<N, E>) -> Vec<Vec<NodeId>> {
    let cap = graph.node_capacity();
    let mut comp = vec![usize::MAX; cap];
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for start in graph.node_ids() {
        if comp[start.index()] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        let mut stack = vec![start];
        comp[start.index()] = id;
        while let Some(n) = stack.pop() {
            members.push(n);
            for adj in graph.neighbors(n).chain(graph.in_neighbors(n)) {
                if comp[adj.node.index()] == usize::MAX {
                    comp[adj.node.index()] = id;
                    stack.push(adj.node);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components
}

/// `true` if all live nodes are in one component (empty graphs count as
/// connected).
pub fn is_connected<N, E>(graph: &Graph<N, E>) -> bool {
    connected_components(graph).len() <= 1
}

/// Result of the bridge/articulation analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalElements {
    /// Edges whose removal disconnects their component.
    pub bridges: Vec<EdgeId>,
    /// Nodes whose removal disconnects their component.
    pub articulation_points: Vec<NodeId>,
}

/// Finds bridges and articulation points with an iterative Tarjan low-link
/// DFS (iterative so deep tree-like campus topologies cannot overflow the
/// call stack). Parallel edges between the same pair are handled: such a
/// pair never forms a bridge.
pub fn critical_elements<N, E>(graph: &Graph<N, E>) -> CriticalElements {
    let cap = graph.node_capacity();
    let mut disc = vec![0u32; cap];
    let mut low = vec![0u32; cap];
    let mut visited = vec![false; cap];
    let mut timer = 1u32;
    let mut bridges = Vec::new();
    let mut artics = vec![false; cap];

    // Explicit DFS frame: node, edge used to enter (None for roots),
    // adjacency snapshot, cursor, number of DFS children (for root rule).
    struct Frame {
        node: NodeId,
        entry_edge: Option<EdgeId>,
        adj: Vec<ict_graph::graph::Adjacency>,
        cursor: usize,
        children: u32,
    }

    for root in graph.node_ids() {
        if visited[root.index()] {
            continue;
        }
        visited[root.index()] = true;
        disc[root.index()] = timer;
        low[root.index()] = timer;
        timer += 1;
        let mut stack = vec![Frame {
            node: root,
            entry_edge: None,
            adj: graph.neighbors(root).collect(),
            cursor: 0,
            children: 0,
        }];
        while let Some(frame) = stack.last_mut() {
            if frame.cursor < frame.adj.len() {
                let adj = frame.adj[frame.cursor];
                frame.cursor += 1;
                if Some(adj.edge) == frame.entry_edge {
                    continue; // don't traverse the entry edge backwards
                }
                if visited[adj.node.index()] {
                    // Back edge (or parallel edge to parent — treated as a
                    // back edge, which correctly prevents bridge marking).
                    let node_idx = frame.node.index();
                    low[node_idx] = low[node_idx].min(disc[adj.node.index()]);
                } else {
                    visited[adj.node.index()] = true;
                    disc[adj.node.index()] = timer;
                    low[adj.node.index()] = timer;
                    timer += 1;
                    frame.children += 1;
                    let child = adj.node;
                    stack.push(Frame {
                        node: child,
                        entry_edge: Some(adj.edge),
                        adj: graph.neighbors(child).collect(),
                        cursor: 0,
                        children: 0,
                    });
                }
            } else {
                // Finished `frame.node`: propagate low-link to parent.
                let finished = stack.pop().expect("frame exists");
                if let Some(parent_frame) = stack.last() {
                    let p = parent_frame.node.index();
                    let f = finished.node.index();
                    let parent_is_root = stack.len() == 1;
                    low[p] = low[p].min(low[f]);
                    if low[f] > disc[p] {
                        bridges.push(finished.entry_edge.expect("non-root has entry edge"));
                    }
                    if !parent_is_root && low[f] >= disc[p] {
                        artics[p] = true;
                    }
                } else if finished.children >= 2 {
                    artics[finished.node.index()] = true; // root rule
                }
            }
        }
    }

    let articulation_points = graph.node_ids().filter(|n| artics[n.index()]).collect();
    bridges.sort_unstable();
    CriticalElements {
        bridges,
        articulation_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ict_graph::graph::Graph;

    #[test]
    fn components_of_two_islands() {
        let mut g: Graph<u32, ()> = Graph::new_undirected();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        g.add_edge(a, b, ());
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![a, b]));
        assert!(comps.contains(&vec![c]));
        assert!(!is_connected(&g));
    }

    #[test]
    fn chain_is_all_bridges_and_inner_articulations() {
        let mut g: Graph<u32, ()> = Graph::new_undirected();
        let ids: Vec<_> = (0..4).map(|i| g.add_node(i)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        let crit = critical_elements(&g);
        assert_eq!(crit.bridges.len(), 3);
        assert_eq!(crit.articulation_points, vec![ids[1], ids[2]]);
    }

    #[test]
    fn cycle_has_no_critical_elements() {
        let mut g: Graph<u32, ()> = Graph::new_undirected();
        let ids: Vec<_> = (0..5).map(|i| g.add_node(i)).collect();
        for i in 0..5 {
            g.add_edge(ids[i], ids[(i + 1) % 5], ());
        }
        let crit = critical_elements(&g);
        assert!(crit.bridges.is_empty());
        assert!(crit.articulation_points.is_empty());
    }

    #[test]
    fn parallel_edges_are_never_bridges() {
        let mut g: Graph<u32, ()> = Graph::new_undirected();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        g.add_edge(a, b, ());
        g.add_edge(a, b, ()); // redundant link
        g.add_edge(b, c, ());
        let crit = critical_elements(&g);
        assert_eq!(crit.bridges.len(), 1);
        assert_eq!(g.endpoints(crit.bridges[0]), Some((b, c)));
        assert_eq!(crit.articulation_points, vec![b]);
    }

    #[test]
    fn barbell_center_is_articulation() {
        // triangle - x - triangle
        let mut g: Graph<u32, ()> = Graph::new_undirected();
        let ids: Vec<_> = (0..7).map(|i| g.add_node(i)).collect();
        for (i, j) in [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 4)] {
            g.add_edge(ids[i], ids[j], ());
        }
        g.add_edge(ids[2], ids[3], ());
        g.add_edge(ids[3], ids[4], ());
        let crit = critical_elements(&g);
        assert_eq!(crit.bridges.len(), 2);
        assert_eq!(crit.articulation_points, vec![ids[2], ids[3], ids[4]]);
    }

    #[test]
    fn disconnected_graph_handles_multiple_roots() {
        let mut g: Graph<u32, ()> = Graph::new_undirected();
        let a = g.add_node(0);
        let b = g.add_node(1);
        let c = g.add_node(2);
        let d = g.add_node(3);
        g.add_edge(a, b, ());
        g.add_edge(c, d, ());
        let crit = critical_elements(&g);
        assert_eq!(crit.bridges.len(), 2);
        assert!(crit.articulation_points.is_empty());
    }
}
