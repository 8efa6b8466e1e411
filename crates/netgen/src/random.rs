//! Classic topology families for stress and complexity experiments.
//!
//! The complete graphs realize the paper's `O(n!)` worst case for path
//! discovery (Sec. V-D: "the time complexity of the algorithm is even more
//! sensitive to the number of edges, reaching O(n!) for a fully
//! interconnected graph"); rings, grids and Erdős–Rényi graphs fill the
//! space between tree-like campus networks and that worst case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use upsim_core::infrastructure::{DeviceClassSpec, Infrastructure};

fn base(name: &str) -> Infrastructure {
    let mut infra = Infrastructure::new(name);
    infra
        .define_device_class(DeviceClassSpec::switch("Node", 100_000.0, 0.5))
        .expect("static class");
    infra
}

fn add_nodes(infra: &mut Infrastructure, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let name = format!("n{i}");
            infra.add_device(&name, "Node").expect("unique");
            name
        })
        .collect()
}

/// Complete graph `K_n`: every pair connected.
pub fn complete(n: usize) -> Infrastructure {
    let mut infra = base("complete");
    let names = add_nodes(&mut infra, n);
    for i in 0..n {
        for j in (i + 1)..n {
            infra.connect(&names[i], &names[j]).expect("live");
        }
    }
    infra
}

/// Ring of `n` nodes.
pub fn ring(n: usize) -> Infrastructure {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut infra = base("ring");
    let names = add_nodes(&mut infra, n);
    for i in 0..n {
        infra.connect(&names[i], &names[(i + 1) % n]).expect("live");
    }
    infra
}

/// `w × h` grid (4-neighbour).
pub fn grid(w: usize, h: usize) -> Infrastructure {
    let mut infra = base("grid");
    let mut names = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            let name = format!("g{x}_{y}");
            infra.add_device(&name, "Node").expect("unique");
            names.push(name);
        }
    }
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                infra
                    .connect(&names[y * w + x], &names[y * w + x + 1])
                    .expect("live");
            }
            if y + 1 < h {
                infra
                    .connect(&names[y * w + x], &names[(y + 1) * w + x])
                    .expect("live");
            }
        }
    }
    infra
}

/// A simplified three-layer fat tree with parameter `k` (even, ≥ 2):
/// `(k/2)²` core switches, `k` pods of `k/2` aggregation + `k/2` edge
/// switches, `k/2` hosts per edge switch. Every aggregation switch of a
/// pod connects to `k/2` cores (its column), every edge switch to every
/// aggregation switch of its pod — the classic data-center topology and
/// the densest "realistic" shape in the scaling experiments.
pub fn fat_tree(k: usize) -> Infrastructure {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree parameter must be even and >= 2"
    );
    let half = k / 2;
    let mut infra = base("fat-tree");
    infra
        .define_device_class(DeviceClassSpec::server("Host", 60_000.0, 0.1))
        .expect("static class");

    // Core grid: half × half.
    for i in 0..half * half {
        infra
            .add_device(format!("core{i}"), "Node")
            .expect("unique");
    }
    for pod in 0..k {
        for a in 0..half {
            let agg = format!("agg{pod}_{a}");
            infra.add_device(&agg, "Node").expect("unique");
            // Column a of the core grid.
            for c in 0..half {
                infra
                    .connect(&agg, &format!("core{}", a * half + c))
                    .expect("live");
            }
        }
        for e in 0..half {
            let edge = format!("edge{pod}_{e}");
            infra.add_device(&edge, "Node").expect("unique");
            for a in 0..half {
                infra
                    .connect(&edge, &format!("agg{pod}_{a}"))
                    .expect("live");
            }
            for h in 0..half {
                let host = format!("host{pod}_{e}_{h}");
                infra.add_device(&host, "Host").expect("unique");
                infra.connect(&host, &edge).expect("live");
            }
        }
    }
    infra
}

/// Erdős–Rényi `G(n, p)` with a deterministic seed; a spanning chain is
/// added first so the graph is always connected (disconnected pairs are a
/// separate, explicitly-tested case).
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Infrastructure {
    let mut infra = base("gnp");
    let names = add_nodes(&mut infra, n);
    for i in 1..n {
        infra.connect(&names[i - 1], &names[i]).expect("live");
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        for j in (i + 2)..n {
            // skip chain edges (i, i+1)
            if rng.random_bool(p.clamp(0.0, 1.0)) {
                infra.connect(&names[i], &names[j]).expect("live");
            }
        }
    }
    infra
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsim_core::discovery::discover;
    use upsim_core::mapping::ServiceMappingPair;

    #[test]
    fn complete_graph_counts() {
        let infra = complete(5);
        assert_eq!(infra.device_count(), 5);
        assert_eq!(infra.link_count(), 10);
        infra.validate().unwrap();
    }

    #[test]
    fn complete_graph_path_explosion_matches_formula() {
        // #paths in K_n between fixed endpoints: sum_k (n-2)!/(n-2-k)!
        let infra = complete(6);
        let d = discover(&infra, &ServiceMappingPair::new("s", "n0", "n5")).unwrap();
        assert_eq!(d.len(), 65); // 1 + 4 + 12 + 24 + 24
    }

    #[test]
    fn ring_has_two_paths_between_any_pair() {
        let infra = ring(8);
        assert_eq!(infra.link_count(), 8);
        let d = discover(&infra, &ServiceMappingPair::new("s", "n0", "n4")).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn grid_shape() {
        let infra = grid(3, 4);
        assert_eq!(infra.device_count(), 12);
        assert_eq!(infra.link_count(), 3 * 3 + 2 * 4); // vertical + horizontal
        infra.validate().unwrap();
    }

    #[test]
    fn fat_tree_shape_and_redundancy() {
        let k = 4;
        let infra = fat_tree(k);
        infra.validate().unwrap();
        let half = k / 2;
        // (k/2)² cores + k pods × (k/2 agg + k/2 edge + (k/2)² hosts)
        let expected = half * half + k * (half + half + half * half);
        assert_eq!(infra.device_count(), expected);
        let (g, index) = infra.to_graph();
        assert!(ict_graph::connectivity::is_connected(&g));
        // Inter-pod host pairs enjoy k/2-way disjoint routing... limited by
        // the single host uplink: exactly 1 disjoint path from a host, but
        // edge-to-edge across pods has k/2 = 2.
        let d = ict_graph::disjoint::max_disjoint_paths(&g, index["edge0_0"], index["edge1_0"]);
        assert_eq!(d, half);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_fat_tree_rejected() {
        fat_tree(3);
    }

    #[test]
    fn erdos_renyi_is_connected_and_deterministic() {
        let a = erdos_renyi(20, 0.1, 42);
        let b = erdos_renyi(20, 0.1, 42);
        assert_eq!(a.link_count(), b.link_count());
        assert!(a.link_count() >= 19, "spanning chain present");
        let (g, _) = a.to_graph();
        assert!(ict_graph::connectivity::is_connected(&g));
    }

    #[test]
    fn erdos_renyi_density_scales_with_p() {
        let sparse = erdos_renyi(30, 0.02, 7);
        let dense = erdos_renyi(30, 0.5, 7);
        assert!(dense.link_count() > sparse.link_count());
    }
}
