//! Path discovery per service mapping pair — methodology Step 7.
//!
//! Paper Sec. V-D: *"For every service mapping pair, the algorithm
//! discovers a set of paths between the respective requester and provider,
//! and stores the visited entities in a reserved tree structure inside the
//! model space. [...] We chose to implement a depth-first search (DFS)
//! algorithm with a path tracking mechanism to avoid live-locks within
//! cycles."*
//!
//! The DFS itself lives in `ict_graph::paths`. This module binds it to the
//! methodology: resolve the pair against the infrastructure, mask the
//! search to the blocks between requester and provider
//! (`ict_graph::prune`), enumerate on the caller's reused
//! [`DiscoveryWorkspace`], keep the paths interned, and optionally record
//! them in the model space (the paper's "reserved tree structure"). The
//! paths come out in DFS order. [`DiscoveryOptions::parallel`] switches to
//! `ict_graph::parallel`, which finds the same paths sorted; the server
//! and the pipeline's callers run the sequential DFS, and
//! `upsim paths --parallel` the parallel one.

use crate::error::{UpsimError, UpsimResult};
use crate::importers::PATHS_NS;
use crate::infrastructure::Infrastructure;
use crate::interned::{InternedGraph, NameTable};
use crate::mapping::ServiceMappingPair;
use ict_graph::parallel::{parallel_simple_paths_pruned, ParallelOptions};
use ict_graph::paths::{for_each_simple_path, DiscoveryScratch, PathLimits};
use std::sync::Arc;
use vpm::ModelSpace;

/// Options for Step 7. The default is the sequential DFS, unlimited.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscoveryOptions {
    /// Use the parallel enumerator (crossbeam prefix fan-out; lists the
    /// same paths sorted instead of in DFS order).
    pub parallel: bool,
    /// Worker threads for the parallel enumerator (0 = all cores).
    pub threads: usize,
    /// Path limits (both enumerators).
    pub limits: PathLimits,
}

/// Reusable per-worker buffers for repeated discovery calls: the DFS
/// scratch (on-path bitset, stack, path buffers) and the pruning mask.
/// A warm sweep over many pairs allocates nothing once these reach their
/// high-water mark.
#[derive(Debug, Default)]
pub struct DiscoveryWorkspace {
    scratch: DiscoveryScratch,
    mask: Vec<bool>,
}

/// The Step 7 output for one mapping pair.
///
/// Paths are stored interned — `u32` device ids into a shared
/// [`NameTable`] — so producing them clones no strings; accessors resolve
/// names on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredPaths {
    /// The mapping pair the paths belong to.
    pub pair: ServiceMappingPair,
    /// The name table the interned paths point into.
    names: Arc<NameTable>,
    /// Interned node-id sequences, requester first, provider last.
    node_paths: Vec<Vec<u32>>,
    /// Link-index sequences (indices into the infrastructure's
    /// `objects.links`), aligned with the node paths.
    pub link_paths: Vec<Vec<usize>>,
}

impl DiscoveredPaths {
    /// Number of discovered paths.
    pub fn len(&self) -> usize {
        self.node_paths.len()
    }

    /// `true` if no path connects the pair.
    pub fn is_empty(&self) -> bool {
        self.node_paths.is_empty()
    }

    /// The interned node paths (ids into [`DiscoveredPaths::name_table`]).
    pub fn interned(&self) -> &[Vec<u32>] {
        &self.node_paths
    }

    /// The shared name table behind the interned ids.
    pub fn name_table(&self) -> &Arc<NameTable> {
        &self.names
    }

    /// Resolves one interned id to its device name.
    pub fn name(&self, id: u32) -> &str {
        self.names.name(id)
    }

    /// The device names of path `i`, requester first.
    pub fn path_names(&self, i: usize) -> impl Iterator<Item = &str> + '_ {
        self.node_paths[i].iter().map(|&id| self.names.name(id))
    }

    /// Materializes all paths as owned name sequences (compatibility /
    /// test convenience — the hot paths stay interned).
    pub fn named_paths(&self) -> Vec<Vec<String>> {
        self.node_paths
            .iter()
            .map(|p| {
                p.iter()
                    .map(|&id| self.names.name(id).to_string())
                    .collect()
            })
            .collect()
    }

    /// All distinct component names on any path (insertion order of first
    /// occurrence — "multiple occurrences are ignored", Sec. VI-H).
    pub fn components(&self) -> Vec<&str> {
        // Order-preserving dedup on the interned ids: a hash-set membership
        // test per node instead of the former `Vec::contains` linear scan
        // (quadratic over large UPSIMs).
        let mut seen = std::collections::HashSet::new();
        let mut out: Vec<&str> = Vec::new();
        for path in &self.node_paths {
            for &id in path {
                if seen.insert(id) {
                    out.push(self.names.name(id));
                }
            }
        }
        out
    }

    /// Renders path `i` the way the paper prints them:
    /// `t1—e1—d1—c1—d4—printS`.
    pub fn render_path_at(&self, i: usize) -> String {
        let mut out = String::new();
        for (k, name) in self.path_names(i).enumerate() {
            if k > 0 {
                out.push('\u{2014}');
            }
            out.push_str(name);
        }
        out
    }

    /// Renders a materialized path the way the paper prints them:
    /// `t1—e1—d1—c1—d4—printS`.
    pub fn render_path(path: &[String]) -> String {
        path.join("\u{2014}")
    }
}

/// Discovers all simple paths for one mapping pair on a pre-built interned
/// graph view (see [`Infrastructure::to_interned_graph`]), allocating a
/// fresh workspace. Warm sweeps should hold a [`DiscoveryWorkspace`] and
/// call [`discover_with_workspace`] instead.
pub fn discover_on_graph(
    view: &InternedGraph,
    pair: &ServiceMappingPair,
    options: DiscoveryOptions,
) -> UpsimResult<DiscoveredPaths> {
    let mut workspace = DiscoveryWorkspace::default();
    discover_with_workspace(view, pair, options, &mut workspace)
}

/// [`discover_on_graph`] with caller-owned scratch buffers: repeated calls
/// reuse the DFS stack, on-path bitset and pruning mask across pairs.
pub fn discover_with_workspace(
    view: &InternedGraph,
    pair: &ServiceMappingPair,
    options: DiscoveryOptions,
    workspace: &mut DiscoveryWorkspace,
) -> UpsimResult<DiscoveredPaths> {
    let resolve = |role: &'static str, name: &str| {
        view.node_of(name)
            .ok_or_else(|| UpsimError::UnknownComponent {
                atomic_service: pair.atomic_service.clone(),
                role,
                component: name.to_string(),
            })
    };
    let source = resolve("requester", &pair.requester)?;
    let target = resolve("provider", &pair.provider)?;
    let graph = view.graph();

    let mut node_paths: Vec<Vec<u32>> = Vec::new();
    let mut link_paths: Vec<Vec<usize>> = Vec::new();

    // Pruning: mask the DFS to the union of blocks on the block-cut-tree
    // path between source and target — exactly the nodes that can lie on
    // some simple path (so the enumeration is unchanged, just cheaper).
    let relevant = view
        .tree()
        .relevant_nodes(source, target, &mut workspace.mask);
    if relevant == 0 {
        // Different connected components: provably no path.
        return Ok(DiscoveredPaths {
            pair: pair.clone(),
            names: Arc::clone(view.names()),
            node_paths,
            link_paths,
        });
    }
    let mask = Some(workspace.mask.as_slice());

    if options.parallel {
        let (raw, _) = parallel_simple_paths_pruned(
            graph,
            source,
            target,
            ParallelOptions {
                threads: options.threads,
                limits: options.limits,
                ..Default::default()
            },
            mask,
        );
        node_paths.reserve(raw.len());
        link_paths.reserve(raw.len());
        for path in raw {
            node_paths.push(path.nodes.iter().map(|n| n.index() as u32).collect());
            link_paths.push(
                path.edges
                    .iter()
                    .map(|&e| *graph.edge(e).expect("live edge"))
                    .collect(),
            );
        }
    } else {
        for_each_simple_path(
            graph,
            source,
            target,
            options.limits,
            mask,
            &mut workspace.scratch,
            |nodes, edges| {
                node_paths.push(nodes.iter().map(|n| n.index() as u32).collect());
                link_paths.push(
                    edges
                        .iter()
                        .map(|&e| *graph.edge(e).expect("live edge"))
                        .collect(),
                );
            },
        );
    }
    Ok(DiscoveredPaths {
        pair: pair.clone(),
        names: Arc::clone(view.names()),
        node_paths,
        link_paths,
    })
}

/// Convenience: discovery straight from an infrastructure (builds the
/// interned graph view internally; the pipeline caches it instead).
pub fn discover(
    infrastructure: &Infrastructure,
    pair: &ServiceMappingPair,
    options: DiscoveryOptions,
) -> UpsimResult<DiscoveredPaths> {
    let view = infrastructure.to_interned_graph();
    discover_on_graph(&view, pair, options)
}

/// Records discovered paths in the model space — the paper's "reserved tree
/// structure": `paths.<atomic_service>.p<i>` entities whose value is the
/// rendered path, with `visits` relations to the topology instance entities
/// in traversal order.
pub fn record_in_space(space: &mut ModelSpace, discovered: &DiscoveredPaths) -> UpsimResult<()> {
    let sanitized = discovered.pair.atomic_service.replace(['.', ' '], "_");
    let fqn = format!("{PATHS_NS}.{sanitized}");
    if let Ok(old) = space.resolve(&fqn) {
        space.delete_entity(old)?;
    }
    let root = space.ensure_path(&fqn)?;
    let topology = space.resolve(crate::importers::TOPOLOGY_NS)?;
    for i in 0..discovered.len() {
        let p = space.new_entity(root, &format!("p{i}"))?;
        space.set_value(p, Some(discovered.render_path_at(i)))?;
        for node in discovered.path_names(i) {
            let sanitized_node = node.replace(['.', ' '], "_");
            if let Some(entity) = space.child(topology, &sanitized_node)? {
                space.new_relation("visits", p, entity)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infrastructure::DeviceClassSpec;

    /// diamond: t1 - (a|b) - srv
    fn diamond() -> Infrastructure {
        let mut infra = Infrastructure::new("diamond");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::switch("Sw", 61320.0, 0.5))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1))
            .unwrap();
        infra.add_device("t1", "Comp").unwrap();
        infra.add_device("a", "Sw").unwrap();
        infra.add_device("b", "Sw").unwrap();
        infra.add_device("srv", "Server").unwrap();
        infra.connect("t1", "a").unwrap();
        infra.connect("t1", "b").unwrap();
        infra.connect("a", "srv").unwrap();
        infra.connect("b", "srv").unwrap();
        infra
    }

    fn pair() -> ServiceMappingPair {
        ServiceMappingPair::new("fetch", "t1", "srv")
    }

    #[test]
    fn discovers_both_redundant_paths() {
        let d = discover(&diamond(), &pair(), DiscoveryOptions::default()).unwrap();
        assert_eq!(d.len(), 2);
        let rendered: Vec<String> = (0..d.len()).map(|i| d.render_path_at(i)).collect();
        assert!(rendered.contains(&"t1—a—srv".to_string()));
        assert!(rendered.contains(&"t1—b—srv".to_string()));
        assert_eq!(d.components().len(), 4);
    }

    #[test]
    fn link_paths_align_with_infrastructure_links() {
        let infra = diamond();
        let d = discover(&infra, &pair(), DiscoveryOptions::default()).unwrap();
        for (nodes, links) in d.named_paths().iter().zip(&d.link_paths) {
            assert_eq!(nodes.len(), links.len() + 1);
            for (i, &li) in links.iter().enumerate() {
                let link = &infra.objects.links[li];
                let (a, b) = (&nodes[i], &nodes[i + 1]);
                assert!(
                    (&link.end_a == a && &link.end_b == b)
                        || (&link.end_a == b && &link.end_b == a),
                    "link {li} does not connect {a}-{b}"
                );
            }
        }
    }

    #[test]
    fn pruning_on_and_off_agree() {
        // A pendant device hangs off `a`, so the mask removes a node; the
        // pruned discovery must still list the unmasked kernel's paths, in
        // the kernel's DFS order.
        let mut infra = diamond();
        infra.add_device("tail", "Sw").unwrap();
        infra.connect("a", "tail").unwrap();
        let view = infra.to_interned_graph();
        let pruned = discover_on_graph(&view, &pair(), DiscoveryOptions::default()).unwrap();
        let graph = view.graph();
        let mut nodes_seen = Vec::new();
        let mut links_seen = Vec::new();
        for_each_simple_path(
            graph,
            view.node_of("t1").unwrap(),
            view.node_of("srv").unwrap(),
            PathLimits::unlimited(),
            None,
            &mut DiscoveryScratch::new(),
            |nodes, edges| {
                nodes_seen.push(nodes.iter().map(|n| n.index() as u32).collect::<Vec<_>>());
                links_seen.push(
                    edges
                        .iter()
                        .map(|&e| *graph.edge(e).unwrap())
                        .collect::<Vec<_>>(),
                );
            },
        );
        assert_eq!(pruned.interned(), nodes_seen.as_slice());
        assert_eq!(pruned.link_paths, links_seen);
        assert_eq!(pruned.len(), 2);
    }

    #[test]
    fn workspace_reuse_across_pairs_is_clean() {
        let infra = diamond();
        let view = infra.to_interned_graph();
        let mut ws = DiscoveryWorkspace::default();
        let first =
            discover_with_workspace(&view, &pair(), DiscoveryOptions::default(), &mut ws).unwrap();
        let second = discover_with_workspace(
            &view,
            &ServiceMappingPair::new("rev", "srv", "t1"),
            DiscoveryOptions::default(),
            &mut ws,
        )
        .unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2);
        // Same pair again through the warm workspace: identical result.
        let again =
            discover_with_workspace(&view, &pair(), DiscoveryOptions::default(), &mut ws).unwrap();
        assert_eq!(again.interned(), first.interned());
    }

    #[test]
    fn components_dedup_preserves_first_occurrence_order_on_many_paths() {
        // A fat layered graph: t1 - {m0..m5} - srv plus a chain hanging off
        // each middle node, so many paths revisit the same components.
        let mut infra = Infrastructure::new("fat");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::switch("Sw", 61320.0, 0.5))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1))
            .unwrap();
        infra.add_device("t1", "Comp").unwrap();
        infra.add_device("srv", "Server").unwrap();
        for i in 0..6 {
            let m = format!("m{i}");
            infra.add_device(&m, "Sw").unwrap();
            infra.connect("t1", &m).unwrap();
            infra.connect(&m, "srv").unwrap();
        }
        let d = discover(&infra, &pair(), DiscoveryOptions::default()).unwrap();
        assert_eq!(d.len(), 6);
        let components = d.components();
        assert_eq!(components.len(), 8);
        // First occurrences in enumeration order: requester first, provider
        // from the first emitted path before later middles.
        assert_eq!(components[0], "t1");
        assert!(components.contains(&"srv"));
        let unique: std::collections::HashSet<&&str> = components.iter().collect();
        assert_eq!(
            unique.len(),
            components.len(),
            "components must be distinct"
        );
    }

    #[test]
    fn parallel_discovery_matches_sequential() {
        let infra = diamond();
        let seq = discover(&infra, &pair(), DiscoveryOptions::default()).unwrap();
        let par = discover(
            &infra,
            &pair(),
            DiscoveryOptions {
                parallel: true,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut seq_paths = seq.interned().to_vec();
        let mut par_paths = par.interned().to_vec();
        seq_paths.sort();
        par_paths.sort();
        assert_eq!(seq_paths, par_paths);
    }

    #[test]
    fn unknown_requester_reported() {
        let err = discover(
            &diamond(),
            &ServiceMappingPair::new("x", "ghost", "srv"),
            DiscoveryOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            UpsimError::UnknownComponent {
                role: "requester",
                ..
            }
        ));
    }

    #[test]
    fn same_component_pair_yields_trivial_path() {
        let d = discover(
            &diamond(),
            &ServiceMappingPair::new("local", "srv", "srv"),
            DiscoveryOptions::default(),
        )
        .unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.path_names(0).collect::<Vec<_>>(), vec!["srv"]);
        assert!(d.link_paths[0].is_empty());
    }

    #[test]
    fn paths_recorded_in_model_space() {
        let infra = diamond();
        let mut space = ModelSpace::new();
        crate::importers::import_infrastructure(&mut space, &infra).unwrap();
        let d = discover(&infra, &pair(), DiscoveryOptions::default()).unwrap();
        record_in_space(&mut space, &d).unwrap();
        let root = space.resolve("paths.fetch").unwrap();
        assert_eq!(space.children(root).unwrap().len(), 2);
        let p0 = space.resolve("paths.fetch.p0").unwrap();
        assert!(space.value(p0).unwrap().unwrap().starts_with("t1—"));
        assert_eq!(space.relations_from(p0, "visits").count(), 3);
        // Re-recording replaces.
        record_in_space(&mut space, &d).unwrap();
        let root = space.resolve("paths.fetch").unwrap();
        assert_eq!(space.children(root).unwrap().len(), 2);
    }
}
