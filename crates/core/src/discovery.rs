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
//! paths come out in DFS order, from an unlimited
//! `ict_graph::paths::walk_paths`.
//!
//! The serving path lists no paths: [`walk_perspective`] walks each
//! endpoint pair of a perspective twice, once to count its simple paths
//! and number the devices on them, once for its chordless paths, whose
//! node sets are the minimal path sets the availability model keeps. Both
//! walks share one budget of [`MAX_DFS_FRAMES`].

use crate::error::{UpsimError, UpsimResult};
use crate::importers::PATHS_NS;
use crate::infrastructure::Infrastructure;
use crate::interned::{InternedGraph, NameTable};
use crate::mapping::ServiceMappingPair;
use ict_graph::paths::{walk_paths, DiscoveryScratch, PathKind};
use ict_graph::NodeId;
use std::sync::Arc;
use vpm::ModelSpace;

/// Most DFS frames [`walk_perspective`] may push for one perspective, its
/// counting and chordless walks together. A frame costs tens of
/// nanoseconds, so the budget bounds a perspective's Step 7 to a fraction
/// of a second; the largest single-homed pair of a 4,486-device campus
/// needs about 33,000.
pub const MAX_DFS_FRAMES: usize = 1 << 22;

/// Step 7 has no options: every caller runs the one DFS, unlimited. This
/// fieldless type stays only because the benchmark still names it
/// (`EngineConfig::discovery`, [`crate::pipeline::UpsimPipeline::set_options`]
/// and `CampaignInput::prepare` take it and read nothing); it goes with
/// the benchmark's next revision.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscoveryOptions;

/// Reusable per-worker buffers for repeated discovery calls: the DFS
/// scratch (on-path bitset, stack, path buffers), the pruning mask, and
/// what [`walk_perspective`] keeps per perspective. A warm sweep over many
/// pairs allocates nothing once these reach their high-water mark.
#[derive(Debug, Default)]
pub struct DiscoveryWorkspace {
    scratch: DiscoveryScratch,
    mask: Vec<bool>,
    /// The union of the last perspective's masks: its UPSIM.
    pub(crate) upsim: Vec<bool>,
    /// Component number per interned id (`u32::MAX`: on no path yet).
    component_of: Vec<u32>,
    /// The perspective's walked endpoint pairs, (min, max) node, each with
    /// the index of the first mapping pair that walked it.
    walked: Vec<((NodeId, NodeId), usize)>,
}

/// What Step 7 keeps of one mapping pair on the serving path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairPaths {
    /// The mapping pair.
    pub pair: ServiceMappingPair,
    /// Its number of simple paths.
    pub paths: usize,
    /// Its minimal path sets over component numbers
    /// ([`PerspectivePaths::components`]): each set sorted, the sets
    /// ordered by length, then members.
    pub path_sets: Vec<Vec<usize>>,
}

/// Step 7 of one perspective at the size of its answer
/// ([`walk_perspective`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerspectivePaths {
    /// The interned ids of the devices on any path, in component order:
    /// first occurrence over the pairs in order and, within a pair, over
    /// its paths sorted by node ids, then link indices.
    pub components: Vec<u32>,
    /// One entry per mapping pair, in the order given.
    pub pairs: Vec<PairPaths>,
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
) -> UpsimResult<DiscoveredPaths> {
    let mut workspace = DiscoveryWorkspace::default();
    discover_with_workspace(view, pair, &mut workspace)
}

/// [`discover_on_graph`] with caller-owned scratch buffers: repeated calls
/// reuse the DFS stack, on-path bitset and pruning mask across pairs.
pub fn discover_with_workspace(
    view: &InternedGraph,
    pair: &ServiceMappingPair,
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
    let mut budget = usize::MAX;
    walk_paths(
        graph,
        source,
        target,
        PathKind::Simple,
        Some(workspace.mask.as_slice()),
        &mut budget,
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
    )
    .expect("an unlimited budget is never exhausted");
    Ok(DiscoveredPaths {
        pair: pair.clone(),
        names: Arc::clone(view.names()),
        node_paths,
        link_paths,
    })
}

/// Step 7 for a whole perspective, sized to its answer: for each new
/// unordered endpoint pair among `pairs`, takes the block-cut-tree mask of
/// the nodes that lie on some simple path (and adds it to the workspace's
/// UPSIM), then walks the view's sorted graph twice under that mask. The
/// counting walk counts the simple paths and numbers each device at its
/// first occurrence; since the sorted adjacency makes the DFS meet the
/// node sequences in sorted order, that is the numbering
/// `ServiceAvailabilityModel::from_run` gives over a full run. The
/// chordless walk finds the minimal path sets: links are not components,
/// so a path's device set is minimal exactly when the path has no chord.
/// A later pair with the same endpoints, in either orientation, reuses
/// the first one's count and sets: its paths are the same ones, reversed,
/// and number no new device.
///
/// The walks share one budget of [`MAX_DFS_FRAMES`]; the first walk past
/// it fails the perspective with [`UpsimError::PathBudget`], naming its
/// pair. A pair naming a device outside the view fails with
/// [`UpsimError::UnknownComponent`].
pub fn walk_perspective(
    view: &InternedGraph,
    pairs: &[&ServiceMappingPair],
    workspace: &mut DiscoveryWorkspace,
) -> UpsimResult<PerspectivePaths> {
    let DiscoveryWorkspace {
        scratch,
        mask,
        upsim,
        component_of,
        walked,
    } = workspace;
    let capacity = view.graph().node_capacity();
    upsim.clear();
    upsim.resize(capacity, false);
    component_of.clear();
    component_of.resize(capacity, u32::MAX);
    walked.clear();
    let graph = view.sorted_graph();
    let mut budget = MAX_DFS_FRAMES;
    let mut components: Vec<u32> = Vec::new();
    let mut out: Vec<PairPaths> = Vec::with_capacity(pairs.len());
    for &pair in pairs {
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
        let endpoints = (source.min(target), source.max(target));
        if let Some(&(_, first)) = walked.iter().find(|(seen, _)| *seen == endpoints) {
            let PairPaths {
                paths, path_sets, ..
            } = &out[first];
            out.push(PairPaths {
                pair: pair.clone(),
                paths: *paths,
                path_sets: path_sets.clone(),
            });
            continue;
        }
        walked.push((endpoints, out.len()));
        let mut path_sets: Vec<Vec<usize>> = Vec::new();
        let mut paths = 0;
        if view.tree().relevant_nodes(source, target, mask) > 0 {
            for (kept, &relevant) in upsim.iter_mut().zip(mask.iter()) {
                *kept |= relevant;
            }
            let over_budget = |_| UpsimError::PathBudget {
                atomic_service: pair.atomic_service.clone(),
                requester: pair.requester.clone(),
                provider: pair.provider.clone(),
                frames: MAX_DFS_FRAMES,
            };
            let mask = Some(mask.as_slice());
            paths = walk_paths(
                graph,
                source,
                target,
                PathKind::Simple,
                mask,
                &mut budget,
                scratch,
                |nodes, _| {
                    for node in nodes {
                        let number = &mut component_of[node.index()];
                        if *number == u32::MAX {
                            *number = components.len() as u32;
                            components.push(node.index() as u32);
                        }
                    }
                },
            )
            .map_err(over_budget)?;
            walk_paths(
                graph,
                source,
                target,
                PathKind::Chordless,
                mask,
                &mut budget,
                scratch,
                |nodes, _| {
                    let mut set: Vec<usize> = nodes
                        .iter()
                        .map(|node| component_of[node.index()] as usize)
                        .collect();
                    set.sort_unstable();
                    path_sets.push(set);
                },
            )
            .map_err(over_budget)?;
            // Parallel links repeat a set.
            path_sets.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
            path_sets.dedup();
        }
        out.push(PairPaths {
            pair: pair.clone(),
            paths,
            path_sets,
        });
    }
    Ok(PerspectivePaths {
        components,
        pairs: out,
    })
}

/// Convenience: discovery straight from an infrastructure (builds the
/// interned graph view internally; the pipeline caches it instead).
pub fn discover(
    infrastructure: &Infrastructure,
    pair: &ServiceMappingPair,
) -> UpsimResult<DiscoveredPaths> {
    let view = infrastructure.to_interned_graph();
    discover_on_graph(&view, pair)
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
        let d = discover(&diamond(), &pair()).unwrap();
        assert_eq!(d.len(), 2);
        let rendered: Vec<String> = (0..d.len()).map(|i| d.render_path_at(i)).collect();
        assert!(rendered.contains(&"t1—a—srv".to_string()));
        assert!(rendered.contains(&"t1—b—srv".to_string()));
        assert_eq!(d.components().len(), 4);
    }

    #[test]
    fn link_paths_align_with_infrastructure_links() {
        let infra = diamond();
        let d = discover(&infra, &pair()).unwrap();
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
        let pruned = discover_on_graph(&view, &pair()).unwrap();
        let graph = view.graph();
        let mut nodes_seen = Vec::new();
        let mut links_seen = Vec::new();
        let mut budget = usize::MAX;
        walk_paths(
            graph,
            view.node_of("t1").unwrap(),
            view.node_of("srv").unwrap(),
            PathKind::Simple,
            None,
            &mut budget,
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
        )
        .unwrap();
        assert_eq!(pruned.interned(), nodes_seen.as_slice());
        assert_eq!(pruned.link_paths, links_seen);
        assert_eq!(pruned.len(), 2);
    }

    #[test]
    fn workspace_reuse_across_pairs_is_clean() {
        let infra = diamond();
        let view = infra.to_interned_graph();
        let mut ws = DiscoveryWorkspace::default();
        let first = discover_with_workspace(&view, &pair(), &mut ws).unwrap();
        let second =
            discover_with_workspace(&view, &ServiceMappingPair::new("rev", "srv", "t1"), &mut ws)
                .unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2);
        // Same pair again through the warm workspace: identical result.
        let again = discover_with_workspace(&view, &pair(), &mut ws).unwrap();
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
        let d = discover(&infra, &pair()).unwrap();
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
    fn unknown_requester_reported() {
        let err = discover(&diamond(), &ServiceMappingPair::new("x", "ghost", "srv")).unwrap_err();
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
        let d = discover(&diamond(), &ServiceMappingPair::new("local", "srv", "srv")).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.path_names(0).collect::<Vec<_>>(), vec!["srv"]);
        assert!(d.link_paths[0].is_empty());
    }

    #[test]
    fn paths_recorded_in_model_space() {
        let infra = diamond();
        let mut space = ModelSpace::new();
        crate::importers::import_infrastructure(&mut space, &infra).unwrap();
        let d = discover(&infra, &pair()).unwrap();
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
