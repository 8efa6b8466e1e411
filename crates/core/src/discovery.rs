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
//! paths come out in DFS order, from one `ict_graph::paths::walk_paths`
//! within a budget of [`MAX_DFS_FRAMES`] per pair.
//!
//! The serving path lists no paths: [`walk_perspective`] composes each
//! endpoint pair of a perspective from the blocks between its endpoints,
//! each walked twice, once to count its simple paths and order the devices
//! on them, once for its chordless paths, whose node sets are the minimal
//! path sets the availability model keeps. The view keeps every block walk
//! ([`InternedGraph::block_paths`]), so a block is walked once per view
//! and way across it, whatever the number of perspectives crossing it.

use crate::error::{UpsimError, UpsimResult};
use crate::importers::PATHS_NS;
use crate::infrastructure::Infrastructure;
use crate::interned::{InternedGraph, NameTable};
use crate::mapping::ServiceMappingPair;
use ict_graph::paths::{walk_paths, DiscoveryScratch, PathKind};
use ict_graph::prune::{
    chain_count, chain_order, chain_path_sets, BlockScratch, BlockStep, Crossing,
};
use ict_graph::NodeId;
use std::sync::Arc;
use vpm::ModelSpace;

/// Most DFS frames one walk of a block may push, its counting and
/// chordless walks together; most frames [`walk_perspective`] may charge
/// one perspective, the frames of every distinct block walk it needs,
/// whether the view had kept the walk or not; and most frames
/// [`discover_with_workspace`] may push for the listing of one pair. A
/// frame costs tens of nanoseconds, so the budget bounds a walk to a
/// fraction of a second; the core block of a single-homed 4,486-device
/// campus needs about 33,000 for its largest pair.
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
/// pairs allocates little once these reach their high-water mark.
#[derive(Debug, Default)]
pub struct DiscoveryWorkspace {
    scratch: DiscoveryScratch,
    mask: Vec<bool>,
    /// The scratch of the block walks a perspective misses.
    blocks: BlockScratch,
    /// The union of the last perspective's masks: its UPSIM.
    pub(crate) upsim: Vec<bool>,
    /// Component number per interned id (`u32::MAX`: on no path yet).
    component_of: Vec<u32>,
    /// The perspective's endpoints, one (requester, provider) per pair.
    ends: Vec<(NodeId, NodeId)>,
    /// The perspective's walked endpoint pairs, (min, max) node, each with
    /// the index of the first mapping pair that walked it.
    walked: Vec<((NodeId, NodeId), usize)>,
    /// The block chain of the pair being composed.
    chain: Vec<BlockStep>,
    /// How its paths cross each block of the chain.
    crossings: Vec<Crossing>,
    /// The block walks the perspective has been charged for.
    charged: Vec<BlockStep>,
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
///
/// The listing walks within a budget of [`MAX_DFS_FRAMES`] for the pair,
/// the serving path's budget for a whole perspective; past it the pair
/// fails with [`UpsimError::PathBudget`], and no partial listing is
/// returned.
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
    let mut budget = MAX_DFS_FRAMES;
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
    .map_err(|_| UpsimError::PathBudget {
        atomic_service: pair.atomic_service.clone(),
        requester: pair.requester.clone(),
        provider: pair.provider.clone(),
        frames: MAX_DFS_FRAMES,
    })?;
    Ok(DiscoveredPaths {
        pair: pair.clone(),
        names: Arc::clone(view.names()),
        node_paths,
        link_paths,
    })
}

/// Step 7 for a whole perspective, sized to its answer. First resolves
/// every pair's endpoints: the first device outside the view fails the
/// perspective with [`UpsimError::UnknownComponent`], naming its pair and
/// role, as [`crate::mapping::ServiceMapping::validate`] does. Then, for
/// each new unordered endpoint pair among `pairs`, takes the blocks on the
/// block-cut-tree path from requester to provider (adding their nodes, the
/// ones that lie on some simple path, to the workspace's UPSIM) and
/// composes the pair from how its paths cross each block: a block of two
/// nodes from its links, every other from its walk on the view's sorted
/// graph, kept per (block, entry, exit) on the view
/// ([`InternedGraph::block_paths`]).
///
/// `paths=` is the product of the blocks' counts and the minimal path sets
/// are the products of their chordless sets (links are not components, so
/// a path's device set is minimal exactly when the path has no chord).
/// Devices are numbered at their first occurrence in one counting walk of
/// the pair over the sorted graph, the numbering
/// `ServiceAvailabilityModel::from_run` gives over a full run: the nodes of
/// the lexicographically smallest path block by block, then each block's
/// other nodes in its own walk's order, the last block first
/// ([`ict_graph::prune::chain_order`]). A later pair with the same
/// endpoints, in either orientation, reuses the first one's count and
/// sets: its paths are the same ones, reversed, and number no new device.
///
/// The perspective is charged the frames of every distinct block walk it
/// needs, kept or not, within one budget of [`MAX_DFS_FRAMES`], so its
/// answer does not depend on what the view has kept. A block walk past
/// the budget on its own, a charge past it, a count past `usize::MAX` or
/// more than [`MAX_DFS_FRAMES`] minimal path sets for one pair fails the
/// perspective with [`UpsimError::PathBudget`], naming that pair.
pub fn walk_perspective(
    view: &InternedGraph,
    pairs: &[&ServiceMappingPair],
    workspace: &mut DiscoveryWorkspace,
) -> UpsimResult<PerspectivePaths> {
    let DiscoveryWorkspace {
        blocks,
        upsim,
        component_of,
        ends,
        walked,
        chain,
        crossings,
        charged,
        ..
    } = workspace;
    ends.clear();
    for &pair in pairs {
        let resolve = |role: &'static str, name: &str| {
            view.node_of(name)
                .ok_or_else(|| UpsimError::UnknownComponent {
                    atomic_service: pair.atomic_service.clone(),
                    role,
                    component: name.to_string(),
                })
        };
        ends.push((
            resolve("requester", &pair.requester)?,
            resolve("provider", &pair.provider)?,
        ));
    }
    let capacity = view.graph().node_capacity();
    upsim.clear();
    upsim.resize(capacity, false);
    component_of.clear();
    component_of.resize(capacity, u32::MAX);
    walked.clear();
    charged.clear();
    let tree = view.tree();
    let mut budget = MAX_DFS_FRAMES;
    let mut components: Vec<u32> = Vec::new();
    let mut out: Vec<PairPaths> = Vec::with_capacity(pairs.len());
    for (&pair, &(source, target)) in pairs.iter().zip(ends.iter()) {
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
        let over_budget = || UpsimError::PathBudget {
            atomic_service: pair.atomic_service.clone(),
            requester: pair.requester.clone(),
            provider: pair.provider.clone(),
            frames: MAX_DFS_FRAMES,
        };
        let mut path_sets: Vec<Vec<usize>> = Vec::new();
        let mut paths = 0;
        if !tree.block_chain(source, target, chain) {
            // Different connected components: no path.
        } else if source == target {
            // The trivial path.
            upsim[source.index()] = true;
            paths = 1;
            path_sets.push(vec![number(component_of, &mut components, source)]);
        } else {
            crossings.clear();
            for &step in chain.iter() {
                for node in tree.block(step.block) {
                    upsim[node.index()] = true;
                }
                if let Some(links) = tree.links_crossing(step) {
                    crossings.push(links);
                    continue;
                }
                let walk = view.block_paths(step, blocks).map_err(|_| over_budget())?;
                if !charged.contains(&step) {
                    charged.push(step);
                    budget = budget.checked_sub(walk.frames).ok_or_else(over_budget)?;
                }
                crossings.push(Crossing::Walked(walk));
            }
            paths = chain_count(crossings).ok_or_else(over_budget)?;
            chain_order(crossings, |node| {
                number(component_of, &mut components, node);
            });
            path_sets = chain_path_sets(
                crossings,
                |node| component_of[node.index()] as usize,
                MAX_DFS_FRAMES,
            )
            .ok_or_else(over_budget)?;
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

/// The component number of `node`, numbering it next if it has none yet.
fn number(component_of: &mut [u32], components: &mut Vec<u32>, node: NodeId) -> usize {
    let number = &mut component_of[node.index()];
    if *number == u32::MAX {
        *number = components.len() as u32;
        components.push(node.index() as u32);
    }
    *number as usize
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

    /// An infrastructure of `Sw` switches with the given links.
    fn switches(devices: &[&str], links: &[(&str, &str)]) -> Infrastructure {
        let mut infra = Infrastructure::new("switches");
        infra
            .define_device_class(DeviceClassSpec::switch("Sw", 61320.0, 0.5))
            .unwrap();
        for device in devices {
            infra.add_device(*device, "Sw").unwrap();
        }
        for (a, b) in links {
            infra.connect(a, b).unwrap();
        }
        infra
    }

    /// A complete block on `nodes`, with clients `c1` and `c2` hanging off
    /// its first node and a server `s` off its last.
    fn clique_with_clients(nodes: usize) -> Infrastructure {
        let names: Vec<String> = (0..nodes).map(|i| format!("k{i}")).collect();
        let mut devices: Vec<&str> = names.iter().map(String::as_str).collect();
        devices.extend(["c1", "c2", "s"]);
        let mut links = vec![
            ("c1", devices[0]),
            ("c2", devices[0]),
            (devices[nodes - 1], "s"),
        ];
        for i in 0..nodes {
            for j in i + 1..nodes {
                links.push((devices[i], devices[j]));
            }
        }
        switches(&devices, &links)
    }

    /// The devices and links of a `w`×`h` grid of devices named
    /// `<prefix><x>_<y>`.
    fn grid(prefix: &str, w: usize, h: usize) -> (Vec<String>, Vec<(String, String)>) {
        let name = |x: usize, y: usize| format!("{prefix}{x}_{y}");
        let mut devices = Vec::new();
        let mut links = Vec::new();
        for x in 0..w {
            for y in 0..h {
                devices.push(name(x, y));
                if x + 1 < w {
                    links.push((name(x, y), name(x + 1, y)));
                }
                if y + 1 < h {
                    links.push((name(x, y), name(x, y + 1)));
                }
            }
        }
        (devices, links)
    }

    /// [`switches`] over owned names.
    fn owned_switches(devices: &[String], links: &[(String, String)]) -> Infrastructure {
        let devices: Vec<&str> = devices.iter().map(String::as_str).collect();
        let links: Vec<(&str, &str)> = links
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str()))
            .collect();
        switches(&devices, &links)
    }

    /// A 6×6 grid, with clients `c1` and `c2` hanging off one corner and a
    /// server `s` off the opposite one: more than 5·10⁶ frames to count
    /// the paths between the corners, past the budget, at a few
    /// neighbours a frame.
    fn grid_with_clients() -> Infrastructure {
        let (mut devices, mut links) = grid("g", 6, 6);
        devices.extend(["c1", "c2", "s"].map(String::from));
        for (a, b) in [("c1", "g0_0"), ("c2", "g0_0"), ("g5_5", "s")] {
            links.push((a.into(), b.into()));
        }
        owned_switches(&devices, &links)
    }

    fn walk_one(
        view: &InternedGraph,
        pair: &ServiceMappingPair,
        workspace: &mut DiscoveryWorkspace,
    ) -> UpsimResult<PerspectivePaths> {
        walk_perspective(view, &[pair], workspace)
    }

    #[test]
    fn a_second_perspective_through_a_kept_block_walks_nothing() {
        let view = clique_with_clients(5).to_interned_graph();
        let mut workspace = DiscoveryWorkspace::default();
        let first = walk_one(
            &view,
            &ServiceMappingPair::new("x", "c1", "s"),
            &mut workspace,
        )
        .unwrap();
        assert_eq!(first.pairs[0].paths, 16);
        // The clique is walked once; the three links are composed, unkept.
        assert_eq!(view.kept_walks(), 1);
        let pair = ServiceMappingPair::new("x", "c2", "s");
        let second = walk_one(&view, &pair, &mut workspace).unwrap();
        assert_eq!(view.kept_walks(), 1, "the kept walk serves the second");
        // What a view of its own answers.
        let fresh = clique_with_clients(5).to_interned_graph();
        assert_eq!(
            second,
            walk_one(&fresh, &pair, &mut DiscoveryWorkspace::default()).unwrap()
        );
    }

    #[test]
    fn a_perspective_through_an_exhausted_block_is_refused_from_the_view() {
        let view = grid_with_clients().to_interned_graph();
        let mut workspace = DiscoveryWorkspace::default();
        for client in ["c1", "c2"] {
            let err = walk_one(
                &view,
                &ServiceMappingPair::new("x", client, "s"),
                &mut workspace,
            )
            .unwrap_err();
            let UpsimError::PathBudget {
                requester, frames, ..
            } = err
            else {
                panic!("a budget refusal, got {err:?}");
            };
            assert_eq!((requester.as_str(), frames), (client, MAX_DFS_FRAMES));
            assert_eq!(view.kept_walks(), 1, "one walk, kept exhausted");
        }
    }

    #[test]
    fn a_perspective_is_charged_for_kept_walks_too() {
        // Five 6×5 grids in series, each joined to the next by a link from
        // its far corner: about 9·10⁵ frames to cross one corner to
        // corner, 4.5·10⁶ to cross all five, past the budget.
        let mut devices = vec!["c".to_string(), "s".to_string()];
        let mut links = vec![("c".to_string(), "a0_0".to_string())];
        let prefixes = ["a", "b", "d", "e", "f"];
        for (i, prefix) in prefixes.iter().enumerate() {
            let (nodes, edges) = grid(prefix, 6, 5);
            devices.extend(nodes);
            links.extend(edges);
            let next = prefixes
                .get(i + 1)
                .map_or("s".to_string(), |p| format!("{p}0_0"));
            links.push((format!("{prefix}5_4"), next));
        }
        let view = owned_switches(&devices, &links).to_interned_graph();
        let mut workspace = DiscoveryWorkspace::default();
        // Each grid alone is within the budget, and its walk is kept.
        for prefix in prefixes {
            let pair = ServiceMappingPair::new("x", format!("{prefix}0_0"), format!("{prefix}5_4"));
            let crossed = walk_one(&view, &pair, &mut workspace).unwrap();
            assert_eq!(crossed.pairs[0].paths, 79_384);
        }
        assert_eq!(view.kept_walks(), 5);
        // All five cost the same frames whether walked or kept.
        let err = walk_one(
            &view,
            &ServiceMappingPair::new("x", "c", "s"),
            &mut workspace,
        )
        .unwrap_err();
        assert!(
            matches!(&err, UpsimError::PathBudget { requester, .. } if requester == "c"),
            "{err:?}"
        );
        assert_eq!(view.kept_walks(), 5);
    }

    #[test]
    fn blocks_in_series_multiply_past_what_one_walk_could_count() {
        // Two K9s joined by the link a8–b8: 13,700 simple paths cross each,
        // 13,700² in all, which one walk of the pair would need about as
        // many frames to count; the direct links are the one minimal set.
        let names: Vec<String> = ["a", "b"]
            .iter()
            .flat_map(|side| (0..9).map(move |i| format!("{side}{i}")))
            .collect();
        let devices: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut links = vec![("a8", "b8")];
        for side in [&devices[..9], &devices[9..]] {
            for i in 0..9 {
                for j in i + 1..9 {
                    links.push((side[i], side[j]));
                }
            }
        }
        let view = switches(&devices, &links).to_interned_graph();
        let walked = walk_one(
            &view,
            &ServiceMappingPair::new("request", "a0", "b0"),
            &mut DiscoveryWorkspace::default(),
        )
        .unwrap();
        assert_eq!(walked.pairs[0].paths, 13_700 * 13_700);
        let named: Vec<Vec<&str>> = walked.pairs[0]
            .path_sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|&c| view.names().name(walked.components[c]))
                    .collect()
            })
            .collect();
        let mut set = named.concat();
        set.sort_unstable();
        assert_eq!(named.len(), 1);
        assert_eq!(set, ["a0", "a8", "b0", "b8"]);
        assert_eq!(walked.components.len(), 18);
    }

    #[test]
    fn an_unknown_device_is_reported_before_any_walk() {
        // The first pair alone is past the budget; the second names a
        // device outside the view, and that is what the perspective fails
        // on, as a mapping check before Step 7 would report it.
        let view = grid_with_clients().to_interned_graph();
        let first = ServiceMappingPair::new("x", "c1", "s");
        let second = ServiceMappingPair::new("y", "s", "ghost");
        let err = walk_perspective(
            &view,
            &[&first, &second],
            &mut DiscoveryWorkspace::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            UpsimError::UnknownComponent {
                atomic_service: "y".into(),
                role: "provider",
                component: "ghost".into(),
            }
        );
        assert_eq!(view.kept_walks(), 0);
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
