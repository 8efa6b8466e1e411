//! The UPSIM → availability-model transformation (paper Sec. VII and the
//! companion paper \[20\]).
//!
//! From a pipeline run ([`upsim_core::pipeline::UpsimRun`]) this module
//! builds a [`ServiceAvailabilityModel`]: per-component availabilities from
//! the class attributes via Formula 1 (+ redundancy), and per-mapping-pair
//! **path sets** over a shared component index space. The user-perceived
//! steady-state service availability is the probability that *every*
//! mapping pair of the composite service has at least one fully working
//! path — all atomic services execute (Sec. V-E).
//!
//! Evaluation engines (all exact ones agree to machine precision;
//! experiment E8 cross-validates):
//!
//! * [`ServiceAvailabilityModel::availability_bdd`] — exact, shared
//!   components across paths *and* pairs handled correctly,
//! * [`ServiceAvailabilityModel::pair_availability_sdp`] — exact per pair
//!   via sum of disjoint products,
//! * [`ServiceAvailabilityModel::availability_pairwise_product`] — the
//!   naive pair-independence approximation (what a per-pair RBD analysis
//!   yields); reported for comparison,
//! * [`ServiceAvailabilityModel::pair_rbd`] — the companion paper's
//!   parallel-of-series RBD, available when no component is shared between
//!   the paths of the pair (tree-like networks),
//! * [`ServiceAvailabilityModel::monte_carlo`] — parallel simulation on
//!   the compiled bit-sliced kernel.
//!
//! [`evaluate_perspective`] is the one evaluator the server's engine and
//! its campaigns run per perspective: Steps 7–8 sized to their answer
//! ([`discover_perspective`]), the model built from its walks
//! ([`ServiceAvailabilityModel::from_perspective`], equal to what
//! [`ServiceAvailabilityModel::from_run`] builds over a full run) and the
//! observation overlay, with no model space.

use crate::availability::ComponentAvailability;
use crate::bdd::Bdd;
use crate::mcprog::McProgram;
use crate::montecarlo::MonteCarloResult;
use crate::params::{overlay_model, ParamEstimator, PosteriorComponent};
use crate::rbd::Block;
use crate::sdp::union_probability;
use std::collections::HashMap;
use std::sync::Arc;
use upsim_core::discovery::DiscoveryWorkspace;
use upsim_core::error::UpsimResult;
use upsim_core::infrastructure::Infrastructure;
use upsim_core::interned::{InternedGraph, NameTable};
use upsim_core::mapping::ServiceMapping;
use upsim_core::pipeline::{discover_perspective, PerspectiveRun, UpsimRun};
use upsim_core::service::CompositeService;

/// Options of the transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnalysisOptions {
    /// Model link (connector) failures as components too. Off by default —
    /// the paper's case study analyses device availability; see DESIGN.md
    /// §4.3 for the link-attribute reconstruction.
    pub include_links: bool,
    /// Use the paper's printed Formula 1 (`1 − MTTR/MTBF`) instead of the
    /// exact `MTBF/(MTBF+MTTR)`.
    pub paper_formula: bool,
}

/// The path-set system of one mapping pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairSystem {
    /// The atomic service of the pair.
    pub atomic_service: String,
    /// Requester component name.
    pub requester: String,
    /// Provider component name.
    pub provider: String,
    /// Path sets over component indices (minimized: no superset survives).
    pub path_sets: Vec<Vec<usize>>,
}

/// The availability model of one service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceAvailabilityModel {
    /// The components (index = variable in the path sets).
    pub components: Vec<ComponentAvailability>,
    /// One system per mapping pair, in service execution order.
    pub systems: Vec<PairSystem>,
}

/// The availability of device `name` of class `class` from the class's
/// attributes (Formula 1 plus redundancy).
fn device_component(
    infrastructure: &Infrastructure,
    name: &str,
    class: &str,
    paper_formula: bool,
) -> ComponentAvailability {
    let class = infrastructure.classes.class(class);
    let value = |attribute| class.and_then(|c| c.value(attribute));
    let mtbf = value("MTBF")
        .and_then(|v| v.as_real())
        .expect("device on a path has MTBF");
    let mttr = value("MTTR")
        .and_then(|v| v.as_real())
        .expect("device on a path has MTTR");
    let redundant = value("redundantComponents")
        .and_then(|v| v.as_integer())
        .unwrap_or(0);
    ComponentAvailability::from_attributes(name, mtbf, mttr, redundant, paper_formula)
}

fn minimize(mut sets: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for s in &mut sets {
        s.sort_unstable();
        s.dedup();
    }
    sets.sort_by_key(|s| (s.len(), s.clone()));
    sets.dedup();
    let mut out: Vec<Vec<usize>> = Vec::new();
    'outer: for cand in sets {
        for kept in &out {
            if kept.iter().all(|v| cand.binary_search(v).is_ok()) {
                continue 'outer;
            }
        }
        out.push(cand);
    }
    out
}

impl ServiceAvailabilityModel {
    /// Builds the model from a pipeline run. Component availabilities come
    /// from the infrastructure's class attributes (Formula 1 + redundancy);
    /// every component on any discovered path becomes a variable.
    ///
    /// The model is a function of each pair's *set* of paths, not of the
    /// order Step 7 listed them in: variables are numbered by first
    /// occurrence over the pairs in service order and, within a pair, over
    /// its paths sorted by interned node ids, then link indices. Any DFS
    /// order of the same paths (another adjacency order, say) therefore
    /// gives the same model, and every availability, bound and Monte-Carlo
    /// estimate priced on it.
    pub fn from_run(
        infrastructure: &Infrastructure,
        run: &UpsimRun,
        options: AnalysisOptions,
    ) -> Self {
        let mut components: Vec<ComponentAvailability> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();

        let device_var = |name: &str,
                          components: &mut Vec<ComponentAvailability>,
                          index: &mut HashMap<String, usize>| {
            *index.entry(name.to_string()).or_insert_with(|| {
                let device = infrastructure
                    .objects
                    .instance(name)
                    .expect("device on a path is an instance");
                components.push(device_component(
                    infrastructure,
                    name,
                    &device.class,
                    options.paper_formula,
                ));
                components.len() - 1
            })
        };

        let mut systems = Vec::with_capacity(run.discovered.len());
        // Interned fast path: within one run every pair shares the graph's
        // name table, so a dense id → variable memo resolves repeated
        // components without re-hashing their names; each distinct device
        // touches the name index exactly once. The memo is rebuilt if a
        // hand-assembled run ever mixes name tables.
        let mut id_cache: Vec<usize> = Vec::new();
        let mut cache_table: Option<&Arc<NameTable>> = None;
        for discovered in &run.discovered {
            let table = discovered.name_table();
            if !cache_table.is_some_and(|t| Arc::ptr_eq(t, table)) {
                id_cache.clear();
                id_cache.resize(table.len(), usize::MAX);
                cache_table = Some(table);
            }
            let (node_paths, link_paths) = (discovered.interned(), &discovered.link_paths);
            let mut order: Vec<usize> = (0..node_paths.len()).collect();
            order.sort_unstable_by_key(|&i| (&node_paths[i], &link_paths[i]));
            let mut path_sets = Vec::with_capacity(order.len());
            for (nodes, links) in order.into_iter().map(|i| (&node_paths[i], &link_paths[i])) {
                let mut set: Vec<usize> = nodes
                    .iter()
                    .map(|&id| {
                        let memo = &mut id_cache[id as usize];
                        if *memo == usize::MAX {
                            *memo = device_var(discovered.name(id), &mut components, &mut index);
                        }
                        *memo
                    })
                    .collect();
                if options.include_links {
                    for &li in links {
                        let key = format!("link:{li}");
                        let var = *index.entry(key.clone()).or_insert_with(|| {
                            let mtbf = infrastructure
                                .link_attr(li, "MTBF")
                                .expect("link on a path has MTBF");
                            let mttr = infrastructure
                                .link_attr(li, "MTTR")
                                .expect("link on a path has MTTR");
                            let redundant = infrastructure
                                .link_attr(li, "redundantComponents")
                                .map(|r| r as i64)
                                .unwrap_or(0);
                            components.push(ComponentAvailability::from_attributes(
                                key,
                                mtbf,
                                mttr,
                                redundant,
                                options.paper_formula,
                            ));
                            components.len() - 1
                        });
                        set.push(var);
                    }
                }
                path_sets.push(set);
            }
            systems.push(PairSystem {
                atomic_service: discovered.pair.atomic_service.clone(),
                requester: discovered.pair.requester.clone(),
                provider: discovered.pair.provider.clone(),
                path_sets: minimize(path_sets),
            });
        }
        ServiceAvailabilityModel {
            components,
            systems,
        }
    }

    /// Builds the model of one perspective from its Step 7 walks
    /// ([`discover_perspective`]) with [`AnalysisOptions::default`]: the
    /// walks' components in their order, and each pair's minimal path
    /// sets. `run` must come from a graph view of `infrastructure`, whose
    /// interned ids are instance indices. The model equals what
    /// [`Self::from_run`] builds over a full run of the same mapping.
    pub fn from_perspective(infrastructure: &Infrastructure, run: &PerspectiveRun) -> Self {
        let components = run
            .paths
            .components
            .iter()
            .map(|&id| {
                let device = &infrastructure.objects.instances[id as usize];
                debug_assert_eq!(device.name, run.name(id), "ids are instance indices");
                device_component(infrastructure, &device.name, &device.class, false)
            })
            .collect();
        let systems = run
            .paths
            .pairs
            .iter()
            .map(|p| PairSystem {
                atomic_service: p.pair.atomic_service.clone(),
                requester: p.pair.requester.clone(),
                provider: p.pair.provider.clone(),
                path_sets: p.path_sets.clone(),
            })
            .collect();
        ServiceAvailabilityModel {
            components,
            systems,
        }
    }

    /// The availability vector, indexed by variable.
    pub fn availability_vector(&self) -> Vec<f64> {
        self.components.iter().map(|c| c.availability).collect()
    }

    /// Exact user-perceived steady-state service availability: the
    /// probability that every pair has a working path, via one shared BDD.
    pub fn availability_bdd(&self) -> f64 {
        let mut bdd = Bdd::new();
        let mut f = bdd.one();
        for system in &self.systems {
            let pair = bdd.from_path_sets(&system.path_sets);
            f = bdd.and(f, pair);
        }
        bdd.probability(f, &self.availability_vector())
    }

    /// Exact availability of a single pair via BDD.
    pub fn pair_availability_bdd(&self, pair_index: usize) -> f64 {
        let mut bdd = Bdd::new();
        let f = bdd.from_path_sets(&self.systems[pair_index].path_sets);
        bdd.probability(f, &self.availability_vector())
    }

    /// Exact availability of a single pair via sum of disjoint products.
    pub fn pair_availability_sdp(&self, pair_index: usize) -> f64 {
        union_probability(
            &self.systems[pair_index].path_sets,
            &self.availability_vector(),
        )
    }

    /// The naive pair-independence approximation: the product of exact
    /// per-pair availabilities. Upper/lower bounds depend on the sharing
    /// structure; for the USI case study it *underestimates* (the same
    /// client/core components back several pairs).
    pub fn availability_pairwise_product(&self) -> f64 {
        (0..self.systems.len())
            .map(|i| self.pair_availability_bdd(i))
            .product()
    }

    /// The companion-paper RBD for one pair: parallel-of-series over its
    /// path sets. `None` when a component is shared between two paths of
    /// the pair (the RBD independence precondition fails; use BDD/SDP).
    pub fn pair_rbd(&self, pair_index: usize) -> Option<Block> {
        let block = Block::Parallel(
            self.systems[pair_index]
                .path_sets
                .iter()
                .map(|set| Block::Series(set.iter().map(|&v| Block::Unit(v)).collect()))
                .collect(),
        );
        block.validate_single_use().then_some(block)
    }

    /// Minimal cut sets of one pair: the minimal component sets whose joint
    /// failure disconnects requester from provider (paper Sec. VII's
    /// fault-tree view; also the "where can the problem be caused"
    /// overview).
    pub fn pair_cut_sets(&self, pair_index: usize) -> Vec<Vec<usize>> {
        crate::cutsets::minimal_cut_sets(
            &self.systems[pair_index].path_sets,
            crate::cutsets::CutLimits::default(),
        )
    }

    /// The fault tree of one pair, built over its minimal cut sets. Its
    /// BDD-exact top-event probability equals `1 − pair availability`.
    pub fn pair_fault_tree(&self, pair_index: usize) -> crate::faulttree::Gate {
        crate::cutsets::fault_tree_from_cut_sets(&self.pair_cut_sets(pair_index))
    }

    /// Parallel Monte-Carlo estimate of the service availability on the
    /// compiled bit-sliced kernel: 64 trials per word, counter-based
    /// draws, so the estimate is bit-identical for a fixed
    /// `(seed, samples)` regardless of `workers` (and to the reference
    /// sampler [`crate::montecarlo::estimate`]). Callers sampling the same
    /// model repeatedly should hold on to
    /// [`ServiceAvailabilityModel::compile_mc`] instead.
    pub fn monte_carlo(&self, samples: usize, workers: usize, seed: u64) -> MonteCarloResult {
        self.compile_mc().run(samples, workers, seed)
    }

    /// Compiles the model's structure function into a bit-sliced word
    /// program ([`McProgram`]): compile once per model, sample many times.
    pub fn compile_mc(&self) -> McProgram {
        McProgram::compile(
            &self.availability_vector(),
            self.systems.iter().map(|s| s.path_sets.as_slice()),
        )
    }

    /// Compiles the structure function **without constant folding**: the
    /// program keeps a slot for every pathed component, so scenario
    /// probability vectors can be swapped in via a
    /// [`crate::mcprog::RunSpec::probs`] overlay while draw words stay
    /// shareable — the compile used by common-random-number campaign
    /// pricing.
    pub fn compile_mc_unfolded(&self) -> McProgram {
        McProgram::compile_unfolded(
            &self.availability_vector(),
            self.systems.iter().map(|s| s.path_sets.as_slice()),
        )
    }

    /// Looks up a component index by name.
    pub fn component_index(&self, name: &str) -> Option<usize> {
        self.components.iter().position(|c| c.name == name)
    }
}

/// Evaluates one perspective without a model space: checks `mapping`
/// against the models ([`ServiceMapping::validate`]), runs Steps 7–8 on
/// `graph`, a prebuilt view of `infrastructure`, sized to their answer
/// ([`discover_perspective`]), builds the availability model from the
/// walks ([`ServiceAvailabilityModel::from_perspective`]), and overlays
/// the observation-fed parameters in `params` ([`overlay_model`]). Returns
/// the run, the overlaid model and the per-component posteriors (`None` =
/// authored). The run and the model equal what a full
/// [`upsim_core::pipeline::UpsimPipeline`] run and
/// [`ServiceAvailabilityModel::from_run`] with [`AnalysisOptions::default`]
/// give, bit for bit; a perspective whose Step 7 needs more than
/// [`upsim_core::discovery::MAX_DFS_FRAMES`] DFS frames fails with
/// [`upsim_core::UpsimError::PathBudget`].
pub fn evaluate_perspective(
    infrastructure: &Infrastructure,
    service: &CompositeService,
    graph: &InternedGraph,
    mapping: &ServiceMapping,
    params: &ParamEstimator,
    workspace: &mut DiscoveryWorkspace,
) -> UpsimResult<(
    PerspectiveRun,
    ServiceAvailabilityModel,
    Vec<Option<PosteriorComponent>>,
)> {
    mapping.validate(service, infrastructure)?;
    let run = discover_perspective(infrastructure, service, mapping, graph, workspace)?;
    let mut model = ServiceAvailabilityModel::from_perspective(infrastructure, &run);
    let posteriors = overlay_model(&mut model, params, false);
    Ok((run, model, posteriors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use upsim_core::infrastructure::DeviceClassSpec;
    use upsim_core::mapping::ServiceMappingPair;
    use upsim_core::pipeline::UpsimPipeline;
    use upsim_core::service::CompositeService;

    /// t1 - (a|b) - srv with a request/response service.
    fn run_fixture() -> (Infrastructure, UpsimRun) {
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
        for (n, c) in [("t1", "Comp"), ("a", "Sw"), ("b", "Sw"), ("srv", "Server")] {
            infra.add_device(n, c).unwrap();
        }
        for (u, v) in [("t1", "a"), ("t1", "b"), ("a", "srv"), ("b", "srv")] {
            infra.connect(u, v).unwrap();
        }
        let svc = CompositeService::sequential("fetch", &["request", "response"]).unwrap();
        let mapping = ServiceMapping::new()
            .with(ServiceMappingPair::new("request", "t1", "srv"))
            .with(ServiceMappingPair::new("response", "srv", "t1"));
        let mut pipeline = UpsimPipeline::new(infra.clone(), svc, mapping).unwrap();
        let run = pipeline.run().unwrap();
        (infra, run)
    }

    fn expected_pair_availability() -> f64 {
        // A(t1) * A(srv) * (1 - (1 - A(a))(1 - A(b)))
        let a_t1 = 3000.0 / 3024.0;
        let a_srv = 60000.0 / 60000.1;
        let a_sw = 61320.0 / 61320.5;
        a_t1 * a_srv * (1.0 - (1.0 - a_sw) * (1.0 - a_sw))
    }

    #[test]
    fn model_extracts_components_and_paths() {
        let (_, run) = run_fixture();
        let model =
            ServiceAvailabilityModel::from_run(&run_fixture().0, &run, AnalysisOptions::default());
        assert_eq!(model.components.len(), 4);
        assert_eq!(model.systems.len(), 2);
        assert_eq!(model.systems[0].path_sets.len(), 2);
        assert_eq!(model.systems[0].path_sets[0].len(), 3);
    }

    #[test]
    fn bdd_matches_hand_computation() {
        let (infra, run) = run_fixture();
        let model = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        let expected = expected_pair_availability();
        assert!((model.pair_availability_bdd(0) - expected).abs() < 1e-12);
        // request and response use identical components → the conjunction
        // equals a single pair.
        assert!((model.availability_bdd() - expected).abs() < 1e-12);
    }

    #[test]
    fn sdp_and_bdd_agree() {
        let (infra, run) = run_fixture();
        let model = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        for i in 0..model.systems.len() {
            assert!(
                (model.pair_availability_bdd(i) - model.pair_availability_sdp(i)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn pairwise_product_underestimates_shared_pairs() {
        let (infra, run) = run_fixture();
        let model = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        let exact = model.availability_bdd();
        let naive = model.availability_pairwise_product();
        assert!(
            naive < exact,
            "naive {naive} should underestimate exact {exact}"
        );
    }

    #[test]
    fn monte_carlo_confirms_bdd() {
        let (infra, run) = run_fixture();
        // Degrade availabilities so MC has signal: use paper formula on
        // small MTBFs via a custom vector.
        let mut model =
            ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        for c in &mut model.components {
            c.availability = 0.8; // stress the structure, not the numbers
        }
        let exact = model.availability_bdd();
        let mc = model.monte_carlo(200_000, 4, 5);
        assert!(
            mc.covers(exact),
            "CI {:?} misses {exact}",
            mc.confidence_95()
        );
    }

    #[test]
    fn bitsliced_monte_carlo_confirms_bdd_and_ignores_workers() {
        let (infra, run) = run_fixture();
        let mut model =
            ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        for c in &mut model.components {
            c.availability = 0.8;
        }
        let exact = model.availability_bdd();
        let program = model.compile_mc();
        let mc = program.run(200_000, 4, 5);
        assert!(
            mc.covers(exact),
            "CI {:?} misses {exact}",
            mc.confidence_95()
        );
        // The compiled program and the convenience wrapper agree, and the
        // estimate does not depend on the worker count.
        assert_eq!(mc, model.monte_carlo(200_000, 1, 5));
        let systems: Vec<Vec<Vec<usize>>> =
            model.systems.iter().map(|s| s.path_sets.clone()).collect();
        assert_eq!(
            mc,
            crate::montecarlo::estimate(&model.availability_vector(), &systems, 200_000, 1, 5)
        );
    }

    #[test]
    fn rbd_available_for_shared_free_pairs() {
        let (infra, run) = run_fixture();
        let model = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        // Both paths share t1 and srv → no single-use RBD.
        assert!(model.pair_rbd(0).is_none());
    }

    #[test]
    fn rbd_for_single_path_pair() {
        let mut infra = Infrastructure::new("chain");
        infra
            .define_device_class(DeviceClassSpec::client("C", 100.0, 1.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("S", 100.0, 1.0))
            .unwrap();
        infra.add_device("c", "C").unwrap();
        infra.add_device("s", "S").unwrap();
        infra.connect("c", "s").unwrap();
        let svc = CompositeService::sequential("f", &["r"]).unwrap();
        let mapping = ServiceMapping::new().with(ServiceMappingPair::new("r", "c", "s"));
        let mut pipeline = UpsimPipeline::new(infra.clone(), svc, mapping).unwrap();
        let run = pipeline.run().unwrap();
        let model = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        let rbd = model.pair_rbd(0).expect("single path is single-use");
        let expected = (100.0f64 / 101.0).powi(2);
        assert!((rbd.availability(&model.availability_vector()) - expected).abs() < 1e-12);
        assert!((model.pair_availability_bdd(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn cut_sets_and_fault_tree_agree_with_bdd() {
        let (infra, run) = run_fixture();
        let model = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        for i in 0..model.systems.len() {
            let cuts = model.pair_cut_sets(i);
            // Diamond: cuts are {t1}, {srv}, {a,b} (in variable indices).
            assert_eq!(cuts.iter().filter(|c| c.len() == 1).count(), 2);
            assert_eq!(cuts.iter().filter(|c| c.len() == 2).count(), 1);
            let ft = model.pair_fault_tree(i);
            let u = ft.top_event_probability(&model.availability_vector());
            let a = model.pair_availability_bdd(i);
            assert!((a + u - 1.0).abs() < 1e-12, "pair {i}: A={a} U={u}");
        }
    }

    #[test]
    fn include_links_adds_link_components() {
        let (infra, run) = run_fixture();
        let with_links = ServiceAvailabilityModel::from_run(
            &infra,
            &run,
            AnalysisOptions {
                include_links: true,
                ..Default::default()
            },
        );
        assert_eq!(with_links.components.len(), 8, "4 devices + 4 links");
        let without = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        assert!(
            with_links.availability_bdd() < without.availability_bdd(),
            "links add failure modes"
        );
    }

    #[test]
    fn paper_formula_gives_lower_availability() {
        let (infra, run) = run_fixture();
        let exact = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        let paper = ServiceAvailabilityModel::from_run(
            &infra,
            &run,
            AnalysisOptions {
                paper_formula: true,
                ..Default::default()
            },
        );
        let a_exact = exact.availability_bdd();
        let a_paper = paper.availability_bdd();
        assert!(a_paper < a_exact);
        assert!(a_exact - a_paper < 1e-4, "approximation stays tight");
    }
}
