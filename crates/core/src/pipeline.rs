//! The eight-step methodology pipeline (paper Fig. 4 / Sec. V-B), with
//! incremental re-execution for dynamic environments.
//!
//! Steps 1–4 are the *inputs* (infrastructure, service, mapping — built
//! manually or by a generator). Steps 5–8 are fully automated here:
//!
//! 5. import infrastructure + service UML models into the model space,
//! 6. import the service mapping pairs (custom importer),
//! 7. discover all paths per mapping pair (DFS with path tracking),
//! 8. merge the paths into the UPSIM object diagram.
//!
//! Sec. V-A3 observes that each kind of system change touches only some
//! models; the pipeline exploits that: after [`UpsimPipeline::run`] the
//! imports are cached, and updates through [`UpsimPipeline::update_mapping`]
//! / [`UpsimPipeline::update_infrastructure`] /
//! [`UpsimPipeline::substitute_service`] invalidate only the affected
//! steps. [`UpsimRun::timings`] reports per-step wall time with skipped
//! (cached) steps marked, which experiment E10 uses to reproduce the
//! dynamicity claims.
//!
//! Steps 7–8 are one function, [`discover_and_merge`], which
//! [`UpsimPipeline::run`] calls after the imports. The serving path runs
//! [`discover_perspective`] instead, on a prebuilt graph view: Steps 7–8
//! sized to their answer, which lists no path and builds no object
//! diagram. The server's perspective evaluator
//! (`dependability::transform`) calls it.

use crate::discovery::{
    discover_with_workspace, record_in_space, walk_perspective, DiscoveredPaths, DiscoveryOptions,
    DiscoveryWorkspace, PerspectivePaths,
};
use crate::error::UpsimResult;
use crate::generate::{generate_upsim, kept_ratio, reduction_ratio};
use crate::importers;
use crate::infrastructure::Infrastructure;
use crate::interned::{InternedGraph, NameTable};
use crate::mapping::ServiceMapping;
use crate::service::CompositeService;
use std::sync::Arc;
use std::time::{Duration, Instant};
use uml::object_diagram::ObjectDiagram;
use vpm::ModelSpace;

/// Wall time of one methodology step in one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepTiming {
    /// Step label (`"5-import-models"`, ...).
    pub step: &'static str,
    /// Elapsed wall time (zero when cached).
    pub duration: Duration,
    /// `true` when the step was served from cache and did not re-run.
    pub cached: bool,
}

/// The result of one pipeline run.
#[derive(Debug, Clone)]
pub struct UpsimRun {
    /// The generated user-perceived service infrastructure model.
    pub upsim: ObjectDiagram,
    /// Step 7 output per mapping pair, in service execution order.
    pub discovered: Vec<DiscoveredPaths>,
    /// Per-step timings for this run.
    pub timings: Vec<StepTiming>,
    /// `|UPSIM| / |N|` over instances.
    pub reduction_ratio: f64,
}

impl UpsimRun {
    /// The discovered paths of one atomic service.
    pub fn paths_of(&self, atomic_service: &str) -> Option<&DiscoveredPaths> {
        self.discovered
            .iter()
            .find(|d| d.pair.atomic_service == atomic_service)
    }

    /// The devices this run's UPSIM touches — the invalidation footprint of
    /// the perspective. A topology edit that removes a link between two
    /// devices can only change this run's result when both endpoints appear
    /// here (every discovered path using the link visits both).
    pub fn touched_devices(&self) -> impl Iterator<Item = &str> {
        self.upsim.instances.iter().map(|i| i.name.as_str())
    }

    /// The interned name table shared by this run's discovered paths
    /// (`None` when the mapping had no pairs). All pairs of one run are
    /// discovered over the same graph view, so consumers that translate
    /// node ids — e.g. the availability-model transformation — can key a
    /// single dense cache on this table instead of hashing names.
    pub fn name_table(&self) -> Option<&Arc<crate::interned::NameTable>> {
        self.discovered.first().map(|d| d.name_table())
    }
}

/// Steps 7–8 of one perspective on the serving path
/// ([`discover_perspective`]): what an [`UpsimRun`] of the same mapping
/// reports, without its paths or its object diagram.
#[derive(Debug, Clone)]
pub struct PerspectiveRun {
    names: Arc<NameTable>,
    /// The UPSIM's devices as interned ids, ascending: infrastructure
    /// order, as [`UpsimRun::touched_devices`] lists them.
    pub upsim: Vec<u32>,
    /// Step 7's counts, components and minimal path sets.
    pub paths: PerspectivePaths,
    /// `|UPSIM| / |N|` over instances.
    pub reduction_ratio: f64,
    /// The timings of Steps 7 and 8.
    pub timings: Vec<StepTiming>,
}

impl PerspectiveRun {
    /// The UPSIM's device names, in infrastructure order.
    pub fn upsim_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.upsim.iter().map(|&id| self.names.name(id))
    }

    /// The device name of an interned id.
    pub fn name(&self, id: u32) -> &str {
        self.names.name(id)
    }
}

/// The methodology pipeline. Owns the three input models, the model space,
/// and the cached graph view.
///
/// The infrastructure and service are held behind `Arc`s: a caller that
/// already shares a model hands it over without a deep copy, and
/// [`UpsimPipeline::update_infrastructure`] copies-on-write only when an
/// edit actually lands on a shared model.
pub struct UpsimPipeline {
    infrastructure: Arc<Infrastructure>,
    service: Arc<CompositeService>,
    mapping: ServiceMapping,
    /// Record discovered paths in the model space (Step 7's reserved tree).
    /// On by default; benchmarks switch it off to time the discovery alone.
    pub record_paths: bool,
    space: ModelSpace,
    graph: Option<Arc<InternedGraph>>,
    workspace: DiscoveryWorkspace,
    models_imported: bool,
    mapping_imported: bool,
}

impl UpsimPipeline {
    /// Creates a pipeline, validating the three input models against each
    /// other (Steps 1–4 sanity). Accepts owned models or pre-shared
    /// `Arc`s — passing an `Arc` shares the model instead of copying it.
    pub fn new(
        infrastructure: impl Into<Arc<Infrastructure>>,
        service: impl Into<Arc<CompositeService>>,
        mapping: ServiceMapping,
    ) -> UpsimResult<Self> {
        let infrastructure = infrastructure.into();
        let service = service.into();
        infrastructure.validate()?;
        mapping.validate(&service, &infrastructure)?;
        Ok(UpsimPipeline {
            infrastructure,
            service,
            mapping,
            record_paths: true,
            space: ModelSpace::new(),
            graph: None,
            workspace: DiscoveryWorkspace::default(),
            models_imported: false,
            mapping_imported: false,
        })
    }

    /// The current infrastructure.
    pub fn infrastructure(&self) -> &Infrastructure {
        &self.infrastructure
    }

    /// The current service.
    pub fn service(&self) -> &CompositeService {
        &self.service
    }

    /// The current mapping.
    pub fn mapping(&self) -> &ServiceMapping {
        &self.mapping
    }

    /// The model space (inspect after a run).
    pub fn space(&self) -> &ModelSpace {
        &self.space
    }

    /// Does nothing: Step 7 has no options ([`DiscoveryOptions`]). It
    /// stays only because the benchmark still calls it, and goes with the
    /// benchmark's next revision.
    pub fn set_options(&mut self, _options: DiscoveryOptions) {}

    /// Injects a pre-built interned graph view of the infrastructure, so a
    /// caller that already holds one does not intern and prune it again.
    ///
    /// The caller must ensure the view matches [`Self::infrastructure`];
    /// any later [`Self::update_infrastructure`] drops it again.
    pub fn set_shared_graph(&mut self, graph: Arc<InternedGraph>) {
        self.graph = Some(graph);
    }

    /// The cached interned graph view, if Step 7 has built (or been handed)
    /// one since the last topology change.
    pub fn shared_graph(&self) -> Option<&Arc<InternedGraph>> {
        self.graph.as_ref()
    }

    /// Dynamicity: replaces the whole mapping. Equivalent to
    /// [`UpsimPipeline::update_mapping`] with a wholesale assignment
    /// (Step 5 stays cached, only Step 6 re-runs).
    pub fn set_mapping(&mut self, mapping: ServiceMapping) -> UpsimResult<()> {
        self.update_mapping(|m| *m = mapping)
    }

    /// Dynamicity: edits the mapping only. Invalidates Step 6 (and the
    /// outputs), keeps Step 5 caches.
    pub fn update_mapping(&mut self, edit: impl FnOnce(&mut ServiceMapping)) -> UpsimResult<()> {
        edit(&mut self.mapping);
        self.mapping.validate(&self.service, &self.infrastructure)?;
        self.mapping_imported = false;
        Ok(())
    }

    /// Dynamicity: edits the infrastructure (topology change). Invalidates
    /// Steps 5–6.
    pub fn update_infrastructure(
        &mut self,
        edit: impl FnOnce(&mut Infrastructure) -> UpsimResult<()>,
    ) -> UpsimResult<()> {
        edit(Arc::make_mut(&mut self.infrastructure))?;
        self.infrastructure.validate()?;
        self.mapping.validate(&self.service, &self.infrastructure)?;
        self.models_imported = false;
        self.mapping_imported = false;
        self.graph = None;
        Ok(())
    }

    /// Dynamicity: service substitution — replaces the service description
    /// and mapping, keeps the network model (paper Sec. V-A3).
    pub fn substitute_service(
        &mut self,
        service: CompositeService,
        mapping: ServiceMapping,
    ) -> UpsimResult<()> {
        mapping.validate(&service, &self.infrastructure)?;
        self.service = Arc::new(service);
        self.mapping = mapping;
        // The activity import is part of Step 5; re-import models.
        self.models_imported = false;
        self.mapping_imported = false;
        Ok(())
    }

    /// Runs Steps 5–8, re-using cached imports where the inputs did not
    /// change, and returns the UPSIM.
    pub fn run(&mut self) -> UpsimResult<UpsimRun> {
        let mut timings = Vec::with_capacity(4);

        // Step 5: import UML models.
        let t = Instant::now();
        let cached5 = self.models_imported;
        if !self.models_imported {
            self.space = ModelSpace::new();
            importers::import_infrastructure(&mut self.space, &self.infrastructure)?;
            importers::import_service(&mut self.space, &self.service)?;
            self.models_imported = true;
            self.mapping_imported = false;
        }
        timings.push(StepTiming {
            step: "5-import-models",
            duration: if cached5 { Duration::ZERO } else { t.elapsed() },
            cached: cached5,
        });

        // Step 6: import the service mapping.
        let t = Instant::now();
        let cached6 = self.mapping_imported;
        if !self.mapping_imported {
            importers::import_mapping(&mut self.space, &self.mapping)?;
            self.mapping_imported = true;
        }
        timings.push(StepTiming {
            step: "6-import-mapping",
            duration: if cached6 { Duration::ZERO } else { t.elapsed() },
            cached: cached6,
        });

        // Steps 7–8 on the interned graph view (cached with Step 5, or
        // injected via `set_shared_graph`). Building the view and recording
        // the paths in the space count as Step 7 time.
        let t = Instant::now();
        let graph = Arc::clone(
            self.graph
                .get_or_insert_with(|| Arc::new(self.infrastructure.to_interned_graph())),
        );
        let mut step7 = t.elapsed();
        let mut run = discover_and_merge(
            &self.infrastructure,
            &self.service,
            &self.mapping,
            &graph,
            &mut self.workspace,
        )?;
        let t = Instant::now();
        if self.record_paths {
            for d in &run.discovered {
                record_in_space(&mut self.space, d)?;
            }
        }
        step7 += t.elapsed();
        run.timings[0].duration += step7;
        timings.append(&mut run.timings);
        run.timings = timings;
        Ok(run)
    }
}

/// Steps 7–8 on a prebuilt graph view of `infrastructure`: discovers every
/// path of each mapping pair, in service execution order, and merges them
/// into the UPSIM. The run's timings hold these two steps only. The
/// mapping must already be valid for `service` and `infrastructure`
/// ([`ServiceMapping::validate`]); nothing here reads or builds a model
/// space.
pub fn discover_and_merge(
    infrastructure: &Infrastructure,
    service: &CompositeService,
    mapping: &ServiceMapping,
    graph: &InternedGraph,
    workspace: &mut DiscoveryWorkspace,
) -> UpsimResult<UpsimRun> {
    let t = Instant::now();
    let discovered = mapping
        .for_service(service)?
        .into_iter()
        .map(|pair| discover_with_workspace(graph, pair, workspace))
        .collect::<UpsimResult<Vec<_>>>()?;
    let step7 = t.elapsed();

    let t = Instant::now();
    let upsim = generate_upsim(
        infrastructure,
        &discovered,
        format!("upsim-{}", service.name()),
    );
    let timings = vec![
        StepTiming {
            step: "7-path-discovery",
            duration: step7,
            cached: false,
        },
        StepTiming {
            step: "8-generate-upsim",
            duration: t.elapsed(),
            cached: false,
        },
    ];
    Ok(UpsimRun {
        reduction_ratio: reduction_ratio(infrastructure, &upsim),
        upsim,
        discovered,
        timings,
    })
}

/// Steps 7–8 of one perspective at the size of their answer, on a
/// prebuilt graph view of `infrastructure`. Step 7 is
/// [`walk_perspective`] over the mapping's pairs in service execution
/// order. Step 8 reads the UPSIM off the union of the pairs' masks: every
/// node of a block on the block-cut-tree path between two endpoints lies
/// on a simple path between them, so the union holds exactly the devices
/// on some discovered path, the nodes [`generate_upsim`] keeps. The
/// mapping must already be valid for `service` and `infrastructure`.
pub fn discover_perspective(
    infrastructure: &Infrastructure,
    service: &CompositeService,
    mapping: &ServiceMapping,
    graph: &InternedGraph,
    workspace: &mut DiscoveryWorkspace,
) -> UpsimResult<PerspectiveRun> {
    let t = Instant::now();
    let paths = walk_perspective(graph, &mapping.for_service(service)?, workspace)?;
    let step7 = t.elapsed();

    let t = Instant::now();
    let upsim: Vec<u32> = (0u32..)
        .zip(&workspace.upsim)
        .filter_map(|(id, &kept)| kept.then_some(id))
        .collect();
    let reduction_ratio = kept_ratio(infrastructure, upsim.len());
    let timings = vec![
        StepTiming {
            step: "7-path-discovery",
            duration: step7,
            cached: false,
        },
        StepTiming {
            step: "8-generate-upsim",
            duration: t.elapsed(),
            cached: false,
        },
    ];
    Ok(PerspectiveRun {
        names: Arc::clone(graph.names()),
        upsim,
        paths,
        reduction_ratio,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infrastructure::DeviceClassSpec;
    use crate::mapping::ServiceMappingPair;
    use std::collections::HashMap;

    /// t1, t2 - sw - srv1, srv2
    fn fixture() -> (Infrastructure, CompositeService, ServiceMapping) {
        let mut infra = Infrastructure::new("mini");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::switch("Sw", 61320.0, 0.5))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1))
            .unwrap();
        for (n, c) in [
            ("t1", "Comp"),
            ("t2", "Comp"),
            ("sw", "Sw"),
            ("srv1", "Server"),
            ("srv2", "Server"),
        ] {
            infra.add_device(n, c).unwrap();
        }
        for (a, b) in [("t1", "sw"), ("t2", "sw"), ("sw", "srv1"), ("sw", "srv2")] {
            infra.connect(a, b).unwrap();
        }
        let svc = CompositeService::sequential("fetch", &["request", "response"]).unwrap();
        let mapping = ServiceMapping::new()
            .with(ServiceMappingPair::new("request", "t1", "srv1"))
            .with(ServiceMappingPair::new("response", "srv1", "t1"));
        (infra, svc, mapping)
    }

    #[test]
    fn full_run_produces_upsim() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        let run = p.run().unwrap();
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t1", "sw", "srv1"]);
        assert_eq!(run.discovered.len(), 2);
        assert!((run.reduction_ratio - 3.0 / 5.0).abs() < 1e-12);
        assert!(run.timings.iter().all(|t| !t.cached));
        // Paths recorded in the space.
        assert!(p.space().resolve("paths.request.p0").is_ok());
    }

    #[test]
    fn second_run_uses_caches() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        let run2 = p.run().unwrap();
        let cached: Vec<&str> = run2
            .timings
            .iter()
            .filter(|t| t.cached)
            .map(|t| t.step)
            .collect();
        assert_eq!(cached, vec!["5-import-models", "6-import-mapping"]);
    }

    #[test]
    fn mapping_update_invalidates_only_step6() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        p.update_mapping(|m| {
            // A user-perspective change touches both roles of the client
            // component: requester of "request", provider of "response".
            m.move_requester("t1", "t2");
            m.migrate_provider("t1", "t2");
        })
        .unwrap();
        let run = p.run().unwrap();
        let by_step: HashMap<&str, bool> = run.timings.iter().map(|t| (t.step, t.cached)).collect();
        assert!(by_step["5-import-models"]);
        assert!(!by_step["6-import-mapping"]);
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t2", "sw", "srv1"]);
    }

    #[test]
    fn invalid_mapping_update_is_rejected_and_state_kept() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        let err = p.update_mapping(|m| {
            m.move_requester("t1", "ghost");
        });
        assert!(err.is_err());
    }

    #[test]
    fn topology_update_invalidates_models() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        // Add a redundant switch path: sw2 between t1 and srv1.
        p.update_infrastructure(|infra| {
            infra.add_device("sw2", "Sw")?;
            infra.connect("t1", "sw2")?;
            infra.connect("sw2", "srv1")?;
            Ok(())
        })
        .unwrap();
        let run = p.run().unwrap();
        assert!(run.timings.iter().all(|t| !t.cached));
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t1", "sw", "srv1", "sw2"]);
        assert_eq!(run.paths_of("request").unwrap().len(), 2);
    }

    #[test]
    fn provider_migration_changes_upsim() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        p.update_mapping(|m| {
            m.migrate_provider("srv1", "srv2");
            m.move_requester("srv1", "srv2");
        })
        .unwrap();
        let run = p.run().unwrap();
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t1", "sw", "srv2"]);
    }

    #[test]
    fn service_substitution_keeps_network_model() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.run().unwrap();
        let svc2 = CompositeService::sequential("backup", &["store"]).unwrap();
        let map2 = ServiceMapping::new().with(ServiceMappingPair::new("store", "t2", "srv2"));
        p.substitute_service(svc2, map2).unwrap();
        let run = p.run().unwrap();
        let names: Vec<&str> = run
            .upsim
            .instances
            .iter()
            .map(|x| x.name.as_str())
            .collect();
        assert_eq!(names, vec!["t2", "sw", "srv2"]);
    }

    #[test]
    fn disconnected_pair_yields_empty_paths_not_error() {
        let (mut i, s, m) = fixture();
        i.disconnect("t1", "sw").unwrap();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        let run = p.run().unwrap();
        assert!(run.paths_of("request").unwrap().is_empty());
        // Response direction equally empty; UPSIM is empty.
        assert!(run.upsim.instances.is_empty());
    }

    #[test]
    fn cache_state_tracks_dynamicity() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m.clone()).unwrap();
        let cached =
            |run: UpsimRun| -> Vec<bool> { run.timings.iter().map(|t| t.cached).collect() };
        // A fresh pipeline runs every step; a repeat serves both imports
        // from cache and keeps the graph view.
        assert_eq!(cached(p.run().unwrap()), [false; 4]);
        assert_eq!(cached(p.run().unwrap()), [true, true, false, false]);
        assert!(p.shared_graph().is_some());
        // Wholesale mapping replacement invalidates Step 6 only.
        p.set_mapping(m).unwrap();
        assert!(p.shared_graph().is_some());
        assert_eq!(cached(p.run().unwrap()), [true, false, false, false]);
        // Topology change invalidates everything.
        p.update_infrastructure(|infra| {
            infra.add_device("sw9", "Sw")?;
            infra.connect("sw9", "sw")?;
            Ok(())
        })
        .unwrap();
        assert!(p.shared_graph().is_none());
        assert_eq!(cached(p.run().unwrap()), [false; 4]);
    }

    #[test]
    fn touches_link_matches_upsim_membership() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        let run = p.run().unwrap();
        // UPSIM is {t1, sw, srv1}: srv2 and t2 are off every path.
        let touched: Vec<&str> = run.touched_devices().collect();
        assert_eq!(touched, vec!["t1", "sw", "srv1"]);
    }

    #[test]
    fn record_paths_can_be_disabled() {
        let (i, s, m) = fixture();
        let mut p = UpsimPipeline::new(i, s, m).unwrap();
        p.record_paths = false;
        p.run().unwrap();
        assert!(p.space().resolve("paths").is_err());
    }
}
