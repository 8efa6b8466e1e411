//! The full pipeline is the test oracle of the perspective evaluator
//! ([`dependability::evaluate_perspective`]). On random campuses, random
//! perspectives and random closed-sojourn observations, the evaluator —
//! Steps 7–8 on a prebuilt graph view, no model space — must give what a
//! full `UpsimPipeline` run (Steps 5–8, paths recorded in the model
//! space) followed by `from_run` and `overlay_model` gives: the same paths
//! in the same order, the same UPSIM, reduction ratio, availability bits,
//! Monte-Carlo estimate and posteriors. Its errors read as the pipeline's.

use dependability::transform::{evaluate_perspective, AnalysisOptions, ServiceAvailabilityModel};
use dependability::{overlay_model, ParamEstimator};
use netgen::campus::{campus_infrastructure, CampusParams};
use netgen::services::{random_mapping, sequential_service};
use proptest::prelude::*;
use upsim_core::discovery::{DiscoveryOptions, DiscoveryWorkspace};
use upsim_core::mapping::{ServiceMapping, ServiceMappingPair};
use upsim_core::pipeline::UpsimPipeline;

fn params_strategy() -> impl Strategy<Value = CampusParams> {
    (
        1usize..=3,
        1usize..=4,
        1usize..=2,
        1usize..=4,
        1usize..=3,
        any::<bool>(),
    )
        .prop_map(
            |(core, distributions, edges, clients, servers, dual)| CampusParams {
                core,
                distributions,
                edges_per_distribution: edges,
                clients_per_edge: clients,
                servers,
                dual_homed_edges: dual,
            },
        )
}

/// One observed device: `(device index, up seconds, down seconds,
/// closed sojourns)`.
fn observation_strategy() -> impl Strategy<Value = (usize, u64, u64, usize)> {
    (0usize..10_000, 1u64..500_000, 1u64..50_000, 1usize..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn evaluator_matches_the_full_pipeline(
        params in params_strategy(),
        service_len in 1usize..5,
        seed in 0u64..1000,
        parallel in any::<bool>(),
        observations in proptest::collection::vec(observation_strategy(), 0..5),
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", service_len);
        let mapping = random_mapping(&service, &infra, seed);
        let discovery = DiscoveryOptions { parallel, threads: 2, ..Default::default() };

        // Closed up/down sojourns on random devices, on one clock that
        // only moves forward, so every component's timestamps advance.
        let mut estimator = ParamEstimator::new();
        let mut ts = 0u64;
        for (device, up, down, sojourns) in observations {
            let name = &infra.objects.instances[device % infra.objects.instances.len()].name;
            ts += 1;
            estimator.observe(name, true, ts).unwrap();
            for _ in 0..sojourns {
                ts += up;
                estimator.observe(name, false, ts).unwrap();
                ts += down;
                estimator.observe(name, true, ts).unwrap();
            }
        }

        let mut pipeline =
            UpsimPipeline::new(infra.clone(), service.clone(), mapping.clone()).unwrap();
        pipeline.set_options(discovery);
        let expected = pipeline.run().unwrap();
        prop_assert!(pipeline.space().resolve("paths").is_ok(), "oracle records paths");
        let mut expected_model = ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &expected,
            AnalysisOptions::default(),
        );
        let expected_posteriors = overlay_model(&mut expected_model, &estimator, false);

        // The engine hands each worker one workspace for every perspective
        // it evaluates: warm it on another perspective first.
        let graph = infra.to_interned_graph();
        let mut workspace = DiscoveryWorkspace::default();
        let other = random_mapping(&service, &infra, seed + 1);
        evaluate_perspective(
            &infra, &service, &graph, &other, &estimator, discovery, &mut workspace,
        )
        .unwrap();
        let (run, model, posteriors) = evaluate_perspective(
            &infra, &service, &graph, &mapping, &estimator, discovery, &mut workspace,
        )
        .unwrap();

        prop_assert_eq!(&run.discovered, &expected.discovered);
        prop_assert_eq!(&run.upsim, &expected.upsim);
        prop_assert_eq!(run.reduction_ratio.to_bits(), expected.reduction_ratio.to_bits());
        prop_assert_eq!(&model, &expected_model);
        prop_assert_eq!(
            model.availability_bdd().to_bits(),
            expected_model.availability_bdd().to_bits()
        );
        prop_assert_eq!(
            model.compile_mc().run(4096, 1, seed),
            expected_model.compile_mc().run(4096, 1, seed)
        );
        prop_assert_eq!(posteriors, expected_posteriors);
    }
}

/// The evaluator refuses a bad mapping with the pipeline's error.
#[test]
fn evaluator_errors_read_as_the_pipelines() {
    let infra = campus_infrastructure(CampusParams::default());
    let service = sequential_service("svc", 2);
    let client = infra.objects.instances[0].name.clone();
    let unknown_device = ServiceMapping::new()
        .with(ServiceMappingPair::new("svc-as0", &client, "ghost"))
        .with(ServiceMappingPair::new("svc-as1", "ghost", &client));
    let unmapped_step =
        ServiceMapping::new().with(ServiceMappingPair::new("svc-as0", &client, &client));
    let graph = infra.to_interned_graph();
    for (mapping, expected) in [
        (
            unknown_device,
            "mapping pair for 'svc-as0': provider 'ghost' is not an ICT component of the infrastructure",
        ),
        (
            unmapped_step,
            "atomic service 'svc-as1' has no service mapping pair",
        ),
    ] {
        let oracle = UpsimPipeline::new(infra.clone(), service.clone(), mapping.clone())
            .err()
            .expect("the pipeline refuses the mapping")
            .to_string();
        let refused = evaluate_perspective(
            &infra,
            &service,
            &graph,
            &mapping,
            &ParamEstimator::new(),
            DiscoveryOptions::default(),
            &mut DiscoveryWorkspace::default(),
        )
        .expect_err("the evaluator refuses the mapping")
        .to_string();
        assert_eq!(refused, oracle);
        assert_eq!(refused, expected);
    }
}
