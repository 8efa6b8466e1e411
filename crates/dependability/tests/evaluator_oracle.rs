//! The full pipeline is the test oracle of the perspective evaluator
//! ([`dependability::evaluate_perspective`]). On random campuses, random
//! perspectives and random closed-sojourn observations, the evaluator —
//! Steps 7–8 on a prebuilt graph view, no model space — must give what a
//! full `UpsimPipeline` run (Steps 5–8, paths recorded in the model
//! space) followed by `from_run` and `overlay_model` gives: the same paths
//! in the same order, the same UPSIM, reduction ratio, availability bits,
//! Monte-Carlo estimate and posteriors. Its errors read as the pipeline's.
//!
//! On the same inputs, every answer must be a function of the set of
//! paths Step 7 finds, not of the order it lists them in: the sequential
//! DFS and the parallel enumerator (sorted order) must give the same
//! model, the same bits for every exact and Monte-Carlo price, and
//! byte-identical campaign reports.

use std::sync::Arc;

use dependability::perturb::availability_with;
use dependability::transform::{evaluate_perspective, AnalysisOptions, ServiceAvailabilityModel};
use dependability::{overlay_model, ParamEstimator, ParamSource};
use netgen::campus::{campus_infrastructure, CampusParams};
use netgen::services::{random_mapping, sequential_service};
use proptest::prelude::*;
use upsim_campaign::{aggregate, run_serial, CampaignInput, CampaignSpec, PerspectiveMapper};
use upsim_core::discovery::{DiscoveryOptions, DiscoveryWorkspace};
use upsim_core::infrastructure::Infrastructure;
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

/// Closed up/down sojourns on random devices, on one clock that only
/// moves forward, so every component's timestamps advance.
fn observed(infra: &Infrastructure, observations: Vec<(usize, u64, u64, usize)>) -> ParamEstimator {
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
    estimator
}

/// The requester and provider a generated mapping alternates between.
fn perspective(mapping: &ServiceMapping) -> (String, String) {
    let first = &mapping.pairs()[0];
    (first.requester.clone(), first.provider.clone())
}

/// The credible-corner probability vector the engine prices for `QUERY`'s
/// `ci95=` bounds: observed components at an end of their 95% interval.
fn corner(model: &ServiceAvailabilityModel, low: bool) -> Vec<f64> {
    model
        .components
        .iter()
        .map(|c| match c.source {
            ParamSource::Observed { ci, .. } if low => ci.0,
            ParamSource::Observed { ci, .. } => ci.1,
            _ => c.availability,
        })
        .collect()
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
        let estimator = observed(&infra, observations);

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

    #[test]
    fn answers_do_not_depend_on_path_order(
        params in params_strategy(),
        service_len in 1usize..5,
        seed in 0u64..1000,
        observations in proptest::collection::vec(observation_strategy(), 0..5),
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", service_len);
        let mapping = random_mapping(&service, &infra, seed);
        let estimator = Arc::new(observed(&infra, observations));
        let graph = Arc::new(infra.to_interned_graph());
        let shape = format!("{params:?}, {service_len} steps, seed {seed}");
        let modes = [
            DiscoveryOptions::default(),
            DiscoveryOptions { parallel: true, threads: 2, ..Default::default() },
        ];

        let mut workspace = DiscoveryWorkspace::default();
        let [(dfs_run, dfs, dfs_posteriors), (sorted_run, sorted, sorted_posteriors)] =
            modes.map(|discovery| {
                evaluate_perspective(
                    &infra, &service, &graph, &mapping, &estimator, discovery, &mut workspace,
                )
                .unwrap()
            });
        // The two modes find the same paths per pair, in their own orders.
        for (a, b) in dfs_run.discovered.iter().zip(&sorted_run.discovered) {
            let mut paths: Vec<_> = a.interned().iter().zip(&a.link_paths).collect();
            paths.sort();
            let listed: Vec<_> = b.interned().iter().zip(&b.link_paths).collect();
            prop_assert_eq!(paths, listed, "{}", shape);
        }
        prop_assert_eq!(&dfs, &sorted, "{}", shape);
        prop_assert_eq!(&dfs_posteriors, &sorted_posteriors, "{}", shape);
        prop_assert_eq!(
            dfs.availability_bdd().to_bits(),
            sorted.availability_bdd().to_bits(),
            "{}", shape
        );
        for low in [true, false] {
            prop_assert_eq!(
                availability_with(&dfs, &corner(&dfs, low)).to_bits(),
                availability_with(&sorted, &corner(&sorted, low)).to_bits(),
                "{}", shape
            );
        }
        let (dfs_mc, sorted_mc) = (dfs.compile_mc(), sorted.compile_mc());
        prop_assert_eq!(dfs_mc.run(4096, 1, seed), sorted_mc.run(4096, 2, seed), "{}", shape);
        prop_assert_eq!(
            dfs_mc.run_posterior(4096, 1, seed, &dfs_mc.posterior_sampler(&dfs_posteriors)),
            sorted_mc.run_posterior(4096, 2, seed, &sorted_mc.posterior_sampler(&sorted_posteriors)),
            "{}", shape
        );

        // Campaigns price the same spec the same way in both modes.
        let mapper: PerspectiveMapper = Arc::new(|service, client, provider| {
            let mut mapping = ServiceMapping::new();
            for (i, atomic) in service.atomic_services().into_iter().enumerate() {
                let (rq, pr) = if i % 2 == 0 { (client, provider) } else { (provider, client) };
                mapping.add(ServiceMappingPair::new(atomic, rq, pr));
            }
            mapping
        });
        let (c1, p1) = perspective(&mapping);
        let (c2, p2) = perspective(&random_mapping(&service, &infra, seed + 1));
        let pairs = format!("pairs:{c1}:{p1},{c2}:{p2}");
        for spec in [
            format!("kill-each-component {pairs}"),
            format!("scale-mtbf:*:0.5,2 mc:2048:{seed} {pairs}"),
        ] {
            let [dfs_json, sorted_json] = modes.map(|discovery| {
                let input = CampaignInput::prepare(
                    infra.clone(),
                    service.clone(),
                    Arc::clone(&mapper),
                    discovery,
                    Some(Arc::clone(&graph)),
                    Arc::clone(&estimator),
                    CampaignSpec::parse(&spec).unwrap(),
                )
                .unwrap();
                let (baseline, outcomes) = run_serial(&input).unwrap();
                aggregate(&input, &baseline, &outcomes).render_json()
            });
            prop_assert_eq!(dfs_json, sorted_json, "{}: {}", shape, spec);
        }
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
