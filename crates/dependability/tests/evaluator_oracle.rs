//! The full pipeline is the test oracle of the perspective evaluator
//! ([`dependability::evaluate_perspective`]). On random campuses, random
//! perspectives and random closed-sojourn observations, the evaluator —
//! Steps 7–8 sized to their answer on a prebuilt graph view, no model
//! space, no path listed — must give what a full `UpsimPipeline` run
//! (Steps 5–8, paths recorded in the model space) followed by `from_run`
//! and `overlay_model` gives: the same components in the same order, the
//! same path sets, UPSIM, reduction ratio, per-pair path counts,
//! availability bits, Monte-Carlo estimate and posteriors, with the exact
//! Formula 1 and with the paper's printed one. Its errors read as the
//! pipeline's.
//!
//! The evaluator must answer so whatever block walks the view has kept:
//! on one view serving many perspectives in any order, and on a fresh
//! view per perspective.
//!
//! On the same inputs, the oracle's answers must be a function of the set
//! of paths Step 7 finds, not of the order it lists them in: a copy of the
//! model whose links are listed in reverse order has the same devices, and
//! so the same interned ids, but reversed adjacency lists, so its DFS lists
//! each pair's paths in another order. Both copies must give the same
//! model and the same bits for every exact and Monte-Carlo price, and a
//! campaign's baselines must be the evaluator's models.

use std::sync::Arc;

use dependability::perturb::availability_with;
use dependability::transform::{evaluate_perspective, AnalysisOptions, ServiceAvailabilityModel};
use dependability::{overlay_model, ParamEstimator, ParamSource, PosteriorComponent};
use netgen::campus::{campus_infrastructure, CampusParams};
use netgen::services::{random_mapping, sequential_service};
use netgen::usi::{printing_service, table_i_mapping, usi_infrastructure};
use proptest::prelude::*;
use upsim_campaign::{run_serial, CampaignInput, CampaignSpec, PerspectiveMapper};
use upsim_core::discovery::{DiscoveryOptions, DiscoveryWorkspace};
use upsim_core::infrastructure::Infrastructure;
use upsim_core::mapping::{ServiceMapping, ServiceMappingPair};
use upsim_core::pipeline::{UpsimPipeline, UpsimRun};
use upsim_core::service::CompositeService;

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

/// A mapping whose steps run between devices of a three-device pool, so
/// that pairs share endpoints in both orientations, differ in one
/// endpoint, or are co-located: `picks[i]` names step i's requester and
/// provider by pool index.
fn pooled_mapping(
    service: &CompositeService,
    infra: &Infrastructure,
    pool: &[usize],
    picks: &[(usize, usize)],
) -> ServiceMapping {
    let device = |k: usize| {
        let instances = &infra.objects.instances;
        instances[pool[k % pool.len()] % instances.len()]
            .name
            .clone()
    };
    let mut mapping = ServiceMapping::new();
    for (i, atomic) in service.atomic_services().into_iter().enumerate() {
        let (rq, pr) = picks[i % picks.len()];
        mapping.add(ServiceMappingPair::new(atomic, device(rq), device(pr)));
    }
    mapping
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

type Oracle = (
    UpsimRun,
    ServiceAvailabilityModel,
    Vec<Option<PosteriorComponent>>,
);

/// A full pipeline run (paths recorded in the model space), `from_run`
/// with the default options, and the overlay.
fn oracle(
    infra: &Infrastructure,
    service: &CompositeService,
    mapping: &ServiceMapping,
    estimator: &ParamEstimator,
) -> Oracle {
    let mut pipeline = UpsimPipeline::new(infra.clone(), service.clone(), mapping.clone()).unwrap();
    let run = pipeline.run().unwrap();
    assert!(
        pipeline.space().resolve("paths").is_ok(),
        "oracle records paths"
    );
    let mut model = ServiceAvailabilityModel::from_run(
        pipeline.infrastructure(),
        &run,
        AnalysisOptions::default(),
    );
    let posteriors = overlay_model(&mut model, estimator, false);
    (run, model, posteriors)
}

/// What the evaluator answers for one perspective.
type Evaluated = (
    upsim_core::pipeline::PerspectiveRun,
    ServiceAvailabilityModel,
    Vec<Option<PosteriorComponent>>,
);

/// The evaluator's answer against the oracle's: the same components in the
/// same order, path sets, model, UPSIM, reduction ratio, per-pair path
/// counts, availability bits and posteriors.
fn agrees_with(evaluated: &Evaluated, oracle: &Oracle, shape: &str) -> Result<(), TestCaseError> {
    let (run, model, posteriors) = evaluated;
    let (expected, expected_model, expected_posteriors) = oracle;
    let names = |m: &ServiceAvailabilityModel| {
        m.components
            .iter()
            .map(|c| c.name.clone())
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(names(model), names(expected_model), "{}", shape);
    for (mine, theirs) in model.systems.iter().zip(&expected_model.systems) {
        prop_assert_eq!(&mine.path_sets, &theirs.path_sets, "{}", shape);
    }
    prop_assert_eq!(model, expected_model, "{}", shape);
    prop_assert_eq!(
        run.upsim_names().collect::<Vec<_>>(),
        expected.touched_devices().collect::<Vec<_>>(),
        "{}",
        shape
    );
    prop_assert_eq!(
        run.reduction_ratio.to_bits(),
        expected.reduction_ratio.to_bits()
    );
    let counts: Vec<_> = run.paths.pairs.iter().map(|p| (&p.pair, p.paths)).collect();
    let expected_counts: Vec<_> = expected
        .discovered
        .iter()
        .map(|d| (&d.pair, d.len()))
        .collect();
    prop_assert_eq!(counts, expected_counts, "{}", shape);
    prop_assert_eq!(
        model.availability_bdd().to_bits(),
        expected_model.availability_bdd().to_bits()
    );
    prop_assert_eq!(posteriors, expected_posteriors);
    Ok(())
}

/// A copy of `infra` with its links listed in reverse order: the same
/// devices, and so the same interned ids, but every adjacency list
/// reversed, so Step 7 lists each pair's paths in another DFS order.
fn reversed_links(infra: &Infrastructure) -> Infrastructure {
    let mut reversed = infra.clone();
    reversed.objects.links.reverse();
    reversed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn evaluator_matches_the_full_pipeline(
        params in params_strategy(),
        service_len in 1usize..5,
        seed in 0u64..1000,
        pooled in any::<bool>(),
        pool in proptest::collection::vec(0usize..10_000, 3),
        picks in proptest::collection::vec((0usize..3, 0usize..3), 4),
        observations in proptest::collection::vec(observation_strategy(), 0..5),
    ) {
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", service_len);
        let mapping = if pooled {
            pooled_mapping(&service, &infra, &pool, &picks)
        } else {
            random_mapping(&service, &infra, seed)
        };
        let estimator = observed(&infra, observations);
        let shape = format!("{params:?}, {mapping:?}");

        // The engine hands each worker one workspace for every perspective
        // it evaluates: warm it on another perspective first.
        let graph = infra.to_interned_graph();
        let mut workspace = DiscoveryWorkspace::default();
        let other = random_mapping(&service, &infra, seed + 1);
        evaluate_perspective(&infra, &service, &graph, &other, &estimator, false, &mut workspace)
            .unwrap();
        let (run, model, posteriors) = evaluate_perspective(
            &infra, &service, &graph, &mapping, &estimator, false, &mut workspace,
        )
        .unwrap();

        let expected = oracle(&infra, &service, &mapping, &estimator);
        let evaluated = (run, model, posteriors);
        agrees_with(&evaluated, &expected, &shape)?;
        let ((_, model, posteriors), (expected, expected_model, expected_posteriors)) =
            (evaluated, expected);
        for low in [true, false] {
            prop_assert_eq!(
                availability_with(&model, &corner(&model, low)).to_bits(),
                availability_with(&expected_model, &corner(&expected_model, low)).to_bits()
            );
        }
        let (mc, expected_mc) = (model.compile_mc(), expected_model.compile_mc());
        prop_assert_eq!(mc.run(4096, 1, seed), expected_mc.run(4096, 1, seed));
        prop_assert_eq!(
            mc.run_posterior(4096, 1, seed, &mc.posterior_sampler(&posteriors)),
            expected_mc.run_posterior(
                4096, 1, seed, &expected_mc.posterior_sampler(&expected_posteriors)
            )
        );

        // With the paper's printed Formula 1 the evaluator builds, and
        // overlays, what `from_run` builds with it.
        let (_, paper, paper_posteriors) = evaluate_perspective(
            &infra, &service, &graph, &mapping, &estimator, true, &mut workspace,
        )
        .unwrap();
        let paper_formula = AnalysisOptions { paper_formula: true, ..AnalysisOptions::default() };
        let mut expected_paper = ServiceAvailabilityModel::from_run(&infra, &expected, paper_formula);
        let expected_paper_posteriors = overlay_model(&mut expected_paper, &estimator, true);
        prop_assert_eq!(&paper, &expected_paper, "{}", shape);
        prop_assert_eq!(&paper_posteriors, &expected_paper_posteriors);
        prop_assert_eq!(
            paper.availability_bdd().to_bits(),
            expected_paper.availability_bdd().to_bits()
        );
    }

    #[test]
    fn one_view_serving_many_perspectives_matches_the_full_pipeline(
        params in params_strategy(),
        service_len in 1usize..5,
        seeds in proptest::collection::vec(0u64..1000, 2..6),
        observations in proptest::collection::vec(observation_strategy(), 0..3),
    ) {
        // The engine evaluates every perspective of a view on that view, so
        // its kept block walks serve the perspectives drawn after the
        // first: in the order drawn, then again in reverse.
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", service_len);
        let estimator = observed(&infra, observations);
        let graph = infra.to_interned_graph();
        let mut workspace = DiscoveryWorkspace::default();
        let oracles: Vec<Oracle> = seeds
            .iter()
            .map(|&seed| oracle(&infra, &service, &random_mapping(&service, &infra, seed), &estimator))
            .collect();
        for (i, &seed) in seeds.iter().enumerate().chain(seeds.iter().enumerate().rev()) {
            let mapping = random_mapping(&service, &infra, seed);
            let shape = format!("{params:?}, {mapping:?}");
            let evaluated = evaluate_perspective(
                &infra, &service, &graph, &mapping, &estimator, false, &mut workspace,
            )
            .unwrap();
            agrees_with(&evaluated, &oracles[i], &shape)?;
        }
    }

    #[test]
    fn a_fresh_view_per_perspective_matches_the_full_pipeline(
        params in params_strategy(),
        service_len in 1usize..5,
        seeds in proptest::collection::vec(0u64..1000, 1..4),
    ) {
        // A view of its own per perspective, as the CLI and a campaign's
        // cut scenarios build: every block walk made afresh.
        let infra = campus_infrastructure(params);
        let service = sequential_service("svc", service_len);
        let estimator = ParamEstimator::new();
        let mut workspace = DiscoveryWorkspace::default();
        for seed in seeds {
            let mapping = random_mapping(&service, &infra, seed);
            let shape = format!("{params:?}, {mapping:?}");
            let evaluated = evaluate_perspective(
                &infra, &service, &infra.to_interned_graph(), &mapping, &estimator, false,
                &mut workspace,
            )
            .unwrap();
            agrees_with(&evaluated, &oracle(&infra, &service, &mapping, &estimator), &shape)?;
        }
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

        let [(dfs_run, dfs, dfs_posteriors), (reversed_run, reversed, reversed_posteriors)] =
            [infra.clone(), reversed_links(&infra)]
                .map(|infra| oracle(&infra, &service, &mapping, &estimator));
        // The two listings hold the same paths per pair as node sequences,
        // in their own orders.
        for (a, b) in dfs_run.discovered.iter().zip(&reversed_run.discovered) {
            let mut paths = a.interned().to_vec();
            let mut listed = b.interned().to_vec();
            paths.sort();
            listed.sort();
            prop_assert_eq!(paths, listed, "{}", shape);
        }
        prop_assert_eq!(&dfs, &reversed, "{}", shape);
        prop_assert_eq!(&dfs_posteriors, &reversed_posteriors, "{}", shape);
        prop_assert_eq!(
            dfs.availability_bdd().to_bits(),
            reversed.availability_bdd().to_bits(),
            "{}", shape
        );
        for low in [true, false] {
            prop_assert_eq!(
                availability_with(&dfs, &corner(&dfs, low)).to_bits(),
                availability_with(&reversed, &corner(&reversed, low)).to_bits(),
                "{}", shape
            );
        }
        let (dfs_mc, reversed_mc) = (dfs.compile_mc(), reversed.compile_mc());
        prop_assert_eq!(dfs_mc.run(4096, 1, seed), reversed_mc.run(4096, 2, seed), "{}", shape);
        prop_assert_eq!(
            dfs_mc.run_posterior(4096, 1, seed, &dfs_mc.posterior_sampler(&dfs_posteriors)),
            reversed_mc.run_posterior(
                4096, 2, seed, &reversed_mc.posterior_sampler(&reversed_posteriors)
            ),
            "{}", shape
        );

        // A campaign's baselines are the oracle's models, perspective by
        // perspective.
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
        let spec = format!("kill-each-component pairs:{c1}:{p1},{c2}:{p2}");
        let input = CampaignInput::prepare(
            infra.clone(),
            service.clone(),
            Arc::clone(&mapper),
            DiscoveryOptions,
            Some(Arc::clone(&graph)),
            Arc::clone(&estimator),
            CampaignSpec::parse(&spec).unwrap(),
        )
        .unwrap();
        let (baseline, _) = run_serial(&input).unwrap();
        for persp in &baseline.perspectives {
            let mapping = mapper(&service, &persp.client, &persp.provider);
            let (run, model, _) = oracle(&infra, &service, &mapping, &estimator);
            prop_assert_eq!(&persp.model, &model, "{}: {}", shape, spec);
            prop_assert_eq!(persp.availability.to_bits(), model.availability_bdd().to_bits());
            let mut upsim: Vec<&str> = persp.upsim.iter().map(String::as_str).collect();
            let mut expected: Vec<&str> = run.touched_devices().collect();
            upsim.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(upsim, expected, "{}: {}", shape, spec);
        }
    }
}

/// Reversing the link list permutes Step 7's listing, so the proptest
/// above compares two orders: on the USI model the six paths of
/// `t1 → printS` come out in another order, and the model is the same.
#[test]
fn reversed_links_list_the_usi_paths_in_another_order() {
    let infra = usi_infrastructure();
    let [(run, model, _), (reversed_run, reversed, _)] = [infra.clone(), reversed_links(&infra)]
        .map(|infra| {
            oracle(
                &infra,
                &printing_service(),
                &table_i_mapping(),
                &ParamEstimator::new(),
            )
        });
    let listed = run.paths_of("Request printing").unwrap().interned();
    let reversed_listed = reversed_run
        .paths_of("Request printing")
        .unwrap()
        .interned();
    assert_eq!(listed.len(), 6);
    assert_ne!(listed, reversed_listed);
    let (mut paths, mut reversed_paths) = (listed.to_vec(), reversed_listed.to_vec());
    paths.sort();
    reversed_paths.sort();
    assert_eq!(paths, reversed_paths);
    assert_eq!(model, reversed);
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
            false,
            &mut DiscoveryWorkspace::default(),
        )
        .expect_err("the evaluator refuses the mapping")
        .to_string();
        assert_eq!(refused, oracle);
        assert_eq!(refused, expected);
    }
}
