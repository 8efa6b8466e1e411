//! Cross-validation of the compiled bit-sliced Monte-Carlo kernel
//! ([`dependability::McProgram`]) on full pipeline-built models:
//!
//! * property: on random generated campuses the bit-sliced run of the
//!   constant-folded program agrees **exactly** (bit for bit) with the
//!   trial-at-a-time reference sampler `montecarlo::estimate` over the
//!   raw path sets, and the estimate is invariant under the worker count,
//! * statistics: over all 45 USI printing perspectives the 95% CI of a
//!   200 000-sample run covers the BDD-exact availability for (almost)
//!   every perspective — the E-series entry in EXPERIMENTS.md records
//!   the deterministic outcome for the committed seed.

use dependability::montecarlo::{estimate, MonteCarloResult};
use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use netgen::campus::{campus_scenario, CampusParams};
use netgen::usi::{all_printing_perspectives, printing_service, usi_infrastructure};
use proptest::prelude::*;
use upsim_core::pipeline::UpsimPipeline;

/// Builds the availability model of one campus perspective through the
/// full pipeline.
fn campus_model(params: CampusParams) -> ServiceAvailabilityModel {
    let (infra, service, mapping) = campus_scenario(params);
    let mut pipeline =
        UpsimPipeline::new(infra, service, mapping).expect("campus models are consistent");
    let run = pipeline.run().expect("campus pipeline runs");
    ServiceAvailabilityModel::from_run(pipeline.infrastructure(), &run, AnalysisOptions::default())
}

/// The reference sampler over the model's raw (unfolded, uncompiled)
/// path sets.
fn reference(
    model: &ServiceAvailabilityModel,
    samples: usize,
    workers: usize,
    seed: u64,
) -> MonteCarloResult {
    let systems: Vec<Vec<Vec<usize>>> = model.systems.iter().map(|s| s.path_sets.clone()).collect();
    estimate(
        &model.availability_vector(),
        &systems,
        samples,
        workers,
        seed,
    )
}

/// Small random campus shapes (kept modest so 64 cases stay fast).
fn params_strategy() -> impl Strategy<Value = CampusParams> {
    (
        1usize..=3,
        1usize..=3,
        1usize..=2,
        1usize..=3,
        1usize..=2,
        any::<bool>(),
    )
        .prop_map(
            |(core, distributions, edges_per_distribution, clients_per_edge, servers, dual)| {
                CampusParams {
                    core,
                    distributions,
                    edges_per_distribution,
                    clients_per_edge,
                    servers,
                    dual_homed_edges: dual,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wide (512-trial-block) kernel is an exact reformulation of
    /// per-trial sampling: same draws, same structure function, same
    /// count — for any sample count (including ragged tails) and any
    /// worker split. Checked against the trial-at-a-time reference
    /// sampler over the raw path sets, so constant folding is checked
    /// too.
    #[test]
    fn bitsliced_equals_scalar_twin_on_random_campuses(
        params in params_strategy(),
        samples in 1usize..=2_000,
        workers in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let model = campus_model(params);
        let program = model.compile_mc();
        let wide = program.run(samples, workers, seed);
        prop_assert_eq!(wide, reference(&model, samples, workers, seed));
        // Worker-count invariance (the counter-based RNG contract).
        prop_assert_eq!(wide, program.run(samples, 1, seed));
    }

    /// The trial-at-a-time reference sampler draws the very same
    /// counter-based stream: `montecarlo::estimate` over the raw path
    /// sets is bit-identical to the compiled unfolded program — at any
    /// worker count on either side.
    #[test]
    fn scalar_sampler_matches_compiled_kernel_on_random_campuses(
        params in params_strategy(),
        samples in 1usize..=1_000,
        workers in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let model = campus_model(params);
        let systems: Vec<Vec<Vec<usize>>> =
            model.systems.iter().map(|s| s.path_sets.clone()).collect();
        let sampled = dependability::montecarlo::estimate(
            &model.availability_vector(),
            &systems,
            samples,
            workers,
            seed,
        );
        prop_assert_eq!(sampled, model.compile_mc_unfolded().run(samples, 1, seed));
    }

    /// Adversarial worker/block splits for the work-stealing cursor:
    /// sample counts biased to the ragged edges of the 512-trial block
    /// grid (one block plus a lane, one trial short of a block boundary,
    /// a single trial) and worker counts far beyond the block count, so
    /// most steal claims come back empty. The wide run must still agree
    /// bit for bit with the reference sampler over the raw path sets,
    /// and with itself at one worker.
    #[test]
    fn adversarial_splits_are_partition_invariant(
        params in params_strategy(),
        samples in prop_oneof![
            1usize..=64,               // a fraction of one block
            Just(512usize),            // exactly one block
            513usize..=1025,           // one block + ragged tail
            (1usize..=8).prop_map(|k| k * 512 - 1), // one trial short
            (1usize..=8).prop_map(|k| k * 512 + 1), // one trial over
        ],
        workers in prop_oneof![Just(1usize), 2usize..=64],
        seed in any::<u64>(),
    ) {
        let model = campus_model(params);
        let program = model.compile_mc();
        let wide = program.run(samples, workers, seed);
        prop_assert_eq!(wide, reference(&model, samples, workers, seed));
        prop_assert_eq!(wide, program.run(samples, 1, seed));
    }
}

/// Acceptance regression: for a fixed `(seed, samples)` the estimate is
/// bit-identical for *any* worker count on a mid-size campus.
#[test]
fn worker_count_never_changes_the_estimate() {
    let model = campus_model(CampusParams {
        core: 2,
        distributions: 4,
        edges_per_distribution: 2,
        clients_per_edge: 4,
        servers: 3,
        dual_homed_edges: true,
    });
    let program = model.compile_mc();
    let reference = program.run(100_001, 1, 2013);
    for workers in [2, 3, 5, 8, 17, 64] {
        assert_eq!(
            program.run(100_001, workers, 2013),
            reference,
            "estimate changed at {workers} workers"
        );
    }
    assert!(
        reference.covers(model.availability_bdd()),
        "CI {:?} misses the exact availability",
        reference.confidence_95()
    );
}

/// Statistical coverage over the whole USI case study: each of the 45
/// printing perspectives gets a 200 000-sample bit-sliced estimate; at a
/// 95% confidence level a couple of misses are expected, so the test
/// asserts a high coverage count plus a tight absolute-error bound
/// everywhere, rather than demanding 45/45. Deterministic for the fixed
/// seed (the kernel's estimates do not depend on the host's cores).
#[test]
fn usi_perspectives_ci_covers_bdd_exact() {
    let shared_graph = std::sync::Arc::new(usi_infrastructure().to_interned_graph());
    let perspectives = all_printing_perspectives();
    assert_eq!(perspectives.len(), 45);
    let mut covered = 0usize;
    for (client, printer, mapping) in perspectives {
        let mut pipeline = UpsimPipeline::new(usi_infrastructure(), printing_service(), mapping)
            .expect("USI models are consistent");
        pipeline.set_shared_graph(std::sync::Arc::clone(&shared_graph));
        let run = pipeline.run().expect("USI pipeline runs");
        let model = ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &run,
            AnalysisOptions::default(),
        );
        let exact = model.availability_bdd();
        let mc = model.monte_carlo(200_000, 0, 2013);
        covered += usize::from(mc.covers(exact));
        let sigma = (exact * (1.0 - exact) / 200_000.0).sqrt();
        assert!(
            (mc.estimate - exact).abs() < 5.0 * sigma,
            "{client}->{printer}: estimate {} strays from exact {exact}",
            mc.estimate
        );
    }
    eprintln!("bit-sliced CI covered the exact availability on {covered}/45 perspectives");
    assert!(
        covered >= 40,
        "only {covered}/45 perspectives covered the exact availability"
    );
}
