//! Statistical validation of the observation-fed parameter layer
//! ([`dependability::ParamEstimator`]) and the acceptance properties of
//! the posterior-resampling Monte-Carlo kernel:
//!
//! * coverage: on synthetic exponential traces the 95% credible
//!   intervals on MTBF/MTTR cover the true values at close to the
//!   nominal rate,
//! * convergence: posterior mean relative error shrinks monotonically as
//!   closed sojourns accumulate,
//! * degradation: zero rate-carrying observations leave the model — and
//!   the block-resampled kernel — bit-identical to the authored path,
//! * invariance: block-resampled estimates and predictive intervals are
//!   bit-identical at any worker count, including adversarial splits,
//! * accuracy: the block-resampled estimate stays near the refined
//!   model's exact availability on campuses of up to 1,222 devices,
//! * exact oracle: the block-means interval covers the exact
//!   posterior-mean availability `E[A]`, priced by quadrature.

use dependability::params::inv_gammap;
use dependability::perturb::availability_with;
use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use dependability::{
    overlay_model, refine, with_redundancy, GammaPosterior, ParamEstimator, PosteriorComponent,
};
use netgen::campus::{campus_scenario, CampusParams};
use proptest::prelude::*;
use upsim_core::pipeline::UpsimPipeline;

// ---------------------------------------------------------------------------
// Deterministic synthetic traces
// ---------------------------------------------------------------------------

/// SplitMix64 step — the same generator family the kernel's counter-based
/// draws use, here as a plain sequential stream for trace synthesis.
fn next_u64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in the open unit interval.
fn unit(state: &mut u64) -> f64 {
    ((next_u64(state) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// One exponential sojourn of the given mean (hours), as whole seconds
/// (the estimator's clock), at least one.
fn exp_seconds(mean_hours: f64, state: &mut u64) -> u64 {
    let hours = -mean_hours * unit(state).ln();
    ((hours * 3600.0).ceil() as u64).max(1)
}

/// Feeds `sojourns` closed up-sojourns and `sojourns` closed
/// down-sojourns of exponential length into the estimator.
fn synth_trace(
    est: &mut ParamEstimator,
    name: &str,
    mtbf: f64,
    mttr: f64,
    sojourns: usize,
    state: &mut u64,
) {
    let mut ts = 0u64;
    est.observe(name, true, ts).expect("trace start");
    for _ in 0..sojourns {
        ts += exp_seconds(mtbf, state);
        est.observe(name, false, ts).expect("failure event");
        ts += exp_seconds(mttr, state);
        est.observe(name, true, ts).expect("repair event");
    }
}

// ---------------------------------------------------------------------------
// Statistical properties of the estimator
// ---------------------------------------------------------------------------

/// Frequentist check of the Bayesian machinery: across many independent
/// synthetic traces whose authored priors are only roughly right (off by
/// up to 2x), the 95% credible intervals must cover the true MTBF and
/// MTTR at close to the nominal rate. Deterministic for the fixed seed.
#[test]
fn credible_intervals_achieve_nominal_coverage() {
    const REPS: usize = 400;
    const SOJOURNS: usize = 60;
    let mut state = 0x5EEDu64;
    let mut mtbf_covered = 0usize;
    let mut mttr_covered = 0usize;
    for _ in 0..REPS {
        let true_mtbf = 20.0 + 480.0 * unit(&mut state);
        let true_mttr = 0.5 + 23.5 * unit(&mut state);
        let authored_mtbf = true_mtbf * (0.5 + 1.5 * unit(&mut state));
        let authored_mttr = true_mttr * (0.5 + 1.5 * unit(&mut state));
        let mut est = ParamEstimator::new();
        synth_trace(&mut est, "c", true_mtbf, true_mttr, SOJOURNS, &mut state);
        let refined = refine(
            est.get("c").expect("observed"),
            authored_mtbf,
            authored_mttr,
        )
        .expect("closed sojourns refine");
        if refined.mtbf_ci.0 <= true_mtbf && true_mtbf <= refined.mtbf_ci.1 {
            mtbf_covered += 1;
        }
        if refined.mttr_ci.0 <= true_mttr && true_mttr <= refined.mttr_ci.1 {
            mttr_covered += 1;
        }
    }
    let mtbf_rate = mtbf_covered as f64 / REPS as f64;
    let mttr_rate = mttr_covered as f64 / REPS as f64;
    eprintln!("coverage: mtbf {mtbf_rate:.3}, mttr {mttr_rate:.3} (nominal 0.95)");
    assert!(
        (0.89..=0.99).contains(&mtbf_rate),
        "MTBF CI coverage {mtbf_rate} strays from nominal 95%"
    );
    assert!(
        (0.89..=0.99).contains(&mttr_rate),
        "MTTR CI coverage {mttr_rate} strays from nominal 95%"
    );
}

/// More data, better estimate: the mean relative error of the posterior
/// point MTBF/MTTR decreases monotonically along a sojourn-count ladder.
#[test]
fn posterior_mean_error_shrinks_with_more_sojourns() {
    const LADDER: [usize; 4] = [4, 16, 64, 256];
    const REPS: usize = 120;
    let mut errors = Vec::new();
    for &sojourns in &LADDER {
        let mut state = 0xC0FFEEu64;
        let mut err = 0.0f64;
        for _ in 0..REPS {
            let true_mtbf = 20.0 + 480.0 * unit(&mut state);
            let true_mttr = 0.5 + 23.5 * unit(&mut state);
            let mut est = ParamEstimator::new();
            synth_trace(&mut est, "c", true_mtbf, true_mttr, sojourns, &mut state);
            let refined = refine(est.get("c").expect("observed"), true_mtbf, true_mttr)
                .expect("closed sojourns refine");
            err += (refined.mtbf - true_mtbf).abs() / true_mtbf
                + (refined.mttr - true_mttr).abs() / true_mttr;
        }
        errors.push(err / REPS as f64);
    }
    eprintln!("mean relative error along {LADDER:?}: {errors:?}");
    for window in errors.windows(2) {
        assert!(
            window[1] < window[0],
            "error did not shrink along the ladder: {errors:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Kernel acceptance properties
// ---------------------------------------------------------------------------

/// Builds the availability model of one campus perspective through the
/// full pipeline.
fn campus_model(params: CampusParams) -> ServiceAvailabilityModel {
    let (infra, service, mapping) = campus_scenario(params);
    let mut pipeline =
        UpsimPipeline::new(infra, service, mapping).expect("campus models are consistent");
    let run = pipeline.run().expect("campus pipeline runs");
    ServiceAvailabilityModel::from_run(pipeline.infrastructure(), &run, AnalysisOptions::default())
}

/// Small random campus shapes (kept modest so the proptest stays fast).
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

/// Observes synthetic traces on a prefix of the model's components and
/// overlays the posteriors, returning the per-component sampler input.
fn observed_posteriors(
    model: &mut ServiceAvailabilityModel,
    observed: usize,
    state: &mut u64,
) -> Vec<Option<dependability::PosteriorComponent>> {
    let mut est = ParamEstimator::new();
    let names: Vec<String> = model
        .components
        .iter()
        .take(observed)
        .map(|c| c.name.clone())
        .collect();
    for name in &names {
        let mtbf = 50.0 + 400.0 * unit(state);
        let mttr = 1.0 + 12.0 * unit(state);
        synth_trace(&mut est, name, mtbf, mttr, 20, state);
    }
    overlay_model(model, &est, false)
}

/// Acceptance criterion: on the three campus shapes of the scaling
/// experiments, six components refined from 20 closed sojourns each
/// (drawn from their authored MTBF/MTTR) leave the block-resampled
/// 50,000-sample estimate within 5e-3 of the refined model's exact
/// availability. The estimate targets the posterior predictive mean, a
/// Jensen gap away from that exact value, so this bounds the gap rather
/// than asserting coverage.
#[test]
fn posterior_estimate_stays_near_the_refined_exact_availability() {
    const SEED: u64 = 2013;
    for (devices, distributions, clients_per_edge) in [(44, 2, 8), (358, 32, 4), (1222, 64, 8)] {
        let params = CampusParams {
            core: 2,
            distributions,
            edges_per_distribution: 2,
            clients_per_edge,
            servers: 3,
            dual_homed_edges: false,
        };
        assert_eq!(params.device_count(), devices, "campus shape drifted");
        let mut model = campus_model(params);
        let mut est = ParamEstimator::new();
        let mut state = SEED | 1;
        for component in model.components.iter().take(6) {
            synth_trace(
                &mut est,
                &component.name,
                component.mtbf,
                component.mttr,
                20,
                &mut state,
            );
        }
        let posteriors = overlay_model(&mut model, &est, false);
        let exact = model.availability_bdd();
        let program = model.compile_mc_unfolded();
        let sampler = program.posterior_sampler(&posteriors);
        let (result, _) = program.run_posterior(50_000, 1, SEED, &sampler);
        assert!(
            (result.estimate - exact).abs() < 5e-3,
            "posterior estimate {} strays from refined exact {exact} at {devices} devices",
            result.estimate
        );
    }
}

/// `E[aᵢ]` of one refined component by midpoint quadrature over `n × n`
/// Gamma quantile nodes: the failure- and repair-rate posteriors are
/// independent, so `E[aᵢ] = ∫∫ a(Q_fail(u), Q_repair(v)) du dv` with
/// `a(λ_f, λ_r) = with_redundancy(λ_r / (λ_f + λ_r))` — the availability
/// the kernel samples per block.
fn posterior_mean_availability(post: &PosteriorComponent, n: usize) -> f64 {
    let nodes = |rate: GammaPosterior| -> Vec<f64> {
        (0..n)
            .map(|k| inv_gammap(rate.alpha, (k as f64 + 0.5) / n as f64) / rate.beta)
            .collect()
    };
    let (fail, repair) = (nodes(post.fail), nodes(post.repair));
    let mut sum = 0.0;
    for &lambda_fail in &fail {
        for &lambda_repair in &repair {
            sum += with_redundancy(
                lambda_repair / (lambda_fail + lambda_repair),
                post.redundant,
            );
        }
    }
    sum / (n * n) as f64
}

/// The exact posterior-mean service availability
/// `E[A] = A_BDD(E[a₁], …, E[aₙ])`: component posteriors are independent
/// and the structure function is multilinear, so the expectation passes
/// through it. Unrefined components keep their authored availability.
fn exact_posterior_mean(
    model: &ServiceAvailabilityModel,
    posteriors: &[Option<PosteriorComponent>],
    n: usize,
) -> f64 {
    let probs: Vec<f64> = model
        .components
        .iter()
        .zip(posteriors)
        .map(|(component, post)| {
            post.as_ref().map_or(component.availability, |post| {
                posterior_mean_availability(post, n)
            })
        })
        .collect();
    availability_with(model, &probs)
}

/// Exact oracle for posterior runs: with the setup of
/// `posterior_estimate_stays_near_the_refined_exact_availability` on the
/// 358-device campus, `run_posterior`'s interval — a 95% confidence
/// interval for the posterior-mean availability — covers the exact
/// `E[A]` for every seed at 50,000 and 400,000 samples. The plug-in value
/// `A(θ̂)` is a Jensen gap away and is not the target. The other campus
/// shapes give this perspective the same minimized path sets, so the
/// loop runs over seeds instead.
#[test]
fn posterior_interval_covers_the_exact_posterior_mean() {
    let params = CampusParams {
        core: 2,
        distributions: 32,
        edges_per_distribution: 2,
        clients_per_edge: 4,
        servers: 3,
        dual_homed_edges: false,
    };
    assert_eq!(params.device_count(), 358, "campus shape drifted");
    let authored = campus_model(params);
    for seed in [2013u64, 7, 42, 99, 1234] {
        let mut model = authored.clone();
        let mut est = ParamEstimator::new();
        let mut state = seed | 1;
        for component in model.components.iter().take(6) {
            synth_trace(
                &mut est,
                &component.name,
                component.mtbf,
                component.mttr,
                20,
                &mut state,
            );
        }
        let posteriors = overlay_model(&mut model, &est, false);
        let oracle = exact_posterior_mean(&model, &posteriors, 256);
        let finer = exact_posterior_mean(&model, &posteriors, 512);
        assert!(
            (oracle - finer).abs() < 1e-5,
            "quadrature unconverged at seed {seed}: n=256 gives {oracle}, n=512 {finer}"
        );
        let plug_in = model.availability_bdd();
        let program = model.compile_mc_unfolded();
        let sampler = program.posterior_sampler(&posteriors);
        for samples in [50_000, 400_000] {
            let (result, interval) = program.run_posterior(samples, 1, seed, &sampler);
            eprintln!(
                "seed {seed}, {samples} samples: interval {interval:?}, E[A] {oracle}, \
                 plug-in A(θ̂) {plug_in}, estimate {}",
                result.estimate
            );
            assert!(
                interval.0 <= oracle && oracle <= interval.1,
                "seed {seed}, {samples} samples: interval {interval:?} misses the exact \
                 posterior mean {oracle}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acceptance criterion: the block-resampled posterior run is
    /// bit-identical at 1/2/4/8 workers — estimate, std error, and the
    /// 95% predictive interval — including ragged sample counts around
    /// the 512-trial block grid.
    #[test]
    fn posterior_runs_are_worker_invariant(
        params in params_strategy(),
        observed in 1usize..=6,
        samples in prop_oneof![
            1usize..=64,
            Just(512usize),
            513usize..=1025,
            (1usize..=4).prop_map(|k| k * 512 - 1),
            (1usize..=4).prop_map(|k| k * 512 + 1),
        ],
        seed in any::<u64>(),
    ) {
        let mut model = campus_model(params);
        let mut state = seed | 1;
        let posteriors = observed_posteriors(&mut model, observed, &mut state);
        let program = model.compile_mc_unfolded();
        let sampler = program.posterior_sampler(&posteriors);
        let (reference, interval) = program.run_posterior(samples, 1, seed, &sampler);
        for workers in [2usize, 4, 8] {
            let (result, ci) = program.run_posterior(samples, workers, seed, &sampler);
            prop_assert_eq!(result, reference, "estimate drifted at {} workers", workers);
            prop_assert_eq!(
                (ci.0.to_bits(), ci.1.to_bits()),
                (interval.0.to_bits(), interval.1.to_bits()),
                "interval drifted at {} workers", workers
            );
        }
        // Up to rounding in the accumulator's quantile arithmetic, the
        // predictive interval brackets the point estimate.
        prop_assert!(
            interval.0 <= reference.estimate + 1e-9
                && reference.estimate <= interval.1 + 1e-9,
            "predictive interval {:?} must bracket the estimate {}", interval, reference.estimate);
    }

    /// Degradation guarantee: with zero rate-carrying observations the
    /// overlay is a no-op (availability vector bit-identical) and the
    /// posterior kernel with an empty sampler reproduces the point
    /// kernel's estimate bit for bit — at any worker count.
    #[test]
    fn zero_observations_degrade_to_the_point_path(
        params in params_strategy(),
        samples in 1usize..=2_000,
        workers in 1usize..=8,
        seed in any::<u64>(),
    ) {
        let mut model = campus_model(params);
        let authored: Vec<u64> = model.availability_vector().iter().map(|a| a.to_bits()).collect();

        // An estimator holding only open sojourns (single events) carries
        // no rate information: refine() declines, the overlay is a no-op.
        let mut est = ParamEstimator::new();
        let first = model.components[0].name.clone();
        est.observe(&first, false, 42).expect("open sojourn");
        let posteriors = overlay_model(&mut model, &est, false);
        prop_assert!(posteriors.iter().all(Option::is_none));
        let after: Vec<u64> = model.availability_vector().iter().map(|a| a.to_bits()).collect();
        prop_assert_eq!(authored, after, "authored availabilities must stand untouched");

        let program = model.compile_mc_unfolded();
        let sampler = program.posterior_sampler(&posteriors);
        let (result, _) = program.run_posterior(samples, workers, seed, &sampler);
        prop_assert_eq!(result, program.run(samples, 1, seed),
            "empty sampler must reproduce the point estimate exactly");
    }
}
