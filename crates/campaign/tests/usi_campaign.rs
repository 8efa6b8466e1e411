//! Campaign semantics against the paper's USI case study: kill deltas
//! equal the analytic `p·B` closed form, untouched perspectives keep
//! their baseline bits, structural cuts match a hand-applied disconnect,
//! and the JSON report is run-to-run deterministic.

use std::sync::Arc;

use dependability::perturb::kill_deltas;
use netgen::usi::{perspective_mapping, printing_service, usi_infrastructure};
use upsim_campaign::{
    aggregate, run_serial, CampaignInput, CampaignSpec, PerspectiveMapper, Perturbation,
};
use upsim_core::discovery::DiscoveryOptions;

fn usi_mapper() -> PerspectiveMapper {
    Arc::new(|_, client, provider| perspective_mapping(client, provider))
}

fn usi_input(spec: &str) -> CampaignInput {
    CampaignInput::prepare(
        usi_infrastructure(),
        printing_service(),
        usi_mapper(),
        DiscoveryOptions,
        None,
        Arc::new(dependability::ParamEstimator::new()),
        CampaignSpec::parse(spec).expect("spec parses"),
    )
    .expect("USI input prepares")
}

#[test]
fn default_scope_is_every_client_times_every_provider() {
    let input = usi_input("kill-each-component");
    assert_eq!(input.pairs.len(), 135, "15 clients x 9 providers");
    assert_eq!(
        input.scenarios.len(),
        usi_infrastructure().objects.instances.len()
    );
}

#[test]
fn kill_campaign_deltas_match_the_birnbaum_closed_form() {
    let input = usi_input("kill-each-component pairs:t1:p2,t6:p1");
    let (baseline, outcomes) = run_serial(&input).expect("campaign runs");
    // Per perspective: the kill scenario's delta must equal the
    // restrict-based A − A(x=0) from the shared-BDD helper.
    for (p_ix, persp) in baseline.perspectives.iter().enumerate() {
        let analytic = kill_deltas(&persp.model);
        for outcome in &outcomes {
            let scenario = &input.scenarios[outcome.index];
            let Perturbation::KillComponent(victim) = &scenario.perturbations[0] else {
                panic!("kill-only campaign");
            };
            let delta = persp.availability - outcome.availabilities[p_ix];
            match analytic.iter().find(|(name, _)| name == victim) {
                Some((_, expected)) => assert!(
                    (delta - expected).abs() < 1e-12,
                    "kill:{victim} on {}->{}: campaign {delta} vs analytic {expected}",
                    persp.client,
                    persp.provider
                ),
                // Victim not in this perspective's model: untouched, and
                // the baseline availability survives bit-for-bit.
                None => assert_eq!(
                    outcome.availabilities[p_ix].to_bits(),
                    persp.availability.to_bits(),
                    "kill:{victim} must not move {}->{}",
                    persp.client,
                    persp.provider
                ),
            }
        }
    }
}

#[test]
fn top_ranked_kill_matches_argmax_of_mean_analytic_delta() {
    let input = usi_input("kill-each-component pairs:t1:p2,t6:p1,t11:p3");
    let (baseline, outcomes) = run_serial(&input).expect("campaign runs");
    let report = aggregate(&input, &baseline, &outcomes);

    // Analytic ranking: mean of p·B per victim over the three baselines.
    let mut best: Option<(String, f64)> = None;
    for scenario in &input.scenarios {
        let Perturbation::KillComponent(victim) = &scenario.perturbations[0] else {
            panic!("kill-only campaign");
        };
        let mean_delta: f64 = baseline
            .perspectives
            .iter()
            .map(|persp| {
                kill_deltas(&persp.model)
                    .iter()
                    .find(|(name, _)| name == victim)
                    .map(|(_, d)| *d)
                    .unwrap_or(0.0)
            })
            .sum::<f64>()
            / baseline.perspectives.len() as f64;
        if best.as_ref().is_none_or(|(_, d)| mean_delta > *d) {
            best = Some((format!("kill:{victim}"), mean_delta));
        }
    }
    let (expected_label, expected_delta) = best.expect("non-empty campaign");
    assert_eq!(report.rows[0].label, expected_label);
    assert!(
        (report.rows[0].mean_delta - expected_delta).abs() < 1e-12,
        "top delta {} vs analytic {expected_delta}",
        report.rows[0].mean_delta
    );
    // Killing a shared single point (e.g. the edge switch of every path)
    // kills the perspective outright.
    assert!(!report.spofs.is_empty(), "USI has single points of failure");
}

#[test]
fn cut_scenario_equals_hand_applied_disconnect() {
    let input = usi_input("cut-each-link pairs:t1:p2");
    let (baseline, outcomes) = run_serial(&input).expect("campaign runs");
    for outcome in &outcomes {
        let scenario = &input.scenarios[outcome.index];
        let Perturbation::CutLink(a, b) = &scenario.perturbations[0] else {
            panic!("cut-only campaign");
        };
        let touched = baseline.perspectives[0].upsim.contains(a)
            && baseline.perspectives[0].upsim.contains(b);
        if !touched {
            assert_eq!(
                outcome.availabilities[0].to_bits(),
                baseline.perspectives[0].availability.to_bits(),
                "cut {a}-{b} outside the UPSIM must not move t1->p2"
            );
            assert_eq!(outcome.affected, 0);
        } else {
            // Hand-apply the same disconnect and re-run the pipeline.
            let mut infra = usi_infrastructure();
            infra.disconnect(a, b).expect("link exists");
            let mut pipeline = upsim_core::pipeline::UpsimPipeline::new(
                infra,
                printing_service(),
                perspective_mapping("t1", "p2"),
            )
            .expect("models consistent");
            pipeline.record_paths = false;
            let run = pipeline.run().expect("pipeline runs");
            let model = dependability::ServiceAvailabilityModel::from_run(
                pipeline.infrastructure(),
                &run,
                dependability::AnalysisOptions::default(),
            );
            assert_eq!(
                outcome.availabilities[0].to_bits(),
                model.availability_bdd().to_bits(),
                "cut {a}-{b}: campaign disagrees with a hand-applied disconnect"
            );
        }
    }
}

#[test]
fn drop_scenarios_touch_every_perspective() {
    let input = usi_input("substitute-each-service pairs:t1:p2,t6:p1");
    let (baseline, outcomes) = run_serial(&input).expect("campaign runs");
    assert_eq!(
        input.scenarios.len(),
        printing_service().atomic_services().len()
    );
    for outcome in &outcomes {
        assert_eq!(outcome.affected, baseline.perspectives.len());
        // Dropping a step never hurts availability (fewer series terms).
        for (persp, &avail) in baseline.perspectives.iter().zip(&outcome.availabilities) {
            assert!(
                avail >= persp.availability - 1e-12,
                "dropping a step must not reduce availability"
            );
        }
    }
}

#[test]
fn scale_mtbf_campaign_moves_only_the_named_class() {
    let input = usi_input("scale-mtbf:Printer:0.5 pairs:t1:p2,t1:p1");
    let (baseline, outcomes) = run_serial(&input).expect("campaign runs");
    assert_eq!(outcomes.len(), 1);
    // Degrading the printers' MTBF strictly hurts any perspective whose
    // model prices a printer of that class.
    for (persp, &avail) in baseline
        .perspectives
        .iter()
        .zip(&outcomes[0].availabilities)
    {
        if persp.classes.iter().any(|c| c == "Printer") {
            assert!(
                avail < persp.availability,
                "{}->{}: degraded MTBF must reduce availability",
                persp.client,
                persp.provider
            );
        } else {
            assert_eq!(avail.to_bits(), persp.availability.to_bits());
        }
    }
}

#[test]
fn reports_are_run_to_run_deterministic() {
    let spec = "kill-each-component scale-mtbf:*:0.5 pairs:t1:p2,t6:p1 mc:2048:7 json";
    let render = |_: usize| {
        let input = usi_input(spec);
        let (baseline, outcomes) = run_serial(&input).expect("campaign runs");
        aggregate(&input, &baseline, &outcomes).render_json()
    };
    let first = render(0);
    let second = render(1);
    assert_eq!(first, second, "same spec + seed must be byte-identical");
    assert!(first.contains("\"spec\":\""));
    assert!(!first.contains("seconds"), "no timing state in the report");
}

/// Prepares a USI campaign input whose estimator holds real closed
/// sojourns for the core switch `c1` and the printer `p1`: posterior
/// campaigns must carry uncertainty bands sourced from exactly these.
fn usi_input_observed(spec: &str) -> CampaignInput {
    let mut est = dependability::ParamEstimator::new();
    for (name, down_at, up_at) in [
        ("c1", 400u64, 406u64),
        ("c1", 900, 903),
        ("p1", 250, 251),
        ("p1", 700, 702),
    ] {
        est.observe(name, false, down_at * 3600).expect("failure");
        est.observe(name, true, up_at * 3600).expect("repair");
    }
    CampaignInput::prepare(
        usi_infrastructure(),
        printing_service(),
        usi_mapper(),
        DiscoveryOptions,
        None,
        Arc::new(est),
        CampaignSpec::parse(spec).expect("spec parses"),
    )
    .expect("USI input prepares")
}

#[test]
fn posterior_campaign_carries_uncertainty_bands() {
    let input = usi_input_observed("kill-each-component pairs:t1:p2,t6:p1 mc:4096:2013 posterior");
    let (baseline, outcomes) = run_serial(&input).expect("campaign runs");

    // Every baseline perspective prices with a predictive interval that
    // brackets its own estimate (up to accumulator rounding).
    for persp in &baseline.perspectives {
        let (lo, hi) = persp.interval.expect("posterior baseline carries a band");
        assert!(
            lo <= persp.availability + 1e-9 && persp.availability <= hi + 1e-9,
            "{}->{}: band {lo}..{hi} misses estimate {}",
            persp.client,
            persp.provider,
            persp.availability
        );
    }
    // Every scenario outcome carries one band per perspective.
    for outcome in &outcomes {
        let intervals = outcome.intervals.as_ref().expect("posterior outcome bands");
        assert_eq!(intervals.len(), baseline.perspectives.len());
        for ((lo, hi), &avail) in intervals.iter().zip(&outcome.availabilities) {
            assert!(
                *lo <= avail + 1e-9 && avail <= *hi + 1e-9,
                "scenario band {lo}..{hi} misses estimate {avail}"
            );
        }
    }

    let report = aggregate(&input, &baseline, &outcomes);
    let (blo, bhi) = report.baseline_interval.expect("report baseline band");
    assert!(blo <= report.baseline_mean + 1e-9 && report.baseline_mean <= bhi + 1e-9);
    assert!(report.rows.iter().all(|row| row.mean_interval.is_some()));
    assert!(report.summary_line().contains(" baseline_band="));
    let json = report.render_json();
    assert!(json.contains("\"interval95\":["), "bands in JSON: {json}");
    assert!(report.render_text().contains("band95="));

    // Determinism: the banded report is a pure function of the spec.
    let again = {
        let input =
            usi_input_observed("kill-each-component pairs:t1:p2,t6:p1 mc:4096:2013 posterior");
        let (baseline, outcomes) = run_serial(&input).expect("campaign reruns");
        aggregate(&input, &baseline, &outcomes).render_json()
    };
    assert_eq!(json, again, "posterior report must be byte-identical");
}

#[test]
fn point_campaigns_stay_band_free_even_with_observations() {
    // Observations refine the point estimates, but without `posterior`
    // the report keeps the legacy byte layout: no band tokens anywhere.
    let input = usi_input_observed("kill-each-component pairs:t1:p2 mc:2048:7");
    let (baseline, outcomes) = run_serial(&input).expect("campaign runs");
    assert!(baseline.perspectives.iter().all(|p| p.interval.is_none()));
    assert!(outcomes.iter().all(|o| o.intervals.is_none()));
    let report = aggregate(&input, &baseline, &outcomes);
    assert!(report.baseline_interval.is_none());
    assert!(!report.summary_line().contains("baseline_band="));
    assert!(!report.render_json().contains("interval95"));
    assert!(!report.render_text().contains("band95="));
}

#[test]
fn observations_shift_the_campaign_baseline() {
    // The estimator's closed sojourns for c1/p1 disagree with the
    // authored MTBF/MTTR, so refined baselines must move for any
    // perspective whose model prices those components — here t1->p1.
    let authored = usi_input("kill-each-component pairs:t1:p1 mc:2048:7");
    let refined = usi_input_observed("kill-each-component pairs:t1:p1 mc:2048:7");
    let (base_a, _) = run_serial(&authored).expect("authored campaign");
    let (base_r, _) = run_serial(&refined).expect("refined campaign");
    assert_ne!(
        base_a.perspectives[0].availability.to_bits(),
        base_r.perspectives[0].availability.to_bits(),
        "observed sojourns must move the refined baseline"
    );
}
