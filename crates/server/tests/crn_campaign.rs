//! Paired-sampling acceptance test for common-random-number campaign
//! pricing: on the 358-device campus, the spread of the `scale-mtbf`
//! delta across base seeds must be strictly tighter under CRN (shared
//! baseline draw stream, default) than under `independent-seeds`
//! (per-scenario derived streams) at the same sample count — the
//! classic variance-reduction guarantee of paired sampling.
//!
//! Also pins the determinism contract: an `mc:`-priced CRN campaign, its
//! `independent-seeds` twin and a kill campaign each render a
//! byte-identical JSON report when re-run on a fresh engine with more
//! workers, and only the CRN sweep reuses draw words.

use netgen::campus::{campus_scenario, CampusParams};
use upsim_server::{CampaignSpec, Counter, Engine, EngineConfig, ModelSnapshot};

const SAMPLES: usize = 20_000;

/// The 358-device campus of the scaling experiments.
fn campus_engine(workers: usize) -> Engine {
    let (infrastructure, service, _) = campus_scenario(CampusParams {
        core: 2,
        distributions: 32,
        edges_per_distribution: 2,
        clients_per_edge: 4,
        servers: 3,
        dual_homed_edges: false,
    });
    let snapshot =
        ModelSnapshot::new(infrastructure, service).expect("campus models are consistent");
    Engine::new(
        snapshot,
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    )
}

/// One-scenario MTBF derating sweep (client machines at 0.9× MTBF),
/// Monte-Carlo priced from `seed`; returns the scenario's mean
/// availability loss against the baseline (positive = loss, the report
/// convention).
fn sweep_delta(engine: &Engine, seed: u64, crn: bool) -> f64 {
    let tail = if crn { "" } else { " independent-seeds" };
    let spec = CampaignSpec::parse(&format!(
        "scale-mtbf:Comp:0.9 pairs:t0_0_0:srv0 mc:{SAMPLES}:{seed}{tail}"
    ))
    .expect("spec parses");
    let report = engine.campaign(spec, |_, _| {}).expect("campaign runs");
    assert_eq!(report.scenarios, 1);
    assert_eq!(report.perspectives, 1);
    report.rows[0].mean_delta
}

/// Unbiased sample variance.
fn variance(xs: &[f64]) -> f64 {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// At a fixed sample count, CRN deltas must scatter strictly less across
/// base seeds than independent-seed deltas — and by a real margin, not a
/// tie-break: paired sampling cancels the draw noise of every component
/// the perturbation left alone, so only the derated class contributes.
#[test]
fn crn_deltas_are_strictly_tighter_than_independent_seeds() {
    let engine = campus_engine(1);
    let seeds: Vec<u64> = (0..10).map(|i| 1_000 + 7_919 * i).collect();
    let crn: Vec<f64> = seeds
        .iter()
        .map(|&seed| sweep_delta(&engine, seed, true))
        .collect();
    let independent: Vec<f64> = seeds
        .iter()
        .map(|&seed| sweep_delta(&engine, seed, false))
        .collect();
    engine.shutdown();

    // Derating the client's MTBF can only hurt its availability, and
    // under CRN the coupling is monotone — lowering one threshold can
    // only clear up-bits — so every paired delta must report a strict
    // loss. (Independent-seed deltas carry no such guarantee: when the
    // draw noise exceeds the effect they can even report a gain, which
    // is exactly the failure mode paired sampling removes.)
    for delta in &crn {
        assert!(*delta > 0.0, "CRN derating must report a loss: {delta}");
    }
    // Both estimators agree on the effect itself (paired sampling
    // tightens the delta, it does not bias it).
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(
        (mean(&crn) - mean(&independent)).abs() < 2e-3,
        "CRN ({}) and independent ({}) deltas disagree on the effect",
        mean(&crn),
        mean(&independent)
    );

    let var_crn = variance(&crn);
    let var_independent = variance(&independent);
    assert!(
        var_crn * 2.0 < var_independent,
        "CRN delta variance {var_crn:e} is not strictly tighter than \
         independent-seed variance {var_independent:e} at {SAMPLES} samples"
    );
}

/// The CRN estimate is a pure function of the spec: a fresh engine with
/// a different worker count must render the byte-identical JSON report.
/// The same holds for the `independent-seeds` sweep and the structural
/// kill campaign over the same pairs, and neither of them ever serves a
/// draw word from the shared table.
#[test]
fn crn_report_is_byte_identical_across_worker_counts() {
    let pairs = "pairs:t0_0_0:srv0,t1_0_0:srv1";
    let sweep = format!("scale-mtbf:*:0.5,0.9 {pairs} mc:{SAMPLES}:2013 top:5");
    for (spec_text, crn, mc) in [
        (sweep.clone(), true, true),
        (format!("{sweep} independent-seeds"), false, true),
        (format!("kill-each-component {pairs} top:5"), false, false),
    ] {
        let mut reports = Vec::new();
        for workers in [1, 4] {
            let engine = campus_engine(workers);
            let spec = CampaignSpec::parse(&spec_text).expect("spec parses");
            let report = engine.campaign(spec, |_, _| {}).expect("campaign runs");
            let stats = engine.stats();
            if crn {
                assert!(
                    stats[Counter::CampaignCrnReuse] > 0,
                    "CRN sweep never reused a cached draw word"
                );
            } else {
                assert_eq!(
                    stats[Counter::CampaignCrnReuse],
                    0,
                    "`{spec_text}` touched the CRN draw table"
                );
            }
            if mc {
                assert!(
                    stats[Counter::McTrials] > 0,
                    "`{spec_text}` priced no scenario by Monte-Carlo"
                );
            }
            reports.push(report.render_json());
            engine.shutdown();
        }
        assert_eq!(
            reports[0], reports[1],
            "`{spec_text}` report drifted across worker counts"
        );
    }
}
