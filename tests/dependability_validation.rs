//! Cross-engine validation of the dependability analysis on generated
//! scenarios: BDD, SDP, RBD (where applicable) and Monte-Carlo must agree,
//! and availability must respond monotonically to redundancy and damage.

use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
use netgen::campus::{campus_scenario, CampusParams};
use netgen::usi::{printing_service, table_i_mapping, usi_infrastructure};
use proptest::prelude::*;
use upsim_bench::transform::{pair_availability_sdp, pair_rbd};
use upsim_core::pipeline::UpsimPipeline;

fn usi_model() -> ServiceAvailabilityModel {
    let mut pipeline =
        UpsimPipeline::new(usi_infrastructure(), printing_service(), table_i_mapping()).unwrap();
    let run = pipeline.run().unwrap();
    ServiceAvailabilityModel::from_run(pipeline.infrastructure(), &run, AnalysisOptions::default())
}

#[test]
fn usi_engines_agree() {
    let model = usi_model();
    for i in 0..model.systems.len() {
        let bdd = model.pair_availability_bdd(i);
        let sdp = pair_availability_sdp(&model, i);
        assert!((bdd - sdp).abs() < 1e-12, "pair {i}: {bdd} vs {sdp}");
    }
    let exact = model.availability_bdd();
    let mc = model.monte_carlo(300_000, 2, 99);
    assert!(
        mc.covers(exact),
        "MC CI {:?} misses exact {exact}",
        mc.confidence_95()
    );
}

#[test]
fn usi_availability_is_client_bound() {
    // The client (A ≈ 0.9921) dominates the user-perceived availability —
    // everything else is five-nines-ish. So the service availability must
    // sit slightly below the client availability.
    let model = usi_model();
    let a = model.availability_bdd();
    let client = 3000.0 / 3024.0;
    assert!(a < client);
    assert!(a > client - 0.001, "a={a}, client={client}");
}

#[test]
fn redundancy_monotonicity_on_usi() {
    // Increasing redundantComponents on the client class can only help.
    let base = usi_model().availability_bdd();
    let mut infra = usi_infrastructure();
    let comp = std::sync::Arc::make_mut(&mut infra.classes)
        .class_mut("Comp")
        .unwrap();
    for app in &mut comp.applied {
        if let Some(slot) = app
            .values
            .iter_mut()
            .find(|(n, _)| n == "redundantComponents")
        {
            slot.1 = uml::Value::Integer(1);
        }
    }
    let mut pipeline = UpsimPipeline::new(infra, printing_service(), table_i_mapping()).unwrap();
    let run = pipeline.run().unwrap();
    let improved = ServiceAvailabilityModel::from_run(
        pipeline.infrastructure(),
        &run,
        AnalysisOptions::default(),
    )
    .availability_bdd();
    assert!(
        improved > base,
        "redundancy did not improve: {base} -> {improved}"
    );
}

#[test]
fn link_damage_monotonicity_on_usi() {
    // Removing a redundant core link can only lower (or keep) availability.
    let base = usi_model().availability_bdd();
    let mut infra = usi_infrastructure();
    infra.disconnect("d1", "c2").unwrap();
    let mut pipeline = UpsimPipeline::new(infra, printing_service(), table_i_mapping()).unwrap();
    let run = pipeline.run().unwrap();
    let damaged = ServiceAvailabilityModel::from_run(
        pipeline.infrastructure(),
        &run,
        AnalysisOptions::default(),
    )
    .availability_bdd();
    assert!(
        damaged <= base + 1e-15,
        "damage increased availability: {base} -> {damaged}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_agree_on_random_campuses(
        core in 1usize..=3,
        distributions in 1usize..=3,
        clients in 1usize..=3,
    ) {
        let params = CampusParams {
            core,
            distributions,
            edges_per_distribution: 2,
            clients_per_edge: clients,
            servers: 2,
            dual_homed_edges: false,
        };
        let (infra, service, mapping) = campus_scenario(params);
        let mut pipeline = UpsimPipeline::new(infra, service, mapping).unwrap();
        let run = pipeline.run().unwrap();
        let model = ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &run,
            AnalysisOptions::default(),
        );
        for i in 0..model.systems.len() {
            let bdd = model.pair_availability_bdd(i);
            let sdp = pair_availability_sdp(&model, i);
            prop_assert!((bdd - sdp).abs() < 1e-10, "pair {i}: {bdd} vs {sdp}");
            // An RBD, when the structure admits one, agrees too.
            if let Some(rbd) = pair_rbd(&model, i) {
                let a = rbd.availability(&model.availability_vector());
                prop_assert!((bdd - a).abs() < 1e-10, "pair {i}: rbd {a} vs bdd {bdd}");
            }
        }
        // The service availability is bounded by its weakest pair.
        let service_a = model.availability_bdd();
        for i in 0..model.systems.len() {
            prop_assert!(service_a <= model.pair_availability_bdd(i) + 1e-12);
        }
        prop_assert!((0.0..=1.0).contains(&service_a));
    }

    #[test]
    fn include_links_never_increases_availability(
        distributions in 1usize..=3,
        clients in 1usize..=3,
    ) {
        let params = CampusParams {
            core: 2,
            distributions,
            edges_per_distribution: 1,
            clients_per_edge: clients,
            servers: 1,
            dual_homed_edges: false,
        };
        let (infra, service, mapping) = campus_scenario(params);
        let mut pipeline = UpsimPipeline::new(infra, service, mapping).unwrap();
        let run = pipeline.run().unwrap();
        let devices_only = ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &run,
            AnalysisOptions::default(),
        )
        .availability_bdd();
        let with_links = ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &run,
            AnalysisOptions { include_links: true, ..Default::default() },
        )
        .availability_bdd();
        prop_assert!(with_links <= devices_only + 1e-15);
    }
}
