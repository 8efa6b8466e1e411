//! End-to-end reproduction of the paper's case study (Sec. VI):
//! USI network → printing service → Table I mapping → UPSIM generation,
//! checked against Figures 11 and 12.

use netgen::usi::{
    printing_service, second_perspective_mapping, table_i_mapping, usi_infrastructure,
    EXPECTED_FIG11_NODES, EXPECTED_FIG12_NODES, PRINTED_PATHS_T1_PRINTS,
};
use upsim_core::pipeline::UpsimPipeline;

fn sorted(names: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    v.sort();
    v
}

fn upsim_nodes(run: &upsim_core::pipeline::UpsimRun) -> Vec<String> {
    let mut v: Vec<String> = run.upsim.instances.iter().map(|i| i.name.clone()).collect();
    v.sort();
    v
}

#[test]
fn fig11_upsim_for_t1_p2_prints() {
    let mut pipeline =
        UpsimPipeline::new(usi_infrastructure(), printing_service(), table_i_mapping()).unwrap();
    let run = pipeline.run().unwrap();
    assert_eq!(upsim_nodes(&run), sorted(&EXPECTED_FIG11_NODES));
    // The UPSIM is a sub-diagram of the infrastructure (Definition 2) and
    // well-formed against the class diagram.
    assert!(run
        .upsim
        .is_subdiagram_of(&pipeline.infrastructure().objects));
    run.upsim
        .validate(&pipeline.infrastructure().classes)
        .unwrap();
}

#[test]
fn fig12_upsim_for_t15_p3_prints_via_mapping_change_only() {
    let mut pipeline =
        UpsimPipeline::new(usi_infrastructure(), printing_service(), table_i_mapping()).unwrap();
    pipeline.run().unwrap();
    // "To generate the UPSIM for a different perspective [...] we only have
    // to make minor adjustments to the service mapping." (Sec. VI-H)
    pipeline
        .update_mapping(|m| {
            *m = second_perspective_mapping();
        })
        .unwrap();
    let run = pipeline.run().unwrap();
    assert_eq!(upsim_nodes(&run), sorted(&EXPECTED_FIG12_NODES));
    // Step 5 (model import) stayed cached — only the mapping was re-imported.
    let cached: Vec<&str> = run
        .timings
        .iter()
        .filter(|t| t.cached)
        .map(|t| t.step)
        .collect();
    assert_eq!(cached, vec!["5-import-models"]);
}

#[test]
fn sec_vi_g_printed_paths_appear_in_the_run() {
    let mut pipeline =
        UpsimPipeline::new(usi_infrastructure(), printing_service(), table_i_mapping()).unwrap();
    let run = pipeline.run().unwrap();
    let request = run.paths_of("Request printing").unwrap();
    for expected in PRINTED_PATHS_T1_PRINTS {
        let expected: Vec<String> = expected.iter().map(|s| s.to_string()).collect();
        assert!(
            request.named_paths().contains(&expected),
            "missing {expected:?}"
        );
    }
}

#[test]
fn properties_remain_resolvable_on_the_upsim() {
    // Sec. V-E: "It is thus guaranteed that a subsequent service
    // dependability analysis will find specific required properties for
    // every element of the user-perceived ICT infrastructure."
    let mut pipeline =
        UpsimPipeline::new(usi_infrastructure(), printing_service(), table_i_mapping()).unwrap();
    let run = pipeline.run().unwrap();
    for inst in &run.upsim.instances {
        let classes = &pipeline.infrastructure().classes;
        for attr in ["MTBF", "MTTR", "redundantComponents"] {
            assert!(
                run.upsim
                    .instance_value(classes, &inst.name, attr)
                    .is_some(),
                "{}.{attr} unresolvable",
                inst.name
            );
        }
    }
}

#[test]
fn vtcl_reference_matches_graph_engine_on_usi() {
    // The rule-driven model-space implementation of Step 7 (the paper's
    // actual VTCL approach) enumerates the same paths as the graph engine,
    // for every Table I pair.
    let infra = usi_infrastructure();
    let mut space = vpm::ModelSpace::new();
    upsim_core::importers::import_infrastructure(&mut space, &infra).unwrap();
    for pair in table_i_mapping().pairs() {
        let mut vtcl = upsim_core::vtcl_reference::discover_paths_vtcl(
            &mut space,
            &pair.requester,
            &pair.provider,
        )
        .unwrap();
        let mut graph = upsim_core::discovery::discover(&infra, pair)
            .unwrap()
            .named_paths();
        vtcl.sort();
        graph.sort();
        assert_eq!(vtcl, graph, "pair {}", pair.atomic_service);
    }
}

#[test]
fn paths_recorded_in_model_space_tree() {
    let mut pipeline =
        UpsimPipeline::new(usi_infrastructure(), printing_service(), table_i_mapping()).unwrap();
    pipeline.run().unwrap();
    let space = pipeline.space();
    // One reserved subtree per atomic service (Step 7).
    let paths_root = space.resolve("paths").unwrap();
    assert_eq!(space.children(paths_root).unwrap().len(), 5);
    let request = space.resolve("paths.Request_printing").unwrap();
    assert_eq!(space.children(request).unwrap().len(), 6);
}
