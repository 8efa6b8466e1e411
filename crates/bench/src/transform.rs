//! The companion paper's per-pair views of an availability model (paper
//! Sec. VII: *"transforming the UPSIM to a reliability block diagram (RBD)
//! or fault-tree (FT)"*): the pair's availability by sum of disjoint
//! products, its parallel-of-series RBD, its minimal cut sets and the fault
//! tree over them. The product prices every pair with the BDD
//! ([`ServiceAvailabilityModel::pair_availability_bdd`]); these views are
//! what E8, E12 and E14 print beside it, and the tests check them against
//! it.

use crate::cutsets::{fault_tree_from_cut_sets, minimal_cut_sets, CutLimits};
use crate::faulttree::Gate;
use crate::rbd::Block;
use crate::sdp::union_probability;
use dependability::transform::ServiceAvailabilityModel;

/// Exact availability of one pair via sum of disjoint products.
pub fn pair_availability_sdp(model: &ServiceAvailabilityModel, pair_index: usize) -> f64 {
    union_probability(
        &model.systems[pair_index].path_sets,
        &model.availability_vector(),
    )
}

/// The companion-paper RBD for one pair: parallel-of-series over its path
/// sets. `None` when a component is shared between two paths of the pair
/// (the RBD independence precondition fails; use BDD/SDP).
pub fn pair_rbd(model: &ServiceAvailabilityModel, pair_index: usize) -> Option<Block> {
    let block = Block::Parallel(
        model.systems[pair_index]
            .path_sets
            .iter()
            .map(|set| Block::Series(set.iter().map(|&v| Block::Unit(v)).collect()))
            .collect(),
    );
    block.validate_single_use().then_some(block)
}

/// Minimal cut sets of one pair: the minimal component sets whose joint
/// failure disconnects requester from provider (paper Sec. VII's
/// fault-tree view; also the "where can the problem be caused" overview).
pub fn pair_cut_sets(model: &ServiceAvailabilityModel, pair_index: usize) -> Vec<Vec<usize>> {
    minimal_cut_sets(&model.systems[pair_index].path_sets, CutLimits::default())
}

/// The fault tree of one pair, built over its minimal cut sets. Its
/// BDD-exact top-event probability equals `1 − pair availability`.
pub fn pair_fault_tree(model: &ServiceAvailabilityModel, pair_index: usize) -> Gate {
    fault_tree_from_cut_sets(&pair_cut_sets(model, pair_index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dependability::transform::AnalysisOptions;
    use upsim_core::infrastructure::{DeviceClassSpec, Infrastructure};
    use upsim_core::mapping::{ServiceMapping, ServiceMappingPair};
    use upsim_core::pipeline::UpsimPipeline;
    use upsim_core::service::CompositeService;

    /// The model of t1 - (a|b) - srv with a request/response service.
    fn diamond_model() -> ServiceAvailabilityModel {
        let mut infra = Infrastructure::new("diamond");
        infra
            .define_device_class(DeviceClassSpec::client("Comp", 3000.0, 24.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::switch("Sw", 61320.0, 0.5))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1))
            .unwrap();
        for (n, c) in [("t1", "Comp"), ("a", "Sw"), ("b", "Sw"), ("srv", "Server")] {
            infra.add_device(n, c).unwrap();
        }
        for (u, v) in [("t1", "a"), ("t1", "b"), ("a", "srv"), ("b", "srv")] {
            infra.connect(u, v).unwrap();
        }
        let svc = CompositeService::sequential("fetch", &["request", "response"]).unwrap();
        let mapping = ServiceMapping::new()
            .with(ServiceMappingPair::new("request", "t1", "srv"))
            .with(ServiceMappingPair::new("response", "srv", "t1"));
        let mut pipeline = UpsimPipeline::new(infra.clone(), svc, mapping).unwrap();
        let run = pipeline.run().unwrap();
        ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default())
    }

    #[test]
    fn sdp_and_bdd_agree() {
        let model = diamond_model();
        for i in 0..model.systems.len() {
            assert!(
                (model.pair_availability_bdd(i) - pair_availability_sdp(&model, i)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn rbd_available_for_shared_free_pairs() {
        let model = diamond_model();
        // Both paths share t1 and srv → no single-use RBD.
        assert!(pair_rbd(&model, 0).is_none());
    }

    #[test]
    fn rbd_for_single_path_pair() {
        let mut infra = Infrastructure::new("chain");
        infra
            .define_device_class(DeviceClassSpec::client("C", 100.0, 1.0))
            .unwrap();
        infra
            .define_device_class(DeviceClassSpec::server("S", 100.0, 1.0))
            .unwrap();
        infra.add_device("c", "C").unwrap();
        infra.add_device("s", "S").unwrap();
        infra.connect("c", "s").unwrap();
        let svc = CompositeService::sequential("f", &["r"]).unwrap();
        let mapping = ServiceMapping::new().with(ServiceMappingPair::new("r", "c", "s"));
        let mut pipeline = UpsimPipeline::new(infra.clone(), svc, mapping).unwrap();
        let run = pipeline.run().unwrap();
        let model = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        let rbd = pair_rbd(&model, 0).expect("single path is single-use");
        let expected = (100.0f64 / 101.0).powi(2);
        assert!((rbd.availability(&model.availability_vector()) - expected).abs() < 1e-12);
        assert!((model.pair_availability_bdd(0) - expected).abs() < 1e-12);
    }

    #[test]
    fn cut_sets_and_fault_tree_agree_with_bdd() {
        let model = diamond_model();
        for i in 0..model.systems.len() {
            let cuts = pair_cut_sets(&model, i);
            // Diamond: cuts are {t1}, {srv}, {a,b} (in variable indices).
            assert_eq!(cuts.iter().filter(|c| c.len() == 1).count(), 2);
            assert_eq!(cuts.iter().filter(|c| c.len() == 2).count(), 1);
            let ft = pair_fault_tree(&model, i);
            let u = ft.top_event_probability(&model.availability_vector());
            let a = model.pair_availability_bdd(i);
            assert!((a + u - 1.0).abs() < 1e-12, "pair {i}: A={a} U={u}");
        }
    }
}
