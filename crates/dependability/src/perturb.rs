//! Baseline-delta helpers: evaluate a [`ServiceAvailabilityModel`] under
//! perturbed component parameters without rebuilding the model.
//!
//! The paper's dynamicity operations (Sec. V-A3) change the *topology*;
//! what-if campaigns additionally ask parametric questions — "this
//! component is dead", "every switch's MTBF halves" — that leave the
//! path-set structure intact and only move the probability vector. These
//! helpers exploit that: one BDD (or one compiled MC program) per
//! perspective serves every parametric scenario.
//!
//! The kill case has a closed form worth naming: setting `p_i = 0` drops
//! the service availability by exactly `p_i · B_i` where `B_i` is the
//! Birnbaum importance `A(x_i=1) − A(x_i=0)` — which is why a
//! `kill-each-component` campaign ranking is cross-checkable against
//! [`component_importance`](crate::importance::component_importance).

use crate::availability::ComponentAvailability;
use crate::transform::ServiceAvailabilityModel;

/// Exact service availability of `model` under a caller-supplied
/// probability vector (same component indexing as
/// [`ServiceAvailabilityModel::availability_vector`]).
///
/// This is [`ServiceAvailabilityModel::availability_bdd`] with the
/// probabilities decoupled from the stored components, so a campaign can
/// re-price one baseline structure under many parametric perturbations.
pub fn availability_with(model: &ServiceAvailabilityModel, probs: &[f64]) -> f64 {
    let (bdd, f) = model.structure_function();
    bdd.probability(f, probs)
}

/// Availability drop caused by killing each component in turn
/// (`A − A(x_i=0)`, i.e. `p_i · B_i`), computed from a single shared BDD.
///
/// Returned in the model's component order; pair-wise deltas of a
/// `kill-each-component` campaign over one perspective must match these
/// values to floating-point identity.
pub fn kill_deltas(model: &ServiceAvailabilityModel) -> Vec<(String, f64)> {
    let (mut bdd, f) = model.structure_function();
    let probs = model.availability_vector();
    let a = bdd.probability(f, &probs);
    model
        .components
        .iter()
        .enumerate()
        .map(|(i, component)| {
            let down = bdd.restrict(f, i as u32, false);
            let a_down = bdd.probability(down, &probs);
            (component.name.clone(), a - a_down)
        })
        .collect()
}

/// Re-prices one component under an MTBF scale factor, keeping MTTR and
/// redundancy: the steady-state (or paper-approximation) availability a
/// `scale-mtbf` sweep substitutes into the probability vector.
pub fn scaled_availability(
    component: &ComponentAvailability,
    mtbf_factor: f64,
    paper_formula: bool,
) -> f64 {
    ComponentAvailability::from_attributes(
        &component.name,
        component.mtbf * mtbf_factor,
        component.mttr,
        component.redundant,
        paper_formula,
    )
    .availability
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::component_importance;
    use crate::transform::PairSystem;

    /// Two components in series, one redundant pair in parallel.
    fn fixture() -> ServiceAvailabilityModel {
        ServiceAvailabilityModel {
            components: vec![
                ComponentAvailability::from_attributes("a", 1000.0, 2.0, 0, false),
                ComponentAvailability::from_attributes("b", 500.0, 8.0, 0, false),
                ComponentAvailability::from_attributes("c", 250.0, 4.0, 1, false),
            ],
            systems: vec![PairSystem {
                atomic_service: "svc".into(),
                requester: "a".into(),
                provider: "b".into(),
                path_sets: vec![vec![0, 1], vec![0, 2]],
            }],
        }
    }

    #[test]
    fn availability_with_baseline_vector_matches_bdd() {
        let model = fixture();
        let exact = model.availability_bdd();
        let re = availability_with(&model, &model.availability_vector());
        assert_eq!(exact.to_bits(), re.to_bits());
    }

    #[test]
    fn killing_a_component_is_zeroing_its_probability() {
        let model = fixture();
        let deltas = kill_deltas(&model);
        let base = model.availability_bdd();
        for (i, (name, delta)) in deltas.iter().enumerate() {
            let mut probs = model.availability_vector();
            probs[i] = 0.0;
            let killed = availability_with(&model, &probs);
            assert!(
                (base - killed - delta).abs() < 1e-15,
                "{name}: restrict delta {delta} vs re-priced {}",
                base - killed
            );
        }
    }

    #[test]
    fn kill_delta_equals_p_times_birnbaum() {
        let model = fixture();
        let deltas = kill_deltas(&model);
        let importance = component_importance(&model);
        for (name, delta) in &deltas {
            let imp = importance
                .iter()
                .find(|imp| &imp.name == name)
                .expect("every component ranked");
            assert!(
                (delta - imp.availability * imp.birnbaum).abs() < 1e-12,
                "{name}: {delta} vs p·B {}",
                imp.availability * imp.birnbaum
            );
        }
    }

    #[test]
    fn mtbf_scaling_moves_availability_monotonically() {
        let model = fixture();
        let comp = &model.components[1];
        let worse = scaled_availability(comp, 0.5, false);
        let same = scaled_availability(comp, 1.0, false);
        let better = scaled_availability(comp, 4.0, false);
        assert!(worse < comp.availability);
        assert_eq!(same.to_bits(), comp.availability.to_bits());
        assert!(better > comp.availability);
    }
}
