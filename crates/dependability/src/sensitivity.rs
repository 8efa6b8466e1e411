//! Parameter sensitivity: which MTBF/MTTR would an operator improve first?
//!
//! Paper Sec. VII: *"changes to intrinsic properties of network devices
//! (MTBF, redundant components, ...) can be performed directly in the class
//! description and so reflect to all objects in the service infrastructure
//! model."* This module quantifies the payoff of such a change
//! analytically:
//!
//! `∂A_service/∂θ = Σ_{i : class(i)=c} B_i · ∂A_i/∂θ_c`
//!
//! where `B_i` is the Birnbaum importance of component `i` (computed from
//! the exact BDD) and `∂A_i/∂θ` the derivative of the component
//! availability `A = MTBF/(MTBF+MTTR)` with respect to MTBF or MTTR.
//! Because class attributes are **static** (paper Sec. V-A1), a class-level
//! change moves every instance of the class at once — the per-class sums
//! below are what an operator actually controls.

use crate::transform::ServiceAvailabilityModel;
use std::collections::HashMap;

/// Sensitivity of the service availability to one component's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSensitivity {
    /// Component name.
    pub name: String,
    /// Birnbaum importance `∂A_service/∂A_i`.
    pub birnbaum: f64,
    /// `∂A_service/∂MTBF_i` (per hour of additional MTBF).
    pub d_mtbf: f64,
    /// `∂A_service/∂MTTR_i` (per hour of additional MTTR — negative).
    pub d_mttr: f64,
}

/// Computes per-component sensitivities from the exact service BDD.
///
/// Components with `redundantComponents > 0` chain through the redundancy
/// expansion `A' = 1 − (1 − A)^(r+1)`, i.e. `∂A'/∂A = (r+1)(1−A)^r`.
pub fn component_sensitivities(model: &ServiceAvailabilityModel) -> Vec<ComponentSensitivity> {
    let (mut bdd, f) = model.structure_function();
    let probs = model.availability_vector();
    let mut out = Vec::with_capacity(model.components.len());
    for (i, component) in model.components.iter().enumerate() {
        let up = bdd.restrict(f, i as u32, true);
        let down = bdd.restrict(f, i as u32, false);
        let birnbaum = bdd.probability(up, &probs) - bdd.probability(down, &probs);

        // Base availability before redundancy expansion.
        let (mtbf, mttr) = (component.mtbf, component.mttr);
        if mtbf <= 0.0 {
            // Synthetic components (hand-built models) carry no rates.
            out.push(ComponentSensitivity {
                name: component.name.clone(),
                birnbaum,
                d_mtbf: 0.0,
                d_mttr: 0.0,
            });
            continue;
        }
        let base = mtbf / (mtbf + mttr);
        let total = mtbf + mttr;
        let d_base_d_mtbf = mttr / (total * total);
        let d_base_d_mttr = -mtbf / (total * total);
        let r = component.redundant;
        let d_expanded_d_base = (r as f64 + 1.0) * (1.0 - base).powi(r as i32);
        out.push(ComponentSensitivity {
            name: component.name.clone(),
            birnbaum,
            d_mtbf: birnbaum * d_expanded_d_base * d_base_d_mtbf,
            d_mttr: birnbaum * d_expanded_d_base * d_base_d_mttr,
        });
    }
    out
}

/// Sensitivity aggregated per **class**: the sum over the class's instances
/// (a static class attribute moves them all simultaneously). `classes`
/// maps component name → class name; unmapped components aggregate under
/// their own name.
pub fn class_sensitivities(
    model: &ServiceAvailabilityModel,
    classes: &HashMap<String, String>,
) -> Vec<(String, f64, f64)> {
    let mut by_class: HashMap<String, (f64, f64)> = HashMap::new();
    for s in component_sensitivities(model) {
        let class = classes
            .get(&s.name)
            .cloned()
            .unwrap_or_else(|| s.name.clone());
        let slot = by_class.entry(class).or_insert((0.0, 0.0));
        slot.0 += s.d_mtbf;
        slot.1 += s.d_mttr;
    }
    let mut out: Vec<(String, f64, f64)> =
        by_class.into_iter().map(|(c, (m, r))| (c, m, r)).collect();
    // Rank by leverage: improving MTTR by one hour is usually the actionable
    // knob, so sort by |d_mttr| descending (ties by name).
    out.sort_by(|a, b| {
        b.2.abs()
            .partial_cmp(&a.2.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::AnalysisOptions;
    use upsim_core::pipeline::UpsimPipeline;

    fn usi_model() -> (ServiceAvailabilityModel, HashMap<String, String>) {
        let infra = netgen::usi::usi_infrastructure();
        let mut pipeline = UpsimPipeline::new(
            infra.clone(),
            netgen::usi::printing_service(),
            netgen::usi::table_i_mapping(),
        )
        .unwrap();
        let run = pipeline.run().unwrap();
        let model = ServiceAvailabilityModel::from_run(&infra, &run, AnalysisOptions::default());
        let classes = model
            .components
            .iter()
            .map(|c| (c.name.clone(), infra.class_of(&c.name).unwrap().to_string()))
            .collect();
        (model, classes)
    }

    #[test]
    fn derivatives_have_the_right_signs() {
        let (model, _) = usi_model();
        for s in component_sensitivities(&model) {
            assert!(s.birnbaum >= 0.0, "{s:?}");
            assert!(s.d_mtbf >= 0.0, "more MTBF can only help: {s:?}");
            assert!(s.d_mttr <= 0.0, "more MTTR can only hurt: {s:?}");
        }
    }

    #[test]
    fn finite_difference_validates_the_analytic_derivative() {
        let (model, _) = usi_model();
        let sens = component_sensitivities(&model);
        let t1 = sens.iter().find(|s| s.name == "t1").unwrap();
        // Numeric: bump t1's MTTR by h and recompute through the model.
        let h = 1e-3;
        let mut bumped = model.clone();
        let idx = bumped.component_index("t1").unwrap();
        let c = &mut bumped.components[idx];
        c.mttr += h;
        c.availability = c.mtbf / (c.mtbf + c.mttr);
        let numeric = (bumped.availability_bdd() - model.availability_bdd()) / h;
        assert!(
            (numeric - t1.d_mttr).abs() < 1e-6,
            "numeric {numeric} vs analytic {}",
            t1.d_mttr
        );
    }

    #[test]
    fn class_ranking_reflects_the_leverage_structure() {
        let (model, classes) = usi_model();
        let ranked = class_sensitivities(&model, &classes);
        // Per hour of MTTR saved, the printer (MTTR already 1 h, so the
        // availability curve is steep) edges out the client (MTTR 24 h);
        // both dwarf every infrastructure class by an order of magnitude.
        assert_eq!(ranked[0].0, "Printer", "{ranked:?}");
        assert_eq!(ranked[1].0, "Comp", "{ranked:?}");
        assert!(ranked[1].2.abs() > 10.0 * ranked[2].2.abs(), "{ranked:?}");
        // Per hour of MTBF gained, the client dominates (worst MTBF).
        let best_mtbf = ranked
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(best_mtbf.0, "Comp", "{ranked:?}");
        // The redundant core class has negligible leverage.
        let c6500 = ranked.iter().find(|(c, _, _)| c == "C6500").unwrap();
        assert!(c6500.2.abs() < 1e-8, "{c6500:?}");
    }

    #[test]
    fn redundancy_dampens_sensitivity() {
        // A component with a spare is less sensitive to its parameters.
        let (mut model, _) = usi_model();
        let idx = model.component_index("t1").unwrap();
        let base_sens = component_sensitivities(&model)
            .into_iter()
            .find(|s| s.name == "t1")
            .unwrap();
        let c = &mut model.components[idx];
        c.redundant = 1;
        c.availability = crate::availability::with_redundancy(c.mtbf / (c.mtbf + c.mttr), 1);
        let red_sens = component_sensitivities(&model)
            .into_iter()
            .find(|s| s.name == "t1")
            .unwrap();
        assert!(red_sens.d_mttr.abs() < base_sens.d_mttr.abs());
    }
}
