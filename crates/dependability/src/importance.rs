//! Component importance measures.
//!
//! Paper Sec. VII: the UPSIM "provides a quick overview on which ICT
//! components can be the cause" of service problems. Importance measures
//! quantify that overview. All three classics are computed from the exact
//! service BDD by variable restriction:
//!
//! * **Birnbaum** `B_i = A(x_i=1) − A(x_i=0)` — sensitivity of service
//!   availability to component `i`,
//! * **criticality** `C_i = B_i · q_i / U` — probability that `i` is down
//!   *and* critical, given the service is down (`q_i = 1 − p_i`,
//!   `U = 1 − A`),
//! * **Fussell-Vesely** `FV_i = (U − U(x_i=1)) / U` — fraction of service
//!   unavailability involving the failure of `i`.

use crate::transform::ServiceAvailabilityModel;

/// Importance measures of one component.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentImportance {
    /// Component name.
    pub name: String,
    /// Component availability.
    pub availability: f64,
    /// Birnbaum importance.
    pub birnbaum: f64,
    /// Criticality importance.
    pub criticality: f64,
    /// Fussell-Vesely importance.
    pub fussell_vesely: f64,
}

/// Computes importance measures for every component of the model, sorted by
/// descending Birnbaum importance (ties broken by name for determinism).
pub fn component_importance(model: &ServiceAvailabilityModel) -> Vec<ComponentImportance> {
    let (mut bdd, f) = model.structure_function();
    let probs = model.availability_vector();
    let a = bdd.probability(f, &probs);
    let u = 1.0 - a;

    let mut out = Vec::with_capacity(model.components.len());
    for (i, component) in model.components.iter().enumerate() {
        let up = bdd.restrict(f, i as u32, true);
        let down = bdd.restrict(f, i as u32, false);
        let a_up = bdd.probability(up, &probs);
        let a_down = bdd.probability(down, &probs);
        let birnbaum = a_up - a_down;
        let q = 1.0 - component.availability;
        let criticality = if u > 0.0 { birnbaum * q / u } else { 0.0 };
        let fussell_vesely = if u > 0.0 { (u - (1.0 - a_up)) / u } else { 0.0 };
        out.push(ComponentImportance {
            name: component.name.clone(),
            availability: component.availability,
            birnbaum,
            criticality,
            fussell_vesely,
        });
    }
    out.sort_by(|x, y| {
        y.birnbaum
            .partial_cmp(&x.birnbaum)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.name.cmp(&y.name))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::ComponentAvailability;
    use crate::transform::PairSystem;

    /// Hand-built model: series t - m - s (single path), p = .9/.8/.7.
    fn series_model() -> ServiceAvailabilityModel {
        let comp = |name: &str, a: f64| ComponentAvailability {
            name: name.into(),
            mtbf: 0.0,
            mttr: 0.0,
            redundant: 0,
            availability: a,
            source: crate::params::ParamSource::Authored,
        };
        ServiceAvailabilityModel {
            components: vec![comp("t", 0.9), comp("m", 0.8), comp("s", 0.7)],
            systems: vec![PairSystem {
                atomic_service: "as".into(),
                requester: "t".into(),
                provider: "s".into(),
                path_sets: vec![vec![0, 1, 2]],
            }],
        }
    }

    #[test]
    fn birnbaum_of_series_is_product_of_others() {
        let imps = component_importance(&series_model());
        let by_name = |n: &str| imps.iter().find(|i| i.name == n).unwrap();
        assert!((by_name("t").birnbaum - 0.8 * 0.7).abs() < 1e-12);
        assert!((by_name("m").birnbaum - 0.9 * 0.7).abs() < 1e-12);
        assert!((by_name("s").birnbaum - 0.9 * 0.8).abs() < 1e-12);
        // Least available component is most critical in a series system.
        assert_eq!(imps[0].name, "s");
    }

    #[test]
    fn criticality_and_fv_bounded_and_ordered() {
        let imps = component_importance(&series_model());
        for i in &imps {
            assert!((0.0..=1.0 + 1e-12).contains(&i.criticality), "{i:?}");
            assert!((0.0..=1.0 + 1e-12).contains(&i.fussell_vesely), "{i:?}");
        }
        // In a pure series system, FV_i = q_i-involvement fraction; the
        // least available part dominates.
        let fv_s = imps.iter().find(|i| i.name == "s").unwrap().fussell_vesely;
        let fv_t = imps.iter().find(|i| i.name == "t").unwrap().fussell_vesely;
        assert!(fv_s > fv_t);
    }

    #[test]
    fn redundant_branch_has_lower_importance() {
        // t - (a|b) - s: the redundant switches a, b matter far less than
        // the terminals.
        let comp = |name: &str, a: f64| ComponentAvailability {
            name: name.into(),
            mtbf: 0.0,
            mttr: 0.0,
            redundant: 0,
            availability: a,
            source: crate::params::ParamSource::Authored,
        };
        let model = ServiceAvailabilityModel {
            components: vec![
                comp("t", 0.9),
                comp("a", 0.9),
                comp("b", 0.9),
                comp("s", 0.9),
            ],
            systems: vec![PairSystem {
                atomic_service: "as".into(),
                requester: "t".into(),
                provider: "s".into(),
                path_sets: vec![vec![0, 1, 3], vec![0, 2, 3]],
            }],
        };
        let imps = component_importance(&model);
        let b = |n: &str| imps.iter().find(|i| i.name == n).unwrap().birnbaum;
        assert!(b("t") > b("a"));
        assert!(b("s") > b("b"));
        assert!((b("a") - b("b")).abs() < 1e-12, "symmetric branches");
    }

    #[test]
    fn perfect_system_has_zero_relative_measures() {
        let comp = |name: &str| ComponentAvailability {
            name: name.into(),
            mtbf: 0.0,
            mttr: 0.0,
            redundant: 0,
            availability: 1.0,
            source: crate::params::ParamSource::Authored,
        };
        let model = ServiceAvailabilityModel {
            components: vec![comp("x")],
            systems: vec![PairSystem {
                atomic_service: "as".into(),
                requester: "x".into(),
                provider: "x".into(),
                path_sets: vec![vec![0]],
            }],
        };
        let imps = component_importance(&model);
        assert_eq!(imps[0].criticality, 0.0);
        assert_eq!(imps[0].fussell_vesely, 0.0);
        assert!((imps[0].birnbaum - 1.0).abs() < 1e-12);
    }
}
