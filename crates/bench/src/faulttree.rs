//! Fault trees — the dual view of the RBD (paper Sec. VII offers both).
//!
//! A fault tree describes the *failure* of the service: the top event
//! occurs when the gate structure over basic component-failure events is
//! true. [`crate::cutsets::fault_tree_from_cut_sets`] builds one from a
//! pair's minimal cut sets; evaluation goes through the BDD engine, so
//! repeated basic events are handled exactly.

use dependability::bdd::{Bdd, BddRef};

/// A fault-tree gate over basic events (component indices; the event is
/// "component i has failed").
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Basic event: failure of one component.
    Basic(usize),
    /// Output fails when **any** input fails... i.e. logical OR of failures.
    Or(Vec<Gate>),
    /// Output fails when **all** inputs fail (redundancy).
    And(Vec<Gate>),
}

impl Gate {
    /// Encodes the failure function into a BDD. Variables keep the
    /// *availability* polarity (variable true = component up), so the
    /// returned function is true when the top event occurs.
    pub fn to_bdd(&self, bdd: &mut Bdd) -> BddRef {
        match self {
            Gate::Basic(i) => {
                let up = bdd.var(*i as u32);
                bdd.not(up)
            }
            Gate::Or(gs) => {
                let mut acc = bdd.zero();
                for g in gs {
                    let sub = g.to_bdd(bdd);
                    acc = bdd.or(acc, sub);
                }
                acc
            }
            Gate::And(gs) => {
                let mut acc = bdd.one();
                for g in gs {
                    let sub = g.to_bdd(bdd);
                    acc = bdd.and(acc, sub);
                }
                acc
            }
        }
    }

    /// Exact top-event probability (system unavailability) given component
    /// **availabilities**.
    pub fn top_event_probability(&self, availability: &[f64]) -> f64 {
        let mut bdd = Bdd::new();
        let f = self.to_bdd(&mut bdd);
        bdd.probability(f, availability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_gate_is_series_failure() {
        let ft = Gate::Or(vec![Gate::Basic(0), Gate::Basic(1)]);
        let comp = [0.9, 0.8];
        // fails unless both up: 1 - 0.72
        assert!((ft.top_event_probability(&comp) - 0.28).abs() < 1e-12);
    }

    #[test]
    fn and_gate_is_redundancy() {
        let ft = Gate::And(vec![Gate::Basic(0), Gate::Basic(1)]);
        let comp = [0.9, 0.8];
        // fails only if both down: 0.1 * 0.2
        assert!((ft.top_event_probability(&comp) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn repeated_events_are_exact() {
        // Failure = c0 down OR (c1 down AND c0 down) — simplifies to c0 down.
        let ft = Gate::Or(vec![
            Gate::Basic(0),
            Gate::And(vec![Gate::Basic(1), Gate::Basic(0)]),
        ]);
        let comp = [0.9, 0.5];
        assert!((ft.top_event_probability(&comp) - 0.1).abs() < 1e-12);
    }
}
