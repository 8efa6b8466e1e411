//! Transient (time-dependent) analysis — beyond steady state.
//!
//! Paper Sec. VII names responsiveness and performability as further
//! user-perceived properties the UPSIM enables, and its related work
//! explicitly criticizes methodologies that "can only be used to assess
//! steady-state availability". This module adds the textbook transient
//! quantities for the standard two-state Markov component model
//! (failure rate `λ = 1/MTBF`, repair rate `µ = 1/MTTR`):
//!
//! * **instantaneous availability** of a component that starts working:
//!   `A(t) = µ/(λ+µ) + λ/(λ+µ) · e^{−(λ+µ)t}` — decays monotonically from
//!   1 to the steady-state value,
//! * **mission reliability** `R(t) = e^{−λt}` — probability of surviving a
//!   mission of length `t` without any failure (no repair credit),
//! * service-level curves: both plugged into the exact BDD structure
//!   function of a [`ServiceAvailabilityModel`], yielding the
//!   user-perceived `A_service(t)` and `R_service(t)`.

use crate::bdd::{Bdd, BddRef};
use crate::transform::ServiceAvailabilityModel;

/// Failure/repair rates of one component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentRates {
    /// Failure rate `λ = 1/MTBF` (per hour).
    pub lambda: f64,
    /// Repair rate `µ = 1/MTTR` (per hour); `f64::INFINITY` for
    /// instantaneous repair.
    pub mu: f64,
}

impl ComponentRates {
    /// Derives the rates from MTBF/MTTR hours.
    pub fn from_times(mtbf: f64, mttr: f64) -> Self {
        assert!(mtbf > 0.0, "MTBF must be positive");
        assert!(mttr >= 0.0, "MTTR must be non-negative");
        ComponentRates {
            lambda: 1.0 / mtbf,
            mu: if mttr == 0.0 {
                f64::INFINITY
            } else {
                1.0 / mttr
            },
        }
    }

    /// Instantaneous availability at time `t ≥ 0`, starting from a working
    /// state at `t = 0`.
    pub fn instantaneous_availability(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "time must be non-negative");
        if self.mu.is_infinite() {
            return 1.0;
        }
        let total = self.lambda + self.mu;
        self.mu / total + (self.lambda / total) * (-total * t).exp()
    }

    /// Mission reliability over `[0, t]`: no failure, repairs don't count.
    pub fn mission_reliability(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "time must be non-negative");
        (-self.lambda * t).exp()
    }

    /// Steady-state availability (the `t → ∞` limit).
    pub fn steady_state(&self) -> f64 {
        if self.mu.is_infinite() {
            1.0
        } else {
            self.mu / (self.lambda + self.mu)
        }
    }
}

/// Transient service curves derived from a [`ServiceAvailabilityModel`].
pub struct TransientAnalysis {
    rates: Vec<ComponentRates>,
    bdd: Bdd,
    root: BddRef,
}

impl TransientAnalysis {
    /// Builds the analysis: per-component rates from the model's MTBF/MTTR
    /// attributes, structure function = conjunction over all mapping pairs.
    pub fn new(model: &ServiceAvailabilityModel) -> Self {
        let rates = model
            .components
            .iter()
            .map(|c| ComponentRates::from_times(c.mtbf, c.mttr))
            .collect();
        let (bdd, root) = model.structure_function();
        TransientAnalysis { rates, bdd, root }
    }

    /// User-perceived instantaneous service availability at time `t`.
    pub fn availability_at(&self, t: f64) -> f64 {
        let probs: Vec<f64> = self
            .rates
            .iter()
            .map(|r| r.instantaneous_availability(t))
            .collect();
        self.bdd.probability(self.root, &probs)
    }

    /// User-perceived mission reliability over `[0, t]`.
    pub fn reliability_at(&self, t: f64) -> f64 {
        let probs: Vec<f64> = self
            .rates
            .iter()
            .map(|r| r.mission_reliability(t))
            .collect();
        self.bdd.probability(self.root, &probs)
    }

    /// The steady-state limit of [`TransientAnalysis::availability_at`].
    pub fn steady_state(&self) -> f64 {
        let probs: Vec<f64> = self
            .rates
            .iter()
            .map(ComponentRates::steady_state)
            .collect();
        self.bdd.probability(self.root, &probs)
    }

    /// Samples `A(t)` at the given times (convenience for curve reports).
    pub fn availability_curve(&self, times: &[f64]) -> Vec<(f64, f64)> {
        times
            .iter()
            .map(|&t| (t, self.availability_at(t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::steady_state as steady_formula;

    #[test]
    fn component_availability_decays_from_one_to_steady_state() {
        let r = ComponentRates::from_times(1000.0, 10.0);
        assert!((r.instantaneous_availability(0.0) - 1.0).abs() < 1e-12);
        let a_inf = r.instantaneous_availability(1e9);
        assert!((a_inf - steady_formula(1000.0, 10.0)).abs() < 1e-9);
        // Monotone decay.
        let mut prev = 1.0;
        for t in [0.1, 1.0, 10.0, 100.0, 1000.0] {
            let a = r.instantaneous_availability(t);
            assert!(a <= prev + 1e-15, "not monotone at t={t}");
            assert!(a >= r.steady_state() - 1e-15);
            prev = a;
        }
    }

    #[test]
    fn mission_reliability_is_exponential() {
        let r = ComponentRates::from_times(100.0, 1.0);
        assert!((r.mission_reliability(0.0) - 1.0).abs() < 1e-12);
        assert!((r.mission_reliability(100.0) - (-1.0f64).exp()).abs() < 1e-12);
        assert!(r.mission_reliability(1e6) < 1e-9);
    }

    #[test]
    fn zero_mttr_means_always_available() {
        let r = ComponentRates::from_times(10.0, 0.0);
        assert_eq!(r.instantaneous_availability(5.0), 1.0);
        assert_eq!(r.steady_state(), 1.0);
        // ... but missions still fail (no repair credit in R).
        assert!(r.mission_reliability(5.0) < 1.0);
    }

    fn usi_model() -> ServiceAvailabilityModel {
        use upsim_core::pipeline::UpsimPipeline;
        let mut pipeline = UpsimPipeline::new(
            netgen::usi::usi_infrastructure(),
            netgen::usi::printing_service(),
            netgen::usi::table_i_mapping(),
        )
        .unwrap();
        let run = pipeline.run().unwrap();
        ServiceAvailabilityModel::from_run(
            pipeline.infrastructure(),
            &run,
            crate::transform::AnalysisOptions::default(),
        )
    }

    #[test]
    fn service_curve_starts_at_one_and_converges_to_steady_state() {
        let model = usi_model();
        let transient = TransientAnalysis::new(&model);
        assert!((transient.availability_at(0.0) - 1.0).abs() < 1e-12);
        let steady_bdd = model.availability_bdd();
        assert!((transient.steady_state() - steady_bdd).abs() < 1e-12);
        assert!((transient.availability_at(1e7) - steady_bdd).abs() < 1e-9);
        // Monotone decay of the service curve.
        let curve = transient.availability_curve(&[0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0]);
        for pair in curve.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-15, "{pair:?}");
        }
    }

    #[test]
    fn service_reliability_below_availability() {
        let model = usi_model();
        let transient = TransientAnalysis::new(&model);
        for t in [1.0, 10.0, 100.0] {
            let r = transient.reliability_at(t);
            let a = transient.availability_at(t);
            assert!(r <= a + 1e-15, "R(t) must lower-bound A(t) at t={t}");
            assert!(r > 0.0);
        }
    }
}
