//! Mass what-if campaigns over user-perceived service availability
//! models.
//!
//! A *campaign* is a base model plus a perturbation generator: enumerate
//! every component kill, every link cut, every dropped service step,
//! and/or parametric MTBF sweeps — cross-producted — and evaluate each
//! generated scenario against per-perspective baselines, never touching
//! the live model. The result is a ranked report: which perturbation
//! hurts the most users, where the single points of failure are, who the
//! worst-hit clients are, and how many nines each scenario costs.
//!
//! The crate is deliberately engine-agnostic: [`eval`] exposes
//! chunk/scenario evaluation functions that `upsim-server` fans out
//! across its worker pool, and [`eval::run_serial`] runs the same code on
//! one thread. Determinism is a contract: scenario generation is
//! positional, evaluation is a pure function of (model, spec), and the
//! JSON rendering carries no timing state — so a report is byte-identical
//! across worker counts and runs.
//!
//! Paper connection: structural perturbations are Sec. V-A3 dynamicity
//! operations (disconnect, service substitution) applied in bulk;
//! parametric ones re-price the Sec. VI availability model; the
//! `kill-each-component` ranking equals the Birnbaum-importance ranking
//! (`ΔA = p·B`, see [`dependability::perturb`]), which Sec. VII proposes
//! as the "which ICT components can be the cause" overview.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod eval;
pub mod report;
pub mod scenario;
pub mod spec;

pub use eval::{
    evaluate_baseline, evaluate_baseline_chunk, evaluate_scenario_with, run_serial, Baseline,
    BaselinePerspective, CampaignInput, EvalCtx, PerspectiveMapper, ScenarioOutcome,
};
pub use report::{aggregate, nines, CampaignReport, ScenarioRow, UserImpact};
pub use scenario::{Perturbation, Scenario};
pub use spec::{Axis, CampaignSpec, McSettings, DEFAULT_SCENARIO_LIMIT};
