//! # dependability — user-perceived service dependability analysis
//!
//! The paper's Sec. VII outlook: the generated UPSIM *"can be used to
//! facilitate analysis of various user-perceived dependability properties
//! [...] by transforming the UPSIM to a reliability block diagram (RBD) or
//! fault-tree (FT), in which entities correspond to components of the
//! UPSIM. The availability for individual components can be calculated
//! using the component attributes MTBF and MTTR (Formula 1)."* The
//! companion paper \[20\] ("Model-driven evaluation of user-perceived service
//! availability") carries out that transformation. This crate prices the
//! UPSIM with one exact engine, a BDD over the model's minimal path sets,
//! which is exact where components are shared and an RBD is not; the RBD,
//! fault-tree and SDP views that check it live in `upsim-bench`:
//!
//! * [`availability`] — Formula 1 (exact steady-state and the paper's
//!   printed first-order approximation) and redundancy expansion,
//! * [`bdd`] — a reduced ordered binary decision diagram engine for exact
//!   evaluation of structure functions with **shared components** (the USI
//!   core appears in every path — naive products are wrong there),
//! * [`montecarlo`] — the reference trial-at-a-time Monte-Carlo sampler
//!   with confidence intervals (crossbeam worker fan-out), the oracle the
//!   compiled kernel is tested against,
//! * [`mcprog`] — compiled bit-sliced Monte-Carlo programs, the sampler
//!   every production caller runs: path sets flattened into a word
//!   program evaluating 64 trials per `u64` with counter-based draws
//!   (worker-count-invariant estimates), executed by one block loop in
//!   point, draw-table or posterior-resampling mode,
//! * [`transform`] — the UPSIM → availability-model transformation: builds
//!   a [`transform::ServiceAvailabilityModel`] from an object diagram, the
//!   class diagram it instantiates and the service mapping pairs, and
//!   [`evaluate_perspective`], the one evaluator of a perspective,
//! * [`importance`] — Birnbaum / criticality / Fussell-Vesely component
//!   importance, identifying *"which ICT components can be the cause"*
//!   of service problems (Sec. VII).

#![warn(missing_docs)]
// `deny`, not `forbid`: the one sanctioned exception is the CPU-feature
// dispatch of the wide Monte-Carlo packing kernel in [`mcprog`], which
// needs `#[target_feature]` instantiations behind a runtime-detected
// function pointer. Everything else in the crate stays safe.
#![deny(unsafe_code)]

pub mod availability;
pub mod bdd;
pub mod importance;
pub mod mcprog;
pub mod montecarlo;
pub mod params;
pub mod perturb;
pub mod sensitivity;
pub mod transform;
pub mod transient;

pub use availability::{paper_approximation, steady_state, with_redundancy, ComponentAvailability};
pub use bdd::{Bdd, BddRef};
pub use mcprog::{McProgram, McScratch, PosteriorSampler};
pub use params::{
    overlay_model, refine, ComponentObservations, GammaPosterior, NonMonotoneTimestamp,
    ParamEstimator, ParamSource, PosteriorComponent,
};
pub use transform::{evaluate_perspective, AnalysisOptions, ServiceAvailabilityModel};
