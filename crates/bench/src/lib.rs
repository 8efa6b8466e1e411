//! # upsim-bench — the reproduction's analyses and experiment harness
//!
//! Regenerates every table and figure of the paper (experiments E1–E15,
//! indexed in DESIGN.md §3) as plain-text reports. The `experiments` binary
//! prints them; recorded outputs live in `EXPERIMENTS.md`. Performance is
//! measured end to end by `perfbench/` against the shipped `upsim serve`.
//!
//! Beside the experiments live the analyses only they, the examples and the
//! cross-validation tests use; the server and the CLI never call them.
//! Availability, from `dependability`'s one exact engine (the BDD), is
//! checked against the paper's other views of it:
//!
//! * [`transform`] — the companion paper's per-pair views of an
//!   availability model: SDP, the parallel-of-series RBD, minimal cut sets
//!   and their fault tree,
//! * [`rbd`] — reliability block diagrams (series / parallel),
//! * [`faulttree`] — fault trees (AND / OR gates),
//! * [`sdp`] — sum of disjoint products over minimal path sets (Abraham's
//!   disjointing), the classical alternative to BDDs,
//! * [`cutsets`] — minimal cut sets (Berge's transversals) and the fault
//!   tree over them,
//! * [`performance`] — throughput and hop counts per mapping pair (E12),
//! * [`downtime`] — downtime per year and the nines class,
//!
//! and the graph analyses of the experiment reports:
//!
//! * [`connectivity`] — components, bridges, articulation points,
//! * [`capacity`] — widest paths and max flow over link throughputs,
//! * [`metrics`] — graph statistics (diameter, degrees).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacity;
pub mod connectivity;
pub mod cutsets;
pub mod downtime;
pub mod experiments;
pub mod faulttree;
pub mod metrics;
pub mod performance;
pub mod rbd;
pub mod sdp;
pub mod table;
pub mod transform;

pub use table::Table;
