//! # upsim-bench — experiment harness
//!
//! Regenerates every table and figure of the paper (experiments E1–E15,
//! indexed in DESIGN.md §3) as plain-text reports. The `experiments` binary
//! prints them; recorded outputs live in `EXPERIMENTS.md`. Performance is
//! measured end to end by `perfbench/` against the shipped `upsim serve`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use table::Table;
