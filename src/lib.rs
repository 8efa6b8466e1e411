//! Umbrella crate for the upsim-rs workspace.
//!
//! This crate only hosts the workspace-level examples (`examples/`) and
//! integration tests (`tests/`); the functionality lives in the member
//! crates, re-exported here for convenience:
//!
//! * [`xmlio`] — XML substrate
//! * [`ict_graph`] — graph engine and path discovery
//! * [`uml`] — UML subset (class/object/activity diagrams, profiles)
//! * [`vpm`] — VIATRA2-style model space and transformations
//! * [`upsim_core`] — the UPSIM methodology (the paper's contribution)
//! * [`dependability`] — the availability model, BDD and Monte-Carlo
//!   analysis
//! * [`netgen`] — topology and workload generators
//! * [`upsim_bench`] — the experiments and the RBD / fault-tree / SDP /
//!   graph analyses they print

pub use dependability;
pub use ict_graph;
pub use netgen;
pub use uml;
pub use upsim_bench;
pub use upsim_core;
pub use vpm;
pub use xmlio;
