//! # upsim-core — User-Perceived Service Infrastructure Model generation
//!
//! This crate is the primary contribution of *"A Model for Evaluation of
//! User-Perceived Service Properties"* (Dittrich, Kaitovic, Murillo,
//! Rezende — IPPS 2013), rebuilt as a Rust library.
//!
//! **Definition 2 (paper):** given an ICT infrastructure `N`, a providing
//! service instance `Sp` and a service client `Sc` (both in `N`), the
//! user-perceived service infrastructure model `N_UPSIM ⊆ N` is that part of
//! `N` which includes all components, their properties and relations hosting
//! the atomic services used to compose a specific service provided by `Sp`
//! for `Sc`.
//!
//! The crate provides the four ingredients the problem statement (Sec. IV)
//! demands, plus the automated pipeline:
//!
//! 1. [`profiles`] — the availability profile (Fig. 6: `MTBF`, `MTTR`,
//!    `redundantComponents` on `Device`/`Connector`) and the network profile
//!    (Fig. 7: `Router`/`Switch`/`Printer`/`Computer`/`Client`/`Server`,
//!    `Communication`),
//! 2. [`infrastructure`] — ICT infrastructures as UML class + object
//!    diagrams with a typed builder API and a graph view,
//! 3. [`service`] + [`mapping`] — composite services over atomic services
//!    (UML activity diagrams) and the XML service-mapping format of Fig. 3,
//! 4. [`pipeline`] — the eight-step methodology of Sec. V-B: model import
//!    into the VPM model space (Steps 5–6), path discovery per mapping pair
//!    (Step 7, [`discovery`]), and UPSIM generation (Step 8, [`generate`]),
//!    with incremental re-execution for the dynamicity scenarios of
//!    Sec. V-A3.
//!
//! ```
//! use upsim_core::prelude::*;
//!
//! // A two-hop toy network: client — switch — server.
//! let mut infra = Infrastructure::new("toy");
//! infra.define_device_class(DeviceClassSpec::client("Laptop", 3000.0, 24.0)).unwrap();
//! infra.define_device_class(DeviceClassSpec::switch("Switch", 61320.0, 0.5)).unwrap();
//! infra.define_device_class(DeviceClassSpec::server("Server", 60000.0, 0.1)).unwrap();
//! infra.add_device("c1", "Laptop").unwrap();
//! infra.add_device("sw", "Switch").unwrap();
//! infra.add_device("srv", "Server").unwrap();
//! infra.connect("c1", "sw").unwrap();
//! infra.connect("sw", "srv").unwrap();
//!
//! let service = CompositeService::sequential("fetch", &["request"]).unwrap();
//! let mut mapping = ServiceMapping::new();
//! mapping.add(ServiceMappingPair::new("request", "c1", "srv"));
//!
//! let mut pipeline = UpsimPipeline::new(infra, service, mapping).unwrap();
//! let result = pipeline.run().unwrap();
//! assert_eq!(result.upsim.instances.len(), 3); // c1, sw, srv
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod discovery;
pub mod error;
pub mod generate;
pub mod importers;
pub mod infrastructure;
pub mod interned;
pub mod mapping;
pub mod pipeline;
pub mod profiles;
pub mod service;
pub mod statistics;
pub mod vtcl_reference;

pub use discovery::{DiscoveredPaths, DiscoveryWorkspace};
pub use error::{UpsimError, UpsimResult};
pub use infrastructure::{DeviceClassSpec, DeviceKind, Infrastructure, LinkClassSpec};
pub use interned::{InternedGraph, NameTable};
pub use mapping::{ServiceMapping, ServiceMappingPair};
pub use pipeline::{StepTiming, UpsimPipeline, UpsimRun};
pub use service::CompositeService;

/// Convenience re-exports for the common workflow.
pub mod prelude {
    pub use crate::infrastructure::{DeviceClassSpec, DeviceKind, Infrastructure, LinkClassSpec};
    pub use crate::mapping::{ServiceMapping, ServiceMappingPair};
    pub use crate::pipeline::{UpsimPipeline, UpsimRun};
    pub use crate::service::CompositeService;
}
