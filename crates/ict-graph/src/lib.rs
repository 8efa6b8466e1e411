//! # ict-graph — graph engine for service-network analysis
//!
//! The UPSIM methodology (Dittrich et al., IPPS 2013, Sec. V-D) treats the
//! ICT infrastructure as a graph and discovers **all simple paths** between a
//! service requester and provider with a depth-first search that tracks the
//! current path to avoid live-locks in cycles. This crate is that engine,
//! built from scratch (no petgraph), plus everything the surrounding
//! analyses need:
//!
//! * [`Graph`] — an index-stable, directed or undirected multigraph with
//!   arbitrary node/edge weights and O(1) removal tombstones,
//! * [`paths`] — the paper's all-simple-paths DFS: one visitor-driven loop
//!   behind [`paths::walk_paths`], with an optional node mask, a frame
//!   budget and a chordless mode, plus path counting and minimal path sets,
//! * [`prune`] — biconnected components and the block-cut tree, used to
//!   restrict path discovery to the blocks between a source and target
//!   (exactly the nodes that can lie on some simple path),
//! * [`connectivity`] — components, bridges, articulation points,
//! * [`seriesparallel`] — two-terminal series-parallel reduction (used by
//!   the UPSIM → reliability-block-diagram transformation),
//! * [`metrics`], [`dot`] — graph statistics and Graphviz export.
//!
//! ```
//! use ict_graph::{Graph, paths::all_simple_paths};
//!
//! let mut g = Graph::new_undirected();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, ());
//! g.add_edge(b, c, ());
//! g.add_edge(a, c, ());
//! let found = all_simple_paths(&g, a, c);
//! assert_eq!(found.len(), 2); // a-c and a-b-c
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacity;
pub mod connectivity;
pub mod disjoint;
pub mod dot;
pub mod graph;
pub mod metrics;
pub mod paths;
pub mod prune;
pub mod seriesparallel;
pub mod traversal;

pub use graph::{Direction, EdgeId, Graph, NodeId};
pub use paths::Path;
