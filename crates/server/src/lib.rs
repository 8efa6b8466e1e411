//! `upsim-server` — a resident, concurrent UPSIM query engine.
//!
//! The paper's founding premise (Sec. I/VIII, experiment E15) is that
//! *every* (client, provider) pair perceives a different service
//! infrastructure. A deployment therefore answers many *perspective
//! queries* against one shared model — a workload the per-invocation
//! pipeline in `upsim-cli` rebuilds from scratch every time. This crate
//! keeps the model resident and serves perspectives concurrently:
//!
//! * [`engine::Engine`] — a registry of named model *shards*. Each shard
//!   owns an immutable [`snapshot::ModelSnapshot`] + epoch counter plus a
//!   [`cache::PerspectiveCache`] keyed by `(client, provider, service)`;
//!   updates go through the pipeline's dynamicity semantics (Sec. V-A3):
//!   a removed link invalidates only the perspectives whose UPSIM contains
//!   both endpoints, a service substitution only that service's keys,
//!   while a new link (which can create paths anywhere) flushes everything
//!   — on that shard alone, never on its neighbours. [`engine::Engine::new`]
//!   registers one unnamed default shard (byte-identical single-model
//!   behavior); [`engine::Engine::with_models`] serves several named
//!   models behind the same worker pool and TCP front-end, selected per
//!   connection with the `USE <model>` verb.
//! * a crossbeam worker pool — workers pull jobs from a bounded queue
//!   and evaluate a cache miss with
//!   [`dependability::transform::evaluate_perspective`]: Steps 7–8 on the
//!   snapshot's shared interned graph, then the availability model, with
//!   no model space (the paper's Steps 5–6 import one that the server
//!   never reads). Step 7 walks each endpoint pair of the perspective
//!   twice with the DFS of `ict_graph::paths` on the worker's reused
//!   workspace, once to count its simple paths and once for its chordless
//!   ones, within a budget of DFS frames; it lists no path and starts no
//!   threads.
//! * [`protocol`] — a line-delimited request protocol (`QUERY`, `BATCH`,
//!   `MC`, `UPDATE`, `STATS`, `USE`, `MODELS`, `SHUTDOWN`) with
//!   single-line responses.
//!   `MC` replays the perspective's compiled bit-sliced Monte-Carlo
//!   program ([`dependability::McProgram`], cached per epoch alongside
//!   the exact availability) for confidence-interval estimates at
//!   arbitrary sample counts without touching the pipeline.
//! * the `CAMPAIGN` verb — mass what-if campaigns ([`upsim_campaign`]):
//!   the engine pins a shard's snapshot, prices generated perturbation
//!   scenarios (kill each component, cut each link, substitute each
//!   service step, MTBF sweeps, cross-products) in one pool job that
//!   idle workers help claim, and streams `PROGRESS` milestones before
//!   the ranked SPOF/worst-user report. The live shard is never touched —
//!   no epoch bump, no cache traffic — and the report is byte-identical
//!   across worker counts.
//! * [`server`] — the TCP front-end: a readiness-based event loop
//!   ([`reactor`] — an in-tree epoll/poll wrapper) owns every
//!   connection's I/O on one thread, parses pipelined requests (a client
//!   may send N commands before reading N replies; responses come back
//!   in receive order per connection), and routes completions from the
//!   worker pool into per-connection write buffers. Idle connections
//!   cost a few kilobytes, not an OS thread.
//! * [`metrics::EngineMetrics`] — atomic counters, a log₂ latency
//!   histogram, and per-stage timing aggregation over
//!   [`upsim_core::pipeline::StepTiming`].
//! * [`persist`] — durable engine state: an XML `<engine-state>` snapshot
//!   (export/import through the `crates/xmlio` interchange formats) plus
//!   an append-only, fsynced update journal in the `UPDATE` wire syntax;
//!   a restarted `serve --state-dir` loads the snapshot, replays the
//!   journal suffix, and resumes at the exact pre-restart epoch. A
//!   multi-model server writes a manifest plus one subtree per model
//!   (`<state-dir>/<model>/…`); a manifest-less directory is the legacy
//!   single-model layout and restores into the default shard.

pub mod cache;
pub mod engine;
pub mod metrics;
pub mod persist;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod snapshot;

pub use cache::{CachedPerspective, PerspectiveCache, PerspectiveKey, DEFAULT_CACHE_CAPACITY};
pub use engine::{
    valid_model_name, Engine, EngineConfig, EngineError, ModelInfo, ModelSpec, UpdateCommand,
    UpdateSummary, WireCallback, WireRequest, WireResponse, DEFAULT_MODEL, MAX_MC_SAMPLES,
};
pub use metrics::{EngineMetrics, MetricsSnapshot, ServerMetrics, ShardRollup};
pub use persist::{Journal, JournalEntry, PersistError, RestoreReport, SaveSummary};
pub use server::{serve, serve_with, ServerConfig, UpsimServer};
pub use snapshot::{pingpong_mapper, ModelSnapshot, PerspectiveMapper};
pub use upsim_campaign::{CampaignReport, CampaignSpec};
