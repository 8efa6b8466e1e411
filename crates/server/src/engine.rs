//! The resident query engine: a registry of model shards + worker pool.
//!
//! Request path: every verb enters through [`Engine::execute_wire`]. It
//! resolves the shard, answers cache hits and immediate errors on the
//! calling thread, and hands everything that evaluates, mutates or
//! samples to the worker pool as one job. An `MC`, a `BATCH` with misses
//! and a `CAMPAIGN` each run as one claim run: the worker that took the
//! request claims its items (blocks; misses; baselines, then scenarios)
//! beside helper jobs on free workers, and whichever claimant finishes the
//! last item answers, so no thread waits on the pool. The answer goes to a
//! completion callback. The TCP front-end's callback writes the reply; the
//! blocking methods (`query`, `batch`, `monte_carlo`, `update`,
//! `save_state`, `campaign` and their `_on` forms) pass a one-shot channel
//! and wait on it. A request is therefore counted, queued and cancelled in
//! one place, whichever caller sent it.
//!
//! Concurrency design, in one paragraph: each registered model lives in
//! its own shard — an `RwLock<Arc<ModelSnapshot>>`; workers clone the
//! `Arc` (briefly holding the read lock) and evaluate against that
//! immutable generation, so an update never tears an in-flight
//! evaluation. An update clones the shard's snapshot, applies the change,
//! bumps the shard's epoch atomic, sweeps the affected cache keys, and
//! publishes the new `Arc` — in that order, which together with the epoch
//! re-check inside [`PerspectiveCache::insert`] guarantees a result
//! computed against a superseded generation is never served afterwards.
//!
//! Sharding design: the worker pool and job queue stay global (jobs carry
//! an `Arc<Shard>` tag), while everything model-scoped — snapshot, epoch,
//! perspective + negative caches, metrics, journal — is per shard. A
//! worker holds no model state: a cache miss runs
//! [`evaluate_perspective`] (Steps 7–8 sized to their answer, no model
//! space) on the snapshot's shared interned graph, with the worker's one
//! Step 7 workspace as scratch. A perspective whose Step 7 runs past the
//! frame budget is a model error, cached for the epoch like the others.
//! An engine built with [`Engine::new`] has exactly one unnamed
//! default shard and behaves byte-identically to the pre-registry engine;
//! [`Engine::with_models`] registers several named shards behind the same
//! pool, addressed by the `USE <model>` protocol verb.

mod pool;

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{self, Receiver, Sender};
use dependability::mcprog::{BlockShare, ClaimCursor, PosteriorSampler, RunSpec, Sampling};
use dependability::transform::evaluate_perspective;
use pool::{ClaimRun, Job, Phase, Phases, Reply};
use upsim_campaign::{
    aggregate, evaluate_baseline, evaluate_scenario_with, Baseline, BaselinePerspective,
    CampaignInput, CampaignReport, CampaignSpec, EvalCtx, ScenarioOutcome,
};
use upsim_core::discovery::DiscoveryOptions;
use upsim_core::error::UpsimError;
use upsim_core::service::CompositeService;

use crate::cache::{
    CachedPerspective, NegativeCache, PerspectiveCache, PerspectiveKey, DEFAULT_CACHE_CAPACITY,
};
use crate::metrics::{EngineMetrics, MetricsSnapshot, ShardRollup};
use crate::persist::{self, Journal, SaveSummary};
use crate::snapshot::{pingpong_mapper, ModelSnapshot, PerspectiveMapper};

/// Name of the implicit shard an [`Engine::new`] engine registers — the
/// back-compat single-model mode (`USE default` also resolves to it).
pub const DEFAULT_MODEL: &str = "default";

/// Most trials one `MC` request may ask for; a larger request is answered
/// [`EngineError::McSampleLimit`] without running.
pub const MAX_MC_SAMPLES: usize = 1 << 30;

/// Whether `name` is usable as a model name: nonempty, at most 64 bytes,
/// only ASCII alphanumerics plus `-`, `_`, `.`, and not a path alias
/// (`.` / `..`) — model names double as state-directory components.
pub fn valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name != "."
        && name != ".."
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

/// Errors surfaced to engine callers (and over the wire as `ERR` lines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A queried client or provider is not an infrastructure device.
    UnknownDevice(String),
    /// `USE` (or a routed request) named a model that is not registered.
    UnknownModel(String),
    /// A model-layer failure (validation, pipeline, update).
    Model(String),
    /// `UPDATE CONNECT` named two devices that are already linked. A
    /// second link would be a parallel edge, so the update is refused
    /// before it is journaled.
    DuplicateLink { a: String, b: String },
    /// `UPDATE DISCONNECT` named two devices that are not linked (or a
    /// device that does not exist): the update would change nothing, so
    /// it is refused before it is journaled.
    NoLink { a: String, b: String },
    /// `UPDATE CONNECT` named the same device twice. A self-link is no
    /// edge of any simple path, so the update is refused before it is
    /// journaled.
    SelfLink(String),
    /// A what-if campaign failed (bad spec, scope, or evaluation).
    Campaign(String),
    /// A persistence failure (journal append, snapshot save, state dir).
    Persist(String),
    /// An `OBSERVE` carried a timestamp that does not strictly advance
    /// the component's observation clock (out-of-order or duplicate) —
    /// rejected before any state changes, so interval censoring never
    /// silently corrupts.
    NonMonotoneObservation(String),
    /// An `MC` asked for more than [`MAX_MC_SAMPLES`] trials. It is
    /// refused before it reaches the pool, where a sharded run would tie
    /// up every worker.
    McSampleLimit(usize),
    /// The engine is shut down (or a worker disappeared mid-request).
    Shutdown,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownDevice(name) => write!(f, "unknown device `{name}`"),
            EngineError::UnknownModel(name) => write!(f, "unknown model `{name}` (try MODELS)"),
            EngineError::Model(msg) => write!(f, "model error: {msg}"),
            EngineError::DuplicateLink { a, b } => write!(f, "link {a}--{b} already exists"),
            EngineError::NoLink { a, b } => write!(f, "no link {a}--{b}"),
            EngineError::SelfLink(device) => write!(f, "cannot link {device} to itself"),
            EngineError::Campaign(msg) => write!(f, "campaign error: {msg}"),
            EngineError::Persist(msg) => write!(f, "persistence error: {msg}"),
            EngineError::NonMonotoneObservation(msg) => write!(f, "{msg}"),
            EngineError::McSampleLimit(samples) => write!(
                f,
                "MC samples {samples} exceed the per-request limit of {MAX_MC_SAMPLES}"
            ),
            EngineError::Shutdown => write!(f, "engine is shut down"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<UpsimError> for EngineError {
    fn from(err: UpsimError) -> Self {
        EngineError::Model(err.to_string())
    }
}

/// Engine construction knobs.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Bound of the job queue — backpressure for `BATCH` floods.
    pub queue_capacity: usize,
    /// LRU capacity of each shard's perspective cache (`--cache-cap`); the
    /// least-recently-used entry is evicted when a new result would exceed
    /// it.
    pub cache_capacity: usize,
    /// Unread: the engine's one evaluator, campaigns included, runs Step 7
    /// sized to its answer on the worker's own workspace, with no options.
    /// The field stays only because the benchmark reads and passes it.
    pub discovery: DiscoveryOptions,
    /// Derives the per-perspective mapping for the default shard of
    /// [`Engine::new`] (defaults to [`pingpong_mapper`]). Engines built
    /// with [`Engine::with_models`] carry a mapper per [`ModelSpec`]
    /// instead.
    pub mapper: PerspectiveMapper,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            queue_capacity: 256,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            discovery: DiscoveryOptions,
            mapper: pingpong_mapper(),
        }
    }
}

/// One named model to register in a multi-model engine.
pub struct ModelSpec {
    /// Registry name (must satisfy [`valid_model_name`], unique).
    pub name: String,
    /// Initial (or restored) model state.
    pub snapshot: ModelSnapshot,
    /// Per-perspective mapping derivation for this model.
    pub mapper: PerspectiveMapper,
}

/// One row of the `MODELS` response: a registered model with its epoch and
/// cache residency.
#[derive(Debug, Clone)]
pub struct ModelInfo {
    pub name: String,
    pub epoch: u64,
    pub cache_len: usize,
    pub cache_capacity: usize,
    /// Components whose MTBF/MTTR are observation-refined on this shard.
    pub observed: usize,
}

/// A dynamicity command (paper Sec. V-A3), applied atomically to the
/// resident model.
#[derive(Debug, Clone)]
pub enum UpdateCommand {
    /// Add a link between two existing devices. New links can create new
    /// paths for *any* perspective, so this flushes the whole cache.
    Connect { a: String, b: String },
    /// Remove a link. Invalidates only perspectives whose UPSIM contains
    /// both endpoints (minimal recomputation).
    Disconnect { a: String, b: String },
    /// Replace the composite service, keeping the network model.
    SubstituteService { service: CompositeService },
    /// Fold one observed `up|down` transition of a component into the
    /// shard's parameter estimators (`OBSERVE <component> <up|down> <ts>`).
    /// Invalidates only perspectives whose UPSIM contains the component.
    Observe {
        component: String,
        up: bool,
        /// Event time, integer seconds (strictly increasing per component).
        ts: u64,
    },
    /// A batched run of transitions (`OBSERVE BATCH c:up:ts ...`) applied
    /// atomically: one epoch bump, one journal line, one cache sweep.
    ObserveBatch { events: Vec<(String, bool, u64)> },
}

impl UpdateCommand {
    fn kind(&self) -> &'static str {
        match self {
            UpdateCommand::Connect { .. } => "connect",
            UpdateCommand::Disconnect { .. } => "disconnect",
            UpdateCommand::SubstituteService { .. } => "substitute-service",
            UpdateCommand::Observe { .. } => "observe",
            UpdateCommand::ObserveBatch { .. } => "observe-batch",
        }
    }

    /// How many transition events this command carries (0 for topology
    /// and service updates) — the `observations_total` metric increment.
    fn observation_count(&self) -> u64 {
        match self {
            UpdateCommand::Observe { .. } => 1,
            UpdateCommand::ObserveBatch { events } => events.len() as u64,
            _ => 0,
        }
    }
}

/// What an applied update did.
#[derive(Debug, Clone)]
pub struct UpdateSummary {
    /// Epoch of the newly published snapshot.
    pub epoch: u64,
    /// Cache entries dropped by the targeted invalidation.
    pub invalidated: usize,
    /// `"connect"`, `"disconnect"`, or `"substitute-service"`.
    pub kind: &'static str,
}

/// A request as [`Engine::execute_wire`] takes it. The TCP front-end
/// builds one per parsed command, the blocking methods one per call. The
/// engine answers cache hits synchronously and routes everything that
/// computes, mutates, or samples to the worker pool.
pub enum WireRequest {
    Query {
        client: String,
        provider: String,
    },
    Batch {
        pairs: Vec<(String, String)>,
    },
    MonteCarlo {
        client: String,
        provider: String,
        samples: usize,
        seed: u64,
        /// `MC ... interval`: also report a 95% interval — the confidence
        /// interval for the posterior-mean availability (block-resampled
        /// thresholds) when the perspective has observation-refined
        /// components, the Wilson sampling interval otherwise.
        interval: bool,
    },
    Update(UpdateCommand),
    Save,
    /// A what-if campaign: a claim run whose phases are its baseline
    /// pairs and then its scenarios, claimed by the worker that takes it
    /// and by helpers on free workers. `progress(done, total)` is called
    /// after each scenario, never after the answer; flipping `cancel`
    /// (e.g. when the requesting client disconnects) stops every claimant
    /// before its next item and answers `campaign cancelled`.
    Campaign {
        spec: CampaignSpec,
        cancel: Arc<AtomicBool>,
        progress: Box<dyn FnMut(usize, usize) + Send>,
    },
}

/// The typed result of a [`WireRequest`], delivered to the completion
/// callback. `cached` mirrors the `source=hit|miss` wire field.
pub enum WireResponse {
    Query {
        entry: Arc<CachedPerspective>,
        cached: bool,
    },
    Batch(Vec<Result<Arc<CachedPerspective>, EngineError>>),
    MonteCarlo {
        result: dependability::montecarlo::MonteCarloResult,
        entry: Arc<CachedPerspective>,
        cached: bool,
        /// The requested 95% interval (`MC ... interval` only).
        interval: Option<(f64, f64)>,
    },
    Update(UpdateSummary),
    Save(SaveSummary),
    /// `json` echoes the spec's `json` clause, which picks the rendering.
    Campaign {
        report: CampaignReport,
        json: bool,
    },
}

/// Completion callback of [`Engine::execute_wire`]. May run on the calling
/// thread (cache hit, immediate error) or on a worker. If the engine shuts
/// down with the job still queued the callback is *dropped* without being
/// invoked — callers that must always answer should put a drop guard
/// around the state it captures (the TCP front-end does exactly that).
pub type WireCallback = Box<dyn FnOnce(Result<WireResponse, EngineError>) + Send>;

/// An `MC`'s one phase: its sampling run's blocks, which `McProgram::claim`
/// takes through the run's stop rule and merges.
struct McBlocks {
    entry: Arc<CachedPerspective>,
    cached: bool,
    samples: usize,
    seed: u64,
    interval: bool,
    /// Resamples observed slots (an `MC … interval` on observed parameters).
    sampler: Option<PosteriorSampler>,
    share: BlockShare,
}

impl Phases for McBlocks {
    fn claim(run: &Arc<ClaimRun<Self>>, ctx: &mut EvalCtx, anchor: bool) {
        let mc = &run.phases;
        let spec = mc_spec(mc.samples, mc.seed, mc.sampler.as_ref());
        let next = |cursor: &ClaimCursor| run.next_range(cursor, anchor);
        let program = &mc.entry.mc_program;
        // The claimant that folds in the last block answers.
        if let Some(outcome) = program.claim(&spec, &mc.share, &mut ctx.scratch, next) {
            let wilson = outcome.result.confidence_95();
            run.reply.answer(Ok(WireResponse::MonteCarlo {
                result: outcome.result,
                entry: Arc::clone(&mc.entry),
                cached: mc.cached,
                interval: mc.interval.then(|| outcome.interval.unwrap_or(wilson)),
            }));
        }
    }
}

/// The run an `MC` request samples: point, or posterior-resampled when a
/// sampler is given.
fn mc_spec(samples: usize, seed: u64, sampler: Option<&PosteriorSampler>) -> RunSpec<'_> {
    let sampling = match sampler {
        Some(sampler) => Sampling::Posterior {
            samples,
            seed,
            sampler,
        },
        None => Sampling::Point { samples, seed },
    };
    RunSpec {
        probs: None,
        sampling,
    }
}

/// One pair's result in a `BATCH` reply.
type PairResult = Result<Arc<CachedPerspective>, EngineError>;

/// A `BATCH`'s one phase: the pairs its probe missed, in pair order.
struct BatchMisses {
    pairs: Vec<(String, String)>,
    /// Each pair's probe, up to the first failure.
    probed: Vec<Result<Option<Arc<CachedPerspective>>, EngineError>>,
    misses: Vec<usize>,
    phase: Phase<PairResult>,
}

impl BatchMisses {
    /// The reply: each pair's result in order, where the first failure
    /// also stands for every later pair. Every miss before it ran.
    fn reply(&self, evaluated: Vec<Option<PairResult>>) -> WireResponse {
        let mut evaluated = evaluated.into_iter().flatten();
        let mut results = Vec::with_capacity(self.pairs.len());
        for probed in self.probed.iter().cloned() {
            let result = probed.transpose().or_else(|| evaluated.next());
            match result.expect("every miss before the first failure is evaluated") {
                Ok(entry) => results.push(Ok(entry)),
                Err(err) => {
                    results.resize(self.pairs.len(), Err(err));
                    break;
                }
            }
        }
        WireResponse::Batch(results)
    }
}

impl Phases for BatchMisses {
    fn claim(run: &Arc<ClaimRun<Self>>, ctx: &mut EvalCtx, anchor: bool) {
        let batch = &run.phases;
        let evaluated = run.claim_items(&batch.phase, anchor, |ix| {
            let (client, provider) = &batch.pairs[batch.misses[ix]];
            evaluate(&run.shard, ctx, client, provider)
        });
        if let Some(evaluated) = evaluated {
            run.reply.answer(Ok(batch.reply(evaluated)));
        }
    }
}

/// A `CAMPAIGN`'s phases: its baseline pairs, then its scenarios against
/// the baseline they build.
struct CampaignPhases {
    input: CampaignInput,
    pairs: Phase<Result<BaselinePerspective, String>>,
    baseline: OnceLock<Baseline>,
    scenarios: Phase<Result<ScenarioOutcome, String>>,
}

impl Phases for CampaignPhases {
    /// Counts the job as one the campaign ran as and joins the open phase.
    /// Whoever stores the last baseline opens the scenarios as their
    /// anchor; whoever stores the last scenario aggregates the report.
    fn claim(run: &Arc<ClaimRun<Self>>, ctx: &mut EvalCtx, mut anchor: bool) {
        let (campaign, metrics) = (&run.phases, &run.shard.metrics);
        EngineMetrics::bump(&metrics.scatter_chunks);
        if campaign.baseline.get().is_none() {
            let price = |ix| evaluate_baseline(&campaign.input, ix, ctx);
            let Some(results) = run.claim_items(&campaign.pairs, anchor, price) else {
                return;
            };
            let built = match results.into_iter().flatten().collect() {
                Ok(perspectives) => Baseline { perspectives },
                Err(msg) => return run.reply.answer(Err(EngineError::Campaign(msg))),
            };
            // A baseline with MC state was priced by one run on its
            // stream: under common random numbers, and in every
            // `posterior` campaign.
            let sampled = built.perspectives.iter().filter(|p| p.mc.is_some());
            let samples = campaign.input.spec.mc.map_or(0, |mc| mc.samples as u64);
            EngineMetrics::add(&metrics.mc_trials_total, samples * sampled.count() as u64);
            campaign.baseline.get_or_init(|| built);
            run.open(campaign.scenarios.cursor.claims());
            anchor = true;
        }
        let baseline = campaign.baseline.get().expect("the baseline phase is done");
        let outcomes = run.claim_items(&campaign.scenarios, anchor, |ix| {
            let outcome = evaluate_scenario_with(&campaign.input, baseline, ix, ctx);
            run.reply.tick();
            if let Ok(outcome) = &outcome {
                EngineMetrics::bump(&metrics.scenarios_evaluated);
                EngineMetrics::add(&metrics.mc_trials_total, outcome.mc_trials);
                EngineMetrics::add(&metrics.campaign_crn_reuse, outcome.crn_reused);
            }
            outcome
        });
        if let Some(outcomes) = outcomes {
            let outcomes: Result<Vec<_>, _> = outcomes.into_iter().flatten().collect();
            let report = outcomes.map(|outcomes| aggregate(&campaign.input, baseline, &outcomes));
            if report.is_ok() {
                EngineMetrics::bump(&metrics.campaigns_run);
            }
            let json = campaign.input.spec.json;
            let reply = report.map(|report| WireResponse::Campaign { report, json });
            run.reply.answer(reply.map_err(EngineError::Campaign));
        }
    }
}

/// Journal + autosave state, present once persistence is enabled.
struct PersistHandle {
    dir: PathBuf,
    journal: Journal,
    /// Autosave the snapshot after this many journaled updates (0 = only
    /// on explicit `SAVE`).
    save_every: usize,
    updates_since_save: usize,
}

/// Everything one registered model owns: snapshot + epoch, perspective and
/// negative caches, metrics, mapper, and its persistence subtree.
struct Shard {
    name: String,
    snapshot: RwLock<Arc<ModelSnapshot>>,
    epoch: AtomicU64,
    cache: PerspectiveCache,
    negative: NegativeCache,
    metrics: EngineMetrics,
    mapper: PerspectiveMapper,
    persist: Mutex<Option<PersistHandle>>,
    journal_len: AtomicU64,
    last_save_epoch: AtomicU64,
}

impl Shard {
    fn new(spec: ModelSpec, cache_capacity: usize) -> Shard {
        Shard {
            name: spec.name,
            epoch: AtomicU64::new(spec.snapshot.epoch),
            snapshot: RwLock::new(Arc::new(spec.snapshot)),
            cache: PerspectiveCache::with_capacity(cache_capacity),
            negative: NegativeCache::new(),
            metrics: EngineMetrics::new(),
            mapper: spec.mapper,
            persist: Mutex::new(None),
            journal_len: AtomicU64::new(0),
            last_save_epoch: AtomicU64::new(0),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    fn model(&self) -> Arc<ModelSnapshot> {
        self.snapshot.read().expect("snapshot poisoned").clone()
    }

    /// Appends the update to this shard's journal (fsynced). No-op without
    /// persistence. Called under the snapshot write lock, before the
    /// update takes effect in memory.
    fn journal_append(
        &self,
        published: &Arc<ModelSnapshot>,
        command: &UpdateCommand,
    ) -> Result<(), EngineError> {
        let mut persist = self.persist.lock().expect("persist poisoned");
        let Some(handle) = persist.as_mut() else {
            return Ok(());
        };
        handle
            .journal
            .append(published.epoch, command)
            .map_err(|e| EngineError::Persist(format!("journal append: {e}")))?;
        self.journal_len
            .store(handle.journal.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Runs the `--save-every` autosave for a just-published update,
    /// outside the snapshot lock. A failed save is non-fatal — the update
    /// is already durable in the journal — so it is reported on stderr and
    /// retried after the next update. Must not touch the snapshot lock
    /// (lock order is snapshot → persist, never the reverse).
    fn maybe_autosave(&self, published: &Arc<ModelSnapshot>) {
        let mut persist = self.persist.lock().expect("persist poisoned");
        let Some(handle) = persist.as_mut() else {
            return;
        };
        handle.updates_since_save += 1;
        if handle.save_every == 0 || handle.updates_since_save < handle.save_every {
            return;
        }
        // A concurrent saver may already have exported a newer epoch;
        // overwriting it with this older snapshot would be a step back.
        if self.last_save_epoch.load(Ordering::Relaxed) >= published.epoch {
            handle.updates_since_save = 0;
            return;
        }
        match persist::save_snapshot(&handle.dir, published) {
            Ok(_) => {
                handle.updates_since_save = 0;
                self.last_save_epoch
                    .fetch_max(published.epoch, Ordering::Relaxed);
            }
            Err(err) => {
                eprintln!(
                    "upsim-server: autosave of model '{}' failed (will retry after next update): {err}",
                    self.name
                );
            }
        }
    }
}

struct Shared {
    /// Registered shards in registration order; index 0 is the default
    /// shard a session without `USE` is routed to.
    shards: Vec<Arc<Shard>>,
    by_name: HashMap<String, usize>,
    /// `true` for [`Engine::new`] engines: one implicit shard, legacy
    /// single-model persistence layout, no per-model `STATS` fields.
    unnamed_default: bool,
    shutdown: AtomicBool,
    /// Workers not running a job: parked on the queue, or about to take
    /// from it. With the queue length it tells a claim run whether it may
    /// borrow a worker (see `Engine::spare_workers`).
    idle_workers: AtomicUsize,
    /// Root state directory once persistence is enabled (the manifest and
    /// per-model subtrees live under it; the legacy layout *is* it).
    state_root: Mutex<Option<PathBuf>>,
}

/// Handle to the resident engine. Cheap to clone; all clones share the
/// shard registry, caches, metrics, and worker pool.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
    job_tx: Sender<Job>,
    /// Kept so `shutdown` can drain jobs the workers never consumed.
    job_rx: Receiver<Job>,
    workers: usize,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Engine {
    /// Spawns the worker pool around a single unnamed model — the
    /// back-compat construction: every verb behaves exactly as before the
    /// registry existed, no `USE` required.
    pub fn new(snapshot: ModelSnapshot, config: EngineConfig) -> Self {
        let mapper = Arc::clone(&config.mapper);
        let spec = ModelSpec {
            name: DEFAULT_MODEL.to_string(),
            snapshot,
            mapper,
        };
        Engine::build(vec![spec], config, true).expect("a single default model is always valid")
    }

    /// Spawns the worker pool around several named models sharing one job
    /// queue. Fails on an empty registry, an invalid name, or a duplicate.
    pub fn with_models(models: Vec<ModelSpec>, config: EngineConfig) -> Result<Self, EngineError> {
        Engine::build(models, config, false)
    }

    fn build(
        models: Vec<ModelSpec>,
        config: EngineConfig,
        unnamed_default: bool,
    ) -> Result<Self, EngineError> {
        if models.is_empty() {
            return Err(EngineError::Model("at least one model is required".into()));
        }
        let mut shards = Vec::with_capacity(models.len());
        let mut by_name = HashMap::with_capacity(models.len());
        for spec in models {
            if !valid_model_name(&spec.name) {
                return Err(EngineError::Model(format!(
                    "invalid model name `{}` (use 1-64 ASCII alphanumerics, `-`, `_`, `.`)",
                    spec.name
                )));
            }
            if by_name.insert(spec.name.clone(), shards.len()).is_some() {
                return Err(EngineError::Model(format!(
                    "duplicate model name `{}`",
                    spec.name
                )));
            }
            shards.push(Arc::new(Shard::new(spec, config.cache_capacity)));
        }
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            shards,
            by_name,
            unnamed_default,
            shutdown: AtomicBool::new(false),
            idle_workers: AtomicUsize::new(workers),
            state_root: Mutex::new(None),
        });
        let (job_tx, job_rx) = channel::bounded::<Job>(config.queue_capacity.max(1));
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = job_rx.clone();
            let shared = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                pool::worker_loop(rx, &shared.idle_workers)
            }));
        }
        Ok(Engine {
            shared,
            job_tx,
            job_rx,
            workers,
            handles: Arc::new(Mutex::new(handles)),
        })
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Resolves a model name (`None` = the default shard).
    fn shard(&self, model: Option<&str>) -> Result<&Arc<Shard>, EngineError> {
        match model {
            None => Ok(&self.shared.shards[0]),
            Some(name) => self
                .shared
                .by_name
                .get(name)
                .map(|&ix| &self.shared.shards[ix])
                .ok_or_else(|| EngineError::UnknownModel(name.to_string())),
        }
    }

    /// Validates a `USE <model>` selection, returning the shard's current
    /// epoch on success.
    pub fn resolve_model(&self, name: &str) -> Result<u64, EngineError> {
        self.shard(Some(name)).map(|shard| shard.epoch())
    }

    /// The registered models in registration order, with epoch and cache
    /// residency (the `MODELS` response).
    pub fn models(&self) -> Vec<ModelInfo> {
        self.shared
            .shards
            .iter()
            .map(|shard| ModelInfo {
                name: shard.name.clone(),
                epoch: shard.epoch(),
                cache_len: shard.cache.len(),
                cache_capacity: shard.cache.capacity(),
                observed: shard.model().params.observed_components(),
            })
            .collect()
    }

    /// Current snapshot epoch of the default shard.
    pub fn epoch(&self) -> u64 {
        self.shared.shards[0].epoch()
    }

    /// Current snapshot epoch of a named model.
    pub fn epoch_of(&self, model: &str) -> Result<u64, EngineError> {
        self.resolve_model(model)
    }

    /// The default shard's composite service name.
    pub fn service_name(&self) -> String {
        self.shared.shards[0].model().service_name().to_string()
    }

    /// The default shard's currently published model generation.
    pub fn model(&self) -> Arc<ModelSnapshot> {
        self.shared.shards[0].model()
    }

    /// A named shard's currently published model generation.
    pub fn model_of(&self, model: &str) -> Result<Arc<ModelSnapshot>, EngineError> {
        self.shard(Some(model)).map(|shard| shard.model())
    }

    /// Turns on durable state under `dir`: every subsequent update is
    /// appended (fsynced) to its model's journal, and when `save_every > 0`
    /// the snapshot is additionally re-exported after that many updates.
    ///
    /// A single-unnamed-model engine keeps the legacy layout —
    /// `snapshot.xml` + `journal.log` directly under `dir`, byte-identical
    /// to the pre-registry engine. A multi-model engine writes a manifest
    /// listing the registered models and gives each shard its own
    /// `dir/<model>/` subtree.
    ///
    /// Call this right after constructing the engine from
    /// [`persist::restore`]'s snapshots — each journal is opened in append
    /// mode, so already-replayed entries stay in place and the epoch
    /// sequence continues where the restored state left off.
    pub fn enable_persistence(
        &self,
        dir: impl Into<PathBuf>,
        save_every: usize,
    ) -> Result<(), EngineError> {
        let root = dir.into();
        std::fs::create_dir_all(&root).map_err(|e| {
            EngineError::Persist(format!("cannot create state dir '{}': {e}", root.display()))
        })?;
        if self.shared.unnamed_default {
            self.enable_shard_persistence(&self.shared.shards[0], root.clone(), save_every)?;
        } else {
            let names: Vec<String> = self
                .shared
                .shards
                .iter()
                .map(|shard| shard.name.clone())
                .collect();
            persist::write_manifest(&root, &names)
                .map_err(|e| EngineError::Persist(e.to_string()))?;
            for shard in &self.shared.shards {
                let shard_dir = persist::model_dir(&root, &shard.name);
                std::fs::create_dir_all(&shard_dir).map_err(|e| {
                    EngineError::Persist(format!(
                        "cannot create state dir '{}': {e}",
                        shard_dir.display()
                    ))
                })?;
                self.enable_shard_persistence(shard, shard_dir, save_every)?;
            }
        }
        *self.shared.state_root.lock().expect("state root poisoned") = Some(root);
        Ok(())
    }

    fn enable_shard_persistence(
        &self,
        shard: &Shard,
        dir: PathBuf,
        save_every: usize,
    ) -> Result<(), EngineError> {
        let journal = Journal::open(&dir).map_err(|e| EngineError::Persist(e.to_string()))?;
        shard.journal_len.store(journal.len(), Ordering::Relaxed);
        shard
            .last_save_epoch
            .store(persist::saved_epoch(&dir).unwrap_or(0), Ordering::Relaxed);
        *shard.persist.lock().expect("persist poisoned") = Some(PersistHandle {
            dir,
            journal,
            save_every,
            updates_since_save: 0,
        });
        Ok(())
    }

    /// Exports the default shard's snapshot to the state directory (the
    /// `SAVE` protocol verb). Errors when persistence is not enabled.
    pub fn save_state(&self) -> Result<SaveSummary, EngineError> {
        self.save_state_on(None)
    }

    /// Exports one model's snapshot to its persistence subtree.
    pub fn save_state_on(&self, model: Option<&str>) -> Result<SaveSummary, EngineError> {
        match self.call(model, WireRequest::Save)? {
            WireResponse::Save(summary) => Ok(summary),
            _ => unreachable!("SAVE is answered with WireResponse::Save"),
        }
    }

    /// Evaluates one perspective against the default shard, serving from
    /// the cache when possible.
    pub fn query(
        &self,
        client: &str,
        provider: &str,
    ) -> Result<Arc<CachedPerspective>, EngineError> {
        self.query_traced(client, provider).map(|(entry, _)| entry)
    }

    /// Like [`Engine::query`], also reporting whether the result came from
    /// the cache (`true`) or was evaluated for this call (`false`).
    pub fn query_traced(
        &self,
        client: &str,
        provider: &str,
    ) -> Result<(Arc<CachedPerspective>, bool), EngineError> {
        self.query_traced_on(None, client, provider)
    }

    /// [`Engine::query_traced`] against a named model (`None` = default).
    pub fn query_traced_on(
        &self,
        model: Option<&str>,
        client: &str,
        provider: &str,
    ) -> Result<(Arc<CachedPerspective>, bool), EngineError> {
        let request = WireRequest::Query {
            client: client.to_string(),
            provider: provider.to_string(),
        };
        match self.call(model, request)? {
            WireResponse::Query { entry, cached } => Ok((entry, cached)),
            _ => unreachable!("QUERY is answered with WireResponse::Query"),
        }
    }

    /// Evaluates a batch of perspectives concurrently across the pool,
    /// returning results in input order (default shard). A pair after the
    /// first failure is not evaluated and carries that failure. A failure
    /// of the whole request (the engine shut down) fails every pair.
    pub fn batch(
        &self,
        pairs: &[(String, String)],
    ) -> Vec<Result<Arc<CachedPerspective>, EngineError>> {
        self.batch_on(None, pairs)
            .unwrap_or_else(|err| vec![Err(err); pairs.len()])
    }

    /// [`Engine::batch`] against a named model (`None` = default). The
    /// misses before the first failure run as one pool job with helpers; a
    /// pair after the first failure is not evaluated and carries that
    /// failure.
    pub fn batch_on(
        &self,
        model: Option<&str>,
        pairs: &[(String, String)],
    ) -> Result<Vec<Result<Arc<CachedPerspective>, EngineError>>, EngineError> {
        let request = WireRequest::Batch {
            pairs: pairs.to_vec(),
        };
        match self.call(model, request)? {
            WireResponse::Batch(results) => Ok(results),
            _ => unreachable!("BATCH is answered with WireResponse::Batch"),
        }
    }

    /// Runs the perspective's compiled bit-sliced Monte-Carlo program for
    /// `samples` trials against the default shard, evaluating (and
    /// caching) the perspective first if needed. Returns the estimate
    /// alongside the cache entry it ran against and whether that entry was
    /// served from the cache.
    ///
    /// The program is compiled once per `(epoch, perspective)` inside the
    /// evaluation; repeated `MC` requests — e.g. with growing sample
    /// counts or different seeds — replay it without re-running Steps
    /// 7–8. The trials run on the worker that took the request plus
    /// helpers on free workers, each handing its worker to a queued job
    /// and posted again once a worker is free; the counter-based kernel
    /// makes the estimate a pure function of `(samples, seed)` whatever
    /// the pool size or load. A shutdown stops the run within one claim
    /// ([`EngineError::Shutdown`]). More than [`MAX_MC_SAMPLES`] trials are
    /// refused with [`EngineError::McSampleLimit`].
    pub fn monte_carlo(
        &self,
        client: &str,
        provider: &str,
        samples: usize,
        seed: u64,
    ) -> Result<
        (
            dependability::montecarlo::MonteCarloResult,
            Arc<CachedPerspective>,
            bool,
        ),
        EngineError,
    > {
        self.monte_carlo_on(None, client, provider, samples, seed)
    }

    /// [`Engine::monte_carlo`] against a named model (`None` = default).
    pub fn monte_carlo_on(
        &self,
        model: Option<&str>,
        client: &str,
        provider: &str,
        samples: usize,
        seed: u64,
    ) -> Result<
        (
            dependability::montecarlo::MonteCarloResult,
            Arc<CachedPerspective>,
            bool,
        ),
        EngineError,
    > {
        let request = WireRequest::MonteCarlo {
            client: client.to_string(),
            provider: provider.to_string(),
            samples,
            seed,
            interval: false,
        };
        match self.call(model, request)? {
            WireResponse::MonteCarlo {
                result,
                entry,
                cached,
                ..
            } => Ok((result, entry, cached)),
            _ => unreachable!("MC is answered with WireResponse::MonteCarlo"),
        }
    }

    /// The blocking primitive behind every blocking method: submits
    /// `request` and waits for its answer.
    fn call(&self, model: Option<&str>, request: WireRequest) -> Result<WireResponse, EngineError> {
        self.submit(model, request)
            .recv()
            .unwrap_or(Err(EngineError::Shutdown))
    }

    /// Submits `request` through [`Engine::execute_wire`] with a one-shot
    /// channel as the completion callback. A callback the shutdown drain
    /// drops unfired closes the channel, which the waiter reads as
    /// [`EngineError::Shutdown`].
    fn submit(
        &self,
        model: Option<&str>,
        request: WireRequest,
    ) -> Receiver<Result<WireResponse, EngineError>> {
        let (reply_tx, reply_rx) = channel::bounded(1);
        self.execute_wire(
            model,
            request,
            Box::new(move |result| {
                let _ = reply_tx.send(result);
            }),
        );
        reply_rx
    }

    /// The engine's one request path, and it never blocks: the TCP
    /// front-end's reactor calls it and returns to its event loop
    /// immediately, and the blocking methods wait on a channel it answers.
    /// Cache hits and immediate errors invoke `done` synchronously on the
    /// calling thread; everything else runs on a worker (with its scratch
    /// buffers), joined by helpers for an `MC`, a `BATCH` or a campaign,
    /// and whichever of them finishes the request invokes `done`.
    pub fn execute_wire(&self, model: Option<&str>, request: WireRequest, done: WireCallback) {
        let shard = match self.shard(model) {
            Ok(shard) => Arc::clone(shard),
            Err(err) => return done(Err(err)),
        };
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return done(Err(EngineError::Shutdown));
        }
        match request {
            WireRequest::Query { client, provider } => {
                EngineMetrics::bump(&shard.metrics.queries);
                match probe(&shard, &client, &provider) {
                    Err(err) => done(Err(err)),
                    Ok(Some(entry)) => done(Ok(WireResponse::Query {
                        entry,
                        cached: true,
                    })),
                    Ok(None) => self.enqueue(
                        Arc::clone(&shard),
                        Box::new(move |ctx| {
                            let result = evaluate(&shard, ctx, &client, &provider);
                            done(result.map(|entry| WireResponse::Query {
                                entry,
                                cached: false,
                            }));
                        }),
                    ),
                }
            }
            WireRequest::Batch { pairs } => {
                EngineMetrics::bump(&shard.metrics.batches);
                EngineMetrics::add(&shard.metrics.queries, pairs.len() as u64);
                // Probe in pair order up to the first failure, which fails
                // every later pair: an all-hit batch never reaches the pool.
                let mut probed = Vec::with_capacity(pairs.len());
                for (client, provider) in &pairs {
                    probed.push(probe(&shard, client, provider));
                    if probed.last().is_some_and(Result::is_err) {
                        break;
                    }
                }
                let misses: Vec<usize> = (0..probed.len())
                    .filter(|&ix| matches!(probed[ix], Ok(None)))
                    .collect();
                let batch = BatchMisses {
                    phase: Phase::new(misses.len()),
                    pairs,
                    probed,
                    misses,
                };
                if batch.misses.is_empty() {
                    return done(Ok(batch.reply(Vec::new())));
                }
                let (pool, claims) = (self.clone(), batch.phase.cursor.claims());
                let reply = Reply::new(done, Box::new(|_| {}));
                self.enqueue(
                    Arc::clone(&shard),
                    Box::new(move |ctx| {
                        ClaimRun::start(&pool, &shard, reply, None, batch, claims, ctx)
                    }),
                );
            }
            WireRequest::MonteCarlo {
                client,
                provider,
                samples,
                seed,
                interval,
            } => {
                if samples > MAX_MC_SAMPLES {
                    EngineMetrics::bump(&shard.metrics.errors);
                    return done(Err(EngineError::McSampleLimit(samples)));
                }
                // One worker probes (and maybe evaluates) the perspective,
                // then claims the blocks with helpers; any split of them
                // gives a bit-identical reply.
                let pool = self.clone();
                self.enqueue(
                    Arc::clone(&shard),
                    Box::new(move |ctx| {
                        EngineMetrics::bump(&shard.metrics.queries);
                        let (entry, cached) = match probe(&shard, &client, &provider) {
                            Ok(Some(entry)) => (entry, true),
                            Ok(None) => match evaluate(&shard, ctx, &client, &provider) {
                                Ok(entry) => (entry, false),
                                Err(err) => return done(Err(err)),
                            },
                            Err(err) => return done(Err(err)),
                        };
                        EngineMetrics::bump(&shard.metrics.mc_queries);
                        EngineMetrics::add(&shard.metrics.mc_trials_total, samples as u64);
                        // Only an interval on observed parameters resamples
                        // from the posterior (the posterior mean's interval).
                        let sampler = (interval && entry.observed > 0)
                            .then(|| entry.mc_program.posterior_sampler(&entry.posterior));
                        let spec = mc_spec(samples, seed, sampler.as_ref());
                        let share = entry.mc_program.share(&spec, pool.workers);
                        let claims = share.claims();
                        let mc = McBlocks {
                            entry,
                            cached,
                            samples,
                            seed,
                            interval,
                            sampler,
                            share,
                        };
                        let reply = Reply::new(done, Box::new(|_| {}));
                        ClaimRun::start(&pool, &shard, reply, None, mc, claims, ctx);
                    }),
                );
            }
            WireRequest::Update(command) => self.enqueue(
                Arc::clone(&shard),
                Box::new(move |_| done(apply_update(&shard, command).map(WireResponse::Update))),
            ),
            WireRequest::Save => self.enqueue(
                Arc::clone(&shard),
                Box::new(move |_| done(save_shard(&shard).map(WireResponse::Save))),
            ),
            WireRequest::Campaign {
                spec,
                cancel,
                mut progress,
            } => {
                // The pool half pins the shard's current snapshot and
                // prepares the campaign before its claim run starts.
                let pool = self.clone();
                self.enqueue(
                    Arc::clone(&shard),
                    Box::new(move |ctx| {
                        let snapshot = shard.model();
                        let input = match CampaignInput::prepare(
                            snapshot.infrastructure.clone(),
                            snapshot.service.clone(),
                            Arc::clone(&shard.mapper),
                            DiscoveryOptions,
                            Some(snapshot.interned_graph()),
                            Arc::clone(&snapshot.params),
                            spec,
                        ) {
                            Ok(input) => input,
                            Err(msg) => return done(Err(EngineError::Campaign(msg))),
                        };
                        // `prepare` yields at least one pair and one
                        // scenario, so both phases have a last item.
                        let (pairs, total) = (input.pairs.len(), input.scenarios.len());
                        let campaign = CampaignPhases {
                            pairs: Phase::new(pairs),
                            baseline: OnceLock::new(),
                            scenarios: Phase::new(total),
                            input,
                        };
                        let claims = campaign.pairs.cursor.claims();
                        let reply = Reply::new(done, Box::new(move |n| progress(n, total)));
                        ClaimRun::start(&pool, &shard, reply, Some(cancel), campaign, claims, ctx);
                    }),
                );
            }
        }
    }

    /// Applies a dynamicity command to the default shard.
    pub fn update(&self, command: UpdateCommand) -> Result<UpdateSummary, EngineError> {
        self.update_on(None, command)
    }

    /// Applies a dynamicity command to one model: publishes a new snapshot
    /// generation and sweeps exactly the cache keys the change can affect
    /// — on that shard alone; every other model's epoch and caches are
    /// untouched. With persistence enabled the update is journaled
    /// (fsynced) to the shard's journal before this returns — a crash
    /// after an acknowledged `UPDATE` replays it.
    pub fn update_on(
        &self,
        model: Option<&str>,
        command: UpdateCommand,
    ) -> Result<UpdateSummary, EngineError> {
        match self.call(model, WireRequest::Update(command))? {
            WireResponse::Update(summary) => Ok(summary),
            _ => unreachable!("UPDATE is answered with WireResponse::Update"),
        }
    }

    /// Runs a what-if campaign against the default shard.
    pub fn campaign(
        &self,
        spec: CampaignSpec,
        progress: impl FnMut(usize, usize),
    ) -> Result<CampaignReport, EngineError> {
        self.campaign_on(None, spec, progress)
    }

    /// Runs a mass what-if campaign against one model: pins the shard's
    /// current snapshot, prices per-perspective baselines and then
    /// per-scenario evaluations on the worker that takes the request and
    /// on workers that have no job to run, and aggregates the ranked
    /// report. The live shard is never mutated — no epoch bump, no cache
    /// traffic, no journal line; only the `campaigns_run` /
    /// `scenarios_evaluated` counters move. `progress` is called on the
    /// calling thread after each completed scenario with `(done, total)`.
    pub fn campaign_on(
        &self,
        model: Option<&str>,
        spec: CampaignSpec,
        mut progress: impl FnMut(usize, usize),
    ) -> Result<CampaignReport, EngineError> {
        let (tick_tx, tick_rx) = channel::unbounded();
        let request = WireRequest::Campaign {
            spec,
            cancel: Arc::new(AtomicBool::new(false)),
            progress: Box::new(move |done, total| {
                let _ = tick_tx.send((done, total));
            }),
        };
        let reply = self.submit(model, request);
        // The campaign drops its progress sender when it answers (or when
        // the request is refused), which ends the relay.
        while let Ok((done, total)) = tick_rx.recv() {
            progress(done, total);
        }
        match reply.recv().unwrap_or(Err(EngineError::Shutdown))? {
            WireResponse::Campaign { report, .. } => Ok(report),
            _ => unreachable!("CAMPAIGN is answered with WireResponse::Campaign"),
        }
    }

    /// A point-in-time metrics snapshot (the `STATS` response): the rollup
    /// across every shard, with per-model rows attached when the engine
    /// serves named models. On a single-unnamed-model engine the rollup
    /// *is* the shard and the line renders byte-identically to the
    /// pre-registry engine.
    pub fn stats(&self) -> MetricsSnapshot {
        let shards = &self.shared.shards;
        let mut snapshot =
            EngineMetrics::rollup(shards.iter().map(|shard| &shard.metrics), self.workers);
        snapshot.epoch = shards.iter().map(|shard| shard.epoch()).max().unwrap_or(0);
        snapshot.cache_len = shards.iter().map(|shard| shard.cache.len()).sum();
        snapshot.cache_capacity = shards.iter().map(|shard| shard.cache.capacity()).sum();
        snapshot.cache_evictions = shards.iter().map(|shard| shard.cache.evictions()).sum();
        snapshot.journal_len = shards
            .iter()
            .map(|shard| shard.journal_len.load(Ordering::Relaxed))
            .sum();
        snapshot.last_save_epoch = shards
            .iter()
            .map(|shard| shard.last_save_epoch.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        snapshot.observed_components = shards
            .iter()
            .map(|shard| shard.model().params.observed_components() as u64)
            .sum();
        snapshot.state_dir = self
            .shared
            .state_root
            .lock()
            .expect("state root poisoned")
            .as_ref()
            .map(|root| root.display().to_string());
        if !self.shared.unnamed_default {
            snapshot.per_model = shards
                .iter()
                .map(|shard| ShardRollup {
                    model: shard.name.clone(),
                    epoch: shard.epoch(),
                    queries: shard.metrics.queries.load(Ordering::Relaxed),
                    cache_len: shard.cache.len(),
                    cache_capacity: shard.cache.capacity(),
                    cache_evictions: shard.cache.evictions(),
                    negative_hits: shard.metrics.negative_hits.load(Ordering::Relaxed),
                    campaigns_run: shard.metrics.campaigns_run.load(Ordering::Relaxed),
                    scenarios_evaluated: shard.metrics.scenarios_evaluated.load(Ordering::Relaxed),
                    journal_len: shard.journal_len.load(Ordering::Relaxed),
                    last_save_epoch: shard.last_save_epoch.load(Ordering::Relaxed),
                    observations_total: shard.metrics.observations_total.load(Ordering::Relaxed),
                    observed_components: shard.model().params.observed_components() as u64,
                })
                .collect();
        }
        snapshot
    }

    /// Stops the pool and joins every worker. Idempotent; pending jobs
    /// submitted before the stop are drained by the workers (FIFO puts
    /// them ahead of the Stop jobs), and jobs that raced past the
    /// shutdown flag are answered `EngineError::Shutdown` by the final
    /// queue drain — no caller is left blocking forever.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop_workers();
        self.drain_pending();
    }
}

/// The synchronous half of a query: negative cache, device existence,
/// perspective cache — the checks that decide whether the pool is
/// needed. `Ok(None)` means "miss: evaluate". Bumps `negative_hits`,
/// `errors` and `cache_hits` as it goes.
fn probe(
    shard: &Shard,
    client: &str,
    provider: &str,
) -> Result<Option<Arc<CachedPerspective>>, EngineError> {
    let snapshot = shard.model();
    let key = PerspectiveKey::new(client, provider, snapshot.service_name());
    // Known-bad perspectives of this epoch fail fast from the negative
    // cache — the model has not changed, so the error has not either.
    if let Some(err) = shard.negative.get(&key, snapshot.epoch) {
        EngineMetrics::bump(&shard.metrics.negative_hits);
        EngineMetrics::bump(&shard.metrics.errors);
        return Err(err);
    }
    for device in [client, provider] {
        if !snapshot.infrastructure.has_device(device) {
            EngineMetrics::bump(&shard.metrics.errors);
            let err = EngineError::UnknownDevice(device.to_string());
            shard.negative.insert(key, err.clone(), snapshot.epoch);
            return Err(err);
        }
    }
    if let Some(hit) = shard.cache.get(&key) {
        EngineMetrics::bump(&shard.metrics.cache_hits);
        return Ok(Some(hit));
    }
    Ok(None)
}

/// The pool half of an `UPDATE`: journal (fsynced, under the write lock),
/// publish the next snapshot generation, sweep exactly the affected cache
/// keys. The snapshot write lock serializes concurrent updates.
fn apply_update(shard: &Shard, command: UpdateCommand) -> Result<UpdateSummary, EngineError> {
    let mut guard = shard.snapshot.write().expect("snapshot poisoned");
    let mut next = (**guard).clone();
    let old_service = next.service_name().to_string();
    match &command {
        // Observations bypass `apply`: the dedicated method keeps the
        // distinct non-monotone error (a batch that fails part-way drops
        // `next`, so the published state never carries a partial batch),
        // and since no edge changed the new generation inherits the old
        // one's interned graph view instead of re-interning.
        UpdateCommand::Observe { component, up, ts } => {
            next.observe_events(std::iter::once((component.as_str(), *up, *ts)))?;
            next.inherit_interned(guard.as_ref());
        }
        UpdateCommand::ObserveBatch { events } => {
            next.observe_events(events.iter().map(|(c, up, ts)| (c.as_str(), *up, *ts)))?;
            next.inherit_interned(guard.as_ref());
        }
        // A second link between linked devices would be a parallel edge
        // that inflates path counts; refuse it before it is journaled.
        // Journal replay (`ModelSnapshot::apply`) still accepts one, so
        // state directories that already hold one restore.
        UpdateCommand::Connect { a, b }
            if guard
                .infrastructure
                .objects
                .links
                .iter()
                .any(|l| (l.end_a == *a && l.end_b == *b) || (l.end_a == *b && l.end_b == *a)) =>
        {
            return Err(EngineError::DuplicateLink {
                a: a.clone(),
                b: b.clone(),
            });
        }
        // Likewise a self-link, which is no edge of any path, and the
        // removal of a link that is not there, which changes nothing.
        UpdateCommand::Connect { a, b } if a == b => {
            return Err(EngineError::SelfLink(a.clone()));
        }
        UpdateCommand::Disconnect { a, b }
            if !guard
                .infrastructure
                .objects
                .links
                .iter()
                .any(|l| (l.end_a == *a && l.end_b == *b) || (l.end_a == *b && l.end_b == *a)) =>
        {
            return Err(EngineError::NoLink {
                a: a.clone(),
                b: b.clone(),
            });
        }
        // Likewise a service the mapper cannot map, which would fail every
        // later query. The in-tree mappers map the same atomic services
        // whatever client and provider they are given, so one probe covers
        // every pair.
        UpdateCommand::SubstituteService { service } => {
            (shard.mapper)(service, "", "").for_service(service)?;
            next.apply(&command)?;
        }
        _ => next.apply(&command)?,
    }
    next.epoch = guard.epoch + 1;
    let published = Arc::new(next);
    // Journal before any in-memory effect, while still holding the
    // model write lock so lines land in strict epoch order. An update
    // that cannot be made durable is not applied: on append failure
    // the guard unwinds with the old snapshot, epoch, and cache all
    // intact, so an ERR'd UPDATE never diverges served state from the
    // journal.
    shard.journal_append(&published, &command)?;
    // Epoch first, sweep second — see the ordering note on
    // `PerspectiveCache::insert`.
    shard.epoch.store(published.epoch, Ordering::SeqCst);
    let invalidated = match &command {
        UpdateCommand::Connect { .. } => shard.cache.invalidate_all(),
        UpdateCommand::Disconnect { a, b } => shard.cache.invalidate_link(a, b),
        UpdateCommand::SubstituteService { .. } => shard.cache.invalidate_service(&old_service),
        UpdateCommand::Observe { component, .. } => shard.cache.invalidate_component(component),
        UpdateCommand::ObserveBatch { events } => {
            let mut names: Vec<&str> = events.iter().map(|(c, _, _)| c.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            shard.cache.invalidate_components(&names)
        }
    };
    let epoch = published.epoch;
    *guard = Arc::clone(&published);
    drop(guard);
    // Autosave outside the write lock: the full XML export (plus two
    // fsyncs) must not stall queries; the persist mutex alone already
    // serializes savers.
    shard.maybe_autosave(&published);
    EngineMetrics::bump(&shard.metrics.updates);
    EngineMetrics::add(&shard.metrics.invalidations, invalidated as u64);
    EngineMetrics::add(
        &shard.metrics.observations_total,
        command.observation_count(),
    );
    Ok(UpdateSummary {
        epoch,
        invalidated,
        kind: command.kind(),
    })
}

/// The pool half of a `SAVE`: exports the current snapshot to the shard's
/// persistence subtree.
fn save_shard(shard: &Shard) -> Result<SaveSummary, EngineError> {
    let snapshot = shard.model();
    let mut persist = shard.persist.lock().expect("persist poisoned");
    let handle = persist.as_mut().ok_or_else(|| {
        EngineError::Persist("no state directory configured (serve with --state-dir)".into())
    })?;
    let path = persist::save_snapshot(&handle.dir, &snapshot)
        .map_err(|e| EngineError::Persist(e.to_string()))?;
    handle.updates_since_save = 0;
    shard
        .last_save_epoch
        .fetch_max(snapshot.epoch, Ordering::Relaxed);
    Ok(SaveSummary {
        epoch: snapshot.epoch,
        path,
    })
}

/// Evaluates a probed miss on the worker's `ctx`; a failure counts in `errors`.
fn evaluate(
    shard: &Shard,
    ctx: &mut EvalCtx,
    client: &str,
    provider: &str,
) -> Result<Arc<CachedPerspective>, EngineError> {
    let snapshot = shard.model();
    let key = PerspectiveKey::new(client, provider, snapshot.service_name());
    // Re-check the cache: another worker may have finished the same key
    // while this job sat in the queue. Not counted as a caller-visible hit.
    if let Some(hit) = shard.cache.get(&key) {
        return Ok(hit);
    }
    let result = evaluate_uncached(shard, ctx, &snapshot, key.clone(), client, provider);
    if let Err(err) = &result {
        EngineMetrics::bump(&shard.metrics.errors);
        // Unknown devices and model errors are deterministic for this
        // epoch — remember them so repeats skip the evaluation entirely.
        if matches!(err, EngineError::UnknownDevice(_) | EngineError::Model(_)) {
            shard.negative.insert(key, err.clone(), snapshot.epoch);
        }
    }
    result
}

fn evaluate_uncached(
    shard: &Shard,
    ctx: &mut EvalCtx,
    snapshot: &Arc<ModelSnapshot>,
    key: PerspectiveKey,
    client: &str,
    provider: &str,
) -> Result<Arc<CachedPerspective>, EngineError> {
    let start = Instant::now();
    let mapping = (shard.mapper)(&snapshot.service, client, provider);
    // Steps 7–8 on the epoch's shared interned graph view, then the
    // availability model with the observation-fed parameters overlaid:
    // components with rate-carrying observations price at their posterior
    // means, everything else exactly as authored.
    let (run, model, mut posterior) = evaluate_perspective(
        &snapshot.infrastructure,
        &snapshot.service,
        &snapshot.interned_graph(),
        &mapping,
        &snapshot.params,
        &mut ctx.workspace,
    )?;
    let observed = posterior.iter().filter(|p| p.is_some()).count();
    let availability = model.availability_bdd();
    // 95% credible bounds on the exact availability: the structure
    // function is monotone in every component probability, so pricing
    // the two credible-corner probability vectors exactly brackets it.
    let availability_ci = (observed > 0).then(|| {
        let corner = |low: bool| -> Vec<f64> {
            model
                .components
                .iter()
                .map(|c| match c.source {
                    dependability::ParamSource::Observed { ci, .. } => {
                        if low {
                            ci.0
                        } else {
                            ci.1
                        }
                    }
                    dependability::ParamSource::Authored => c.availability,
                })
                .collect()
        };
        (
            dependability::perturb::availability_with(&model, &corner(true)),
            dependability::perturb::availability_with(&model, &corner(false)),
        )
    });
    // Compile the bit-sliced Monte-Carlo program while the model is in
    // hand: `MC` requests against this perspective replay the cached
    // program instead of re-deriving the structure function.
    let mc_program = Arc::new(model.compile_mc());
    // `posterior_sampler` reads the posteriors by component index with
    // `get`, so the entry keeps them only up to the last observed
    // component: an unobserved perspective holds none, instead of one
    // empty slot per component for as long as it stays cached.
    posterior.truncate(
        posterior
            .iter()
            .rposition(Option::is_some)
            .map_or(0, |last| last + 1),
    );
    posterior.shrink_to_fit();
    let eval_micros = start.elapsed().as_micros() as u64;
    shard.metrics.record_timings(&run.timings);
    shard.metrics.eval_latency.record(eval_micros);
    let entry = Arc::new(CachedPerspective {
        key,
        epoch: snapshot.epoch,
        availability,
        upsim_nodes: run.upsim_names().collect(),
        path_counts: run
            .paths
            .pairs
            .iter()
            .map(|p| (p.pair.atomic_service.clone(), p.paths))
            .collect(),
        reduction_ratio: run.reduction_ratio,
        eval_micros,
        mc_program,
        observed,
        availability_ci,
        posterior,
    });
    // A miss only counts once the cache admitted the entry; a result the
    // insert rejected for a stale epoch (an update raced the evaluation)
    // is tracked separately so `hits + misses` matches admitted lookups.
    if shard.cache.insert(entry.clone(), &shard.epoch) {
        EngineMetrics::bump(&shard.metrics.cache_misses);
    } else {
        EngineMetrics::bump(&shard.metrics.stale_results);
    }
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use dependability::transform::{AnalysisOptions, ServiceAvailabilityModel};
    use netgen::usi::{perspective_mapping, printing_service, usi_infrastructure};
    use upsim_core::pipeline::UpsimPipeline;

    fn usi_engine(workers: usize) -> Engine {
        let snapshot = ModelSnapshot::new(usi_infrastructure(), printing_service())
            .expect("USI models are consistent");
        let config = EngineConfig {
            workers,
            mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
            ..EngineConfig::default()
        };
        Engine::new(snapshot, config)
    }

    fn usi_spec(name: &str) -> ModelSpec {
        ModelSpec {
            name: name.to_string(),
            snapshot: ModelSnapshot::new(usi_infrastructure(), printing_service())
                .expect("USI models are consistent"),
            mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
        }
    }

    fn campus_spec(name: &str) -> ModelSpec {
        let (infrastructure, service, _) =
            netgen::campus::campus_scenario(netgen::campus::CampusParams::default());
        ModelSpec {
            name: name.to_string(),
            snapshot: ModelSnapshot::new(infrastructure, service)
                .expect("campus models are consistent"),
            mapper: pingpong_mapper(),
        }
    }

    /// Regression for the shutdown hang: a job that passed the shutdown
    /// flag check concurrently with `shutdown()` lands in the queue behind
    /// the Stop jobs, after every worker is gone. Pre-fix its reply channel
    /// lived in the queue forever and the caller blocked indefinitely on
    /// `recv`; the drain must drop the job, closing the reply channel,
    /// which `call` reads as `EngineError::Shutdown`.
    #[test]
    fn shutdown_drains_jobs_that_raced_the_flag() {
        let engine = usi_engine(1);
        // Replay the race deterministically with internal access: the flag
        // flips and the workers stop (the first half of `shutdown`)...
        engine.shared.shutdown.store(true, Ordering::SeqCst);
        engine.stop_workers();
        // ...while a racer that already passed the flag check enqueues a
        // job holding its reply sender, exactly as `enqueue` does.
        let (reply_tx, reply_rx) = channel::bounded::<()>(1);
        let sent = engine.job_tx.send(Job::Run {
            shard: Arc::clone(&engine.shared.shards[0]),
            run: Box::new(move |_| {
                let _ = reply_tx.send(());
            }),
        });
        assert!(sent.is_ok(), "engine keeps a receiver alive");
        // The second half of `shutdown`: without this drain (the pre-fix
        // engine) the recv below times out.
        engine.drain_pending();
        // Bound the wait (the vendored channel has no recv_timeout).
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(reply_rx.recv());
        });
        let answer = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("raced job must be dropped, not leaked");
        assert!(
            answer.is_err(),
            "raced job must be dropped unrun, closing its reply channel"
        );
    }

    /// Regression for the drain/stop race: a racing sender's drain that
    /// pulls a `Job::Stop` addressed to a still-blocked worker must put it
    /// back, or that worker never exits and `shutdown`'s join hangs.
    #[test]
    fn drain_does_not_steal_stop_jobs_from_workers() {
        let engine = usi_engine(1);
        // Occupy the single worker with a real evaluation so the Stop sent
        // below sits in the queue where the racing drain can see it.
        let (busy_tx, busy_rx) = channel::bounded(1);
        let shard = Arc::clone(&engine.shared.shards[0]);
        let sent = engine.job_tx.send(Job::Run {
            shard: Arc::clone(&shard),
            run: Box::new(move |workspace| {
                let _ = busy_tx.send(evaluate(&shard, workspace, "t1", "p1").is_ok());
            }),
        });
        assert!(sent.is_ok(), "queue accepts the busy eval");
        engine.shared.shutdown.store(true, Ordering::SeqCst);
        // As `stop_workers` does: one Stop addressed to the single worker —
        // but a racing sender (the `enqueue` tail) drains the queue before
        // the worker picks it up.
        assert!(engine.job_tx.send(Job::Stop).is_ok(), "queue accepts");
        engine.drain_pending();
        // Whichever side answered it (worker or drain), the eval resolves.
        let _ = busy_rx.recv();
        // The worker must still receive its Stop and exit in bounded time.
        let handles = std::mem::take(&mut *engine.handles.lock().expect("handles poisoned"));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for handle in handles {
                let _ = handle.join();
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker must exit after a drained Stop is re-sent");
    }

    /// An `MC` posts helpers for the workers that have no job to run,
    /// plus at most one that waits in the queue for a busy worker, up to
    /// one per other worker. With both other workers held by gated jobs
    /// it answers from the one worker it has, and the reply is
    /// bit-identical whatever it borrowed.
    #[test]
    fn mc_borrows_only_workers_without_a_job() {
        for (held, helpers) in [(0, 2), (1, 2), (2, 1)] {
            let engine = usi_engine(3);
            let shard = Arc::clone(&engine.shared.shards[0]);
            let (started_tx, started_rx) = channel::unbounded();
            let (gate_tx, gate_rx) = channel::unbounded::<()>();
            for _ in 0..held {
                let (started, gate) = (started_tx.clone(), gate_rx.clone());
                let sent = engine.job_tx.send(Job::Run {
                    shard: Arc::clone(&shard),
                    run: Box::new(move |_| {
                        let _ = started.send(());
                        // Returns once every gate sender is dropped.
                        let _ = gate.recv();
                    }),
                });
                assert!(sent.is_ok(), "queue accepts the gated job");
            }
            for _ in 0..held {
                started_rx.recv().expect("gated job holds a worker");
            }
            let (reply_tx, reply_rx) = std::sync::mpsc::channel();
            let caller = engine.clone();
            std::thread::spawn(move || {
                let _ = reply_tx.send(caller.monte_carlo("t1", "p2", 200_000, 7));
            });
            let (result, entry, _) = reply_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("MC answers whatever it borrowed")
                .expect("valid perspective");
            assert_eq!(result, entry.mc_program.run(200_000, 1, 7));
            drop(gate_tx);
            engine.shutdown();
            // The gated jobs, the MC and its helpers, which all ran:
            // a helper left waiting runs as soon as a worker is free.
            assert_eq!(
                engine.stats().tasks_executed,
                held + 1 + helpers,
                "{held} of 3 workers held"
            );
        }
    }

    /// A helper hands its worker back between claims: a `QUERY` miss sent
    /// while a large `MC` and its helper hold both workers of a 2-worker
    /// pool answers long before the `MC` does, and the `MC` still answers
    /// bit-identically from the worker that took it.
    #[test]
    fn a_queued_query_overtakes_a_large_mc() {
        const SAMPLES: usize = 1 << 22;
        let engine = usi_engine(2);
        let (mc_tx, mc_rx) = std::sync::mpsc::channel();
        engine.execute_wire(
            None,
            WireRequest::MonteCarlo {
                client: "t1".into(),
                provider: "p2".into(),
                samples: SAMPLES,
                seed: 7,
                interval: false,
            },
            Box::new(move |result| {
                let _ = mc_tx.send(result);
            }),
        );
        // Both workers are busy once the helper has started: the worker
        // that took the MC posts it only while the other one is free.
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.shared.idle_workers.load(Ordering::Relaxed) > 0 {
            assert!(Instant::now() < deadline, "the MC's helper starts");
            std::thread::yield_now();
        }
        let sent = Instant::now();
        engine.query("t5", "p1").expect("valid perspective");
        let query_answered = sent.elapsed();
        let reply = mc_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the MC answers");
        let mc_answered = sent.elapsed();
        // A helper that kept its worker would hold the query until the
        // cursor ran out, and the two would answer about together.
        assert!(
            query_answered * 4 < mc_answered,
            "query answered after {query_answered:?}, MC after {mc_answered:?}"
        );
        let Ok(WireResponse::MonteCarlo { result, entry, .. }) = reply else {
            panic!("MC is answered with WireResponse::MonteCarlo");
        };
        assert_eq!(result, entry.mc_program.run(SAMPLES, 2, 7));
        engine.shutdown();
    }

    /// A helper that handed its worker to a queued request is posted again
    /// once a worker is free: with the setup above, the pool runs the `MC`,
    /// its helper, the `QUERY` miss and the helper posted again after the
    /// query was served, and the `MC` still answers bit-identically.
    #[test]
    fn a_yielded_mc_helper_is_posted_again() {
        const SAMPLES: usize = 1 << 22;
        let engine = usi_engine(2);
        let (mc_tx, mc_rx) = std::sync::mpsc::channel();
        engine.execute_wire(
            None,
            WireRequest::MonteCarlo {
                client: "t1".into(),
                provider: "p2".into(),
                samples: SAMPLES,
                seed: 7,
                interval: false,
            },
            Box::new(move |result| {
                let _ = mc_tx.send(result);
            }),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.shared.idle_workers.load(Ordering::Relaxed) > 0 {
            assert!(Instant::now() < deadline, "the MC's helper starts");
            std::thread::yield_now();
        }
        engine.query("t5", "p1").expect("valid perspective");
        let reply = mc_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the MC answers");
        let Ok(WireResponse::MonteCarlo { result, entry, .. }) = reply else {
            panic!("MC is answered with WireResponse::MonteCarlo");
        };
        assert_eq!(result, entry.mc_program.run(SAMPLES, 2, 7));
        engine.shutdown();
        assert_eq!(engine.stats().tasks_executed, 4);
    }

    /// A campaign's helper hands its worker back between claims, as an
    /// `MC` helper does: a `QUERY` miss sent while a campaign and its
    /// helper hold both workers of a 2-worker pool waits for one claim of
    /// scenarios, not for the campaign. Once the query is served the
    /// campaign posts that helper again, and the report still equals the
    /// serial run's.
    #[test]
    fn a_queued_query_overtakes_a_running_campaign() {
        const SPEC: &str = "scale-mtbf:*:0.25,0.5,0.75,1.5,2,4,8,16 pairs:t1:p2,t6:p1 \
                            mc:65536:7 independent-seeds";
        let engine = usi_engine(2);
        let (tick_tx, tick_rx) = std::sync::mpsc::channel();
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        engine.execute_wire(
            None,
            WireRequest::Campaign {
                spec: CampaignSpec::parse(SPEC).expect("spec parses"),
                cancel: Arc::new(AtomicBool::new(false)),
                progress: Box::new(move |done, _| {
                    let _ = tick_tx.send(done);
                }),
            },
            Box::new(move |result| {
                let _ = reply_tx.send(result);
            }),
        );
        // The worker that built the baseline posted its helper before it
        // priced the first scenario, so both workers are busy by now.
        tick_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the campaign ticks");
        let sent = Instant::now();
        engine.query("t5", "p1").expect("valid perspective");
        let query_answered = sent.elapsed();
        let reply = reply_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the campaign answers");
        let campaign_answered = sent.elapsed();
        // A helper that kept its worker would hold the query until the
        // scenario cursor ran out, and the two would answer about together.
        assert!(
            query_answered * 4 < campaign_answered,
            "query answered after {query_answered:?}, campaign after {campaign_answered:?}"
        );
        // The campaign's own job, the helper its baseline's builder
        // posted, and that helper posted again once the query was served.
        assert_eq!(engine.stats().scatter_chunks, 3);
        let Ok(WireResponse::Campaign { report, .. }) = reply else {
            panic!("CAMPAIGN is answered with WireResponse::Campaign");
        };
        let snapshot = engine.model();
        let input = CampaignInput::prepare(
            snapshot.infrastructure.clone(),
            snapshot.service.clone(),
            Arc::new(|_, client, provider| perspective_mapping(client, provider)),
            DiscoveryOptions,
            None,
            Arc::clone(&snapshot.params),
            CampaignSpec::parse(SPEC).expect("spec parses"),
        )
        .expect("campaign prepares");
        let (baseline, outcomes) = upsim_campaign::run_serial(&input).expect("serial run");
        assert_eq!(
            report.render_json(),
            aggregate(&input, &baseline, &outcomes).render_json()
        );
        engine.shutdown();
    }

    /// `mc_trials` counts every trial a campaign draws: one run on each
    /// baseline that carries MC state (under common random numbers and in
    /// every `posterior` campaign, `independent-seeds` or not) plus one
    /// per affected scenario evaluation.
    #[test]
    fn campaign_mc_trials_count_every_sampled_baseline() {
        const SAMPLES: u64 = 4096;
        for (clauses, sampled_baselines) in [
            ("", 2),
            ("independent-seeds", 0),
            ("posterior", 2),
            ("posterior independent-seeds", 2),
        ] {
            let engine = usi_engine(2);
            let spec = CampaignSpec::parse(&format!(
                "kill-each-component pairs:t1:p1,t5:p3 mc:{SAMPLES}:7 {clauses}"
            ))
            .expect("spec parses");
            let report = engine.campaign(spec, |_, _| {}).expect("campaign runs");
            assert_eq!(
                engine.stats().mc_trials_total,
                SAMPLES * (sampled_baselines + report.affected_evaluations as u64),
                "mc:{SAMPLES}:7 {clauses}"
            );
            engine.shutdown();
        }
    }

    /// `MC` runs the perspective's compiled program: the estimate's CI
    /// covers the exact BDD availability, the second request hits the
    /// cached program (one evaluation total), and the reply is a pure
    /// function of `(samples, seed)` — identical across engines with
    /// different pool sizes.
    #[test]
    fn monte_carlo_replays_cached_program_and_covers_exact() {
        let engine = usi_engine(2);
        let (result, entry, cached) = engine
            .monte_carlo("t1", "p2", 200_000, 7)
            .expect("valid perspective");
        assert!(!cached, "first request evaluates");
        assert!(
            result.covers(entry.availability),
            "CI {:?} misses exact {}",
            result.confidence_95(),
            entry.availability
        );
        let (again, _, cached) = engine
            .monte_carlo("t1", "p2", 200_000, 7)
            .expect("valid perspective");
        assert!(cached, "second request replays the cached program");
        assert_eq!(again, result, "same (samples, seed) → same estimate");
        assert_eq!(engine.stats().mc_queries, 2);
        assert_eq!(engine.stats().evals, 1, "the program compiled once");

        let wider = usi_engine(1);
        let (single, _, _) = wider
            .monte_carlo("t1", "p2", 200_000, 7)
            .expect("valid perspective");
        assert_eq!(single, result, "estimate is worker-count-invariant");
        wider.shutdown();
        engine.shutdown();
    }

    #[test]
    fn queries_after_shutdown_fail_fast() {
        let engine = usi_engine(1);
        engine.shutdown();
        let start = Instant::now();
        let err = engine.query("t1", "p1").expect_err("engine is down");
        assert_eq!(err, EngineError::Shutdown);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    /// Repeated failures replay from the per-epoch negative cache, and an
    /// update makes them invisible (the error is re-derived against the
    /// new generation, not served stale).
    #[test]
    fn negative_cache_replays_failures_within_an_epoch() {
        let engine = usi_engine(1);
        let err = engine.query("ghost", "p1").expect_err("unknown device");
        assert_eq!(err, EngineError::UnknownDevice("ghost".into()));
        assert_eq!(engine.stats().negative_hits, 0, "first failure is derived");

        let err = engine.query("ghost", "p1").expect_err("still unknown");
        assert_eq!(err, EngineError::UnknownDevice("ghost".into()));
        assert_eq!(engine.stats().negative_hits, 1, "repeat served negatively");

        // An update bumps the epoch: the cached negative is for a dead
        // generation, so the next failure is derived afresh.
        engine
            .update(UpdateCommand::Connect {
                a: "t1".into(),
                b: "t2".into(),
            })
            .expect("both devices exist");
        let err = engine.query("ghost", "p1").expect_err("still unknown");
        assert_eq!(err, EngineError::UnknownDevice("ghost".into()));
        assert_eq!(
            engine.stats().negative_hits,
            1,
            "post-update failure must be re-derived, not replayed"
        );
        engine.shutdown();
    }

    /// Dual-homing the edge switches of the first 8 distribution switches
    /// of the 1,222-device campus (16 `CONNECT`s) gives `t0_0_0 → srv0`
    /// about 10⁵ simple paths, whose count needs about 9·10⁶ DFS frames:
    /// Step 7 refuses the perspective at its frame budget instead of
    /// holding a worker, and the refusal is cached for the epoch.
    #[test]
    fn a_perspective_past_the_frame_budget_is_a_cached_model_error() {
        let params = netgen::campus::CampusParams {
            core: 2,
            distributions: 64,
            edges_per_distribution: 2,
            clients_per_edge: 8,
            servers: 3,
            dual_homed_edges: false,
        };
        let (infrastructure, service, _) = netgen::campus::campus_scenario(params);
        let snapshot =
            ModelSnapshot::new(infrastructure, service).expect("campus models are consistent");
        let engine = Engine::new(
            snapshot,
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
        );
        let k = 8;
        for d in 0..k {
            for e in 0..2 {
                engine
                    .update(UpdateCommand::Connect {
                        a: format!("edge{d}_{e}"),
                        b: format!("dist{}", (d + 1) % k),
                    })
                    .expect("a new uplink");
            }
        }
        let err = engine.query("t0_0_0", "srv0").expect_err("over the budget");
        let EngineError::Model(msg) = &err else {
            panic!("a model error, got {err:?}");
        };
        let budget = upsim_core::discovery::MAX_DFS_FRAMES.to_string();
        assert!(
            msg.contains("'t0_0_0'") && msg.contains("'srv0'") && msg.contains(&budget),
            "{msg}"
        );
        let before = engine.stats();
        let repeat = engine.query("t0_0_0", "srv0").expect_err("cached");
        assert_eq!(repeat, err);
        let after = engine.stats();
        assert_eq!(after.negative_hits, before.negative_hits + 1);
        assert_eq!(after.tasks_executed, before.tasks_executed, "no second run");
        engine.shutdown();
    }

    /// The configured capacity bounds cache residency; overflow evicts
    /// (LRU) and the eviction is visible in STATS.
    #[test]
    fn cache_capacity_bounds_residency_and_counts_evictions() {
        let snapshot = ModelSnapshot::new(usi_infrastructure(), printing_service())
            .expect("USI models are consistent");
        let config = EngineConfig {
            workers: 1,
            cache_capacity: 2,
            mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
            ..EngineConfig::default()
        };
        let engine = Engine::new(snapshot, config);
        for client in ["t1", "t2", "t3"] {
            engine.query(client, "p1").expect("valid perspective");
        }
        let stats = engine.stats();
        assert_eq!(stats.cache_capacity, 2);
        assert!(
            stats.cache_len <= 2,
            "residency bounded: {}",
            stats.cache_len
        );
        assert!(stats.cache_evictions >= 1, "overflow must evict");
        // The survivor set still serves hits.
        let (_, hit) = engine.query_traced("t3", "p1").expect("cached");
        assert!(hit, "most recent entry must still be resident");
        engine.shutdown();
    }

    /// E15 golden batch: all 45 (client, printer) perspectives through the
    /// engine — shared interned graph, pruned discovery, one evaluator —
    /// must reproduce the experiment's availabilities bit-for-bit at the
    /// reported precision (worst t1→p2, best t6→p1, mean over all 45).
    #[test]
    fn batch_of_45_perspectives_matches_e15_golden_availabilities() {
        let engine = usi_engine(4);
        let pairs: Vec<(String, String)> = netgen::usi::all_printing_perspectives()
            .into_iter()
            .map(|(client, printer, _)| (client, printer))
            .collect();
        assert_eq!(pairs.len(), 45);
        let results = engine.batch(&pairs);
        let mut sum = 0.0;
        let mut worst = f64::INFINITY;
        let mut best = f64::NEG_INFINITY;
        for (pair, result) in pairs.iter().zip(&results) {
            let entry = result.as_ref().expect("every perspective evaluates");
            sum += entry.availability;
            worst = worst.min(entry.availability);
            best = best.max(entry.availability);
            if (pair.0.as_str(), pair.1.as_str()) == ("t1", "p2") {
                assert!(
                    (entry.availability - 0.991699164).abs() < 1e-9,
                    "t1->p2 golden: {}",
                    entry.availability
                );
            }
            if (pair.0.as_str(), pair.1.as_str()) == ("t6", "p1") {
                assert!(
                    (entry.availability - 0.991704285).abs() < 1e-9,
                    "t6->p1 golden: {}",
                    entry.availability
                );
            }
        }
        assert!((worst - 0.991699164).abs() < 1e-9, "worst: {worst}");
        assert!((best - 0.991704285).abs() < 1e-9, "best: {best}");
        assert!(
            (sum / 45.0 - 0.991700944).abs() < 1e-9,
            "mean: {}",
            sum / 45.0
        );
        engine.shutdown();
    }

    /// Registry construction rejects empty registries, bad names, and
    /// duplicates, and routes `USE` misses to the distinct error.
    #[test]
    fn registry_validates_names_and_routes_unknown_models() {
        let err = Engine::with_models(Vec::new(), EngineConfig::default())
            .err()
            .expect("empty registry rejected");
        assert!(matches!(err, EngineError::Model(_)));

        let err = Engine::with_models(vec![usi_spec("../escape")], EngineConfig::default())
            .err()
            .expect("path-escaping name rejected");
        assert!(matches!(err, EngineError::Model(_)));

        let err = Engine::with_models(
            vec![usi_spec("usi"), usi_spec("usi")],
            EngineConfig::default(),
        )
        .err()
        .expect("duplicate rejected");
        assert!(matches!(err, EngineError::Model(_)));

        let config = EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        };
        let engine = Engine::with_models(vec![usi_spec("usi"), campus_spec("campus")], config)
            .expect("two distinct models register");
        assert_eq!(engine.resolve_model("usi"), Ok(0));
        assert_eq!(
            engine.resolve_model("ghost"),
            Err(EngineError::UnknownModel("ghost".into()))
        );
        assert_eq!(
            engine
                .query_traced_on(Some("ghost"), "t1", "p1")
                .expect_err("routed to unknown model"),
            EngineError::UnknownModel("ghost".into())
        );
        let names: Vec<String> = engine.models().into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["usi".to_string(), "campus".to_string()]);
        engine.shutdown();
    }

    /// An `UPDATE` on one model must not bump another model's epoch or
    /// flush its caches (the core isolation invariant).
    #[test]
    fn update_on_one_model_leaves_the_other_untouched() {
        let config = EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        };
        let engine = Engine::with_models(vec![usi_spec("usi"), campus_spec("campus")], config)
            .expect("two models register");
        engine
            .query_traced_on(Some("campus"), "t0_0_0", "srv0")
            .expect("campus perspective evaluates");
        let campus_before = engine
            .models()
            .into_iter()
            .find(|m| m.name == "campus")
            .expect("campus registered");
        assert_eq!(campus_before.cache_len, 1);

        for _ in 0..3 {
            engine
                .update_on(
                    Some("usi"),
                    UpdateCommand::Disconnect {
                        a: "t1".into(),
                        b: "e1".into(),
                    },
                )
                .expect("usi update applies");
            engine
                .update_on(
                    Some("usi"),
                    UpdateCommand::Connect {
                        a: "t1".into(),
                        b: "e1".into(),
                    },
                )
                .expect("usi update applies");
        }
        let campus_after = engine
            .models()
            .into_iter()
            .find(|m| m.name == "campus")
            .expect("campus registered");
        assert_eq!(campus_after.epoch, 0, "campus epoch must not move");
        assert_eq!(campus_after.cache_len, 1, "campus cache must survive");
        let (_, hit) = engine
            .query_traced_on(Some("campus"), "t0_0_0", "srv0")
            .expect("campus perspective still resolves");
        assert!(hit, "campus entry must still be served from cache");
        assert_eq!(engine.epoch_of("usi"), Ok(6));
        engine.shutdown();
    }

    /// Satellite fix coverage: evictions and negative hits are per-shard,
    /// and the `STATS` rollup equals the sum across shards.
    #[test]
    fn stats_rollup_equals_sum_across_shards() {
        let config = EngineConfig {
            workers: 1,
            cache_capacity: 2,
            ..EngineConfig::default()
        };
        let engine = Engine::with_models(vec![usi_spec("usi"), campus_spec("campus")], config)
            .expect("two models register");
        // Overflow the usi cache (capacity 2) to force evictions there.
        for client in ["t1", "t2", "t3", "t4"] {
            engine
                .query_traced_on(Some("usi"), client, "p1")
                .expect("valid perspective");
        }
        // Two identical failures per shard: the second is a negative hit.
        for model in ["usi", "campus"] {
            for _ in 0..2 {
                engine
                    .query_traced_on(Some(model), "ghost", "alsoghost")
                    .expect_err("unknown device");
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.per_model.len(), 2, "one rollup row per shard");
        let usi = &stats.per_model[0];
        let campus = &stats.per_model[1];
        assert_eq!(usi.model, "usi");
        assert_eq!(campus.model, "campus");
        assert!(usi.cache_evictions >= 1, "usi overflow must evict");
        assert_eq!(
            campus.cache_evictions, 0,
            "campus never overflowed — evictions must be per-shard"
        );
        assert_eq!(usi.negative_hits, 1);
        assert_eq!(campus.negative_hits, 1);
        // The rollup line is the sum of the per-shard rows.
        assert_eq!(
            stats.cache_evictions,
            usi.cache_evictions + campus.cache_evictions
        );
        assert_eq!(
            stats.negative_hits,
            usi.negative_hits + campus.negative_hits
        );
        assert_eq!(stats.cache_len, usi.cache_len + campus.cache_len);
        assert_eq!(
            stats.queries,
            usi.queries + campus.queries,
            "query counts sum across shards"
        );
        let rendered = stats.render();
        assert!(rendered.contains("model[usi]="));
        assert!(rendered.contains("model[campus]="));
        engine.shutdown();
    }

    /// The model-space importers map `.` to `_`, so `t.16` and `t_16`
    /// (Step 5) or the atomic services `a.b` and `a_b` (Step 6) name one
    /// entity twice, and a server that imported the models refused every
    /// perspective of such a model. Queries build no model space, so
    /// every perspective answers.
    #[test]
    fn names_that_clash_in_a_model_space_still_evaluate() {
        let mut infrastructure = usi_infrastructure();
        for client in ["t.16", "t_16"] {
            infrastructure
                .add_device(client, "Comp")
                .expect("new client");
            infrastructure.connect(client, "e4").expect("new link");
        }
        let snapshot = ModelSnapshot::new(infrastructure, printing_service()).expect("consistent");
        let config = EngineConfig {
            workers: 2,
            mapper: Arc::new(|_, client, provider| perspective_mapping(client, provider)),
            ..EngineConfig::default()
        };
        let engine = Engine::new(snapshot, config);
        for (client, provider, expected) in [
            ("t_16", "p3", 0.991704285),
            ("t.16", "p3", 0.991704285),
            ("t1", "p2", 0.991699164),
        ] {
            let entry = engine.query(client, provider).expect("perspective answers");
            assert!(
                (entry.availability - expected).abs() < 1e-9,
                "{client}->{provider}: {}",
                entry.availability
            );
        }
        engine.shutdown();

        // Two steps whose names clash price like two that do not.
        let availability = |steps: &[&str]| {
            let service = CompositeService::sequential("clash", steps).expect("service");
            let snapshot = ModelSnapshot::new(usi_infrastructure(), service).expect("consistent");
            let engine = Engine::new(snapshot, EngineConfig::default());
            let entry = engine.query("t1", "p2").expect("perspective answers");
            engine.shutdown();
            entry.availability
        };
        assert_eq!(
            availability(&["a.b", "a_b"]).to_bits(),
            availability(&["a-b", "a_b"]).to_bits()
        );
    }

    /// A single-unnamed-model engine renders `STATS` without per-model
    /// fields — byte-compatible with the pre-registry wire format.
    #[test]
    fn single_unnamed_model_stats_have_no_per_model_fields() {
        let engine = usi_engine(1);
        engine.query("t1", "p1").expect("valid perspective");
        let stats = engine.stats();
        assert!(stats.per_model.is_empty());
        assert!(!stats.render().contains("model["));
        engine.shutdown();
    }

    /// The fanned-out kill campaign ranks the same component on top as
    /// the analytic Birnbaum importance (`ΔA = p·B`) over the scoped
    /// baselines — the paper's Sec. VII "which ICT components can be the
    /// cause" overview.
    #[test]
    fn campaign_kill_ranking_matches_analytic_importance() {
        let engine = usi_engine(4);
        let spec = CampaignSpec::parse("kill-each-component pairs:t1:p2,t6:p1,t11:p3")
            .expect("spec parses");
        let report = engine.campaign(spec, |_, _| {}).expect("campaign runs");
        assert_eq!(report.perspectives, 3);
        assert_eq!(
            report.scenarios,
            usi_infrastructure().objects.instances.len()
        );

        // Re-derive the analytic winner from fresh per-pair baselines.
        let mut deltas: HashMap<String, f64> = HashMap::new();
        for (client, provider) in [("t1", "p2"), ("t6", "p1"), ("t11", "p3")] {
            let mut pipeline = UpsimPipeline::new(
                usi_infrastructure(),
                printing_service(),
                perspective_mapping(client, provider),
            )
            .expect("models consistent");
            pipeline.record_paths = false;
            let run = pipeline.run().expect("pipeline runs");
            let model = ServiceAvailabilityModel::from_run(
                pipeline.infrastructure(),
                &run,
                AnalysisOptions::default(),
            );
            for (name, delta) in dependability::perturb::kill_deltas(&model) {
                *deltas.entry(name).or_insert(0.0) += delta / 3.0;
            }
        }
        let (winner, _) = deltas
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(a.0)))
            .expect("non-empty");
        assert_eq!(report.rows[0].label, format!("kill:{winner}"));
        engine.shutdown();
    }

    /// A campaign pins the snapshot and works on copies: the live shard's
    /// epoch and cache are bit-identical afterwards, and only the two
    /// campaign counters move.
    #[test]
    fn campaign_leaves_live_shard_untouched_and_bumps_counters() {
        let engine = usi_engine(2);
        engine.query("t1", "p1").expect("warm the cache");
        let before = engine.stats();
        let spec = CampaignSpec::parse("cut-each-link pairs:t1:p2,t6:p1").expect("spec parses");
        let report = engine.campaign(spec, |_, _| {}).expect("campaign runs");
        assert!(report.scenarios > 0);
        let after = engine.stats();
        assert_eq!(after.epoch, before.epoch, "no epoch bump");
        assert_eq!(after.cache_len, before.cache_len, "no cache traffic");
        assert_eq!(after.campaigns_run, before.campaigns_run + 1);
        assert_eq!(
            after.scenarios_evaluated,
            before.scenarios_evaluated + report.scenarios as u64
        );
        engine.shutdown();
    }

    /// Same spec + seed ⇒ byte-identical JSON report across worker
    /// counts: scenario generation is positional, aggregation is keyed by
    /// generation index, and the MC seed is a pure function of
    /// (base seed, scenario, perspective).
    #[test]
    fn campaign_report_is_worker_count_invariant() {
        let spec_text = "kill-each-component scale-mtbf:*:0.5 pairs:t1:p2,t6:p1 mc:2048:7 json";
        let run = |workers: usize| {
            let engine = usi_engine(workers);
            let spec = CampaignSpec::parse(spec_text).expect("spec parses");
            let mut ticks = 0usize;
            let report = engine
                .campaign(spec, |done, total| {
                    ticks = done;
                    assert!(done <= total);
                })
                .expect("campaign runs");
            let json = report.render_json();
            assert_eq!(ticks, report.scenarios, "progress reaches total");
            engine.shutdown();
            json
        };
        assert_eq!(run(1), run(4), "report must not depend on worker count");
    }

    /// Campaign routing honours the model registry, and a bad spec comes
    /// back as a campaign error instead of poisoning the pool.
    #[test]
    fn campaign_routes_models_and_rejects_bad_scope() {
        let engine = Engine::with_models(
            vec![usi_spec("usi"), campus_spec("campus")],
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .expect("registry builds");
        let spec = CampaignSpec::parse("kill-each-component pairs:t1:p1").expect("parses");
        engine
            .campaign_on(Some("usi"), spec, |_, _| {})
            .expect("USI campaign runs");
        let bad = CampaignSpec::parse("kill-each-component pairs:t1:nowhere").expect("parses");
        match engine.campaign_on(Some("usi"), bad, |_, _| {}) {
            Err(EngineError::Campaign(msg)) => assert!(msg.contains("nowhere"), "{msg}"),
            other => panic!("expected campaign error, got {other:?}"),
        }
        let unknown = CampaignSpec::parse("kill-each-component").expect("parses");
        assert!(matches!(
            engine.campaign_on(Some("ghost"), unknown, |_, _| {}),
            Err(EngineError::UnknownModel(_))
        ));
        engine.shutdown();
    }

    /// Campaigns after shutdown fail fast instead of hanging on a pool
    /// that no longer exists.
    #[test]
    fn campaign_after_shutdown_fails_fast() {
        let engine = usi_engine(1);
        engine.shutdown();
        let spec = CampaignSpec::parse("kill-each-component pairs:t1:p1").expect("parses");
        assert!(matches!(
            engine.campaign(spec, |_, _| {}),
            Err(EngineError::Shutdown)
        ));
    }
}
