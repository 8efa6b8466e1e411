//! Immutable model snapshots and perspective mappers.
//!
//! The engine never mutates a published snapshot: an `UPDATE` builds a new
//! [`ModelSnapshot`] with a bumped epoch and atomically swaps it in, so
//! in-flight evaluations keep a consistent view of infrastructure +
//! service, and the epoch tells the cache which results a write has
//! superseded.

use dependability::ParamEstimator;
use std::sync::{Arc, OnceLock};
use upsim_core::error::{UpsimError, UpsimResult};
use upsim_core::infrastructure::Infrastructure;
use upsim_core::interned::InternedGraph;
use upsim_core::mapping::{ServiceMapping, ServiceMappingPair};
use upsim_core::service::CompositeService;

use crate::engine::UpdateCommand;

pub use upsim_campaign::PerspectiveMapper;

/// The generic Table-I-shaped mapper: consecutive atomic services
/// ping-pong between the client and the provider (request/response
/// alternation).
pub fn pingpong_mapper() -> PerspectiveMapper {
    Arc::new(|service, client, provider| {
        let mut mapping = ServiceMapping::new();
        for (i, atomic) in service.atomic_services().into_iter().enumerate() {
            let (rq, pr) = if i % 2 == 0 {
                (client, provider)
            } else {
                (provider, client)
            };
            mapping.add(ServiceMappingPair::new(atomic, rq, pr));
        }
        mapping
    })
}

/// One immutable generation of the engine's model state.
///
/// Infrastructure and service are `Arc`-shared: pinning a snapshot for a
/// campaign or deriving the next generation clones a pointer, not the
/// model — [`ModelSnapshot::apply`] copies on write only when an edit
/// actually lands.
#[derive(Debug)]
pub struct ModelSnapshot {
    pub infrastructure: Arc<Infrastructure>,
    pub service: Arc<CompositeService>,
    /// Generation counter; bumped by every published update.
    pub epoch: u64,
    /// The view generation, which keys cached refusals: the epoch of the
    /// last applied write that was not an observation (an `OBSERVE`
    /// changes no edge), or of the restore.
    pub view_generation: u64,
    /// The observation-fed parameter layer of this generation: interval-
    /// censored MTBF/MTTR evidence per component, folded in by the
    /// `OBSERVE` verb. `Arc`-shared like the models — an observation
    /// copies the estimator on write, a topology update just clones the
    /// pointer.
    pub params: Arc<ParamEstimator>,
    /// The interned graph view (name table + block-cut tree) of this
    /// generation, built once on first use and shared by every worker
    /// evaluating against it — a 45-perspective batch interns and prunes
    /// exactly once per epoch.
    interned: OnceLock<Arc<InternedGraph>>,
}

/// Cloning a snapshot is how [`Engine::update`] derives the next
/// generation, which then mutates the infrastructure — so the clone must
/// NOT inherit the built graph view; it starts with an empty cell and
/// re-interns lazily against its own (post-update) topology.
///
/// [`Engine::update`]: crate::engine::Engine::update
impl Clone for ModelSnapshot {
    fn clone(&self) -> Self {
        ModelSnapshot {
            infrastructure: self.infrastructure.clone(),
            service: self.service.clone(),
            epoch: self.epoch,
            view_generation: self.view_generation,
            params: self.params.clone(),
            interned: OnceLock::new(),
        }
    }
}

impl ModelSnapshot {
    /// Validates and wraps the initial (epoch 0) model state.
    pub fn new(infrastructure: Infrastructure, service: CompositeService) -> UpsimResult<Self> {
        infrastructure.validate()?;
        Ok(ModelSnapshot {
            infrastructure: Arc::new(infrastructure),
            service: Arc::new(service),
            epoch: 0,
            view_generation: 0,
            params: Arc::new(ParamEstimator::new()),
            interned: OnceLock::new(),
        })
    }

    /// Wraps model state restored from disk at a recorded epoch, without
    /// re-validating (the state was validated before it was saved, and
    /// journal replay re-validates after every applied command).
    pub(crate) fn restored(
        infrastructure: Infrastructure,
        service: CompositeService,
        epoch: u64,
    ) -> Self {
        ModelSnapshot {
            infrastructure: Arc::new(infrastructure),
            service: Arc::new(service),
            epoch,
            view_generation: epoch,
            params: Arc::new(ParamEstimator::new()),
            interned: OnceLock::new(),
        }
    }

    /// Copies the previous generation's built graph view into this one.
    /// Only valid when the topology is unchanged between the two — an
    /// observation refines parameters without touching a single edge, so
    /// the interned name table and block-cut tree stay exact and workers
    /// keep sharing them across the epoch bump instead of re-interning.
    pub(crate) fn inherit_interned(&mut self, prev: &ModelSnapshot) {
        if let Some(graph) = prev.interned.get() {
            let _ = self.interned.set(Arc::clone(graph));
        }
    }

    /// Folds a run of `up|down` transition events into this (unpublished)
    /// snapshot's parameter layer. Every component must exist and every
    /// timestamp must strictly advance that component's observation
    /// clock; the first violation aborts with the distinct error and the
    /// caller drops the half-mutated clone, so a published snapshot never
    /// carries a partial batch.
    pub(crate) fn observe_events<'a>(
        &mut self,
        events: impl IntoIterator<Item = (&'a str, bool, u64)>,
    ) -> Result<(), crate::engine::EngineError> {
        let params = Arc::make_mut(&mut self.params);
        for (component, up, ts) in events {
            if !self.infrastructure.has_device(component) {
                return Err(crate::engine::EngineError::UnknownDevice(
                    component.to_string(),
                ));
            }
            params.observe(component, up, ts).map_err(|err| {
                crate::engine::EngineError::NonMonotoneObservation(err.to_string())
            })?;
        }
        Ok(())
    }

    /// The shared interned graph view of this generation (built on first
    /// call; subsequent callers — other workers, other perspectives — get
    /// the same `Arc`).
    pub fn interned_graph(&self) -> Arc<InternedGraph> {
        Arc::clone(
            self.interned
                .get_or_init(|| Arc::new(self.infrastructure.to_interned_graph())),
        )
    }

    /// The loaded composite service's name (part of every cache key).
    pub fn service_name(&self) -> &str {
        self.service.name()
    }

    /// Applies one dynamicity command to this (unpublished) snapshot and
    /// re-validates the model. Does **not** touch the epoch — the caller
    /// decides what generation the mutated state becomes ([`Engine::update`]
    /// bumps by one, journal replay restores the recorded epoch).
    ///
    /// [`Engine::update`]: crate::engine::Engine::update
    pub fn apply(&mut self, command: &UpdateCommand) -> UpsimResult<()> {
        match command {
            UpdateCommand::Connect { a, b } => {
                Arc::make_mut(&mut self.infrastructure).connect(a, b)?;
            }
            UpdateCommand::Disconnect { a, b } => {
                Arc::make_mut(&mut self.infrastructure).disconnect(a, b)?;
            }
            UpdateCommand::SubstituteService { service } => {
                self.service = Arc::new(service.clone());
            }
            // Observations (journal replay path; the live engine routes
            // them through `observe_events` directly to keep the distinct
            // error). No topology change: skip the interned reset and the
            // re-validation below.
            UpdateCommand::Observe { component, up, ts } => {
                return self
                    .observe_events(std::iter::once((component.as_str(), *up, *ts)))
                    .map_err(|err| UpsimError::Mapping(err.to_string()));
            }
            UpdateCommand::ObserveBatch { events } => {
                return self
                    .observe_events(events.iter().map(|(c, up, ts)| (c.as_str(), *up, *ts)))
                    .map_err(|err| UpsimError::Mapping(err.to_string()));
            }
        }
        // Any applied command may have changed the topology (and journal
        // replay applies many in sequence): drop a graph view built before
        // the edit so the next `interned_graph` re-interns.
        self.interned = OnceLock::new();
        self.infrastructure.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pingpong_alternates_directions() {
        let service =
            CompositeService::sequential("svc", &["a0", "a1", "a2"]).expect("well-formed");
        let mapping = (pingpong_mapper())(&service, "c", "s");
        let pairs = mapping.pairs();
        assert_eq!(pairs.len(), 3);
        assert_eq!(
            (pairs[0].requester.as_str(), pairs[0].provider.as_str()),
            ("c", "s")
        );
        assert_eq!(
            (pairs[1].requester.as_str(), pairs[1].provider.as_str()),
            ("s", "c")
        );
        assert_eq!(
            (pairs[2].requester.as_str(), pairs[2].provider.as_str()),
            ("c", "s")
        );
    }
}
