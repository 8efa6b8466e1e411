//! Scenario evaluation against an immutable base model.
//!
//! A campaign never mutates the live model: it works on a
//! [`CampaignInput`] — `Arc`-pinned infrastructure + service (shared
//! with the shard's snapshot, never deep-copied), the shard's shared
//! interned graph, and a perspective scope — and prices every scenario
//! against per-perspective *baselines* it evaluates itself. Structural
//! scenarios overlay the pinned models copy-on-write: setup cost scales
//! with the perturbation, not the model.
//!
//! Two cost tiers, chosen per (scenario, perspective):
//!
//! * **parametric** (`kill`, `scale-mtbf`): the baseline path-set
//!   structure is reused and only the probability vector moves — one BDD
//!   re-pricing (or one bit-sliced MC run) per affected perspective,
//! * **structural** (`cut`, `drop`): Steps 7–8 re-run on a perturbed
//!   copy, exactly like a Sec. V-A3 dynamicity update — but only for
//!   perspectives whose baseline UPSIM the perturbation touches (the
//!   engine's targeted-invalidation predicate).
//!
//! Baselines and structural re-runs both go through
//! [`dependability::evaluate_perspective`], the evaluator the engine
//! serves queries with, so a scenario and its baseline price the same
//! model the same way.
//!
//! Perspectives untouched by a scenario keep their baseline availability
//! bit-for-bit, which is what makes `kill-each-component` over hundreds
//! of devices cheap: each kill re-prices only the handful of perspectives
//! whose UPSIM contains the victim.
//!
//! # Common random numbers (`mc:` campaigns)
//!
//! By default an `mc:`-priced campaign uses **common random numbers**:
//! each perspective compiles one *unfolded* program (every pathed
//! component keeps a slot), packs its draw words once into a shared
//! [`DrawTable`] under a per-perspective seed, and prices its baseline
//! from that stream. A parametric scenario then rewrites only the
//! perturbed thresholds (`kill` → threshold 0, `scale-mtbf` → threshold
//! rewrite) and re-runs against the table — untouched components reuse
//! their packed words, so an N-scenario sweep costs one full draw pass
//! plus N cheap re-evaluations. Because baseline and scenario estimates
//! share every unperturbed draw, their difference is *paired sampling*:
//! the reported availability deltas carry only the variance of the
//! trials the perturbation actually flips, not two independent runs'
//! noise. The `independent-seeds` clause restores the per-scenario
//! derived-seed behavior (exact-BDD baselines, fresh draws per
//! scenario).

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use dependability::mcprog::{derive_seed, DrawTable, RunSpec, Sampling};
use dependability::perturb::{availability_with, scaled_availability};
use dependability::{
    evaluate_perspective, AnalysisOptions, McProgram, McScratch, ParamEstimator,
    PosteriorComponent, PosteriorSampler, ServiceAvailabilityModel,
};
use upsim_core::discovery::{DiscoveryOptions, DiscoveryWorkspace};
use upsim_core::infrastructure::{DeviceKind, Infrastructure};
use upsim_core::interned::InternedGraph;
use upsim_core::mapping::ServiceMapping;
use upsim_core::service::CompositeService;

use crate::scenario::{generate, Perturbation, Scenario};
use crate::spec::CampaignSpec;

/// Derives the service mapping of one perspective from the loaded service
/// and a `(client, provider)` pair.
///
/// The paper keeps one network model and one service model fixed and
/// varies only the mapping per user perspective (Sec. VI-H, E15); the
/// mapper is that variation as a function. The server holds one per
/// model: `upsim serve --case-study` installs a USI printing mapper, and
/// `upsim_server::pingpong_mapper` is the generic default.
pub type PerspectiveMapper =
    Arc<dyn Fn(&CompositeService, &str, &str) -> ServiceMapping + Send + Sync>;

/// Perspective scope as interned `(client, provider)` name pairs —
/// every holder shares the `Arc<str>`s instead of re-cloning strings.
pub type InternedPairs = Vec<(Arc<str>, Arc<str>)>;

/// Everything a worker needs to evaluate campaign tasks: immutable once
/// built, shared by `Arc` across the pool.
pub struct CampaignInput {
    /// The pinned base infrastructure — an `Arc` share of the shard's
    /// epoch-pinned snapshot, never a deep copy.
    pub infrastructure: Arc<Infrastructure>,
    /// The pinned base composite service.
    pub service: Arc<CompositeService>,
    /// Perspective mapper (shared with the owning shard).
    pub mapper: PerspectiveMapper,
    /// The base topology's interned graph view — shared with the shard,
    /// so baseline evaluation interns nothing.
    pub graph: Arc<InternedGraph>,
    /// Perspective scope, in deterministic model order. Names are
    /// interned once here; baselines and reports share the `Arc`s
    /// instead of re-cloning strings per pair.
    pub pairs: InternedPairs,
    /// Generated scenarios, index == position.
    pub scenarios: Vec<Scenario>,
    /// The parsed spec (MC settings, report shape).
    pub spec: CampaignSpec,
    /// The shard's observation-fed parameter layer, pinned with the
    /// models. A non-empty estimator refines every baseline's component
    /// availabilities to the posterior means; the `posterior` clause
    /// additionally block-resamples from it inside the MC kernel. An
    /// empty estimator leaves every number bit-identical to the
    /// authored-parameter campaign.
    pub params: Arc<ParamEstimator>,
}

impl CampaignInput {
    /// Resolves the perspective scope, generates the scenario set and
    /// bundles the immutable inputs. `graph` should be the shard's shared
    /// interned view when available; `None` interns a fresh one.
    /// `_discovery` is unread: Step 7 has no options ([`DiscoveryOptions`]),
    /// and the argument stays only because the benchmark still passes it.
    pub fn prepare(
        infrastructure: impl Into<Arc<Infrastructure>>,
        service: impl Into<Arc<CompositeService>>,
        mapper: PerspectiveMapper,
        _discovery: DiscoveryOptions,
        graph: Option<Arc<InternedGraph>>,
        params: Arc<ParamEstimator>,
        spec: CampaignSpec,
    ) -> Result<Self, String> {
        let infrastructure = infrastructure.into();
        let service = service.into();
        let pairs = resolve_pairs(&infrastructure, &spec)?;
        let scenarios = generate(&infrastructure, &service, &spec)?;
        let graph = graph.unwrap_or_else(|| Arc::new(infrastructure.to_interned_graph()));
        Ok(CampaignInput {
            infrastructure,
            service,
            mapper,
            graph,
            pairs,
            scenarios,
            spec,
            params,
        })
    }
}

/// Explicit `pairs:` entries validated against the model, or the default
/// scope: every client × every server/printer, in deployment order.
fn resolve_pairs(
    infrastructure: &Infrastructure,
    spec: &CampaignSpec,
) -> Result<InternedPairs, String> {
    if !spec.pairs.is_empty() {
        for (client, provider) in &spec.pairs {
            for device in [client, provider] {
                if !infrastructure.has_device(device) {
                    return Err(format!("pairs: unknown device `{device}`"));
                }
            }
        }
        return Ok(spec
            .pairs
            .iter()
            .map(|(c, p)| (Arc::from(c.as_str()), Arc::from(p.as_str())))
            .collect());
    }
    // Intern each device name exactly once; the cross product below (and
    // every baseline perspective built from it) shares the same `Arc`s.
    let mut clients: Vec<Arc<str>> = Vec::new();
    let mut providers: Vec<Arc<str>> = Vec::new();
    for instance in &infrastructure.objects.instances {
        match infrastructure.kind_of(&instance.name) {
            Ok(DeviceKind::Client) => clients.push(Arc::from(instance.name.as_str())),
            Ok(DeviceKind::Server) | Ok(DeviceKind::Printer) => {
                providers.push(Arc::from(instance.name.as_str()));
            }
            _ => {}
        }
    }
    let pairs: InternedPairs = clients
        .iter()
        .flat_map(|c| {
            providers
                .iter()
                .map(move |p| (Arc::clone(c), Arc::clone(p)))
        })
        .collect();
    if pairs.is_empty() {
        return Err(
            "no client/provider perspectives in the model (give an explicit pairs: clause)"
                .to_string(),
        );
    }
    Ok(pairs)
}

/// Per-perspective draw-table memory ceiling (`u64` words): 32 MiB.
/// Above it the perspective still prices with common random numbers
/// (shared per-perspective seed) but re-packs draws per scenario instead
/// of caching them — same estimates, just less reuse.
const MAX_TABLE_WORDS: usize = 1 << 22;

/// One perspective's common-random-number state: the shared baseline
/// draw stream every scenario of the campaign prices against.
pub struct McBaseline {
    /// Unfolded baseline program (one slot per pathed component).
    pub program: McProgram,
    /// Packed baseline draw words, when within the memory budget.
    pub table: Option<DrawTable>,
    /// The perspective's seed (one [`derive_seed`] stride per
    /// perspective index off the campaign's base seed).
    pub seed: u64,
}

impl McBaseline {
    /// How one run on this perspective's stream draws its trials:
    /// posterior resampling when a sampler is given, otherwise served
    /// from the table when there is one, otherwise point sampling.
    fn sampling<'a>(
        &'a self,
        samples: usize,
        seed: u64,
        sampler: Option<&'a PosteriorSampler>,
    ) -> Sampling<'a> {
        match (sampler, &self.table) {
            (Some(sampler), _) => Sampling::Posterior {
                samples,
                seed,
                sampler,
            },
            (None, Some(table)) => Sampling::Table(table),
            (None, None) => Sampling::Point { samples, seed },
        }
    }
}

/// One perspective's baseline: exact availability plus everything needed
/// to decide whether a perturbation touches it and to re-price it.
pub struct BaselinePerspective {
    /// Requesting client device (shared with `CampaignInput::pairs`).
    pub client: Arc<str>,
    /// Providing device (shared with `CampaignInput::pairs`).
    pub provider: Arc<str>,
    /// Baseline availability: BDD-exact, except under common-random-number
    /// `mc:` pricing, where it is the baseline-stream MC estimate so that
    /// scenario deltas are paired-sampling differences.
    pub availability: f64,
    /// Devices in the baseline UPSIM (the targeted-invalidation set).
    pub upsim: HashSet<String>,
    /// The baseline availability model (path sets + component pricing).
    pub model: ServiceAvailabilityModel,
    /// Device class per model component (parallel to `model.components`).
    pub classes: Vec<String>,
    /// Common-random-number state (`mc:` campaigns without
    /// `independent-seeds`, and every `posterior` campaign).
    pub mc: Option<McBaseline>,
    /// Per-component parameter posteriors (parallel to
    /// `model.components`; `None` = authored). Empty outside `posterior`
    /// campaigns.
    pub posteriors: Vec<Option<PosteriorComponent>>,
    /// The baseline's 95% confidence interval for the posterior-mean
    /// availability (`posterior` campaigns only).
    pub interval: Option<(f64, f64)>,
}

/// All baselines of a campaign, in `pairs` order.
pub struct Baseline {
    /// One entry per perspective, aligned with `CampaignInput::pairs`.
    pub perspectives: Vec<BaselinePerspective>,
}

impl Baseline {
    /// Mean baseline availability over the perspective scope.
    pub fn mean(&self) -> f64 {
        if self.perspectives.is_empty() {
            return 0.0;
        }
        self.perspectives
            .iter()
            .map(|p| p.availability)
            .sum::<f64>()
            / self.perspectives.len() as f64
    }
}

/// Evaluates a contiguous chunk of the perspective scope on one [`EvalCtx`].
pub fn evaluate_baseline_chunk(
    input: &CampaignInput,
    range: Range<usize>,
) -> Result<Vec<BaselinePerspective>, String> {
    let mut ctx = EvalCtx::default();
    range
        .map(|ix| evaluate_baseline(input, ix, &mut ctx))
        .collect()
}

/// Evaluates the baseline of scope pair `ix` on the caller's [`EvalCtx`].
pub fn evaluate_baseline(
    input: &CampaignInput,
    ix: usize,
    ctx: &mut EvalCtx,
) -> Result<BaselinePerspective, String> {
    let (client, provider) = &input.pairs[ix];
    let mapping = (input.mapper)(&input.service, client, provider);
    let (run, model, posteriors) = evaluate_perspective(
        &input.infrastructure,
        &input.service,
        &input.graph,
        &mapping,
        &input.params,
        false,
        &mut ctx.workspace,
    )
    .map_err(|e| e.to_string())?;
    // The posteriors matter beyond their point estimates, which the
    // model already carries, only under the `posterior` clause.
    let posteriors = if input.spec.posterior {
        posteriors
    } else {
        Vec::new()
    };
    let upsim = run.upsim_names().map(str::to_string).collect();
    let classes = component_classes(&input.infrastructure, &model);
    // `posterior` campaigns always take the shared-stream MC path —
    // block resampling rewrites thresholds between blocks, which a
    // packed draw table cannot represent, so the table is skipped
    // while the per-perspective seed (paired sampling) is kept.
    let mc = match input.spec.mc {
        Some(settings) if input.spec.crn || input.spec.posterior => {
            let program = model.compile_mc_unfolded();
            let seed = derive_seed(settings.seed, ix as u64);
            let table = (!input.spec.posterior
                && program.table_words(settings.samples) <= MAX_TABLE_WORDS)
                .then(|| program.draw_table(settings.samples, seed));
            Some(McBaseline {
                program,
                table,
                seed,
            })
        }
        _ => None,
    };
    // Under CRN the baseline is priced from the same stream the
    // scenarios will share; otherwise it is BDD-exact.
    let (availability, interval) = match &mc {
        Some(mcb) => {
            let settings = input.spec.mc.expect("mc settings present");
            let sampler = input
                .spec
                .posterior
                .then(|| mcb.program.posterior_sampler(&posteriors));
            let spec = RunSpec {
                probs: None,
                sampling: mcb.sampling(settings.samples, mcb.seed, sampler.as_ref()),
            };
            let outcome = mcb.program.execute(&spec, &mut ctx.scratch);
            (outcome.result.estimate, outcome.interval)
        }
        None => (model.availability_bdd(), None),
    };
    Ok(BaselinePerspective {
        client: Arc::clone(client),
        provider: Arc::clone(provider),
        availability,
        upsim,
        model,
        classes,
        mc,
        posteriors,
        interval,
    })
}

/// One evaluated scenario: per-perspective availabilities aligned with
/// the baseline, plus how many perspectives actually had to be re-priced.
pub struct ScenarioOutcome {
    /// The scenario's generation index (deterministic aggregation key).
    pub index: usize,
    /// Perspectives the perturbations touched (re-evaluated).
    pub affected: usize,
    /// Availability per perspective, aligned with `Baseline::perspectives`.
    pub availabilities: Vec<f64>,
    /// Monte-Carlo trials this scenario ran (0 for exact pricing).
    pub mc_trials: u64,
    /// Draw words served from the shared baseline table instead of being
    /// re-packed (common-random-number reuse; 0 outside CRN pricing).
    pub crn_reused: u64,
    /// 95% confidence interval for the posterior-mean availability per
    /// perspective, aligned with `availabilities` (`posterior` campaigns
    /// only; untouched perspectives carry their baseline interval).
    pub intervals: Option<Vec<(f64, f64)>>,
}

/// Reusable per-worker evaluation state: scratch buffers shared by every
/// evaluation a worker runs (a server worker holds one for all its jobs),
/// so MC scratch (words, overlay draws, worklists) and Step 7 scratch are
/// allocated once per worker instead of once per evaluation.
#[derive(Default)]
pub struct EvalCtx {
    /// Monte-Carlo kernel scratch.
    pub scratch: McScratch,
    /// Step 7 path-discovery scratch.
    pub workspace: DiscoveryWorkspace,
}

/// Evaluates scenario `index` against the shared baselines, reusing the
/// worker's [`EvalCtx`] across calls.
pub fn evaluate_scenario_with(
    input: &CampaignInput,
    baseline: &Baseline,
    index: usize,
    ctx: &mut EvalCtx,
) -> Result<ScenarioOutcome, String> {
    let scenario = &input.scenarios[index];
    let mut kills: Vec<&str> = Vec::new();
    let mut cuts: Vec<(&str, &str)> = Vec::new();
    let mut drops: Vec<&str> = Vec::new();
    let mut scales: Vec<(&str, f64)> = Vec::new();
    for pert in &scenario.perturbations {
        match pert {
            Perturbation::KillComponent(name) => kills.push(name),
            Perturbation::CutLink(a, b) => cuts.push((a, b)),
            Perturbation::DropService(atomic) => drops.push(atomic),
            Perturbation::ScaleMtbf { class, factor } => scales.push((class, *factor)),
        }
    }

    // The perturbed overlay, built lazily on the first perspective that
    // needs a structural re-run.
    let mut rebuilt: Option<Perturbed> = None;

    let mut availabilities = Vec::with_capacity(baseline.perspectives.len());
    let mut intervals = input
        .spec
        .posterior
        .then(|| Vec::with_capacity(baseline.perspectives.len()));
    let mut affected_count = 0usize;
    let mut mc_trials = 0u64;
    let mut crn_reused = 0u64;
    for (p_ix, persp) in baseline.perspectives.iter().enumerate() {
        if !touches(persp, &scenario.perturbations) {
            availabilities.push(persp.availability);
            if let Some(ivs) = intervals.as_mut() {
                ivs.push(
                    persp
                        .interval
                        .unwrap_or((persp.availability, persp.availability)),
                );
            }
            continue;
        }
        affected_count += 1;
        let needs_rerun = !drops.is_empty()
            || cuts
                .iter()
                .any(|(a, b)| persp.upsim.contains(*a) && persp.upsim.contains(*b));
        let (availability, interval) = if needs_rerun {
            if rebuilt.is_none() {
                rebuilt = Some(build_perturbed(input, &cuts, &drops)?);
            }
            let (infra2, service2, graph2) = rebuilt.as_ref().expect("just built");
            let mut mapping = (input.mapper)(&input.service, &persp.client, &persp.provider);
            for atomic in &drops {
                mapping.remove(atomic);
            }
            let (_, model, posteriors) = evaluate_perspective(
                infra2,
                service2,
                graph2,
                &mapping,
                &input.params,
                false,
                &mut ctx.workspace,
            )
            .map_err(|e| e.to_string())?;
            let classes = component_classes(&input.infrastructure, &model);
            price(
                input,
                index,
                p_ix,
                &model,
                &classes,
                &posteriors,
                &kills,
                &scales,
                &mut mc_trials,
                &mut ctx.scratch,
            )
        } else if let Some(mcb) = &persp.mc {
            // Parametric perturbation under common random numbers: the
            // baseline program's shape survives, so only the perturbed
            // thresholds are overlaid — no program clone, no fresh
            // scratch — and every untouched component's draw words come
            // straight from the shared table.
            let probs = perturbed_probs(&persp.model, &persp.classes, &kills, &scales);
            let settings = input.spec.mc.expect("mc settings present under CRN");
            mc_trials += settings.samples as u64;
            // A perturbation overrides an observation: perturbed
            // components keep their overlaid point threshold instead of
            // resampling around a posterior the perturbation just
            // invalidated.
            let sampler = input.spec.posterior.then(|| {
                mcb.program.posterior_sampler(&blank_perturbed(
                    &persp.posteriors,
                    &persp.model,
                    &persp.classes,
                    &kills,
                    &scales,
                ))
            });
            let seed = scenario_seed(input, mcb.seed, index, p_ix);
            let spec = RunSpec {
                probs: Some(&probs),
                sampling: mcb.sampling(settings.samples, seed, sampler.as_ref()),
            };
            let outcome = mcb.program.execute(&spec, &mut ctx.scratch);
            crn_reused += outcome.reused_words;
            (outcome.result.estimate, outcome.interval)
        } else {
            price(
                input,
                index,
                p_ix,
                &persp.model,
                &persp.classes,
                &persp.posteriors,
                &kills,
                &scales,
                &mut mc_trials,
                &mut ctx.scratch,
            )
        };
        availabilities.push(availability);
        if let Some(ivs) = intervals.as_mut() {
            ivs.push(interval.unwrap_or((availability, availability)));
        }
    }
    Ok(ScenarioOutcome {
        index,
        affected: affected_count,
        availabilities,
        mc_trials,
        crn_reused,
        intervals,
    })
}

/// The per-evaluation seed: the perspective's shared stream under common
/// random numbers (paired sampling), or derived from (base seed,
/// scenario, perspective) under `independent-seeds`.
fn scenario_seed(input: &CampaignInput, crn_seed: u64, scenario_ix: usize, p_ix: usize) -> u64 {
    if input.spec.crn {
        crn_seed
    } else {
        let mc = input.spec.mc.expect("mc settings present");
        mc.seed
            .wrapping_add((scenario_ix as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(p_ix as u64)
    }
}

/// Copies the posterior vector with every perturbed component's entry
/// blanked — killed components and members of a scaled class price from
/// their perturbed point threshold, not from an observation posterior the
/// perturbation no longer describes.
fn blank_perturbed(
    posteriors: &[Option<PosteriorComponent>],
    model: &ServiceAvailabilityModel,
    classes: &[String],
    kills: &[&str],
    scales: &[(&str, f64)],
) -> Vec<Option<PosteriorComponent>> {
    posteriors
        .iter()
        .enumerate()
        .map(|(i, post)| {
            let component = &model.components[i];
            if kills.iter().any(|k| *k == component.name)
                || scales.iter().any(|(class, _)| classes[i] == *class)
            {
                None
            } else {
                *post
            }
        })
        .collect()
}

/// Does any perturbation of the scenario touch this perspective?
fn touches(persp: &BaselinePerspective, perturbations: &[Perturbation]) -> bool {
    perturbations.iter().any(|pert| match pert {
        Perturbation::KillComponent(name) => persp.upsim.contains(name),
        Perturbation::CutLink(a, b) => persp.upsim.contains(a) && persp.upsim.contains(b),
        Perturbation::DropService(_) => true,
        Perturbation::ScaleMtbf { class, .. } => persp.classes.iter().any(|c| c == class),
    })
}

/// A scenario's perturbed models and the graph view of its topology.
type Perturbed = (
    Arc<Infrastructure>,
    Arc<CompositeService>,
    Arc<InternedGraph>,
);

/// Applies the structural perturbations as a copy-on-write overlay of
/// the base models: an untouched side is an `Arc` share of the campaign
/// input (O(1)); only a side a perturbation actually edits is copied —
/// and the infrastructure copy itself shares its class-side state
/// (classes, kinds, profiles) with the base, so a cut pays for the
/// object diagram, not the whole model. A cut topology gets its own
/// graph view; an uncut one shares the input's.
fn build_perturbed(
    input: &CampaignInput,
    cuts: &[(&str, &str)],
    drops: &[&str],
) -> Result<Perturbed, String> {
    let (infra, graph) = if cuts.is_empty() {
        (Arc::clone(&input.infrastructure), Arc::clone(&input.graph))
    } else {
        let mut infra = Infrastructure::clone(&input.infrastructure);
        for (a, b) in cuts {
            infra.disconnect(a, b).map_err(|e| e.to_string())?;
        }
        let graph = Arc::new(infra.to_interned_graph());
        (Arc::new(infra), graph)
    };
    let service = if drops.is_empty() {
        Arc::clone(&input.service)
    } else {
        let remaining: Vec<&str> = input
            .service
            .atomic_services()
            .into_iter()
            .filter(|atomic| !drops.contains(atomic))
            .collect();
        Arc::new(
            CompositeService::sequential(input.service.name(), &remaining)
                .map_err(|e| e.to_string())?,
        )
    };
    Ok((infra, service, graph))
}

/// Prices one (scenario, perspective) pair from a freshly built model:
/// perturb the probability vector, then either re-price the exact BDD or
/// run the bit-sliced MC kernel — worker-count invariant either way.
/// Used for structural re-runs and for `independent-seeds` campaigns;
/// parametric CRN pricing goes through the shared draw table instead.
/// The MC seed follows [`scenario_seed`]. Under `posterior` the kernel
/// block-resamples the unperturbed components' thresholds from
/// `posteriors` and the second element carries the 95% confidence
/// interval for the posterior-mean availability.
#[allow(clippy::too_many_arguments)]
fn price(
    input: &CampaignInput,
    scenario_ix: usize,
    perspective_ix: usize,
    model: &ServiceAvailabilityModel,
    classes: &[String],
    posteriors: &[Option<PosteriorComponent>],
    kills: &[&str],
    scales: &[(&str, f64)],
    mc_trials: &mut u64,
    scratch: &mut McScratch,
) -> (f64, Option<(f64, f64)>) {
    let probs = perturbed_probs(model, classes, kills, scales);
    match input.spec.mc {
        Some(mc) => {
            let seed = scenario_seed(
                input,
                derive_seed(mc.seed, perspective_ix as u64),
                scenario_ix,
                perspective_ix,
            );
            *mc_trials += mc.samples as u64;
            if input.spec.posterior {
                // Folding would bake posterior-bearing components into
                // constants, so posterior pricing compiles unfolded (every
                // pathed component keeps a slot) and overlays the perturbed
                // thresholds on top.
                let program = model.compile_mc_unfolded();
                let sampler = program
                    .posterior_sampler(&blank_perturbed(posteriors, model, classes, kills, scales));
                let spec = RunSpec {
                    probs: Some(&probs),
                    sampling: Sampling::Posterior {
                        samples: mc.samples,
                        seed,
                        sampler: &sampler,
                    },
                };
                let outcome = program.execute(&spec, scratch);
                (outcome.result.estimate, outcome.interval)
            } else {
                let program = McProgram::compile(
                    &probs,
                    model.systems.iter().map(|s| s.path_sets.as_slice()),
                );
                (program.run(mc.samples, 1, seed).estimate, None)
            }
        }
        None => (availability_with(model, &probs), None),
    }
}

/// The component probability vector under kills and MTBF scales, priced
/// with the exact formula campaigns build every model with.
fn perturbed_probs(
    model: &ServiceAvailabilityModel,
    classes: &[String],
    kills: &[&str],
    scales: &[(&str, f64)],
) -> Vec<f64> {
    model
        .components
        .iter()
        .enumerate()
        .map(|(i, component)| {
            if kills.iter().any(|k| *k == component.name) {
                return 0.0;
            }
            let mut factor = 1.0;
            for (class, f) in scales {
                if classes[i] == *class {
                    factor *= f;
                }
            }
            if factor != 1.0 {
                scaled_availability(component, factor, AnalysisOptions::default().paper_formula)
            } else {
                component.availability
            }
        })
        .collect()
}

/// Device class per model component (link pseudo-components, present
/// only under `include_links`, get an empty class).
fn component_classes(
    infrastructure: &Infrastructure,
    model: &ServiceAvailabilityModel,
) -> Vec<String> {
    model
        .components
        .iter()
        .map(|component| {
            infrastructure
                .class_of(&component.name)
                .map(str::to_string)
                .unwrap_or_default()
        })
        .collect()
}

/// Runs a whole campaign on the calling thread (tests, CLI local mode
/// without a pool); the engine fans the same two functions out instead.
pub fn run_serial(input: &CampaignInput) -> Result<(Baseline, Vec<ScenarioOutcome>), String> {
    let perspectives = evaluate_baseline_chunk(input, 0..input.pairs.len())?;
    let baseline = Baseline { perspectives };
    let mut ctx = EvalCtx::default();
    let outcomes = (0..input.scenarios.len())
        .map(|i| evaluate_scenario_with(input, &baseline, i, &mut ctx))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((baseline, outcomes))
}
