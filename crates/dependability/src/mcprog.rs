//! Compiled bit-sliced Monte-Carlo structure-function programs.
//!
//! [`montecarlo::estimate`](crate::montecarlo::estimate) walks the path
//! sets once per trial, drawing one word per component into a reused
//! bitset. This module compiles the same structure function — a
//! word-AND over each path's components, a word-OR over each mapping
//! pair's paths, a word-AND over the pairs — into a flat [`McProgram`]
//! that evaluates **64 independent trials per `u64` word**: per-component
//! Bernoulli draws are packed one trial per bit lane and a popcount of
//! the final service word accumulates successes.
//!
//! The per-lane RNG is counter-based: the draw for `(trial, component)`
//! is the SplitMix64 finalizer applied to
//! `seed + trial·γ + (component_index + 1)·γ'` (γ is the SplitMix64
//! increment, γ' a second odd constant), i.e. lane `trial` reads the
//! SplitMix64 stream at a Weyl position keyed by both coordinates. The
//! trial index enters with the full golden-gamma stride — not `+1` — so
//! nearby seeds produce decorrelated sample sets instead of shifted
//! copies of each other. A draw is a pure function of its coordinates —
//! no state is consumed — so the estimate is **bit-identical for a fixed
//! `(seed, samples)` regardless of worker count**, and the twins
//! [`McProgram::run_narrow`] (one 64-trial word at a time) and
//! [`McProgram::run_scalar`] (one trial at a time) reproduce
//! [`McProgram::run`] exactly.
//!
//! # Wide-lane execution
//!
//! The production executor [`McProgram::run`] generates draws in
//! **wide blocks of [`WIDE_WORDS`] words = 512 trials**: because the
//! draw counters advance by a constant Weyl stride, the whole
//! mix/compare/pack loop is a pure function of `lane`, and the packing
//! kernel is compiled three times — an AVX-512 version (native 64-bit
//! vector multiply via `avx512dq`), an AVX2 version, and a portable
//! scalar version — with the best one picked once per process by runtime
//! CPU feature detection. All three run the *same* Rust loop over the
//! same coordinates, so the choice never changes a single draw bit.
//!
//! # Draw-word reuse (common random numbers)
//!
//! [`McProgram::draw_table`] packs every slot's words for a whole
//! `(seed, samples)` grid once; [`McProgram::run_with_table`] then
//! evaluates a program against that table, re-packing only slots whose
//! `(stream, threshold)` key differs from the table's. Combined with
//! [`McProgram::compile_unfolded`] / [`McProgram::with_thresholds`]
//! (which keep program shape fixed while thresholds move) this is the
//! common-random-number engine behind campaign pricing: an N-scenario
//! sweep draws the baseline stream once and each scenario re-packs only
//! the components its perturbation touched. The table is a pure cache —
//! `run_with_table` is bit-identical to `run(samples, 1, seed)` on the
//! same program. The clone-free twins
//! [`McProgram::run_with_table_thresholds`] and
//! [`McProgram::run_thresholds`] apply the threshold rewrite as a
//! scratch-held overlay instead of cloning the program, so per-scenario
//! setup cost is O(slots copied), not O(program allocated).
//!
//! # Parallel execution
//!
//! [`McProgram::run`] and [`McProgram::run_posterior`] execute inline
//! when one worker (or one block) suffices; otherwise their scoped
//! workers drain a shared atomic block cursor in small claims, so a
//! straggler rebalances instead of serializing the tail. Successes (and
//! the posterior run's block moments) are integer sums over blocks, so
//! every partition of the blocks gives a bit-identical result.
//!
//! Compilation constant-folds degenerate availabilities: a component with
//! `p ≥ 1` is dropped from its paths (AND identity), a path containing a
//! component with `p ≤ 0` is dropped from its pair, a pair left with an
//! empty path is certainly up and dropped from the service, and a pair
//! left with *no* path pins the whole estimate to 0. Only genuinely
//! stochastic components are drawn.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::montecarlo::MonteCarloResult;
use crate::params::{unit_open, PosteriorComponent};

/// The SplitMix64 state increment (odd; "golden gamma") — the per-trial
/// Weyl stride.
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A second odd constant (the first SplitMix64 mix multiplier) — the
/// per-component stream stride. Distinct from [`GAMMA`] so that
/// `(trial, component)` coordinates cannot alias each other within any
/// realistic trial range.
pub(crate) const STREAM: u64 = 0xBF58_476D_1CE4_E5B9;

/// Salt of the per-block posterior *failure-rate* draw stream. XORed
/// into the counter key before mixing, so posterior draws can never
/// alias the trial draw stream (which is never salted).
const POSTERIOR_FAIL_SALT: u64 = 0x94D0_49BB_1331_11EB;

/// Salt of the per-block posterior *repair-rate* draw stream.
const POSTERIOR_REPAIR_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// `2^64` as an `f64` — the Bernoulli threshold scale.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// Words per wide draw block: the wide kernel packs
/// `WIDE_WORDS × 64 = 512` trials per component per step.
pub const WIDE_WORDS: usize = 8;

/// Trials per wide block.
const WIDE_TRIALS: usize = WIDE_WORDS * 64;

/// The SplitMix64 output finalizer (Steele et al., "Fast splittable
/// pseudorandom number generators").
#[inline(always)]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Bernoulli threshold of an up-probability: a component is up in a
/// lane iff its draw is `< threshold`. The boundaries are exact: `p ≤ 0`
/// maps to 0 (no draw can be below it) and `p ≥ 1` to the
/// always-up sentinel `u64::MAX` (handled without drawing).
#[inline]
pub(crate) fn threshold_for(p: f64) -> u64 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        u64::MAX
    } else {
        (p * TWO_POW_64) as u64
    }
}

/// Derives a decorrelated seed from a base seed and a stream index (one
/// golden-gamma stride per index) — used by campaign pricing to give
/// each perspective its own common-random-number stream.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    base.wrapping_add(index.wrapping_mul(GAMMA))
}

/// One stochastic component of a compiled program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompDraw {
    /// RNG stream offset: `(model_component_index + 1)·γ'`. Keyed by the
    /// *model* index, not the slot, so the draw for a component does not
    /// depend on which other components survived constant folding.
    stream: u64,
    /// The component is up in a lane iff its draw is `< threshold`
    /// (`threshold ≈ p·2⁶⁴`; relative quantization error ≤ 2⁻⁵³). The
    /// sentinel `u64::MAX` means certainly up, `0` certainly down —
    /// both are decided without mixing.
    threshold: u64,
}

impl CompDraw {
    /// The up/down draw for one global trial index.
    #[inline(always)]
    fn up(&self, seed: u64, trial: u64) -> bool {
        if self.threshold == u64::MAX {
            return true;
        }
        let key = seed
            .wrapping_add(trial.wrapping_mul(GAMMA))
            .wrapping_add(self.stream);
        mix(key) < self.threshold
    }

    /// 64 consecutive trials packed one per bit lane (lane `l` holds
    /// trial `base_trial + l`) — the narrow (one-word) packing step.
    #[inline(always)]
    fn pack(&self, seed: u64, base_trial: u64) -> u64 {
        if self.threshold == 0 {
            return 0;
        }
        if self.threshold == u64::MAX {
            return !0;
        }
        let mut key = seed
            .wrapping_add(base_trial.wrapping_mul(GAMMA))
            .wrapping_add(self.stream);
        let mut word = 0u64;
        for lane in 0..64u64 {
            word |= u64::from(mix(key) < self.threshold) << lane;
            key = key.wrapping_add(GAMMA);
        }
        word
    }
}

// ---------------------------------------------------------------------------
// Wide packing kernel: one copy per instruction set, dispatched at runtime.
// ---------------------------------------------------------------------------

/// Packs the draw words of the listed slots for one wide block (trials
/// `base_trial .. base_trial + 512`) into `words` (slot-major,
/// [`WIDE_WORDS`] words per slot). The loop is written so the mix /
/// compare stage is a pure function of the lane index — a constant-stride
/// Weyl counter — which the vectorized instantiations below turn into
/// straight-line SIMD.
#[inline(always)]
fn pack_slots_kernel(
    draws: &[CompDraw],
    slots: &[u32],
    seed: u64,
    base_trial: u64,
    words: &mut [u64],
) {
    for &slot in slots {
        let draw = &draws[slot as usize];
        let out = &mut words[slot as usize * WIDE_WORDS..][..WIDE_WORDS];
        if draw.threshold == 0 {
            out.fill(0);
            continue;
        }
        if draw.threshold == u64::MAX {
            out.fill(!0);
            continue;
        }
        let key0 = seed
            .wrapping_add(base_trial.wrapping_mul(GAMMA))
            .wrapping_add(draw.stream);
        let mut bits = [0u64; 64];
        for (w, word_out) in out.iter_mut().enumerate() {
            let base = key0.wrapping_add(((w * 64) as u64).wrapping_mul(GAMMA));
            for (lane, bit) in bits.iter_mut().enumerate() {
                let key = base.wrapping_add((lane as u64).wrapping_mul(GAMMA));
                *bit = u64::from(mix(key) < draw.threshold);
            }
            let mut word = 0u64;
            for (lane, bit) in bits.iter().enumerate() {
                word |= bit << lane;
            }
            *word_out = word;
        }
    }
}

/// The wide packing entry point: `(draws, slots, seed, base_trial, out)`.
type PackSlotsFn = unsafe fn(&[CompDraw], &[u32], u64, u64, &mut [u64]);

/// Portable instantiation (whatever the build target enables).
///
/// # Safety
/// Unconditionally safe; `unsafe fn` only to share the dispatch type
/// with the feature-gated instantiations.
#[allow(unsafe_code)]
unsafe fn pack_slots_portable(
    draws: &[CompDraw],
    slots: &[u32],
    seed: u64,
    base_trial: u64,
    words: &mut [u64],
) {
    pack_slots_kernel(draws, slots, seed, base_trial, words);
}

/// AVX2 instantiation of the same loop (4 × u64 lanes).
///
/// # Safety
/// Caller must have verified `avx2` support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
unsafe fn pack_slots_avx2(
    draws: &[CompDraw],
    slots: &[u32],
    seed: u64,
    base_trial: u64,
    words: &mut [u64],
) {
    pack_slots_kernel(draws, slots, seed, base_trial, words);
}

/// AVX-512 instantiation (8 × u64 lanes; `avx512dq` supplies the native
/// 64-bit vector multiply the SplitMix64 finalizer leans on).
///
/// # Safety
/// Caller must have verified `avx512f`/`avx512dq` (+`bw`/`vl`) support
/// at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
#[allow(unsafe_code)]
unsafe fn pack_slots_avx512(
    draws: &[CompDraw],
    slots: &[u32],
    seed: u64,
    base_trial: u64,
    words: &mut [u64],
) {
    pack_slots_kernel(draws, slots, seed, base_trial, words);
}

/// Picks the widest packing kernel the host supports, once per process.
/// Every instantiation runs the identical loop over the identical
/// counters, so the pick affects speed only — never a draw bit.
fn pack_slots_dispatch() -> (&'static str, PackSlotsFn) {
    static CHOSEN: std::sync::OnceLock<(&'static str, PackSlotsFn)> = std::sync::OnceLock::new();
    *CHOSEN.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                return ("avx512", pack_slots_avx512 as PackSlotsFn);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return ("avx2", pack_slots_avx2 as PackSlotsFn);
            }
        }
        ("portable", pack_slots_portable as PackSlotsFn)
    })
}

fn pack_slots_fn() -> PackSlotsFn {
    pack_slots_dispatch().1
}

/// The one unsafe expression in the crate, behind a safe face.
#[allow(unsafe_code)]
#[inline(always)]
fn pack_with(
    pack: PackSlotsFn,
    draws: &[CompDraw],
    slots: &[u32],
    seed: u64,
    base_trial: u64,
    words: &mut [u64],
) {
    // SAFETY: every `PackSlotsFn` value originates in
    // `pack_slots_dispatch`, which returns a feature-gated instantiation
    // only after runtime detection of the features it was compiled for;
    // the portable instantiation has no feature requirement at all.
    unsafe { pack(draws, slots, seed, base_trial, words) }
}

/// Human-readable name of the packing kernel the host dispatches to
/// (`"avx512"`, `"avx2"`, or `"portable"`) — recorded by benchmarks.
pub fn wide_kernel_name() -> &'static str {
    pack_slots_dispatch().0
}

/// A compiled bit-sliced Monte-Carlo program: the flat word encoding of
/// one perspective's structure function over its stochastic components.
///
/// Compile once per `(epoch, perspective)` (the server embeds the program
/// in its cache entry), then [`run`](McProgram::run) as often as needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct McProgram {
    /// One entry per drawn component slot.
    draws: Vec<CompDraw>,
    /// Model component index per slot (parallel to `draws`) — the key
    /// [`McProgram::with_thresholds`] rewrites by.
    slot_comp: Vec<u32>,
    /// Flat slot ids; each path is a span of this.
    path_slots: Vec<u32>,
    /// `[start, end)` spans into `path_slots`, one per surviving path.
    paths: Vec<(u32, u32)>,
    /// `[start, end)` spans into `paths`, one per surviving mapping pair.
    pairs: Vec<(u32, u32)>,
    /// Some pair lost every path to constant folding: the service is
    /// certainly down and the estimate is exactly 0.
    dead: bool,
}

/// Reusable per-worker scratch: the packed draw words of the current
/// wide block (slot-major, [`WIDE_WORDS`] words per slot) plus the slot
/// worklist of the common-random-number path. One scratch can serve any
/// number of programs of any shape — every run entry point resizes it —
/// so a campaign worker allocates it once and reuses it across every
/// (scenario, perspective) it prices.
#[derive(Debug, Default, Clone)]
pub struct McScratch {
    words: Vec<u64>,
    /// Slots that must be packed fresh (all of them on the plain path;
    /// only the perturbed ones when running against a draw table).
    fresh: Vec<u32>,
    /// Threshold-overlaid draw vector of the clone-free scenario runs
    /// ([`McProgram::run_thresholds`] /
    /// [`McProgram::run_with_table_thresholds`]).
    draws: Vec<CompDraw>,
}

impl McScratch {
    fn ensure(&mut self, program: &McProgram) {
        self.words.resize(program.draws.len() * WIDE_WORDS, 0);
    }
}

/// Packed draw words for every slot of a program over a fixed
/// `(seed, samples)` grid — the shared baseline stream of a
/// common-random-number campaign. Keys are `(stream, threshold)` pairs:
/// a later program reuses a slot's words iff its key matches, so
/// perturbing a component (threshold rewrite) transparently invalidates
/// exactly that component's cache line.
#[derive(Debug, Clone)]
pub struct DrawTable {
    seed: u64,
    samples: usize,
    /// Words per slot (`wide_blocks × WIDE_WORDS`).
    words_per_slot: usize,
    /// `(stream, threshold)` the slot's words were packed for.
    keys: Vec<(u64, u64)>,
    /// Slot-major packed words.
    words: Vec<u64>,
}

impl DrawTable {
    /// The seed the table was drawn with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The sample count the table covers.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Total `u64` words held (memory footprint / 8 bytes).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }
}

/// Per-slot parameter posteriors of a program — the block-resampling
/// input of [`McProgram::run_posterior`]. Built by
/// [`McProgram::posterior_sampler`] from the per-model-component
/// posterior vector an observation overlay produced
/// ([`crate::params::overlay_model`]); components without a posterior
/// keep their fixed point-estimate threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct PosteriorSampler {
    /// `(slot, model component index, posterior)` triples, slot-sorted.
    slots: Vec<(u32, u32, PosteriorComponent)>,
}

impl PosteriorSampler {
    /// `true` when no slot resamples — the posterior run then degrades
    /// bit-for-bit to the point-estimate run.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of slots drawing from a parameter posterior.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Rewrites the thresholds of the posterior-bearing slots for one
    /// wide block. The two uniforms behind each slot's availability draw
    /// are counter-based — pure functions of `(seed, wide_block,
    /// component)` under distinct salts — so any partition of the block
    /// range resamples identically: worker count and partitioning can
    /// never change a draw bit.
    fn resample(&self, seed: u64, wide_block: u64, draws: &mut [CompDraw]) {
        for &(slot, comp, post) in &self.slots {
            let base = seed
                .wrapping_add(wide_block.wrapping_mul(GAMMA))
                .wrapping_add((comp as u64 + 1).wrapping_mul(STREAM));
            let u_fail = unit_open(mix(base ^ POSTERIOR_FAIL_SALT));
            let u_repair = unit_open(mix(base ^ POSTERIOR_REPAIR_SALT));
            draws[slot as usize].threshold =
                threshold_for(post.sample_availability(u_fail, u_repair));
        }
    }
}

/// Partition-invariant success accumulator of a posterior-resampled run.
///
/// Every field is an integer sum over blocks, so merging per-worker (or
/// per-partition) accumulators in any order reproduces the
/// single-threaded totals exactly — no float summation order to drift.
/// Full 512-trial blocks additionally record per-block success moments,
/// from which [`PosteriorAccum::interval95`] forms the posterior
/// predictive interval: block means vary with both the Bernoulli noise
/// *and* the per-block parameter draws, so their spread is the honest
/// total uncertainty.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PosteriorAccum {
    /// Successes over every evaluated trial.
    successes: u64,
    /// Full (512-trial) blocks evaluated.
    full_blocks: u64,
    /// Σ successes over full blocks.
    block_sum: u64,
    /// Σ successes² over full blocks.
    block_sum_sq: u128,
    /// Successes of the ragged tail block, if any.
    tail_successes: u64,
}

impl PosteriorAccum {
    /// Folds another partition's accumulator in (field-wise integer
    /// sums — order-independent).
    fn merge(&mut self, other: &PosteriorAccum) {
        self.successes += other.successes;
        self.full_blocks += other.full_blocks;
        self.block_sum += other.block_sum;
        self.block_sum_sq += other.block_sum_sq;
        self.tail_successes += other.tail_successes;
    }

    fn record(&mut self, successes: u64, full: bool) {
        self.successes += successes;
        if full {
            self.full_blocks += 1;
            self.block_sum += successes;
            self.block_sum_sq += (successes as u128) * (successes as u128);
        } else {
            self.tail_successes += successes;
        }
    }

    /// The point result over all evaluated trials (same reduction as
    /// [`McProgram::run`]).
    fn result(&self, samples: usize) -> MonteCarloResult {
        result_from(self.successes, samples)
    }

    /// 95% posterior predictive interval on the availability: the
    /// estimate ± 1.96 standard errors of the block means (each full
    /// block is one draw from the posterior predictive distribution).
    /// With fewer than two full blocks there is no between-block spread
    /// to measure, so the Wilson interval of the point result stands in.
    fn interval95(&self, samples: usize) -> (f64, f64) {
        let estimate = self.successes as f64 / samples as f64;
        if self.full_blocks < 2 {
            return self.result(samples).confidence_95();
        }
        let blocks = self.full_blocks as f64;
        let mean = self.block_sum as f64 / blocks;
        // Σx² − B·mean² in f64: block successes are ≤ 512, so the u128
        // sum is far below f64's exact-integer range for any real run.
        let ss = self.block_sum_sq as f64 - blocks * mean * mean;
        let var = (ss / (blocks - 1.0)).max(0.0);
        let se = (var / blocks).sqrt() / WIDE_TRIALS as f64;
        (
            (estimate - 1.96 * se).max(0.0),
            (estimate + 1.96 * se).min(1.0),
        )
    }
}

impl McProgram {
    /// Compiles path-set systems (one entry per mapping pair, each a list
    /// of component-index path sets) against an availability vector.
    pub fn compile<'a>(
        availability: &[f64],
        systems: impl IntoIterator<Item = &'a [Vec<usize>]>,
    ) -> Self {
        let mut slot_of: Vec<u32> = vec![u32::MAX; availability.len()];
        let mut program = McProgram {
            draws: Vec::new(),
            slot_comp: Vec::new(),
            path_slots: Vec::new(),
            paths: Vec::new(),
            pairs: Vec::new(),
            dead: false,
        };
        let mut path_comps: Vec<usize> = Vec::new();
        for sets in systems {
            let pair_lo = program.paths.len();
            let mut certainly_up = false;
            for set in sets {
                // Constant-fold the path: drop perfect components, drop
                // the path if any component can never be up.
                path_comps.clear();
                let mut viable = true;
                for &comp in set {
                    let p = availability[comp];
                    if p <= 0.0 {
                        viable = false;
                        break;
                    }
                    if p < 1.0 && !path_comps.contains(&comp) {
                        path_comps.push(comp);
                    }
                }
                if !viable {
                    continue;
                }
                if path_comps.is_empty() {
                    // A path with no stochastic component always works, so
                    // the whole pair does.
                    certainly_up = true;
                    break;
                }
                let lo = program.path_slots.len() as u32;
                for &comp in &path_comps {
                    let slot = program.intern_slot(&mut slot_of, comp, availability[comp]);
                    program.path_slots.push(slot);
                }
                program.paths.push((lo, program.path_slots.len() as u32));
            }
            if certainly_up {
                program.paths.truncate(pair_lo);
                continue;
            }
            if program.paths.len() == pair_lo {
                program.dead = true;
            }
            program
                .pairs
                .push((pair_lo as u32, program.paths.len() as u32));
        }
        program
    }

    /// Compiles **without constant folding**: every component referenced
    /// by any path keeps a drawn slot (degenerate probabilities become
    /// the 0 / `u64::MAX` sentinels, decided at pack time without
    /// mixing), and every path and pair keeps its span. The program's
    /// shape is therefore a function of the path structure alone — a
    /// perturbed probability vector maps onto the same slots via
    /// [`McProgram::with_thresholds`], which is what lets a
    /// common-random-number sweep share one [`DrawTable`] across its
    /// whole scenario list.
    pub fn compile_unfolded<'a>(
        availability: &[f64],
        systems: impl IntoIterator<Item = &'a [Vec<usize>]>,
    ) -> Self {
        let mut slot_of: Vec<u32> = vec![u32::MAX; availability.len()];
        let mut program = McProgram {
            draws: Vec::new(),
            slot_comp: Vec::new(),
            path_slots: Vec::new(),
            paths: Vec::new(),
            pairs: Vec::new(),
            dead: false,
        };
        let mut path_comps: Vec<usize> = Vec::new();
        for sets in systems {
            let pair_lo = program.paths.len();
            for set in sets {
                path_comps.clear();
                for &comp in set {
                    if !path_comps.contains(&comp) {
                        path_comps.push(comp);
                    }
                }
                let lo = program.path_slots.len() as u32;
                for &comp in &path_comps {
                    let slot = program.intern_slot(&mut slot_of, comp, availability[comp]);
                    program.path_slots.push(slot);
                }
                program.paths.push((lo, program.path_slots.len() as u32));
            }
            program
                .pairs
                .push((pair_lo as u32, program.paths.len() as u32));
        }
        program
    }

    fn intern_slot(&mut self, slot_of: &mut [u32], comp: usize, p: f64) -> u32 {
        if slot_of[comp] == u32::MAX {
            let slot = self.draws.len() as u32;
            slot_of[comp] = slot;
            self.draws.push(CompDraw {
                stream: (comp as u64 + 1).wrapping_mul(STREAM),
                threshold: threshold_for(p),
            });
            self.slot_comp.push(comp as u32);
            slot
        } else {
            slot_of[comp]
        }
    }

    /// A copy of this program with every slot's threshold rewritten from
    /// `probs` (indexed by model component, like the compile input). The
    /// shape — slots, paths, pairs — is untouched, so the copy stays
    /// key-compatible with any [`DrawTable`] drawn from this program:
    /// slots whose probability did not move keep their cache line.
    pub fn with_thresholds(&self, probs: &[f64]) -> McProgram {
        let mut rewritten = self.clone();
        for (slot, &comp) in self.slot_comp.iter().enumerate() {
            rewritten.draws[slot].threshold = threshold_for(probs[comp as usize]);
        }
        rewritten
    }

    /// Number of stochastic components the program draws per trial block.
    pub fn component_count(&self) -> usize {
        self.draws.len()
    }

    /// `u64` words a [`DrawTable`] over `samples` trials would hold —
    /// callers use this to budget table memory before building one.
    pub fn table_words(&self, samples: usize) -> usize {
        self.draws.len() * samples.div_ceil(WIDE_TRIALS) * WIDE_WORDS
    }

    /// A constant estimate, when the structure function folded to one:
    /// `Some(0.0)` when some pair has no working path, `Some(1.0)` when
    /// every pair is certainly up.
    pub fn constant_estimate(&self) -> Option<f64> {
        if self.dead {
            Some(0.0)
        } else if self.pairs.is_empty() {
            Some(1.0)
        } else {
            None
        }
    }

    /// A scratch buffer sized for this program (reused across blocks; the
    /// parallel runner keeps one per worker).
    pub fn scratch(&self) -> McScratch {
        McScratch {
            words: vec![0; self.draws.len() * WIDE_WORDS],
            fresh: Vec::with_capacity(self.draws.len()),
            draws: Vec::new(),
        }
    }

    /// Evaluates one 64-trial block (trials `block·64 .. block·64 + 64`)
    /// over per-word draw storage with stride `stride` and word offset
    /// `w`, returning the service word (bit lane = trial up). Early exits
    /// are exact: draws are pure functions of their coordinates, so
    /// skipping them cannot skew later blocks.
    #[inline]
    fn service_word(&self, words: &[u64], w: usize, stride: usize) -> u64 {
        let mut service = !0u64;
        for &(pair_lo, pair_hi) in &self.pairs {
            let mut pair_up = 0u64;
            for &(lo, hi) in &self.paths[pair_lo as usize..pair_hi as usize] {
                let mut path_up = !0u64;
                for &slot in &self.path_slots[lo as usize..hi as usize] {
                    path_up &= words[slot as usize * stride + w];
                    if path_up == 0 {
                        break;
                    }
                }
                pair_up |= path_up;
                if pair_up == !0u64 {
                    break;
                }
            }
            service &= pair_up;
            if service == 0 {
                break;
            }
        }
        service
    }

    /// Successes among the 64-trial words of one **wide** block (trials
    /// `wide_block·512 .. wide_block·512 + 512`, intersected with
    /// `[0, samples)`), packing all slots through the dispatched kernel.
    fn wide_successes(
        &self,
        seed: u64,
        wide_block: u64,
        samples: usize,
        pack: PackSlotsFn,
        scratch: &mut McScratch,
    ) -> u64 {
        let base_trial = wide_block * WIDE_TRIALS as u64;
        pack_with(
            pack,
            &self.draws,
            &scratch.fresh,
            seed,
            base_trial,
            &mut scratch.words,
        );
        self.masked_successes(&scratch.words, WIDE_WORDS, base_trial, samples)
    }

    /// Popcounts the service words of one wide block's draw storage,
    /// masking lanes at or beyond `samples`.
    #[inline]
    fn masked_successes(
        &self,
        words: &[u64],
        stride: usize,
        base_trial: u64,
        samples: usize,
    ) -> u64 {
        let mut ok = 0u64;
        for w in 0..WIDE_WORDS {
            let word_base = base_trial as usize + w * 64;
            if word_base >= samples {
                break;
            }
            let lanes = samples - word_base;
            let mask = if lanes >= 64 {
                !0u64
            } else {
                (1u64 << lanes) - 1
            };
            ok += u64::from((self.service_word(words, w, stride) & mask).count_ones());
        }
        ok
    }

    /// Bit-sliced parallel Monte-Carlo run: exactly `samples` trials over
    /// 512-trial wide blocks. `workers == 1` (or a single block) runs
    /// inline on the calling thread — no spawn, no join. Larger counts
    /// fan `workers` crossbeam threads (0 = available parallelism) over a
    /// shared work-stealing block cursor, one reusable scratch buffer per
    /// worker, so a straggler never serializes the tail the way static
    /// ranges did. Deterministic: the successes of a block depend only on
    /// `(seed, block)`, and summation over blocks is partition-invariant,
    /// so the estimate is bit-identical for any `workers` value — and
    /// bit-identical to the narrow and scalar twins.
    pub fn run(&self, samples: usize, workers: usize, seed: u64) -> MonteCarloResult {
        assert!(samples > 0, "need at least one sample");
        if let Some(estimate) = self.constant_estimate() {
            return MonteCarloResult {
                estimate,
                std_error: 0.0,
                samples,
            };
        }
        let wide_blocks = wide_block_count(samples);
        let workers = resolve_workers(workers).min(wide_blocks as usize).max(1);
        let cursor = AtomicU64::new(0);
        if workers == 1 {
            let mut scratch = self.scratch();
            let successes = self.run_partial(samples, seed, &cursor, wide_blocks, &mut scratch);
            return result_from(successes, samples);
        }
        let chunk = steal_chunk(wide_blocks, workers);
        let successes: u64 = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut scratch = self.scratch();
                        self.run_partial(samples, seed, &cursor, chunk, &mut scratch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .sum()
        })
        .expect("crossbeam scope");
        result_from(successes, samples)
    }

    /// Work-stealing partial run: claims `chunk`-sized spans of the
    /// `samples`-trial grid's wide blocks from the shared `cursor` until
    /// it is exhausted, returning the successes of the claimed blocks.
    /// Any set of callers sharing one cursor partitions the block range
    /// exactly once, and because summation over blocks is
    /// partition-invariant the summed total is bit-identical to a
    /// single-threaded run.
    fn run_partial(
        &self,
        samples: usize,
        seed: u64,
        cursor: &AtomicU64,
        chunk: u64,
        scratch: &mut McScratch,
    ) -> u64 {
        let chunk = chunk.max(1);
        let wide_blocks = wide_block_count(samples);
        let pack = pack_slots_fn();
        scratch.ensure(self);
        scratch.fresh.clear();
        // No table here: every slot packs fresh.
        scratch.fresh.extend(0..self.draws.len() as u32);
        let mut ok = 0u64;
        loop {
            let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
            if lo >= wide_blocks {
                break;
            }
            let hi = (lo + chunk).min(wide_blocks);
            for wide_block in lo..hi {
                ok += self.wide_successes(seed, wide_block, samples, pack, scratch);
            }
        }
        ok
    }

    /// Binds per-model-component posteriors (as produced by
    /// [`crate::params::overlay_model`], indexed like the compile input)
    /// to this program's slots. Components that folded away, or whose
    /// entry is `None`, do not resample. Callers that must pin a
    /// component to its point estimate (e.g. a campaign perturbation
    /// overriding an observation) blank its entry before calling.
    pub fn posterior_sampler(&self, posteriors: &[Option<PosteriorComponent>]) -> PosteriorSampler {
        let mut slots = Vec::new();
        for (slot, &comp) in self.slot_comp.iter().enumerate() {
            if let Some(post) = posteriors.get(comp as usize).copied().flatten() {
                slots.push((slot as u32, comp, post));
            }
        }
        PosteriorSampler { slots }
    }

    /// The posterior-resampling twin of
    /// [`run_partial`](McProgram::run_partial): before packing each wide
    /// block, the `sampler`'s slots redraw their availability from the
    /// parameter posterior (counter-based on `(seed, block, component)`),
    /// so the 512 trials of a block share one parameter draw and blocks
    /// are independent draws from the posterior predictive distribution.
    /// Block successes fold into the returned accumulator instead of a
    /// bare sum so the caller can form the predictive interval; partition
    /// invariance holds exactly as for `run_partial` (merge the
    /// accumulators in any order). With an empty sampler every threshold
    /// stays at its point estimate and the evaluated bits are identical
    /// to `run_partial`.
    fn run_posterior_partial(
        &self,
        samples: usize,
        seed: u64,
        cursor: &AtomicU64,
        chunk: u64,
        scratch: &mut McScratch,
        sampler: &PosteriorSampler,
    ) -> PosteriorAccum {
        let mut accum = PosteriorAccum::default();
        let chunk = chunk.max(1);
        let wide_blocks = wide_block_count(samples);
        let pack = pack_slots_fn();
        scratch.ensure(self);
        scratch.fresh.clear();
        scratch.fresh.extend(0..self.draws.len() as u32);
        let mut draws = std::mem::take(&mut scratch.draws);
        draws.clear();
        draws.extend_from_slice(&self.draws);
        loop {
            let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
            if lo >= wide_blocks {
                break;
            }
            let hi = (lo + chunk).min(wide_blocks);
            for wide_block in lo..hi {
                sampler.resample(seed, wide_block, &mut draws);
                let base_trial = wide_block * WIDE_TRIALS as u64;
                pack_with(
                    pack,
                    &draws,
                    &scratch.fresh,
                    seed,
                    base_trial,
                    &mut scratch.words,
                );
                let ok = self.masked_successes(&scratch.words, WIDE_WORDS, base_trial, samples);
                let full = base_trial as usize + WIDE_TRIALS <= samples;
                accum.record(ok, full);
            }
        }
        scratch.draws = draws;
        accum
    }

    /// Posterior-resampled parallel run: like [`run`](McProgram::run),
    /// but each wide block draws its component availabilities from the
    /// parameter posteriors in `sampler`, and the returned interval is
    /// the 95% posterior *predictive* interval — parameter uncertainty
    /// and sampling noise combined — rather than the Bernoulli-only
    /// Wilson interval. Bit-identical for any `workers` value, and with
    /// an empty sampler the estimate is bit-identical to `run`.
    pub fn run_posterior(
        &self,
        samples: usize,
        workers: usize,
        seed: u64,
        sampler: &PosteriorSampler,
    ) -> (MonteCarloResult, (f64, f64)) {
        assert!(samples > 0, "need at least one sample");
        if let Some(estimate) = self.constant_estimate() {
            let result = MonteCarloResult {
                estimate,
                std_error: 0.0,
                samples,
            };
            return (result, (estimate, estimate));
        }
        let wide_blocks = wide_block_count(samples);
        let workers = resolve_workers(workers).min(wide_blocks as usize).max(1);
        let cursor = AtomicU64::new(0);
        let accum = if workers == 1 {
            let mut scratch = self.scratch();
            self.run_posterior_partial(samples, seed, &cursor, wide_blocks, &mut scratch, sampler)
        } else {
            let chunk = steal_chunk(wide_blocks, workers);
            let partials: Vec<PosteriorAccum> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|_| {
                            let mut scratch = self.scratch();
                            self.run_posterior_partial(
                                samples,
                                seed,
                                &cursor,
                                chunk,
                                &mut scratch,
                                sampler,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
            .expect("crossbeam scope");
            let mut accum = PosteriorAccum::default();
            for part in &partials {
                accum.merge(part);
            }
            accum
        };
        (accum.result(samples), accum.interval95(samples))
    }

    /// The campaign twin of [`McProgram::run_posterior`]: prices a perturbed
    /// probability vector (scratch-held threshold overlay, exactly like
    /// [`run_thresholds`](McProgram::run_thresholds)) while the
    /// `sampler`'s slots resample per block *on top of* the overlay.
    /// The sampler must not cover perturbed components — a perturbation
    /// overrides an observation — which the caller enforces by blanking
    /// those entries before [`posterior_sampler`](McProgram::posterior_sampler).
    /// Single-threaded (campaign workers parallelize across scenarios).
    pub fn run_posterior_thresholds(
        &self,
        probs: &[f64],
        samples: usize,
        seed: u64,
        sampler: &PosteriorSampler,
        scratch: &mut McScratch,
    ) -> (MonteCarloResult, (f64, f64)) {
        assert!(samples > 0, "need at least one sample");
        if let Some(estimate) = self.constant_estimate() {
            let result = MonteCarloResult {
                estimate,
                std_error: 0.0,
                samples,
            };
            return (result, (estimate, estimate));
        }
        let mut draws = std::mem::take(&mut scratch.draws);
        self.overlay_thresholds(probs, &mut draws);
        let pack = pack_slots_fn();
        scratch.ensure(self);
        scratch.fresh.clear();
        scratch.fresh.extend(0..draws.len() as u32);
        let wide_blocks = samples.div_ceil(WIDE_TRIALS);
        let mut accum = PosteriorAccum::default();
        for wide_block in 0..wide_blocks {
            sampler.resample(seed, wide_block as u64, &mut draws);
            let base_trial = (wide_block * WIDE_TRIALS) as u64;
            pack_with(
                pack,
                &draws,
                &scratch.fresh,
                seed,
                base_trial,
                &mut scratch.words,
            );
            let ok = self.masked_successes(&scratch.words, WIDE_WORDS, base_trial, samples);
            accum.record(ok, base_trial as usize + WIDE_TRIALS <= samples);
        }
        scratch.draws = draws;
        (accum.result(samples), accum.interval95(samples))
    }

    /// Packs every slot's draw words for the whole `(seed, samples)`
    /// grid once. The resulting table backs
    /// [`run_with_table`](McProgram::run_with_table) — re-evaluating
    /// this program (or a [`with_thresholds`](McProgram::with_thresholds)
    /// rewrite of it) against the table skips the mix work of every slot
    /// whose key still matches.
    pub fn draw_table(&self, samples: usize, seed: u64) -> DrawTable {
        assert!(samples > 0, "need at least one sample");
        let pack = pack_slots_fn();
        let wide_blocks = samples.div_ceil(WIDE_TRIALS);
        let words_per_slot = wide_blocks * WIDE_WORDS;
        let mut table = DrawTable {
            seed,
            samples,
            words_per_slot,
            keys: self.draws.iter().map(|d| (d.stream, d.threshold)).collect(),
            words: vec![0; self.draws.len() * words_per_slot],
        };
        let mut scratch = self.scratch();
        scratch.fresh.clear();
        scratch.fresh.extend(0..self.draws.len() as u32);
        for wide_block in 0..wide_blocks {
            let base_trial = (wide_block * WIDE_TRIALS) as u64;
            pack_with(
                pack,
                &self.draws,
                &scratch.fresh,
                seed,
                base_trial,
                &mut scratch.words,
            );
            for slot in 0..self.draws.len() {
                let src = &scratch.words[slot * WIDE_WORDS..][..WIDE_WORDS];
                let dst_lo = slot * words_per_slot + wide_block * WIDE_WORDS;
                table.words[dst_lo..dst_lo + WIDE_WORDS].copy_from_slice(src);
            }
        }
        table
    }

    /// Single-threaded run against a shared [`DrawTable`]: slots whose
    /// `(stream, threshold)` key matches the table reuse its packed
    /// words; everything else (the perturbed components of a scenario)
    /// is packed fresh. Returns the result plus the number of `u64`
    /// draw words served from the table. **The table is a cache, not a
    /// semantic input**: the result is bit-identical to
    /// `self.run(table.samples(), 1, table.seed())`.
    ///
    /// The program must be shape-compatible with the table (same slot
    /// list — i.e. this program or a `with_thresholds` rewrite of the
    /// one that built it).
    pub fn run_with_table(
        &self,
        table: &DrawTable,
        scratch: &mut McScratch,
    ) -> (MonteCarloResult, u64) {
        let McScratch { words, fresh, .. } = scratch;
        self.table_run(&self.draws, table, words, fresh)
    }

    /// The clone-free twin of
    /// `self.with_thresholds(probs).run_with_table(table, scratch)`: the
    /// threshold overlay is written into a scratch-held draw vector
    /// instead of a cloned program, so an N-scenario
    /// common-random-number sweep allocates nothing per scenario once
    /// its worker's scratch is warm. Bit-identical to the
    /// clone-then-run form, including the reused-word count.
    pub fn run_with_table_thresholds(
        &self,
        table: &DrawTable,
        probs: &[f64],
        scratch: &mut McScratch,
    ) -> (MonteCarloResult, u64) {
        let mut draws = std::mem::take(&mut scratch.draws);
        self.overlay_thresholds(probs, &mut draws);
        let McScratch { words, fresh, .. } = scratch;
        let out = self.table_run(&draws, table, words, fresh);
        scratch.draws = draws;
        out
    }

    /// The clone-free twin of
    /// `self.with_thresholds(probs).run(samples, 1, seed)` — the
    /// no-table fallback of campaign pricing. Single-threaded (campaign
    /// workers parallelize across scenarios), reusing `scratch` for the
    /// overlaid draw vector and the packed words. Bit-identical to the
    /// clone-then-run form.
    pub fn run_thresholds(
        &self,
        probs: &[f64],
        samples: usize,
        seed: u64,
        scratch: &mut McScratch,
    ) -> MonteCarloResult {
        assert!(samples > 0, "need at least one sample");
        if let Some(estimate) = self.constant_estimate() {
            return MonteCarloResult {
                estimate,
                std_error: 0.0,
                samples,
            };
        }
        let mut draws = std::mem::take(&mut scratch.draws);
        self.overlay_thresholds(probs, &mut draws);
        let pack = pack_slots_fn();
        scratch.ensure(self);
        scratch.fresh.clear();
        scratch.fresh.extend(0..draws.len() as u32);
        let wide_blocks = samples.div_ceil(WIDE_TRIALS);
        let mut successes = 0u64;
        for wide_block in 0..wide_blocks {
            let base_trial = (wide_block * WIDE_TRIALS) as u64;
            pack_with(
                pack,
                &draws,
                &scratch.fresh,
                seed,
                base_trial,
                &mut scratch.words,
            );
            successes += self.masked_successes(&scratch.words, WIDE_WORDS, base_trial, samples);
        }
        scratch.draws = draws;
        result_from(successes, samples)
    }

    /// Fills `draws` with this program's slots, thresholds rewritten
    /// from `probs` (indexed by model component) — the allocation-free
    /// core of [`with_thresholds`](McProgram::with_thresholds).
    fn overlay_thresholds(&self, probs: &[f64], draws: &mut Vec<CompDraw>) {
        draws.clear();
        draws.extend_from_slice(&self.draws);
        for (slot, &comp) in self.slot_comp.iter().enumerate() {
            draws[slot].threshold = threshold_for(probs[comp as usize]);
        }
    }

    /// Shared core of the draw-table runs: evaluates this program's
    /// structure function over `draws` (either `self.draws` or a
    /// threshold overlay of them) against the table.
    fn table_run(
        &self,
        draws: &[CompDraw],
        table: &DrawTable,
        words: &mut Vec<u64>,
        fresh: &mut Vec<u32>,
    ) -> (MonteCarloResult, u64) {
        assert_eq!(
            draws.len(),
            table.keys.len(),
            "draw table shape mismatch: {} slots vs {}",
            draws.len(),
            table.keys.len()
        );
        let samples = table.samples;
        if let Some(estimate) = self.constant_estimate() {
            return (
                MonteCarloResult {
                    estimate,
                    std_error: 0.0,
                    samples,
                },
                0,
            );
        }
        let pack = pack_slots_fn();
        words.resize(draws.len() * WIDE_WORDS, 0);
        fresh.clear();
        let mut cached_slots = 0u64;
        for (slot, draw) in draws.iter().enumerate() {
            if table.keys[slot] == (draw.stream, draw.threshold) {
                cached_slots += 1;
            } else {
                fresh.push(slot as u32);
            }
        }
        let wide_blocks = samples.div_ceil(WIDE_TRIALS);
        let mut successes = 0u64;
        for wide_block in 0..wide_blocks {
            let base_trial = (wide_block * WIDE_TRIALS) as u64;
            for (slot, draw) in draws.iter().enumerate() {
                if table.keys[slot] == (draw.stream, draw.threshold) {
                    let src_lo = slot * table.words_per_slot + wide_block * WIDE_WORDS;
                    words[slot * WIDE_WORDS..][..WIDE_WORDS]
                        .copy_from_slice(&table.words[src_lo..src_lo + WIDE_WORDS]);
                }
            }
            pack_with(pack, draws, fresh, seed_of(table), base_trial, words);
            successes += self.masked_successes(words, WIDE_WORDS, base_trial, samples);
        }
        let reused_words = cached_slots * wide_blocks as u64 * WIDE_WORDS as u64;
        (result_from(successes, samples), reused_words)
    }

    /// The one-word-at-a-time twin of [`run`](McProgram::run): the
    /// pre-wide-kernel executor, kept as a differential-testing reference
    /// — identical draws, identical structure function, 64 trials per
    /// step. The two must agree bit-for-bit.
    pub fn run_narrow(&self, samples: usize, workers: usize, seed: u64) -> MonteCarloResult {
        assert!(samples > 0, "need at least one sample");
        if let Some(estimate) = self.constant_estimate() {
            return MonteCarloResult {
                estimate,
                std_error: 0.0,
                samples,
            };
        }
        let blocks = samples.div_ceil(64) as u64;
        let workers = resolve_workers(workers).min(blocks as usize).max(1);
        let narrow_span = |words: &mut Vec<u64>, lo: u64, hi: u64| {
            let mut ok = 0u64;
            for block in lo..hi {
                let base_trial = block * 64;
                for (slot, draw) in self.draws.iter().enumerate() {
                    words[slot] = draw.pack(seed, base_trial);
                }
                let lanes = samples - block as usize * 64;
                let mask = if lanes >= 64 {
                    !0u64
                } else {
                    (1u64 << lanes) - 1
                };
                ok += u64::from((self.service_word(words, 0, 1) & mask).count_ones());
            }
            ok
        };
        let successes: u64 = if workers == 1 {
            let mut words = vec![0u64; self.draws.len()];
            narrow_span(&mut words, 0, blocks)
        } else {
            let cursor = AtomicU64::new(0);
            let chunk = steal_chunk(blocks, workers);
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|_| {
                            let mut words = vec![0u64; self.draws.len()];
                            let mut ok = 0u64;
                            loop {
                                let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                                if lo >= blocks {
                                    break;
                                }
                                ok += narrow_span(&mut words, lo, (lo + chunk).min(blocks));
                            }
                            ok
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .sum()
            })
            .expect("crossbeam scope")
        };
        result_from(successes, samples)
    }

    /// The trial-at-a-time twin of [`run`](McProgram::run): identical
    /// draws (same counter-based coordinates), identical structure
    /// function, one trial per iteration. Exists to differential-test the
    /// bit-sliced executors — all must agree bit-for-bit.
    pub fn run_scalar(&self, samples: usize, seed: u64) -> MonteCarloResult {
        assert!(samples > 0, "need at least one sample");
        if let Some(estimate) = self.constant_estimate() {
            return MonteCarloResult {
                estimate,
                std_error: 0.0,
                samples,
            };
        }
        let mut successes = 0u64;
        for trial in 0..samples as u64 {
            let service_up = self.pairs.iter().all(|&(pair_lo, pair_hi)| {
                self.paths[pair_lo as usize..pair_hi as usize]
                    .iter()
                    .any(|&(lo, hi)| {
                        self.path_slots[lo as usize..hi as usize]
                            .iter()
                            .all(|&slot| self.draws[slot as usize].up(seed, trial))
                    })
            });
            successes += u64::from(service_up);
        }
        result_from(successes, samples)
    }
}

/// Number of 512-trial wide blocks a `samples`-trial run covers — the
/// unit of [`McProgram::run_partial`] work-stealing.
fn wide_block_count(samples: usize) -> u64 {
    samples.div_ceil(WIDE_TRIALS) as u64
}

/// Steal-chunk size for fanning `blocks` wide blocks over `workers`:
/// roughly eight claims per worker so stragglers rebalance, clamped to
/// `[1, 64]` so neither the claim rate nor the per-claim latency
/// degenerates. Chunking only changes which worker sums which blocks —
/// never the total — so any chunk size preserves bit-exactness.
fn steal_chunk(blocks: u64, workers: usize) -> u64 {
    (blocks / (workers.max(1) as u64 * 8)).clamp(1, 64)
}

/// `0` means "use every core the host offers".
fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// Borrow-friendly accessor (keeps `table_run`'s call shape tidy).
fn seed_of(table: &DrawTable) -> u64 {
    table.seed
}

fn result_from(successes: u64, samples: usize) -> MonteCarloResult {
    let estimate = successes as f64 / samples as f64;
    MonteCarloResult {
        estimate,
        std_error: (estimate * (1.0 - estimate) / samples as f64).sqrt(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdp::union_probability;

    fn compile(p: &[f64], systems: &[Vec<Vec<usize>>]) -> McProgram {
        McProgram::compile(p, systems.iter().map(Vec::as_slice))
    }

    fn compile_unfolded(p: &[f64], systems: &[Vec<Vec<usize>>]) -> McProgram {
        McProgram::compile_unfolded(p, systems.iter().map(Vec::as_slice))
    }

    #[test]
    fn estimate_is_bit_identical_for_any_worker_count() {
        let p = [0.9, 0.8, 0.7, 0.95];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let program = compile(&p, &systems);
        // 10_001 is deliberately not a multiple of 512 (tail block).
        let reference = program.run(10_001, 1, 42);
        for workers in [2, 3, 5, 8, 64] {
            assert_eq!(program.run(10_001, workers, 42), reference);
        }
    }

    #[test]
    fn wide_equals_narrow_and_scalar_twins_exactly() {
        let p = [0.9, 0.8, 0.7];
        let systems = vec![vec![vec![0, 1], vec![0, 2]]];
        let program = compile(&p, &systems);
        for samples in [1, 63, 64, 65, 511, 512, 513, 1000, 4099] {
            for seed in [0, 7, 2013] {
                let wide = program.run(samples, 3, seed);
                assert_eq!(
                    wide,
                    program.run_narrow(samples, 2, seed),
                    "narrow twin diverged at samples={samples} seed={seed}"
                );
                assert_eq!(
                    wide,
                    program.run_scalar(samples, seed),
                    "scalar twin diverged at samples={samples} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn converges_to_exact_union_probability() {
        let p = [0.9, 0.8, 0.7];
        let sets = vec![vec![0, 1], vec![0, 2]];
        let exact = union_probability(&sets, &p);
        let mc = compile(&p, &[sets]).run(200_000, 4, 7);
        assert!(
            mc.covers(exact),
            "CI {:?} misses {exact}",
            mc.confidence_95()
        );
        assert!((mc.estimate - exact).abs() < 0.01);
    }

    #[test]
    fn shared_components_across_pairs_are_not_independent() {
        // Same cross-check as the scalar sampler: two pairs sharing
        // component 0 conjunct to p0·p1·p2, not (p0·p1)(p0·p2).
        let p = [0.6, 0.9, 0.9];
        let systems = vec![vec![vec![0, 1]], vec![vec![0, 2]]];
        let exact = 0.6 * 0.9 * 0.9;
        let naive = (0.6 * 0.9) * (0.6 * 0.9);
        let mc = compile(&p, &systems).run(400_000, 4, 13);
        assert!(
            mc.covers(exact),
            "CI {:?} misses {exact}",
            mc.confidence_95()
        );
        assert!(!mc.covers(naive), "must reject the naive product {naive}");
    }

    #[test]
    fn degenerate_structures_fold_to_constants() {
        let p = [0.5, 1.0, 0.0];
        // No pairs at all: certainly up.
        assert_eq!(compile(&p, &[]).constant_estimate(), Some(1.0));
        // One pair with no paths: certainly down.
        assert_eq!(compile(&p, &[vec![]]).constant_estimate(), Some(0.0));
        // A trivial (empty) path: the pair is certainly up.
        assert_eq!(compile(&p, &[vec![vec![]]]).constant_estimate(), Some(1.0));
        // A path of only perfect components folds to a trivial path.
        assert_eq!(
            compile(&p, &[vec![vec![1, 1]]]).constant_estimate(),
            Some(1.0)
        );
        // Every path blocked by a never-up component: certainly down.
        assert_eq!(
            compile(&p, &[vec![vec![0, 2], vec![2]]]).constant_estimate(),
            Some(0.0)
        );
        // The constants run without sampling and with zero error.
        let dead = compile(&p, &[vec![]]).run(1000, 2, 1);
        assert_eq!(
            (dead.estimate, dead.std_error, dead.samples),
            (0.0, 0.0, 1000)
        );
        let up = compile(&p, &[]).run_scalar(1000, 1);
        assert_eq!(up.estimate, 1.0);
    }

    #[test]
    fn unfolded_compile_prices_degenerates_identically() {
        // The unfolded program keeps degenerate components as 0 / MAX
        // sentinel slots; the estimates must match the folded constants.
        let p = [0.5, 1.0, 0.0];
        let folded = compile(&p, &[vec![vec![0, 1], vec![2]]]);
        let unfolded = compile_unfolded(&p, &[vec![vec![0, 1], vec![2]]]);
        assert_eq!(unfolded.component_count(), 3, "no slot folded away");
        for seed in [1, 9] {
            assert_eq!(
                folded.run(4096, 2, seed).estimate,
                unfolded.run(4096, 2, seed).estimate
            );
            assert_eq!(
                unfolded.run(4096, 3, seed),
                unfolded.run_scalar(4096, seed),
                "unfolded wide/scalar twins must agree"
            );
        }
        // A dead path (p=0 member) contributes nothing either way.
        let dead = compile_unfolded(&p, &[vec![vec![2]]]);
        assert_eq!(dead.run(512, 1, 3).estimate, 0.0);
    }

    #[test]
    fn with_thresholds_rewrites_only_probabilities() {
        let p = [0.9, 0.8, 0.7];
        let systems = vec![vec![vec![0, 1], vec![0, 2]]];
        let base = compile_unfolded(&p, &systems);
        // Kill component 1, degrade component 2.
        let perturbed = base.with_thresholds(&[0.9, 0.0, 0.35]);
        let direct = compile_unfolded(&[0.9, 0.0, 0.35], &systems);
        for seed in [2, 2013] {
            assert_eq!(perturbed.run(8192, 2, seed), direct.run(8192, 2, seed));
        }
        // The base program is untouched.
        assert_eq!(base, compile_unfolded(&p, &systems));
    }

    #[test]
    fn draw_table_is_a_pure_cache() {
        let p = [0.9, 0.8, 0.7, 0.6];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let base = compile_unfolded(&p, &systems);
        // 5000 samples straddles several wide blocks with a ragged tail.
        let table = base.draw_table(5000, 77);
        assert_eq!(table.word_count(), base.table_words(5000));
        let mut scratch = base.scratch();

        // Unperturbed: everything reused, result identical to `run`.
        let (same, reused) = base.run_with_table(&table, &mut scratch);
        assert_eq!(same, base.run(5000, 1, 77));
        assert_eq!(reused, base.table_words(5000) as u64);

        // Perturbed: only untouched slots reused, result identical to a
        // fresh run of the rewritten program under the same seed.
        let rewritten = base.with_thresholds(&[0.9, 0.0, 0.35, 0.6]);
        let (perturbed, reused) = rewritten.run_with_table(&table, &mut scratch);
        assert_eq!(perturbed, rewritten.run(5000, 1, 77));
        // Slots 0 and 3 kept their thresholds: half the table reused.
        assert_eq!(reused, (base.table_words(5000) / 2) as u64);
    }

    #[test]
    fn threshold_overlay_runs_match_the_cloned_program() {
        let p = [0.9, 0.8, 0.7, 0.6];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let base = compile_unfolded(&p, &systems);
        let probs = [0.9, 0.0, 0.35, 0.6];
        let rewritten = base.with_thresholds(&probs);
        let mut scratch = base.scratch();

        // No-table path: same bits as clone-then-run, scratch reusable.
        for (samples, seed) in [(5000, 77), (512, 3), (8191, 2013)] {
            assert_eq!(
                base.run_thresholds(&probs, samples, seed, &mut scratch),
                rewritten.run(samples, 1, seed),
                "run_thresholds diverged at samples={samples} seed={seed}"
            );
        }

        // Table path: same bits AND the same reused-word count.
        let table = base.draw_table(5000, 77);
        let mut clone_scratch = base.scratch();
        let expected = rewritten.run_with_table(&table, &mut clone_scratch);
        assert_eq!(
            base.run_with_table_thresholds(&table, &probs, &mut scratch),
            expected
        );
        // An identity overlay reuses the whole table.
        let (same, reused) = base.run_with_table_thresholds(&table, &p, &mut scratch);
        assert_eq!(same, base.run(5000, 1, 77));
        assert_eq!(reused, base.table_words(5000) as u64);
        // The base program is untouched by any of it.
        assert_eq!(base, compile_unfolded(&p, &systems));
    }

    #[test]
    fn work_stealing_handles_adversarial_splits() {
        let p = [0.9, 0.8, 0.7];
        let systems = vec![vec![vec![0, 1], vec![0, 2]]];
        let program = compile(&p, &systems);
        // workers > blocks (600 samples = 2 wide blocks), workers == 1,
        // and ragged tails must all agree with the twins.
        for (samples, workers) in [(600, 8), (600, 1), (513, 64), (4099, 7)] {
            let wide = program.run(samples, workers, 11);
            assert_eq!(
                wide,
                program.run_narrow(samples, workers, 11),
                "narrow diverged at samples={samples} workers={workers}"
            );
            assert_eq!(
                wide,
                program.run_scalar(samples, 11),
                "scalar diverged at samples={samples} workers={workers}"
            );
        }
    }

    #[test]
    fn run_partial_fan_out_sums_to_run() {
        let p = [0.9, 0.8, 0.7, 0.95];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let program = compile(&p, &systems);
        let samples = 10_001;
        let reference = program.run(samples, 1, 42);
        // A pool fan-out: concurrent claimants drain one shared cursor
        // with different chunk sizes; the summed successes must reduce to
        // the exact single-threaded result.
        for (chunk, claimants) in [(1, 4), (3, 2), (64, 5)] {
            let cursor = AtomicU64::new(0);
            let total: u64 = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..claimants)
                    .map(|_| {
                        scope.spawn(|_| {
                            let mut scratch = program.scratch();
                            program.run_partial(samples, 42, &cursor, chunk, &mut scratch)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).sum()
            })
            .expect("crossbeam scope");
            assert_eq!(result_from(total, samples), reference);
        }
    }

    #[test]
    fn perfect_components_give_certainty() {
        let p = [1.0, 1.0];
        let mc = compile(&p, &[vec![vec![0, 1]]]).run(5_000, 2, 9);
        assert_eq!(mc.estimate, 1.0);
        assert_eq!(mc.std_error, 0.0);
        // Unfolded: the MAX-threshold sentinel draws certainly-up words.
        let mc = compile_unfolded(&p, &[vec![vec![0, 1]]]).run(5_000, 2, 9);
        assert_eq!(mc.estimate, 1.0);
    }

    #[test]
    fn exact_sample_count_is_preserved() {
        let p = [0.9];
        let mc = compile(&p, &[vec![vec![0]]]).run(1001, 4, 3);
        assert_eq!(mc.samples, 1001);
        // The tail mask must hide lanes ≥ samples: a fully-up component
        // must hit exactly `samples` successes, not a padded multiple.
        let all = compile(&[1.0 - 1e-18], &[vec![vec![0]]]).run(77, 3, 5);
        assert_eq!(all.samples, 77);
    }

    #[test]
    fn mixing_constants_into_stochastic_paths_matches_exact() {
        // p1 = 1 drops out of the path, p3 = 0 kills the second path.
        let p = [0.7, 1.0, 0.9, 0.0];
        let systems = vec![vec![vec![0, 1], vec![2, 3]]];
        let program = compile(&p, &systems);
        assert_eq!(program.component_count(), 1, "only component 0 is drawn");
        let mc = program.run(200_000, 2, 13);
        assert!(mc.covers(0.7), "CI {:?} misses 0.7", mc.confidence_95());
    }

    #[test]
    fn posterior_run_with_empty_sampler_degrades_to_point_run() {
        let p = [0.9, 0.8, 0.7, 0.95];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let program = compile(&p, &systems);
        let sampler = program.posterior_sampler(&[None, None, None, None]);
        assert!(sampler.is_empty());
        for (samples, seed) in [(513, 7), (10_001, 42)] {
            let point = program.run(samples, 2, seed);
            let (posterior, _) = program.run_posterior(samples, 2, seed, &sampler);
            assert_eq!(posterior, point, "empty sampler must not change a bit");
        }
    }

    fn diffuse_sampler(program: &McProgram, comps: usize) -> PosteriorSampler {
        use crate::params::GammaPosterior;
        // Loose posteriors (n = 4 pseudo-sojourns) around MTBF 3000h /
        // MTTR 24h: availability draws visibly spread around ~0.992.
        let post = PosteriorComponent {
            fail: GammaPosterior {
                alpha: 5.0,
                beta: 5.0 * 3000.0,
            },
            repair: GammaPosterior {
                alpha: 5.0,
                beta: 5.0 * 24.0,
            },
            redundant: 0,
        };
        program.posterior_sampler(&vec![Some(post); comps])
    }

    #[test]
    fn posterior_estimates_are_worker_and_partition_invariant() {
        let p = [0.992, 0.992, 0.992, 0.992];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let program = compile(&p, &systems);
        let sampler = diffuse_sampler(&program, 4);
        let samples = 10_001;
        let reference = program.run_posterior(samples, 1, 42, &sampler);
        for workers in [2, 4, 8] {
            assert_eq!(
                program.run_posterior(samples, workers, 42, &sampler),
                reference,
                "posterior run diverged at workers={workers}"
            );
        }
        // Pool-style partitions: arbitrary chunk sizes and claimant
        // counts must merge to the exact same accumulator.
        for (chunk, claimants) in [(1, 4), (3, 2), (64, 5)] {
            let cursor = AtomicU64::new(0);
            let partials: Vec<PosteriorAccum> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..claimants)
                    .map(|_| {
                        scope.spawn(|_| {
                            let mut scratch = program.scratch();
                            program.run_posterior_partial(
                                samples,
                                42,
                                &cursor,
                                chunk,
                                &mut scratch,
                                &sampler,
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
            .expect("crossbeam scope");
            let mut merged = PosteriorAccum::default();
            for part in &partials {
                merged.merge(part);
            }
            assert_eq!(
                (merged.result(samples), merged.interval95(samples)),
                reference,
                "partition chunk={chunk} claimants={claimants} diverged"
            );
        }
    }

    #[test]
    fn posterior_interval_is_wider_than_the_bernoulli_interval() {
        let p = [0.992, 0.992];
        let systems = vec![vec![vec![0], vec![1]]];
        let program = compile(&p, &systems);
        let sampler = diffuse_sampler(&program, 2);
        let samples = 400_000;
        let point = program.run(samples, 2, 7);
        let (posterior, interval) = program.run_posterior(samples, 2, 7, &sampler);
        let wilson = point.confidence_95();
        assert!(
            interval.1 - interval.0 > wilson.1 - wilson.0,
            "parameter uncertainty must widen the interval: {interval:?} vs {wilson:?}"
        );
        // The posterior-mean availability stays near the point estimate.
        assert!((posterior.estimate - point.estimate).abs() < 0.005);
        assert!(interval.0 < posterior.estimate && posterior.estimate < interval.1);
    }

    #[test]
    fn posterior_thresholds_pins_perturbed_components() {
        use crate::params::GammaPosterior;
        let p = [0.992, 0.992, 0.992];
        let systems = vec![vec![vec![0, 1], vec![0, 2]]];
        let program = compile_unfolded(&p, &systems);
        let post = PosteriorComponent {
            fail: GammaPosterior {
                alpha: 5.0,
                beta: 5.0 * 3000.0,
            },
            repair: GammaPosterior {
                alpha: 5.0,
                beta: 5.0 * 24.0,
            },
            redundant: 0,
        };
        let mut scratch = program.scratch();
        // Kill component 1: the perturbation overrides its observation,
        // so the caller blanks its posterior before building the
        // sampler; the priced scenario must fall below the unperturbed
        // posterior estimate.
        let probs = [0.992, 0.0, 0.992];
        let sampler = program.posterior_sampler(&[Some(post), None, Some(post)]);
        let (perturbed, interval) =
            program.run_posterior_thresholds(&probs, 50_000, 11, &sampler, &mut scratch);
        let full = program.posterior_sampler(&[Some(post); 3]);
        let (baseline, _) = program.run_posterior(50_000, 1, 11, &full);
        assert!(perturbed.estimate < baseline.estimate);
        assert!(interval.0 <= perturbed.estimate && perturbed.estimate <= interval.1);
        // With an empty sampler the threshold run matches run_thresholds
        // bit for bit.
        let empty = program.posterior_sampler(&[None, None, None]);
        let (plain, _) = program.run_posterior_thresholds(&probs, 50_000, 11, &empty, &mut scratch);
        assert_eq!(
            plain,
            program.run_thresholds(&probs, 50_000, 11, &mut scratch)
        );
    }

    #[test]
    fn derive_seed_strides_by_golden_gamma() {
        assert_eq!(derive_seed(10, 0), 10);
        assert_ne!(derive_seed(10, 1), derive_seed(10, 2));
        assert_eq!(derive_seed(10, 1), 10u64.wrapping_add(GAMMA));
    }

    #[test]
    fn kernel_name_is_reported() {
        assert!(["avx512", "avx2", "portable"].contains(&wide_kernel_name()));
    }
}
