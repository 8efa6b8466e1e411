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
//! `(seed, samples)` regardless of worker count**, and
//! [`montecarlo::estimate`](crate::montecarlo::estimate) over the same
//! path sets — the reference sampler the tests compare against —
//! reproduces [`McProgram::run`] exactly.
//!
//! # Wide-lane execution
//!
//! The kernel generates draws in **wide blocks of [`WIDE_WORDS`] words =
//! 512 trials**: because the draw counters advance by a constant Weyl
//! stride, the whole mix/compare/pack loop is a pure function of `lane`,
//! and the packing kernel is compiled three times — an AVX-512 version
//! (native 64-bit vector multiply via `avx512dq`), an AVX2 version, and a
//! portable scalar version — with the best one picked once per process by
//! runtime CPU feature detection. All three run the *same* Rust loop over
//! the same coordinates, so the choice never changes a single draw bit.
//!
//! # One block loop
//!
//! Every run is a [`RunSpec`] — an optional per-component probability
//! overlay plus one [`Sampling`] mode (point, table-served or
//! posterior-resampled) — executed by one private block loop that claims
//! spans of wide blocks from a shared cursor. Three entry points reach
//! it: [`McProgram::run`] (point sampling) and [`McProgram::run_posterior`]
//! (posterior resampling) fan it over scoped threads, and
//! [`McProgram::execute`] runs any spec single-threaded on a caller-held
//! [`McScratch`] — the campaign path, which parallelizes across scenarios
//! instead. A caller with threads of its own (the server's worker pool)
//! drives the same loop through [`McProgram::share`] and
//! [`McProgram::claim`].
//!
//! # Draw-word reuse (common random numbers)
//!
//! [`McProgram::draw_table`] packs every slot's words for a whole
//! `(seed, samples)` grid once; a [`Sampling::Table`] run then re-packs
//! only slots whose `(stream, threshold)` key differs from the table's.
//! Combined with [`McProgram::compile_unfolded`] and a [`RunSpec::probs`]
//! overlay (which keep program shape fixed while thresholds move) this
//! is the common-random-number engine behind campaign pricing: an
//! N-scenario sweep draws the baseline stream once and each scenario
//! re-packs only the components its perturbation touched. The table is a
//! pure cache — a table run is bit-identical to a point run over the
//! table's `(seed, samples)` with the same overlay — and the overlay is
//! written into the scratch's draw vector, so per-scenario setup cost is
//! O(slots copied), not O(program allocated).
//!
//! # Parallel execution
//!
//! One claim/merge protocol runs every parallel run. [`McProgram::share`]
//! builds a run's [`BlockShare`] — a [`ClaimCursor`] over its blocks,
//! merged accumulator and the count of blocks not yet folded in — and every
//! claimant calls [`McProgram::claim`] on it with a scratch of its own:
//! it takes the cursor's blocks in small claims, so a straggler
//! rebalances instead of serializing the tail, through a function that
//! may stop it before any claim, then folds its blocks into the shared
//! accumulator.
//! The claimant that folds in the last block gets the outcome; every
//! other one gets `None`, and a claimant that starts after the cursor ran
//! out does nothing. No claimant waits for another, so a run completes as
//! long as one claimant never stops. [`McProgram::run`] and
//! [`McProgram::run_posterior`] claim on the calling thread plus scoped
//! threads (inline when one worker or one claim suffices); the server's
//! `MC` verb claims through its claim run's one stop rule, on the worker
//! that took the request plus helper jobs on pool workers that had no job
//! to run. Successes
//! (and the block moments behind the posterior interval) are integer
//! sums over blocks, so every partition of the blocks gives a
//! bit-identical result.
//!
//! Compilation constant-folds degenerate availabilities: a component with
//! `p ≥ 1` is dropped from its paths (AND identity), a path containing a
//! component with `p ≤ 0` is dropped from its pair, a pair left with an
//! empty path is certainly up and dropped from the service, and a pair
//! left with *no* path pins the whole estimate to 0. Only genuinely
//! stochastic components are drawn.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
    /// The [`DrawTable`] key: a slot's packed words are a function of
    /// this pair and the trial grid alone.
    fn key(&self) -> (u64, u64) {
        (self.stream, self.threshold)
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
fn pack_slots_fn() -> PackSlotsFn {
    static CHOSEN: std::sync::OnceLock<PackSlotsFn> = std::sync::OnceLock::new();
    *CHOSEN.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                return pack_slots_avx512 as PackSlotsFn;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return pack_slots_avx2 as PackSlotsFn;
            }
        }
        pack_slots_portable as PackSlotsFn
    })
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
    // SAFETY: every `PackSlotsFn` value originates in `pack_slots_fn`,
    // which returns a feature-gated instantiation only after runtime
    // detection of the features it was compiled for; the portable
    // instantiation has no feature requirement at all.
    unsafe { pack(draws, slots, seed, base_trial, words) }
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
    /// Model component index per slot (parallel to `draws`) — the key a
    /// [`RunSpec::probs`] overlay and a [`PosteriorSampler`] bind by.
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

/// Reusable per-worker scratch: the run's draw vector (compiled
/// thresholds with the probability overlay and any posterior resample
/// applied), the packed draw words of the current wide block (slot-major,
/// [`WIDE_WORDS`] words per slot) and the worklist of slots packed fresh.
/// The block loop sizes it for whichever program runs, so one
/// `McScratch::default()` serves any number of programs of any shape — a
/// campaign worker allocates it once and reuses it across every
/// (scenario, perspective) it prices.
#[derive(Debug, Default, Clone)]
pub struct McScratch {
    draws: Vec<CompDraw>,
    words: Vec<u64>,
    /// Slots packed fresh each block: all of them, except those a
    /// [`Sampling::Table`] run serves from its table.
    fresh: Vec<u32>,
}

/// Packed draw words for every slot of a program over a fixed
/// `(seed, samples)` grid — the shared baseline stream of a
/// common-random-number campaign. Keys are `(stream, threshold)` pairs:
/// a later run reuses a slot's words iff its key matches, so
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

    /// Copies wide block `block`'s words of every slot whose key matches
    /// the table into `words` (slot-major, [`WIDE_WORDS`] per slot).
    fn copy_block(&self, block: u64, draws: &[CompDraw], words: &mut [u64]) {
        for (slot, draw) in draws.iter().enumerate() {
            if self.keys[slot] == draw.key() {
                let src = slot * self.words_per_slot + block as usize * WIDE_WORDS;
                words[slot * WIDE_WORDS..][..WIDE_WORDS]
                    .copy_from_slice(&self.words[src..src + WIDE_WORDS]);
            }
        }
    }
}

/// Per-slot parameter posteriors of a program — the block-resampling
/// input of a [`Sampling::Posterior`] run. Built by
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

/// How a run draws its trials.
#[derive(Debug, Clone, Copy)]
pub enum Sampling<'a> {
    /// Fixed thresholds over the `(seed, samples)` grid; every slot is
    /// packed fresh.
    Point {
        /// Trials to run.
        samples: usize,
        /// Base seed of the counter-based draws.
        seed: u64,
    },
    /// The table's `(seed, samples)` grid: slots whose
    /// `(stream, threshold)` key matches the table copy its packed words,
    /// the rest are packed fresh. The table is a cache, not a semantic
    /// input — the outcome equals a `Point` run over the table's grid,
    /// plus the count of words served. The program must be
    /// shape-compatible with the table (the program that drew it).
    Table(&'a DrawTable),
    /// Each wide block redraws the sampler's slots' thresholds from their
    /// parameter posteriors before packing, so the 512 trials of a block
    /// share one parameter draw. Never combined with a table: the
    /// thresholds move between blocks, which packed words cannot follow.
    Posterior {
        /// Trials to run.
        samples: usize,
        /// Base seed of the trial draws and the per-block parameter
        /// draws.
        seed: u64,
        /// The posterior-bearing slots.
        sampler: &'a PosteriorSampler,
    },
}

impl Sampling<'_> {
    /// The `(samples, seed)` grid the run covers.
    fn grid(&self) -> (usize, u64) {
        match *self {
            Sampling::Point { samples, seed } | Sampling::Posterior { samples, seed, .. } => {
                (samples, seed)
            }
            Sampling::Table(table) => (table.samples, table.seed),
        }
    }
}

/// One Monte-Carlo run of a compiled program.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// Per-model-component up-probabilities (indexed like the compile
    /// input) replacing every slot's compiled threshold for this run;
    /// `None` runs the compiled thresholds. The program's shape is
    /// untouched, so an overlaid run of an unfolded program stays
    /// key-compatible with its [`DrawTable`]: slots whose probability did
    /// not move keep their cache line.
    pub probs: Option<&'a [f64]>,
    /// How the trials are drawn.
    pub sampling: Sampling<'a>,
}

/// What a run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// The point result over every trial.
    pub result: MonteCarloResult,
    /// [`Sampling::Posterior`] runs only: the 95% confidence interval for
    /// the posterior-mean availability (see [`McProgram::run_posterior`]).
    pub interval: Option<(f64, f64)>,
    /// `u64` draw words served from a [`Sampling::Table`] instead of being
    /// re-packed (0 for the other modes).
    pub reused_words: u64,
}

/// Partition-invariant block accumulator of a run.
///
/// Every field is an integer sum over blocks, so merging per-worker (or
/// per-partition) accumulators in any order reproduces the
/// single-threaded totals exactly — no float summation order to drift.
/// Full 512-trial blocks additionally record per-block success moments,
/// from which [`BlockAccum::interval95`] forms the posterior interval.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct BlockAccum {
    /// Wide blocks evaluated (full or ragged).
    blocks: u64,
    /// Successes over every evaluated trial.
    successes: u64,
    /// Full (512-trial) blocks evaluated.
    full_blocks: u64,
    /// Σ successes over full blocks.
    block_sum: u64,
    /// Σ successes² over full blocks.
    block_sum_sq: u128,
    /// Draw words copied from a table instead of packed.
    reused_words: u64,
}

impl BlockAccum {
    /// Folds another partition's accumulator in (field-wise integer
    /// sums — order-independent).
    fn merge(&mut self, other: &BlockAccum) {
        self.blocks += other.blocks;
        self.successes += other.successes;
        self.full_blocks += other.full_blocks;
        self.block_sum += other.block_sum;
        self.block_sum_sq += other.block_sum_sq;
        self.reused_words += other.reused_words;
    }

    fn record(&mut self, successes: u64, full: bool) {
        self.blocks += 1;
        self.successes += successes;
        if full {
            self.full_blocks += 1;
            self.block_sum += successes;
            self.block_sum_sq += (successes as u128) * (successes as u128);
        }
    }

    /// The point result over all evaluated trials.
    fn result(&self, samples: usize) -> MonteCarloResult {
        result_from(self.successes, samples)
    }

    /// 95% confidence interval for the posterior-mean availability
    /// `E[A(θ)]`: the estimate ± 1.96 standard errors of the full blocks'
    /// means. Each full block evaluates one posterior parameter draw, so
    /// the block means scatter with both the parameter draws and the
    /// Bernoulli noise, and the interval narrows as `1/√blocks` — it is
    /// not a predictive interval for `A(θ)` itself. With fewer than two
    /// full blocks there is no between-block spread to measure, so the
    /// Wilson interval of the point result stands in.
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

/// A claim cursor over the items `0..len` that several claimants drain
/// concurrently, each claim a range of at most `chunk` items: an `MC`
/// run's wide blocks, or one by one a server claim run's items, each a
/// whole evaluation. It only partitions the items — claimants' results
/// meet elsewhere — so it is accessed `Relaxed`.
#[derive(Debug)]
pub struct ClaimCursor {
    next: AtomicUsize,
    len: usize,
    chunk: usize,
}

impl ClaimCursor {
    /// A cursor over `len` items that hands out one item per claim.
    pub fn new(len: usize) -> ClaimCursor {
        ClaimCursor::with_chunk(len, 1)
    }

    fn with_chunk(len: usize, chunk: usize) -> ClaimCursor {
        ClaimCursor {
            next: AtomicUsize::new(0),
            len,
            chunk,
        }
    }

    /// The next unclaimed range, or `None` once every item is claimed.
    pub fn claim(&self) -> Option<Range<usize>> {
        let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        (lo < self.len).then(|| lo..(lo + self.chunk).min(self.len))
    }

    /// How many claims the cursor hands out — more claimants than this
    /// find it exhausted and do nothing.
    pub fn claims(&self) -> usize {
        self.len.div_ceil(self.chunk)
    }
}

/// The shared state of one run whose wide blocks several claimants
/// drain: the block cursor, the merged accumulator and the count of
/// blocks not yet folded into it. Built by [`McProgram::share`]; each
/// claimant passes it to [`McProgram::claim`] with the same [`RunSpec`].
#[derive(Debug)]
pub struct BlockShare {
    /// The run's wide blocks (1 for a constant program: its one claim
    /// samples nothing).
    cursor: ClaimCursor,
    /// The blocks folded in so far, and how many are still out.
    folded: Mutex<(BlockAccum, u64)>,
}

impl BlockShare {
    fn new(blocks: u64, chunk: u64) -> BlockShare {
        BlockShare {
            cursor: ClaimCursor::with_chunk(blocks as usize, chunk as usize),
            folded: Mutex::new((BlockAccum::default(), blocks)),
        }
    }

    /// How many claims the run hands out — more claimants than this find
    /// the cursor exhausted and do nothing.
    pub fn claims(&self) -> usize {
        self.cursor.claims()
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
    /// perturbed probability vector maps onto the same slots via a
    /// [`RunSpec::probs`] overlay, which is what lets a
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

    /// Evaluates one 64-trial word (word `w` of the current wide block's
    /// slot-major draw storage), returning the service word (bit lane =
    /// trial up). Early exits are exact: draws are pure functions of their
    /// coordinates, so skipping them cannot skew later blocks.
    #[inline]
    fn service_word(&self, words: &[u64], w: usize) -> u64 {
        let mut service = !0u64;
        for &(pair_lo, pair_hi) in &self.pairs {
            let mut pair_up = 0u64;
            for &(lo, hi) in &self.paths[pair_lo as usize..pair_hi as usize] {
                let mut path_up = !0u64;
                for &slot in &self.path_slots[lo as usize..hi as usize] {
                    path_up &= words[slot as usize * WIDE_WORDS + w];
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

    /// Popcounts the service words of one wide block's draw storage,
    /// masking lanes at or beyond `samples`.
    #[inline]
    fn masked_successes(&self, words: &[u64], base_trial: u64, samples: usize) -> u64 {
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
            ok += u64::from((self.service_word(words, w) & mask).count_ones());
        }
        ok
    }

    /// Bit-sliced parallel Monte-Carlo run: exactly `samples` trials over
    /// 512-trial wide blocks. `workers == 1` (or a single claim) runs
    /// inline on the calling thread — no spawn, no join. Larger counts
    /// claim blocks on the calling thread plus `workers − 1` crossbeam
    /// threads (0 = available parallelism) over one [`BlockShare`].
    /// Deterministic: the successes of
    /// a block depend only on `(seed, block)`, and summation over blocks
    /// is partition-invariant, so the estimate is bit-identical for any
    /// `workers` value — and bit-identical to
    /// [`montecarlo::estimate`](crate::montecarlo::estimate) over the
    /// same path sets.
    pub fn run(&self, samples: usize, workers: usize, seed: u64) -> MonteCarloResult {
        let spec = RunSpec {
            probs: None,
            sampling: Sampling::Point { samples, seed },
        };
        self.fan_out(&spec, workers, &mut McScratch::default())
            .result
    }

    /// Posterior-resampled parallel run: like [`run`](McProgram::run),
    /// but each wide block draws its component availabilities from the
    /// parameter posteriors in `sampler`. The returned interval is the
    /// 95% confidence interval for the posterior-mean availability
    /// `E[A(θ)]` — the estimate ± 1.96 standard errors of the 512-trial
    /// block means, so parameter uncertainty and sampling noise both
    /// widen it, while it narrows as `1/√blocks`; it is not a predictive
    /// interval for `A(θ)`. Bit-identical for any `workers` value, and
    /// with an empty sampler the estimate is bit-identical to `run`.
    pub fn run_posterior(
        &self,
        samples: usize,
        workers: usize,
        seed: u64,
        sampler: &PosteriorSampler,
    ) -> (MonteCarloResult, (f64, f64)) {
        let spec = RunSpec {
            probs: None,
            sampling: Sampling::Posterior {
                samples,
                seed,
                sampler,
            },
        };
        let outcome = self.fan_out(&spec, workers, &mut McScratch::default());
        let interval = outcome.interval.expect("posterior runs carry an interval");
        (outcome.result, interval)
    }

    /// Runs `spec` single-threaded on the caller's `scratch` — the
    /// campaign entry point: a campaign worker prices its (scenario,
    /// perspective) pairs one after another, parallelizing across them,
    /// and reuses one scratch for all of them. The outcome is
    /// bit-identical to the same spec fanned over any number of workers.
    pub fn execute(&self, spec: &RunSpec, scratch: &mut McScratch) -> RunOutcome {
        self.fan_out(spec, 1, scratch)
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

    /// Packs every slot's draw words for the whole `(seed, samples)`
    /// grid once. The resulting table backs [`Sampling::Table`] runs of
    /// this program, which skip the mix work of every slot whose key
    /// (under the run's probability overlay) still matches.
    pub fn draw_table(&self, samples: usize, seed: u64) -> DrawTable {
        assert!(samples > 0, "need at least one sample");
        let pack = pack_slots_fn();
        let blocks = samples.div_ceil(WIDE_TRIALS);
        let words_per_slot = blocks * WIDE_WORDS;
        let mut table = DrawTable {
            seed,
            samples,
            words_per_slot,
            keys: self.draws.iter().map(CompDraw::key).collect(),
            words: vec![0; self.draws.len() * words_per_slot],
        };
        let slots: Vec<u32> = (0..self.draws.len() as u32).collect();
        let mut words = vec![0; self.draws.len() * WIDE_WORDS];
        for block in 0..blocks {
            let base_trial = (block * WIDE_TRIALS) as u64;
            pack_with(pack, &self.draws, &slots, seed, base_trial, &mut words);
            for slot in 0..self.draws.len() {
                let dst = slot * words_per_slot + block * WIDE_WORDS;
                table.words[dst..dst + WIDE_WORDS]
                    .copy_from_slice(&words[slot * WIDE_WORDS..][..WIDE_WORDS]);
            }
        }
        table
    }

    /// Builds the shared state of one run of `spec` that up to
    /// `claimants` callers will drain through [`claim`](McProgram::claim),
    /// with the steal chunk sized for that many.
    pub fn share(&self, spec: &RunSpec, claimants: usize) -> BlockShare {
        let (samples, _) = spec.sampling.grid();
        assert!(samples > 0, "need at least one sample");
        if let Sampling::Table(table) = spec.sampling {
            assert_eq!(
                self.draws.len(),
                table.keys.len(),
                "draw table shape mismatch: {} slots vs {}",
                self.draws.len(),
                table.keys.len()
            );
        }
        if self.constant_estimate().is_some() {
            return BlockShare::new(1, 1);
        }
        let blocks = wide_block_count(samples);
        BlockShare::new(blocks, steal_chunk(blocks, claimants))
    }

    /// Claims blocks of `spec` from `share` (built by
    /// [`share`](McProgram::share) for the same spec) with `next`, which
    /// takes a range from the share's cursor or stops the claimant with
    /// `None` ([`ClaimCursor::claim`] claims until the cursor runs out);
    /// then folds them into the shared accumulator. Returns the run's
    /// outcome to exactly one caller — the one that folds in the last
    /// block — and `None` to every other, including a caller that found
    /// the cursor exhausted. Never waits for another claimant, so a caller
    /// whose helpers never start (or stop early) simply claims the
    /// remaining blocks itself; at least one claimant must keep claiming
    /// until the cursor runs out. The outcome is bit-identical however the
    /// blocks were split.
    pub fn claim(
        &self,
        spec: &RunSpec,
        share: &BlockShare,
        scratch: &mut McScratch,
        mut next: impl FnMut(&ClaimCursor) -> Option<Range<usize>>,
    ) -> Option<RunOutcome> {
        let (samples, _) = spec.sampling.grid();
        let posterior = matches!(spec.sampling, Sampling::Posterior { .. });
        if let Some(estimate) = self.constant_estimate() {
            let first = next(&share.cursor).is_some();
            return first.then_some(RunOutcome {
                result: MonteCarloResult {
                    estimate,
                    std_error: 0.0,
                    samples,
                },
                interval: posterior.then_some((estimate, estimate)),
                reused_words: 0,
            });
        }
        let part = self.block_loop(spec, share, scratch, &mut next);
        if part.blocks == 0 {
            return None;
        }
        let mut folded = share.folded.lock().expect("block share poisoned");
        let (accum, pending) = &mut *folded;
        accum.merge(&part);
        *pending -= part.blocks;
        (*pending == 0).then(|| RunOutcome {
            result: accum.result(samples),
            interval: posterior.then(|| accum.interval95(samples)),
            reused_words: accum.reused_words,
        })
    }

    /// Runs `spec` to completion: claims inline on `scratch` when one
    /// worker (or one claim) suffices, otherwise on the calling thread
    /// plus `workers − 1` scoped threads (0 = available parallelism), each
    /// helper with its own scratch.
    fn fan_out(&self, spec: &RunSpec, workers: usize, scratch: &mut McScratch) -> RunOutcome {
        let workers = resolve_workers(workers);
        let share = self.share(spec, workers);
        let helpers = workers.min(share.claims()) - 1;
        let outcome = if helpers == 0 {
            self.claim(spec, &share, scratch, ClaimCursor::claim)
        } else {
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..helpers)
                    .map(|_| {
                        scope.spawn(|_| {
                            self.claim(spec, &share, &mut McScratch::default(), ClaimCursor::claim)
                        })
                    })
                    .collect();
                let mine = self.claim(spec, &share, scratch, ClaimCursor::claim);
                handles.into_iter().fold(mine, |outcome, handle| {
                    outcome.or(handle.join().expect("worker panicked"))
                })
            })
            .expect("crossbeam scope")
        };
        outcome.expect("the claimant that folds in the last block holds the outcome")
    }

    /// The one block loop: writes the probability overlay into the
    /// scratch's draw vector, then claims steal-chunk-sized spans of the
    /// run's wide blocks from the share's cursor with `next` until it
    /// returns `None`. For each block it
    ///
    /// 1. resamples the posterior slots' thresholds, in posterior mode;
    /// 2. copies every slot whose `(stream, threshold)` key matches the
    ///    table, in table mode;
    /// 3. packs the remaining slots;
    /// 4. folds the block's successes into the returned accumulator.
    ///
    /// A block's contribution depends only on `(spec, block)`, so any set
    /// of callers sharing one cursor partitions the block range exactly
    /// once, and their merged accumulators equal a single-threaded run's.
    /// A caller that finds the cursor exhausted returns an accumulator of
    /// zero blocks.
    fn block_loop(
        &self,
        spec: &RunSpec,
        share: &BlockShare,
        scratch: &mut McScratch,
        next: &mut impl FnMut(&ClaimCursor) -> Option<Range<usize>>,
    ) -> BlockAccum {
        let (samples, seed) = spec.sampling.grid();
        let pack = pack_slots_fn();
        let McScratch {
            draws,
            words,
            fresh,
        } = scratch;
        draws.clear();
        draws.extend_from_slice(&self.draws);
        if let Some(probs) = spec.probs {
            for (draw, &comp) in draws.iter_mut().zip(&self.slot_comp) {
                draw.threshold = threshold_for(probs[comp as usize]);
            }
        }
        words.resize(draws.len() * WIDE_WORDS, 0);
        fresh.clear();
        match spec.sampling {
            Sampling::Table(table) => fresh.extend(
                (0..draws.len())
                    .filter(|&slot| table.keys[slot] != draws[slot].key())
                    .map(|slot| slot as u32),
            ),
            _ => fresh.extend(0..draws.len() as u32),
        }
        let reused_per_block = ((draws.len() - fresh.len()) * WIDE_WORDS) as u64;
        let mut accum = BlockAccum::default();
        while let Some(claimed) = next(&share.cursor) {
            for block in claimed.map(|block| block as u64) {
                match spec.sampling {
                    Sampling::Posterior { sampler, .. } => sampler.resample(seed, block, draws),
                    Sampling::Table(table) => table.copy_block(block, draws, words),
                    Sampling::Point { .. } => {}
                }
                let base_trial = block * WIDE_TRIALS as u64;
                pack_with(pack, draws, fresh, seed, base_trial, words);
                let ok = self.masked_successes(words, base_trial, samples);
                accum.record(ok, base_trial as usize + WIDE_TRIALS <= samples);
                accum.reused_words += reused_per_block;
            }
        }
        accum
    }
}

/// Number of 512-trial wide blocks a `samples`-trial run covers — the
/// unit of the block loop's work-stealing.
fn wide_block_count(samples: usize) -> u64 {
    samples.div_ceil(WIDE_TRIALS) as u64
}

/// Steal-chunk size for fanning an `MC` run's `blocks` wide blocks over
/// `workers` claimants: roughly eight claims per worker so stragglers
/// rebalance, clamped to `[1, 64]` so neither the claim rate nor the
/// per-claim latency degenerates. Chunking only changes which worker sums
/// which blocks — never the total — so any chunk size preserves
/// bit-exactness.
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
    use crate::bdd::Bdd;
    use crate::montecarlo::estimate;

    fn compile(p: &[f64], systems: &[Vec<Vec<usize>>]) -> McProgram {
        McProgram::compile(p, systems.iter().map(Vec::as_slice))
    }

    fn compile_unfolded(p: &[f64], systems: &[Vec<Vec<usize>>]) -> McProgram {
        McProgram::compile_unfolded(p, systems.iter().map(Vec::as_slice))
    }

    /// A single-threaded run of `program` on a fresh scratch.
    fn execute(program: &McProgram, probs: Option<&[f64]>, sampling: Sampling) -> RunOutcome {
        program.execute(&RunSpec { probs, sampling }, &mut McScratch::default())
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
        // The reference is the trial-at-a-time sampler over the raw path
        // sets: same draws, same structure function, one trial at a time.
        let p = [0.9, 0.8, 0.7];
        let systems = vec![vec![vec![0, 1], vec![0, 2]]];
        let program = compile(&p, &systems);
        for samples in [1, 63, 64, 65, 511, 512, 513, 1000, 4099] {
            for seed in [0, 7, 2013] {
                assert_eq!(
                    program.run(samples, 3, seed),
                    estimate(&p, &systems, samples, 2, seed),
                    "reference sampler diverged at samples={samples} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn converges_to_exact_union_probability() {
        let p = [0.9, 0.8, 0.7];
        let sets = vec![vec![0, 1], vec![0, 2]];
        let mut bdd = Bdd::new();
        let union = bdd.from_path_sets(&sets);
        let exact = bdd.probability(union, &p);
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
        let up = compile(&p, &[]).run(1000, 1, 1);
        assert_eq!(up, estimate(&p, &[], 1000, 1, 1));
        assert_eq!(up.estimate, 1.0);
    }

    #[test]
    fn unfolded_compile_prices_degenerates_identically() {
        // The unfolded program keeps degenerate components as 0 / MAX
        // sentinel slots; the estimates must match the folded constants.
        let p = [0.5, 1.0, 0.0];
        let systems = vec![vec![vec![0, 1], vec![2]]];
        let folded = compile(&p, &systems);
        let unfolded = compile_unfolded(&p, &systems);
        assert_eq!(unfolded.component_count(), 3, "no slot folded away");
        for seed in [1, 9] {
            assert_eq!(
                folded.run(4096, 2, seed).estimate,
                unfolded.run(4096, 2, seed).estimate
            );
            assert_eq!(
                unfolded.run(4096, 3, seed),
                estimate(&p, &systems, 4096, 1, seed),
                "unfolded kernel and reference sampler must agree"
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
        let probs = [0.9, 0.0, 0.35];
        let direct = compile_unfolded(&probs, &systems);
        for seed in [2, 2013] {
            let samples = 8192;
            let overlaid = execute(&base, Some(&probs), Sampling::Point { samples, seed });
            assert_eq!(overlaid.result, direct.run(samples, 2, seed));
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

        // Unperturbed: everything reused, result identical to `run`.
        let same = execute(&base, None, Sampling::Table(&table));
        assert_eq!(same.result, base.run(5000, 1, 77));
        assert_eq!(same.reused_words, base.table_words(5000) as u64);

        // Perturbed: only untouched slots reused, result identical to a
        // fresh run of the overlaid program under the same seed.
        let probs = [0.9, 0.0, 0.35, 0.6];
        let perturbed = execute(&base, Some(&probs), Sampling::Table(&table));
        let fresh = Sampling::Point {
            samples: 5000,
            seed: 77,
        };
        assert_eq!(perturbed.result, execute(&base, Some(&probs), fresh).result);
        // Slots 0 and 3 kept their thresholds: half the table reused.
        assert_eq!(perturbed.reused_words, (base.table_words(5000) / 2) as u64);
    }

    #[test]
    fn threshold_overlay_runs_match_the_cloned_program() {
        let p = [0.9, 0.8, 0.7, 0.6];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let base = compile_unfolded(&p, &systems);
        let probs = [0.9, 0.0, 0.35, 0.6];
        // The same structure compiled straight from the perturbed vector.
        let rewritten = compile_unfolded(&probs, &systems);
        let mut scratch = McScratch::default();

        // No-table path: same bits as the rewritten program, scratch
        // reusable across runs.
        for (samples, seed) in [(5000, 77), (512, 3), (8191, 2013)] {
            let spec = RunSpec {
                probs: Some(&probs),
                sampling: Sampling::Point { samples, seed },
            };
            assert_eq!(
                base.execute(&spec, &mut scratch).result,
                rewritten.run(samples, 1, seed),
                "overlay run diverged at samples={samples} seed={seed}"
            );
        }

        // Table path: same bits AND the same reused-word count.
        let table = base.draw_table(5000, 77);
        let expected = execute(&rewritten, None, Sampling::Table(&table));
        let spec = RunSpec {
            probs: Some(&probs),
            sampling: Sampling::Table(&table),
        };
        assert_eq!(base.execute(&spec, &mut scratch), expected);
        // An identity overlay reuses the whole table.
        let spec = RunSpec {
            probs: Some(&p),
            sampling: Sampling::Table(&table),
        };
        let same = base.execute(&spec, &mut scratch);
        assert_eq!(same.result, base.run(5000, 1, 77));
        assert_eq!(same.reused_words, base.table_words(5000) as u64);
        // The base program is untouched by any of it.
        assert_eq!(base, compile_unfolded(&p, &systems));
    }

    #[test]
    fn work_stealing_handles_adversarial_splits() {
        let p = [0.9, 0.8, 0.7];
        let systems = vec![vec![vec![0, 1], vec![0, 2]]];
        let program = compile(&p, &systems);
        // workers > blocks (600 samples = 2 wide blocks), workers == 1,
        // and ragged tails must all agree with the reference sampler.
        for (samples, workers) in [(600, 8), (600, 1), (513, 64), (4099, 7)] {
            assert_eq!(
                program.run(samples, workers, 11),
                estimate(&p, &systems, samples, workers, 11),
                "reference sampler diverged at samples={samples} workers={workers}"
            );
        }
    }

    /// Drains one run with `claimants` concurrent claimants taking
    /// `chunk` blocks at a time — a pool fan-out — and returns the
    /// outcome, which exactly one of them must hold.
    fn drain_shared_cursor(
        program: &McProgram,
        spec: &RunSpec,
        chunk: u64,
        claimants: usize,
    ) -> RunOutcome {
        let (samples, _) = spec.sampling.grid();
        let share = BlockShare::new(wide_block_count(samples), chunk);
        let outcomes: Vec<RunOutcome> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..claimants)
                .map(|_| {
                    scope.spawn(|_| {
                        program.claim(spec, &share, &mut McScratch::default(), ClaimCursor::claim)
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|handle| handle.join().unwrap())
                .collect()
        })
        .expect("crossbeam scope");
        assert_eq!(outcomes.len(), 1, "exactly one claimant holds the outcome");
        outcomes[0]
    }

    #[test]
    fn run_partial_fan_out_sums_to_run() {
        let p = [0.9, 0.8, 0.7, 0.95];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let program = compile(&p, &systems);
        let samples = 10_001;
        let reference = program.run(samples, 1, 42);
        let spec = RunSpec {
            probs: None,
            sampling: Sampling::Point { samples, seed: 42 },
        };
        // Concurrent claimants drain one shared cursor with different
        // chunk sizes; the summed successes must reduce to the exact
        // single-threaded result.
        for (chunk, claimants) in [(1, 4), (3, 2), (64, 5)] {
            let outcome = drain_shared_cursor(&program, &spec, chunk, claimants);
            assert_eq!(outcome.result, reference);
        }
    }

    #[test]
    fn late_claimants_do_nothing_and_the_outcome_is_handed_out_once() {
        let p = [0.9, 0.8, 0.7, 0.95];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let program = compile(&p, &systems);
        let mut scratch = McScratch::default();
        for samples in [1, 511, 513, 10_001, 200_000] {
            let spec = RunSpec {
                probs: None,
                sampling: Sampling::Point { samples, seed: 5 },
            };
            let share = program.share(&spec, 2);
            let blocks = wide_block_count(samples) as usize;
            assert_eq!(
                share.claims(),
                blocks.div_ceil(steal_chunk(blocks as u64, 2) as usize)
            );
            // One claimant drains every block; one that starts after the
            // cursor ran out gets nothing, not a second copy.
            let outcome = program.claim(&spec, &share, &mut scratch, ClaimCursor::claim);
            assert_eq!(outcome.map(|o| o.result), Some(program.run(samples, 1, 5)));
            assert_eq!(
                program.claim(&spec, &share, &mut scratch, ClaimCursor::claim),
                None
            );
        }
        // A constant program is one claim that samples nothing.
        let dead = compile(&p, &[vec![]]);
        let spec = RunSpec {
            probs: None,
            sampling: Sampling::Point {
                samples: 100_000,
                seed: 5,
            },
        };
        let share = dead.share(&spec, 8);
        assert_eq!(share.claims(), 1);
        assert_eq!(dead.claim(&spec, &share, &mut scratch, |_| None), None);
        let outcome = dead
            .claim(&spec, &share, &mut scratch, ClaimCursor::claim)
            .expect("first claim");
        assert_eq!(outcome.result, dead.run(100_000, 4, 5));
        assert_eq!(
            dead.claim(&spec, &share, &mut scratch, ClaimCursor::claim),
            None
        );
    }

    #[test]
    fn a_claimant_that_stops_early_leaves_its_rest_to_the_others() {
        let p = [0.9, 0.8, 0.7, 0.95];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let program = compile(&p, &systems);
        let sampler = program.posterior_sampler(&[None, None, Some(diffuse_posterior()), None]);
        let mut scratch = McScratch::default();
        for samples in [10_001, 200_000] {
            for posterior in [false, true] {
                let sampling = if posterior {
                    Sampling::Posterior {
                        samples,
                        seed: 5,
                        sampler: &sampler,
                    }
                } else {
                    Sampling::Point { samples, seed: 5 }
                };
                let spec = RunSpec {
                    probs: None,
                    sampling,
                };
                let share = program.share(&spec, 2);
                assert!(share.claims() > 3, "{samples} trials make several claims");
                // A claimant told to stop before its first claim takes
                // nothing.
                assert_eq!(program.claim(&spec, &share, &mut scratch, |_| None), None);
                // One that stops after three claims folds them in but
                // cannot finish the run; the claimant that keeps going does.
                let mut left = 3;
                let early = program.claim(&spec, &share, &mut scratch, |cursor| {
                    left -= 1;
                    (left >= 0).then(|| cursor.claim()).flatten()
                });
                assert_eq!(early, None);
                let outcome = program.claim(&spec, &share, &mut scratch, ClaimCursor::claim);
                assert_eq!(
                    outcome,
                    Some(program.execute(&spec, &mut McScratch::default()))
                );
            }
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

    /// Loose posteriors (n = 4 pseudo-sojourns) around MTBF 3000h /
    /// MTTR 24h: availability draws visibly spread around ~0.992.
    fn diffuse_posterior() -> PosteriorComponent {
        use crate::params::GammaPosterior;
        PosteriorComponent {
            fail: GammaPosterior {
                alpha: 5.0,
                beta: 5.0 * 3000.0,
            },
            repair: GammaPosterior {
                alpha: 5.0,
                beta: 5.0 * 24.0,
            },
            redundant: 0,
        }
    }

    fn diffuse_sampler(program: &McProgram, comps: usize) -> PosteriorSampler {
        program.posterior_sampler(&vec![Some(diffuse_posterior()); comps])
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
        let spec = RunSpec {
            probs: None,
            sampling: Sampling::Posterior {
                samples,
                seed: 42,
                sampler: &sampler,
            },
        };
        for (chunk, claimants) in [(1, 4), (3, 2), (64, 5)] {
            let outcome = drain_shared_cursor(&program, &spec, chunk, claimants);
            assert_eq!(
                (
                    outcome.result,
                    outcome.interval.expect("posterior interval")
                ),
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
        let p = [0.992, 0.992, 0.992];
        let systems = vec![vec![vec![0, 1], vec![0, 2]]];
        let program = compile_unfolded(&p, &systems);
        let post = diffuse_posterior();
        let mut scratch = McScratch::default();
        // Kill component 1: the perturbation overrides its observation,
        // so the caller blanks its posterior before building the
        // sampler; the priced scenario must fall below the unperturbed
        // posterior estimate.
        let probs = [0.992, 0.0, 0.992];
        let sampler = program.posterior_sampler(&[Some(post), None, Some(post)]);
        let posterior = |sampler| RunSpec {
            probs: Some(&probs),
            sampling: Sampling::Posterior {
                samples: 50_000,
                seed: 11,
                sampler,
            },
        };
        let perturbed = program.execute(&posterior(&sampler), &mut scratch);
        let interval = perturbed
            .interval
            .expect("posterior runs carry an interval");
        let perturbed = perturbed.result;
        let full = program.posterior_sampler(&[Some(post); 3]);
        let (baseline, _) = program.run_posterior(50_000, 1, 11, &full);
        assert!(perturbed.estimate < baseline.estimate);
        assert!(interval.0 <= perturbed.estimate && perturbed.estimate <= interval.1);
        // With an empty sampler the posterior run matches the point run
        // under the same overlay bit for bit.
        let empty = program.posterior_sampler(&[None, None, None]);
        let plain = program.execute(&posterior(&empty), &mut scratch).result;
        let point = RunSpec {
            probs: Some(&probs),
            sampling: Sampling::Point {
                samples: 50_000,
                seed: 11,
            },
        };
        assert_eq!(plain, program.execute(&point, &mut scratch).result);
    }

    #[test]
    fn derive_seed_strides_by_golden_gamma() {
        assert_eq!(derive_seed(10, 0), 10);
        assert_ne!(derive_seed(10, 1), derive_seed(10, 2));
        assert_eq!(derive_seed(10, 1), 10u64.wrapping_add(GAMMA));
    }
}
