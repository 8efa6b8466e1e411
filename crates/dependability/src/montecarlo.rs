//! The reference Monte-Carlo sampler of service availability.
//!
//! Sampling: every component is up independently with its availability;
//! the service is up when **every** mapping pair has at least one
//! fully-up path (all atomic services execute — paper Sec. V-E).
//!
//! Draws are counter-based and shared with the compiled kernel in
//! [`crate::mcprog`]: the draw for `(trial, component)` is the SplitMix64
//! finalizer over `seed + trial·γ + (component + 1)·γ'` compared against
//! the component's Bernoulli threshold. A draw is a pure function of its
//! coordinates, so the estimate is **bit-identical for a fixed
//! `(seed, samples)` regardless of worker count** — and trial-for-trial
//! identical to what an [`crate::mcprog::McProgram`] over the same
//! systems produces. Workers split the trial range contiguously over a
//! crossbeam scope, each reusing one bitset of component states.
//!
//! [`estimate`] walks the raw path sets one trial at a time, with no
//! compilation and no constant folding, which makes it the oracle the
//! tests compare the compiled kernel against. Every production caller —
//! [`ServiceAvailabilityModel::monte_carlo`](crate::transform::ServiceAvailabilityModel::monte_carlo),
//! the CLI, the server and campaigns — runs the compiled bit-sliced
//! kernel in [`crate::mcprog`], which evaluates 64 trials per `u64` word
//! (512 per wide block) over the same draws. [`MonteCarloResult`] is the
//! result type of both.

use crate::mcprog::{mix, threshold_for, GAMMA, STREAM};

/// The result of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Estimated availability.
    pub estimate: f64,
    /// Standard error of the estimate (binomial).
    pub std_error: f64,
    /// Total samples drawn.
    pub samples: usize,
}

impl MonteCarloResult {
    /// Two-sided 95% confidence interval (Wilson score), clamped to
    /// `[0, 1]`.
    ///
    /// Unlike the Wald interval (`estimate ± 1.96·std_error`), the Wilson
    /// interval stays honest at the boundary: an estimate of exactly 0 or
    /// 1 (where the binomial `std_error` degenerates to 0) still yields a
    /// non-degenerate interval — e.g. `[1/(1 + z²/n), 1]` at `p̂ = 1` —
    /// instead of collapsing to a point. For interior estimates at the
    /// sample counts used here the two agree to within a fraction of the
    /// interval width.
    pub fn confidence_95(&self) -> (f64, f64) {
        if self.samples == 0 {
            return (0.0, 1.0);
        }
        let z = 1.96f64;
        let n = self.samples as f64;
        let p = self.estimate;
        let denom = 1.0 + z * z / n;
        let center = (p + z * z / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// `true` when `value` lies in the 95% confidence interval.
    pub fn covers(&self, value: f64) -> bool {
        let (lo, hi) = self.confidence_95();
        (lo..=hi).contains(&value)
    }
}

/// Reused per-worker component-state scratch: one bit per component,
/// refilled each trial — no per-trial allocation.
struct StateBits {
    words: Vec<u64>,
}

impl StateBits {
    fn new(components: usize) -> Self {
        StateBits {
            words: vec![0; components.div_ceil(64)],
        }
    }

    #[inline(always)]
    fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Draws every component's state for one trial.
    #[inline]
    fn draw(&mut self, thresholds: &[u64], seed: u64, trial: u64) {
        let trial_key = seed.wrapping_add(trial.wrapping_mul(GAMMA));
        for (w, chunk) in thresholds.chunks(64).enumerate() {
            let mut word = 0u64;
            for (lane, &threshold) in chunk.iter().enumerate() {
                let comp = (w * 64 + lane) as u64;
                let up = threshold == u64::MAX
                    || mix(trial_key.wrapping_add((comp + 1).wrapping_mul(STREAM))) < threshold;
                word |= u64::from(up) << lane;
            }
            self.words[w] = word;
        }
    }
}

/// Estimates `P(every system has an up path)` where each system is a list
/// of path sets over shared component indices.
///
/// * `availability[i]` — up-probability of component `i`,
/// * `systems` — one entry per mapping pair, each a list of path sets,
/// * `samples` — total samples (exact; split contiguously over workers),
/// * `workers` — 0 = available parallelism,
/// * `seed` — base RNG seed.
///
/// Deterministic: draws are keyed by `(seed, trial, component)` alone,
/// so the estimate is bit-identical for any `workers` value.
pub fn estimate(
    availability: &[f64],
    systems: &[Vec<Vec<usize>>],
    samples: usize,
    workers: usize,
    seed: u64,
) -> MonteCarloResult {
    assert!(samples > 0, "need at least one sample");
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    };
    let thresholds: Vec<u64> = availability.iter().map(|&a| threshold_for(a)).collect();
    let per_worker = samples.div_ceil(workers);

    let successes: u64 = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let thresholds = &thresholds;
        for w in 0..workers {
            let lo = (w * per_worker).min(samples);
            let hi = (lo + per_worker).min(samples);
            if lo == hi {
                break;
            }
            handles.push(scope.spawn(move |_| {
                let mut state = StateBits::new(thresholds.len());
                let mut ok = 0u64;
                for trial in lo as u64..hi as u64 {
                    state.draw(thresholds, seed, trial);
                    let service_up = systems
                        .iter()
                        .all(|paths| paths.iter().any(|set| set.iter().all(|&v| state.get(v))));
                    ok += u64::from(service_up);
                }
                ok
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    })
    .expect("crossbeam scope");

    let estimate = successes as f64 / samples as f64;
    let std_error = (estimate * (1.0 - estimate) / samples as f64).sqrt();
    MonteCarloResult {
        estimate,
        std_error,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd::Bdd;
    use crate::mcprog::McProgram;

    #[test]
    fn deterministic_for_fixed_seed_and_workers() {
        let p = [0.9, 0.8, 0.7];
        let systems = vec![vec![vec![0, 1], vec![0, 2]]];
        let a = estimate(&p, &systems, 10_000, 2, 42);
        let b = estimate(&p, &systems, 10_000, 2, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_never_changes_the_estimate() {
        let p = [0.9, 0.8, 0.7, 0.95];
        let systems = vec![vec![vec![0, 1], vec![0, 2]], vec![vec![3, 0]]];
        let reference = estimate(&p, &systems, 10_001, 1, 42);
        for workers in [2, 3, 5, 8, 64] {
            assert_eq!(estimate(&p, &systems, 10_001, workers, 42), reference);
        }
    }

    #[test]
    fn draws_are_shared_with_the_compiled_kernel() {
        // Same coordinates, same thresholds, same structure function: the
        // scalar sampler and an unfolded McProgram must agree trial for
        // trial, hence bit for bit — including at a degenerate p = 1.
        let p = [0.9, 0.8, 1.0, 0.7];
        let systems = vec![vec![vec![0, 1], vec![0, 2, 3]], vec![vec![3]]];
        let program = McProgram::compile_unfolded(&p, systems.iter().map(Vec::as_slice));
        for (samples, seed) in [(257, 1u64), (5000, 42), (12_345, 2013)] {
            assert_eq!(
                estimate(&p, &systems, samples, 3, seed),
                program.run(samples, 2, seed)
            );
        }
    }

    #[test]
    fn converges_to_exact_value() {
        let p = [0.9, 0.8, 0.7];
        let sets = vec![vec![0, 1], vec![0, 2]];
        let mut bdd = Bdd::new();
        let union = bdd.from_path_sets(&sets);
        let exact = bdd.probability(union, &p);
        let mc = estimate(&p, &[sets], 200_000, 4, 7);
        assert!(
            mc.covers(exact),
            "CI {:?} misses {exact}",
            mc.confidence_95()
        );
        assert!((mc.estimate - exact).abs() < 0.01);
    }

    #[test]
    fn multi_pair_conjunction_is_not_product_when_shared() {
        // Two pairs sharing component 0: P(both) = p0·p1·p2 when each pair
        // is {0,1} / {0,2} singly-pathed — the independent product would be
        // (p0 p1)(p0 p2).
        let p = [0.6, 0.9, 0.9];
        let systems = vec![vec![vec![0, 1]], vec![vec![0, 2]]];
        let exact = 0.6 * 0.9 * 0.9;
        let naive = (0.6 * 0.9) * (0.6 * 0.9);
        let mc = estimate(&p, &systems, 400_000, 4, 11);
        assert!(
            mc.covers(exact),
            "CI {:?} misses exact {exact}",
            mc.confidence_95()
        );
        assert!(
            !mc.covers(naive),
            "MC should reject the naive product {naive}"
        );
    }

    #[test]
    fn degenerate_systems() {
        let p = [0.5];
        // No pairs: service trivially up.
        let always = estimate(&p, &[], 1000, 1, 1);
        assert_eq!(always.estimate, 1.0);
        assert_eq!(always.std_error, 0.0);
        // A pair with no paths: never up.
        let never = estimate(&p, &[vec![]], 1000, 1, 1);
        assert_eq!(never.estimate, 0.0);
        // A pair with a trivial path: always up.
        let trivial = estimate(&p, &[vec![vec![]]], 1000, 1, 1);
        assert_eq!(trivial.estimate, 1.0);
    }

    #[test]
    fn worker_split_covers_requested_samples() {
        let p = [0.9];
        // Exactly the requested count — contiguous ranges, no rounding up
        // to a worker multiple.
        let mc = estimate(&p, &[vec![vec![0]]], 1001, 4, 3);
        assert_eq!(mc.samples, 1001);
        let mc = estimate(&p, &[vec![vec![0]]], 7, 64, 3);
        assert_eq!(mc.samples, 7);
    }

    #[test]
    fn perfect_components_give_certainty() {
        let p = [1.0, 1.0];
        let mc = estimate(&p, &[vec![vec![0, 1]]], 5_000, 2, 9);
        assert_eq!(mc.estimate, 1.0);
        // Wilson at p̂ = 1: the upper bound is exactly 1, the lower bound
        // 1/(1 + z²/n) — close to 1 but not a degenerate point interval.
        let (lo, hi) = mc.confidence_95();
        assert_eq!(hi, 1.0);
        assert!(lo < 1.0, "boundary CI must not collapse to a point");
        assert!(lo > 0.999, "lower bound stays tight at n = 5000: {lo}");
        assert!(mc.covers(0.9995));
        assert!(!mc.covers(0.99));
    }

    #[test]
    fn degenerate_zero_estimate_has_open_interval() {
        let p = [0.0];
        let mc = estimate(&p, &[vec![vec![0]]], 5_000, 1, 4);
        assert_eq!(mc.estimate, 0.0);
        assert_eq!(mc.std_error, 0.0);
        let (lo, hi) = mc.confidence_95();
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.001, "Wilson upper at p̂ = 0: {hi}");
        assert!(mc.covers(0.0005));
    }

    #[test]
    fn wilson_matches_wald_for_interior_estimates() {
        let mc = MonteCarloResult {
            estimate: 0.95,
            std_error: (0.95f64 * 0.05 / 200_000.0).sqrt(),
            samples: 200_000,
        };
        let (lo, hi) = mc.confidence_95();
        let (wald_lo, wald_hi) = (
            mc.estimate - 1.96 * mc.std_error,
            mc.estimate + 1.96 * mc.std_error,
        );
        assert!((lo - wald_lo).abs() < 1e-5, "wilson {lo} vs wald {wald_lo}");
        assert!((hi - wald_hi).abs() < 1e-5, "wilson {hi} vs wald {wald_hi}");
    }
}
