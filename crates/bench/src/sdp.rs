//! Sum of disjoint products (SDP) over minimal path sets.
//!
//! The classical network-reliability alternative to BDDs (Abraham's
//! single-variable disjointing): `P(∪ Pᵢ)` is rewritten as a sum of
//! mutually disjoint products of literals, each evaluable as a simple
//! product. Exact for shared components; complexity depends on path-set
//! structure (the BDD engine usually scales better — experiment E8 compares
//! them and they must agree to machine precision).

/// A disjoint product term: conjunction of positive and negated variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Term {
    /// Variables that must be up (sorted).
    pub pos: Vec<usize>,
    /// Variables that must be down (sorted).
    pub neg: Vec<usize>,
}

impl Term {
    /// Term probability over pre-gathered up/down probabilities (`q[i]`
    /// must be `1 − p[i]`). The complements are hoisted out by the caller:
    /// every term revisits the same variables, so the hot evaluation loop
    /// is two iterator products over gathered values instead of
    /// re-deriving the complement per literal.
    fn probability(&self, p: &[f64], q: &[f64]) -> f64 {
        let up: f64 = self.pos.iter().map(|&i| p[i]).product();
        let down: f64 = self.neg.iter().map(|&i| q[i]).product();
        up * down
    }
}

/// Computes the disjoint products of `P(∪ path_sets)`.
///
/// Path sets are sorted by cardinality first (Abraham's heuristic keeps the
/// term count down). The returned terms are pairwise disjoint and their
/// probability sum equals the union probability.
pub fn disjoint_products(path_sets: &[Vec<usize>]) -> Vec<Term> {
    // Normalize without cloning every set: already strictly-sorted sets
    // (the common case — `minimize` emits them) are borrowed, only the
    // rest are copied and sorted. The cardinality sort compares in place
    // instead of materializing `(len, clone)` keys.
    let mut paths: Vec<std::borrow::Cow<[usize]>> = path_sets
        .iter()
        .map(|s| {
            if s.windows(2).all(|w| w[0] < w[1]) {
                std::borrow::Cow::Borrowed(s.as_slice())
            } else {
                let mut v = s.clone();
                v.sort_unstable();
                v.dedup();
                std::borrow::Cow::Owned(v)
            }
        })
        .collect();
    paths.sort_unstable_by(|a, b| {
        a.len()
            .cmp(&b.len())
            .then_with(|| a.as_ref().cmp(b.as_ref()))
    });
    paths.dedup();

    let mut terms: Vec<Term> = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        // Start from Pᵢ and conjoin ¬P₀ … ¬Pᵢ₋₁, splitting into disjoint
        // sub-terms as needed.
        let mut current = vec![Term {
            pos: path.to_vec(),
            neg: Vec::new(),
        }];
        for prev in &paths[..i] {
            let mut next = Vec::new();
            for term in current {
                // D = prev \ term.pos — the variables of prev not already
                // forced up by the term.
                let d: Vec<usize> = prev
                    .iter()
                    .copied()
                    .filter(|v| term.pos.binary_search(v).is_err())
                    .collect();
                if d.is_empty() {
                    // term ⊆ prev ⇒ term ∧ ¬prev = ∅: drop.
                    continue;
                }
                if d.iter().any(|v| term.neg.binary_search(v).is_ok()) {
                    // ¬prev already guaranteed by an existing negation.
                    next.push(term);
                    continue;
                }
                // term ∧ ¬prev = Σ_k term ∧ d₁…d_{k-1} ∧ ¬d_k (disjoint).
                for k in 0..d.len() {
                    let mut pos = term.pos.clone();
                    pos.extend_from_slice(&d[..k]);
                    pos.sort_unstable();
                    let mut neg = term.neg.clone();
                    neg.push(d[k]);
                    neg.sort_unstable();
                    next.push(Term { pos, neg });
                }
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        terms.extend(current);
    }
    terms
}

/// Exact union probability via SDP.
pub fn union_probability(path_sets: &[Vec<usize>], p: &[f64]) -> f64 {
    let terms = disjoint_products(path_sets);
    let q: Vec<f64> = p.iter().map(|&pi| 1.0 - pi).collect();
    terms.iter().map(|t| t.probability(p, &q)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dependability::Bdd;

    fn brute_force(path_sets: &[Vec<usize>], p: &[f64]) -> f64 {
        let n = p.len();
        let mut total = 0.0;
        for mask in 0..(1u32 << n) {
            let assign: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            if path_sets.iter().any(|s| s.iter().all(|&v| assign[v])) {
                total += (0..n)
                    .map(|i| if assign[i] { p[i] } else { 1.0 - p[i] })
                    .product::<f64>();
            }
        }
        total
    }

    #[test]
    fn single_path_is_product() {
        let p = [0.9, 0.8];
        assert!((union_probability(&[vec![0, 1]], &p) - 0.72).abs() < 1e-12);
    }

    #[test]
    fn disjoint_paths_match_inclusion_exclusion() {
        let p = [0.9, 0.8, 0.7, 0.6];
        let sets = vec![vec![0, 1], vec![2, 3]];
        let expected = 0.72 + 0.42 - 0.72 * 0.42;
        assert!((union_probability(&sets, &p) - expected).abs() < 1e-12);
    }

    #[test]
    fn shared_components_exact() {
        let p = [0.9, 0.8, 0.7];
        let sets = vec![vec![0, 1], vec![0, 2]];
        let expected = 0.9 * (1.0 - 0.2 * 0.3);
        assert!((union_probability(&sets, &p) - expected).abs() < 1e-12);
    }

    #[test]
    fn terms_are_pairwise_disjoint() {
        let sets = vec![vec![0, 1], vec![1, 2], vec![0, 3], vec![2, 3]];
        let terms = disjoint_products(&sets);
        // Two terms are disjoint iff some variable is positive in one and
        // negative in the other.
        for (i, a) in terms.iter().enumerate() {
            for b in terms.iter().skip(i + 1) {
                let conflict = a.pos.iter().any(|v| b.neg.binary_search(v).is_ok())
                    || b.pos.iter().any(|v| a.neg.binary_search(v).is_ok());
                assert!(conflict, "terms {a:?} and {b:?} overlap");
            }
        }
    }

    #[test]
    fn matches_brute_force_and_bdd_on_random_systems() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2013);
        for trial in 0..25 {
            let n = rng.random_range(2..7usize);
            let k = rng.random_range(1..5usize);
            let sets: Vec<Vec<usize>> = (0..k)
                .map(|_| {
                    let len = rng.random_range(1..=n);
                    let mut s: Vec<usize> = (0..n).collect();
                    for i in (1..s.len()).rev() {
                        let j = rng.random_range(0..=i);
                        s.swap(i, j);
                    }
                    s.truncate(len);
                    s.sort_unstable();
                    s
                })
                .collect();
            let p: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..0.99)).collect();
            let exact = brute_force(&sets, &p);
            let via_sdp = union_probability(&sets, &p);
            assert!(
                (via_sdp - exact).abs() < 1e-10,
                "trial {trial}: sdp {via_sdp} vs {exact}"
            );
            let mut bdd = Bdd::new();
            let f = bdd.from_path_sets(&sets);
            let via_bdd = bdd.probability(f, &p);
            assert!((via_bdd - exact).abs() < 1e-10, "trial {trial}: bdd");
        }
    }

    #[test]
    fn duplicate_and_superset_paths_handled() {
        let p = [0.9, 0.8];
        let sets = vec![vec![0], vec![0], vec![0, 1]];
        assert!((union_probability(&sets, &p) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(union_probability(&[], &[0.5]), 0.0);
        // A trivial (empty) path means the union is certain.
        assert_eq!(union_probability(&[vec![]], &[0.5]), 1.0);
    }
}
