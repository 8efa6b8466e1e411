//! Minimal cut sets of a service and the fault tree built from them.
//!
//! Paper Sec. VII proposes fault trees as one analysis target of the UPSIM.
//! The canonical construction goes through **minimal cut sets**: minimal
//! component sets whose joint failure takes the service down. For a
//! coherent system they are exactly the minimal transversals (hitting sets)
//! of the minimal path sets — computed here with Berge's incremental
//! algorithm over generic variable indices. The resulting fault tree
//! (OR over cut sets of AND over failures) evaluates — via the exact BDD
//! engine — to precisely the system unavailability.

use crate::faulttree::Gate;

/// Caps for the worst-case-exponential enumeration.
#[derive(Debug, Clone, Copy)]
pub struct CutLimits {
    /// Maximum cut-set cardinality kept.
    pub max_size: usize,
    /// Maximum number of cut sets kept.
    pub max_cuts: usize,
}

impl Default for CutLimits {
    fn default() -> Self {
        CutLimits {
            max_size: 16,
            max_cuts: 100_000,
        }
    }
}

/// Removes non-minimal (superset) sets; input sets must be sorted.
fn minimize(mut sets: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    sets.sort_by_key(|s| (s.len(), s.clone()));
    sets.dedup();
    let mut out: Vec<Vec<usize>> = Vec::new();
    'outer: for cand in sets {
        for kept in &out {
            if kept.iter().all(|v| cand.binary_search(v).is_ok()) {
                continue 'outer;
            }
        }
        out.push(cand);
    }
    out
}

/// Minimal transversals of a family of sets (Berge's algorithm): every
/// returned set intersects every input set and is minimal with that
/// property. Input sets need not be sorted; empty input families yield no
/// transversals, and a family containing the empty set has none either
/// (nothing can hit ∅).
pub fn minimal_transversals(sets: &[Vec<usize>], limits: CutLimits) -> Vec<Vec<usize>> {
    let mut family: Vec<Vec<usize>> = sets
        .iter()
        .map(|s| {
            let mut v = s.clone();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    family.sort_by_key(Vec::len);
    if family.is_empty() || family.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let mut transversals: Vec<Vec<usize>> = family[0].iter().map(|&v| vec![v]).collect();
    for set in &family[1..] {
        let mut next: Vec<Vec<usize>> = Vec::new();
        for t in &transversals {
            if t.iter().any(|v| set.binary_search(v).is_ok()) {
                next.push(t.clone());
            } else {
                for &v in set {
                    let mut extended = t.clone();
                    match extended.binary_search(&v) {
                        Ok(_) => {}
                        Err(pos) => extended.insert(pos, v),
                    }
                    if extended.len() <= limits.max_size {
                        next.push(extended);
                    }
                }
            }
        }
        transversals = minimize(next);
        transversals.truncate(limits.max_cuts);
    }
    transversals
}

/// Minimal cut sets of a path-set system: the minimal transversals of its
/// minimal path sets.
pub fn minimal_cut_sets(path_sets: &[Vec<usize>], limits: CutLimits) -> Vec<Vec<usize>> {
    minimal_transversals(path_sets, limits)
}

/// The fault tree over the minimal cut sets: the top event (service
/// failure) is the OR over cut sets of the AND of their component
/// failures. Repeated basic events are expected — evaluation must go
/// through [`Gate::top_event_probability`] (BDD-exact).
pub fn fault_tree_from_cut_sets(cut_sets: &[Vec<usize>]) -> Gate {
    Gate::Or(
        cut_sets
            .iter()
            .map(|cut| Gate::And(cut.iter().map(|&v| Gate::Basic(v)).collect()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dependability::Bdd;

    #[test]
    fn series_system_cuts_are_singletons() {
        // One path {0,1,2}: every component is a singleton cut.
        let cuts = minimal_cut_sets(&[vec![0, 1, 2]], CutLimits::default());
        assert_eq!(cuts, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn parallel_system_cut_is_the_full_set() {
        // Paths {0} and {1}: only cutting both disconnects.
        let cuts = minimal_cut_sets(&[vec![0], vec![1]], CutLimits::default());
        assert_eq!(cuts, vec![vec![0, 1]]);
    }

    #[test]
    fn bridge_like_sharing() {
        // Paths {0,1}, {0,2}: cuts {0} and {1,2}.
        let mut cuts = minimal_cut_sets(&[vec![0, 1], vec![0, 2]], CutLimits::default());
        cuts.sort();
        assert_eq!(cuts, vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn no_paths_means_no_cuts() {
        assert!(minimal_cut_sets(&[], CutLimits::default()).is_empty());
        // A trivial (empty) path can never be cut.
        assert!(minimal_cut_sets(&[vec![]], CutLimits::default()).is_empty());
    }

    #[test]
    fn fault_tree_unavailability_matches_bdd_availability() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let n = rng.random_range(2..6usize);
            let k = rng.random_range(1..4usize);
            let path_sets: Vec<Vec<usize>> = (0..k)
                .map(|_| {
                    let len = rng.random_range(1..=n);
                    let mut s: Vec<usize> = (0..n).collect();
                    for i in (1..s.len()).rev() {
                        let j = rng.random_range(0..=i);
                        s.swap(i, j);
                    }
                    s.truncate(len);
                    s
                })
                .collect();
            let p: Vec<f64> = (0..n).map(|_| rng.random_range(0.1..0.95)).collect();

            let mut bdd = Bdd::new();
            let f = bdd.from_path_sets(&path_sets);
            let availability = bdd.probability(f, &p);

            let cuts = minimal_cut_sets(&path_sets, CutLimits::default());
            let ft = fault_tree_from_cut_sets(&cuts);
            let unavailability = ft.top_event_probability(&p);
            assert!(
                (availability + unavailability - 1.0).abs() < 1e-10,
                "A={availability}, U={unavailability}, paths={path_sets:?}, cuts={cuts:?}"
            );
        }
    }

    #[test]
    fn transversals_are_minimal_and_hitting() {
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let ts = minimal_transversals(&sets, CutLimits::default());
        for t in &ts {
            // hitting
            for s in &sets {
                assert!(s.iter().any(|v| t.contains(v)), "{t:?} misses {s:?}");
            }
            // minimal: dropping any element un-hits some set
            for drop in t {
                let reduced: Vec<usize> = t.iter().copied().filter(|v| v != drop).collect();
                let still_hits = sets.iter().all(|s| s.iter().any(|v| reduced.contains(v)));
                assert!(!still_hits, "{t:?} not minimal (can drop {drop})");
            }
        }
        // {1,2} must be among them (hits all three sets with two elements).
        assert!(ts.contains(&vec![1, 2]));
    }

    #[test]
    fn size_cap_is_respected() {
        let sets = vec![vec![0], vec![1], vec![2], vec![3]];
        // The only transversal is {0,1,2,3}; with max_size 3 it is pruned.
        let ts = minimal_transversals(
            &sets,
            CutLimits {
                max_size: 3,
                max_cuts: 100,
            },
        );
        assert!(ts.is_empty());
    }
}
