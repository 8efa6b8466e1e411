//! Reliability block diagrams (RBDs).
//!
//! Paper Sec. VII: *"Such analysis can be performed by transforming the
//! UPSIM to a reliability block diagram (RBD) or fault-tree (FT), in which
//! entities correspond to components of the UPSIM."* An RBD is valid only
//! when every component appears in exactly one block — evaluation assumes
//! block independence. [`Block::validate_single_use`] checks that; for
//! UPSIMs with shared components the BDD (and [`crate::sdp`]) are exact
//! instead.

use dependability::bdd::{Bdd, BddRef};

/// A reliability block over component indices.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// A single component (index into the availability vector).
    Unit(usize),
    /// All sub-blocks must work.
    Series(Vec<Block>),
    /// At least one sub-block must work.
    Parallel(Vec<Block>),
}

impl Block {
    /// Availability of the block given per-component availabilities,
    /// assuming all components are independent and used once.
    pub fn availability(&self, component: &[f64]) -> f64 {
        match self {
            Block::Unit(i) => component[*i],
            Block::Series(blocks) => blocks.iter().map(|b| b.availability(component)).product(),
            Block::Parallel(blocks) => {
                1.0 - blocks
                    .iter()
                    .map(|b| 1.0 - b.availability(component))
                    .product::<f64>()
            }
        }
    }

    /// All component indices referenced by the block (with repetition).
    pub fn components(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<usize>) {
        match self {
            Block::Unit(i) => out.push(*i),
            Block::Series(bs) | Block::Parallel(bs) => bs.iter().for_each(|b| b.collect(out)),
        }
    }

    /// `true` when every component occurs at most once — the precondition
    /// for [`Block::availability`] to be exact.
    pub fn validate_single_use(&self) -> bool {
        let mut seen = std::collections::HashSet::new();
        self.components().into_iter().all(|c| seen.insert(c))
    }

    /// Renders the block structure in the conventional inline RBD notation:
    /// series as `—`-joined, parallel as `( … | … )`, units as `[name]`.
    pub fn render(&self, name: &impl Fn(usize) -> String) -> String {
        match self {
            Block::Unit(i) => format!("[{}]", name(*i)),
            Block::Series(bs) => bs
                .iter()
                .map(|b| b.render(name))
                .collect::<Vec<_>>()
                .join("\u{2014}"),
            Block::Parallel(bs) => format!(
                "({})",
                bs.iter()
                    .map(|b| b.render(name))
                    .collect::<Vec<_>>()
                    .join(" | ")
            ),
        }
    }

    /// Encodes the block's structure function into a BDD (for
    /// cross-validation and for blocks that violate single-use).
    pub fn to_bdd(&self, bdd: &mut Bdd) -> BddRef {
        match self {
            Block::Unit(i) => bdd.var(*i as u32),
            Block::Series(bs) => {
                let mut acc = bdd.one();
                for b in bs {
                    let sub = b.to_bdd(bdd);
                    acc = bdd.and(acc, sub);
                }
                acc
            }
            Block::Parallel(bs) => {
                let mut acc = bdd.zero();
                for b in bs {
                    let sub = b.to_bdd(bdd);
                    acc = bdd.or(acc, sub);
                }
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_parallel_evaluation() {
        let comp = [0.9, 0.8, 0.7];
        let series = Block::Series(vec![Block::Unit(0), Block::Unit(1)]);
        assert!((series.availability(&comp) - 0.72).abs() < 1e-12);
        let parallel = Block::Parallel(vec![Block::Unit(0), Block::Unit(1)]);
        assert!((parallel.availability(&comp) - 0.98).abs() < 1e-12);
        let nested = Block::Series(vec![
            Block::Unit(2),
            Block::Parallel(vec![Block::Unit(0), Block::Unit(1)]),
        ]);
        assert!((nested.availability(&comp) - 0.7 * 0.98).abs() < 1e-12);
    }

    #[test]
    fn single_use_validation() {
        let ok = Block::Series(vec![Block::Unit(0), Block::Unit(1)]);
        assert!(ok.validate_single_use());
        let shared = Block::Parallel(vec![
            Block::Series(vec![Block::Unit(0), Block::Unit(1)]),
            Block::Series(vec![Block::Unit(0), Block::Unit(2)]),
        ]);
        assert!(!shared.validate_single_use());
    }

    #[test]
    fn bdd_agrees_with_analytic_when_single_use() {
        let comp = [0.9, 0.8, 0.7, 0.6];
        let block = Block::Parallel(vec![
            Block::Series(vec![Block::Unit(0), Block::Unit(1)]),
            Block::Series(vec![Block::Unit(2), Block::Unit(3)]),
        ]);
        let mut bdd = Bdd::new();
        let f = block.to_bdd(&mut bdd);
        assert!((bdd.probability(f, &comp) - block.availability(&comp)).abs() < 1e-12);
    }

    #[test]
    fn bdd_is_exact_when_components_shared() {
        let comp = [0.9, 0.8, 0.7];
        let shared = Block::Parallel(vec![
            Block::Series(vec![Block::Unit(0), Block::Unit(1)]),
            Block::Series(vec![Block::Unit(0), Block::Unit(2)]),
        ]);
        let mut bdd = Bdd::new();
        let f = shared.to_bdd(&mut bdd);
        let exact = 0.9 * (1.0 - 0.2 * 0.3);
        assert!((bdd.probability(f, &comp) - exact).abs() < 1e-12);
        // The naive RBD formula over-counts.
        assert!((shared.availability(&comp) - exact).abs() > 1e-3);
    }

    #[test]
    fn render_produces_conventional_notation() {
        let names = ["t1", "a", "b", "srv"];
        let name = |i: usize| names[i].to_string();
        let block = Block::Series(vec![
            Block::Unit(0),
            Block::Parallel(vec![Block::Unit(1), Block::Unit(2)]),
            Block::Unit(3),
        ]);
        assert_eq!(block.render(&name), "[t1]\u{2014}([a] | [b])\u{2014}[srv]");
    }
}
