//! Exact probability evaluation of guards under independent condition
//! probabilities.
//!
//! Equation (5) of the paper weighs an operation's criticality by
//! `∏ P(c_j)`, the probability that its speculation condition holds,
//! assuming independent branch outcomes. For cube guards this is a plain
//! product; for general guards the probability is computed exactly by
//! Shannon expansion over the BDD:
//! `P(g) = P(c)·P(g|c=1) + (1−P(c))·P(g|c=0)`.

use crate::{BddManager, Cond, Guard};
use spec_support::fxhash::FxHashMap;
use std::collections::HashMap;

/// Per-condition probabilities of evaluating to true.
///
/// Conditions not explicitly set fall back to 0.5, mirroring a profiler
/// that has no data for a branch it never saw.
///
/// # Example
///
/// ```
/// use guards::{BddManager, Cond, CondProbs};
/// use spec_support::fxhash::FxHashMap;
/// let mut m = BddManager::new();
/// let mut p = CondProbs::new();
/// p.set(Cond::new(0), 0.8);
/// let a = m.literal(Cond::new(0), true);
/// let b = m.literal(Cond::new(1), true); // unset: 0.5
/// let g = m.and(a, b);
/// let mut memo = FxHashMap::default();
/// assert!((p.probability_with(&m, g, &mut memo) - 0.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CondProbs {
    map: HashMap<Cond, f64>,
}

/// `P(cond = true)` of a condition with no entry.
const UNSET_PROBABILITY: f64 = 0.5;

impl CondProbs {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `P(cond = true)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set(&mut self, cond: Cond, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "probability must be in [0, 1], got {p}"
        );
        self.map.insert(cond, p);
    }

    /// Looks up `P(cond = true)`, 0.5 for a condition never set.
    pub fn get(&self, cond: Cond) -> f64 {
        self.map.get(&cond).copied().unwrap_or(UNSET_PROBABILITY)
    }

    /// Exact probability that `g` evaluates to true, assuming independent
    /// conditions, computed by Shannon expansion over the BDD and
    /// memoized into a caller-owned table that can persist across calls.
    ///
    /// The memo is keyed by guard handle only, so it is valid exactly as
    /// long as (a) all guards come from the same [`BddManager`] and (b) no
    /// probability in this table changes between calls. Callers that
    /// mutate probabilities mid-run must clear the memo themselves —
    /// the scheduler's per-run branch probabilities are fixed, so its memo
    /// never invalidates.
    pub fn probability_with(
        &self,
        m: &BddManager,
        g: Guard,
        memo: &mut FxHashMap<Guard, f64>,
    ) -> f64 {
        self.prob_rec(m, g, memo)
    }

    fn prob_rec(&self, m: &BddManager, g: Guard, memo: &mut FxHashMap<Guard, f64>) -> f64 {
        if g.is_false() {
            return 0.0;
        }
        if g.is_true() {
            return 1.0;
        }
        if let Some(&p) = memo.get(&g) {
            return p;
        }
        let (top, lo, hi) = m.decision(g);
        let pc = self.get(top);
        let p = pc * self.prob_rec(m, hi, memo) + (1.0 - pc) * self.prob_rec(m, lo, memo);
        memo.insert(g, p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p_of(p: &CondProbs, m: &BddManager, g: Guard) -> f64 {
        p.probability_with(m, g, &mut FxHashMap::default())
    }

    #[test]
    fn constants() {
        let m = BddManager::new();
        let p = CondProbs::new();
        assert_eq!(p_of(&p, &m, Guard::TRUE), 1.0);
        assert_eq!(p_of(&p, &m, Guard::FALSE), 0.0);
    }

    #[test]
    fn literal_probability() {
        let mut m = BddManager::new();
        let mut p = CondProbs::new();
        p.set(Cond::new(0), 0.3);
        let a = m.literal(Cond::new(0), true);
        let na = m.literal(Cond::new(0), false);
        assert!((p_of(&p, &m, a) - 0.3).abs() < 1e-12);
        assert!((p_of(&p, &m, na) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn conjunction_multiplies() {
        let mut m = BddManager::new();
        let mut p = CondProbs::new();
        p.set(Cond::new(0), 0.6);
        p.set(Cond::new(1), 0.25);
        let a = m.literal(Cond::new(0), true);
        let b = m.literal(Cond::new(1), true);
        let g = m.and(a, b);
        assert!((p_of(&p, &m, g) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn disjunction_inclusion_exclusion() {
        let mut m = BddManager::new();
        let mut p = CondProbs::new();
        p.set(Cond::new(0), 0.6);
        p.set(Cond::new(1), 0.25);
        let a = m.literal(Cond::new(0), true);
        let b = m.literal(Cond::new(1), true);
        let g = m.or(a, b);
        let expect = 0.6 + 0.25 - 0.6 * 0.25;
        assert!((p_of(&p, &m, g) - expect).abs() < 1e-12);
    }

    #[test]
    fn complement_sums_to_one() {
        let mut m = BddManager::new();
        let mut p = CondProbs::new();
        p.set(Cond::new(0), 0.8);
        p.set(Cond::new(1), 0.4);
        let a = m.literal(Cond::new(0), true);
        let b = m.literal(Cond::new(1), false);
        let nb = m.not(b);
        let g = m.ite(a, nb, b);
        let ng = m.not(g);
        let total = p_of(&p, &m, g) + p_of(&p, &m, ng);
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_probability_used_for_unseen() {
        let mut m = BddManager::new();
        let p = CondProbs::new();
        let a = m.literal(Cond::new(42), true);
        assert_eq!(p.get(Cond::new(42)), 0.5);
        assert!((p_of(&p, &m, a) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn rejects_out_of_range() {
        let mut p = CondProbs::new();
        p.set(Cond::new(0), 1.5);
    }
}
