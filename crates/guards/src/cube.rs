//! Cube views of guards: a guard's paths to TRUE, each a conjunction of
//! condition literals (the paper's `c_1 ∧ c_2`), rendered as a sum of
//! products for display or as a token stream for hashing.
//!
//! The BDD is the only guard representation. A cube here is just the
//! literal list of one path, ordered by condition (the variable order).

use crate::{BddManager, Cond, Guard};

/// Tag word [`BddManager::sop_tokens`] emits for the constant-false guard.
pub const SOP_FALSE: u64 = 0;
/// Tag word [`BddManager::sop_tokens`] emits for the constant-true guard.
pub const SOP_TRUE: u64 = 1;
/// Base tag for a non-constant guard: a stream opening with
/// `SOP_CUBES + n` continues with `n` length-prefixed cubes.
pub const SOP_CUBES: u64 = 2;

impl BddManager {
    /// Renders `g` as a sum of product terms using a naming function for
    /// conditions, e.g. `c1_0.!c2_0 + !c1_0`.
    ///
    /// Pure read: takes `&self`, so callers formatting guards inside
    /// otherwise-immutable contexts (state signatures, trace output) need
    /// not clone the manager.
    pub fn to_sop_string(&self, g: Guard, name: &dyn Fn(Cond) -> String) -> String {
        if g.is_false() {
            return "0".to_string();
        }
        if g.is_true() {
            return "1".to_string();
        }
        let mut cubes = Vec::new();
        let mut lits: Vec<(Cond, bool)> = Vec::new();
        self.collect_cubes(g, &mut lits, &mut cubes);
        cubes
            .iter()
            .map(|cube| {
                cube.iter()
                    .map(|&(c, v)| {
                        let n = name(c);
                        if v {
                            n
                        } else {
                            format!("!{n}")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(".")
            })
            .collect::<Vec<_>>()
            .join(" + ")
    }

    /// Renders `g` as a token stream over the same cube enumeration as
    /// [`BddManager::to_sop_string`], appending to `out`.
    ///
    /// Encoding (injective, so two guards produce equal streams iff
    /// they would produce equal SOP strings under an injective naming):
    /// `FALSE` → `[SOP_FALSE]`, `TRUE` → `[SOP_TRUE]`, otherwise
    /// `[SOP_CUBES + n, len(cube_1), lits…, …, len(cube_n), lits…]`
    /// where each literal is `(name(cond) << 1) | polarity`. Callers
    /// hand in a condition→token mapping instead of a condition→string
    /// one; the scheduler's signature builder uses this to hash-cons
    /// guard renderings without materializing strings.
    pub fn sop_tokens(&self, g: Guard, name: &mut dyn FnMut(Cond) -> u64, out: &mut Vec<u64>) {
        if g.is_false() {
            out.push(SOP_FALSE);
            return;
        }
        if g.is_true() {
            out.push(SOP_TRUE);
            return;
        }
        let mut cubes = Vec::new();
        let mut lits: Vec<(Cond, bool)> = Vec::new();
        self.collect_cubes(g, &mut lits, &mut cubes);
        out.push(SOP_CUBES + cubes.len() as u64);
        for cube in &cubes {
            out.push(cube.len() as u64);
            for &(c, v) in cube {
                out.push((name(c) << 1) | v as u64);
            }
        }
    }

    fn collect_cubes(
        &self,
        g: Guard,
        lits: &mut Vec<(Cond, bool)>,
        out: &mut Vec<Vec<(Cond, bool)>>,
    ) {
        if g.is_false() {
            return;
        }
        if g.is_true() {
            out.push(lits.clone());
            return;
        }
        let (c, lo, hi) = self.decision(g);
        lits.push((c, false));
        self.collect_cubes(lo, lits, out);
        lits.pop();
        lits.push((c, true));
        self.collect_cubes(hi, lits, out);
        lits.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sop(m: &BddManager, g: Guard) -> String {
        m.to_sop_string(g, &|c| c.to_string())
    }

    #[test]
    fn literal_negation() {
        let mut m = BddManager::new();
        let l = m.literal(Cond::new(0), true);
        let nl = m.not(l);
        assert_eq!(nl, m.literal(Cond::new(0), false));
        assert_eq!(m.not(nl), l);
        assert_eq!(sop(&m, nl), "!c0");
    }

    #[test]
    fn cube_absorbs_duplicates() {
        let mut m = BddManager::new();
        let l = m.literal(Cond::new(1), true);
        let ll = m.and(l, l);
        assert_eq!(ll, l);
        assert_eq!(sop(&m, ll), "c1");
    }

    #[test]
    fn cube_rejects_contradiction() {
        let mut m = BddManager::new();
        let p = m.literal(Cond::new(0), true);
        let n = m.literal(Cond::new(0), false);
        let g = m.and_all([p, n]);
        assert!(g.is_false());
        assert_eq!(sop(&m, g), "0");
    }

    #[test]
    fn cube_sorted_by_cond() {
        let mut m = BddManager::new();
        let n5 = m.literal(Cond::new(5), false);
        let p1 = m.literal(Cond::new(1), true);
        let g = m.and(n5, p1);
        assert_eq!(sop(&m, g), "c1.!c5");
    }

    #[test]
    fn cube_guard_matches_manual_conjunction() {
        let mut m = BddManager::new();
        let a = m.literal(Cond::new(0), true);
        let nb = m.literal(Cond::new(1), false);
        assert_eq!(m.and_all([a, nb]), m.and(a, nb));
        assert_eq!(m.and_all([]), Guard::TRUE);
    }

    #[test]
    fn cube_to_assignment() {
        // A cube has exactly one satisfying assignment over its support,
        // pinning each literal's condition.
        let mut m = BddManager::new();
        let p2 = m.literal(Cond::new(2), true);
        let n0 = m.literal(Cond::new(0), false);
        let g = m.and(p2, n0);
        let support = m.support(g);
        let sats = m.assignments(g, &support);
        assert_eq!(sats.len(), 1);
        assert_eq!(sats[0].get(Cond::new(2)), Some(true));
        assert_eq!(sats[0].get(Cond::new(0)), Some(false));
        assert_eq!(sats[0].len(), 2);
    }

    #[test]
    fn top_displays_as_one() {
        let m = BddManager::new();
        assert_eq!(sop(&m, Guard::TRUE), "1");
        let mut toks = Vec::new();
        m.sop_tokens(Guard::TRUE, &mut |c| u64::from(c.index()), &mut toks);
        assert_eq!(toks, [SOP_TRUE]);
    }
}
