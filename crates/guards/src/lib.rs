//! Condition instances and an ROBDD-backed guard algebra for speculative
//! scheduling.
//!
//! In speculative scheduling (Lakshminarayana, Raghunathan, Jha, DAC 1998),
//! every speculatively executed operation is tagged with a *speculation
//! condition*: a Boolean function over the outcomes of not-yet-resolved
//! conditional operations. The notation `op/cond` in the paper means
//! "operation `op`, executed assuming `cond` evaluates to true".
//!
//! This crate provides the machinery the scheduler needs to manipulate those
//! conditions:
//!
//! * [`Cond`] — an opaque identifier for one dynamic *instance* of a
//!   conditional operation (e.g. `c1_0`, the zeroth evaluation of comparison
//!   `c1`). The scheduler names these; where each sits in the BDD
//!   variable order is up to [`BddManager::place`].
//! * [`BddManager`] / [`Guard`] — a reduced ordered binary decision diagram
//!   package with the operations the scheduling algorithm relies on:
//!   conjunction (Lemma 1), cofactoring by a resolved condition (Step 2 of
//!   Sec. 4.3, and the split of Fig. 12 step 4, which cofactors by each
//!   resolved pending condition in turn), and support extraction.
//! * [`CondProbs`] — exact probability evaluation (the `∏ P(c_j)` factor
//!   of Eq. 5, generalized to arbitrary guards).
//! * Cube views — a guard's paths as conjunctions of literals, rendered
//!   as a sum of products ([`BddManager::to_sop_string`]) or as a token
//!   stream for hashing ([`BddManager::sop_tokens`]).
//!
//! # Example
//!
//! ```
//! use guards::{BddManager, Cond};
//!
//! let mut m = BddManager::new();
//! let c0 = Cond::new(0);
//! let c1 = Cond::new(1);
//! // Guard for an operation speculated on "c0 true and c1 false".
//! let a = m.literal(c0, true);
//! let b = m.literal(c1, false);
//! let g = m.and(a, b);
//! // Once c0 resolves to true, only c1 remains in the guard.
//! let resolved = m.cofactor(g, c0, true);
//! assert_eq!(resolved, m.literal(c1, false));
//! // Had c0 resolved false, the speculation would be invalidated.
//! assert!(m.cofactor(g, c0, false).is_false());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bdd;
mod cube;
mod prob;

pub use bdd::{BddManager, CacheStats, Guard};
pub use cube::{SOP_CUBES, SOP_FALSE, SOP_TRUE};
pub use prob::CondProbs;

use std::fmt;

/// Identifier for one dynamic instance of a conditional operation.
///
/// The scheduler names a distinct `Cond` for every (conditional operation,
/// iteration index) pair it encounters, so `c1_0` and `c1_1` in the paper's
/// notation are distinct `Cond`s. The numeric value is the BDD variable's
/// identity, not its level: the [`BddManager`] keeps the variable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cond(u32);

impl Cond {
    /// Creates a condition identifier from a raw index.
    pub const fn new(index: u32) -> Self {
        Cond(index)
    }

    /// The raw index of this condition.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u32> for Cond {
    fn from(index: u32) -> Self {
        Cond(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_ordering_follows_index() {
        assert!(Cond::new(0) < Cond::new(1));
        assert_eq!(Cond::new(7).index(), 7);
        assert_eq!(Cond::from(3), Cond::new(3));
    }

    #[test]
    fn cond_display() {
        assert_eq!(Cond::new(4).to_string(), "c4");
    }
}
