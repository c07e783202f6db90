//! Operation instances and operand references.

use crate::inline::{InlineVec, MAX_NEST};
use cdfg::{InputId, OpId, Value};
use std::fmt;

/// Iteration indices of the enclosing loops, outermost first — the
/// indexing scheme of Wavesched used by the paper to distinguish `++1_0`
/// from `++1_1`. Operations outside all loops have an empty vector.
///
/// Stored inline (at most [`MAX_NEST`] levels), so an [`OpInst`] owns no
/// heap memory; it compares, orders, hashes and prints like the
/// `Vec<u32>` with the same elements.
pub type IterVec = InlineVec<u32, MAX_NEST>;

/// One dynamic instance of a CDFG operation: the operation, the iteration
/// indices of its enclosing loops, and a *version* discriminator.
///
/// Versions distinguish multiple speculative executions of the same
/// instance with different operand choices — the paper's `op7′` and
/// `op7″` of Example 6, which both realize `op7` under different
/// speculation conditions. Version 0 is the common, single-version case.
///
/// # Example
///
/// ```
/// use stg::OpInst;
/// use cdfg::OpId;
/// let i = OpInst::new(OpId::new(3), vec![2]);
/// assert_eq!(i.to_string(), "op3_2");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpInst {
    /// The CDFG operation.
    pub op: OpId,
    /// Iteration indices, outermost loop first.
    pub iter: IterVec,
    /// Version discriminator for multiple operand-variant executions of
    /// the same instance (0 = primary).
    pub version: u32,
}

impl OpInst {
    /// Creates a version-0 instance.
    ///
    /// # Panics
    ///
    /// Panics if `iter` has more than [`MAX_NEST`] levels.
    pub fn new(op: OpId, iter: impl Into<IterVec>) -> Self {
        OpInst {
            op,
            iter: iter.into(),
            version: 0,
        }
    }

    /// A version-0 instance outside all loops.
    pub fn root(op: OpId) -> Self {
        OpInst {
            op,
            iter: IterVec::new(),
            version: 0,
        }
    }
}

impl fmt::Display for OpInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op)?;
        for i in &self.iter {
            write!(f, "_{i}")?;
        }
        if self.version > 0 {
            write!(f, "'v{}", self.version)?;
        }
        Ok(())
    }
}

/// The widest operand list of any operation kind (`Select`).
pub const MAX_ARGS: usize = 3;

/// Where a scheduled operation's operand value comes from at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arg {
    /// A compile-time constant.
    Const(Value),
    /// A primary input (stable for the whole execution).
    Input(InputId),
    /// The value held in a slot of the STG's instance table: the result
    /// of that instance, written in an earlier state or earlier in the
    /// same state when chained.
    Slot(u32),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        let i = OpInst::new(OpId::new(7), vec![0, 3]);
        assert_eq!(i.to_string(), "op7_0_3");
        assert_eq!(OpInst::root(OpId::new(1)).to_string(), "op1");
        let v2 = OpInst {
            version: 2,
            ..OpInst::new(OpId::new(3), vec![2])
        };
        assert_eq!(v2.to_string(), "op3_2'v2");
    }
}
