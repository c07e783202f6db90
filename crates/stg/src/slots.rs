//! The STG's values named by dense slots, compiled once per STG.
//!
//! Simulation, RTL register allocation and static dataflow validation
//! all ask the same questions of an STG — which value does this operand
//! read, which value does this op write, which values does this edge
//! rename — and all want the answer as an array index rather than an
//! [`OpInst`] to hash or compare. [`SlotPlan::new`] interns every
//! instance the STG mentions into a dense `u32` slot, in first-mention
//! order, and lowers each state to slot-named ops and transitions.
//! [`SlotSet`] is the matching one-bit-per-slot set for the liveness
//! and must-be-defined analyses.

use crate::{OpInst, StateId, Stg, ValRef};
use cdfg::{InputId, OpId, Value};
use std::collections::HashMap;

/// The widest operand list of any operation kind (`Select`).
pub const MAX_ARGS: usize = 3;

/// Where a lowered operand comes from at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arg {
    /// A compile-time constant.
    Const(Value),
    /// A primary input.
    Input(InputId),
    /// The value held in a slot.
    Slot(u32),
}

/// A scheduled operation with its result and operands named by slot.
#[derive(Debug)]
pub struct SlotOp {
    /// The slot the result is written to.
    pub dest: u32,
    /// The CDFG operation.
    pub op: OpId,
    args: [Arg; MAX_ARGS],
    arity: usize,
}

impl SlotOp {
    /// The operands, in port order.
    #[inline]
    pub fn args(&self) -> &[Arg] {
        &self.args[..self.arity]
    }
}

/// A transition whose conditions and renames name slots.
#[derive(Debug)]
pub struct SlotTransition {
    /// Condition slots and the outcome each must have.
    pub when: Vec<(u32, bool)>,
    /// Destination state.
    pub target: StateId,
    /// `(from, to)` slot relabelings, in the STG's order.
    pub renames: Vec<(u32, u32)>,
}

/// A state lowered onto slots.
#[derive(Debug)]
pub struct SlotState {
    /// Operations in issue order.
    pub ops: Vec<SlotOp>,
    /// Outgoing transitions in the STG's order.
    pub transitions: Vec<SlotTransition>,
}

/// An STG lowered onto dense value slots: every instance the STG
/// mentions gets a `u32` slot in first-mention order, and each state is
/// lowered to slot-named ops and transitions.
#[derive(Debug)]
pub struct SlotPlan {
    states: Vec<SlotState>,
    /// Slot → instance.
    insts: Vec<OpInst>,
}

impl SlotPlan {
    /// Lowers every state of `stg`. Slots are handed out in first-mention
    /// order: per state, each op's operands then its result, then each
    /// transition's conditions and `(from, to)` renames.
    ///
    /// # Panics
    ///
    /// Panics if a scheduled operation carries more than [`MAX_ARGS`]
    /// operands.
    pub fn new(stg: &Stg) -> Self {
        let mut ids: HashMap<&OpInst, u32> = HashMap::new();
        let mut insts = Vec::new();
        let mut slot = |inst| {
            *ids.entry(inst).or_insert_with(|| {
                insts.push(OpInst::clone(inst));
                u32::try_from(insts.len() - 1).expect("too many slots")
            })
        };
        let states = stg
            .states()
            .iter()
            .map(|st| SlotState {
                ops: st
                    .ops
                    .iter()
                    .map(|op| {
                        let arity = op.operands.len();
                        assert!(arity <= MAX_ARGS, "{} has {arity} operands", op.inst);
                        let mut args = [Arg::Const(0); MAX_ARGS];
                        for (a, o) in args.iter_mut().zip(&op.operands) {
                            *a = match o {
                                ValRef::Const(v) => Arg::Const(*v),
                                ValRef::Input(i) => Arg::Input(*i),
                                ValRef::Inst(inst) => Arg::Slot(slot(inst)),
                            };
                        }
                        SlotOp {
                            dest: slot(&op.inst),
                            op: op.inst.op,
                            args,
                            arity,
                        }
                    })
                    .collect(),
                transitions: st
                    .transitions
                    .iter()
                    .map(|t| SlotTransition {
                        when: t.when.iter().map(|(c, want)| (slot(c), *want)).collect(),
                        target: t.target,
                        renames: t
                            .renames
                            .iter()
                            .map(|(f, to)| (slot(f), slot(to)))
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        SlotPlan { states, insts }
    }

    /// The lowered state `id`.
    #[inline]
    pub fn state(&self, id: StateId) -> &SlotState {
        &self.states[id.index()]
    }

    /// Number of slots (distinct instances the STG mentions).
    pub fn slot_count(&self) -> usize {
        self.insts.len()
    }

    /// The instance behind a slot.
    pub fn inst(&self, slot: u32) -> &OpInst {
        &self.insts[slot as usize]
    }
}

/// A set of slots, one bit per slot of a [`SlotPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    /// An empty set over `slots` slots.
    pub fn new(slots: usize) -> Self {
        SlotSet {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    /// Whether `slot` is in the set.
    #[inline]
    pub fn contains(&self, slot: u32) -> bool {
        self.words[slot as usize / 64] & (1 << (slot % 64)) != 0
    }

    /// Adds `slot`.
    #[inline]
    pub fn insert(&mut self, slot: u32) {
        self.words[slot as usize / 64] |= 1 << (slot % 64);
    }

    /// Removes `slot`, returning whether it was present.
    #[inline]
    pub fn remove(&mut self, slot: u32) -> bool {
        let present = self.contains(slot);
        self.words[slot as usize / 64] &= !(1 << (slot % 64));
        present
    }

    /// Number of slots in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Removes every slot.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self ∪= other`.
    pub fn union_with(&mut self, other: &SlotSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self −= other`.
    pub fn difference_with(&mut self, other: &SlotSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `self ∩= other`, returning whether `self` changed.
    pub fn intersect_with(&mut self, other: &SlotSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            changed |= *a & !b != 0;
            *a &= b;
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScheduledOp, Transition};

    fn inst(op: u32, iter: Vec<u32>) -> OpInst {
        OpInst::new(OpId::new(op), iter)
    }

    #[test]
    fn slots_are_dense_in_first_mention_order() {
        let (x1, x0, y, c) = (
            inst(1, vec![1]),
            inst(1, vec![0]),
            inst(2, vec![]),
            inst(3, vec![]),
        );
        let mut g = Stg::new("t");
        let (start, stop) = (g.start(), g.stop());
        g.state_mut(start).ops.push(ScheduledOp {
            inst: y.clone(),
            operands: vec![
                ValRef::Inst(x1.clone()),
                ValRef::Const(-7),
                ValRef::Input(InputId::new(2)),
            ],
            latency: 1,
            guard_str: "1".into(),
        });
        g.state_mut(start).ops.push(ScheduledOp {
            inst: c.clone(),
            operands: vec![ValRef::Inst(y.clone()), ValRef::Inst(x1.clone())],
            latency: 1,
            guard_str: "1".into(),
        });
        g.state_mut(start).transitions.push(Transition {
            when: vec![(c.clone(), false)],
            target: stop,
            renames: vec![(x1.clone(), x0.clone()), (y.clone(), x1.clone())],
        });
        let plan = SlotPlan::new(&g);

        assert_eq!(plan.slot_count(), 4);
        let st = plan.state(start);
        assert_eq!((st.ops[0].dest, st.ops[0].op), (1, OpId::new(2)));
        assert_eq!(
            st.ops[0].args(),
            &[Arg::Slot(0), Arg::Const(-7), Arg::Input(InputId::new(2))]
        );
        assert_eq!(st.ops[1].dest, 2);
        assert_eq!(st.ops[1].args(), &[Arg::Slot(1), Arg::Slot(0)]);
        let t = &st.transitions[0];
        assert_eq!((t.when.as_slice(), t.target), (&[(2, false)][..], stop));
        assert_eq!(t.renames, vec![(0, 3), (1, 0)]);
        for (s, want) in [x1, y, c, x0].iter().enumerate() {
            assert_eq!(plan.inst(s as u32), want);
        }
        assert!(plan.state(stop).ops.is_empty());
    }

    #[test]
    fn slot_set_operations() {
        let mut a = SlotSet::new(130);
        assert_eq!(a.count(), 0);
        for s in [0, 63, 64, 129] {
            a.insert(s);
        }
        assert_eq!(a.count(), 4);
        assert!(a.contains(129) && !a.contains(1));
        assert!(a.remove(63) && !a.remove(63));

        let mut b = SlotSet::new(130);
        b.insert(64);
        b.insert(5);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 4);
        u.difference_with(&b);
        assert_eq!(u.count(), 2);
        assert!(a.intersect_with(&b), "0 and 129 dropped");
        assert!(!a.intersect_with(&b), "already a subset");
        assert!(a.contains(64) && a.count() == 1);
        a.clear();
        assert_eq!(a.count(), 0);
    }
}
