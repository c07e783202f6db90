//! State transition graph (STG) representation for scheduled behavioral
//! descriptions.
//!
//! The output of the Wavesched / Wavesched-spec schedulers is an STG
//! (Figs. 2, 5, 7, 14 of the DAC'98 paper): vertices are controller
//! states executing a set of *operation instances*, edges are controller
//! transitions labelled with the combination of just-resolved condition
//! outcomes that activates them, and fold-back edges (from implicit loop
//! unrolling) carry register-to-register *renames* that relabel instance
//! versions, exactly like the variable relabelings of Example 10.
//!
//! The STG is deliberately self-contained for execution: every scheduled
//! operation carries concrete operand references ([`ValRef`]), so a
//! cycle-accurate simulator (in `hls-sim`) can execute the schedule
//! without consulting the scheduler again. Its consumers — the
//! simulator, RTL binding and [`validate_dataflow`] — read it through one
//! [`SlotPlan`], which names every instance by a dense slot.
//!
//! Key types: [`Stg`], [`State`], [`ScheduledOp`], [`Transition`],
//! [`OpInst`] (an operation instance `op_iter` in the paper's notation),
//! and [`ValRef`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dump;
mod graph;
mod inline;
mod inst;
mod slots;
mod validate;

pub use dump::render_text;
pub use graph::{ScheduledOp, State, StateId, Stg, Transition};
pub use inline::{InlineVec, MAX_NEST};
pub use inst::{IterVec, OpInst, ValRef};
pub use slots::{Arg, SlotOp, SlotPlan, SlotSet, SlotState, SlotTransition, MAX_ARGS};
pub use validate::{validate_dataflow, DataflowError};
