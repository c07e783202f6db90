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
//! operation carries concrete operand references ([`Arg`]), so a
//! cycle-accurate simulator (in `hls-sim`) can execute the schedule
//! without consulting the scheduler again. Every value is named by a
//! dense *slot* of the STG's instance table, so its consumers — the
//! simulator, RTL binding and [`validate_dataflow`] — index arrays and
//! [`SlotSet`]s by slot and never hash an instance.
//!
//! Key types: [`Stg`], [`State`], [`ScheduledOp`], [`Transition`],
//! [`OpInst`] (an operation instance `op_iter` in the paper's notation),
//! and [`Arg`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dump;
mod graph;
mod inline;
mod inst;
mod slots;
mod validate;

pub use dump::render_text;
pub use graph::{ArityError, ScheduledOp, State, StateId, Stg, Transition};
pub use inline::{InlineVec, MAX_NEST};
pub use inst::{Arg, IterVec, OpInst, MAX_ARGS};
pub use slots::SlotSet;
pub use validate::{validate_dataflow, DataflowError};
