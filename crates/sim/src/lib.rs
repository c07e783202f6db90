//! Simulation and measurement for scheduled behavioral descriptions.
//!
//! This crate provides the experimental methodology of Sec. 5 of the
//! DAC'98 paper, upgraded from "simulate a VHDL dump with Synopsys VSS"
//! to native, checkable machinery:
//!
//! * [`StgSimulator`] — cycle-accurate execution of a scheduled
//!   [`stg::Stg`]: one controller state per clock cycle, speculative
//!   operations execute unconditionally, condition outcomes select the
//!   transition, fold-edge renames perform the register transfers. It
//!   reports outputs, final memories, and the cycle count.
//! * [`exec`] — a direct CDFG executor, independent of the schedulers,
//!   used as a second golden model and as the **profiler** that produces
//!   branch probabilities from representative traces (the paper's
//!   "profiling information" input).
//! * [`trace`] — seeded zero-mean Gaussian input sequences (the paper's
//!   trace methodology).
//! * [`measure`](fn@measure) — end-to-end measurement: expected number of cycles,
//!   observed best/worst case, and functional-equivalence checking
//!   against the `hls-lang` interpreter.
//! * [`markov`] — the analytic expected-cycle count from the STG's
//!   absorbing Markov chain, cross-validating simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod markov;
mod measure;
mod sim;
pub mod trace;

pub use exec::{execute_cdfg, CdfgOutcome};
pub use measure::{measure, profile, MeasureError, Measurement};
pub use sim::{SimError, SimOutcome, StgSimulator};
