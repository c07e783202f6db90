//! Wavesched and Wavesched-spec: scheduling of control-flow intensive
//! behavioral descriptions with fine-grained multi-path speculative
//! execution.
//!
//! This crate implements the scheduling algorithm of
//! *"Incorporating Speculative Execution into Scheduling of Control-flow
//! Intensive Behavioral Descriptions"* (Lakshminarayana, Raghunathan,
//! Jha — DAC 1998), together with the non-speculative Wavesched baseline
//! it extends and the single-path-speculation policy it is compared
//! against (Example 3 / Fig. 7).
//!
//! # Algorithm shape (Fig. 12 of the paper)
//!
//! The scheduler maintains a worklist of controller states, each carrying
//! a *context*: the value versions computed so far (with their
//! speculation-condition guards), in-flight multi-cycle operations,
//! outstanding side-effect obligations, and the set of schedulable
//! conditioned operation instances. Dequeuing a state:
//!
//! 1. partitions the schedulable set by the combinations of conditions
//!    resolved in that state (guards are cofactored; operations whose
//!    guard collapses to 0 are invalidated and dropped — Sec. 4.3
//!    Step 2);
//! 2. grows one successor state per combination by repeatedly selecting
//!    the feasible candidate with the highest criticality
//!    `λ(op) · P(guard)` (Eq. 5), honoring allocation constraints,
//!    multi-cycle/pipelined unit occupancy and chaining limits, and
//!    extending the schedulable set with newly enabled successors
//!    (Observation 1, Lemma 1 — including speculation through selects,
//!    across branch nests, and across loop iterations);
//! 3. folds states that are equivalent to an existing state modulo a
//!    uniform iteration-index shift, emitting register renames on the
//!    fold edge (the variable relabelings of Example 10) — this is what
//!    turns unbounded loop unrolling into finite steady-state pipelines
//!    like Fig. 2(b)'s S7 ↔ S8.
//!
//! # Scheduling modes
//!
//! * [`Mode::NonSpeculative`] — the Wavesched baseline: an operation is
//!   schedulable only once its control dependencies are resolved (guard
//!   must already be constant-true). Implicit loop unrolling and
//!   mutual-exclusion exploitation still apply.
//! * [`Mode::Speculative`] — Wavesched-spec: fine-grain speculation along
//!   *multiple* paths simultaneously, as resources allow.
//! * [`Mode::SinglePath`] — speculation restricted to the most probable
//!   outcome of every condition (the coarse-grain policy of [3, 5] that
//!   Example 3 shows is dominated by multi-path speculation).
//!
//! # Example
//!
//! ```
//! use hls_lang::Program;
//! use hls_resources::{Allocation, FuClass, Library};
//! use cdfg::analysis::BranchProbs;
//! use wavesched::{schedule, Mode, SchedConfig};
//!
//! let p = Program::parse(
//!     "design gcd { input x, y; output g; var a = x; var b = y;
//!      while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } }
//!      g = a; }",
//! )?;
//! let g = hls_lang::lower::compile(&p)?;
//! let alloc = Allocation::new()
//!     .with(FuClass::Subtracter, 2)
//!     .with(FuClass::Comparator, 1)
//!     .with(FuClass::EqComparator, 2);
//! let result = schedule(
//!     &g,
//!     &Library::dac98(),
//!     &alloc,
//!     &BranchProbs::new(),
//!     &SchedConfig::new(Mode::Speculative),
//! )?;
//! assert!(result.stg.working_state_count() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod engine;
mod fault;
mod resilient;
mod resolve;
mod sig;

pub use engine::{schedule, PhaseStat, PhaseTimers, SchedStats, ScheduleResult};
pub use fault::{FaultPlan, FaultStats, Probe};
pub use resilient::{schedule_resilient, AttemptRecord, Degradation, ResilientFailure};

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Wavesched baseline: no speculation; operations wait for their
    /// control dependencies to resolve.
    NonSpeculative,
    /// Wavesched-spec: fine-grain multi-path speculative execution (the
    /// paper's contribution).
    Speculative,
    /// Speculation only along the most probable outcome of each
    /// condition (the coarse-grain baseline of Example 3 / Fig. 7).
    SinglePath,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::NonSpeculative => write!(f, "wavesched"),
            Mode::Speculative => write!(f, "wavesched-spec"),
            Mode::SinglePath => write!(f, "single-path-spec"),
        }
    }
}

/// Cooperative cancellation token: a shared flag the scheduler polls
/// at every state (tick) boundary. Cloning shares the flag, so a
/// driver thread can hold one clone and cancel a schedule running on
/// another thread; the engine returns [`SchedError::Cancelled`] at the
/// next boundary.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; takes effect at the
    /// scheduler's next state boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Resource budget for one scheduling run, combining the hard
/// iteration/state caps already in [`SchedConfig`] with a wall-clock
/// deadline and a cooperative cancellation token. Both are checked at
/// state (tick) boundaries — the granularity at which the worklist
/// algorithm naturally quiesces — so neither imposes per-issue
/// overhead.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Wall-clock deadline in milliseconds, measured from engine
    /// construction. Exceeding it aborts with
    /// [`SchedError::Deadline`]. `None` disables the deadline.
    pub deadline_ms: Option<u64>,
    /// Cooperative cancellation token. When cancelled, the run aborts
    /// with [`SchedError::Cancelled`] at the next state boundary.
    pub cancel: Option<CancelToken>,
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// The scheduling policy.
    pub mode: Mode,
    /// Maximum number of unresolved conditions an operation may be
    /// speculated on (the support size of its guard). Bounds the
    /// speculation frontier; the paper's examples need ≤ 4.
    pub max_spec_depth: usize,
    /// Maximum number of simultaneously live versions per operation
    /// instance (distinct operand choices, Example 6): issued versions
    /// plus candidates. Additional versions beyond the most probable
    /// ones are not instantiated.
    pub max_versions: usize,
    /// Hard cap on controller states; exceeding it aborts with
    /// [`SchedError::StateLimit`] rather than running away.
    pub max_states: usize,
    /// Hard cap on scheduling worklist iterations (safety net).
    pub max_iterations: usize,
    /// Testing oracle: run the candidate sweep in reference mode —
    /// regenerate every op each pass and rebuild the
    /// criticality-ordered ready list by a full re-sort after every
    /// issue — instead of the incremental event-driven sweep.
    /// Schedules must be identical either way; differential tests
    /// compare the two. Off by default (the incremental sweep is
    /// asymptotically cheaper and is the production path).
    pub reference_sweep: bool,
    /// Wall-clock deadline and cooperative cancellation, layered on
    /// top of the state/iteration caps above. Default: unlimited.
    pub budget: Budget,
    /// Deterministic fault-injection plan (testing only). `None` — the
    /// default — injects nothing and adds no per-boundary overhead.
    pub faults: Option<FaultPlan>,
}

impl SchedConfig {
    /// Defaults tuned for the paper's benchmark scale.
    pub fn new(mode: Mode) -> Self {
        SchedConfig {
            mode,
            max_spec_depth: 4,
            max_versions: 4,
            max_states: 2048,
            max_iterations: 100_000,
            reference_sweep: false,
            budget: Budget::default(),
            faults: None,
        }
    }
}

/// Errors reported by the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The state cap was exceeded (the design needs a larger
    /// [`SchedConfig::max_states`] or a tighter speculation depth).
    StateLimit(usize),
    /// The worklist iteration cap was exceeded.
    IterationLimit(usize),
    /// The scheduler reached a context in which outstanding side effects
    /// exist but nothing is schedulable — a resource deadlock, e.g. an
    /// allocation that grants zero units of a class the design needs.
    /// Carries a structured liveness report of what each blocked
    /// instance is waiting for.
    Stuck(StuckReport),
    /// The wall-clock budget ([`Budget::deadline_ms`]) expired before
    /// the schedule completed.
    Deadline {
        /// The budget that was exceeded, in milliseconds (0 for an
        /// artificially injected exhaustion).
        budget_ms: u64,
    },
    /// The run was cancelled through its [`CancelToken`].
    Cancelled,
    /// An engine or BDD invariant was violated — either a panic caught
    /// at the [`schedule`] boundary, or a containment audit (gc
    /// idempotence, dropped-sweep-event reference pass) detecting a
    /// divergence a fault injection caused. One bad CDFG reports this
    /// instead of taking down the whole batch.
    Internal {
        /// What failed, suitable for logging.
        context: String,
    },
    /// One operation's live iteration window held more `(op, iteration)`
    /// pairs than the scheduler enumerates (the limit). A window cut
    /// short would hide pairs from gc's liveness walk; a tighter
    /// speculation depth narrows the window, so the run can be retried.
    WindowLimit(usize),
    /// The CDFG nests loops deeper than the scheduler supports: every
    /// operation instance carries one iteration index per enclosing
    /// loop, held inline with a fixed capacity. Rejected before
    /// scheduling starts; retrying cannot help.
    NestTooDeep {
        /// The CDFG's deepest loop nest.
        depth: usize,
        /// The deepest nest the scheduler accepts.
        max: usize,
    },
}

impl SchedError {
    /// Stable machine-readable tag for this error variant.
    pub fn kind(&self) -> &'static str {
        match self {
            SchedError::StateLimit(_) => "state_limit",
            SchedError::IterationLimit(_) => "iteration_limit",
            SchedError::WindowLimit(_) => "window_limit",
            SchedError::Stuck(_) => "stuck",
            SchedError::Deadline { .. } => "deadline",
            SchedError::Cancelled => "cancelled",
            SchedError::Internal { .. } => "internal",
            SchedError::NestTooDeep { .. } => "nest_too_deep",
        }
    }

    /// Whether the degradation chain may retry after this error.
    /// Everything is retryable except an explicit cancellation — the
    /// caller asked the run to stop, so falling back would defy them —
    /// and a too-deep loop nest, which no configuration schedules.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, SchedError::Cancelled | SchedError::NestTooDeep { .. })
    }

    /// Serializes the error as a single JSON object (hand-rolled; the
    /// workspace is dependency-free by design).
    pub fn to_json(&self) -> String {
        match self {
            SchedError::StateLimit(n) => {
                format!("{{\"kind\":\"state_limit\",\"limit\":{n}}}")
            }
            SchedError::IterationLimit(n) => {
                format!("{{\"kind\":\"iteration_limit\",\"limit\":{n}}}")
            }
            SchedError::WindowLimit(n) => {
                format!("{{\"kind\":\"window_limit\",\"limit\":{n}}}")
            }
            SchedError::Stuck(r) => format!(
                "{{\"kind\":\"stuck\",\"headline\":\"{}\",\"starved_classes\":[{}],\"blocked\":{}}}",
                json_escape(&r.headline),
                r.starved_classes
                    .iter()
                    .map(|c| format!("\"{}\"", json_escape(c)))
                    .collect::<Vec<_>>()
                    .join(","),
                r.blocked.len()
            ),
            SchedError::Deadline { budget_ms } => {
                format!("{{\"kind\":\"deadline\",\"budget_ms\":{budget_ms}}}")
            }
            SchedError::Cancelled => "{\"kind\":\"cancelled\"}".to_string(),
            SchedError::Internal { context } => {
                format!(
                    "{{\"kind\":\"internal\",\"context\":\"{}\"}}",
                    json_escape(context)
                )
            }
            SchedError::NestTooDeep { depth, max } => {
                format!("{{\"kind\":\"nest_too_deep\",\"depth\":{depth},\"max\":{max}}}")
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::StateLimit(n) => write!(f, "state limit of {n} states exceeded"),
            SchedError::IterationLimit(n) => write!(f, "iteration limit of {n} exceeded"),
            SchedError::WindowLimit(n) => write!(f, "iteration window of over {n} pairs"),
            SchedError::Stuck(r) => write!(f, "scheduling deadlock: {}", r.headline),
            SchedError::Deadline { budget_ms } => {
                write!(f, "wall-clock budget of {budget_ms} ms exceeded")
            }
            SchedError::Cancelled => write!(f, "schedule cancelled"),
            SchedError::Internal { context } => write!(f, "internal scheduler error: {context}"),
            SchedError::NestTooDeep { depth, max } => {
                write!(f, "loop nest of depth {depth} exceeds the supported {max}")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Structured liveness diagnosis of a scheduling deadlock: which
/// instances are blocked, on what (operand versions, memory-order
/// tokens, starved functional-unit classes), and the loop bookkeeping
/// of the stuck context. [`fmt::Display`] renders the full multi-line
/// report; [`SchedError::Stuck`]'s `Display` shows only the headline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StuckReport {
    /// One-line summary (what the old string error carried).
    pub headline: String,
    /// Functional-unit classes required by some blocked candidate but
    /// granted zero units by the allocation.
    pub starved_classes: Vec<String>,
    /// Every unsatisfied candidate and obligation in the stuck state.
    pub blocked: Vec<BlockedInst>,
    /// Per-loop bookkeeping lines (`horizon`/`floor`/`work_floor`) of
    /// the stuck context, for cross-loop serialization diagnosis.
    pub loop_state: Vec<String>,
}

impl fmt::Display for StuckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.headline)?;
        if !self.starved_classes.is_empty() {
            writeln!(
                f,
                "  starved FU classes: {}",
                self.starved_classes.join(", ")
            )?;
        }
        for b in &self.blocked {
            writeln!(
                f,
                "  blocked {}{:?} guard={} — {}",
                b.op, b.iter, b.guard, b.reason
            )?;
        }
        for l in &self.loop_state {
            writeln!(f, "  {l}")?;
        }
        Ok(())
    }
}

/// One blocked operation instance inside a [`StuckReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedInst {
    /// Operation name.
    pub op: String,
    /// Iteration vector of the instance.
    pub iter: Vec<u32>,
    /// Speculation guard, rendered as a sum of products over named
    /// condition instances.
    pub guard: String,
    /// Why the instance cannot issue (unresolved memory-order token,
    /// missing operand version, FU starvation, depth cap, …).
    pub reason: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_display() {
        assert_eq!(Mode::NonSpeculative.to_string(), "wavesched");
        assert_eq!(Mode::Speculative.to_string(), "wavesched-spec");
        assert_eq!(Mode::SinglePath.to_string(), "single-path-spec");
    }

    #[test]
    fn config_defaults() {
        let c = SchedConfig::new(Mode::Speculative);
        assert_eq!(c.mode, Mode::Speculative);
        assert!(c.max_spec_depth >= 2);
        assert!(c.max_states >= 64);
    }

    #[test]
    fn error_display() {
        assert!(SchedError::StateLimit(5).to_string().contains('5'));
        let r = StuckReport {
            headline: "no adder".into(),
            ..StuckReport::default()
        };
        assert!(SchedError::Stuck(r).to_string().contains("no adder"));
    }

    #[test]
    fn stuck_report_display_lists_blockers() {
        let r = StuckReport {
            headline: "no progress towards out[]".into(),
            starved_classes: vec!["multiplier".into()],
            blocked: vec![BlockedInst {
                op: "t0".into(),
                iter: vec![1],
                guard: "c_0".into(),
                reason: "no multiplier allocated".into(),
            }],
            loop_state: vec!["loop l0: horizon=1 floor=0".into()],
        };
        let s = r.to_string();
        assert!(s.contains("starved FU classes: multiplier"));
        assert!(s.contains("blocked t0[1] guard=c_0 — no multiplier allocated"));
        assert!(s.contains("loop l0"));
    }
}
