//! Graceful-degradation driver: scheduling with a fallback chain.
//!
//! [`schedule_resilient`] wraps [`schedule`](crate::schedule) in a
//! degradation chain. When an attempt fails retryably (caps, deadlock,
//! deadline, internal error), the driver retries with progressively
//! less aggressive configurations — tightened speculation knobs first,
//! then single-path speculation, then the non-speculative baseline —
//! and returns the first schedule that fits together with a structured
//! [`Degradation`] record of every attempt and why it failed. A
//! speculative schedule is an optimization, not a contract: a daemon
//! serving scheduling requests should degrade to a slower-but-valid
//! schedule rather than fail the request outright.

use crate::engine::{schedule, ScheduleResult};
use crate::{json_escape, Mode, SchedConfig, SchedError};
use cdfg::analysis::BranchProbs;
use cdfg::Cdfg;
use hls_resources::{Allocation, Library};
use std::fmt;
use std::time::Instant;

/// One attempt of the degradation chain: the configuration tried and
/// how it ended (`None` = success).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Scheduling policy of the attempt.
    pub mode: Mode,
    /// Speculation-depth knob of the attempt.
    pub max_spec_depth: usize,
    /// Version-cap knob of the attempt.
    pub max_versions: usize,
    /// Why the attempt failed, or `None` if it produced the schedule.
    pub error: Option<SchedError>,
}

impl fmt::Display for AttemptRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (depth={}, versions={}): {}",
            self.mode,
            self.max_spec_depth,
            self.max_versions,
            match &self.error {
                None => "ok".to_string(),
                Some(e) => e.to_string(),
            }
        )
    }
}

/// Structured record of a degradation chain: every attempt in order.
/// The last attempt is the one that produced the returned schedule (on
/// success) or the terminal error (on failure).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Degradation {
    /// The attempts, in the order they ran.
    pub attempts: Vec<AttemptRecord>,
}

impl Degradation {
    /// Whether any fallback was taken (more than one attempt ran).
    pub fn degraded(&self) -> bool {
        self.attempts.len() > 1
    }

    /// Serializes the record as a JSON array of attempt objects
    /// (hand-rolled; the workspace is dependency-free by design).
    pub fn to_json(&self) -> String {
        let attempts: Vec<String> = self
            .attempts
            .iter()
            .map(|a| {
                format!(
                    "{{\"mode\":\"{}\",\"max_spec_depth\":{},\"max_versions\":{},\"error\":{}}}",
                    json_escape(&a.mode.to_string()),
                    a.max_spec_depth,
                    a.max_versions,
                    match &a.error {
                        None => "null".to_string(),
                        Some(e) => e.to_json(),
                    }
                )
            })
            .collect();
        format!("[{}]", attempts.join(","))
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "attempt {}: {}", i + 1, a)?;
        }
        Ok(())
    }
}

/// Terminal failure of [`schedule_resilient`]: the error of the last
/// attempt plus the full degradation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilientFailure {
    /// The last attempt's error.
    pub error: SchedError,
    /// Every attempt that ran, including the failing one.
    pub degradation: Degradation,
}

impl fmt::Display for ResilientFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scheduling failed after {} attempt(s): {}",
            self.degradation.attempts.len(),
            self.error
        )
    }
}

impl std::error::Error for ResilientFailure {}

/// The configurations the chain will try, most aggressive first. Each
/// entry is `(mode, max_spec_depth, max_versions)`; consecutive
/// duplicates are elided.
fn attempt_plan(cfg: &SchedConfig) -> Vec<(Mode, usize, usize)> {
    let mut plan = vec![(cfg.mode, cfg.max_spec_depth, cfg.max_versions)];
    let push = |plan: &mut Vec<(Mode, usize, usize)>, entry: (Mode, usize, usize)| {
        if !plan.contains(&entry) {
            plan.push(entry);
        }
    };
    if cfg.mode != Mode::NonSpeculative {
        // Tightened knobs: halve the speculation frontier and the
        // version cap (floored at 1 — zero depth is the baseline's
        // job, reached below).
        let depth = (cfg.max_spec_depth / 2).max(1);
        let versions = (cfg.max_versions / 2).max(1);
        push(&mut plan, (cfg.mode, depth, versions));
        if cfg.mode == Mode::Speculative {
            // Path-based speculation: one path per condition is
            // inherently narrower than multi-path.
            push(&mut plan, (Mode::SinglePath, depth, versions));
        }
        push(&mut plan, (Mode::NonSpeculative, depth, versions));
    }
    plan
}

/// Schedules `g` with graceful degradation.
///
/// Runs [`schedule`](crate::schedule) under `cfg`; on a retryable
/// failure (`StateLimit`, `IterationLimit`, `Stuck`, `Deadline`,
/// `Internal` — everything except an explicit cancellation and a
/// too-deep loop nest) retries
/// down the chain: tightened speculation knobs, then
/// [`Mode::SinglePath`], then [`Mode::NonSpeculative`].
///
/// The wall-clock budget, if any, is shared across the whole chain:
/// each attempt runs under the time remaining, and an exhausted budget
/// terminates the chain rather than starting attempts doomed to
/// instant [`SchedError::Deadline`].
///
/// On success the returned [`ScheduleResult`]'s
/// [`attempts`](crate::SchedStats::attempts) counter carries the chain
/// length, and the [`Degradation`] record lists every attempt.
pub fn schedule_resilient(
    g: &Cdfg,
    lib: &Library,
    alloc: &Allocation,
    probs: &BranchProbs,
    cfg: &SchedConfig,
) -> Result<(ScheduleResult, Degradation), ResilientFailure> {
    let start = Instant::now();
    let plan = attempt_plan(cfg);
    let last = plan.len() - 1;
    let mut degradation = Degradation::default();
    for (i, &(mode, depth, versions)) in plan.iter().enumerate() {
        let mut acfg = cfg.clone();
        acfg.mode = mode;
        acfg.max_spec_depth = depth;
        acfg.max_versions = versions;
        let mut exhausted = false;
        if let Some(total) = cfg.budget.deadline_ms {
            let used = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
            let remaining = total.saturating_sub(used);
            exhausted = remaining == 0 && i > 0;
            acfg.budget.deadline_ms = Some(remaining);
        }
        let record = |error: Option<SchedError>| AttemptRecord {
            mode,
            max_spec_depth: depth,
            max_versions: versions,
            error,
        };
        if exhausted {
            // Nothing left on the shared clock: record the doomed
            // attempt and stop instead of spinning up engines that
            // die on their first boundary check.
            let e = SchedError::Deadline {
                budget_ms: cfg.budget.deadline_ms.unwrap_or(0),
            };
            degradation.attempts.push(record(Some(e.clone())));
            return Err(ResilientFailure {
                error: e,
                degradation,
            });
        }
        match schedule(g, lib, alloc, probs, &acfg) {
            Ok(mut r) => {
                degradation.attempts.push(record(None));
                r.stats.attempts = u32::try_from(degradation.attempts.len()).unwrap_or(u32::MAX);
                return Ok((r, degradation));
            }
            Err(e) => {
                let retryable = e.is_retryable();
                degradation.attempts.push(record(Some(e.clone())));
                if !retryable || i == last {
                    return Err(ResilientFailure {
                        error: e,
                        degradation,
                    });
                }
            }
        }
    }
    unreachable!("attempt plan is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_shape_speculative() {
        let cfg = SchedConfig::new(Mode::Speculative);
        let plan = attempt_plan(&cfg);
        assert_eq!(plan[0], (Mode::Speculative, 4, 4));
        assert_eq!(plan[1], (Mode::Speculative, 2, 2));
        assert_eq!(plan[2], (Mode::SinglePath, 2, 2));
        assert_eq!(plan[3], (Mode::NonSpeculative, 2, 2));
    }

    #[test]
    fn plan_shape_single_path() {
        let cfg = SchedConfig::new(Mode::SinglePath);
        let plan = attempt_plan(&cfg);
        assert_eq!(plan[0], (Mode::SinglePath, 4, 4));
        assert_eq!(plan[1], (Mode::SinglePath, 2, 2));
        assert_eq!(plan[2], (Mode::NonSpeculative, 2, 2));
    }

    #[test]
    fn plan_shape_baseline() {
        let cfg = SchedConfig::new(Mode::NonSpeculative);
        assert_eq!(attempt_plan(&cfg), vec![(Mode::NonSpeculative, 4, 4)]);
    }

    #[test]
    fn plan_elides_duplicates_at_floor() {
        let mut cfg = SchedConfig::new(Mode::Speculative);
        cfg.max_spec_depth = 1;
        cfg.max_versions = 1;
        let plan = attempt_plan(&cfg);
        assert_eq!(
            plan,
            vec![
                (Mode::Speculative, 1, 1),
                (Mode::SinglePath, 1, 1),
                (Mode::NonSpeculative, 1, 1),
            ]
        );
    }

    #[test]
    fn degradation_json() {
        let d = Degradation {
            attempts: vec![
                AttemptRecord {
                    mode: Mode::Speculative,
                    max_spec_depth: 4,
                    max_versions: 4,
                    error: Some(SchedError::StateLimit(64)),
                },
                AttemptRecord {
                    mode: Mode::NonSpeculative,
                    max_spec_depth: 2,
                    max_versions: 2,
                    error: None,
                },
            ],
        };
        assert!(d.degraded());
        let j = d.to_json();
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"kind\":\"state_limit\""));
        assert!(j.contains("\"error\":null"));
    }
}
