//! Failure-containment tests: every resource-exhaustion path of the
//! scheduler must surface as the *exact* structured [`SchedError`]
//! variant it documents, and the graceful-degradation chain must
//! recover from cap trips that a less aggressive configuration avoids.

use hls_lang::Program;
use hls_resources::{Allocation, FuClass, Library};
use wavesched::{
    schedule, schedule_resilient, CancelToken, FaultPlan, Mode, SchedConfig, SchedError,
};

const GCD: &str = "design gcd { input x, y; output g; var a = x; var b = y;
    while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";

fn gcd_cdfg() -> cdfg::Cdfg {
    let p = Program::parse(GCD).unwrap();
    hls_lang::lower::compile(&p).unwrap()
}

fn gcd_alloc() -> Allocation {
    Allocation::new()
        .with(FuClass::Subtracter, 2)
        .with(FuClass::Comparator, 1)
        .with(FuClass::EqComparator, 2)
}

fn sched_with(cfg: &SchedConfig) -> Result<wavesched::ScheduleResult, SchedError> {
    schedule(
        &gcd_cdfg(),
        &Library::dac98(),
        &gcd_alloc(),
        &Default::default(),
        cfg,
    )
}

/// Suppresses the default panic-hook backtrace spew for panics the
/// engine is *expected* to catch (injected faults), forwarding
/// everything else to the previous hook. Installed once per process.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("injected fault") {
                prev(info);
            }
        }));
    });
}

#[test]
fn tiny_state_cap_trips_state_limit_exactly() {
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_states = 2;
    let err = sched_with(&cfg).unwrap_err();
    assert_eq!(err, SchedError::StateLimit(2));
    assert_eq!(err.kind(), "state_limit");
    assert!(err.is_retryable());
    assert_eq!(err.to_json(), "{\"kind\":\"state_limit\",\"limit\":2}");
}

#[test]
fn tiny_iteration_cap_trips_iteration_limit_exactly() {
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_iterations = 1;
    let err = sched_with(&cfg).unwrap_err();
    assert_eq!(err, SchedError::IterationLimit(1));
    assert_eq!(err.kind(), "iteration_limit");
    assert!(err.is_retryable());
}

#[test]
fn zero_deadline_trips_deadline_exactly() {
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.budget.deadline_ms = Some(0);
    let err = sched_with(&cfg).unwrap_err();
    assert_eq!(err, SchedError::Deadline { budget_ms: 0 });
    assert_eq!(err.kind(), "deadline");
    assert_eq!(err.to_json(), "{\"kind\":\"deadline\",\"budget_ms\":0}");
}

#[test]
fn pre_cancelled_token_trips_cancelled_exactly() {
    let token = CancelToken::new();
    token.cancel();
    assert!(token.is_cancelled());
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.budget.cancel = Some(token);
    let err = sched_with(&cfg).unwrap_err();
    assert_eq!(err, SchedError::Cancelled);
    assert_eq!(err.kind(), "cancelled");
    assert!(!err.is_retryable(), "cancellation must not be retried");
}

#[test]
fn cancellation_from_another_thread_stops_the_run() {
    // A run that would otherwise trip the iteration cap gets cancelled
    // mid-flight from a driver thread; the engine must notice at a
    // state boundary and return Cancelled (or the token was set before
    // the run even started — also Cancelled).
    let token = CancelToken::new();
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.budget.cancel = Some(token.clone());
    let handle = std::thread::spawn(move || sched_with(&cfg));
    token.cancel();
    match handle.join().unwrap() {
        Ok(_) => (), // the run won the race — equally valid
        Err(e) => assert_eq!(e, SchedError::Cancelled),
    }
}

#[test]
fn injected_panic_is_contained_as_internal() {
    quiet_injected_panics();
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.faults = Some(FaultPlan::parse("0:1:panic").unwrap());
    let err = sched_with(&cfg).unwrap_err();
    match &err {
        SchedError::Internal { context } => {
            assert!(
                context.contains("injected fault: panic probe"),
                "panic payload must be preserved in the context: {context}"
            );
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(err.kind(), "internal");
    assert!(err.is_retryable());
}

#[test]
fn dropped_sweep_event_is_caught_by_the_reference_audit() {
    // Dropping every dirty-marking event hides candidates from the
    // incremental sweep; the audit pass that chases each fixpoint must
    // find them and abort rather than ship a divergent schedule.
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.faults = Some(FaultPlan::parse("1:1:drop-sweep").unwrap());
    match sched_with(&cfg).unwrap_err() {
        SchedError::Internal { context } => assert!(
            context.contains("reference audit"),
            "the audit names itself: {context}"
        ),
        other => panic!("expected the audit's Internal error, got {other:?}"),
    }
}

#[test]
fn resilient_chain_recovers_from_speculative_cap_trip() {
    // TLC's multi-path speculative frontier creates several times more
    // states than its non-speculative baseline. A state cap sized to
    // the baseline trips the aggressive attempts; the chain must
    // degrade and still return a schedule, recording every failed
    // attempt on the way.
    let w = workloads::tlc().unwrap();
    let sched_tlc =
        |cfg: &SchedConfig| schedule(&w.cdfg, &w.library, &w.allocation, &Default::default(), cfg);
    let baseline_states = {
        let r = sched_tlc(&SchedConfig::new(Mode::NonSpeculative)).unwrap();
        r.stats.states
    };
    let spec_states = {
        let r = sched_tlc(&SchedConfig::new(Mode::Speculative)).unwrap();
        r.stats.states
    };
    assert!(
        spec_states > baseline_states,
        "speculation must create more states for this test to bite \
         (spec {spec_states} vs baseline {baseline_states})"
    );
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_states = baseline_states;
    // Sanity: the direct call trips the cap.
    assert_eq!(
        sched_tlc(&cfg).unwrap_err(),
        SchedError::StateLimit(baseline_states)
    );
    let (r, d) = schedule_resilient(
        &w.cdfg,
        &w.library,
        &w.allocation,
        &Default::default(),
        &cfg,
    )
    .expect("the chain ends at the baseline, which fits the cap");
    assert!(d.degraded(), "recovery must have taken a fallback");
    assert_eq!(r.stats.attempts as usize, d.attempts.len());
    let last = d.attempts.last().unwrap();
    assert!(last.error.is_none(), "last attempt produced the schedule");
    assert!(
        d.attempts[..d.attempts.len() - 1]
            .iter()
            .all(|a| matches!(a.error, Some(SchedError::StateLimit(_)))),
        "every earlier attempt tripped the cap: {d}"
    );
    assert_eq!(r.stg.check(), Ok(()), "degraded schedule is still sound");
}

#[test]
fn resilient_chain_stops_on_cancellation() {
    let token = CancelToken::new();
    token.cancel();
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.budget.cancel = Some(token);
    let f = schedule_resilient(
        &gcd_cdfg(),
        &Library::dac98(),
        &gcd_alloc(),
        &Default::default(),
        &cfg,
    )
    .unwrap_err();
    assert_eq!(f.error, SchedError::Cancelled);
    assert_eq!(
        f.degradation.attempts.len(),
        1,
        "cancellation must not be retried: {}",
        f.degradation
    );
}

#[test]
fn resilient_chain_reports_every_attempt_on_terminal_failure() {
    // An iteration cap of 1 fails every configuration in the chain;
    // the failure must carry all four attempts, each with the exact
    // variant, and valid JSON for the batch drivers.
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_iterations = 1;
    let f = schedule_resilient(
        &gcd_cdfg(),
        &Library::dac98(),
        &gcd_alloc(),
        &Default::default(),
        &cfg,
    )
    .unwrap_err();
    assert_eq!(f.error, SchedError::IterationLimit(1));
    assert_eq!(f.degradation.attempts.len(), 4);
    assert!(f
        .degradation
        .attempts
        .iter()
        .all(|a| a.error == Some(SchedError::IterationLimit(1))));
    let j = f.degradation.to_json();
    assert_eq!(j.matches("\"kind\":\"iteration_limit\"").count(), 4);
}

/// A design whose `while` loops nest `depth` deep, the innermost one
/// accumulating into `s`.
fn nested_loops_cdfg(depth: usize) -> cdfg::Cdfg {
    let mut src = String::from("design deep { input n; output o; var s = 0;");
    for d in 0..depth {
        src += &format!(" var i{d} = 0; while (i{d} < n) {{");
    }
    src += " s = s + 1;";
    for d in (0..depth).rev() {
        src += &format!(" i{d} = i{d} + 1; }}");
    }
    src += " o = s; }";
    hls_lang::lower::compile(&Program::parse(&src).unwrap()).unwrap()
}

#[test]
fn too_deep_loop_nest_is_rejected_exactly_and_not_retried() {
    let g = nested_loops_cdfg(9);
    let deepest = g.ops().iter().map(|o| o.loop_path().len()).max();
    assert_eq!(deepest, Some(9));
    let alloc = Allocation::new()
        .with(FuClass::Adder, 1)
        .with(FuClass::Comparator, 1)
        .with(FuClass::Incrementer, 1);
    let lib = Library::dac98();
    let cfg = SchedConfig::new(Mode::Speculative);
    let err = schedule(&g, &lib, &alloc, &Default::default(), &cfg).unwrap_err();
    assert_eq!(err, SchedError::NestTooDeep { depth: 9, max: 8 });
    assert_eq!(err.kind(), "nest_too_deep");
    assert!(!err.is_retryable());
    assert_eq!(
        err.to_json(),
        "{\"kind\":\"nest_too_deep\",\"depth\":9,\"max\":8}"
    );
    let f = schedule_resilient(&g, &lib, &alloc, &Default::default(), &cfg).unwrap_err();
    assert_eq!(f.error, err);
    assert_eq!(
        f.degradation.attempts.len(),
        1,
        "no configuration schedules a too-deep nest: {}",
        f.degradation
    );
}

#[test]
fn budget_large_enough_changes_nothing() {
    // A generous deadline must not perturb the schedule: byte-identical
    // to the unbudgeted run.
    let clean = sched_with(&SchedConfig::new(Mode::Speculative)).unwrap();
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.budget.deadline_ms = Some(600_000);
    let budgeted = sched_with(&cfg).unwrap();
    assert_eq!(
        format!("{:?}", clean.stg),
        format!("{:?}", budgeted.stg),
        "deadline checking must be semantically invisible"
    );
}
