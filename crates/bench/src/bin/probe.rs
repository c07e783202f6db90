//! Quick per-workload probe: schedule one benchmark in one mode and
//! print its headline numbers. Handy for iterating on scheduler changes
//! without running the full Table-1 harness.
//!
//! Failure containment controls (ISSUE: budgeted, cancellable,
//! fault-injected scheduling):
//!
//! * `--budget-ms N` — wall-clock deadline for scheduling; an overrun
//!   fails with `SchedError::Deadline` instead of hanging.
//! * `--fallback` — schedule through the graceful-degradation chain
//!   ([`wavesched::schedule_resilient`]): tightened knobs, then
//!   single-path, then the non-speculative baseline.
//! * `--inject SEED[:PERIOD[:PROBES]]` — arm the deterministic fault
//!   plan ([`wavesched::FaultPlan::parse`]); `PROBES` is a
//!   comma-separated probe list or `all`.
//!
//! On failure the probe prints a one-line machine-readable JSON error
//! record (the structured `SchedError` plus the degradation chain, if
//! any) to stdout, a human-readable report to stderr — including the
//! full [`wavesched::StuckReport`] on a deadlock — and exits non-zero.
//! A reader that closes stdout early (`probe GCD | head -0`) ends the
//! run quietly: the probe exits 0 instead of panicking on the write.
//!
//! Usage: `cargo run --release -p spec-bench --bin probe -- <workload> <ws|single|spec> [runs] [flags]`

use std::io::{self, Write};
use wavesched::{
    schedule_resilient, Degradation, FaultPlan, Mode, SchedConfig, SchedError, ScheduleResult,
};

fn usage() -> ! {
    eprintln!(
        "usage: probe <workload> [ws|single|spec] [runs] \
         [--budget-ms N] [--fallback] [--inject SEED[:PERIOD[:PROBES]]]\n\
         workloads: Barcode GCD Test1 TLC Findmin Findmin64 Findmin1024 \
         FindminTwoPass FindminSharedMem Triangle Fig4 DspClip"
    );
    std::process::exit(2);
}

/// One-line machine-readable failure record: consumed by scripts that
/// drive the probe in batch (the JSON goes to stdout, prose to stderr).
fn emit_failure(workload: &str, mode: Mode, error: &SchedError, degradation: Option<&Degradation>) {
    // The run exits 1 either way; a record lost to a closed stdout
    // leaves the prose on stderr.
    let _ = writeln!(
        io::stdout().lock(),
        "{{\"workload\":\"{workload}\",\"mode\":\"{mode}\",\"error\":{},\"degradation\":{}}}",
        error.to_json(),
        match degradation {
            Some(d) => d.to_json(),
            None => "null".to_string(),
        }
    );
    eprintln!("{workload} / {mode}: scheduling failed: {error}");
    if let SchedError::Stuck(report) = error {
        eprint!("{report}");
    }
    if let Some(d) = degradation {
        eprintln!("{d}");
    }
}

/// With injection armed, panics carrying an "injected fault" payload are
/// expected and caught by the engine; suppress the default hook's
/// backtrace spew for them so stderr stays readable, forwarding
/// everything else to the previous hook.
fn quiet_injected_panics() {
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
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut budget_ms: Option<u64> = None;
    let mut fallback = false;
    let mut inject: Option<FaultPlan> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--budget-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => budget_ms = Some(ms),
                None => usage(),
            },
            "--fallback" => fallback = true,
            "--inject" => match it.next().map(|v| FaultPlan::parse(v)) {
                Some(Ok(plan)) => inject = Some(plan),
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            pos => positional.push(pos),
        }
    }
    if inject.is_some() {
        quiet_injected_panics();
    }
    let name = positional.first().copied().unwrap_or("GCD");
    let mode = match positional.get(1).copied() {
        Some("ws") => Mode::NonSpeculative,
        Some("single") => Mode::SinglePath,
        _ => Mode::Speculative,
    };
    let runs: usize = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(10);

    let w = workloads::by_name(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    });
    let vectors = w.vectors(runs);
    let probs = hls_sim::profile(&w.cdfg, &vectors, &w.mem_init);
    let mut cfg = SchedConfig::new(mode);
    cfg.max_spec_depth = w.spec_depth;
    cfg.budget.deadline_ms = budget_ms;
    cfg.faults = inject;

    let t = std::time::Instant::now();
    let (r, degradation) = if fallback {
        match schedule_resilient(&w.cdfg, &w.library, &w.allocation, &probs, &cfg) {
            Ok((r, d)) => (r, Some(d)),
            Err(f) => {
                emit_failure(w.name, mode, &f.error, Some(&f.degradation));
                std::process::exit(1);
            }
        }
    } else {
        match wavesched::schedule(&w.cdfg, &w.library, &w.allocation, &probs, &cfg) {
            Ok(r) => (r, None),
            Err(e) => {
                emit_failure(w.name, mode, &e, None);
                std::process::exit(1);
            }
        }
    };
    let sched_time = t.elapsed();

    let m = match hls_sim::measure(
        &w.cdfg,
        &r.stg,
        &vectors,
        &w.mem_init,
        Some(&w.program),
        w.cycle_limit,
    ) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{} / {mode}: measurement failed: {e}", w.name);
            std::process::exit(1);
        }
    };
    if m.mismatches != 0 {
        eprintln!(
            "{} / {mode}: schedule is functionally wrong on {} trace(s)",
            w.name, m.mismatches
        );
        std::process::exit(1);
    }

    let mut out = io::stdout().lock();
    let written = writeln!(
        out,
        "{} {mode}: enc={:.1} states={} best={} worst={} issues={} folds={} ({sched_time:?})",
        w.name,
        m.mean_cycles,
        r.stg.working_state_count(),
        m.best_cycles,
        m.worst_cycles,
        r.stats.issues,
        r.stats.folds,
    )
    .and_then(|()| report_counters(&mut out, &r, degradation.as_ref()))
    .and_then(|()| out.flush());
    match written {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("probe: writing to stdout failed: {e}");
            std::process::exit(1);
        }
        _ => {}
    }
}

/// Writes the run's counters below the headline.
fn report_counters(
    out: &mut impl Write,
    r: &ScheduleResult,
    degradation: Option<&Degradation>,
) -> io::Result<()> {
    writeln!(out, "  bdd: {}", r.stats.bdd_cache)?;
    writeln!(out, "  phases: {}", r.stats.phases)?;
    if r.stats.faults.total() > 0 {
        writeln!(out, "  faults: {}", r.stats.faults)?;
    }
    if let Some(d) = degradation.filter(|d| d.degraded()) {
        writeln!(out, "  degraded ({} attempts):", d.attempts.len())?;
        for line in d.to_string().lines() {
            writeln!(out, "    {line}")?;
        }
    }
    Ok(())
}
