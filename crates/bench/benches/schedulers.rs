//! Scheduler-throughput benches: time to produce the Table-1 schedules
//! (the paper's tool ran "within seconds"; these quantify ours). One
//! bench per (design, mode) pair used by Table 1 and Figs. 5–7.
//!
//! Every schedule runs under the branch probabilities `table1` ships
//! with: profiled over the design's first [`TRACE_RUNS`] trace vectors,
//! once per design, outside the timed region. The benched schedules are
//! therefore the shipped ones.
//!
//! Run with `cargo bench --bench schedulers`; results land in
//! `target/spec-bench/BENCH_schedulers.json`.

use cdfg::analysis::BranchProbs;
use hls_resources::Allocation;
use spec_bench::TRACE_RUNS;
use spec_support::bench::{black_box, Harness};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wavesched::{schedule, FaultPlan, Mode, PhaseTimers, SchedConfig, ScheduleResult};
use workloads::Workload;

thread_local! {
    /// Heap allocations requested by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` call per thread, so a bench can report how many heap
/// allocations one `schedule` call made.
struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // A const-initialized `Cell` has no destructor, so the slot is
        // never torn down; `try_with` only guards against that anyway.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// update neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: forwarded unchanged from our caller, who upholds
        // `GlobalAlloc::alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System`, as our caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the current thread has requested so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The workload's branch probabilities as `table1` profiles them.
fn profiled(w: &Workload) -> BranchProbs {
    hls_sim::profile(&w.cdfg, &w.vectors(TRACE_RUNS), &w.mem_init)
}

/// Times scheduling `w` under `alloc` and `cfg` (10 iterations) and
/// annotates the bench with the last run's results and heap
/// allocations (see [`annotate`]).
fn bench_schedule(
    h: &mut Harness,
    name: &str,
    w: &Workload,
    alloc: &Allocation,
    probs: &BranchProbs,
    cfg: &SchedConfig,
) {
    let mut last = None;
    h.bench_n(name, 10, || {
        let before = allocs();
        let r = schedule(black_box(&w.cdfg), &w.library, alloc, probs, cfg).expect("schedules");
        let made = allocs() - before;
        let states = r.stg.working_state_count();
        last = Some((r, made));
        black_box(states)
    });
    let (r, made) = last.expect("at least one timed iteration");
    annotate(h, &r, made);
}

/// Records the last run's size (states, issues, folds), its exact work
/// counters (BDD nodes, and the `allocs` heap allocations the
/// `schedule` call made on the bench thread), its per-phase nanosecond
/// breakdown, and its containment counters (all zero on clean benches)
/// in the bench's `extra`, so the artifact shows how much work the time
/// bought and *where* it went.
fn annotate(h: &mut Harness, r: &ScheduleResult, allocs: u64) {
    let stats = &r.stats;
    h.annotate("states", r.stg.working_state_count() as u64);
    h.annotate("issues", stats.issues as u64);
    h.annotate("folds", stats.folds as u64);
    h.annotate("bdd_nodes", stats.bdd_nodes as u64);
    h.annotate("allocs", allocs);
    let phases: &PhaseTimers = &stats.phases;
    for (key, stat) in [
        ("phase_grow_ns", phases.grow),
        ("phase_partition_ns", phases.partition),
        ("phase_signature_ns", phases.signature),
        ("phase_fold_ns", phases.fold),
        ("phase_sweep_ns", phases.sweep),
        ("phase_gc_ns", phases.gc),
        ("phase_book_ns", phases.book),
        ("phase_bdd_ns", phases.bdd),
    ] {
        h.annotate(key, stat.ns);
    }
    h.annotate("sched_attempts", u64::from(stats.attempts));
    h.annotate("faults_total", stats.faults.total());
    h.annotate("fault_audits", stats.faults.audits);
}

/// Both Table-1 modes of `w`, under the shipped configuration.
fn bench_modes(h: &mut Harness, prefix: &str, w: &Workload) {
    let probs = profiled(w);
    for mode in [Mode::NonSpeculative, Mode::Speculative] {
        let mut cfg = SchedConfig::new(mode);
        cfg.max_spec_depth = w.spec_depth;
        let name = format!("{prefix}/{}/{mode}", w.name);
        bench_schedule(h, &name, w, &w.allocation, &probs, &cfg);
    }
}

fn bench_table1_schedulers(h: &mut Harness) {
    for w in workloads::all().unwrap() {
        bench_modes(h, "table1", &w);
    }
}

/// Beyond-Table-1 stress designs: Findmin at N = 64 (longer
/// steady-state pipeline) and N = 1024 (iteration counts far past the
/// fold horizon — grow-phase cost must stay flat, not superlinear), the
/// sequential two-loop Findmin variant (fold index across loop
/// boundaries, distinct memories), and the shared-memory variant
/// (cross-loop serialization through the loop-exit order token).
fn bench_stress_schedulers(h: &mut Harness) {
    for w in [
        workloads::findmin64().unwrap(),
        workloads::findmin1024().unwrap(),
        workloads::findmin_two_pass().unwrap(),
        workloads::findmin_shared_mem().unwrap(),
    ] {
        bench_modes(h, "stress", &w);
    }
}

fn bench_fig5_schedules(h: &mut Harness) {
    let w = workloads::fig4().unwrap();
    let probs = profiled(&w);
    let cfg = SchedConfig::new(Mode::Speculative);
    for (tag, adders) in [("one_adder", 1u32), ("two_adders", 2)] {
        let allocation = workloads::fig4_allocation(adders);
        let name = format!("fig5/{tag}");
        bench_schedule(h, &name, &w, &allocation, &probs, &cfg);
    }
}

/// Containment overhead: scheduling GCD with the benign probes armed at
/// period 1 (a BDD eviction storm at every state boundary plus an
/// audited gc re-prune after every gc pass). The schedule is
/// byte-identical to the clean run; the delta against
/// `table1/GCD/wavesched-spec` is the price of maximal containment
/// machinery, and the fault counters land in the JSON.
fn bench_containment_overhead(h: &mut Harness) {
    let w = workloads::gcd().expect("bundled workload builds");
    let probs = profiled(&w);
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_spec_depth = w.spec_depth;
    cfg.faults = Some(FaultPlan::parse("1:1:bdd-evict,gc-storm").expect("valid probe spec"));
    bench_schedule(h, "containment/GCD/storms", &w, &w.allocation, &probs, &cfg);
}

fn main() {
    let mut h = Harness::new("schedulers");
    bench_table1_schedulers(&mut h);
    bench_stress_schedulers(&mut h);
    bench_fig5_schedules(&mut h);
    bench_containment_overhead(&mut h);
    h.finish().expect("bench JSON written");
}
