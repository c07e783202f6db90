//! The scheduling engine: the worklist algorithm of Fig. 12 of the
//! paper, generalized over the three scheduling policies.
//!
//! See the crate-level docs for the algorithm outline. The engine owns
//! the BDD manager, the instance interner, the growing STG, and the
//! state signature index used for equivalence folding; the per-CDFG
//! tables it reads are [`Tables`]. This module holds the run loop; each
//! phase [`PhaseTimers`] names lives in a module of its own, which
//! shares this module's imports.

mod fold;
mod gc;
mod grow;
mod partition;
mod stuck;
mod sweep;
mod window;

use crate::ctx::{
    cmp_inst, cmp_src, cond_var, loop_ancestor, AvailInfo, Candidate, CondInst, Ctx, InstId,
    InstTable, Iter, Key, PairMark, ValSrc, VecMap, MAX_NEST,
};
use crate::fault::{FaultState, FaultStats, Probe};
use crate::resolve::{CandEvent, GenScratch, Res, Tables};
use crate::sig::SigBuilder;
use crate::{BlockedInst, Mode, SchedConfig, SchedError, StuckReport};
use cdfg::analysis::{self, BranchProbs};
use cdfg::{Cdfg, LoopId, OpId, PortKind};
use fold::fold_renames;
use grow::Reject;
use guards::{BddManager, Cond, CondProbs, Guard};
use hls_resources::{classify, Allocation, FuClass, Library};
use spec_support::fxhash::{FxHashMap, FxHashSet};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};
use stg::{Arg, OpInst, ScheduledOp, StateId, Stg, Transition, MAX_ARGS};
use sweep::{drop_sweep_event, push_pair};
use window::{enumerate_iters, note_span, CapContrib, Domain, Spans, Window};

/// Wall-clock accounting of one engine phase: invocation count plus
/// total nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStat {
    /// Times the phase ran.
    pub calls: u64,
    /// Total wall-clock nanoseconds across all runs.
    pub ns: u64,
}

impl PhaseStat {
    fn add(&mut self, d: std::time::Duration) {
        self.calls += 1;
        self.ns += u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    }
}

impl fmt::Display for PhaseStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}ms/{}", self.ns as f64 / 1e6, self.calls)
    }
}

/// Per-phase wall-clock breakdown of a scheduling run.
///
/// `grow`, `partition`, `signature`, `fold`, `sweep`, `gc`, and `book`
/// are disjoint slices of the run and together account for (nearly all
/// of) [`SchedStats::wall_ns`]; a test asserts the reconciliation.
/// `bdd` is the cofactoring time inside `partition` (a sub-phase, not a
/// disjoint slice), so it must not be added to the others.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimers {
    /// State growing: candidate selection and issue (Fig. 12 step 2),
    /// including the per-issue incremental sweeps.
    pub grow: PhaseStat,
    /// Context partitioning over resolved-condition combinations
    /// (Fig. 12 step 4), including the per-branch cofactoring.
    pub partition: PhaseStat,
    /// Canonical signature construction for the fold test.
    pub signature: PhaseStat,
    /// Fold-index probe plus rename derivation / index insertion.
    pub fold: PhaseStat,
    /// Candidate sweeps outside `grow`: the initial context sweep and
    /// each branch's post-cofactor revalidation sweep.
    pub sweep: PhaseStat,
    /// Per-branch garbage collection of dead versions and bookkeeping.
    pub gc: PhaseStat,
    /// State-boundary bookkeeping: the end-of-state tick (ready
    /// countdowns, discharge promotion).
    pub book: PhaseStat,
    /// Guard cofactoring inside `partition` (sub-phase of `partition`).
    pub bdd: PhaseStat,
}

impl PhaseTimers {
    /// Total nanoseconds across the disjoint phases (excludes the `bdd`
    /// sub-phase) — the reconcilable share of a run's wall clock.
    pub fn accounted_ns(&self) -> u64 {
        self.grow.ns
            + self.partition.ns
            + self.signature.ns
            + self.fold.ns
            + self.sweep.ns
            + self.gc.ns
            + self.book.ns
    }
}

impl fmt::Display for PhaseTimers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grow={} partition={} signature={} fold={} sweep={} gc={} book={} bdd={}",
            self.grow,
            self.partition,
            self.signature,
            self.fold,
            self.sweep,
            self.gc,
            self.book,
            self.bdd
        )
    }
}

/// Statistics of one scheduling run.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Working states created.
    pub states: usize,
    /// Fold (equivalence) edges emitted.
    pub folds: usize,
    /// Operation issues across all states.
    pub issues: usize,
    /// Peak number of live value versions in any context.
    pub peak_ctx: usize,
    /// Candidate-generator invocations: the `(op, iteration)` pairs the
    /// sweeps regenerated, counted once per call.
    pub gen_calls: u64,
    /// `(op, iteration)` pairs whose control guard the gc liveness walk
    /// resolved, over the run.
    pub gc_visits: u64,
    /// From-scratch builds of the swept window: one per context entering
    /// a sweep (the cold start, each state entry and each branch); the
    /// sweeps in between update the carried window from their events.
    pub window_builds: u64,
    /// BDD nodes allocated over the run.
    pub bdd_nodes: usize,
    /// BDD operation-cache behavior over the run (hit rates, evictions).
    pub bdd_cache: guards::CacheStats,
    /// Per-phase wall-clock breakdown.
    pub phases: PhaseTimers,
    /// Wall-clock nanoseconds of the whole run (engine construction to
    /// the start of result assembly), the reconciliation target for
    /// [`PhaseTimers::accounted_ns`].
    pub wall_ns: u64,
    /// Injected-fault and containment-audit counters (all zero unless a
    /// [`FaultPlan`](crate::FaultPlan) was armed).
    pub faults: FaultStats,
    /// Degradation-chain attempts that produced this schedule: 0 for a
    /// direct [`schedule`] call, ≥ 1 when
    /// [`schedule_resilient`](crate::schedule_resilient) drove the run
    /// (1 = first try succeeded; larger = fallbacks were taken).
    pub attempts: u32,
}

/// A finished schedule: the STG plus run statistics.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The scheduled state transition graph.
    pub stg: Stg,
    /// Run statistics.
    pub stats: SchedStats,
}

/// Schedules `g` under the given resource library, allocation
/// constraints, and branch probabilities.
///
/// # Errors
///
/// Returns [`SchedError`] if the design cannot be scheduled under the
/// configuration — state/iteration caps exceeded, the wall-clock budget
/// expired, the run was cancelled, a resource deadlock (e.g. an
/// allocation granting zero units of a class the design needs), or a
/// loop nest deeper than the scheduler supports.
///
/// # Panic isolation
///
/// Panics anywhere in the engine or the BDD layer are caught at this
/// boundary and converted into [`SchedError::Internal`], so one bad
/// CDFG cannot take down a batch run. (The process-global panic hook
/// still prints its message; install a quieter hook if that matters.)
pub fn schedule(
    g: &Cdfg,
    lib: &Library,
    alloc: &Allocation,
    probs: &BranchProbs,
    cfg: &SchedConfig,
) -> Result<ScheduleResult, SchedError> {
    // Iteration vectors are inline arrays of `MAX_NEST` levels: reject
    // deeper nests before an engine is built to index them.
    let depth = g.ops().iter().map(|o| o.loop_path().len()).max();
    if let Some(depth) = depth.filter(|&d| d > MAX_NEST) {
        return Err(SchedError::NestTooDeep {
            depth,
            max: MAX_NEST,
        });
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Engine::new(g, lib, alloc, probs, cfg).run()
    })) {
        Ok(r) => r,
        Err(payload) => Err(SchedError::Internal {
            context: panic_context(payload.as_ref()),
        }),
    }
}

/// Renders a caught panic payload for [`SchedError::Internal`].
fn panic_context(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic with non-string payload".to_string()
    }
}

struct Engine<'a> {
    g: &'a Cdfg,
    lib: &'a Library,
    alloc: &'a Allocation,
    probs: &'a BranchProbs,
    cfg: &'a SchedConfig,
    tables: Tables,
    mgr: BddManager,
    it: InstTable,
    cprobs: CondProbs,
    lambda: Vec<f64>,
    stg: Stg,
    /// The STG slot of every key it names: each key is interned here
    /// once, when first emitted, so the STG never hashes an instance.
    slots: FxHashMap<Key, u32>,
    /// Fold index keyed by the 128-bit content hash of the canonical
    /// signature token stream (see [`SigBuilder`]).
    sigs: FxHashMap<u128, (StateId, Vec<Key>)>,
    sig: SigBuilder,
    /// Guard-conjunction memo shared by all [`Res`] borrows. Valid
    /// while `resolved` and the floors of the context under
    /// construction are stable; cleared at every validity-window
    /// boundary (state growth entry, each cofactored branch).
    memo: crate::resolve::GuardMemo,
    /// Candidate mutation events emitted by [`Res::gen_candidates`]
    /// since the last drain; the grow loop applies them to its
    /// criticality-ordered ready list instead of re-sorting.
    events: Vec<CandEvent>,
    /// Fold-probe signature trail, in probe order, for differential
    /// testing of the incremental sweep against the reference re-sort.
    sig_trail: Vec<u128>,
    /// Criticality memo. λ(op) and the branch probabilities are fixed for
    /// the whole run, so `(instance, guard)` fully determines Eq. 5 —
    /// entries never invalidate.
    crit_cache: FxHashMap<(InstId, Guard), f64>,
    /// Shannon-expansion memo shared across criticality evaluations
    /// (valid for the run: one manager, per-condition probabilities are
    /// set once before first use and never changed).
    prob_memo: FxHashMap<Guard, f64>,
    /// Per guard: the minimum condition iteration it mentions for each
    /// loop context (the lookahead cap's `oldest` contribution). A pure
    /// function of the hash-consed guard, so valid for the whole run.
    cap_contrib: FxHashMap<Guard, CapContrib>,
    /// The STG guard-table index of each guard's rendered
    /// sum-of-products string. A pure function of the hash-consed
    /// guard, so valid for the whole run; issue rates are high and
    /// steady-state guards repeat.
    sop_memo: FxHashMap<Guard, u32>,
    /// Reusable support-set buffer for guard walks on hot paths.
    supp_scratch: Vec<Cond>,
    /// Reusable buffer of the sweep and gc passes: the iteration
    /// vectors of one op's window.
    iter_buf: Vec<Iter>,
    /// Narrowed sweep events beside the context's whole-op
    /// [`Ctx::sweep_dirty`]: per op, a [`PairMark`] naming the
    /// iterations an event can have changed the generation of. Every
    /// narrowed event (an issue, a branch's cofactors, window growth) is
    /// followed by a sweep of the same context, which drains the list,
    /// so it never outlives the context it was recorded for.
    pair_marks: Vec<(OpId, PairMark)>,
    /// Reusable list of the spans a window growth opened.
    span_buf: Vec<(LoopId, PairMark)>,
    /// The swept window of the context being swept.
    window: Window,
    /// Reusable buffers of the resolution walk ([`Res::scratch`]).
    gen: GenScratch,
    /// Spare entry buffers for domains and spans.
    domain_bufs: Vec<Spans>,
    /// Reusable buffers of [`Self::gc`]: the live mark of each `avail`
    /// entry by position, the version lists of the consumer walk, the
    /// ops of dropped versions, and the live loops by index.
    gc_marks: Vec<bool>,
    gc_versions: Vec<(ValSrc, Guard)>,
    gc_ops: Vec<OpId>,
    gc_loops: Vec<bool>,
    /// Reusable list of the candidate indices one issue removes.
    removed_buf: Vec<usize>,
    /// The ops of the state being grown, moved into the STG in one
    /// exactly sized buffer when the state is complete.
    ops_buf: Vec<ScheduledOp>,
    /// Construction time, for the run's wall-clock accounting.
    started: Instant,
    /// Wall-clock point at which the run aborts with
    /// [`SchedError::Deadline`], derived from the budget at
    /// construction. Checked at state boundaries.
    deadline: Option<Instant>,
    /// Armed fault-injection runtime (testing only; `None` in
    /// production runs).
    faults: Option<FaultState>,
    stats: SchedStats,
}

impl<'a> Engine<'a> {
    fn new(
        g: &'a Cdfg,
        lib: &'a Library,
        alloc: &'a Allocation,
        probs: &'a BranchProbs,
        cfg: &'a SchedConfig,
    ) -> Self {
        let lambda = analysis::lambda(g, probs, &lib.delay_fn(g));
        let tables = Tables::new(g);
        let started = Instant::now();
        Engine {
            g,
            lib,
            alloc,
            probs,
            cfg,
            tables,
            mgr: BddManager::new(),
            it: InstTable::default(),
            cprobs: CondProbs::new(),
            lambda,
            stg: Stg::new(g.name()),
            slots: FxHashMap::default(),
            sigs: FxHashMap::default(),
            sig: SigBuilder::default(),
            memo: crate::resolve::GuardMemo::default(),
            events: Vec::new(),
            sig_trail: Vec::new(),
            crit_cache: FxHashMap::default(),
            prob_memo: FxHashMap::default(),
            cap_contrib: FxHashMap::default(),
            sop_memo: FxHashMap::default(),
            supp_scratch: Vec::new(),
            iter_buf: Vec::new(),
            pair_marks: Vec::new(),
            span_buf: Vec::new(),
            window: Window::default(),
            gen: GenScratch::default(),
            domain_bufs: Vec::new(),
            gc_marks: Vec::new(),
            gc_versions: Vec::new(),
            gc_ops: Vec::new(),
            gc_loops: Vec::new(),
            removed_buf: Vec::new(),
            ops_buf: Vec::new(),
            started,
            deadline: cfg
                .budget
                .deadline_ms
                .map(|ms| started + Duration::from_millis(ms)),
            faults: cfg.faults.clone().map(FaultState::new),
            stats: SchedStats::default(),
        }
    }

    /// Budget and fault checks at a state (tick) boundary: cooperative
    /// cancellation, the wall-clock deadline, and the boundary-scoped
    /// fault probes (injected panic, artificial fuel/deadline
    /// exhaustion, forced BDD-cache eviction storms).
    fn boundary_checks(&mut self, iterations: usize) -> Result<(), SchedError> {
        if let Some(c) = &self.cfg.budget.cancel {
            if c.is_cancelled() {
                return Err(SchedError::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(SchedError::Deadline {
                    budget_ms: self.cfg.budget.deadline_ms.unwrap_or(0),
                });
            }
        }
        if let Some(f) = &mut self.faults {
            if f.fire(Probe::Panic) {
                panic!("injected fault: panic probe at state boundary {iterations}");
            }
            if f.fire(Probe::Fuel) {
                return Err(SchedError::IterationLimit(iterations));
            }
            if f.fire(Probe::Deadline) {
                return Err(SchedError::Deadline { budget_ms: 0 });
            }
            if f.fire(Probe::BddEvict) {
                self.mgr.flush_op_caches();
            }
        }
        Ok(())
    }

    /// The STG slot of `k` (see [`slot_of`]).
    fn slot(&mut self, k: Key) -> u32 {
        slot_of(&mut self.slots, &mut self.stg, &self.it, k)
    }

    fn res(&mut self) -> Res<'_> {
        Res {
            g: self.g,
            tables: &self.tables,
            mgr: &mut self.mgr,
            it: &mut self.it,
            memo: &mut self.memo,
            events: &mut self.events,
            scratch: &mut self.gen,
        }
    }

    fn run(self) -> Result<ScheduleResult, SchedError> {
        self.run_with_trail().map(|(r, _)| r)
    }

    /// Runs the schedule and also returns the fold-probe signature
    /// trail, for differential tests comparing sweep implementations.
    fn run_with_trail(mut self) -> Result<(ScheduleResult, Vec<u128>), SchedError> {
        let ctx0 = self.root_context()?;
        let start = self.stg.start();
        let stop = self.stg.stop();
        if ctx0.obligations.is_empty() {
            // Nothing to do: a design with no side effects.
            self.stg.state_mut(start).transitions.push(Transition {
                when: vec![],
                target: stop,
                renames: vec![],
            });
            return self.finish();
        }
        let sig = self.hashed_signature(&ctx0);
        let keys0 = self.sig.canonical_keys().to_vec();
        self.sigs.insert(sig, (start, keys0));
        self.stats.states = 1;

        let mut queue: VecDeque<(StateId, Ctx)> = VecDeque::new();
        queue.push_back((start, ctx0));
        let mut iterations = 0usize;
        while let Some((sid, mut ctx)) = queue.pop_front() {
            iterations += 1;
            if iterations > self.cfg.max_iterations {
                return Err(SchedError::IterationLimit(self.cfg.max_iterations));
            }
            self.boundary_checks(iterations)?;
            let t0 = Instant::now();
            self.grow_state(sid, &mut ctx)?;
            self.stats.phases.grow.add(t0.elapsed());
            let t_tick = Instant::now();
            // `tick` promotes pending discharges (exit passes whose
            // consumers all issued) into `discharged`, which changes
            // what those consumers' generators observe — mark them
            // before partitioning so every branch inherits the marks.
            let promoted: Vec<InstId> = ctx.exit_pending.keys().copied().collect();
            ctx.tick();
            for inst in promoted {
                if ctx.discharged.contains(&inst) {
                    let (op, _) = self.it.pair(inst);
                    self.mark_op_changed(&mut ctx, op);
                }
            }
            self.stats.phases.book.add(t_tick.elapsed());
            let t1 = Instant::now();
            let branches = self.partition(ctx);
            self.stats.phases.partition.add(t1.elapsed());
            let mut resolves: Vec<u32> = branches
                .iter()
                .flat_map(|(when, _)| when)
                .map(|&(k, _)| slot_of(&mut self.slots, &mut self.stg, &self.it, k))
                .collect();
            resolves.sort_unstable_by(|&a, &b| self.stg.inst(a).cmp(self.stg.inst(b)));
            resolves.dedup();
            let st = self.stg.state_mut(sid);
            st.resolves = resolves;
            st.transitions.reserve_exact(branches.len());
            for (when, mut bctx) in branches {
                let tb = Instant::now();
                // Cofactoring changed `resolved` (and possibly floors):
                // the guard memo's validity window ends here. Each
                // resolution (and any floor movement it absorbed)
                // collapses the condition's literals and may have
                // dropped or rewritten guarded entries: bound
                // re-validation to the cofactor frontier — the
                // condition's reader cone, from the resolved iteration
                // on — rather than re-sweeping every op on the branch.
                // (Marked here rather than per cofactor, so the
                // partition's context copies carry no marks.) The
                // cofactors also end the carried window's validity.
                self.memo.clear();
                self.window.valid = false;
                for &(k, _) in &when {
                    let (cop, ci) = self.it.pair(k.inst);
                    let ci = *ci;
                    self.mark_resolved(&mut bctx, cop, &ci);
                }
                self.promote_done(&mut bctx);
                self.sweep(&mut bctx)?;
                self.events.clear();
                self.stats.phases.sweep.add(tb.elapsed());
                let tg = Instant::now();
                self.gc(&mut bctx)?;
                self.gc_storm_check(&mut bctx)?;
                self.stats.phases.gc.add(tg.elapsed());
                self.stats.peak_ctx = self.stats.peak_ctx.max(bctx.avail.len());
                let when: Vec<(u32, bool)> = when.iter().map(|&(k, v)| (self.slot(k), v)).collect();
                if bctx.obligations.is_empty() {
                    self.stg.state_mut(sid).transitions.push(Transition {
                        when,
                        target: stop,
                        renames: vec![],
                    });
                    continue;
                }
                let sig = self.hashed_signature(&bctx);
                let t_fold = Instant::now();
                if let Some((tid, old_keys)) = self.sigs.get(&sig) {
                    let renames = fold_renames(
                        self.sig.canonical_keys(),
                        old_keys,
                        &mut self.slots,
                        &mut self.stg,
                        &self.it,
                    );
                    let tid = *tid;
                    self.stats.phases.fold.add(t_fold.elapsed());
                    // A state that folds onto itself through an
                    // unconditional transition repeats forever: no
                    // condition can lead out of it, whatever it issues.
                    if tid == sid && when.is_empty() {
                        let mut r = self.stuck_report(&mut bctx);
                        r.headline = format!("livelock: state {sid} folds onto itself");
                        return Err(SchedError::Stuck(r));
                    }
                    self.stats.folds += 1;
                    self.stg.state_mut(sid).transitions.push(Transition {
                        when,
                        target: tid,
                        renames,
                    });
                } else {
                    let nid = self.stg.add_state();
                    self.stats.states += 1;
                    if self.stats.states > self.cfg.max_states {
                        return Err(SchedError::StateLimit(self.cfg.max_states));
                    }
                    let keys = self.sig.canonical_keys().to_vec();
                    self.sigs.insert(sig, (nid, keys));
                    self.stats.phases.fold.add(t_fold.elapsed());
                    self.stg.state_mut(sid).transitions.push(Transition {
                        when,
                        target: nid,
                        renames: vec![],
                    });
                    queue.push_back((nid, bctx));
                }
            }
        }
        self.finish()
    }

    /// The root context: every side-effect operation's obligation at
    /// the all-zero iteration of its loop nest, swept from a cold start.
    fn root_context(&mut self) -> Result<Ctx, SchedError> {
        let mut ctx0 = Ctx::default();
        let mut r = self.res();
        let tables = r.tables;
        for &e in &tables.effects {
            let iter: Iter = std::iter::repeat_n(0, r.g.op(e).loop_path().len()).collect();
            let guard = r.ctrl_guard(&ctx0, e, &iter);
            if !guard.is_false() {
                let inst = r.it.id(e, &iter);
                ctx0.obligations.insert(inst, guard);
            }
        }
        // Cold start: everything is potentially generatable in a fresh
        // context; later sweeps run off the per-context dirty feed.
        let t_sw0 = Instant::now();
        self.mark_all(&mut ctx0);
        self.sweep(&mut ctx0)?;
        self.events.clear();
        self.stats.phases.sweep.add(t_sw0.elapsed());
        Ok(ctx0)
    }

    fn finish(mut self) -> Result<(ScheduleResult, Vec<u128>), SchedError> {
        // Wall clock first: the debug-only validation below is not part
        // of the run the phase timers account for.
        self.stats.wall_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.bdd_nodes = self.mgr.node_count();
        self.stats.bdd_cache = self.mgr.cache_stats();
        if let Some(f) = &self.faults {
            self.stats.faults = f.stats.clone();
        }
        debug_assert_eq!(self.stg.check(), Ok(()));
        #[cfg(debug_assertions)]
        if let Err(errs) = stg::validate_dataflow(&self.stg) {
            panic!(
                "scheduler emitted a dataflow-unsound STG ({} violations, first: {})",
                errs.len(),
                errs[0]
            );
        }
        Ok((
            ScheduleResult {
                stg: self.stg,
                stats: self.stats,
            },
            self.sig_trail,
        ))
    }
}

/// The STG slot of `k`, appending its instance to the STG's table the
/// first time `k` is emitted.
fn slot_of(slots: &mut FxHashMap<Key, u32>, stg: &mut Stg, it: &InstTable, k: Key) -> u32 {
    *slots.entry(k).or_insert_with(|| {
        let (op, iter) = it.pair(k.inst);
        stg.push_inst(OpInst {
            op,
            iter: *iter,
            version: k.version,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, SchedError};
    use hls_lang::Program;
    use hls_resources::{classify, FuClass};
    use spec_support::fxhash::FxHashSet;

    fn compile(src: &str) -> Cdfg {
        hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap()
    }

    fn sched(src: &str, mode: Mode, alloc: Allocation) -> ScheduleResult {
        let g = compile(src);
        schedule(
            &g,
            &Library::dac98(),
            &alloc,
            &BranchProbs::new(),
            &SchedConfig::new(mode),
        )
        .unwrap()
    }

    #[test]
    fn straight_line_schedules() {
        let r = sched(
            "design d { input a, b; output s; s = a + b; }",
            Mode::Speculative,
            Allocation::new().with(FuClass::Adder, 1),
        );
        assert!(r.stg.best_case_cycles().is_some());
        assert!(r.stats.issues >= 2, "add and output");
    }

    #[test]
    fn useful_ops_excludes_dead_code() {
        let g = compile("design d { input a; output o; var dead = a * 3; o = a + 1; }");
        let useful = Tables::new(&g).useful;
        let mul = g
            .ops()
            .iter()
            .find(|o| o.kind() == cdfg::OpKind::Mul)
            .unwrap();
        assert!(!useful[mul.id().index()]);
        let out = g
            .ops()
            .iter()
            .find(|o| matches!(o.kind(), cdfg::OpKind::Output(_)))
            .unwrap();
        assert!(useful[out.id().index()]);
    }

    #[test]
    fn branch_schedules_in_all_modes() {
        for mode in [Mode::NonSpeculative, Mode::Speculative, Mode::SinglePath] {
            let r = sched(
                "design d { input a, b; output o; var x = 0;
                 if (a > b) { x = a - b; } else { x = b - a; } o = x; }",
                mode,
                Allocation::new()
                    .with(FuClass::Subtracter, 1)
                    .with(FuClass::Comparator, 1),
            );
            assert!(r.stg.best_case_cycles().is_some(), "{mode}: STOP reachable");
        }
    }

    #[test]
    fn loop_schedules_and_folds() {
        for mode in [Mode::NonSpeculative, Mode::Speculative] {
            let r = sched(
                "design d { input n; output o; var i = 0;
                 while (i < n) { i = i + 1; } o = i; }",
                mode,
                Allocation::new()
                    .with(FuClass::Incrementer, 1)
                    .with(FuClass::Comparator, 1),
            );
            assert!(r.stats.folds > 0, "{mode}: loop folds into steady state");
            assert!(r.stg.best_case_cycles().is_some(), "{mode}");
        }
    }

    #[test]
    fn missing_resource_is_reported_stuck() {
        let g = compile("design d { input a, b; output s; s = a * b; }");
        let err = schedule(
            &g,
            &Library::dac98(),
            &Allocation::new(), // no multiplier granted
            &BranchProbs::new(),
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap_err();
        let SchedError::Stuck(report) = err else {
            panic!("expected Stuck, got {err}");
        };
        let mult = classify(cdfg::OpKind::Mul).to_string();
        assert!(
            report.starved_classes.contains(&mult),
            "starved class named: {report}"
        );
        assert!(
            !report.blocked.is_empty(),
            "at least one blocked instance: {report}"
        );
        assert!(
            report
                .blocked
                .iter()
                .any(|b| b.reason.contains(&format!("zero {mult} units"))),
            "blocked reason attributes the starvation: {report}"
        );
        assert!(
            report.headline.contains("check the allocation"),
            "headline kept the legacy one-liner: {report}"
        );
        assert_eq!(
            report.to_string(),
            "no progress towards s[] — check the allocation\n  \
             starved FU classes: mult1\n  \
             blocked *1[] guard=1 — allocation grants zero mult1 units\n  \
             blocked s[] guard=1 — no value version for operand 0 (wire from *1)\n",
        );
    }

    #[test]
    fn starved_loop_reports_stuck_without_hanging() {
        // A loop whose body needs a never-granted unit: the engine must
        // diagnose the starvation (or trip the iteration cap) rather
        // than unroll forever. The tight cap bounds the test either way.
        let g = compile(
            "design d { input n; output o; var i = 0; var s = 0;
             while (i < n) { s = s + i * 2; i = i + 1; } o = s; }",
        );
        let mut cfg = SchedConfig::new(Mode::Speculative);
        cfg.max_iterations = 500;
        let err = schedule(
            &g,
            &Library::dac98(),
            &Allocation::new()
                .with(FuClass::Adder, 1)
                .with(FuClass::Comparator, 1)
                .with(FuClass::Incrementer, 1), // no multiplier
            &BranchProbs::new(),
            &cfg,
        )
        .unwrap_err();
        match err {
            SchedError::Stuck(report) => {
                let mult = classify(cdfg::OpKind::Mul).to_string();
                assert!(report.starved_classes.contains(&mult), "{report}");
                assert!(!report.blocked.is_empty(), "{report}");
            }
            SchedError::IterationLimit(n) => assert_eq!(n, 500),
            other => panic!("expected Stuck or IterationLimit, got {other}"),
        }
    }

    #[test]
    fn nonpipelined_multiplier_occupies_two_states() {
        // Two independent multiplies on one NON-pipelined 2-cycle unit
        // cannot start in consecutive states.
        let g = compile("design d { input a, b, c, e; output o; o = a * b + c * e; }");
        let mut lib = Library::dac98();
        lib.set(hls_resources::FuSpec {
            class: FuClass::Multiplier,
            latency: 2,
            pipelined: false,
            frac_delay: 1.0,
            area: 900.0,
        });
        let r = schedule(
            &g,
            &lib,
            &Allocation::new()
                .with(FuClass::Multiplier, 1)
                .with(FuClass::Adder, 1),
            &BranchProbs::new(),
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap();
        // Serial occupancy: 2 + 2 cycles of multiplier plus the add.
        assert!(
            r.stg.best_case_cycles().unwrap() >= 5,
            "got {:?}",
            r.stg.best_case_cycles()
        );
        // The same design on the pipelined unit overlaps the multiplies.
        let r2 = schedule(
            &g,
            &Library::dac98(), // pipelined multiplier
            &Allocation::new()
                .with(FuClass::Multiplier, 1)
                .with(FuClass::Adder, 1),
            &BranchProbs::new(),
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap();
        assert!(
            r2.stg.best_case_cycles().unwrap() < r.stg.best_case_cycles().unwrap(),
            "pipelining shortens the schedule: {:?} vs {:?}",
            r2.stg.best_case_cycles(),
            r.stg.best_case_cycles()
        );
    }

    #[test]
    fn memory_port_serializes_accesses() {
        // Two reads of one single-ported memory occupy distinct states.
        let g = compile("design d { input a; output o; mem M[4]; o = M[a] + M[a + 1]; }");
        let r = schedule(
            &g,
            &Library::dac98(),
            &Allocation::new()
                .with(FuClass::Adder, 2)
                .with(FuClass::Incrementer, 1),
            &BranchProbs::new(),
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap();
        for sid in r.stg.reachable() {
            let reads = r
                .stg
                .state(sid)
                .ops
                .iter()
                .filter(|o| {
                    let op = r.stg.inst(o.dest).op;
                    matches!(g.op(op).kind(), cdfg::OpKind::MemRead(_))
                })
                .count();
            assert!(reads <= 1, "state {sid} issues {reads} reads on one port");
        }
    }

    #[test]
    fn speculative_not_slower_in_states_for_branch() {
        let src = "design d { input a, b; output o; var x = 0;
             if (a > b) { x = (a - b) * 2; } else { x = (b - a) * 3; } o = x; }";
        let alloc = || {
            Allocation::new()
                .with(FuClass::Subtracter, 2)
                .with(FuClass::Comparator, 1)
                .with(FuClass::Multiplier, 2)
        };
        let ns = sched(src, Mode::NonSpeculative, alloc());
        let sp = sched(src, Mode::Speculative, alloc());
        assert!(
            sp.stg.best_case_cycles().unwrap() <= ns.stg.best_case_cycles().unwrap(),
            "speculation never lengthens the best case"
        );
    }

    #[test]
    fn phase_timers_account_for_the_run() {
        // The disjoint phase timers must reconcile against the run's
        // wall clock: an untimed hot path (like the per-issue sweeps
        // before they were folded into `grow`) shows up here as a gap.
        // Construction (λ computation, reader tables) and worklist
        // bookkeeping are legitimately outside every phase, so the bar
        // is 85%, not 100%.
        let r = sched(
            "design d { input n; output o; var i = 0; var s = 0;
             while (i < n) { if (s < 40) { s = s + 2; } i = i + 1; } o = s; }",
            Mode::Speculative,
            Allocation::new()
                .with(FuClass::Adder, 2)
                .with(FuClass::Comparator, 2)
                .with(FuClass::Incrementer, 1),
        );
        let p = r.stats.phases;
        for (name, stat) in [
            ("grow", p.grow),
            ("partition", p.partition),
            ("signature", p.signature),
            ("sweep", p.sweep),
            ("gc", p.gc),
            ("book", p.book),
        ] {
            assert!(stat.calls > 0, "phase `{name}` never ran");
        }
        assert!(
            p.accounted_ns() >= r.stats.wall_ns * 85 / 100,
            "phase timers account for {} of {} wall ns ({:.0}%): {p}",
            p.accounted_ns(),
            r.stats.wall_ns,
            p.accounted_ns() as f64 / r.stats.wall_ns as f64 * 100.0,
        );
        assert!(
            p.accounted_ns() <= r.stats.wall_ns,
            "disjoint phases cannot exceed the wall clock: {p}"
        );
    }

    /// The strict sweep audit on the shipped designs: with the
    /// dropped-event audit armed and no probe firing, every incremental
    /// sweep fixpoint of every schedule must also be a fixpoint of the
    /// regenerate-everything reference pass. Runs the five Table-1
    /// designs, FindminSharedMem and DspClip under the branch
    /// probabilities `table1` profiles and each design's own
    /// speculation depth, in all three modes but FindminSharedMem's
    /// single-path one: its 1474 states would double the test's time.
    #[test]
    fn shipped_designs_pass_the_reference_audit() {
        for w in [
            workloads::barcode(),
            workloads::gcd(),
            workloads::test1(),
            workloads::tlc(),
            workloads::findmin(),
            workloads::findmin_shared_mem(),
            workloads::dsp_clip(),
        ] {
            let w = w.expect("bundled workload builds");
            let probs = hls_sim::profile(&w.cdfg, &w.vectors(50), &w.mem_init);
            for mode in [Mode::NonSpeculative, Mode::Speculative, Mode::SinglePath] {
                if w.name == "FindminSharedMem" && mode == Mode::SinglePath {
                    continue;
                }
                let mut cfg = SchedConfig::new(mode);
                cfg.max_spec_depth = w.spec_depth;
                let mut e = Engine::new(&w.cdfg, &w.library, &w.allocation, &probs, &cfg);
                let mut faults = FaultState::new(crate::FaultPlan::new(0).with_probes(Vec::new()));
                faults.dropped_any = true;
                e.faults = Some(faults);
                match e.run() {
                    Ok(r) => assert!(r.stats.faults.audits > 0, "{} / {mode}: no audit", w.name),
                    Err(err) => panic!("{} / {mode}: {err}", w.name),
                }
            }
        }
    }

    /// The variable order is content order, not reference order: touching
    /// every loop condition's first iterations in reverse before a run
    /// leaves the rendered STG, guards included, byte for byte the same.
    #[test]
    fn guards_render_independent_of_reference_order() {
        for w in [
            workloads::gcd(),
            workloads::tlc(),
            workloads::barcode(),
            workloads::findmin(),
        ] {
            let w = w.expect("bundled workload builds");
            let probs = hls_sim::profile(&w.cdfg, &w.vectors(50), &w.mem_init);
            for mode in [Mode::Speculative, Mode::SinglePath] {
                let mut cfg = SchedConfig::new(mode);
                cfg.max_spec_depth = w.spec_depth;
                let text = |touch: bool| {
                    let mut e = Engine::new(&w.cdfg, &w.library, &w.allocation, &probs, &cfg);
                    if touch {
                        let ctx = Ctx::default();
                        for l in w.cdfg.loops() {
                            let mut ci = vec![0; w.cdfg.op(l.cond()).loop_path().len()];
                            for i in (0..12).rev() {
                                *ci.last_mut().unwrap() = i;
                                e.res().lit(&ctx, l.cond(), &ci, true);
                            }
                        }
                    }
                    let r = e.run().unwrap();
                    stg::render_text(&r.stg, &w.cdfg)
                };
                assert_eq!(text(false), text(true), "{} / {mode}", w.name);
            }
        }
    }

    /// The carried window's three update rules on a counting loop: an
    /// issue leaves it equal, a generation at a new iteration widens it
    /// without a rebuild, and a widened guard rebuilds only the
    /// lookahead table. (Every use also checks it against a rebuild in
    /// debug builds.)
    #[test]
    fn carried_window_follows_issue_and_generation_events() {
        let g = compile(
            "design d { input n; output o; var i = 0;
             while (i < n) { i = i + 1; } o = i; }",
        );
        let (lib, probs) = (Library::dac98(), BranchProbs::new());
        let alloc = Allocation::new()
            .with(FuClass::Incrementer, 1)
            .with(FuClass::Comparator, 1);
        let cfg = SchedConfig::new(Mode::Speculative);
        let mut e = Engine::new(&g, &lib, &alloc, &probs, &cfg);
        let mut ctx = e.root_context().unwrap();
        e.window.valid = false;
        e.sweep(&mut ctx).unwrap();
        assert_eq!(e.stats.window_builds, 2, "cold start and state entry");
        let sorted = |s: &Spans| {
            let mut s = s.clone();
            s.sort_unstable();
            s
        };
        let rebuilt = |e: &Engine, ctx: &Ctx| {
            let mut s = Vec::new();
            e.instance_spans(ctx, &mut s);
            sorted(&s)
        };
        let inc = g
            .ops()
            .iter()
            .find(|o| o.kind() == cdfg::OpKind::Inc)
            .unwrap()
            .id();
        let at = |e: &Engine, ctx: &Ctx, k: u32| {
            ctx.cands
                .iter()
                .position(|c| e.it.pair(c.inst) == (inc, &Iter::from_slice(&[k])))
        };
        assert_eq!(at(&e, &ctx, 1), None, "iteration 1 waits for i@0");
        let before = sorted(&e.window.spans);

        let idx = at(&e, &ctx, 0).expect("i@0 is a candidate");
        let (mut issued, mut class_use) = (FxHashSet::default(), FxHashMap::default());
        e.issue(&mut ctx, idx, 0.0, &mut issued, &mut class_use);
        assert_eq!(sorted(&e.window.spans), before, "an issue leaves it equal");
        assert_eq!(before, rebuilt(&e, &ctx));

        e.sweep(&mut ctx).unwrap();
        assert!(at(&e, &ctx, 1).is_some(), "the issue enabled i@1");
        let after = sorted(&e.window.spans);
        assert_ne!(after, before, "the new iteration widened it");
        assert_eq!(after, rebuilt(&e, &ctx));
        assert_eq!(e.stats.window_builds, 2, "without a rebuild");
        assert!(e.window.oldest_valid);

        let c = at(&e, &ctx, 1).unwrap();
        assert!(!ctx.cands[c].guard.is_true());
        ctx.cands[c].guard = Guard::TRUE;
        let ev0 = e.events.len();
        e.events.push(CandEvent::Widened(c));
        e.widen_window(&ctx, inc, &[1], ev0);
        assert!(!e.window.oldest_valid, "a widened guard can lose support");
        let domain = e.swept_domain(&mut ctx);
        e.recycle_domain(domain);
        assert!(e.window.oldest_valid);
        assert_eq!(e.stats.window_builds, 2, "only the lookahead is rebuilt");
    }

    /// The swept window is built from scratch only for a context new to
    /// the sweep (the cold start, a state entry, a branch): never at the
    /// post-issue sweeps in between.
    #[test]
    fn window_is_built_once_per_swept_context() {
        let w = workloads::findmin_two_pass().expect("bundled workload builds");
        let probs = hls_sim::profile(&w.cdfg, &w.vectors(20), &w.mem_init);
        let mut cfg = SchedConfig::new(Mode::Speculative);
        cfg.max_spec_depth = w.spec_depth;
        let r = schedule(&w.cdfg, &w.library, &w.allocation, &probs, &cfg).unwrap();
        let p = r.stats.phases;
        // `grow` runs once per state entry; `sweep` once at the cold
        // start and once per branch.
        let contexts = p.grow.calls + p.sweep.calls;
        assert!(
            r.stats.window_builds <= contexts,
            "{} window builds for {contexts} swept contexts",
            r.stats.window_builds
        );
    }

    /// Differential oracle for the incremental sweep (see
    /// [`SchedConfig::reference_sweep`]): on seeded random CDFGs, the
    /// event-driven sweep with its incrementally patched ready list
    /// must reproduce the reference regenerate-and-re-sort sweep
    /// *exactly* — same error status, same states, same per-state issue
    /// order, same fold signature trail — and each of its fixpoints must
    /// survive the reference audit.
    mod differential {
        use super::*;
        use spec_support::props;
        use spec_support::proptest_lite as pl;

        /// Random schedulable sources: straight-line code, branches,
        /// reads and writes of a memory `M`, a bounded loop or a
        /// fixed-count nest of two (which puts the depth-2 rules of the
        /// sweep events under the oracle), and up to
        /// two data-dependent loops scanning `M` (the FindminSharedMem
        /// shape), over binops drawn from `{+, -, <, ==}` (adder,
        /// subtracter, comparator, eq-comparator — classes the
        /// differential allocation grants generously, so programs
        /// schedule rather than get stuck). Every access to `M` is
        /// ordered after the previous one, so memory statements around
        /// and between the loops build the order-token chains that
        /// settle through loop exits.
        fn arb_expr() -> pl::Gen<String> {
            let leaf = pl::one_of(vec![
                pl::range(0i64..8).map(|v| v.to_string()),
                pl::one_of(vec![
                    pl::just("x"),
                    pl::just("y"),
                    pl::just("a"),
                    pl::just("b"),
                    pl::just("M[a]"),
                    pl::just("M[1]"),
                ])
                .map(str::to_string),
            ]);
            pl::recursive(2, leaf, |inner| {
                pl::tuple3(
                    inner.clone(),
                    pl::one_of(vec![
                        pl::just("+"),
                        pl::just("-"),
                        pl::just("<"),
                        pl::just("=="),
                    ]),
                    inner,
                )
                .map(|(l, op, r)| format!("({l} {op} {r})"))
            })
        }

        fn arb_stmt() -> pl::Gen<String> {
            let assign = pl::tuple2(
                pl::one_of(vec![pl::just("a"), pl::just("b"), pl::just("M[b]")]),
                arb_expr(),
            )
            .map(|(n, e)| format!("{n} = {e};"));
            pl::recursive(2, assign, |inner| {
                pl::one_of(vec![
                    pl::tuple3(arb_expr(), inner.clone(), inner.clone())
                        .map(|(c, t, e)| format!("if ({c}) {{ {t} }} else {{ {e} }}")),
                    pl::tuple2(inner.clone(), inner).map(|(s1, s2)| format!("{s1} {s2}")),
                ])
            })
        }

        fn arb_src() -> pl::Gen<String> {
            pl::tuple3(
                pl::tuple2(arb_stmt(), arb_stmt()),
                pl::range(0u32..3),
                pl::range(0u32..3),
            )
            .map(|((s1, s2), counted, scans)| {
                let counted = match counted {
                    0 => s1,
                    1 => format!("while (i < 3) {{ {s1} i = i + 1; }}"),
                    _ => format!(
                        "while (i < 2) {{ var q = 0; \
                         while (q < 2) {{ {s1} q = q + 1; }} i = i + 1; }}"
                    ),
                };
                let scan1 = if scans >= 1 {
                    "while (j < x) { var u = M[j]; if (u < a) { a = u; } j = j + 1; }"
                } else {
                    ""
                };
                let scan2 = if scans >= 2 {
                    "while (k < y) { var w = M[k]; if (w < b) { b = b + 1; } k = k + 1; }"
                } else {
                    ""
                };
                format!(
                    "design rnd {{ input x, y; output o; mem M[8];
                      var a = x; var b = y; var i = 0; var j = 0; var k = 0;
                      {counted} {scan1} {s2} {scan2}
                      o = a + b; }}"
                )
            })
        }

        fn run_both(src: &str, mode: Mode) {
            let g = compile(src);
            let lib = Library::dac98();
            let alloc = Allocation::new()
                .with(FuClass::Adder, 2)
                .with(FuClass::Subtracter, 2)
                .with(FuClass::Comparator, 2)
                .with(FuClass::EqComparator, 2)
                .with(FuClass::Incrementer, 2)
                .with(FuClass::MemPort(cdfg::MemId::new(0)), 1);
            let probs = BranchProbs::new();
            let mut cfg = SchedConfig::new(mode);
            cfg.max_states = 512;
            cfg.max_iterations = 20_000;
            let mut rcfg = cfg.clone();
            rcfg.reference_sweep = true;
            let inc = Engine::new(&g, &lib, &alloc, &probs, &cfg).run_with_trail();
            let reference = Engine::new(&g, &lib, &alloc, &probs, &rcfg).run_with_trail();
            match (inc, reference) {
                (Ok((ri, ti)), Ok((rr, tr))) => {
                    assert_eq!(ti, tr, "{mode}: fold signature trails diverge\n{src}");
                    assert_eq!(
                        ri.stats.issues, rr.stats.issues,
                        "{mode}: issue counts diverge\n{src}"
                    );
                    // The STG debug rendering covers states, per-state
                    // issue order, transitions, and fold renames — the
                    // whole observable schedule.
                    assert_eq!(
                        format!("{:?}", ri.stg),
                        format!("{:?}", rr.stg),
                        "{mode}: STGs diverge\n{src}"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{mode}: errors diverge\n{src}"),
                (a, b) => panic!(
                    "{mode}: status diverged (incremental ok={}, reference ok={})\n{src}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
            // A missed event can delay a generation without changing the
            // schedule it converges to. Arm the dropped-event audit with
            // no probe that fires, so every incremental fixpoint must
            // also be a reference fixpoint, where it is reached.
            let mut audited = Engine::new(&g, &lib, &alloc, &probs, &cfg);
            let mut faults = FaultState::new(crate::FaultPlan::new(0).with_probes(Vec::new()));
            faults.dropped_any = true;
            audited.faults = Some(faults);
            if let Err(SchedError::Internal { context }) = audited.run() {
                panic!("{mode}: {context}\n{src}");
            }
        }

        props! {
            fn incremental_sweep_matches_reference(
                src in arb_src(),
                mode in pl::one_of(vec![
                    pl::just(Mode::Speculative),
                    pl::just(Mode::NonSpeculative),
                    pl::just(Mode::SinglePath),
                ]),
            ) {
                run_both(&src, mode);
            }
        }
    }
}
