//! The scheduling engine: the worklist algorithm of Fig. 12 of the
//! paper, generalized over the three scheduling policies.
//!
//! See the crate-level docs for the algorithm outline. The engine owns
//! the BDD manager, the condition table, the instance interner, the
//! growing STG, and the state signature index used for equivalence
//! folding.

use crate::ctx::{
    cmp_inst, cmp_src, loop_ancestor, AvailInfo, Candidate, CondInst, CondTable, Ctx, InstId,
    InstTable, Iter, Key, ValSrc, VecMap, MAX_NEST,
};
use crate::fault::{FaultState, FaultStats, Probe};
use crate::resolve::{GenScratch, Res, Tables};
use crate::sig::SigBuilder;
use crate::{BlockedInst, Mode, SchedConfig, SchedError, StuckReport};
use cdfg::analysis::{self, BranchProbs};
use cdfg::{Cdfg, LoopId, OpId, PortKind};
use guards::{BddManager, Cond, CondProbs, Guard};
use hls_resources::{classify, Allocation, FuClass, Library};
use spec_support::fxhash::{FxHashMap, FxHashSet};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use stg::{OpInst, ScheduledOp, StateId, Stg, Transition, ValRef};

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

/// One entry of the criticality-ordered ready list a state grows from.
/// `skip` marks entries rejected for a reason that cannot clear until
/// the next state (every [`Reject`] but [`Reject::OperandMissing`]).
struct ReadyEntry {
    crit: f64,
    idx: usize,
    skip: bool,
}

/// The first failing check of [`Engine::feasible`], in check order.
///
/// Every rejection but [`Reject::OperandMissing`] holds for the rest of
/// the state: each input of its check is monotone or frozen until the
/// boundary tick.
enum Reject {
    /// A side effect under a guard that is not TRUE (side effects never
    /// speculate).
    SideEffect,
    /// Non-speculative mode: the guard is not TRUE yet.
    Unresolved,
    /// Single-path mode: the guard is off the predicted path or beyond
    /// the speculation depth.
    OffPath,
    /// Speculative mode: the guard's support size exceeds the depth cap.
    TooDeep(usize),
    /// A memory-order token that is not live.
    DeadToken(Key),
    /// A memory-order token issued in this very state.
    TokenIssuedThisState,
    /// Operand `.0`'s version `.1` is not live. The one transient
    /// rejection: the version may be issued later in this very state
    /// and then chained.
    OperandMissing(usize, Key),
    /// Operand `.0` is a multi-cycle result still `.1` states from
    /// readable.
    OperandInFlight(usize, u32),
    /// The chained combinational path does not fit the clock period, or
    /// an operand is a same-state result of a non-chainable unit.
    Chaining,
    /// Every unit of the class is taken.
    NoUnit(FuClass),
}

/// A loop context: a loop and the iteration prefix of its enclosing
/// loops.
type LoopCtx = (LoopId, Iter);

/// Per-loop-context minimum condition iteration mentioned by a guard
/// (the lookahead cap's `oldest` contribution).
type CapContrib = Vec<(LoopCtx, u32)>;

/// The candidate iteration window `(lo, hi)` per loop context.
type Domain = VecMap<LoopCtx, (u32, u32)>;

/// The value of `key` in a per-loop-context accumulator, inserted as
/// `init` when absent. Few loop contexts are live at once, so these
/// accumulators are small vectors with linear lookup.
fn ctx_entry<V>(acc: &mut Vec<(LoopCtx, V)>, key: LoopCtx, init: V) -> &mut V {
    let i = match acc.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            acc.push((key, init));
            acc.len() - 1
        }
    };
    &mut acc[i].1
}

struct Engine<'a> {
    g: &'a Cdfg,
    lib: &'a Library,
    alloc: &'a Allocation,
    probs: &'a BranchProbs,
    cfg: &'a SchedConfig,
    tables: Tables,
    mgr: BddManager,
    ct: CondTable,
    it: InstTable,
    cprobs: CondProbs,
    lambda: Vec<f64>,
    useful: Vec<bool>,
    /// Per op: every loop whose iteration bookkeeping (floor/horizon)
    /// its transitive fanin can reference.
    loops_needed: Vec<BTreeSet<LoopId>>,
    /// Per op: its direct consumers through data and order edges,
    /// including the op itself (see [`direct_consumers`]). These are
    /// exactly the ops whose candidate generation can observe a change
    /// to this op's context entries; they drive the sweep memo's dirty
    /// propagation.
    consumers: Vec<Vec<OpId>>,
    /// Per loop: the ops whose candidate generation reads that loop's
    /// iteration bookkeeping (the inverse of [`Self::loops_needed`]).
    loop_readers: Vec<Vec<OpId>>,
    /// Per conditional op: every op whose candidate generation can
    /// observe that condition resolving (the op's transitive fan-out
    /// through data, order, and control edges, plus — for loop
    /// conditions — the loop's readers, whose chains and exit views
    /// reference its literals). Drives cofactor-time dirty marking.
    cond_readers: Vec<Vec<OpId>>,
    stg: Stg,
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
    events: Vec<crate::resolve::CandEvent>,
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
    /// Rendered sum-of-products string per guard. Pure function of the
    /// hash-consed guard, so valid for the whole run; issue rates are
    /// high and steady-state guards repeat.
    sop_memo: FxHashMap<Guard, String>,
    /// Reusable support-set buffer for guard walks on hot paths.
    supp_scratch: Vec<Cond>,
    /// Reusable buffers of the sweep and gc passes: the iteration
    /// vectors of one op's window, and the drained dirty-op list.
    iter_buf: Vec<Iter>,
    dirty_buf: Vec<OpId>,
    /// Reusable accumulator of [`Self::cap_lookahead`]: the oldest
    /// unresolved condition iteration per loop context.
    oldest_buf: CapContrib,
    /// Reusable buffers of the resolution walk ([`Res::scratch`]).
    gen: GenScratch,
    /// Spare entry buffers for [`Self::iter_domain`] results.
    domain_bufs: Vec<Vec<(LoopCtx, (u32, u32))>>,
    /// Reusable buffers of [`Self::gc`]: the live mark of each `avail`
    /// entry by position, the version lists of the consumer walk, the
    /// ops of dropped versions, and the live loops by index.
    gc_marks: Vec<bool>,
    gc_versions: Vec<(ValSrc, Guard)>,
    gc_ops: Vec<OpId>,
    gc_loops: Vec<bool>,
    /// Reusable list of the candidate indices one issue removes.
    removed_buf: Vec<usize>,
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
        let loops_needed = loops_needed(g);
        let mut loop_readers: Vec<Vec<OpId>> = vec![Vec::new(); g.loops().len()];
        for op in g.ops() {
            for l in &loops_needed[op.id().index()] {
                loop_readers[l.index()].push(op.id());
            }
        }
        let cond_readers = cond_readers(g, &loop_readers);
        let started = Instant::now();
        Engine {
            g,
            lib,
            alloc,
            probs,
            cfg,
            tables: Tables::new(g),
            mgr: BddManager::new(),
            ct: CondTable::default(),
            it: InstTable::default(),
            cprobs: CondProbs::new(),
            lambda,
            useful: useful_ops(g),
            loops_needed,
            consumers: direct_consumers(g),
            loop_readers,
            cond_readers,
            stg: Stg::new(g.name()),
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
            dirty_buf: Vec::new(),
            oldest_buf: Vec::new(),
            gen: GenScratch::default(),
            domain_bufs: Vec::new(),
            gc_marks: Vec::new(),
            gc_versions: Vec::new(),
            gc_ops: Vec::new(),
            gc_loops: Vec::new(),
            removed_buf: Vec::new(),
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

    fn res(&mut self) -> Res<'_> {
        Res {
            g: self.g,
            tables: &self.tables,
            mgr: &mut self.mgr,
            ct: &mut self.ct,
            it: &mut self.it,
            memo: &mut self.memo,
            events: &mut self.events,
            scratch: &mut self.gen,
        }
    }

    /// Whether the [`Probe::DropSweepEvent`] fault fires for the
    /// current dirty-marking event (always false without an armed
    /// plan). Counts `n` dropped insertions when it does.
    fn drop_sweep_event(&mut self, n: usize) -> bool {
        if let Some(f) = &mut self.faults {
            if f.fire(Probe::DropSweepEvent) {
                f.stats.dropped_events += n.saturating_sub(1) as u64;
                return true;
            }
        }
        false
    }

    /// Records a change to `op`'s context entries (an issue appending
    /// to `avail`, or its generator appending/widening candidates) in
    /// the context's own dirty set: every direct consumer must
    /// re-generate before the sweep can quiesce.
    fn mark_op_changed(&mut self, ctx: &mut Ctx, op: OpId) {
        if self.drop_sweep_event(self.consumers[op.index()].len()) {
            return;
        }
        let dirty = ctx.sweep_dirty_mut();
        for p in &self.consumers[op.index()] {
            dirty.insert(*p);
        }
    }

    /// Records a horizon bump of loop `l`: every op whose generation
    /// reads that loop's bookkeeping must re-generate.
    fn mark_loop_changed(&mut self, ctx: &mut Ctx, l: LoopId) {
        if self.drop_sweep_event(self.loop_readers[l.index()].len()) {
            return;
        }
        let dirty = ctx.sweep_dirty_mut();
        for p in &self.loop_readers[l.index()] {
            dirty.insert(*p);
        }
    }

    /// Records the resolution of an instance of conditional op `cond`
    /// (a cofactoring event): every op whose guards, chains, or
    /// steering can reference the condition must re-generate.
    fn mark_cond_changed(&mut self, ctx: &mut Ctx, cond: OpId) {
        if self.drop_sweep_event(self.cond_readers[cond.index()].len()) {
            return;
        }
        let dirty = ctx.sweep_dirty_mut();
        for p in &self.cond_readers[cond.index()] {
            dirty.insert(*p);
        }
    }

    /// Marks every schedulable op dirty — the cold-start event for a
    /// fresh root context (and the reference mode's per-pass reset).
    fn mark_all(&self, ctx: &mut Ctx) {
        let dirty = ctx.sweep_dirty_mut();
        for op in self.g.ops() {
            if self.useful[op.id().index()] && !op.kind().is_source() {
                dirty.insert(op.id());
            }
        }
    }

    /// Hashed canonical signature of a context, timed under the
    /// `signature` phase; leaves the context's canonical keys in
    /// `self.sig`. Every probed signature is appended to the trail for
    /// differential testing.
    fn hashed_signature(&mut self, ctx: &Ctx) -> u128 {
        let t = Instant::now();
        let sig = ctx.signature_hash(self.g, &self.ct, &mut self.mgr, &self.it, &mut self.sig);
        self.stats.phases.signature.add(t.elapsed());
        self.sig_trail.push(sig);
        sig
    }

    fn run(self) -> Result<ScheduleResult, SchedError> {
        self.run_with_trail().map(|(r, _)| r)
    }

    /// Runs the schedule and also returns the fold-probe signature
    /// trail, for differential tests comparing sweep implementations.
    fn run_with_trail(mut self) -> Result<(ScheduleResult, Vec<u128>), SchedError> {
        let mut ctx0 = Ctx::default();
        // Initial obligations: every side-effect operation at the
        // all-zero iteration of its loop nest.
        let mut r = self.res();
        let tables = r.tables;
        for &e in &tables.effects {
            let iter: Iter = std::iter::repeat_n(0, r.g.op(e).loop_path().len()).collect();
            let guard = r.ctrl_guard(&ctx0, e, &iter);
            if !guard.is_false() {
                let inst = r.it.id(e, &iter);
                ctx0.obligations_mut().insert(inst, guard);
            }
        }
        // Cold start: everything is potentially generatable in a fresh
        // context; later sweeps run off the per-context dirty feed.
        let t_sw0 = Instant::now();
        self.mark_all(&mut ctx0);
        self.sweep(&mut ctx0)?;
        self.events.clear();
        self.stats.phases.sweep.add(t_sw0.elapsed());

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
            let resolves: Vec<OpInst> = {
                let mut set = BTreeSet::new();
                for (when, _) in &branches {
                    for (k, _) in when {
                        set.insert(key_to_inst(&self.it, k));
                    }
                }
                set.into_iter().collect()
            };
            self.stg.state_mut(sid).resolves = resolves;
            for (when, mut bctx) in branches {
                let tb = Instant::now();
                // Cofactoring changed `resolved` (and possibly floors):
                // the guard memo's validity window ends here.
                self.memo.clear();
                self.promote_done(&mut bctx);
                self.sweep(&mut bctx)?;
                self.events.clear();
                self.stats.phases.sweep.add(tb.elapsed());
                let tg = Instant::now();
                self.gc(&mut bctx);
                self.gc_storm_check(&mut bctx)?;
                self.stats.phases.gc.add(tg.elapsed());
                self.stats.peak_ctx = self.stats.peak_ctx.max(bctx.avail.len());
                let when: Vec<(OpInst, bool)> = when
                    .iter()
                    .map(|(k, v)| (key_to_inst(&self.it, k), *v))
                    .collect();
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
                    let renames = fold_renames(self.sig.canonical_keys(), old_keys, &self.it);
                    let tid = *tid;
                    self.stats.phases.fold.add(t_fold.elapsed());
                    if tid == sid && when.is_empty() && self.stg.state(sid).ops.is_empty() {
                        let mut r = self.stuck_report(&mut bctx);
                        r.headline = format!("livelock: empty state {sid} folds onto itself");
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

    /// Grows one state: repeatedly selects and issues the feasible
    /// candidate with the highest criticality (Eq. 5) until nothing more
    /// fits, sweeping for newly enabled successors after every issue.
    ///
    /// Selection walks a criticality-ordered ready list that is
    /// maintained *incrementally*: built once per state, then patched
    /// from the [`CandEvent`]s each post-issue sweep emits instead of
    /// being regenerated and re-sorted from scratch every round. With
    /// [`SchedConfig::reference_sweep`] set, the list is rebuilt by a
    /// full re-sort every round instead — the oracle the differential
    /// tests compare against.
    fn grow_state(&mut self, sid: StateId, ctx: &mut Ctx) -> Result<(), SchedError> {
        let mut issued: FxHashSet<Key> = FxHashSet::default();
        let mut class_use: FxHashMap<FuClass, u32> = FxHashMap::default();
        // `resolved` and the floors are frozen while a state grows:
        // this opens a fresh guard-memo validity window.
        self.memo.clear();
        self.sweep(ctx)?;
        self.events.clear();
        let mut ready = self.build_ready(ctx);
        loop {
            // Highest-criticality feasible candidate: first feasible
            // entry in ready order. Entries that failed for a reason
            // that cannot clear until the next state (guard depth,
            // consumed ordering token, exhausted FU class, in-flight
            // operand — all monotone while the state grows) are flagged
            // and skipped on subsequent scans; only "operand version
            // not issued yet" can flip as the state fills.
            let mut pick: Option<(usize, f64)> = None; // (ready idx, start)
            for (ri, e) in ready.iter_mut().enumerate() {
                if e.skip {
                    continue;
                }
                match self.feasible(ctx, &ctx.cands[e.idx], &issued, &class_use) {
                    Ok(start) => {
                        pick = Some((ri, start));
                        break;
                    }
                    Err(Reject::OperandMissing(..)) => {}
                    Err(_) => e.skip = true,
                }
            }
            let Some((ri, start)) = pick else { break };
            let idx = ready[ri].idx;
            // `issue` removes the picked candidate — and, when its
            // guard is TRUE, every other candidate of the same
            // instance. Record the removed indices (sorted) so the
            // surviving ready entries can be remapped in place.
            let inst = ctx.cands[idx].inst;
            let mut removed = std::mem::take(&mut self.removed_buf);
            removed.clear();
            if ctx.cands[idx].guard.is_true() {
                removed.extend(
                    ctx.cands
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.inst == inst)
                        .map(|(i, _)| i),
                );
            } else {
                removed.push(idx);
            }
            self.issue(sid, ctx, idx, start, &mut issued, &mut class_use);
            ready.retain_mut(|e| {
                if removed.binary_search(&e.idx).is_ok() {
                    return false;
                }
                e.idx -= removed.partition_point(|&r| r < e.idx);
                true
            });
            self.removed_buf = removed;
            self.sweep(ctx)?;
            if self.cfg.reference_sweep {
                self.events.clear();
                ready = self.build_ready(ctx);
            } else {
                let mut events = std::mem::take(&mut self.events);
                for ev in events.drain(..) {
                    match ev {
                        crate::resolve::CandEvent::Added(i) => {
                            self.ready_insert(&mut ready, ctx, i)
                        }
                        crate::resolve::CandEvent::Widened(i) => {
                            // Guard widened: criticality changed, so
                            // remove the stale entry and re-insert at
                            // its new rank (with a fresh skip flag — a
                            // wider guard can clear a depth rejection).
                            if let Some(p) = ready.iter().position(|e| e.idx == i) {
                                ready.remove(p);
                            }
                            self.ready_insert(&mut ready, ctx, i);
                        }
                        // A token refresh changes neither the guard nor
                        // the instance: rank is unchanged.
                        crate::resolve::CandEvent::Retokened(_) => {}
                    }
                }
                self.events = events;
            }
        }
        // Stall / deadlock detection: an empty state must be waiting on
        // something that advances with time.
        if self.stg.state(sid).ops.is_empty() {
            let waiting = ctx.avail.values().any(|i| i.ready_in > 0)
                || !ctx.pending_conds.is_empty()
                || ctx.fu_busy.values().any(|v| !v.is_empty());
            if !waiting && !ctx.obligations.is_empty() {
                return Err(SchedError::Stuck(self.stuck_report(ctx)));
            }
        }
        Ok(())
    }

    /// Builds the criticality-ordered ready list: every candidate
    /// index, sorted best-first under the strict total order
    /// (criticality descending by [`f64::total_cmp`], then
    /// [`cand_cmp`] ascending as the deterministic tie-break).
    fn build_ready(&mut self, ctx: &Ctx) -> Vec<ReadyEntry> {
        let mut ready: Vec<ReadyEntry> = (0..ctx.cands.len())
            .map(|i| ReadyEntry {
                crit: self.criticality(&ctx.cands[i]),
                idx: i,
                skip: false,
            })
            .collect();
        let it = &self.it;
        ready.sort_by(|a, b| {
            b.crit
                .total_cmp(&a.crit)
                .then_with(|| cand_cmp(it, &ctx.cands[a.idx], &ctx.cands[b.idx]))
        });
        ready
    }

    /// Inserts candidate index `ci` into the ready list at its rank
    /// under the same total order as [`Self::build_ready`].
    fn ready_insert(&mut self, ready: &mut Vec<ReadyEntry>, ctx: &Ctx, ci: usize) {
        let crit = self.criticality(&ctx.cands[ci]);
        let it = &self.it;
        let cand = &ctx.cands[ci];
        let pos = ready.partition_point(|e| {
            crit.total_cmp(&e.crit)
                .then_with(|| cand_cmp(it, &ctx.cands[e.idx], cand))
                == Ordering::Less
        });
        ready.insert(
            pos,
            ReadyEntry {
                crit,
                idx: ci,
                skip: false,
            },
        );
    }

    /// Checks whether a candidate fits the current state: its
    /// combinational start depth if it does, else the first failing
    /// check.
    fn feasible(
        &mut self,
        ctx: &Ctx,
        cand: &Candidate,
        issued: &FxHashSet<Key>,
        class_use: &FxHashMap<FuClass, u32>,
    ) -> Result<f64, Reject> {
        let kind = self.g.op(self.it.op(cand.inst)).kind();
        // Side effects never speculate (they commit architectural state).
        // The guard is fixed for the candidate's lifetime (widening
        // re-enters it as a fresh ready entry), so guard-based
        // rejections hold for the rest of the state.
        if kind.has_side_effect() && !cand.guard.is_true() {
            return Err(Reject::SideEffect);
        }
        match self.cfg.mode {
            Mode::NonSpeculative => {
                if !cand.guard.is_true() {
                    return Err(Reject::Unresolved);
                }
            }
            Mode::SinglePath => {
                if !cand.guard.is_true()
                    && (self.mgr.support_len(cand.guard) > self.cfg.max_spec_depth
                        || !self.predicted_cube(cand.guard))
                {
                    return Err(Reject::OffPath);
                }
            }
            Mode::Speculative => {
                let support = self.mgr.support_len(cand.guard);
                if support > self.cfg.max_spec_depth {
                    return Err(Reject::TooDeep(support));
                }
            }
        }
        // Ordering tokens: the ordered-before access must have been
        // issued in a *previous* state. `issued` only grows, and a key
        // absent from `avail` can only appear via an issue this state
        // (which also marks it `issued`), so both arms are permanent.
        for t in cand.tokens.iter().flatten() {
            if !ctx.avail.contains_key(t) {
                return Err(Reject::DeadToken(*t));
            }
            if issued.contains(t) {
                return Err(Reject::TokenIssuedThisState);
            }
        }
        // Operand availability and chaining depth.
        let spec = self.lib.spec_for(kind);
        let frac = spec.as_ref().map_or(0.0, |s| s.frac_delay);
        let latency = spec.as_ref().map_or(0, |s| s.latency);
        let mut start = 0.0f64;
        for (i, o) in cand.operands.iter().enumerate() {
            if let ValSrc::Key(k) = o {
                let Some(info) = ctx.avail.get(k) else {
                    return Err(Reject::OperandMissing(i, *k));
                };
                if issued.contains(k) {
                    if info.depth >= 1.999 {
                        // Same-state result of a non-chainable unit;
                        // `depth` is fixed at issue.
                        return Err(Reject::Chaining);
                    }
                    start = start.max(info.depth);
                } else if info.ready_in > 0 {
                    // `ready_in` only decrements at the boundary tick.
                    return Err(Reject::OperandInFlight(i, info.ready_in));
                }
            }
        }
        // All operands exist at this point, and existing keys never
        // later join `issued`, so `start` is final for this candidate.
        if (latency > 1 && start > 0.0) || start + frac > 1.0 + 1e-9 {
            return Err(Reject::Chaining);
        }
        // Functional-unit capacity: `class_use` only grows and `fu_busy`
        // is frozen while the state grows.
        if let Some(s) = &spec {
            let class = classify(kind);
            let mut used = class_use.get(&class).copied().unwrap_or(0);
            if !s.pipelined {
                used += ctx.fu_busy.get(&class).map_or(0, |v| v.len() as u32);
            }
            if !self.alloc.limit(class).allows(used) {
                return Err(Reject::NoUnit(class));
            }
        }
        Ok(start)
    }

    /// Builds the structured liveness report for a stuck context: every
    /// candidate that cannot issue (and why), every obligation with no
    /// candidate at all (and what its resolution is waiting on), the
    /// starved functional-unit classes, and the loop bookkeeping.
    ///
    /// Only runs on the failure path, so it may be as slow as it likes.
    fn stuck_report(&mut self, ctx: &mut Ctx) -> StuckReport {
        let mut starved: BTreeSet<String> = BTreeSet::new();
        let mut blocked: Vec<BlockedInst> = Vec::new();
        let cands: Vec<Candidate> = ctx.cands.iter().cloned().collect();
        for cand in &cands {
            let (op, iter) = {
                let (o, i) = self.it.pair(cand.inst);
                (o, i.to_vec())
            };
            let reason = self.why_infeasible(ctx, cand, &mut starved);
            let guard = self.guard_sop(cand.guard);
            blocked.push(BlockedInst {
                op: self.g.op(op).name().to_string(),
                iter,
                guard,
                reason,
            });
        }
        let mut obls: Vec<(InstId, Guard)> =
            ctx.obligations.iter().map(|(i, g)| (*i, *g)).collect();
        obls.sort_by(|a, b| cmp_inst(&self.it, a.0, b.0));
        for (inst, gd) in &obls {
            if cands.iter().any(|c| c.inst == *inst) {
                continue;
            }
            let (op, iter) = {
                let (o, i) = self.it.pair(*inst);
                (o, i.to_vec())
            };
            let reason = self.why_no_candidate(ctx, op, &iter);
            let guard = self.guard_sop(*gd);
            blocked.push(BlockedInst {
                op: self.g.op(op).name().to_string(),
                iter,
                guard,
                reason,
            });
        }
        let headline = match obls.first() {
            Some((inst, _)) => {
                let (op, iter) = self.it.pair(*inst);
                format!(
                    "no progress towards {}{:?} — check the allocation",
                    self.g.op(op).name(),
                    iter
                )
            }
            None => "no progress".into(),
        };
        let mut loop_state = Vec::new();
        for ((l, prefix), h) in ctx.horizon.iter() {
            let fl = ctx.floor.get(&(*l, *prefix)).copied().unwrap_or(0);
            let wf = ctx.work_floor.get(&(*l, *prefix)).copied().unwrap_or(0);
            loop_state.push(format!(
                "loop l{}@{:?}: horizon={h} floor={fl} work_floor={wf}",
                l.index(),
                prefix
            ));
        }
        StuckReport {
            headline,
            starved_classes: starved.into_iter().collect(),
            blocked,
            loop_state,
        }
    }

    /// Names the first failing [`Self::feasible`] check for a candidate
    /// in a *stalled* (empty) state, recording zero-unit classes in
    /// `starved`. The per-state `issued`/`class_use` sets are empty by
    /// construction: nothing was issued in a stalled state.
    fn why_infeasible(
        &mut self,
        ctx: &Ctx,
        cand: &Candidate,
        starved: &mut BTreeSet<String>,
    ) -> String {
        let Err(reject) = self.feasible(ctx, cand, &FxHashSet::default(), &FxHashMap::default())
        else {
            return "feasible by every static check (transient stall)".into();
        };
        let name = |k: &Key| {
            let (op, iter) = self.it.pair(k.inst);
            format!("{}{:?}v{}", self.g.op(op).name(), iter, k.version)
        };
        match reject {
            Reject::SideEffect => {
                "side effect awaiting full control resolution (never speculates)".into()
            }
            Reject::Unresolved => "guard unresolved (non-speculative mode)".into(),
            Reject::OffPath => {
                "guard off the predicted path or beyond the speculation depth".into()
            }
            Reject::TooDeep(support) => format!(
                "guard support {support} exceeds max_spec_depth {}",
                self.cfg.max_spec_depth
            ),
            Reject::DeadToken(t) => format!("memory-order token {} is not live", name(&t)),
            Reject::TokenIssuedThisState => "memory-order token issued this state".into(),
            Reject::OperandMissing(i, k) => {
                format!("operand {i} version {} was collected", name(&k))
            }
            Reject::OperandInFlight(i, n) => format!("operand {i} still in flight ({n} cycles)"),
            Reject::Chaining => "chained path exceeds the clock period".into(),
            Reject::NoUnit(class) => {
                if self.alloc.limit(class).allows(0) {
                    format!("every {class} unit is busy with multi-cycle work")
                } else {
                    starved.insert(class.to_string());
                    format!("allocation grants zero {class} units")
                }
            }
        }
    }

    /// Explains why an obligation has no candidate at all: an unsettled
    /// memory-order token, an operand with no derivable value version,
    /// or the version/speculation-depth caps.
    fn why_no_candidate(&mut self, ctx: &mut Ctx, op: OpId, iter: &[u32]) -> String {
        let g = self.g;
        let mut r = self.res();
        for p in g.op(op).order_deps() {
            if r.token(ctx, p, op, iter).is_err() {
                return format!(
                    "memory-order token through {} not settled",
                    describe_port(r.g, p)
                );
            }
        }
        for (i, p) in g.op(op).ports().iter().enumerate() {
            let mut versions = Vec::new();
            r.port_versions(ctx, p, op, iter, &mut versions);
            if versions.is_empty() {
                return format!(
                    "no value version for operand {i} ({})",
                    describe_port(r.g, p)
                );
            }
        }
        "candidates exist but exceeded the version or speculation-depth cap".into()
    }

    /// Renders a guard as a sum of products over named condition
    /// instances (`name_iter0_iter1` literals).
    fn guard_sop(&mut self, gd: Guard) -> String {
        let ct = &self.ct;
        let it = &self.it;
        let g = self.g;
        self.mgr.to_sop_string(gd, &|c| {
            let (op, iter) = it.pair(ct.inst_of(c));
            let mut s = g.op(op).name().to_string();
            for i in iter {
                s.push('_');
                s.push_str(&i.to_string());
            }
            s
        })
    }

    /// `true` if the guard is a cube whose every literal matches the
    /// profile-predicted outcome — the single-path speculation filter.
    fn predicted_cube(&mut self, guard: Guard) -> bool {
        let mut scratch = std::mem::take(&mut self.supp_scratch);
        self.mgr.support_into(guard, &mut scratch);
        let mut predicted = Guard::TRUE;
        for &c in &scratch {
            let op = self.it.op(self.ct.inst_of(c));
            let pol = self.probs.get(op) >= 0.5;
            let lit = self.mgr.literal(c, pol);
            predicted = self.mgr.and(predicted, lit);
        }
        self.supp_scratch = scratch;
        guard == predicted
    }

    /// Eq. 5: `λ(op) · P(guard)`, memoized per `(instance, guard)` —
    /// both factors are fixed for the run.
    fn criticality(&mut self, cand: &Candidate) -> f64 {
        let memo_key = (cand.inst, cand.guard);
        if let Some(&v) = self.crit_cache.get(&memo_key) {
            return v;
        }
        let mut scratch = std::mem::take(&mut self.supp_scratch);
        self.mgr.support_into(cand.guard, &mut scratch);
        for &c in &scratch {
            let op = self.it.op(self.ct.inst_of(c));
            self.cprobs.set(c, self.probs.get(op));
        }
        self.supp_scratch = scratch;
        let p = self
            .cprobs
            .probability_with(&self.mgr, cand.guard, &mut self.prob_memo);
        let v = self.lambda[self.it.op(cand.inst).index()] * p;
        self.crit_cache.insert(memo_key, v);
        v
    }

    fn issue(
        &mut self,
        sid: StateId,
        ctx: &mut Ctx,
        idx: usize,
        start: f64,
        issued: &mut FxHashSet<Key>,
        class_use: &mut FxHashMap<FuClass, u32>,
    ) {
        let cand = ctx.cands_mut().remove(idx);
        let op = self.it.op(cand.inst);
        let kind = self.g.op(op).kind();
        let spec = self.lib.spec_for(kind);
        let latency = spec.as_ref().map_or(0, |s| s.latency);
        let frac = spec.as_ref().map_or(0.0, |s| s.frac_delay);
        // Version numbers restart after invalidated versions are
        // collected, so steady-state iterations produce identical names
        // and can fold. Reusing a number retired on this path is safe:
        // its old consumers executed before this state, so the registry
        // overwrite cannot be observed.
        let version = ctx
            .avail
            .range(Key::version_range(cand.inst))
            .map(|(k, _)| k.version + 1)
            .max()
            .unwrap_or(0);
        let key = Key::new(cand.inst, version);
        ctx.avail_mut().insert(
            key,
            AvailInfo {
                guard: cand.guard,
                ready_in: latency,
                depth: if latency > 1 { 2.0 } else { start + frac },
                operands: cand.operands,
            },
        );
        issued.insert(key);
        if let Some(s) = &spec {
            let class = classify(kind);
            *class_use.entry(class).or_insert(0) += 1;
            if !s.pipelined && s.latency > 1 {
                ctx.fu_busy_mut()
                    .get_or_insert_with(class, Vec::new)
                    .push(s.latency);
            }
        }
        if kind.has_side_effect() {
            ctx.obligations_mut().remove(&cand.inst);
        }
        if cand.guard.is_true() {
            ctx.done_mut().insert(cand.inst);
            ctx.cands_mut().retain(|c| c.inst != cand.inst);
        }
        if self.g.op(op).is_conditional() {
            ctx.pending_conds_mut()
                .push((key, cand.guard, latency.max(1)));
        }
        // The rendered SOP is a pure function of the (hash-consed)
        // guard, and steady-state schedules issue under the same few
        // guards over and over — cache the string per run.
        let guard_str = match self.sop_memo.get(&cand.guard) {
            Some(s) => s.clone(),
            None => {
                let s = self.guard_sop(cand.guard);
                self.sop_memo.insert(cand.guard, s.clone());
                s
            }
        };
        self.stg.state_mut(sid).ops.push(ScheduledOp {
            inst: key_to_inst(&self.it, &key),
            operands: cand
                .operands
                .iter()
                .map(|v| valsrc_to_ref(&self.it, v))
                .collect(),
            latency,
            guard_str,
        });
        self.stats.issues += 1;
        self.mark_op_changed(ctx, op);
    }

    /// One sweep pass: drains the context's dirty set into `dirty` and
    /// re-generates every drained op over its window in `domain`
    /// (`iters` is scratch). Each generation that adds candidates marks
    /// the op changed and notes its iteration. Returns the number of
    /// candidates added.
    fn sweep_pass(
        &mut self,
        ctx: &mut Ctx,
        domain: &Domain,
        dirty: &mut Vec<OpId>,
        iters: &mut Vec<Iter>,
    ) -> usize {
        let cfg = self.cfg;
        dirty.clear();
        dirty.extend(ctx.sweep_dirty.iter().copied());
        ctx.sweep_dirty_mut().clear();
        let mut added = 0usize;
        for &opid in dirty.iter() {
            if !self.useful[opid.index()] || self.g.op(opid).kind().is_source() {
                continue;
            }
            enumerate_iters(self.g, opid, domain, ctx, iters);
            for iter in iters.iter() {
                let n = self.res().gen_candidates(
                    ctx,
                    opid,
                    iter,
                    cfg.max_versions,
                    cfg.max_spec_depth,
                );
                if n > 0 {
                    added += n;
                    self.mark_op_changed(ctx, opid);
                    self.note_iteration(ctx, opid, iter);
                }
            }
        }
        added
    }

    /// Generates candidates over the live iteration domain; bumps
    /// horizons and instantiates newly reachable obligations.
    ///
    /// The sweep is *incremental*: instead of re-running every op's
    /// generator each pass, it drains the context's dirty set — fed by
    /// issue, horizon, cofactor, discharge, and domain-growth events —
    /// and re-generates only the marked ops. A pass that generates
    /// nothing and leaves the dirty set empty (after re-checking the
    /// domain) is the fixpoint. With
    /// [`SchedConfig::reference_sweep`] set, every pass re-marks all
    /// ops, reproducing the reference regenerate-everything sweep.
    fn sweep(&mut self, ctx: &mut Ctx) -> Result<(), SchedError> {
        // The domain depends on `avail`, the candidate list, obligations,
        // horizons, and work floors. Mid-sweep, all of those mutate only
        // under a generator's `n > 0` path, so passes that generated
        // nothing reuse the previous pass's domain verbatim.
        let mut domain = self.swept_domain(ctx);
        let mut dirty = std::mem::take(&mut self.dirty_buf);
        let mut iters = std::mem::take(&mut self.iter_buf);
        loop {
            if self.cfg.reference_sweep {
                self.mark_all(ctx);
            }
            if ctx.sweep_dirty.is_empty() {
                break;
            }
            let added = self.sweep_pass(ctx, &domain, &mut dirty, &mut iters);
            // Reference mode marks everything each pass, so the dirty
            // set alone never quiesces — fall back to the legacy
            // nothing-generated fixpoint test.
            if self.cfg.reference_sweep && added == 0 {
                break;
            }
            if added > 0 {
                let stale = std::mem::replace(&mut domain, self.swept_domain(ctx));
                self.recycle_domain(stale);
            }
        }
        // Containment audit for the dropped-sweep-event fault: once any
        // dirty-marking event has been dropped, chase every fixpoint
        // with one reference pass (regenerate everything, exactly the
        // `reference_sweep` oracle). The reference/incremental
        // equivalence the differential tests prove means a clean
        // fixpoint regenerates nothing — so anything the pass adds is a
        // candidate the dropped event hid, and the run aborts instead
        // of emitting a silently divergent schedule. The fixpoint pass
        // generated nothing after `domain` was last computed, so it is
        // still the context's domain.
        if self.faults.as_ref().is_some_and(|f| f.dropped_any) {
            if let Some(f) = &mut self.faults {
                f.stats.audits += 1;
            }
            let events_before = self.events.len();
            self.mark_all(ctx);
            let added = self.sweep_pass(ctx, &domain, &mut dirty, &mut iters);
            if added > 0 || self.events.len() > events_before {
                self.recycle_domain(domain);
                return Err(SchedError::Internal {
                    context: format!(
                        "dropped sweep event detected by reference audit: \
                         {added} candidate(s) the incremental sweep missed"
                    ),
                });
            }
        }
        self.dirty_buf = dirty;
        self.iter_buf = iters;
        self.recycle_domain(domain);
        Ok(())
    }

    /// The candidate window a sweep pass enumerates: the live domain
    /// under the lookahead cap. Marks the readers of every loop whose
    /// window grew.
    fn swept_domain(&mut self, ctx: &mut Ctx) -> Domain {
        let mut domain = self.iter_domain(ctx);
        self.cap_lookahead(ctx, &mut domain);
        self.mark_domain_growth(ctx, &domain);
        domain
    }

    /// Containment audit for the gc-storm fault: re-runs the
    /// mark-and-sweep prune after the normal pass and verifies the
    /// context fingerprint is unchanged — pruning must be idempotent,
    /// so a redundant storm of prune passes is byte-neutral. A changed
    /// fingerprint means gc dropped live state and the run aborts.
    fn gc_storm_check(&mut self, ctx: &mut Ctx) -> Result<(), SchedError> {
        let fire = match &mut self.faults {
            Some(f) => f.fire(Probe::GcStorm),
            None => false,
        };
        if !fire {
            return Ok(());
        }
        let before = ctx.shape_fingerprint();
        self.gc(ctx);
        if ctx.shape_fingerprint() != before {
            return Err(SchedError::Internal {
                context: "gc-storm audit: prune pass is not idempotent".to_string(),
            });
        }
        Ok(())
    }

    /// Diffs the swept domain against the context's recorded baseline
    /// and marks the readers of every loop whose window grew (new
    /// prefix, lower `lo`, or higher `hi`): their generators can now
    /// enumerate instances they have never seen. Shrinks are recorded
    /// but need no marks — generating over a subset is a no-op.
    fn mark_domain_growth(&mut self, ctx: &mut Ctx, domain: &Domain) {
        if *ctx.sweep_domain == *domain {
            return;
        }
        let mut grew: BTreeSet<LoopId> = BTreeSet::new();
        for (key, &(lo, hi)) in domain.iter() {
            match ctx.sweep_domain.get(key) {
                Some(&(plo, phi)) => {
                    if lo < plo || hi > phi {
                        grew.insert(key.0);
                    }
                }
                None => {
                    grew.insert(key.0);
                }
            }
        }
        ctx.sweep_domain_mut().clone_from(domain);
        for l in grew {
            self.mark_loop_changed(ctx, l);
        }
    }

    /// Caps each loop context's candidate window at `max_spec_depth`
    /// iterations beyond its oldest *unresolved* condition instance.
    /// Without this, an independent counter chain (whose conditions keep
    /// resolving) races arbitrarily far ahead of depth-starved
    /// speculation at older iterations, stretching the live window so no
    /// two contexts ever fold.
    fn cap_lookahead(&mut self, ctx: &Ctx, domain: &mut Domain) {
        // The per-context minimum, accumulated in a reused vector.
        let mut oldest = std::mem::take(&mut self.oldest_buf);
        oldest.clear();
        for gd in ctx
            .avail
            .values()
            .map(|i| i.guard)
            .chain(ctx.cands.iter().map(|c| c.guard))
        {
            // A guard's per-loop-context oldest condition iteration is
            // a pure function of the (hash-consed) guard: cache it for
            // the run instead of re-walking supports every pass.
            if !self.cap_contrib.contains_key(&gd) {
                let mut scratch = std::mem::take(&mut self.supp_scratch);
                self.mgr.support_into(gd, &mut scratch);
                let mut contrib: BTreeMap<LoopCtx, u32> = BTreeMap::new();
                for &c in &scratch {
                    let (op, iter) = self.it.pair(self.ct.inst_of(c));
                    let path = self.g.op(op).loop_path();
                    for (d, &l) in path.iter().enumerate() {
                        if d < iter.len() {
                            let e = contrib
                                .entry((l, Iter::from_slice(&iter[..d])))
                                .or_insert(u32::MAX);
                            *e = (*e).min(iter[d]);
                        }
                    }
                }
                self.supp_scratch = scratch;
                self.cap_contrib.insert(gd, contrib.into_iter().collect());
            }
            for &(key, m) in &self.cap_contrib[&gd] {
                let e = ctx_entry(&mut oldest, key, u32::MAX);
                *e = (*e).min(m);
            }
        }
        let depth = self.cfg.max_spec_depth as u32;
        for (key, (lo, hi)) in domain.iter_mut() {
            if let Some(&(_, old)) = oldest.iter().find(|(k, _)| k == key) {
                if old != u32::MAX {
                    *hi = (*hi).min(old.saturating_add(depth));
                }
            }
            // Also: never unroll far past incomplete work. Resource-bound
            // laggards (e.g. a single adder serving every iteration of a
            // nested loop) would otherwise let independent counter chains
            // race unboundedly ahead, making every context distinct. The
            // speculative window covers deep pipelines (multi-cycle
            // resolve lag on top of the speculation depth); the
            // non-speculative window is tight — racing gains a
            // control-resolved schedule nothing but context diversity.
            let window = match self.cfg.mode {
                Mode::NonSpeculative => 2,
                _ => depth + 4,
            };
            let wf = ctx.work_floor.get(key).copied().unwrap_or(0);
            *hi = (*hi).min(wf.saturating_add(window));
            *lo = (*lo).min(*hi);
        }
        self.oldest_buf = oldest;
    }

    /// Records that iteration `iter` of `op`'s loop nest is
    /// instantiated: bumps horizons and creates side-effect obligations
    /// for newly opened iterations.
    fn note_iteration(&mut self, ctx: &mut Ctx, op: OpId, iter: &[u32]) {
        let g = self.g;
        let path = g.op(op).loop_path();
        for (d, &l) in path.iter().enumerate() {
            let prefix = Iter::from_slice(&iter[..d]);
            let k = iter[d];
            // Scan first: the common case re-visits an already-open
            // iteration and must not touch the copy-on-write map. A
            // missing entry is materialized even when `k` is 0 — the
            // horizon map's key set is signature-visible.
            match ctx.horizon.get(&(l, prefix)).copied() {
                Some(h) if k <= h => continue,
                None if k == 0 => {
                    ctx.horizon_mut().insert((l, prefix), 0);
                    self.mark_loop_changed(ctx, l);
                    continue;
                }
                _ => {
                    ctx.horizon_mut().insert((l, prefix), k);
                    self.mark_loop_changed(ctx, l);
                }
            }
            // Newly opened iteration: instantiate the obligations of
            // every effectful op directly inside this loop level (deeper
            // levels open through their own horizon bumps at index 0).
            let mut r = self.res();
            let tables = r.tables;
            for &e in &tables.effects {
                let epath = g.op(e).loop_path();
                if epath.len() <= d || epath[d] != l || epath[..d] != path[..d] {
                    continue;
                }
                let mut eiter = prefix;
                eiter.push(k);
                eiter.extend(std::iter::repeat_n(0, epath.len() - d - 1));
                if r.it.get(e, &eiter).is_some_and(|i| ctx.done.contains(&i)) {
                    continue;
                }
                let guard = r.ctrl_guard(ctx, e, &eiter);
                if !guard.is_false() {
                    let einst = r.it.id(e, &eiter);
                    if !ctx.obligations.contains_key(&einst) {
                        ctx.obligations_mut().insert(einst, guard);
                    }
                }
            }
        }
    }

    /// The live iteration window per loop context, derived from the keys
    /// present in the context (plus one beyond each horizon so loops can
    /// keep unrolling).
    fn iter_domain(&mut self, ctx: &Ctx) -> Domain {
        // Accumulate the windows with linear lookup in a spare buffer,
        // then sort it once.
        let mut dom = self.domain_bufs.pop().unwrap_or_default();
        dom.clear();
        fn note(dom: &mut Vec<(LoopCtx, (u32, u32))>, g: &Cdfg, op: OpId, iter: &[u32]) {
            let path = g.op(op).loop_path();
            for (d, &l) in path.iter().enumerate() {
                if d >= iter.len() {
                    break;
                }
                let e = ctx_entry(dom, (l, Iter::from_slice(&iter[..d])), (u32::MAX, 0));
                e.0 = e.0.min(iter[d]);
                e.1 = e.1.max(iter[d]);
            }
        }
        for k in ctx.avail.keys() {
            let (op, iter) = self.it.pair(k.inst);
            note(&mut dom, self.g, op, iter);
        }
        for c in ctx.cands.iter() {
            let (op, iter) = self.it.pair(c.inst);
            note(&mut dom, self.g, op, iter);
        }
        for inst in ctx.obligations.keys() {
            let (op, iter) = self.it.pair(*inst);
            note(&mut dom, self.g, op, iter);
        }
        for (key, h) in ctx.horizon.iter() {
            let e = ctx_entry(&mut dom, *key, (u32::MAX, 0));
            e.0 = e.0.min(*h);
            e.1 = e.1.max(h + 1);
        }
        for (key, e) in dom.iter_mut() {
            if e.0 == u32::MAX {
                e.0 = 0;
            }
            // Lagging (not-yet-done) iterations stay enumerable even
            // when every live value has moved past them.
            let wf = ctx.work_floor.get(key).copied().unwrap_or(0);
            e.0 = e.0.min(wf);
            e.1 = e.1.max(e.0 + 1);
        }
        VecMap::from_unsorted(dom)
    }

    /// Returns a domain's buffer to the pool [`Self::iter_domain`] draws
    /// from.
    fn recycle_domain(&mut self, domain: Domain) {
        self.domain_bufs.push(domain.into_entries());
    }

    /// Promotes versions whose guard resolved to constant true:
    /// consumption of their instance is decided.
    fn promote_done(&mut self, ctx: &mut Ctx) {
        // Scan first: only instances not already decided trigger a write
        // to the copy-on-write collections.
        let winners: Vec<InstId> = ctx
            .avail
            .iter()
            .filter(|(_, info)| info.guard.is_true())
            .map(|(k, _)| k.inst)
            .filter(|w| !ctx.done.contains(w))
            .collect();
        for w in winners {
            if ctx.done_mut().insert(w) {
                ctx.cands_mut().retain(|c| c.inst != w);
            }
        }
    }

    /// Mark-and-sweep garbage collection of value versions no remaining
    /// consumer (present or future) can reference, plus pruning of
    /// per-iteration bookkeeping below the live window. Without this,
    /// steady-state loop contexts would never fold.
    fn gc(&mut self, ctx: &mut Ctx) {
        // One live mark per `avail` entry, by position: positions hold
        // until the retain below, and marking a key that is not
        // available is a no-op.
        let mut marks = std::mem::take(&mut self.gc_marks);
        marks.clear();
        marks.resize(ctx.avail.len(), false);
        let mut unmarked = ctx.avail.len();
        for c in ctx.cands.iter() {
            for o in &c.operands {
                if let ValSrc::Key(k) = o {
                    mark_live(&ctx.avail, &mut marks, &mut unmarked, k);
                }
            }
            for t in c.tokens.iter().flatten() {
                mark_live(&ctx.avail, &mut marks, &mut unmarked, t);
            }
        }
        for (k, _, _) in ctx.pending_conds.iter() {
            mark_live(&ctx.avail, &mut marks, &mut unmarked, k);
        }
        // Potential-consumer sweep: any not-yet-decided instance marks
        // every version that could still feed it. `unmarked` counts the
        // keys whose fate is still open; once it drops to zero, the
        // retain below is a no-op no matter what further marking would
        // find, so the port walks can stop. Two caveats keep the
        // shortcut invisible: `token()` can record a provable exit
        // settlement as a side effect, so ops with order deps are still
        // visited in their original position; and every instance in the
        // window has already been swept at least once (window growth
        // marks it), so the skipped resolution walks would have
        // allocated no new BDD variables or literals anyway.
        let domain = self.iter_domain(ctx);
        let g = self.g;
        let mut iters = std::mem::take(&mut self.iter_buf);
        let mut versions = std::mem::take(&mut self.gc_versions);
        for op in g.ops() {
            if !self.useful[op.id().index()] || op.kind().is_source() {
                continue;
            }
            let has_order = !op.order_deps().is_empty();
            if unmarked == 0 && !has_order {
                continue;
            }
            enumerate_iters(g, op.id(), &domain, ctx, &mut iters);
            for iter in &iters {
                if self
                    .it
                    .get(op.id(), iter)
                    .is_some_and(|i| ctx.done.contains(&i))
                {
                    continue;
                }
                if unmarked == 0 && !has_order {
                    break;
                }
                let mut r = self.res();
                let ctrl = r.ctrl_guard(ctx, op.id(), iter);
                if ctrl.is_false() {
                    continue;
                }
                if op.kind().is_pass_through() {
                    if unmarked > 0 {
                        versions.clear();
                        r.copy_versions(ctx, op.id(), iter, &mut versions);
                        for &(v, gv) in &versions {
                            if let ValSrc::Key(k) = v {
                                if !r.mgr.and(ctrl, gv).is_false() {
                                    mark_live(&ctx.avail, &mut marks, &mut unmarked, &k);
                                }
                            }
                        }
                    }
                    continue;
                }
                if unmarked > 0 {
                    for p in op.ports() {
                        versions.clear();
                        r.port_versions(ctx, p, op.id(), iter, &mut versions);
                        for &(v, gv) in &versions {
                            if let ValSrc::Key(k) = v {
                                if !r.mgr.and(ctrl, gv).is_false() {
                                    mark_live(&ctx.avail, &mut marks, &mut unmarked, &k);
                                }
                            }
                        }
                    }
                }
                for p in op.order_deps() {
                    if let Ok(Some(k)) = r.token(ctx, p, op.id(), iter) {
                        mark_live(&ctx.avail, &mut marks, &mut unmarked, &k);
                    }
                }
            }
        }
        self.iter_buf = iters;
        self.gc_versions = versions;
        self.recycle_domain(domain);
        if unmarked > 0 {
            // Dropping a version re-enables its op's generator: the
            // issued-dedup and max-versions caps read `avail`, so the
            // next sweep may derive candidates it previously refused.
            // Mark the dropped ops, in op order, exactly as a full
            // re-sort would observe the change.
            let mut dropped = std::mem::take(&mut self.gc_ops);
            dropped.clear();
            dropped.extend(
                ctx.avail
                    .keys()
                    .zip(&marks)
                    .filter(|(_, &live)| !live)
                    .map(|(k, _)| self.it.op(k.inst)),
            );
            dropped.sort_unstable();
            dropped.dedup();
            let mut pos = 0;
            ctx.avail_mut().retain(|_, _| {
                pos += 1;
                marks[pos - 1]
            });
            for &op in &dropped {
                self.mark_op_changed(ctx, op);
            }
            self.gc_ops = dropped;
        }
        // Tombstone operand provenance that references collected keys:
        // keeping dead names would pin the iteration window open and
        // block steady-state folding. (An emptied list can never collide
        // with a real candidate's operand list, so re-issue dedup stays
        // sound.) `marks` now flags the entries to tombstone.
        let avail = &ctx.avail;
        marks.clear();
        marks.extend(avail.values().map(|info| {
            info.operands
                .iter()
                .any(|o| matches!(o, ValSrc::Key(k) if !avail.contains_key(k)))
        }));
        if marks.contains(&true) {
            for (info, &dead) in ctx.avail_mut().values_mut().zip(&marks) {
                if dead {
                    info.operands.clear();
                }
            }
        }
        self.gc_marks = marks;

        // Advance work floors: iteration w of a loop context is complete
        // when every direct member's instance at w is executed or
        // control-dead (nested loops are covered by their materialized
        // exit passes, themselves direct members).
        // (A second handle on the horizon map, so it can be walked while
        // the work floors are written: a reference-count bump, no copy.)
        let horizons = Arc::clone(&ctx.horizon);
        for (&(l, prefix), &horizon) in horizons.iter() {
            let d = prefix.len();
            let mut wf = ctx.work_floor.get(&(l, prefix)).copied().unwrap_or(0);
            'advance: while wf <= horizon {
                for &m in g.loop_info(l).members() {
                    let mop = g.op(m);
                    if mop.loop_path().len() != d + 1
                        || mop.kind().is_source()
                        || !self.useful[m.index()]
                    {
                        continue;
                    }
                    let mut iter = prefix;
                    iter.push(wf);
                    if self.it.get(m, &iter).is_some_and(|i| ctx.done.contains(&i)) {
                        continue;
                    }
                    if !self.res().ctrl_guard(ctx, m, &iter).is_false() {
                        break 'advance;
                    }
                }
                wf += 1;
            }
            // The entry itself is signature-visible, so a missing entry
            // is written even at value 0; an unchanged one is not.
            if ctx.work_floor.get(&(l, prefix)) != Some(&wf) {
                ctx.work_floor_mut().insert((l, prefix), wf);
            }
        }

        // Prune bookkeeping strictly below the enumeration domain: an
        // instance that can never be enumerated again cannot be
        // re-issued, so its resolved/done/discharged entries are dead
        // weight that would otherwise block state folding. Pruning
        // anything the domain can still reach would allow re-issue — the
        // thresholds must be the very same bounds `sweep` enumerates
        // with. (Top-level discharged exit passes have an empty loop
        // path and are never below the domain — they persist,
        // identically in every steady-state context.)
        let domain = self.iter_domain(ctx);
        let it = &self.it;
        let below = |inst: &InstId| -> bool {
            let (op, iter) = it.pair(*inst);
            g.op(op).loop_path().iter().enumerate().any(|(d, l)| {
                d < iter.len()
                    && domain
                        .get(&(*l, Iter::from_slice(&iter[..d])))
                        .is_some_and(|(lo, _)| iter[d] < *lo)
            })
        };
        let dead_resolved: Vec<CondInst> =
            ctx.resolved.keys().filter(|i| below(i)).copied().collect();
        let dead_done: Vec<InstId> = ctx.done.iter().filter(|i| below(i)).copied().collect();
        let dead_discharged: Vec<InstId> = ctx
            .discharged
            .iter()
            .filter(|i| below(i))
            .copied()
            .collect();
        // Un-recording a resolution resurrects the condition's literal
        // as a free variable: chains that collapsed to FALSE under the
        // old record become satisfiable again, so every guard that can
        // reference the condition must re-generate.
        self.prune_insts(
            ctx,
            dead_resolved,
            |c, i| {
                c.resolved_mut().remove(i);
            },
            Self::mark_cond_changed,
        );
        // A pruned done entry un-blocks the instance's own generator
        // (`gen_candidates` early-returns on done), so the op — its own
        // first consumer — must re-generate.
        self.prune_insts(
            ctx,
            dead_done,
            |c, i| {
                c.done_mut().remove(i);
            },
            Self::mark_op_changed,
        );
        // Discharge records feed `token()` settlement: dropping one
        // changes what the exit pass's order consumers (and the pass
        // itself) observe on the next generation.
        self.prune_insts(
            ctx,
            dead_discharged,
            |c, i| {
                c.discharged_mut().remove(i);
            },
            Self::mark_op_changed,
        );
        // Horizons/floors: keep any loop that a live instance indexes, or
        // that the fanin cone of a pending obligation / candidate can
        // still reference through exit views.
        let mut live_loops = std::mem::take(&mut self.gc_loops);
        live_loops.clear();
        live_loops.resize(g.loops().len(), false);
        mark_indexed_loops(g, ctx, &self.it, &mut live_loops);
        for inst in ctx
            .obligations
            .keys()
            .chain(ctx.cands.iter().map(|c| &c.inst))
        {
            let op = self.it.op(*inst);
            for l in &self.loops_needed[op.index()] {
                live_loops[l.index()] = true;
            }
        }
        // A loop context whose outer-iteration prefix left the
        // enumeration domain can never be entered again; its horizons,
        // floors and work floors are dead weight that would block
        // folding.
        let keep = |l: &LoopId, prefix: &Iter| -> bool {
            if !live_loops[l.index()] {
                return false;
            }
            prefix.iter().enumerate().all(|(d, &v)| {
                loop_ancestor(g, *l, d).is_some_and(|a| {
                    domain
                        .get(&(a, Iter::from_slice(&prefix[..d])))
                        .is_some_and(|(lo, hi)| *lo <= v && v <= *hi)
                })
            })
        };
        // Floor entries collapse below-floor continue literals to TRUE
        // and horizons bound the enumeration window: pruning any of the
        // three changes what the loop's readers derive next sweep.
        let mut pruned: BTreeSet<LoopId> = BTreeSet::new();
        for map in [&mut ctx.horizon, &mut ctx.floor, &mut ctx.work_floor] {
            if map.keys().any(|(l, p)| !keep(l, p)) {
                pruned.extend(map.keys().filter(|(l, p)| !keep(l, p)).map(|(l, _)| *l));
                Arc::make_mut(map).retain(|(l, p), _| keep(l, p));
            }
        }
        self.gc_loops = live_loops;
        self.recycle_domain(domain);
        for l in pruned {
            self.mark_loop_changed(ctx, l);
        }
    }

    /// Removes the `dead` instances from one instance-keyed bookkeeping
    /// collection of `ctx` (through `remove`), then reports each removed
    /// instance's op through `mark`.
    fn prune_insts(
        &mut self,
        ctx: &mut Ctx,
        dead: Vec<InstId>,
        remove: fn(&mut Ctx, &InstId),
        mark: fn(&mut Self, &mut Ctx, OpId),
    ) {
        for i in &dead {
            remove(ctx, i);
        }
        for i in dead {
            let op = self.it.op(i);
            mark(self, ctx, op);
        }
    }

    /// Partitions the context by the combinations of conditions resolved
    /// at the end of this state (Fig. 12 step 4). Conditions whose
    /// computing version turned out mis-speculated (validity guard
    /// false) are discarded on that branch; conditions whose validity is
    /// still undecided stay pending.
    fn partition(&mut self, ctx: Ctx) -> Vec<(Vec<(Key, bool)>, Ctx)> {
        let mut out = Vec::new();
        self.part_rec(ctx, Vec::new(), &mut out);
        out
    }

    fn part_rec(
        &mut self,
        mut ctx: Ctx,
        when: Vec<(Key, bool)>,
        out: &mut Vec<(Vec<(Key, bool)>, Ctx)>,
    ) {
        let pos = ctx
            .pending_conds
            .iter()
            .position(|(_, g, r)| *r == 0 && g.is_true());
        let Some(i) = pos else {
            out.push((when, ctx));
            return;
        };
        let (key, _, _) = ctx.pending_conds_mut().remove(i);
        let inst: CondInst = key.inst;
        // Already resolved through another version on this path? Then
        // this version is redundant; drop it and continue.
        if ctx.resolved.contains_key(&inst) {
            self.part_rec(ctx, when, out);
            return;
        }
        let var = self.ct.var(inst);
        for val in [true, false] {
            let mut c2 = ctx.clone();
            let t = Instant::now();
            c2.cofactor(&mut self.mgr, var, val, inst);
            self.stats.phases.bdd.add(t.elapsed());
            self.bump_floor(&mut c2, inst, val);
            // The resolution (and any floor movement it absorbed)
            // collapses the condition's literals and may have dropped
            // or rewritten guarded entries: bound re-validation to the
            // cofactor frontier — the condition's reader cone — rather
            // than re-sweeping every op on the branch.
            self.mark_cond_changed(&mut c2, self.it.op(inst));
            let mut w2 = when.clone();
            w2.push((key, val));
            self.part_rec(c2, w2, out);
        }
    }

    /// Advances the per-loop floor when the continue condition at the
    /// current floor resolves true, absorbing the resolution history.
    fn bump_floor(&mut self, ctx: &mut Ctx, inst: CondInst, val: bool) {
        if !val {
            return;
        }
        let op = self.it.op(inst);
        let Some(&l) = self.tables.loop_of_cond.get(&op) else {
            return;
        };
        let d = self.g.op(op).loop_path().len() - 1;
        let prefix = Iter::from_slice(&self.it.iter_of(inst)[..d]);
        let mut floor = ctx.floor.get(&(l, prefix)).copied().unwrap_or(0);
        let mut ci = prefix;
        ci.push(floor);
        loop {
            ci[d] = floor;
            // A condition instance never interned was never referenced,
            // so it cannot be in the resolution history.
            let Some(key) = self.it.get(op, &ci) else {
                break;
            };
            if ctx.resolved.get(&key) == Some(&true) {
                ctx.resolved_mut().remove(&key);
                floor += 1;
            } else {
                break;
            }
        }
        // Like the work floor: the entry's presence is signature-visible,
        // so insert-if-absent even at 0, but skip unchanged values.
        if ctx.floor.get(&(l, prefix)) != Some(&floor) {
            ctx.floor_mut().insert((l, prefix), floor);
        }
    }
}

/// Ops from which a side effect or a control decision is reachable;
/// everything else is dead code and never scheduled.
fn useful_ops(g: &Cdfg) -> Vec<bool> {
    let n = g.ops().len();
    let mut useful = vec![false; n];
    let mut stack: Vec<OpId> = Vec::new();
    for op in g.ops() {
        if op.kind().has_side_effect() {
            useful[op.id().index()] = true;
            stack.push(op.id());
        }
    }
    while let Some(x) = stack.pop() {
        let op = g.op(x);
        let feed = |id: OpId, useful: &mut Vec<bool>, stack: &mut Vec<OpId>| {
            if !useful[id.index()] {
                useful[id.index()] = true;
                stack.push(id);
            }
        };
        for p in op.ports().iter().chain(op.order_deps()) {
            match *p {
                PortKind::Wire(s) => feed(s, &mut useful, &mut stack),
                PortKind::Carried { src, init, .. } | PortKind::Exit { src, init, .. } => {
                    feed(src, &mut useful, &mut stack);
                    feed(init, &mut useful, &mut stack);
                }
            }
        }
        for d in op.ctrl_deps() {
            feed(d.cond, &mut useful, &mut stack);
        }
        // Loop continue conditions of enclosing loops gate this op.
        for &l in op.loop_path() {
            feed(g.loop_info(l).cond(), &mut useful, &mut stack);
        }
    }
    useful
}

/// Per op: the ops whose candidate generation reads this op's context
/// entries, plus the op itself. Generation reads the `avail` of an op's
/// *direct* port sources — a consumer of a pass-through sees the
/// pass-through's *issued copies*, never its sources (pass-throughs are
/// scheduled as real register transfers), and steering/control guards
/// resolve structurally through `resolved`/`floor`, which are frozen
/// while a state grows — so one hop suffices for value ports. Order
/// tokens are the exception: settling one walks past dead accesses and
/// loop-exit token views to *their* predecessors, so an op reads every
/// access its order chain reaches through them, and an issue anywhere
/// along that chain must re-generate it.
fn direct_consumers(g: &Cdfg) -> Vec<Vec<OpId>> {
    let n = g.ops().len();
    let mut consumers: Vec<Vec<OpId>> = vec![Vec::new(); n];
    for (i, v) in consumers.iter_mut().enumerate() {
        v.push(OpId::new(i as u32));
    }
    let sources = |p: &PortKind, out: &mut Vec<OpId>| match *p {
        PortKind::Wire(s) => out.push(s),
        PortKind::Carried { src, init, .. } | PortKind::Exit { src, init, .. } => {
            out.push(src);
            out.push(init);
        }
    };
    let mut read: Vec<OpId> = Vec::new();
    let mut seen = vec![false; n];
    for op in g.ops() {
        read.clear();
        for p in op.ports() {
            sources(p, &mut read);
        }
        // Order-token settlement looks *through* predecessors: a dead
        // access forwards to its own order predecessors, and a
        // pass-through (a loop-exit token view) to its port.
        seen.fill(false);
        let mut stack: Vec<OpId> = Vec::new();
        for p in op.order_deps() {
            sources(p, &mut stack);
        }
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut seen[x.index()], true) {
                continue;
            }
            read.push(x);
            let xo = g.op(x);
            if xo.kind() == cdfg::OpKind::Pass {
                sources(&xo.ports()[0], &mut stack);
            } else {
                for p in xo.order_deps() {
                    sources(p, &mut stack);
                }
            }
        }
        for s in &read {
            let v = &mut consumers[s.index()];
            if !v.contains(&op.id()) {
                v.push(op.id());
            }
        }
    }
    consumers
}

/// For each op, the loops whose iteration bookkeeping its transitive
/// fanin can reference: every loop on the path of any op reachable
/// backwards through ports (all kinds, including carried/exit sources and
/// inits), ordering edges, control conditions, and select steering.
fn loops_needed(g: &Cdfg) -> Vec<BTreeSet<LoopId>> {
    let n = g.ops().len();
    // Direct fanin adjacency.
    let mut fanin: Vec<Vec<OpId>> = vec![Vec::new(); n];
    for op in g.ops() {
        let add = |s: OpId, fanin: &mut Vec<Vec<OpId>>| fanin[op.id().index()].push(s);
        for p in op.ports().iter().chain(op.order_deps()) {
            match *p {
                PortKind::Wire(s) => add(s, &mut fanin),
                PortKind::Carried { src, init, .. } | PortKind::Exit { src, init, .. } => {
                    add(src, &mut fanin);
                    add(init, &mut fanin);
                }
            }
        }
        for d in op.ctrl_deps() {
            if d.cond != op.id() {
                fanin[op.id().index()].push(d.cond);
            }
        }
    }
    // Transitive closure of referenced loops, by fixpoint (the graph is
    // cyclic through carried edges, so iterate to convergence).
    let mut needed: Vec<BTreeSet<LoopId>> = g
        .ops()
        .iter()
        .map(|o| o.loop_path().iter().copied().collect())
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let mut acc = needed[i].clone();
            for s in &fanin[i] {
                for l in &needed[s.index()] {
                    acc.insert(*l);
                }
            }
            if acc.len() != needed[i].len() {
                needed[i] = acc;
                changed = true;
            }
        }
    }
    needed
}

/// Per conditional op: every op whose candidate generation can observe
/// one of its instances resolving. A resolution collapses the
/// condition's literals (through `resolved` and, for loop continues,
/// the floor), which reaches exactly the ops holding the condition in
/// their transitive fanin — the same edge set as [`loops_needed`]
/// (ports of all kinds, ordering edges, control conditions, and select
/// steering, which is an ordinary wire port). Loop conditions
/// additionally reach every reader of their loop's bookkeeping: chains,
/// exit views, and floor-collapsed literals all reference them without
/// a structural fanin edge. Non-conditional ops get empty rows.
fn cond_readers(g: &Cdfg, loop_readers: &[Vec<OpId>]) -> Vec<Vec<OpId>> {
    let n = g.ops().len();
    let mut fanin: Vec<Vec<OpId>> = vec![Vec::new(); n];
    for op in g.ops() {
        let add = |s: OpId, fanin: &mut Vec<Vec<OpId>>| fanin[op.id().index()].push(s);
        for p in op.ports().iter().chain(op.order_deps()) {
            match *p {
                PortKind::Wire(s) => add(s, &mut fanin),
                PortKind::Carried { src, init, .. } | PortKind::Exit { src, init, .. } => {
                    add(src, &mut fanin);
                    add(init, &mut fanin);
                }
            }
        }
        for d in op.ctrl_deps() {
            if d.cond != op.id() {
                fanin[op.id().index()].push(d.cond);
            }
        }
    }
    // conds[x] = conditional ops in x's reflexive transitive fanin,
    // by fixpoint (carried edges make the graph cyclic).
    let mut conds: Vec<BTreeSet<OpId>> = g
        .ops()
        .iter()
        .map(|o| {
            let mut s = BTreeSet::new();
            if o.is_conditional() {
                s.insert(o.id());
            }
            s
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let mut acc = conds[i].clone();
            for s in &fanin[i] {
                for c in &conds[s.index()] {
                    acc.insert(*c);
                }
            }
            if acc.len() != conds[i].len() {
                conds[i] = acc;
                changed = true;
            }
        }
    }
    let mut readers: Vec<BTreeSet<OpId>> = vec![BTreeSet::new(); n];
    for (i, cs) in conds.iter().enumerate() {
        for c in cs {
            readers[c.index()].insert(OpId::new(i as u32));
        }
    }
    for l in g.loops() {
        let cond = l.cond();
        readers[cond.index()].extend(loop_readers[l.id().index()].iter().copied());
    }
    readers
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect()
}

/// Deterministic tie-break order for candidates of equal criticality:
/// earlier iterations first, then op id, then operand signature — all by
/// resolved content, never by interner allocation order.
fn cand_cmp(it: &InstTable, a: &Candidate, b: &Candidate) -> Ordering {
    let (ao, ai) = it.pair(a.inst);
    let (bo, bi) = it.pair(b.inst);
    ai.cmp(bi).then_with(|| ao.cmp(&bo)).then_with(|| {
        let mut x = a.operands.iter();
        let mut y = b.operands.iter();
        loop {
            match (x.next(), y.next()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some(p), Some(q)) => {
                    let c = cmp_src(it, p, q);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
            }
        }
    })
}

/// Human-readable description of a dependency port for stall
/// diagnostics.
fn describe_port(g: &Cdfg, p: &PortKind) -> String {
    match *p {
        PortKind::Wire(s) => format!("wire from {}", g.op(s).name()),
        PortKind::Carried { lp, src, .. } => format!(
            "loop l{} carried value from {}",
            lp.index(),
            g.op(src).name()
        ),
        PortKind::Exit { lp, src, .. } => {
            format!("loop l{} exit of {}", lp.index(), g.op(src).name())
        }
    }
}

fn key_to_inst(it: &InstTable, k: &Key) -> OpInst {
    let (op, iter) = it.pair(k.inst);
    OpInst {
        op,
        iter: *iter,
        version: k.version,
    }
}

fn valsrc_to_ref(it: &InstTable, v: &ValSrc) -> ValRef {
    match v {
        ValSrc::Const(c) => ValRef::Const(*c),
        ValSrc::Input(i) => ValRef::Input(*i),
        ValSrc::Key(k) => ValRef::Inst(key_to_inst(it, k)),
    }
}

/// Enumerates the live iteration vectors for `op` given the per-loop
/// windows into `out` (cleared first), outermost index slowest. Each
/// nest level expands the previous level's prefixes in place and then
/// drains them.
fn enumerate_iters(g: &Cdfg, op: OpId, domain: &Domain, ctx: &Ctx, out: &mut Vec<Iter>) {
    out.clear();
    out.push(Iter::new());
    for &l in g.op(op).loop_path() {
        let prefixes = out.len();
        for i in 0..prefixes {
            let prefix = out[i];
            let (lo, hi) = domain.get(&(l, prefix)).copied().unwrap_or_else(|| {
                let f = ctx
                    .work_floor
                    .get(&(l, prefix))
                    .copied()
                    .or_else(|| ctx.floor.get(&(l, prefix)).copied())
                    .unwrap_or(0);
                (f, f + 1)
            });
            for k in lo..=hi {
                let mut it = prefix;
                it.push(k);
                out.push(it);
            }
        }
        out.drain(..prefixes);
        // Guard against pathological blowup in deeply nested domains.
        if out.len() > 4096 {
            out.truncate(4096);
        }
    }
}

/// Flags in `live` (indexed by loop) the loops some live instance (an
/// available version, candidate, obligation, or pending condition)
/// carries an iteration index for.
fn mark_indexed_loops(g: &Cdfg, ctx: &Ctx, it: &InstTable, live: &mut [bool]) {
    let insts = ctx
        .avail
        .keys()
        .map(|k| k.inst)
        .chain(ctx.cands.iter().map(|c| c.inst))
        .chain(ctx.obligations.keys().copied())
        .chain(ctx.pending_conds.iter().map(|(k, _, _)| k.inst));
    for inst in insts {
        let (op, iter) = it.pair(inst);
        for l in g.op(op).loop_path().iter().take(iter.len()) {
            live[l.index()] = true;
        }
    }
}

/// Marks `k` live in a gc pass's per-position `marks` over `avail`,
/// counting down `unmarked` the first time an entry is marked.
fn mark_live(avail: &VecMap<Key, AvailInfo>, marks: &mut [bool], unmarked: &mut usize, k: &Key) {
    if let Some(p) = avail.position(k) {
        if !marks[p] {
            marks[p] = true;
            *unmarked -= 1;
        }
    }
}

/// Register relabelings for a fold edge: `new_keys` are the folding
/// context's canonical keys, `old_keys` the fold target's.
///
/// Equal signatures guarantee the two contexts' value registries
/// correspond positionally *in content order* (the signature serializes
/// `avail` content-sorted), so the rename map simply pairs the folding
/// context's canonical keys with the fold target's — realizing the
/// variable relabelings of Example 10 without re-deriving shifts.
fn fold_renames(new_keys: &[Key], old_keys: &[Key], it: &InstTable) -> Vec<(OpInst, OpInst)> {
    debug_assert_eq!(new_keys.len(), old_keys.len(), "signature collision");
    new_keys
        .iter()
        .zip(old_keys)
        .filter(|(new, old)| new != old)
        .map(|(new, old)| (key_to_inst(it, new), key_to_inst(it, old)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_lang::Program;
    use hls_resources::FuClass;

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
        let useful = useful_ops(&g);
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
                .filter(|o| matches!(g.op(o.inst.op).kind(), cdfg::OpKind::MemRead(_)))
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
        /// reads and writes of a memory `M`, a bounded loop, and up to
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
                pl::boolean(),
                pl::range(0u32..3),
            )
            .map(|((s1, s2), with_loop, scans)| {
                let counted = if with_loop {
                    format!("while (i < 3) {{ {s1} i = i + 1; }}")
                } else {
                    s1
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
