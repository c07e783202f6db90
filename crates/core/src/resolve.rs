//! Operand and guard resolution: the realization of Lemma 1 and
//! Observation 1 of the paper.
//!
//! Given a context, this module answers "which value versions can feed
//! operation instance *(op, iter)*, and under which speculation
//! condition?" Values are seen *through* structural pass-throughs
//! (selects and passes): a select contributes both of its sides, each
//! conjoined with the corresponding literal of its steering condition —
//! that is exactly how `op7/(c(op1) ∧ c(op4))` and
//! `op7/(c(op1) ∧ ¬c(op4))` arise in Example 6. Loop-carried edges
//! select between the previous iteration's version and the initial
//! value; loop-exit views enumerate every still-possible exit iteration.
//!
//! Guards are *full continuation chains*: a loop-body instance at
//! iteration `k` is conditioned on `c_0 ∧ … ∧ c_k`, as in the paper's
//! `∧_{k=j..i} c_k` — with already-resolved prefixes collapsing to
//! constants through the context's resolution history and per-loop
//! floors.
//!
//! Each rule has one owner. [`read_frame`] says where a wire or a
//! loop-carried port reads; [`Res::port_versions`] walks every port,
//! generic over its [`Leaf`] (value versions for operands, producing
//! instances for select steering), and [`Res::select_sides`] is the one
//! select fan-out; [`Res::gen_candidates`] admits the candidates of
//! copies and computing operations alike, under one `max_versions` rule
//! that counts versions only.
//!
//! Structural resolution works on `(OpId, &[u32])` content; instances are
//! interned into [`InstId`]s only at the boundaries where they enter the
//! context (candidate creation, literal allocation, version lookups), so
//! the recursive walk itself allocates no instance bookkeeping. Derived
//! iteration vectors (prefixes, the previous iteration, exit arms) are
//! inline [`Iter`] copies, and the CDFG's port and dependency lists are
//! read in place.

use crate::ctx::{
    cmp_key, cond_var, Candidate, Ctx, InstId, InstTable, Iter, Key, Operands, ValSrc,
};
use cdfg::{Cdfg, CtrlKind, LoopId, OpId, OpKind, PortKind};
use guards::{BddManager, Guard};
use spec_support::fxhash::FxHashMap;
use std::collections::BTreeSet;

/// Immutable per-run scheduling tables shared by resolution and the
/// engine: everything derived from the CDFG alone, built once per run.
pub(crate) struct Tables {
    /// For each op that is the continue condition of a loop, that loop.
    pub loop_of_cond: FxHashMap<OpId, LoopId>,
    /// Effectful ops (memory writes, outputs), for obligation
    /// instantiation.
    pub effects: Vec<OpId>,
    /// Per op: whether it is scheduled at all (see [`useful_ops`]).
    pub useful: Vec<bool>,
    /// Per op: every loop whose iteration bookkeeping (floor/horizon)
    /// its transitive fanin can reference.
    pub loops_needed: Vec<BTreeSet<LoopId>>,
    /// Per op: the ops whose candidate generation can observe a change
    /// to its context entries, itself included (see
    /// [`direct_consumers`]); they drive the sweep's dirty marking.
    pub consumers: Vec<Vec<OpId>>,
    /// Per loop: the ops whose candidate generation reads that loop's
    /// iteration bookkeeping (the inverse of [`Self::loops_needed`]).
    pub loop_readers: Vec<Vec<OpId>>,
    /// Per loop: the [`Self::loop_readers`] outside the loop, the only
    /// readers of its horizon (exit views, exit tokens, `loop_exited`).
    pub horizon_readers: Vec<Vec<OpId>>,
    /// Per loop: the schedulable ops inside it, whose iteration windows
    /// the loop's window bounds.
    pub loop_members: Vec<Vec<OpId>>,
    /// Per conditional op: every op whose candidate generation can
    /// observe that condition resolving (see [`cond_readers`]). Drives
    /// cofactor-time dirty marking.
    pub cond_readers: Vec<Vec<OpId>>,
}

impl Tables {
    pub fn new(g: &Cdfg) -> Self {
        let loop_of_cond = g.loops().iter().map(|l| (l.cond(), l.id())).collect();
        let effects = g
            .ops()
            .iter()
            .filter(|o| o.kind().has_side_effect())
            .map(|o| o.id())
            .collect();
        let fanin = fanin(g);
        let useful = useful_ops(g, &fanin);
        let loop_sets = g
            .ops()
            .iter()
            .map(|o| o.loop_path().iter().copied().collect());
        let loops_needed = fanin_closure(&fanin, loop_sets.collect());
        let mut loop_readers: Vec<Vec<OpId>> = vec![Vec::new(); g.loops().len()];
        for op in g.ops() {
            for l in &loops_needed[op.id().index()] {
                loop_readers[l.index()].push(op.id());
            }
        }
        let cond_readers = cond_readers(g, &fanin, &loop_readers);
        let horizon_readers = g
            .loops()
            .iter()
            .map(|l| {
                loop_readers[l.id().index()]
                    .iter()
                    .copied()
                    .filter(|r| !g.op(*r).loop_path().contains(&l.id()))
                    .collect()
            })
            .collect();
        let mut loop_members: Vec<Vec<OpId>> = vec![Vec::new(); g.loops().len()];
        for op in g.ops() {
            if useful[op.id().index()] && !op.kind().is_source() {
                for l in op.loop_path() {
                    loop_members[l.index()].push(op.id());
                }
            }
        }
        Tables {
            loop_of_cond,
            effects,
            useful,
            loops_needed,
            consumers: direct_consumers(g),
            loop_readers,
            horizon_readers,
            loop_members,
            cond_readers,
        }
    }
}

/// Per op: its direct fanin through ports of all kinds (carried and
/// exit sources and inits included), ordering edges and control
/// conditions. Select steering is an ordinary wire port.
fn fanin(g: &Cdfg) -> Vec<Vec<OpId>> {
    g.ops()
        .iter()
        .map(|op| {
            let ports = op.ports().iter().chain(op.order_deps());
            let mut v: Vec<OpId> = ports.flat_map(|p| p.producers()).collect();
            v.extend(
                op.ctrl_deps()
                    .iter()
                    .map(|d| d.cond)
                    .filter(|&c| c != op.id()),
            );
            v
        })
        .collect()
}

/// Grows each op's set by the sets of its fanin until nothing changes
/// (the graph is cyclic through carried edges, so iterate to
/// convergence): seeded with each op's own elements, the result is
/// their union over the op's reflexive transitive fanin.
fn fanin_closure<T: Ord + Copy>(
    fanin: &[Vec<OpId>],
    mut sets: Vec<BTreeSet<T>>,
) -> Vec<BTreeSet<T>> {
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..sets.len() {
            let mut acc = sets[i].clone();
            for s in &fanin[i] {
                acc.extend(sets[s.index()].iter().copied());
            }
            if acc.len() != sets[i].len() {
                sets[i] = acc;
                changed = true;
            }
        }
    }
    sets
}

/// Ops from which a side effect or a control decision is reachable
/// through the fanin and the continue conditions of enclosing loops;
/// everything else is dead code and never scheduled.
fn useful_ops(g: &Cdfg, fanin: &[Vec<OpId>]) -> Vec<bool> {
    let mut useful = vec![false; g.ops().len()];
    let effects = g.ops().iter().filter(|o| o.kind().has_side_effect());
    let mut stack: Vec<OpId> = effects.map(|o| o.id()).collect();
    while let Some(x) = stack.pop() {
        if std::mem::replace(&mut useful[x.index()], true) {
            continue;
        }
        stack.extend(&fanin[x.index()]);
        stack.extend(g.op(x).loop_path().iter().map(|&l| g.loop_info(l).cond()));
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
    let mut read: Vec<OpId> = Vec::new();
    let mut seen = vec![false; n];
    for op in g.ops() {
        read.clear();
        read.extend(op.ports().iter().flat_map(|p| p.producers()));
        // Order-token settlement looks *through* predecessors: a dead
        // access forwards to its own order predecessors, and a
        // pass-through (a loop-exit token view) to its port.
        seen.fill(false);
        let mut stack: Vec<OpId> = op.order_deps().iter().flat_map(|p| p.producers()).collect();
        while let Some(x) = stack.pop() {
            if std::mem::replace(&mut seen[x.index()], true) {
                continue;
            }
            read.push(x);
            let xo = g.op(x);
            if xo.kind() == OpKind::Pass {
                stack.extend(xo.ports()[0].producers());
            } else {
                stack.extend(xo.order_deps().iter().flat_map(|p| p.producers()));
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

/// Per conditional op: every op whose candidate generation can observe
/// one of its instances resolving. A resolution collapses the
/// condition's literals (through `resolved` and, for loop continues,
/// the floor), which reaches exactly the ops holding the condition in
/// their reflexive transitive [`fanin`]. Loop conditions additionally
/// reach every reader of their loop's bookkeeping: chains, exit views,
/// and floor-collapsed literals all reference them without a structural
/// fanin edge. Non-conditional ops get empty rows.
fn cond_readers(g: &Cdfg, fanin: &[Vec<OpId>], loop_readers: &[Vec<OpId>]) -> Vec<Vec<OpId>> {
    let seeds = g.ops().iter().map(|o| o.is_conditional().then_some(o.id()));
    let conds = fanin_closure(fanin, seeds.map(|c| c.into_iter().collect()).collect());
    let mut readers: Vec<BTreeSet<OpId>> = vec![BTreeSet::new(); g.ops().len()];
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

/// Batched guard-conjunction memo: caches whole control guards and
/// loop-continuation prefix products so candidates sharing a control
/// prefix build its `ite` chain through the BDD manager once.
///
/// Cached guards collapse resolved conditions and floored iterations to
/// constants, so entries are only valid while the context's `resolved`
/// map and per-loop floors are frozen. The engine clears the memo at
/// every boundary where those change: schedule start, state entry, and
/// the top of each cofactored branch.
#[derive(Debug, Default)]
pub(crate) struct GuardMemo {
    /// Full control guards keyed by the target instance.
    pub ctrl: FxHashMap<InstId, Guard>,
    /// Continuation prefix products `c_0 ∧ … ∧ c_m`, keyed by the
    /// condition instance at the prefix's last element `m`. All chain
    /// call sites range from iteration 0, so one cache entry per chain
    /// element serves every deeper candidate of the same loop context.
    pub chain: FxHashMap<InstId, Guard>,
}

impl GuardMemo {
    /// Invalidates both caches (a resolution/floor event ended the
    /// validity window).
    pub fn clear(&mut self) {
        self.ctrl.clear();
        self.chain.clear();
    }
}

/// One mutation [`Res::gen_candidates`] performed on `ctx.cands`,
/// identified by candidate index. The engine replays these against its
/// criticality-ordered ready structure instead of re-scanning the
/// candidate list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CandEvent {
    /// `cands[i]` is a brand-new candidate.
    Added(usize),
    /// `cands[i]`'s guard was widened (OR-ed with a new combination).
    Widened(usize),
    /// `cands[i]` adopted freshly settled ordering tokens (guard and
    /// criticality unchanged).
    Retokened(usize),
}

/// Reusable buffers of the resolution walk, owned by the engine so the
/// per-call version lists and candidate products are allocated once per
/// run rather than once per call.
#[derive(Debug, Default)]
pub(crate) struct GenScratch {
    /// Select-steering instances of [`Res::copy_versions`].
    steer: Vec<((OpId, Iter), Guard)>,
    /// The buffers of one [`Res::gen_candidates`] call, moved out while
    /// it runs.
    gen: GenBufs,
}

/// The buffers of one [`Res::gen_candidates`] call.
#[derive(Debug, Default)]
struct GenBufs {
    /// The version set of the port being combined, or a copy's choices.
    versions: Vec<(ValSrc, Guard)>,
    /// Operand combinations so far, and the next port's extension.
    combos: Vec<(Operands, Guard)>,
    next: Vec<(Operands, Guard)>,
    /// Indices of the instance's existing candidates.
    mine: Vec<usize>,
    /// Settled ordering tokens.
    tokens: Vec<Option<Key>>,
}

/// Bundle of mutable scheduling state threaded through resolution.
pub(crate) struct Res<'a> {
    pub g: &'a Cdfg,
    pub tables: &'a Tables,
    pub mgr: &'a mut BddManager,
    pub it: &'a mut InstTable,
    pub memo: &'a mut GuardMemo,
    pub events: &'a mut Vec<CandEvent>,
    pub scratch: &'a mut GenScratch,
}

impl Res<'_> {
    /// The literal "condition instance `(op, ci)` evaluates to `value`",
    /// collapsed to a constant when the context already knows the
    /// outcome (resolution history or the per-loop floor of
    /// iterations known to have continued).
    pub fn lit(&mut self, ctx: &Ctx, op: OpId, ci: &[u32], value: bool) -> Guard {
        if let Some(inst) = self.it.get(op, ci) {
            if let Some(&v) = ctx.resolved.get(&inst) {
                return if v == value {
                    Guard::TRUE
                } else {
                    Guard::FALSE
                };
            }
        }
        if let Some(&l) = self.tables.loop_of_cond.get(&op) {
            // A loop-continue condition below the floor is known true on
            // this path.
            let d = self.g.op(op).loop_path().len() - 1;
            let m = ci[d];
            if let Some(&floor) = ctx.floor.get(&(l, Iter::from_slice(&ci[..d]))) {
                if m < floor {
                    return if value { Guard::TRUE } else { Guard::FALSE };
                }
            }
        }
        let inst = self.it.id(op, ci);
        let var = cond_var(self.mgr, self.it, inst);
        self.mgr.literal(var, value)
    }

    /// The control guard of instance `(op, iter)`: branch literals plus
    /// the full loop continuation chains (`c_0 ∧ … ∧ c_k` for body
    /// members, `c_0 ∧ … ∧ c_{k−1}` for condition-cone members).
    /// Memoized per instance for the current validity window — the gc
    /// and sweep passes re-derive the same guards many times per state.
    pub fn ctrl_guard(&mut self, ctx: &Ctx, op: OpId, iter: &[u32]) -> Guard {
        if self.g.op(op).ctrl_deps().is_empty() {
            return Guard::TRUE;
        }
        let inst = self.it.id(op, iter);
        if let Some(&g) = self.memo.ctrl.get(&inst) {
            return g;
        }
        let g = self.ctrl_guard_uncached(ctx, op, iter);
        self.memo.ctrl.insert(inst, g);
        g
    }

    fn ctrl_guard_uncached(&mut self, ctx: &Ctx, op: OpId, iter: &[u32]) -> Guard {
        let g = self.g;
        let mut acc = Guard::TRUE;
        for dep in g.op(op).ctrl_deps() {
            match dep.kind {
                CtrlKind::Branch => {
                    let clen = g.op(dep.cond).loop_path().len();
                    let l = self.lit(ctx, dep.cond, &iter[..clen], dep.polarity);
                    acc = self.mgr.and(acc, l);
                }
                CtrlKind::LoopBody(lp) => {
                    let d = depth_of(g, op, lp);
                    let k = iter[d];
                    acc = self.chain(ctx, acc, dep.cond, iter, d, k);
                }
                CtrlKind::LoopContinue(lp) => {
                    let d = depth_of(g, op, lp);
                    let k = iter[d];
                    if k > 0 {
                        acc = self.chain(ctx, acc, dep.cond, iter, d, k - 1);
                    }
                }
                // Exit gating is carried by the exit-view operand
                // resolution (each exit version conjoins ¬c at its exit
                // iteration), not by a static literal.
                CtrlKind::LoopExit(_) => {}
            }
            if acc.is_false() {
                return acc;
            }
        }
        acc
    }

    /// Conjoins `acc` with the continuation prefix product
    /// `lit(cond@0) ∧ … ∧ lit(cond@end)`. A chain always starts at
    /// iteration 0, so the product is independent of `acc` and shared
    /// through [`GuardMemo::chain`] across all candidates of the loop
    /// context.
    fn chain(
        &mut self,
        ctx: &Ctx,
        acc: Guard,
        cond: OpId,
        iter: &[u32],
        d: usize,
        end: u32,
    ) -> Guard {
        if acc.is_false() {
            return Guard::FALSE;
        }
        let p = self.chain_prefix(ctx, cond, iter, d, end);
        self.mgr.and(acc, p)
    }

    /// The memoized prefix product `lit(cond@0) ∧ … ∧ lit(cond@end)`:
    /// walks down from `end` to the deepest cached partial product and
    /// builds (and caches) only the missing tail. A cached FALSE partial
    /// short-circuits the whole chain.
    fn chain_prefix(&mut self, ctx: &Ctx, cond: OpId, iter: &[u32], d: usize, end: u32) -> Guard {
        let clen = self.g.op(cond).loop_path().len();
        let mut ci = Iter::from_slice(&iter[..clen]);
        let mut acc = Guard::TRUE;
        let mut start = 0;
        let mut m = end;
        loop {
            ci[d] = m;
            // Only interned condition instances can be cached; `it.get`
            // never allocates.
            if let Some(inst) = self.it.get(cond, &ci) {
                if let Some(&g) = self.memo.chain.get(&inst) {
                    if g.is_false() {
                        return Guard::FALSE;
                    }
                    acc = g;
                    start = m + 1;
                    break;
                }
            }
            if m == 0 {
                break;
            }
            m -= 1;
        }
        for m in start..=end {
            ci[d] = m;
            let l = self.lit(ctx, cond, &ci, true);
            acc = self.mgr.and(acc, l);
            let inst = self.it.id(cond, &ci);
            self.memo.chain.insert(inst, acc);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Appends to `out` all currently derivable value versions of `(op,
    /// iter)` with their validity guards. Pass-throughs (selects,
    /// passes) are *scheduled* as free copy operations — each loop
    /// iteration's merge gets a fresh registry name, which is what lets
    /// steady-state contexts fold under a uniform iteration shift (the
    /// register transfers of Fig. 14) — so their versions, like any real
    /// op's, are their issued keys.
    pub fn value_versions(
        &mut self,
        ctx: &Ctx,
        op: OpId,
        iter: &[u32],
        out: &mut Vec<(ValSrc, Guard)>,
    ) {
        match self.g.op(op).kind() {
            OpKind::Const(v) => out.push((ValSrc::Const(v), Guard::TRUE)),
            OpKind::Input(i) => out.push((ValSrc::Input(i), Guard::TRUE)),
            _ => {
                // Issued versions (real ops and pass-through copies). An
                // instance never interned has never been issued.
                let Some(inst) = self.it.get(op, iter) else {
                    return;
                };
                for (k, info) in ctx.avail.versions(inst) {
                    if !info.guard.is_false() {
                        out.push((ValSrc::Key(*k), info.guard));
                    }
                }
            }
        }
    }

    /// Appends to `out` the values a pass-through *copy* candidate would
    /// capture: the recursive resolution through the select/pass
    /// structure (Observation 1 of the paper).
    pub fn copy_versions(
        &mut self,
        ctx: &Ctx,
        op: OpId,
        iter: &[u32],
        out: &mut Vec<(ValSrc, Guard)>,
    ) {
        let g = self.g;
        match g.op(op).kind() {
            OpKind::Pass => self.port_versions(ctx, &g.op(op).ports()[0], op, iter, out),
            OpKind::Select => {
                // Steering resolves *structurally* to condition instances:
                // speculation through a select must work before (and keep
                // working after) the condition's value version exists —
                // Example 6 schedules op7 while op4 is still unscheduled.
                let mut steer = std::mem::take(&mut self.scratch.steer);
                steer.clear();
                self.port_versions(ctx, &g.op(op).ports()[0], op, iter, &mut steer);
                let start = out.len();
                for &s in &steer {
                    self.select_sides(ctx, op, iter, s, out);
                }
                self.scratch.steer = steer;
                self.merge_from(out, start);
            }
            other => panic!("copy_versions on non-pass-through {other}"),
        }
    }

    /// Structural instance resolution of an op, appended to `out`:
    /// pass-throughs forward, selects fan out by their steering literal,
    /// everything else is itself.
    fn inst_of(&mut self, ctx: &Ctx, op: OpId, iter: &[u32], out: &mut Vec<((OpId, Iter), Guard)>) {
        let g = self.g;
        match g.op(op).kind() {
            OpKind::Pass => self.port_versions(ctx, &g.op(op).ports()[0], op, iter, out),
            OpKind::Select => {
                // The steering instances go to the end of `out` and are
                // removed once both sides have been appended after them.
                let steer_start = out.len();
                self.port_versions(ctx, &g.op(op).ports()[0], op, iter, out);
                let steer_end = out.len();
                for si in steer_start..steer_end {
                    self.select_sides(ctx, op, iter, out[si], out);
                }
                out.drain(steer_start..steer_end);
            }
            _ => out.push(((op, Iter::from_slice(iter)), Guard::TRUE)),
        }
    }

    /// Appends what select `op` at `iter` reads under one steering
    /// instance `(sop, siter)`, valid under `gs`: the side a constant
    /// steering picks, or each side under its steering literal.
    fn select_sides<T: Leaf>(
        &mut self,
        ctx: &Ctx,
        op: OpId,
        iter: &[u32],
        ((sop, siter), gs): ((OpId, Iter), Guard),
        out: &mut Vec<(T, Guard)>,
    ) {
        let g = self.g;
        let ports = g.op(op).ports();
        match g.op(sop).kind() {
            OpKind::Const(v) => {
                let side = if v != 0 { &ports[1] } else { &ports[2] };
                let from = out.len();
                self.port_versions(ctx, side, op, iter, out);
                self.and_from(out, from, gs);
            }
            OpKind::Input(_) => {
                panic!(
                    "select steered directly by a primary input; \
                     route it through a condition-producing op"
                )
            }
            _ => {
                for (side, pol) in [(&ports[1], true), (&ports[2], false)] {
                    let lit = self.lit(ctx, sop, &siter, pol);
                    let gsl = self.mgr.and(gs, lit);
                    if gsl.is_false() {
                        continue;
                    }
                    let from = out.len();
                    self.port_versions(ctx, side, op, iter, out);
                    self.and_from(out, from, gsl);
                }
            }
        }
    }

    /// Appends to `out` what one input port of `consumer` at `iter`
    /// reads, as `T`'s [`Leaf::read`] sees it: a wire or loop-carried
    /// port reads its [`read_frame`]; a loop-exit view reads every
    /// still-possible exit iteration, each under its exit guard.
    pub fn port_versions<T: Leaf>(
        &mut self,
        ctx: &Ctx,
        port: &PortKind,
        consumer: OpId,
        iter: &[u32],
        out: &mut Vec<(T, Guard)>,
    ) {
        let PortKind::Exit { lp, src, init } = *port else {
            let g = self.g;
            return read_frame(g, port, consumer, iter, |src, at| {
                T::read(self, ctx, src, at, out)
            });
        };
        let cond = self.g.loop_info(lp).cond();
        // The *loop's* nesting depth anchors the outer-iteration prefix
        // (via its condition op, which always sits inside the loop). The
        // exit source may live outside the loop entirely — a
        // loop-invariant assignment like `b = x` resolves to the outer
        // producer — so its own frame can be shorter; reads below
        // truncate to it.
        let base = exit_base(self.g, cond, iter);
        let slen = self.g.op(src).loop_path().len();
        let start = out.len();
        // Exit before the first iteration: the initial value, valid when
        // c_0 is false.
        let ilen = self.g.op(init).loop_path().len();
        let exit0 = {
            let mut ci = base;
            ci.push(0);
            self.lit(ctx, cond, &ci, false)
        };
        if !exit0.is_false() {
            let from = out.len();
            T::read(self, ctx, init, &base[..ilen.min(base.len())], out);
            self.and_from(out, from, exit0);
        }
        // Exit after iteration j: src@j, valid when c_{j+1} is false
        // (src@j's own guard carries the continuation chain up to c_j).
        let h = ctx.horizon.get(&(lp, base)).copied().unwrap_or(0);
        for j in 0..=h {
            let mut si = base;
            si.push(j);
            // A loop-invariant source reads at its own (outer) frame —
            // the same leaves for every exit arm; the per-j exit guards
            // OR together in the merge.
            let from = out.len();
            T::read(self, ctx, src, &si[..slen.min(si.len())], out);
            if out.len() == from {
                continue;
            }
            // Exit after iteration j: the loop must have continued
            // through iterations 0..=j and stopped at j+1. The explicit
            // chain matters when the value short-circuits through selects
            // to a loop-invariant source whose own guard carries no
            // continuation history.
            let mut ci = base;
            ci.push(j + 1);
            let mut exit_g = self.lit(ctx, cond, &ci, false);
            exit_g = self.chain(ctx, exit_g, cond, &si, base.len(), j);
            if exit_g.is_false() {
                out.truncate(from);
                continue;
            }
            self.and_from(out, from, exit_g);
        }
        self.merge_from(out, start);
    }

    /// Resolves a memory-ordering dependency of `(consumer, iter)`
    /// through `port`: returns `Ok(Some(key))` when the predecessor
    /// access has executed (issue must wait for a later state than the
    /// predecessor's), `Ok(None)` when the predecessor can no longer
    /// execute on this path (bypass), and `Err(())` when the
    /// predecessor's fate is not yet settled (try again later).
    ///
    /// Takes the context mutably because settling a *loop-exit* token
    /// records discharge evidence (see [`Res::settled`]); all other
    /// cases only read.
    pub fn token(
        &mut self,
        ctx: &mut Ctx,
        port: &PortKind,
        consumer: OpId,
        iter: &[u32],
    ) -> Result<Option<Key>, ()> {
        // Resolve the port structurally to the predecessor instance(s).
        // Ordering chains never go through selects, so a port resolves to
        // one concrete predecessor instance per exit/carried case; we
        // require the *settled* union: every possibly-executing
        // predecessor has executed.
        let PortKind::Exit { lp, src, .. } = *port else {
            let g = self.g;
            return read_frame(g, port, consumer, iter, |src, at| {
                self.settled(ctx, src, at)
            });
        };
        // Ordered after the loop's accesses: settled only when the loop
        // has exited on this path (the exit consumer's own guard handles
        // which iteration); conservatively require the last
        // *instantiated* iteration's access to be settled. The prefix is
        // anchored on the loop's own depth; a loop-invariant source
        // settles at its outer frame.
        let cond = self.g.loop_info(lp).cond();
        let base = exit_base(self.g, cond, iter);
        let slen = self.g.op(src).loop_path().len();
        let h = ctx.horizon.get(&(lp, base)).copied().unwrap_or(0);
        let mut si = base;
        si.push(h);
        self.settled(ctx, src, &si[..slen.min(si.len())])
    }

    /// Is the access instance `(op, iter)` settled: executed (returns its
    /// token key), or provably never executing on this path (returns
    /// `None` after checking *its* predecessor chain)?
    fn settled(&mut self, ctx: &mut Ctx, op: OpId, iter: &[u32]) -> Result<Option<Key>, ()> {
        let g = self.g;
        // Pass-throughs in the chain (exit views of tokens) forward to
        // their producer.
        if g.op(op).kind() == OpKind::Pass {
            let port = &g.op(op).ports()[0];
            if let PortKind::Exit { lp, .. } = *port {
                // A loop-exit token re-derives through the producing
                // loop's resolution history, which GC prunes once the
                // loop's dataflow retires — so the settle must be made
                // *persistent* the moment it is provable. Once
                // discharged, consumers carry no token constraint (the
                // predecessor executed in an earlier state).
                let inst = self.it.id(op, iter);
                if ctx.discharged.contains(&inst) {
                    return Ok(None);
                }
                let r = self.token(ctx, port, op, iter);
                if let Ok(tok) = r {
                    if self.loop_exited(ctx, lp, iter) {
                        ctx.exit_pending.insert(inst, tok);
                    }
                }
                return r;
            }
            return self.token(ctx, port, op, iter);
        }
        if g.op(op).kind().is_source() {
            return Ok(None);
        }
        // Executed?
        if let Some(inst) = self.it.get(op, iter) {
            if let Some((k, _)) = ctx.avail.versions(inst).first() {
                return Ok(Some(*k));
            }
        }
        // Dead?
        let ctrl = self.ctrl_guard(ctx, op, iter);
        if ctrl.is_false() {
            // The predecessor never executes here; ordering falls back to
            // *its* predecessors. The "latest" predecessor token is the
            // content-wise maximum (allocation order would be
            // nondeterministic across equivalent contexts).
            let mut best: Option<Key> = None;
            for p in g.op(op).order_deps() {
                match self.token(ctx, p, op, iter)? {
                    None => {}
                    Some(k) => {
                        best = Some(match best {
                            None => k,
                            Some(b) => {
                                if cmp_key(self.it, &b, &k) == std::cmp::Ordering::Less {
                                    k
                                } else {
                                    b
                                }
                            }
                        });
                    }
                }
            }
            return Ok(best);
        }
        Err(())
    }

    /// Has loop `lp` (instantiated under the prefix of `base`) provably
    /// exited on this path — i.e. is some continue condition at or below
    /// the horizon already resolved *false*? A condition instance never
    /// interned was never referenced, so it cannot be resolved.
    fn loop_exited(&self, ctx: &Ctx, lp: LoopId, base: &[u32]) -> bool {
        let cond = self.g.loop_info(lp).cond();
        let mut ci = Iter::from_slice(base);
        let h = ctx.horizon.get(&(lp, ci)).copied().unwrap_or(0);
        let d = base.len();
        ci.push(0);
        (0..=h.saturating_add(1)).any(|k| {
            ci[d] = k;
            self.it
                .get(cond, &ci)
                .is_some_and(|i| ctx.resolved.get(&i) == Some(&false))
        })
    }

    /// Attempts to build candidates for instance `(op, iter)`: one per
    /// operand choice, each with the Lemma-1 conjunction guard,
    /// deduplicated against the instance's existing candidates and
    /// issued versions and appended to `ctx.cands`. A pass-through's
    /// choices are its resolvable source versions (the issued copy is
    /// the fresh per-iteration name of the merged variable, a register
    /// transfer); an operation that computes chooses from the product of
    /// its ports' versions ([`Self::products`]).
    ///
    /// Returns how many candidates were added, widened or re-tokened.
    /// The `max_versions` cap counts versions only — the instance's
    /// issued versions plus its candidates — so a call the cap stopped
    /// has widened and re-tokened every choice before the stop, and a
    /// repeat call with no event in between adds nothing. Works in the
    /// engine-owned [`GenScratch`], so a generation that adds nothing
    /// allocates nothing.
    pub fn gen_candidates(
        &mut self,
        ctx: &mut Ctx,
        op: OpId,
        iter: &[u32],
        max_versions: usize,
        max_depth: usize,
    ) -> usize {
        let kind = self.g.op(op).kind();
        if kind.is_source() {
            return 0;
        }
        let inst = self.it.id(op, iter);
        if ctx.done.contains(&inst) {
            return 0;
        }
        let ctrl = self.ctrl_guard(ctx, op, iter);
        if ctrl.is_false() {
            return 0;
        }
        let mut bufs = std::mem::take(&mut self.scratch.gen);
        let copy = kind.is_pass_through();
        if copy {
            bufs.tokens.clear();
            bufs.versions.clear();
            self.copy_versions(ctx, op, iter, &mut bufs.versions);
        } else {
            self.products(ctx, op, iter, ctrl, &mut bufs);
        }
        let GenBufs {
            versions,
            combos,
            mine,
            tokens,
            ..
        } = &mut bufs;
        let choices = if copy { versions.len() } else { combos.len() };
        let mut added = 0;
        if choices > 0 {
            // One scan instead of per-choice scans: the candidate list
            // can be long, but only same-instance entries matter for
            // dedup, widen, and version counting. Indices are into
            // `ctx.cands` (event consumers rely on that), and freshly
            // pushed candidates join the index so later choices observe
            // them exactly as a rescanning loop would.
            same_inst(ctx, inst, mine);
            let issued = ctx.avail.versions(inst).len();
            for c in 0..choices {
                let (operands, guard) = if copy {
                    let (v, gv) = versions[c];
                    (Operands::from_slice(&[v]), self.mgr.and(ctrl, gv))
                } else {
                    combos[c]
                };
                // Bounding candidate creation (not just issue) by the
                // speculation depth keeps the unrolling horizon finite:
                // deeper iterations' continuation chains exceed the depth
                // until earlier conditions resolve.
                if guard.is_false() || self.mgr.support_len(guard) > max_depth {
                    continue;
                }
                // An existing candidate with the same operand choice
                // absorbs the new guard (a new exit iteration opening
                // widens the condition under which this choice is the
                // right one).
                if let Some(&i) = mine.iter().find(|&&i| ctx.cands[i].operands == operands) {
                    // A candidate pinning a token key that was invalidated
                    // (mis-speculated predecessor version dropped by
                    // cofactoring) can never issue; adopt the freshly
                    // settled tokens instead of deadlocking on the dead
                    // key.
                    let cand = &mut ctx.cands[i];
                    let stale = cand
                        .tokens
                        .iter()
                        .flatten()
                        .any(|t| !ctx.avail.contains_key(t));
                    if stale && cand.tokens != *tokens {
                        cand.tokens.clone_from(tokens);
                        self.events.push(CandEvent::Retokened(i));
                        added += 1;
                    }
                    let widened = self.mgr.or(cand.guard, guard);
                    if widened != cand.guard {
                        cand.guard = widened;
                        self.events.push(CandEvent::Widened(i));
                        added += 1;
                    }
                    continue;
                }
                // Already issued with this exact operand choice? Never
                // re-execute.
                let mut issued_versions = ctx.avail.versions(inst).iter();
                if issued_versions.any(|(_, info)| info.operands == operands) {
                    continue;
                }
                if issued + mine.len() >= max_versions {
                    break;
                }
                ctx.cands.push(Candidate {
                    inst,
                    operands,
                    tokens: tokens.clone(),
                    guard,
                });
                mine.push(ctx.cands.len() - 1);
                self.events.push(CandEvent::Added(ctx.cands.len() - 1));
                added += 1;
            }
        }
        self.scratch.gen = bufs;
        added
    }

    /// The operand choices of computing op `(op, iter)` under its control
    /// guard `ctrl`: the cartesian product of its ports' version sets,
    /// each with the conjunction of its versions' guards, into
    /// `bufs.combos`, and its settled ordering tokens into `bufs.tokens`.
    /// Leaves no choice when an ordering token is unsettled: the whole
    /// instance waits.
    fn products(&mut self, ctx: &mut Ctx, op: OpId, iter: &[u32], ctrl: Guard, bufs: &mut GenBufs) {
        let g = self.g;
        let GenBufs {
            versions,
            combos,
            next,
            tokens,
            ..
        } = bufs;
        combos.clear();
        tokens.clear();
        for p in g.op(op).order_deps() {
            match self.token(ctx, p, op, iter) {
                Ok(t) => tokens.push(t),
                Err(()) => return,
            }
        }
        combos.push((Operands::new(), ctrl));
        for p in g.op(op).ports() {
            versions.clear();
            self.port_versions(ctx, p, op, iter, versions);
            next.clear();
            for &(ops_so_far, g_so_far) in combos.iter() {
                for &(v, gv) in versions.iter() {
                    let g = self.mgr.and(g_so_far, gv);
                    if g.is_false() {
                        continue;
                    }
                    let mut o = ops_so_far;
                    o.push(v);
                    next.push((o, g));
                }
            }
            std::mem::swap(combos, next);
            if combos.is_empty() {
                return;
            }
            combos.truncate(64);
        }
    }
}

/// What a port walk ([`Res::port_versions`]) yields at the op a port
/// reads: a value version, or the instance that could produce it.
pub(crate) trait Leaf: Copy + PartialEq {
    /// Appends the leaves of `(op, iter)` to `out`.
    fn read(r: &mut Res<'_>, ctx: &Ctx, op: OpId, iter: &[u32], out: &mut Vec<(Self, Guard)>);
}

/// Value versions ([`Res::value_versions`]): what an operand reads.
impl Leaf for ValSrc {
    fn read(r: &mut Res<'_>, ctx: &Ctx, op: OpId, iter: &[u32], out: &mut Vec<(Self, Guard)>) {
        r.value_versions(ctx, op, iter, out)
    }
}

/// Producing instances ([`Res::inst_of`]), resolved structurally without
/// requiring any value version to exist yet: what select steering
/// reads, where only the condition's *identity* matters.
impl Leaf for (OpId, Iter) {
    fn read(r: &mut Res<'_>, ctx: &Ctx, op: OpId, iter: &[u32], out: &mut Vec<(Self, Guard)>) {
        r.inst_of(ctx, op, iter, out)
    }
}

/// The indices of `inst`'s candidates in `ctx.cands`, into `out`.
fn same_inst(ctx: &Ctx, inst: InstId, out: &mut Vec<usize>) {
    out.clear();
    out.extend(
        ctx.cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.inst == inst)
            .map(|(i, _)| i),
    );
}

/// Depth of loop `lp` within `op`'s loop path.
///
/// # Panics
///
/// Panics if `op` is not inside `lp` (a CDFG validation invariant).
pub(crate) fn depth_of(g: &Cdfg, op: OpId, lp: LoopId) -> usize {
    g.op(op)
        .loop_path()
        .iter()
        .position(|&l| l == lp)
        .expect("op is inside the loop (validated)")
}

/// Calls `read` with the op and the iteration a wire or loop-carried
/// port of `consumer` at `iter` reads. A wire reads its source at the
/// source's own depth. A carried port reads `init` at iteration 0 of
/// its loop (depth `d`), and after that its source one iteration back:
/// `iter` truncated to the source's depth with index `d` decremented. A
/// loop-invariant carried source (an in-loop assignment that resolved
/// to an outer producer) has no iteration axis to step back along and
/// reads its own, shorter frame unchanged. Only that last frame is
/// copied; the others are slices of `iter`.
///
/// # Panics
///
/// Panics on a loop-exit port, which reads every possible exit
/// iteration rather than one frame.
fn read_frame<R>(
    g: &Cdfg,
    port: &PortKind,
    consumer: OpId,
    iter: &[u32],
    read: impl FnOnce(OpId, &[u32]) -> R,
) -> R {
    let frame = |op: OpId| &iter[..g.op(op).loop_path().len().min(iter.len())];
    match *port {
        PortKind::Wire(src) => read(src, frame(src)),
        PortKind::Carried { lp, src, init } => {
            let d = depth_of(g, consumer, lp);
            if iter[d] == 0 {
                return read(init, frame(init));
            }
            let mut prev = Iter::from_slice(frame(src));
            if d < prev.len() {
                prev[d] = iter[d] - 1;
            }
            read(src, &prev)
        }
        PortKind::Exit { .. } => panic!("a loop-exit port has no single read frame"),
    }
}

/// The outer-iteration prefix a loop-exit view of the loop with
/// continue condition `cond` is instantiated under: `iter` padded with
/// zeros or truncated to the loop's own nesting depth.
fn exit_base(g: &Cdfg, cond: OpId, iter: &[u32]) -> Iter {
    let pre_len = g.op(cond).loop_path().len() - 1;
    iter.iter()
        .copied()
        .chain(std::iter::repeat(0))
        .take(pre_len)
        .collect()
}

impl Res<'_> {
    /// Conjoins `g` into the guard of every entry of `out[from..]`,
    /// dropping entries whose guard becomes FALSE.
    fn and_from<T: Copy>(&mut self, out: &mut Vec<(T, Guard)>, from: usize, g: Guard) {
        let mut w = from;
        for r in from..out.len() {
            let (x, gx) = out[r];
            let ng = self.mgr.and(g, gx);
            if !ng.is_false() {
                out[w] = (x, ng);
                w += 1;
            }
        }
        out.truncate(w);
    }

    /// Merges duplicate leaves of `out[from..]` into their first
    /// occurrence by OR-ing their guards (both sides of a select fed by
    /// the same producer, or an exit view whose init equals an early
    /// body value).
    fn merge_from<T: Copy + PartialEq>(&mut self, out: &mut Vec<(T, Guard)>, from: usize) {
        let mut w = from;
        for r in from..out.len() {
            let (v, g) = out[r];
            match (from..w).find(|&i| out[i].0 == v) {
                Some(i) => out[i].1 = self.mgr.or(out[i].1, g),
                None => {
                    out[w] = (v, g);
                    w += 1;
                }
            }
        }
        out.truncate(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::{CdfgBuilder, Src};
    use guards::BddManager;

    /// while (i < n) { if (i > 2) { acc = acc + i } i = i + 1 } o = acc
    fn branchy_loop() -> (Cdfg, OpId, OpId, OpId) {
        let mut b = CdfgBuilder::new("t");
        let n = b.input("n");
        let zero = b.constant(0);
        b.begin_loop();
        let i = b.carried(zero);
        let acc = b.carried(zero);
        let cont = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(n)]);
        b.loop_condition(cont);
        let two = b.constant(2);
        let branch = b.op(OpKind::Gt, &[Src::Carried(i), Src::Op(two)]);
        b.begin_if(branch);
        let sum = b.op(OpKind::Add, &[Src::Carried(acc), Src::Carried(i)]);
        b.end_if();
        let merged = b.select(Src::Op(branch), Src::Op(sum), Src::Carried(acc));
        b.set_carried(acc, merged);
        let inc = b.op(OpKind::Inc, &[Src::Carried(i)]);
        b.set_carried(i, inc);
        b.end_loop();
        let e = b.exit_value(acc);
        b.output("o", Src::Op(e));
        let g = b.finish().unwrap();
        (g, cont, branch, sum)
    }

    fn res_env(g: &Cdfg) -> (Tables, BddManager, InstTable) {
        (Tables::new(g), BddManager::new(), InstTable::default())
    }

    /// Resolves a support set back to `(op, iter)` content for
    /// assertions.
    fn support_insts(r: &mut Res<'_>, gd: Guard) -> Vec<(OpId, Vec<u32>)> {
        r.mgr
            .support(gd)
            .iter()
            .map(|c| {
                let (op, iter) = r.it.pair(InstId::of(*c));
                (op, iter.to_vec())
            })
            .collect()
    }

    #[test]
    fn ctrl_guard_builds_full_continuation_chain() {
        let (g, cont, _branch, sum) = branchy_loop();
        let (tables, mut mgr, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let ctx = Ctx::default();
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            it: &mut it,
            memo: &mut memo,
            events: &mut events,
            scratch: &mut scratch,
        };
        // The branch-gated add at iteration 2 is conditioned on
        // c_cont@0 ∧ c_cont@1 ∧ c_cont@2 ∧ c_branch@2.
        let guard = r.ctrl_guard(&ctx, sum, &[2]);
        let insts = support_insts(&mut r, guard);
        assert_eq!(insts.len(), 4);
        for k in 0..=2u32 {
            assert!(insts.contains(&(cont, vec![k])), "chain misses c@{k}");
        }
    }

    #[test]
    fn resolved_and_floor_collapse_literals() {
        let (g, cont, _branch, sum) = branchy_loop();
        let (tables, mut mgr, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        let lp = g.loops()[0].id();
        ctx.floor.insert((lp, Iter::new()), 2); // c@0, c@1 known true
        let c2 = it.id(cont, &[2]);
        ctx.resolved.insert(c2, true);
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            it: &mut it,
            memo: &mut memo,
            events: &mut events,
            scratch: &mut scratch,
        };
        let guard = r.ctrl_guard(&ctx, sum, &[2]);
        // Only the branch literal remains.
        assert_eq!(r.mgr.support(guard).len(), 1);
        // And a resolved-false continuation kills the instance outright.
        // (Resolution ends the memo's validity window, as in the engine.)
        ctx.resolved.insert(c2, false);
        r.memo.clear();
        let dead = r.ctrl_guard(&ctx, sum, &[2]);
        assert!(dead.is_false());
    }

    #[test]
    fn select_steering_resolves_structurally_without_values() {
        // Example 6's point: consumers can speculate through a select
        // before the steering condition is computed.
        let (g, _cont, branch, sum) = branchy_loop();
        let sel = g
            .ops()
            .iter()
            .find(|o| o.kind() == OpKind::Select)
            .unwrap()
            .id();
        let (tables, mut mgr, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        // Issue only the true-side add at iteration 0 so one side of the
        // select has a value; the steering Gt is entirely unscheduled.
        let sum0 = it.id(sum, &[0]);
        ctx.avail.insert(
            Key::new(sum0, 0),
            crate::ctx::AvailInfo {
                guard: Guard::TRUE,
                ready_in: 0,
                depth: 0.0,
                operands: Operands::new(),
            },
        );
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            it: &mut it,
            memo: &mut memo,
            events: &mut events,
            scratch: &mut scratch,
        };
        let mut versions = Vec::new();
        r.copy_versions(&ctx, sel, &[0], &mut versions);
        // Two versions: the issued add under c_branch@0, and the carried
        // init (constant 0) under ¬c_branch@0.
        assert_eq!(versions.len(), 2);
        let has_key = versions
            .iter()
            .any(|(v, gd)| matches!(v, ValSrc::Key(k) if k.inst == sum0) && !gd.is_true());
        let has_const = versions.iter().any(|(v, _)| matches!(v, ValSrc::Const(0)));
        assert!(has_key && has_const);
        // Each version's guard mentions the unscheduled steering cond.
        for (_, gd) in &versions {
            let insts = support_insts(&mut r, *gd);
            assert!(insts.contains(&(branch, vec![0])));
        }
    }

    #[test]
    fn exit_views_enumerate_possible_exit_iterations() {
        let (g, cont, _branch, _sum) = branchy_loop();
        let exit_pass = g
            .ops()
            .iter()
            .find(|o| o.kind() == OpKind::Pass)
            .unwrap()
            .id();
        let (tables, mut mgr, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        let lp = g.loops()[0].id();
        ctx.horizon.insert((lp, Iter::new()), 1);
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            it: &mut it,
            memo: &mut memo,
            events: &mut events,
            scratch: &mut scratch,
        };
        // With nothing issued, only the exit-at-0 (init) version exists.
        let mut versions = Vec::new();
        r.copy_versions(&ctx, exit_pass, &[], &mut versions);
        assert_eq!(versions.len(), 1);
        let (v, gd) = versions[0];
        assert!(matches!(v, ValSrc::Const(0)), "init value");
        // Guarded on ¬c@0.
        let insts = support_insts(&mut r, gd);
        assert_eq!(insts, vec![(cont, vec![0])]);
    }

    #[test]
    fn gen_candidates_dedups_and_widens() {
        let (g, cont, _branch, _sum) = branchy_loop();
        let (tables, mut mgr, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            it: &mut it,
            memo: &mut memo,
            events: &mut events,
            scratch: &mut scratch,
        };
        let n1 = r.gen_candidates(&mut ctx, cont, &[0], 4, 4);
        assert_eq!(n1, 1, "the iteration-0 continue test is schedulable");
        let n2 = r.gen_candidates(&mut ctx, cont, &[0], 4, 4);
        assert_eq!(n2, 0, "regeneration with identical operands dedups");
        assert_eq!(ctx.cands.len(), 1);
        // A version cap of zero admits nothing.
        let mut fresh = Ctx::default();
        assert_eq!(r.gen_candidates(&mut fresh, cont, &[0], 0, 4), 0);
        assert!(fresh.cands.is_empty());
    }

    /// The version cap counts versions only, so a call the cap stopped
    /// is complete: here one call widens an existing candidate, adds
    /// one and stops at the cap, and a repeat call with no event in
    /// between adds nothing. (Were the widening counted against the
    /// cap, the first call would stop short and the repeat would add.)
    #[test]
    fn capped_generation_is_complete() {
        let (g, _cont, branch, _sum) = branchy_loop();
        let find = |k: OpKind| g.ops().iter().find(|o| o.kind() == k).unwrap().id();
        let (sel, exit_pass) = (find(OpKind::Select), find(OpKind::Pass));
        let out = g
            .ops()
            .iter()
            .find(|o| o.kind().has_side_effect())
            .unwrap()
            .id();
        let (tables, mut mgr, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        let lp = g.loops()[0].id();
        ctx.horizon.insert((lp, Iter::new()), 1);
        let issued = |guard, operands| crate::ctx::AvailInfo {
            guard,
            ready_in: 0,
            depth: 0.0,
            operands,
        };
        // The merged `acc` is issued at iterations 0 and 1, so the exit
        // view has three sources: the init, acc@0 and acc@1.
        for k in 0..2 {
            let key = Key::new(it.id(sel, &[k]), 0);
            ctx.avail.insert(key, issued(Guard::TRUE, Operands::new()));
        }
        let exit_inst = it.id(exit_pass, &[]);
        let out_inst = it.id(out, &[]);
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            it: &mut it,
            memo: &mut memo,
            events: &mut events,
            scratch: &mut scratch,
        };
        let mut versions = Vec::new();
        r.copy_versions(&ctx, exit_pass, &[], &mut versions);
        assert_eq!(versions.len(), 3, "{versions:?}");
        // Each source issued as a copy, so the output reads three
        // versions of the exit view.
        for (v, &(src, guard)) in versions.iter().enumerate() {
            let key = Key::new(exit_inst, v as u32);
            ctx.avail
                .insert(key, issued(guard, Operands::from_slice(&[src])));
        }
        // An existing output candidate reading the first version under a
        // narrower guard than that version's, which the next call widens.
        let first_guard = versions[0].1;
        let narrow = r.lit(&ctx, branch, &[0], true);
        let narrow = r.mgr.and(first_guard, narrow);
        ctx.cands.push(Candidate {
            inst: out_inst,
            operands: Operands::from_slice(&[ValSrc::Key(Key::new(exit_inst, 0))]),
            tokens: Vec::new(),
            guard: narrow,
        });
        let first = r.gen_candidates(&mut ctx, out, &[], 2, 4);
        assert_eq!(first, 2, "one widening and one new candidate");
        assert_eq!(ctx.cands[0].guard, first_guard, "widened");
        assert_eq!(ctx.cands.len(), 2, "the cap stops the third version");
        let events_before = r.events.len();
        let again = r.gen_candidates(&mut ctx, out, &[], 2, 4);
        assert_eq!(again, 0, "a capped call leaves nothing to add");
        assert_eq!(ctx.cands.len(), 2);
        assert_eq!(r.events.len(), events_before);
    }

    #[test]
    fn depth_cap_blocks_deep_chains() {
        let (g, _cont, _branch, _sum) = branchy_loop();
        let inc = g
            .ops()
            .iter()
            .find(|o| o.kind() == OpKind::Inc)
            .unwrap()
            .id();
        let (tables, mut mgr, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        let inc1 = it.id(inc, &[1]);
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            it: &mut it,
            memo: &mut memo,
            events: &mut events,
            scratch: &mut scratch,
        };
        // Iteration 0 increments are within any cap...
        assert_eq!(r.gen_candidates(&mut ctx, inc, &[0], 4, 1), 1);
        // ...but iteration 2 needs a 3-condition chain plus operand
        // availability; even with values present, a cap of 1 blocks it.
        ctx.avail.insert(
            Key::new(inc1, 0),
            crate::ctx::AvailInfo {
                guard: Guard::TRUE,
                ready_in: 0,
                depth: 0.0,
                operands: Operands::new(),
            },
        );
        assert_eq!(
            r.gen_candidates(&mut ctx, inc, &[2], 4, 1),
            0,
            "chain support exceeds the speculation depth"
        );
    }

    /// The per-run reader tables against a naive per-op DFS over the
    /// CDFG's edges, on every named workload (Triangle nests loops).
    #[test]
    fn reader_tables_match_naive_dfs() {
        for name in [
            "gcd",
            "test1",
            "barcode",
            "tlc",
            "findmin",
            "findmin64",
            "findmin1024",
            "findmintwopass",
            "findminsharedmem",
            "triangle",
            "dspclip",
            "fig4",
        ] {
            let w = workloads::by_name(name).expect("bundled workload builds");
            let g = &w.cdfg;
            let t = Tables::new(g);
            let ops: Vec<OpId> = g.ops().iter().map(|o| o.id()).collect();
            let producers = |p: &PortKind| {
                let init = match *p {
                    PortKind::Wire(_) => None,
                    PortKind::Carried { init, .. } => Some(init),
                    PortKind::Exit { init, .. } => Some(init),
                };
                std::iter::once(p.src()).chain(init).collect::<Vec<OpId>>()
            };
            // Every op reachable from `roots` through `next`, roots included.
            let dfs = |roots: Vec<OpId>, next: &dyn Fn(OpId) -> Vec<OpId>| {
                let mut seen = BTreeSet::new();
                let mut stack = roots;
                while let Some(x) = stack.pop() {
                    if seen.insert(x) {
                        stack.extend(next(x));
                    }
                }
                seen
            };
            let fanin = |x: OpId| {
                let op = g.op(x);
                let mut v: Vec<OpId> = op
                    .ports()
                    .iter()
                    .chain(op.order_deps())
                    .flat_map(producers)
                    .collect();
                v.extend(op.ctrl_deps().iter().map(|d| d.cond));
                v
            };
            let reach: Vec<BTreeSet<OpId>> = ops.iter().map(|&x| dfs(vec![x], &fanin)).collect();

            let useful_from = dfs(
                ops.iter()
                    .copied()
                    .filter(|&x| g.op(x).kind().has_side_effect())
                    .collect(),
                &|x| {
                    let mut v = fanin(x);
                    v.extend(g.op(x).loop_path().iter().map(|&l| g.loop_info(l).cond()));
                    v
                },
            );
            let useful: Vec<bool> = ops.iter().map(|x| useful_from.contains(x)).collect();
            assert_eq!(t.useful, useful, "{name}: useful");

            let loops_needed: Vec<BTreeSet<LoopId>> = reach
                .iter()
                .map(|r| {
                    r.iter()
                        .flat_map(|&y| g.op(y).loop_path().to_vec())
                        .collect()
                })
                .collect();
            assert_eq!(t.loops_needed, loops_needed, "{name}: loops_needed");

            let per_loop = |keep: &dyn Fn(LoopId, OpId) -> bool| -> Vec<Vec<OpId>> {
                g.loops()
                    .iter()
                    .map(|l| ops.iter().copied().filter(|&x| keep(l.id(), x)).collect())
                    .collect()
            };
            let loop_readers = per_loop(&|l, x| loops_needed[x.index()].contains(&l));
            assert_eq!(t.loop_readers, loop_readers, "{name}: loop_readers");
            let horizon_readers = per_loop(&|l, x| {
                loops_needed[x.index()].contains(&l) && !g.op(x).loop_path().contains(&l)
            });
            assert_eq!(
                t.horizon_readers, horizon_readers,
                "{name}: horizon_readers"
            );
            let loop_members = per_loop(&|l, x| {
                useful[x.index()] && !g.op(x).kind().is_source() && g.op(x).loop_path().contains(&l)
            });
            assert_eq!(t.loop_members, loop_members, "{name}: loop_members");

            let cond_readers: Vec<Vec<OpId>> = ops
                .iter()
                .map(|&c| {
                    let mut readers: BTreeSet<OpId> = BTreeSet::new();
                    if g.op(c).is_conditional() {
                        readers.extend(ops.iter().filter(|x| reach[x.index()].contains(&c)));
                    }
                    for l in g.loops().iter().filter(|l| l.cond() == c) {
                        readers.extend(&loop_readers[l.id().index()]);
                    }
                    readers.into_iter().collect()
                })
                .collect();
            assert_eq!(t.cond_readers, cond_readers, "{name}: cond_readers");

            // An op reads its ports' producers, and every access its order
            // chain reaches through order predecessors and exit views.
            let order_walk = |y: OpId| {
                let roots = g.op(y).order_deps().iter().flat_map(producers).collect();
                dfs(roots, &|z| {
                    let zo = g.op(z);
                    if zo.kind() == cdfg::OpKind::Pass {
                        producers(&zo.ports()[0])
                    } else {
                        zo.order_deps().iter().flat_map(producers).collect()
                    }
                })
            };
            let walks: Vec<BTreeSet<OpId>> = ops.iter().map(|&y| order_walk(y)).collect();
            let consumers: Vec<Vec<OpId>> = ops
                .iter()
                .map(|&x| {
                    let reads = |y: OpId| {
                        g.op(y).ports().iter().any(|p| producers(p).contains(&x))
                            || walks[y.index()].contains(&x)
                    };
                    std::iter::once(x)
                        .chain(ops.iter().copied().filter(|&y| y != x && reads(y)))
                        .collect()
                })
                .collect();
            assert_eq!(t.consumers, consumers, "{name}: consumers");
        }
    }
}
