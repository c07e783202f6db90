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
//! Structural resolution works on `(OpId, &[u32])` content; instances are
//! interned into [`InstId`]s only at the boundaries where they enter the
//! context (candidate creation, literal allocation, version lookups), so
//! the recursive walk itself allocates no instance bookkeeping. Derived
//! iteration vectors (prefixes, the previous iteration, exit arms) are
//! inline [`Iter`] copies, and the CDFG's port and dependency lists are
//! read in place.

use crate::ctx::{cmp_key, Candidate, Ctx, InstId, InstTable, Iter, Key, Operands, ValSrc};
use cdfg::{Cdfg, CtrlKind, LoopId, OpId, OpKind, PortKind};
use guards::{BddManager, ConjCache, Guard};
use spec_support::fxhash::FxHashMap;

/// Immutable per-run scheduling tables shared by resolution and the
/// engine.
pub(crate) struct Tables {
    /// For each op that is the continue condition of a loop, that loop.
    pub loop_of_cond: FxHashMap<OpId, LoopId>,
    /// Effectful ops (memory writes, outputs), for obligation
    /// instantiation.
    pub effects: Vec<OpId>,
}

impl Tables {
    pub fn new(g: &Cdfg) -> Self {
        let mut loop_of_cond = FxHashMap::default();
        for l in g.loops() {
            loop_of_cond.insert(l.cond(), l.id());
        }
        let effects = g
            .ops()
            .iter()
            .filter(|o| o.kind().has_side_effect())
            .map(|o| o.id())
            .collect();
        Tables {
            loop_of_cond,
            effects,
        }
    }
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
    pub ctrl: ConjCache<InstId>,
    /// Continuation prefix products `c_0 ∧ … ∧ c_m`, keyed by the
    /// condition instance at the prefix's last element `m`. All chain
    /// call sites range from iteration 0, so one cache entry per chain
    /// element serves every deeper candidate of the same loop context.
    pub chain: ConjCache<InstId>,
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
    /// The version set of the port (or copy source) being combined.
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
    pub ct: &'a mut crate::ctx::CondTable,
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
        let var = self.ct.var(inst);
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
        if let Some(g) = self.memo.ctrl.get(&inst) {
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
                    acc = self.chain(ctx, acc, dep.cond, iter, d, 0..=k);
                }
                CtrlKind::LoopContinue(lp) => {
                    let d = depth_of(g, op, lp);
                    let k = iter[d];
                    if k > 0 {
                        acc = self.chain(ctx, acc, dep.cond, iter, d, 0..=(k - 1));
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
    /// `lit(cond@0) ∧ … ∧ lit(cond@end)`. Every call site ranges from
    /// iteration 0, so the product is independent of `acc` and shared
    /// through [`GuardMemo::chain`] across all candidates of the loop
    /// context. Literal allocation order matches the legacy incremental
    /// fold: a prefix that collapses to FALSE at element `m` never
    /// allocates literals past `m`, and a FALSE `acc` still performs the
    /// single leading literal lookup the old loop did before breaking.
    fn chain(
        &mut self,
        ctx: &Ctx,
        acc: Guard,
        cond: OpId,
        iter: &[u32],
        d: usize,
        range: std::ops::RangeInclusive<u32>,
    ) -> Guard {
        debug_assert_eq!(*range.start(), 0, "chains always start at iteration 0");
        let end = *range.end();
        if acc.is_false() {
            let clen = self.g.op(cond).loop_path().len();
            let mut ci = Iter::from_slice(&iter[..clen]);
            ci[d] = 0;
            let _ = self.lit(ctx, cond, &ci, true);
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
                if let Some(g) = self.memo.chain.get(&inst) {
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
                for (k, info) in ctx.avail.range(Key::version_range(inst)) {
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
                let ports = g.op(op).ports();
                // Steering resolves *structurally* to condition instances:
                // speculation through a select must work before (and keep
                // working after) the condition's value version exists —
                // Example 6 schedules op7 while op4 is still unscheduled.
                let mut steer = std::mem::take(&mut self.scratch.steer);
                steer.clear();
                self.inst_versions(ctx, &ports[0], op, iter, &mut steer);
                let start = out.len();
                for &((sop, siter), gs) in &steer {
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
                self.scratch.steer = steer;
                self.merge_from(out, start);
            }
            other => panic!("copy_versions on non-pass-through {other}"),
        }
    }

    /// Appends to `out` the versions of one input port of `consumer` at
    /// `iter`, following the port's wire / loop-carried / loop-exit
    /// semantics.
    pub fn port_versions(
        &mut self,
        ctx: &Ctx,
        port: &PortKind,
        consumer: OpId,
        iter: &[u32],
        out: &mut Vec<(ValSrc, Guard)>,
    ) {
        match *port {
            PortKind::Wire(src) => {
                let slen = self.g.op(src).loop_path().len();
                self.value_versions(ctx, src, &iter[..slen], out)
            }
            PortKind::Carried { lp, src, init } => {
                let d = depth_of(self.g, consumer, lp);
                let k = iter[d];
                if k == 0 {
                    let ilen = self.g.op(init).loop_path().len();
                    self.value_versions(ctx, init, &iter[..ilen], out)
                } else {
                    // A loop-invariant carried source (an in-loop
                    // assignment that resolved to an outer producer)
                    // has no iteration axis to step back along: read
                    // it at its own, shorter frame.
                    let prev = previous_iteration(self.g, src, iter, d);
                    self.value_versions(ctx, src, &prev, out)
                }
            }
            PortKind::Exit { lp, src, init } => {
                let cond = self.g.loop_info(lp).cond();
                // The *loop's* nesting depth anchors the outer-iteration
                // prefix (via its condition op, which always sits inside
                // the loop). The exit source may live outside the loop
                // entirely — a loop-invariant assignment like `b = x`
                // resolves to the outer producer — so its own frame can
                // be shorter; reads below truncate to it.
                let base = exit_base(self.g, cond, iter);
                let slen = self.g.op(src).loop_path().len();
                let start = out.len();
                // Exit before the first iteration: the initial value,
                // valid when c_0 is false.
                let ilen = self.g.op(init).loop_path().len();
                let exit0 = {
                    let mut ci = base;
                    ci.push(0);
                    self.lit(ctx, cond, &ci, false)
                };
                if !exit0.is_false() {
                    let from = out.len();
                    self.value_versions(ctx, init, &base[..ilen.min(base.len())], out);
                    self.and_from(out, from, exit0);
                }
                // Exit after iteration j: src@j, valid when c_{j+1} is
                // false (src@j's own guard carries the continuation
                // chain up to c_j).
                let h = ctx.horizon.get(&(lp, base)).copied().unwrap_or(0);
                for j in 0..=h {
                    let mut si = base;
                    si.push(j);
                    // A loop-invariant source reads at its own (outer)
                    // frame — the same versions for every exit arm; the
                    // per-j exit guards OR together in the merge.
                    let from = out.len();
                    self.value_versions(ctx, src, &si[..slen.min(si.len())], out);
                    if out.len() == from {
                        continue;
                    }
                    // Exit after iteration j: the loop must have continued
                    // through iterations 0..=j and stopped at j+1. The
                    // explicit chain matters when the value short-circuits
                    // through selects to a loop-invariant source whose own
                    // guard carries no continuation history.
                    let mut ci = base;
                    ci.push(j + 1);
                    let mut exit_g = self.lit(ctx, cond, &ci, false);
                    exit_g = self.chain(ctx, exit_g, cond, &si, base.len(), 0..=j);
                    if exit_g.is_false() {
                        out.truncate(from);
                        continue;
                    }
                    self.and_from(out, from, exit_g);
                }
                self.merge_from(out, start);
            }
        }
    }

    /// Resolves a port *structurally* to the operation instances that
    /// could produce its value, with the guards selecting among them —
    /// without requiring any value version to exist yet — appending them
    /// to `out`. Used for select steering, where only the condition's
    /// *identity* matters.
    pub fn inst_versions(
        &mut self,
        ctx: &Ctx,
        port: &PortKind,
        consumer: OpId,
        iter: &[u32],
        out: &mut Vec<((OpId, Iter), Guard)>,
    ) {
        match *port {
            PortKind::Wire(src) => {
                let slen = self.g.op(src).loop_path().len();
                self.inst_of(ctx, src, &iter[..slen], out)
            }
            PortKind::Carried { lp, src, init } => {
                let d = depth_of(self.g, consumer, lp);
                let k = iter[d];
                if k == 0 {
                    let ilen = self.g.op(init).loop_path().len();
                    self.inst_of(ctx, init, &iter[..ilen], out)
                } else {
                    // Loop-invariant sources have no iteration axis;
                    // see `port_versions`.
                    let prev = previous_iteration(self.g, src, iter, d);
                    self.inst_of(ctx, src, &prev, out)
                }
            }
            PortKind::Exit { lp, src, init } => {
                let cond = self.g.loop_info(lp).cond();
                // As in `port_versions`: anchor on the loop's depth, not
                // the source's — a loop-invariant source sits outside.
                let base = exit_base(self.g, cond, iter);
                let slen = self.g.op(src).loop_path().len();
                let ilen = self.g.op(init).loop_path().len();
                let exit0 = {
                    let mut ci = base;
                    ci.push(0);
                    self.lit(ctx, cond, &ci, false)
                };
                if !exit0.is_false() {
                    let from = out.len();
                    self.inst_of(ctx, init, &base[..ilen.min(base.len())], out);
                    self.and_from(out, from, exit0);
                }
                let h = ctx.horizon.get(&(lp, base)).copied().unwrap_or(0);
                for j in 0..=h {
                    let mut si = base;
                    si.push(j);
                    let mut ci = base;
                    ci.push(j + 1);
                    let mut exit_g = self.lit(ctx, cond, &ci, false);
                    exit_g = self.chain(ctx, exit_g, cond, &si, base.len(), 0..=j);
                    if exit_g.is_false() {
                        continue;
                    }
                    let from = out.len();
                    self.inst_of(ctx, src, &si[..slen.min(si.len())], out);
                    self.and_from(out, from, exit_g);
                }
            }
        }
    }

    /// Structural instance resolution of an op, appended to `out`:
    /// pass-throughs forward, selects fan out by their steering literal,
    /// everything else is itself.
    fn inst_of(&mut self, ctx: &Ctx, op: OpId, iter: &[u32], out: &mut Vec<((OpId, Iter), Guard)>) {
        let g = self.g;
        match g.op(op).kind() {
            OpKind::Pass => self.inst_versions(ctx, &g.op(op).ports()[0], op, iter, out),
            OpKind::Select => {
                let ports = g.op(op).ports();
                // The steering instances go to the end of `out` and are
                // removed once both sides have been appended after them.
                let steer_start = out.len();
                self.inst_versions(ctx, &ports[0], op, iter, out);
                let steer_end = out.len();
                for si in steer_start..steer_end {
                    let ((sop, siter), gs) = out[si];
                    match g.op(sop).kind() {
                        OpKind::Const(v) => {
                            let side = if v != 0 { &ports[1] } else { &ports[2] };
                            let from = out.len();
                            self.inst_versions(ctx, side, op, iter, out);
                            self.and_from(out, from, gs);
                        }
                        _ => {
                            for (side, pol) in [(&ports[1], true), (&ports[2], false)] {
                                let lit = self.lit(ctx, sop, &siter, pol);
                                let gsl = self.mgr.and(gs, lit);
                                if gsl.is_false() {
                                    continue;
                                }
                                let from = out.len();
                                self.inst_versions(ctx, side, op, iter, out);
                                self.and_from(out, from, gsl);
                            }
                        }
                    }
                }
                out.drain(steer_start..steer_end);
            }
            _ => out.push(((op, Iter::from_slice(iter)), Guard::TRUE)),
        }
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
        match *port {
            PortKind::Wire(src) => {
                let slen = self.g.op(src).loop_path().len();
                self.settled(ctx, src, &iter[..slen])
            }
            PortKind::Carried { lp, src, init } => {
                let d = depth_of(self.g, consumer, lp);
                let k = iter[d];
                if k == 0 {
                    let ilen = self.g.op(init).loop_path().len();
                    self.settled(ctx, init, &iter[..ilen])
                } else {
                    // Loop-invariant sources have no iteration axis;
                    // see `port_versions`.
                    let prev = previous_iteration(self.g, src, iter, d);
                    self.settled(ctx, src, &prev)
                }
            }
            PortKind::Exit { lp, src, .. } => {
                // Ordered after the loop's accesses: settled only when
                // the loop has exited on this path (the exit consumer's
                // own guard handles which iteration); conservatively
                // require the last *instantiated* iteration's access to
                // be settled. The prefix is anchored on the loop's own
                // depth; a loop-invariant source settles at its outer
                // frame.
                let cond = self.g.loop_info(lp).cond();
                let base = exit_base(self.g, cond, iter);
                let slen = self.g.op(src).loop_path().len();
                let h = ctx.horizon.get(&(lp, base)).copied().unwrap_or(0);
                let mut si = base;
                si.push(h);
                self.settled(ctx, src, &si[..slen.min(si.len())])
            }
        }
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
                    if self.loop_exited(ctx, lp, iter) && ctx.exit_pending.get(&inst) != Some(&tok)
                    {
                        ctx.exit_pending_mut().insert(inst, tok);
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
            if let Some((k, _)) = ctx.avail.range(Key::version_range(inst)).next() {
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
    /// the horizon already resolved *false*? Reads only already-interned
    /// condition instances (`it.get`, never `it.id`/`ct.var`): discharge
    /// probing must not allocate BDD variables, or equivalent contexts
    /// would diverge in variable order.
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

    /// Attempts to build candidates for instance `(op, iter)`: the
    /// cartesian product of its ports' version sets, each with the
    /// Lemma-1 conjunction guard. New candidates are deduplicated
    /// against the instance's existing candidates and issued versions
    /// and appended to `ctx.cands`. Returns how many were added. Works
    /// in the engine-owned [`GenScratch`], so a generation that adds
    /// nothing allocates nothing.
    pub fn gen_candidates(
        &mut self,
        ctx: &mut Ctx,
        op: OpId,
        iter: &[u32],
        max_versions: usize,
        max_depth: usize,
    ) -> usize {
        let g = self.g;
        let kind = g.op(op).kind();
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
        let added = if kind.is_pass_through() {
            self.gen_copies(
                ctx,
                op,
                iter,
                inst,
                ctrl,
                max_versions,
                max_depth,
                &mut bufs,
            )
        } else {
            self.gen_ops(
                ctx,
                op,
                iter,
                inst,
                ctrl,
                max_versions,
                max_depth,
                &mut bufs,
            )
        };
        self.scratch.gen = bufs;
        added
    }

    /// [`Self::gen_candidates`] for a pass-through: one copy candidate
    /// per resolvable source version. The issued copy is the fresh
    /// per-iteration name of the merged variable (a register transfer).
    #[allow(clippy::too_many_arguments)]
    fn gen_copies(
        &mut self,
        ctx: &mut Ctx,
        op: OpId,
        iter: &[u32],
        inst: InstId,
        ctrl: Guard,
        max_versions: usize,
        max_depth: usize,
        bufs: &mut GenBufs,
    ) -> usize {
        let GenBufs { versions, mine, .. } = bufs;
        versions.clear();
        self.copy_versions(ctx, op, iter, versions);
        same_inst(ctx, inst, mine);
        let avail_cnt = ctx.avail.range(Key::version_range(inst)).count();
        let mut added = 0;
        for &(v, gv) in versions.iter() {
            let guard = self.mgr.and(ctrl, gv);
            if guard.is_false() || self.mgr.support_len(guard) > max_depth {
                continue;
            }
            let operands = Operands::from_slice(&[v]);
            // Scan first: widening only writes through the context's
            // copy-on-write candidate list when the guard changes.
            if let Some(&i) = mine.iter().find(|&&i| ctx.cands[i].operands == operands) {
                let widened = self.mgr.or(ctx.cands[i].guard, guard);
                if widened != ctx.cands[i].guard {
                    ctx.cands_mut()[i].guard = widened;
                    self.events.push(CandEvent::Widened(i));
                    added += 1;
                }
                continue;
            }
            let issued = ctx
                .avail
                .range(Key::version_range(inst))
                .any(|(_, info)| info.operands == operands);
            if issued {
                continue;
            }
            if avail_cnt + mine.len() >= max_versions {
                break;
            }
            ctx.cands_mut().push(Candidate {
                inst,
                operands,
                tokens: Vec::new(),
                guard,
            });
            mine.push(ctx.cands.len() - 1);
            self.events.push(CandEvent::Added(ctx.cands.len() - 1));
            added += 1;
        }
        added
    }

    /// [`Self::gen_candidates`] for an operation that computes.
    #[allow(clippy::too_many_arguments)]
    fn gen_ops(
        &mut self,
        ctx: &mut Ctx,
        op: OpId,
        iter: &[u32],
        inst: InstId,
        ctrl: Guard,
        max_versions: usize,
        max_depth: usize,
        bufs: &mut GenBufs,
    ) -> usize {
        let g = self.g;
        let GenBufs {
            versions,
            combos,
            next,
            mine,
            tokens,
        } = bufs;
        // Resolve ordering tokens first; unsettled ordering defers the
        // whole instance.
        tokens.clear();
        for p in g.op(op).order_deps() {
            match self.token(ctx, p, op, iter) {
                Ok(t) => tokens.push(t),
                Err(()) => return 0,
            }
        }
        combos.clear();
        combos.push((Operands::new(), ctrl));
        for p in g.op(op).ports() {
            versions.clear();
            self.port_versions(ctx, p, op, iter, versions);
            if versions.is_empty() {
                return 0;
            }
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
                return 0;
            }
            combos.truncate(64);
        }
        // One scan instead of per-combo scans: the candidate list can be
        // long, but only same-instance entries matter for dedup, widen,
        // and version counting. Indices are into `ctx.cands` (event
        // consumers rely on that), and freshly pushed candidates join
        // the index so later combos observe them exactly as a rescanning
        // loop would.
        same_inst(ctx, inst, mine);
        let existing = ctx.avail.range(Key::version_range(inst)).count() + mine.len();
        let mut added = 0;
        for &(operands, guard) in combos.iter() {
            // Bounding candidate creation (not just issue) by the
            // speculation depth keeps the unrolling horizon finite:
            // deeper iterations' continuation chains exceed the depth
            // until earlier conditions resolve.
            if self.mgr.support_len(guard) > max_depth {
                continue;
            }
            // An existing candidate with the same operand choice absorbs
            // the new guard (a new exit iteration opening widens the
            // condition under which this choice is the right one).
            if let Some(&i) = mine.iter().find(|&&i| ctx.cands[i].operands == operands) {
                // A candidate pinning a token key that was invalidated
                // (mis-speculated predecessor version dropped by
                // cofactoring) can never issue; adopt the freshly
                // settled tokens instead of deadlocking on the dead key.
                let stale = ctx.cands[i]
                    .tokens
                    .iter()
                    .flatten()
                    .any(|t| !ctx.avail.contains_key(t));
                if stale && ctx.cands[i].tokens != *tokens {
                    ctx.cands_mut()[i].tokens.clone_from(tokens);
                    self.events.push(CandEvent::Retokened(i));
                    added += 1;
                }
                let widened = self.mgr.or(ctx.cands[i].guard, guard);
                if widened != ctx.cands[i].guard {
                    ctx.cands_mut()[i].guard = widened;
                    self.events.push(CandEvent::Widened(i));
                    added += 1;
                }
                continue;
            }
            // Already issued with this exact operand choice? Never
            // re-execute.
            let issued = ctx
                .avail
                .range(Key::version_range(inst))
                .any(|(_, info)| info.operands == operands);
            if issued {
                continue;
            }
            if existing + added >= max_versions {
                break;
            }
            ctx.cands_mut().push(Candidate {
                inst,
                operands,
                tokens: tokens.clone(),
                guard,
            });
            mine.push(ctx.cands.len() - 1);
            self.events.push(CandEvent::Added(ctx.cands.len() - 1));
            added += 1;
        }
        added
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

/// The frame a loop-carried read of `src` looks at one iteration back:
/// `iter` truncated to `src`'s own loop depth, with the carrying loop's
/// index (`d`, which must be ≥ 1 in `iter`) decremented when `src` still
/// has that axis. A loop-invariant source has none and reads its outer
/// frame unchanged.
fn previous_iteration(g: &Cdfg, src: OpId, iter: &[u32], d: usize) -> Iter {
    let slen = g.op(src).loop_path().len();
    let mut prev = Iter::from_slice(&iter[..slen.min(iter.len())]);
    if d < prev.len() {
        prev[d] = iter[d] - 1;
    }
    prev
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

    /// Merges duplicate sources of `out[from..]` into their first
    /// occurrence by OR-ing their guards (both sides of a select fed by
    /// the same producer, or an exit view whose init equals an early
    /// body value).
    fn merge_from(&mut self, out: &mut Vec<(ValSrc, Guard)>, from: usize) {
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
    use crate::ctx::CondTable;
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

    fn res_env(g: &Cdfg) -> (Tables, BddManager, CondTable, InstTable) {
        (
            Tables::new(g),
            BddManager::new(),
            CondTable::default(),
            InstTable::default(),
        )
    }

    /// Resolves a support set back to `(op, iter)` content for
    /// assertions.
    fn support_insts(r: &mut Res<'_>, gd: Guard) -> Vec<(OpId, Vec<u32>)> {
        r.mgr
            .support(gd)
            .iter()
            .map(|c| {
                let (op, iter) = r.it.pair(r.ct.inst_of(*c));
                (op, iter.to_vec())
            })
            .collect()
    }

    #[test]
    fn ctrl_guard_builds_full_continuation_chain() {
        let (g, cont, _branch, sum) = branchy_loop();
        let (tables, mut mgr, mut ct, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let ctx = Ctx::default();
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            ct: &mut ct,
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
        let (tables, mut mgr, mut ct, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        let lp = g.loops()[0].id();
        ctx.floor_mut().insert((lp, Iter::new()), 2); // c@0, c@1 known true
        let c2 = it.id(cont, &[2]);
        ctx.resolved_mut().insert(c2, true);
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            ct: &mut ct,
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
        ctx.resolved_mut().insert(c2, false);
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
        let (tables, mut mgr, mut ct, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        // Issue only the true-side add at iteration 0 so one side of the
        // select has a value; the steering Gt is entirely unscheduled.
        let sum0 = it.id(sum, &[0]);
        ctx.avail_mut().insert(
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
            ct: &mut ct,
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
        let (tables, mut mgr, mut ct, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        let lp = g.loops()[0].id();
        ctx.horizon_mut().insert((lp, Iter::new()), 1);
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            ct: &mut ct,
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
        let (tables, mut mgr, mut ct, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            ct: &mut ct,
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
        let (tables, mut mgr, mut ct, mut it) = res_env(&g);
        let mut memo = GuardMemo::default();
        let mut events = Vec::new();
        let mut scratch = GenScratch::default();
        let mut ctx = Ctx::default();
        let inc1 = it.id(inc, &[1]);
        let mut r = Res {
            g: &g,
            tables: &tables,
            mgr: &mut mgr,
            ct: &mut ct,
            it: &mut it,
            memo: &mut memo,
            events: &mut events,
            scratch: &mut scratch,
        };
        // Iteration 0 increments are within any cap...
        assert_eq!(r.gen_candidates(&mut ctx, inc, &[0], 4, 1), 1);
        // ...but iteration 2 needs a 3-condition chain plus operand
        // availability; even with values present, a cap of 1 blocks it.
        ctx.avail_mut().insert(
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
}
