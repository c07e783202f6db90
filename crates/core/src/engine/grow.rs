//! Growing one state (Fig. 12 step 2): criticality-ordered selection,
//! the feasibility checks and the issue of a candidate.

use super::*;

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
pub(super) enum Reject {
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

impl Engine<'_> {
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
    pub(super) fn grow_state(&mut self, sid: StateId, ctx: &mut Ctx) -> Result<(), SchedError> {
        let mut issued: FxHashSet<Key> = FxHashSet::default();
        let mut class_use: FxHashMap<FuClass, u32> = FxHashMap::default();
        // `resolved` and the floors are frozen while a state grows:
        // this opens a fresh guard-memo validity window. The context is
        // new to the engine, so its swept window is built afresh.
        self.memo.clear();
        self.window.valid = false;
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
            self.issue(ctx, idx, start, &mut issued, &mut class_use);
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
                        CandEvent::Added(i) => self.ready_insert(&mut ready, ctx, i),
                        CandEvent::Widened(i) => {
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
                        CandEvent::Retokened(_) => {}
                    }
                }
                self.events = events;
            }
        }
        // Stall / deadlock detection: an empty state must be waiting on
        // something that advances with time.
        if self.ops_buf.is_empty() {
            let waiting = ctx.avail.values().any(|i| i.ready_in > 0)
                || !ctx.pending_conds.is_empty()
                || ctx.fu_busy.values().any(|v| !v.is_empty());
            if !waiting && !ctx.obligations.is_empty() {
                return Err(SchedError::Stuck(self.stuck_report(ctx)));
            }
        }
        // The STG outlives the run: store the ops without growth slack.
        self.stg.state_mut(sid).ops = self.ops_buf.as_slice().to_vec();
        self.ops_buf.clear();
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
    pub(super) fn feasible(
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

    /// Renders a guard as a sum of products over named condition
    /// instances (`name_iter0_iter1` literals).
    pub(super) fn guard_sop(&mut self, gd: Guard) -> String {
        let it = &self.it;
        let g = self.g;
        self.mgr.to_sop_string(gd, &|c| {
            let (op, iter) = it.pair(InstId::of(c));
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
            let op = self.it.op(InstId::of(c));
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
            let op = self.it.op(InstId::of(c));
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

    pub(super) fn issue(
        &mut self,
        ctx: &mut Ctx,
        idx: usize,
        start: f64,
        issued: &mut FxHashSet<Key>,
        class_use: &mut FxHashMap<FuClass, u32>,
    ) {
        let cand = ctx.cands.remove(idx);
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
            .versions(cand.inst)
            .iter()
            .map(|(k, _)| k.version + 1)
            .max()
            .unwrap_or(0);
        let key = Key::new(cand.inst, version);
        ctx.avail.insert(
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
                ctx.fu_busy
                    .get_or_insert_with(class, Vec::new)
                    .push(s.latency);
            }
        }
        if kind.has_side_effect() {
            ctx.obligations.remove(&cand.inst);
        }
        if cand.guard.is_true() {
            ctx.done.insert(cand.inst);
            let before = ctx.cands.len();
            ctx.cands.retain(|c| c.inst != cand.inst);
            // The dropped candidates' guards leave the context.
            if ctx.cands.len() < before {
                self.window.oldest_valid = false;
            }
        }
        if self.g.op(op).is_conditional() {
            ctx.pending_conds.push((key, cand.guard, latency.max(1)));
        }
        // The rendered SOP is a pure function of the (hash-consed)
        // guard, and steady-state schedules issue under the same few
        // guards over and over — render and intern each guard once.
        let guard = match self.sop_memo.get(&cand.guard) {
            Some(&i) => i,
            None => {
                let s = self.guard_sop(cand.guard);
                let i = self.stg.intern_guard(&s);
                self.sop_memo.insert(cand.guard, i);
                i
            }
        };
        let mut args = [Arg::Const(0); MAX_ARGS];
        for (a, v) in args.iter_mut().zip(&cand.operands) {
            *a = match *v {
                ValSrc::Const(c) => Arg::Const(c),
                ValSrc::Input(i) => Arg::Input(i),
                ValSrc::Key(k) => Arg::Slot(self.slot(k)),
            };
        }
        let dest = self.slot(key);
        let sop = ScheduledOp::new(dest, &args[..cand.operands.len()], latency, guard)
            .expect("operand lists hold at most MAX_ARGS sources");
        self.ops_buf.push(sop);
        self.stats.issues += 1;
        let iter = *self.it.iter_of(cand.inst);
        self.mark_issued(ctx, op, &iter);
    }
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
