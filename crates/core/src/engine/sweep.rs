//! The incremental candidate sweep and the events that mark what it
//! must regenerate.

use super::*;

impl Engine<'_> {
    /// Records a change to `op`'s context entries that every direct
    /// consumer can observe anywhere in its window (a gc drop, a
    /// discharge promotion or prune).
    pub(super) fn mark_op_changed(&mut self, ctx: &mut Ctx, op: OpId) {
        mark_whole(&mut self.faults, ctx, &self.tables.consumers[op.index()]);
    }

    /// Records a prune of loop `l`'s horizon, floor or work floor: every
    /// op whose generation reads that loop's bookkeeping must
    /// re-generate.
    pub(super) fn mark_loop_changed(&mut self, ctx: &mut Ctx, l: LoopId) {
        mark_whole(&mut self.faults, ctx, &self.tables.loop_readers[l.index()]);
    }

    /// Records a horizon bump of loop `l`. Only readers outside `l` read
    /// its horizon; readers inside get their new pairs from window
    /// growth.
    fn mark_horizon(&mut self, ctx: &mut Ctx, l: LoopId) {
        mark_whole(
            &mut self.faults,
            ctx,
            &self.tables.horizon_readers[l.index()],
        );
    }

    /// Records a pruned resolution of conditional op `cond`: the
    /// condition's literal is free again, so every op whose guards,
    /// chains or steering can reference it must re-generate.
    pub(super) fn mark_cond_changed(&mut self, ctx: &mut Ctx, cond: OpId) {
        mark_whole(
            &mut self.faults,
            ctx,
            &self.tables.cond_readers[cond.index()],
        );
    }

    /// Records the issue of `(op, iter)` (a new `avail` version, and
    /// possibly a `done` entry and dropped candidates of the instance).
    /// A consumer sharing `k ≥ 1` loops with `op` reads the instance
    /// through a wire or a carried edge only at pairs whose shared
    /// indices are each `iter[d]` or `iter[d] + 1`; consumers with order
    /// deps, whose token walks reach further, and consumers sharing no
    /// loop are marked whole.
    pub(super) fn mark_issued(&mut self, ctx: &mut Ctx, op: OpId, iter: &[u32]) {
        if drop_sweep_event(&mut self.faults, self.tables.consumers[op.index()].len()) {
            return;
        }
        let g = self.g;
        let path = g.op(op).loop_path();
        for &c in &self.tables.consumers[op.index()] {
            let cop = g.op(c);
            let k = shared_loops(path, cop.loop_path());
            if k == 0 || !cop.order_deps().is_empty() {
                ctx.sweep_dirty.insert(c);
            } else {
                let m = PairMark::Near(Iter::from_slice(&iter[..k]));
                push_pair(ctx, &mut self.pair_marks, c, m);
            }
        }
    }

    /// Records the resolution of condition instance `cond@ci` (a
    /// cofactoring event). A reader sharing `k ≥ 1` loops with `cond`
    /// can mention the instance only at pairs whose first `k` indices
    /// are lexicographically at least `ci[..k]`: guards reference
    /// conditions at or before their own iteration. Readers sharing no
    /// loop are marked whole.
    pub(super) fn mark_resolved(&mut self, ctx: &mut Ctx, cond: OpId, ci: &[u32]) {
        if drop_sweep_event(
            &mut self.faults,
            self.tables.cond_readers[cond.index()].len(),
        ) {
            return;
        }
        let g = self.g;
        let path = g.op(cond).loop_path();
        for &r in &self.tables.cond_readers[cond.index()] {
            let k = shared_loops(path, g.op(r).loop_path());
            if k == 0 {
                ctx.sweep_dirty.insert(r);
            } else {
                let m = PairMark::From(Iter::from_slice(&ci[..k]));
                push_pair(ctx, &mut self.pair_marks, r, m);
            }
        }
    }

    /// Marks every schedulable op dirty — the cold-start event for a
    /// fresh root context (and the reference mode's per-pass reset).
    pub(super) fn mark_all(&self, ctx: &mut Ctx) {
        for op in self.g.ops() {
            if self.tables.useful[op.id().index()] && !op.kind().is_source() {
                ctx.sweep_dirty.insert(op.id());
            }
        }
    }

    /// One sweep pass: drains the context's whole-op marks and the
    /// engine's narrowed marks, then re-generates, in op order, every
    /// pair of each marked op's window in `domain` that a mark covers
    /// (`iters` is scratch). Each generation that adds candidates widens
    /// the carried window and notes its iteration. Returns the number of
    /// candidates added.
    fn sweep_pass(
        &mut self,
        ctx: &mut Ctx,
        domain: &Domain,
        iters: &mut Vec<Iter>,
    ) -> Result<usize, SchedError> {
        let cfg = self.cfg;
        let mut marks = std::mem::take(&mut self.pair_marks);
        if !ctx.sweep_dirty.is_empty() {
            marks.extend(ctx.sweep_dirty.iter().map(|&op| (op, PairMark::All)));
            ctx.sweep_dirty.clear();
        }
        marks.sort_unstable_by_key(|&(op, _)| op);
        let mut added = 0usize;
        for op_marks in marks.chunk_by(|a, b| a.0 == b.0) {
            let opid = op_marks[0].0;
            if !self.tables.useful[opid.index()] || self.g.op(opid).kind().is_source() {
                continue;
            }
            let whole = op_marks.iter().any(|(_, m)| *m == PairMark::All);
            enumerate_iters(self.g, opid, domain, ctx, iters)?;
            for iter in iters.iter() {
                if !whole && !op_marks.iter().any(|(_, m)| m.covers(iter)) {
                    continue;
                }
                self.stats.gen_calls += 1;
                let ev0 = self.events.len();
                let n = self.res().gen_candidates(
                    ctx,
                    opid,
                    iter,
                    cfg.max_versions,
                    cfg.max_spec_depth,
                );
                if n > 0 {
                    added += n;
                    self.widen_window(ctx, opid, iter, ev0);
                    self.note_iteration(ctx, opid, iter);
                }
            }
        }
        // A generation records no narrowed mark (its own instance is the
        // only reader of what it writes, and a repeat call adds nothing),
        // so the pass has drained every mark.
        debug_assert!(self.pair_marks.is_empty());
        marks.clear();
        self.pair_marks = marks;
        Ok(added)
    }

    /// Generates candidates over the live iteration domain; bumps
    /// horizons and instantiates newly reachable obligations.
    ///
    /// The sweep is *incremental*: instead of re-running every op's
    /// generator each pass, it drains the context's sweep marks — fed by
    /// issue, horizon, cofactor, discharge, gc and domain-growth
    /// events — and re-generates only the marked pairs. A
    /// pass that generates nothing and leaves no mark (after re-checking
    /// the domain) is the fixpoint. With
    /// [`SchedConfig::reference_sweep`] set, every pass re-marks all
    /// ops, reproducing the reference regenerate-everything sweep.
    pub(super) fn sweep(&mut self, ctx: &mut Ctx) -> Result<(), SchedError> {
        // The domain depends on `avail`, the candidate list, obligations,
        // horizons, and work floors. Mid-sweep, all of those mutate only
        // under a generator's `n > 0` path, so passes that generated
        // nothing reuse the previous pass's domain verbatim.
        let mut domain = self.swept_domain(ctx);
        let mut iters = std::mem::take(&mut self.iter_buf);
        loop {
            if self.cfg.reference_sweep {
                self.mark_all(ctx);
            }
            if ctx.sweep_dirty.is_empty() && self.pair_marks.is_empty() {
                break;
            }
            let added = self.sweep_pass(ctx, &domain, &mut iters)?;
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
            let added = self.sweep_pass(ctx, &domain, &mut iters)?;
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
        self.iter_buf = iters;
        self.recycle_domain(domain);
        Ok(())
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
            if ctx.horizon.get(&(l, prefix)).is_some_and(|&h| k <= h) {
                continue;
            }
            // A missing entry is materialized even at index 0 (the
            // horizon map's key set is signature-visible), but index 0's
            // obligations come from the enclosing level's opening (or
            // the root context).
            ctx.horizon.insert((l, prefix), k);
            self.mark_horizon(ctx, l);
            if k == 0 {
                continue;
            }
            // Newly opened iteration: instantiate the obligations of
            // every effectful op directly inside this loop level (deeper
            // levels open through their own horizon bumps at index 0).
            for ei in 0..self.tables.effects.len() {
                let e = self.tables.effects[ei];
                let epath = g.op(e).loop_path();
                if epath.len() <= d || epath[d] != l || epath[..d] != path[..d] {
                    continue;
                }
                let mut eiter = prefix;
                eiter.push(k);
                eiter.extend(std::iter::repeat_n(0, epath.len() - d - 1));
                let mut r = self.res();
                if r.it.get(e, &eiter).is_some_and(|i| ctx.done.contains(&i)) {
                    continue;
                }
                let guard = r.ctrl_guard(ctx, e, &eiter);
                if !guard.is_false() {
                    let einst = r.it.id(e, &eiter);
                    if !ctx.obligations.contains_key(&einst) {
                        ctx.obligations.insert(einst, guard);
                        note_span(&mut self.window.spans, g, e, &eiter);
                    }
                }
            }
        }
    }
}

/// Whether the [`Probe::DropSweepEvent`] fault fires for the current
/// sweep event of `n` mark insertions (always false without an armed
/// plan). Counts the dropped insertions when it does.
pub(super) fn drop_sweep_event(faults: &mut Option<FaultState>, n: usize) -> bool {
    if let Some(f) = faults {
        if f.fire(Probe::DropSweepEvent) {
            f.stats.dropped_events += n.saturating_sub(1) as u64;
            return true;
        }
    }
    false
}

/// One sweep event marking every op of `readers` whole.
fn mark_whole(faults: &mut Option<FaultState>, ctx: &mut Ctx, readers: &[OpId]) {
    if readers.is_empty() || drop_sweep_event(faults, readers.len()) {
        return;
    }
    for &p in readers {
        ctx.sweep_dirty.insert(p);
    }
}

/// Records the narrowed mark `m` for `op`, unless `ctx` already marks
/// the op whole.
pub(super) fn push_pair(ctx: &Ctx, marks: &mut Vec<(OpId, PairMark)>, op: OpId, m: PairMark) {
    if !ctx.sweep_dirty.contains(&op) {
        marks.push((op, m));
    }
}

/// The number of loops two ops share: the common prefix of their loop
/// paths (outermost first).
fn shared_loops(a: &[LoopId], b: &[LoopId]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}
