//! Garbage collection of dead value versions and of loop bookkeeping
//! below the live window.

use super::*;

impl Engine<'_> {
    /// Containment audit for the gc-storm fault: re-runs the
    /// mark-and-sweep prune after the normal pass and verifies the
    /// context is unchanged, field by field — pruning must be
    /// idempotent, so a redundant storm of prune passes is byte-neutral.
    /// A changed context means gc dropped live state and the run aborts.
    pub(super) fn gc_storm_check(&mut self, ctx: &mut Ctx) -> Result<(), SchedError> {
        if !self.faults.as_mut().is_some_and(|f| f.fire(Probe::GcStorm)) {
            return Ok(());
        }
        let before = ctx.clone();
        self.gc(ctx)?;
        if *ctx != before {
            return Err(SchedError::Internal {
                context: "gc-storm audit: prune pass is not idempotent".to_string(),
            });
        }
        Ok(())
    }

    /// Mark-and-sweep garbage collection of value versions no remaining
    /// consumer (present or future) can reference, plus pruning of
    /// per-iteration bookkeeping below the live window. Without this,
    /// steady-state loop contexts would never fold.
    pub(super) fn gc(&mut self, ctx: &mut Ctx) -> Result<(), SchedError> {
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
        // find, so the port walks can stop. One caveat keeps the
        // shortcut invisible: `token()` can record a provable exit
        // settlement as a side effect, so ops with order deps are still
        // visited in their original position. The branch sweep that
        // precedes gc leaves the context's window carried; gc's own
        // writes end its validity.
        let domain = self.window_domain(ctx);
        self.window.valid = false;
        let g = self.g;
        let mut iters = std::mem::take(&mut self.iter_buf);
        let mut versions = std::mem::take(&mut self.gc_versions);
        for op in g.ops() {
            if !self.tables.useful[op.id().index()] || op.kind().is_source() {
                continue;
            }
            let has_order = !op.order_deps().is_empty();
            if unmarked == 0 && !has_order {
                continue;
            }
            enumerate_iters(g, op.id(), &domain, ctx, &mut iters)?;
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
                self.stats.gc_visits += 1;
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
            ctx.avail.retain(|_, _| {
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
        for (info, &dead) in ctx.avail.values_mut().zip(&marks) {
            if dead {
                info.operands.clear();
            }
        }
        self.gc_marks = marks;

        // Advance work floors: iteration w of a loop context is complete
        // when every direct member's instance at w is executed or
        // control-dead (nested loops are covered by their materialized
        // exit passes, themselves direct members).
        // An index walk: the loop body reads the context through
        // `ctrl_guard` and writes only work floors, never `horizon`.
        for hi in 0..ctx.horizon.len() {
            let ((l, prefix), horizon) = ctx.horizon.as_slice()[hi];
            let d = prefix.len();
            let mut wf = ctx.work_floor.get(&(l, prefix)).copied().unwrap_or(0);
            'advance: while wf <= horizon {
                for &m in g.loop_info(l).members() {
                    let mop = g.op(m);
                    if mop.loop_path().len() != d + 1
                        || mop.kind().is_source()
                        || !self.tables.useful[m.index()]
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
            // is written even at value 0.
            ctx.work_floor.insert((l, prefix), wf);
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
        // Each pruned entry's op is collected for its sweep mark.
        let prune = |i: &InstId, dead: &mut Vec<OpId>| {
            let gone = below(i);
            if gone {
                dead.push(it.op(*i));
            }
            !gone
        };
        let (mut dead_resolved, mut dead_discharged) = (Vec::new(), Vec::new());
        ctx.resolved.retain(|i, _| prune(i, &mut dead_resolved));
        // A pruned done entry needs no mark: only its own instance's
        // generator reads `done`, and the instance lies below the
        // window, so no sweep enumerates it again.
        ctx.done.retain(|i| !below(i));
        ctx.discharged.retain(|i| prune(i, &mut dead_discharged));
        // Un-recording a resolution resurrects the condition's literal
        // as a free variable: chains that collapsed to FALSE under the
        // old record become satisfiable again, so every guard that can
        // reference the condition must re-generate.
        for op in dead_resolved {
            self.mark_cond_changed(ctx, op);
        }
        // Discharge records feed `token()` settlement: dropping one
        // changes what the exit pass's order consumers (and the pass
        // itself) observe on the next generation.
        for op in dead_discharged {
            self.mark_op_changed(ctx, op);
        }
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
            for l in &self.tables.loops_needed[op.index()] {
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
            map.retain(|(l, p), _| {
                let kept = keep(l, p);
                if !kept {
                    pruned.insert(*l);
                }
                kept
            });
        }
        self.gc_loops = live_loops;
        self.recycle_domain(domain);
        for l in pruned {
            self.mark_loop_changed(ctx, l);
        }
        Ok(())
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
