//! The swept window: the live iteration domain per loop context,
//! carried across the sweeps of one context, and its enumeration.

use super::*;

/// A loop context: a loop and the iteration prefix of its enclosing
/// loops.
type LoopCtx = (LoopId, Iter);

/// Per-loop-context minimum condition iteration mentioned by a guard
/// (the lookahead cap's `oldest` contribution).
pub(super) type CapContrib = Vec<(LoopCtx, u32)>;

/// The candidate iteration window `(lo, hi)` per loop context.
pub(super) type Domain = VecMap<LoopCtx, (u32, u32)>;

/// Per loop context: the lowest and highest iteration noted, in a
/// small vector with linear lookup (see [`ctx_entry`]).
pub(super) type Spans = Vec<(LoopCtx, (u32, u32))>;

/// The swept window of the context being swept, carried across the
/// events of its sweeps instead of rebuilt at every sweep.
///
/// A sweep enumerates a pure function of the context: the span of its
/// live instance iterations (`avail` keys, candidates, obligations)
/// per loop context, widened by the horizons, lowered to the work
/// floors and capped by the lookahead, whose input is the oldest
/// condition iteration the `avail` and candidate guards mention. The
/// horizons and work floors are small maps, read afresh at each use;
/// the two scans over every entry of the context are what this carries:
/// - an issue turns a candidate into an `avail` key of the same
///   instance and moves its guard along, so it changes neither table,
///   unless a TRUE-guard issue drops other candidates of the instance:
///   their guards leave the context, so `oldest` is rebuilt;
/// - a productive generation widens both tables from its `Added`
///   candidates and the obligations `note_iteration` opens (the
///   horizons it bumps are read afresh anyway); a `Widened` guard can
///   lose support, so `oldest` is rebuilt;
/// - anything else that changes the context (a new context at state
///   entry, a branch's cofactors, gc) invalidates both.
///
/// In debug builds every use asserts the carried window equals a
/// from-scratch build.
#[derive(Debug, Default)]
pub(super) struct Window {
    /// Whether `spans` describes the context being swept.
    pub(super) valid: bool,
    /// The live instance iterations per loop context.
    pub(super) spans: Spans,
    /// Whether `oldest` describes the context being swept.
    pub(super) oldest_valid: bool,
    /// The oldest condition iteration per loop context that an `avail`
    /// or candidate guard mentions.
    pub(super) oldest: CapContrib,
}

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

impl Engine<'_> {
    /// The candidate window a sweep pass enumerates: the live domain
    /// under the lookahead cap, from the carried [`Window`]. Marks the
    /// readers of every loop whose window grew.
    pub(super) fn swept_domain(&mut self, ctx: &mut Ctx) -> Domain {
        let mut domain = self.window_domain(ctx);
        if !self.window.oldest_valid {
            let mut oldest = std::mem::take(&mut self.window.oldest);
            self.oldest_into(ctx, &mut oldest);
            self.window.oldest = oldest;
            self.window.oldest_valid = true;
        }
        #[cfg(debug_assertions)]
        {
            let mut fresh = Vec::new();
            self.oldest_into(ctx, &mut fresh);
            let mut carried = self.window.oldest.clone();
            fresh.sort_unstable();
            carried.sort_unstable();
            assert_eq!(carried, fresh, "the carried lookahead table diverged");
        }
        self.cap_lookahead(ctx, &mut domain);
        self.mark_domain_growth(ctx, &domain);
        domain
    }

    /// The live iteration window of `ctx` from the carried spans, which
    /// are built first (and counted) if they do not describe `ctx`.
    pub(super) fn window_domain(&mut self, ctx: &Ctx) -> Domain {
        if !self.window.valid {
            let mut spans = std::mem::take(&mut self.window.spans);
            self.instance_spans(ctx, &mut spans);
            self.window.spans = spans;
            self.window.valid = true;
            self.window.oldest_valid = false;
            self.stats.window_builds += 1;
        }
        let buf = self.domain_bufs.pop().unwrap_or_default();
        let domain = finish_domain(ctx, &self.window.spans, buf);
        #[cfg(debug_assertions)]
        {
            let fresh = self.iter_domain(ctx);
            assert_eq!(
                domain.as_slice(),
                fresh.as_slice(),
                "the carried window diverged from a rebuild"
            );
            self.recycle_domain(fresh);
        }
        domain
    }

    /// Widens the carried window by a productive generation of
    /// `(op, iter)` whose events start at `self.events[ev0]` (see
    /// [`Window`]).
    pub(super) fn widen_window(&mut self, ctx: &Ctx, op: OpId, iter: &[u32], ev0: usize) {
        for i in ev0..self.events.len() {
            match self.events[i] {
                CandEvent::Added(c) => {
                    note_span(&mut self.window.spans, self.g, op, iter);
                    if self.window.oldest_valid {
                        let gd = ctx.cands[c].guard;
                        self.note_cap_contrib(gd);
                        fold_oldest(&mut self.window.oldest, &self.cap_contrib[&gd]);
                    }
                }
                CandEvent::Widened(_) => self.window.oldest_valid = false,
                CandEvent::Retokened(_) => {}
            }
        }
    }

    /// Diffs the swept domain against the context's recorded baseline
    /// and marks the pairs it newly made enumerable: where a loop
    /// context is new, or its window gained iterations below `lo` or
    /// above `hi`, every member of the loop is marked at the new span.
    /// The growth itself changes no context content, so pairs that
    /// were enumerable before need no mark, and shrinks need none
    /// either — generating over a subset is a no-op.
    fn mark_domain_growth(&mut self, ctx: &mut Ctx, domain: &Domain) {
        if ctx.sweep_domain == *domain {
            return;
        }
        let mut spans = std::mem::take(&mut self.span_buf);
        spans.clear();
        for (&(l, prefix), &(lo, hi)) in domain.iter() {
            let span = |lo, hi| (l, PairMark::Span { prefix, lo, hi });
            match ctx.sweep_domain.get(&(l, prefix)) {
                Some(&(plo, phi)) => {
                    if lo < plo {
                        spans.push(span(lo, hi.min(plo - 1)));
                    }
                    if hi > phi {
                        spans.push(span(lo.max(phi + 1), hi));
                    }
                }
                None => spans.push(span(lo, hi)),
            }
        }
        ctx.sweep_domain.clone_from(domain);
        for &(l, m) in &spans {
            let members = &self.tables.loop_members[l.index()];
            if members.is_empty() || drop_sweep_event(&mut self.faults, members.len()) {
                continue;
            }
            for &op in members {
                push_pair(ctx, &mut self.pair_marks, op, m);
            }
        }
        self.span_buf = spans;
    }

    /// The oldest condition iteration per loop context that an `avail`
    /// or candidate guard of `ctx` mentions, into `oldest` (cleared
    /// first): the input of [`Self::cap_lookahead`].
    fn oldest_into(&mut self, ctx: &Ctx, oldest: &mut CapContrib) {
        oldest.clear();
        for gd in ctx
            .avail
            .values()
            .map(|i| i.guard)
            .chain(ctx.cands.iter().map(|c| c.guard))
        {
            self.note_cap_contrib(gd);
            fold_oldest(oldest, &self.cap_contrib[&gd]);
        }
    }

    /// Caches guard `gd`'s per-loop-context oldest condition iteration
    /// in [`Self::cap_contrib`]: a pure function of the (hash-consed)
    /// guard, so it is walked once per run instead of once per sweep.
    fn note_cap_contrib(&mut self, gd: Guard) {
        if self.cap_contrib.contains_key(&gd) {
            return;
        }
        let mut scratch = std::mem::take(&mut self.supp_scratch);
        self.mgr.support_into(gd, &mut scratch);
        let mut contrib: BTreeMap<LoopCtx, u32> = BTreeMap::new();
        for &c in &scratch {
            let (op, iter) = self.it.pair(InstId::of(c));
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

    /// Caps each loop context's candidate window at `max_spec_depth`
    /// iterations beyond its oldest *unresolved* condition instance (the
    /// carried window's lookahead table).
    /// Without this, an independent counter chain (whose conditions keep
    /// resolving) races arbitrarily far ahead of depth-starved
    /// speculation at older iterations, stretching the live window so no
    /// two contexts ever fold.
    fn cap_lookahead(&self, ctx: &Ctx, domain: &mut Domain) {
        let oldest = &self.window.oldest;
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
    }

    /// The per-loop-context spans of the live instances of `ctx` (its
    /// `avail` keys, candidates and obligations), into `spans` (cleared
    /// first).
    pub(super) fn instance_spans(&self, ctx: &Ctx, spans: &mut Spans) {
        spans.clear();
        let insts = ctx
            .avail
            .keys()
            .map(|k| k.inst)
            .chain(ctx.cands.iter().map(|c| c.inst))
            .chain(ctx.obligations.keys().copied());
        for inst in insts {
            let (op, iter) = self.it.pair(inst);
            note_span(spans, self.g, op, iter);
        }
    }

    /// The live iteration window per loop context, built from scratch
    /// (see [`finish_domain`]).
    pub(super) fn iter_domain(&mut self, ctx: &Ctx) -> Domain {
        let mut spans = self.domain_bufs.pop().unwrap_or_default();
        self.instance_spans(ctx, &mut spans);
        let buf = self.domain_bufs.pop().unwrap_or_default();
        let domain = finish_domain(ctx, &spans, buf);
        self.domain_bufs.push(spans);
        domain
    }

    /// Returns a domain's buffer to the pool [`Self::iter_domain`] draws
    /// from.
    pub(super) fn recycle_domain(&mut self, domain: Domain) {
        self.domain_bufs.push(domain.into_entries());
    }
}

/// Notes instance `(op, iter)` in per-loop-context `spans`.
pub(super) fn note_span(spans: &mut Spans, g: &Cdfg, op: OpId, iter: &[u32]) {
    for (d, &l) in g.op(op).loop_path().iter().enumerate().take(iter.len()) {
        let e = ctx_entry(spans, (l, Iter::from_slice(&iter[..d])), (u32::MAX, 0));
        e.0 = e.0.min(iter[d]);
        e.1 = e.1.max(iter[d]);
    }
}

/// The live iteration window per loop context: the instance `spans`
/// widened by each horizon (plus one beyond it, so loops can keep
/// unrolling) and lowered to the work floors, built in `buf` and sorted
/// once.
fn finish_domain(ctx: &Ctx, spans: &Spans, mut buf: Spans) -> Domain {
    buf.clone_from(spans);
    for (key, h) in ctx.horizon.iter() {
        let e = ctx_entry(&mut buf, *key, (u32::MAX, 0));
        e.0 = e.0.min(*h);
        e.1 = e.1.max(h + 1);
    }
    for (key, e) in buf.iter_mut() {
        if e.0 == u32::MAX {
            e.0 = 0;
        }
        // Lagging (not-yet-done) iterations stay enumerable even when
        // every live value has moved past them.
        let wf = ctx.work_floor.get(key).copied().unwrap_or(0);
        e.0 = e.0.min(wf);
        e.1 = e.1.max(e.0 + 1);
    }
    VecMap::from_unsorted(buf)
}

/// Folds one guard's per-loop-context oldest condition iterations into
/// the running minimum `oldest`.
fn fold_oldest(oldest: &mut CapContrib, contrib: &CapContrib) {
    for &(key, m) in contrib {
        let e = ctx_entry(oldest, key, u32::MAX);
        *e = (*e).min(m);
    }
}

/// The most `(op, iteration)` pairs one op's window may hold. Both the
/// sweep and gc's liveness walk enumerate the whole window: a cut one
/// would let gc drop a version a pair past the cut still reads, so a
/// larger window fails the run instead.
const MAX_WINDOW_PAIRS: usize = 4096;

/// Enumerates the live iteration vectors for `op` given the per-loop
/// windows into `out` (cleared first), outermost index slowest, or fails
/// past [`MAX_WINDOW_PAIRS`] pairs. Each nest level expands the previous
/// level's prefixes in place and then drains them.
pub(super) fn enumerate_iters(
    g: &Cdfg,
    op: OpId,
    domain: &Domain,
    ctx: &Ctx,
    out: &mut Vec<Iter>,
) -> Result<(), SchedError> {
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
        if out.len() > MAX_WINDOW_PAIRS {
            return Err(SchedError::WindowLimit(MAX_WINDOW_PAIRS));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_lang::Program;

    /// A window past [`MAX_WINDOW_PAIRS`] is an error, not a cut: a
    /// 3-deep nest at 20 iterations per level holds 8,000 pairs, and 16
    /// per level holds exactly the bound.
    #[test]
    fn window_past_the_pair_bound_is_an_error() {
        let src = "design d { input n; output o; var s = 0; var i = 0;
             while (i < n) { var j = 0;
               while (j < n) { var k = 0;
                 while (k < n) { s = s + 1; k = k + 1; } j = j + 1; } i = i + 1; }
             o = s; }";
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        let op = g.ops().iter().find(|o| o.loop_path().len() == 3).unwrap();
        let (l0, l1, l2) = match op.loop_path() {
            &[a, b, c] => (a, b, c),
            _ => unreachable!(),
        };
        for (per_level, expect) in [
            (16, Ok(4096)),
            (20, Err(SchedError::WindowLimit(MAX_WINDOW_PAIRS))),
        ] {
            let mut entries = vec![((l0, Iter::new()), (0, per_level - 1))];
            for i in 0..per_level {
                entries.push(((l1, Iter::from_slice(&[i])), (0, per_level - 1)));
                for j in 0..per_level {
                    entries.push(((l2, Iter::from_slice(&[i, j])), (0, per_level - 1)));
                }
            }
            let domain = VecMap::from_unsorted(entries);
            let mut out = Vec::new();
            let got = enumerate_iters(&g, op.id(), &domain, &Ctx::default(), &mut out);
            assert_eq!(got.map(|()| out.len()), expect, "{per_level} per level");
        }
    }
}
