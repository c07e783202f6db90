//! Partitioning a grown state by its resolved conditions (Fig. 12
//! step 4) and the per-branch bookkeeping of each resolution.

use super::*;

impl Engine<'_> {
    /// Promotes versions whose guard resolved to constant true:
    /// consumption of their instance is decided.
    pub(super) fn promote_done(&mut self, ctx: &mut Ctx) {
        for (k, info) in ctx.avail.iter() {
            if info.guard.is_true() && ctx.done.insert(k.inst) {
                ctx.cands.retain(|c| c.inst != k.inst);
            }
        }
    }

    /// Partitions the context by the combinations of conditions resolved
    /// at the end of this state (Fig. 12 step 4). Conditions whose
    /// computing version turned out mis-speculated (validity guard
    /// false) are discarded on that branch; conditions whose validity is
    /// still undecided stay pending.
    pub(super) fn partition(&mut self, ctx: Ctx) -> Vec<(Vec<(Key, bool)>, Ctx)> {
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
        let (key, _, _) = ctx.pending_conds.remove(i);
        let inst: CondInst = key.inst;
        // Already resolved through another version on this path? Then
        // this version is redundant; drop it and continue.
        if ctx.resolved.contains_key(&inst) {
            self.part_rec(ctx, when, out);
            return;
        }
        let var = cond_var(&mut self.mgr, &self.it, inst);
        // The parent context itself becomes the last branch.
        for (val, mut c2, mut w2) in [(true, ctx.clone(), when.clone()), (false, ctx, when)] {
            let t = Instant::now();
            c2.cofactor(&mut self.mgr, var, val, inst);
            self.stats.phases.bdd.add(t.elapsed());
            self.bump_floor(&mut c2, inst, val);
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
                ctx.resolved.remove(&key);
                floor += 1;
            } else {
                break;
            }
        }
        // Like the work floor: the entry's presence is signature-visible,
        // so it is written even at 0.
        ctx.floor.insert((l, prefix), floor);
    }
}
