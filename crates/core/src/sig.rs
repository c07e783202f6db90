//! Canonical state signatures as one token stream.
//!
//! The fold test of Fig. 12 step 11 asks whether the context reached
//! along a new edge is schedule-equivalent (modulo a uniform per-loop
//! iteration shift) to any existing state. Rendering each context to a
//! canonical `String` (`Ctx::signature`) would format megabytes on the
//! hot path, so [`Ctx::signature_hash`] writes the same content as one
//! `u64` token stream and keys the fold index on its 128-bit
//! [`hash128_words`]. Every entry opens with its section tag, and each
//! variable-length field is length-prefixed or tagged: an instance name
//! is `[op, len, shifted iter…]`, a loop context `[loop, len, shifted
//! prefix…]`, a guard the self-delimiting run of
//! [`BddManager::sop_tokens`]. The stream is therefore decodable, so
//! the encoding is injective on the shifted content the string renderer
//! serializes: two contexts produce equal streams exactly when they
//! render equal strings, the equality relation the fold index needs.
//! Only content is written (op and loop indices, iteration offsets,
//! values), never an [`InstId`] or BDD node, so allocation order stays
//! unobservable. The 128-bit hash is trusted: a collision is a
//! ~2⁻¹²⁸-scale event. The string renderer survives as a test-only
//! oracle: the `hashed_signature_agrees_with_string` property checks
//! that both induce the same equality relation.

use crate::ctx::{
    cmp_inst, loop_ancestor, loop_shift, AvailInfo, CondTable, Ctx, InstId, InstTable, Iter, Key,
    ValSrc, VecMap,
};
use cdfg::{Cdfg, LoopId};
use guards::{BddManager, Cond, Guard};
use hls_resources::FuClass;
use spec_support::fxhash::hash128_words;

/// Entry tags, one per section of the string renderer.
const TAG_A: u64 = 0; // available value version
const TAG_C: u64 = 1; // candidate
const TAG_O: u64 = 2; // obligation
const TAG_P: u64 = 3; // pending condition
const TAG_R: u64 = 4; // resolution history entry
const TAG_D: u64 = 5; // done instance
const TAG_F: u64 = 6; // busy functional units of one class
const TAG_H: u64 = 7; // loop horizon
const TAG_L: u64 = 8; // loop floor
const TAG_W: u64 = 9; // loop work floor
const TAG_X: u64 = 10; // discharged loop-exit order token
const TAG_E: u64 = 11; // pending loop-exit discharge

/// Reusable buffers for [`Ctx::signature_hash`], owned by the engine so
/// a run allocates them once.
#[derive(Debug, Default)]
pub(crate) struct SigBuilder {
    /// The signature's token stream.
    words: Vec<u64>,
    /// Candidate entries, back to back, before they are sorted.
    cand_words: Vec<u64>,
    /// `(start, end)` of each candidate entry in `cand_words`.
    cand_spans: Vec<(usize, usize)>,
    /// The last signed context's `avail` keys in content order.
    keys: Vec<Key>,
    /// Canonical version rank of each `avail` entry, by position.
    ranks: Vec<u32>,
    /// The per-loop shift basis of [`Ctx::loop_mins`].
    mins: Vec<u32>,
    /// Positions of one section's entries in content order.
    order: Vec<usize>,
    /// Guard-support scratch for the shift basis.
    supp: Vec<Cond>,
}

impl SigBuilder {
    /// [`Ctx::canonical_keys`] of the context last passed to
    /// [`Ctx::signature_hash`]: the order fold renames zip by.
    pub fn canonical_keys(&self) -> &[Key] {
        &self.keys
    }
}

/// The read-only inputs every token writer needs: the graph, the
/// instance and condition tables, the manager, and the context's
/// per-loop shift basis and canonical version ranks.
struct Shift<'a> {
    g: &'a Cdfg,
    it: &'a InstTable,
    ct: &'a CondTable,
    mgr: &'a BddManager,
    mins: &'a [u32],
    avail: &'a VecMap<Key, AvailInfo>,
    ranks: &'a [u32],
}

impl Shift<'_> {
    fn shift_of(&self, l: LoopId) -> i64 {
        loop_shift(self.mins, l)
    }

    /// Appends the shifted name of an instance: `[op, len, iter -
    /// mins…]`.
    fn inst(&self, out: &mut Vec<u64>, inst: InstId) {
        let (op, iter) = self.it.pair(inst);
        out.push(op.index() as u64);
        out.push(iter.len() as u64);
        let path = self.g.op(op).loop_path();
        for (d, &v) in iter.iter().enumerate() {
            out.push((i64::from(v) - self.shift_of(path[d])) as u64);
        }
    }

    /// Appends the shifted name of a loop context: `[loop, len, prefix -
    /// ancestor mins…]`.
    fn loop_ctx(&self, out: &mut Vec<u64>, l: LoopId, pre: &Iter) {
        out.push(l.index() as u64);
        out.push(pre.len() as u64);
        for (d, &v) in pre.iter().enumerate() {
            let shift = loop_ancestor(self.g, l, d).map_or(0, |a| self.shift_of(a));
            out.push((i64::from(v) - shift) as u64);
        }
    }

    /// Appends a key: the instance name, then its canonical version rank
    /// (its own version when it is not available).
    fn key(&self, out: &mut Vec<u64>, k: &Key) {
        self.inst(out, k.inst);
        let rank = self.avail.position(k).map_or(k.version, |p| self.ranks[p]);
        out.push(u64::from(rank));
    }

    /// Appends an optional key: `[0]` or `[1, key…]`.
    fn opt_key(&self, out: &mut Vec<u64>, k: Option<&Key>) {
        match k {
            None => out.push(0),
            Some(k) => {
                out.push(1);
                self.key(out, k);
            }
        }
    }

    /// Appends a length-prefixed list of tagged value sources.
    fn srcs(&self, out: &mut Vec<u64>, srcs: &[ValSrc]) {
        out.push(srcs.len() as u64);
        for s in srcs {
            match s {
                ValSrc::Const(v) => out.extend([0, *v as u64]),
                ValSrc::Input(i) => out.extend([1, i.index() as u64]),
                ValSrc::Key(k) => {
                    out.push(2);
                    self.key(out, k);
                }
            }
        }
    }

    /// Appends the SOP token run of a guard, naming each condition by
    /// its shifted instance (the string renderer's `op@[shifted]`).
    fn guard(&self, out: &mut Vec<u64>, gd: Guard) {
        let mut name = |c, out: &mut Vec<u64>| self.inst(out, self.ct.inst_of(c));
        self.mgr.sop_tokens(gd, &mut name, out);
    }
}

/// A functional-unit class as a fixed two-token run: variant, memory.
fn class_tokens(class: FuClass) -> [u64; 2] {
    match class {
        FuClass::Adder => [0, 0],
        FuClass::Subtracter => [1, 0],
        FuClass::Multiplier => [2, 0],
        FuClass::Comparator => [3, 0],
        FuClass::EqComparator => [4, 0],
        FuClass::Incrementer => [5, 0],
        FuClass::Logic => [6, 0],
        FuClass::Shifter => [7, 0],
        FuClass::MemPort(m) => [8, m.index() as u64],
        FuClass::Free => [9, 0],
    }
}

/// Fills `order` with `0..n` sorted by the content of `inst(i)`. The
/// instances of one section are distinct and content order is total on
/// them, so the unstable sort is exact.
fn content_order(order: &mut Vec<usize>, it: &InstTable, n: usize, inst: impl Fn(usize) -> InstId) {
    order.clear();
    order.extend(0..n);
    order.sort_unstable_by(|&a, &b| cmp_inst(it, inst(a), inst(b)));
}

impl Ctx {
    /// Token-stream equivalent of `Ctx::signature`: the 128-bit hash of
    /// the canonical token form of this context. Also leaves the
    /// context's canonical keys in `sb` ([`SigBuilder::canonical_keys`]).
    ///
    /// Section order, per-section content order, canonical version
    /// ranks, and the per-loop shift basis are identical to the string
    /// renderer, so two contexts produce equal hashes exactly when they
    /// produce equal strings (up to 128-bit hash collisions).
    pub(crate) fn signature_hash(
        &self,
        g: &Cdfg,
        ct: &CondTable,
        mgr: &mut BddManager,
        it: &InstTable,
        sb: &mut SigBuilder,
    ) -> u128 {
        let SigBuilder {
            words: out,
            cand_words,
            cand_spans,
            keys,
            ranks,
            mins,
            order,
            supp,
        } = sb;
        self.loop_mins(g, ct, mgr, it, mins, supp);
        self.canonical_keys(it, keys);
        // Canonical version renumbering, exactly as in the string
        // renderer: dense per-instance ranks in content order. `avail`
        // groups each instance's versions in ascending order, which is
        // their content order, so a rank is the offset in its group.
        ranks.clear();
        let mut prev: Option<(InstId, u32)> = None;
        for k in self.avail.keys() {
            let rank = match prev {
                Some((inst, r)) if inst == k.inst => r + 1,
                _ => 0,
            };
            ranks.push(rank);
            prev = Some((k.inst, rank));
        }
        let sh = Shift {
            g,
            it,
            ct,
            mgr,
            mins,
            avail: &self.avail,
            ranks,
        };
        out.clear();

        for k in keys.iter() {
            let info = &self.avail[k];
            out.push(TAG_A);
            sh.key(out, k);
            sh.guard(out, info.guard);
            out.push(u64::from(info.ready_in));
            sh.srcs(out, &info.operands);
        }

        // Candidates are an unordered set: sort their entries by token
        // content — a canonicalization of the same multiset the string
        // renderer canonicalizes by sorting rendered strings, so the
        // equality relation is unchanged.
        cand_words.clear();
        cand_spans.clear();
        for c in self.cands.iter() {
            let start = cand_words.len();
            cand_words.push(TAG_C);
            sh.inst(cand_words, c.inst);
            sh.srcs(cand_words, &c.operands);
            cand_words.push(c.tokens.len() as u64);
            for t in &c.tokens {
                sh.opt_key(cand_words, t.as_ref());
            }
            sh.guard(cand_words, c.guard);
            cand_spans.push((start, cand_words.len()));
        }
        cand_spans.sort_unstable_by(|a, b| cand_words[a.0..a.1].cmp(&cand_words[b.0..b.1]));
        for &(start, end) in cand_spans.iter() {
            out.extend_from_slice(&cand_words[start..end]);
        }

        let obls = self.obligations.as_slice();
        content_order(order, it, obls.len(), |i| obls[i].0);
        for &i in order.iter() {
            let (inst, gd) = obls[i];
            out.push(TAG_O);
            sh.inst(out, inst);
            sh.guard(out, gd);
        }

        for (k, gd, r) in self.pending_conds.iter() {
            out.push(TAG_P);
            sh.key(out, k);
            sh.guard(out, *gd);
            out.push(u64::from(*r));
        }

        let res = self.resolved.as_slice();
        content_order(order, it, res.len(), |i| res[i].0);
        for &i in order.iter() {
            let (inst, v) = res[i];
            out.push(TAG_R);
            sh.inst(out, inst);
            out.push(u64::from(v));
        }

        for (tag, set) in [(TAG_D, &self.done), (TAG_X, &self.discharged)] {
            let insts = set.as_slice();
            content_order(order, it, insts.len(), |i| insts[i]);
            for &i in order.iter() {
                out.push(tag);
                sh.inst(out, insts[i]);
            }
        }

        let pend = self.exit_pending.as_slice();
        content_order(order, it, pend.len(), |i| pend[i].0);
        for &i in order.iter() {
            let (inst, tok) = pend[i];
            out.push(TAG_E);
            sh.inst(out, inst);
            sh.opt_key(out, tok.as_ref());
        }

        for (class, busy) in self.fu_busy.iter() {
            out.push(TAG_F);
            out.extend(class_tokens(*class));
            out.push(busy.len() as u64);
            out.extend(busy.iter().map(|&r| u64::from(r)));
        }

        for (tag, map) in [
            (TAG_H, &self.horizon),
            (TAG_L, &self.floor),
            (TAG_W, &self.work_floor),
        ] {
            for ((l, pre), v) in map.iter() {
                out.push(tag);
                sh.loop_ctx(out, *l, pre);
                out.push((i64::from(*v) - sh.shift_of(*l)) as u64);
            }
        }

        hash128_words(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{AvailInfo, Candidate, Operands};
    use cdfg::{CdfgBuilder, InputId, OpId, OpKind, Src};
    use spec_support::props;
    use spec_support::proptest_lite as pl;

    fn loop_cdfg() -> Cdfg {
        let mut b = CdfgBuilder::new("l");
        let n = b.input("n");
        let zero = b.constant(0);
        b.begin_loop();
        let i = b.carried(zero);
        let c = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(n)]);
        b.loop_condition(c);
        let i1 = b.op(OpKind::Inc, &[Src::Carried(i)]);
        b.set_carried(i, i1);
        b.end_loop();
        let e = b.exit_value(i);
        b.output("o", Src::Op(e));
        b.finish().unwrap()
    }

    fn inc_op(g: &Cdfg) -> OpId {
        g.ops()
            .iter()
            .find(|o| o.kind() == OpKind::Inc)
            .unwrap()
            .id()
    }

    /// Every iteration a recipe can name lies below this bound.
    const MAX_ITER: u32 = 12;

    /// One available-value entry of a recipe, positioned relative to
    /// the recipe's base iteration.
    #[derive(Debug, Clone)]
    struct Entry {
        iter: u32,
        gsel: u32,
        ready: u32,
    }

    /// A candidate operand; `Key` names the `Inc` at an iteration offset.
    #[derive(Debug, Clone)]
    enum Operand {
        Const(i64),
        Input(u32),
        Key(u32),
    }

    /// One candidate: the `Inc` (or, with `cond_op`, the loop condition)
    /// at `iter`, its operands, its order tokens (`Some` names the `Inc`
    /// at an iteration offset), and its guard selector.
    #[derive(Debug, Clone)]
    struct Cand {
        iter: u32,
        cond_op: bool,
        gsel: u32,
        operands: Vec<Operand>,
        tokens: Vec<Option<u32>>,
    }

    /// A small randomized context: available versions, candidates,
    /// obligations `(iter, gsel)`, resolution history `(iter, value)`
    /// and `done` instances of the loop body, all at iterations `base +
    /// offset`, optionally a floor entry at `base`.
    #[derive(Debug, Clone)]
    struct Recipe {
        base: u32,
        with_floor: bool,
        entries: Vec<Entry>,
        cands: Vec<Cand>,
        obligations: Vec<(u32, u32)>,
        resolved: Vec<(u32, bool)>,
        done: Vec<u32>,
    }

    fn arb_recipe() -> pl::Gen<Recipe> {
        let off = || pl::range(0u32..4);
        let entry = pl::tuple3(off(), off(), pl::range(0u32..2)).map(|(iter, gsel, ready)| Entry {
            iter,
            gsel,
            ready,
        });
        let operand = pl::one_of(vec![
            pl::range(-1i64..2).map(Operand::Const),
            pl::range(0u32..2).map(Operand::Input),
            off().map(Operand::Key),
        ]);
        let token = pl::tuple2(pl::boolean(), off()).map(|(some, o)| some.then_some(o));
        let cand = pl::tuple3(
            pl::tuple3(off(), pl::boolean(), off()),
            pl::vec_of(operand, 0..3),
            pl::vec_of(token, 0..3),
        )
        .map(|((iter, cond_op, gsel), operands, tokens)| Cand {
            iter,
            cond_op,
            gsel,
            operands,
            tokens,
        });
        let history = pl::tuple3(
            pl::vec_of(pl::tuple2(off(), off()), 0..3),
            pl::vec_of(pl::tuple2(off(), pl::boolean()), 0..3),
            pl::vec_of(off(), 0..3),
        );
        pl::tuple3(
            pl::tuple3(pl::range(0u32..3), pl::boolean(), pl::vec_of(entry, 0..4)),
            pl::vec_of(cand, 0..4),
            history,
        )
        .map(
            |((base, with_floor, entries), cands, (obligations, resolved, done))| Recipe {
                base,
                with_floor,
                entries,
                cands,
                obligations,
                resolved,
                done,
            },
        )
    }

    /// `r` with every candidate operand retagged (`Const(v)` ↔
    /// `Input(|v|)`, `Key(o)` → `Const(o)`) and every order token
    /// toggled (`None` ↔ `Some(0)`): the same small numbers under other
    /// tags, which an injective encoding must tell apart.
    fn retag(r: &Recipe) -> Recipe {
        let mut r = r.clone();
        for c in &mut r.cands {
            for o in &mut c.operands {
                *o = match *o {
                    Operand::Const(v) => Operand::Input(v.unsigned_abs() as u32),
                    Operand::Input(i) => Operand::Const(i64::from(i)),
                    Operand::Key(o) => Operand::Const(i64::from(o)),
                };
            }
            for t in &mut c.tokens {
                *t = if t.is_some() { None } else { Some(0) };
            }
        }
        r
    }

    /// Allocates the loop condition's variables in iteration order, so
    /// the BDD variable order (and with it every guard's cube order) is
    /// the same for a context and its shifted copy.
    fn cond_vars(g: &Cdfg, ct: &mut CondTable, it: &mut InstTable) {
        let cond = g.loops()[0].cond();
        for i in 0..MAX_ITER {
            ct.var(it.id(cond, &[i]));
        }
    }

    /// Guard selector `gsel` at iteration `i`: 0 = TRUE, 1/2 =
    /// positive/negative literal of the loop condition at `i`, 3 = that
    /// positive literal or the negative one at `i + 1` (two cubes).
    fn guard_of(
        gsel: u32,
        i: u32,
        g: &Cdfg,
        mgr: &mut BddManager,
        ct: &mut CondTable,
        it: &mut InstTable,
    ) -> Guard {
        let cond = g.loops()[0].cond();
        let mut lit = |i: u32, v: bool| {
            let var = ct.var(it.id(cond, &[i]));
            mgr.literal(var, v)
        };
        match gsel {
            0 => Guard::TRUE,
            1 | 2 => lit(i, gsel == 1),
            _ => {
                let (a, b) = (lit(i, true), lit(i + 1, false));
                mgr.or(a, b)
            }
        }
    }

    fn build(
        r: &Recipe,
        shift: u32,
        g: &Cdfg,
        mgr: &mut BddManager,
        ct: &mut CondTable,
        it: &mut InstTable,
    ) -> Ctx {
        let op = inc_op(g);
        let cond = g.loops()[0].cond();
        let at = r.base + shift;
        let mut ctx = Ctx::default();
        for e in &r.entries {
            let gd = guard_of(e.gsel, at + e.iter, g, mgr, ct, it);
            ctx.avail_mut().insert(
                Key::new(it.id(op, &[at + e.iter]), 0),
                AvailInfo {
                    guard: gd,
                    ready_in: e.ready,
                    depth: 0.0,
                    operands: Operands::new(),
                },
            );
        }
        for c in &r.cands {
            let gd = guard_of(c.gsel, at + c.iter, g, mgr, ct, it);
            let mut operands = Operands::new();
            for o in &c.operands {
                operands.push(match *o {
                    Operand::Const(v) => ValSrc::Const(v),
                    Operand::Input(i) => ValSrc::Input(InputId::new(i)),
                    Operand::Key(o) => ValSrc::Key(Key::new(it.id(op, &[at + o]), 0)),
                });
            }
            let tokens = c
                .tokens
                .iter()
                .map(|t| t.map(|o| Key::new(it.id(op, &[at + o]), 0)))
                .collect();
            let inst = it.id(if c.cond_op { cond } else { op }, &[at + c.iter]);
            ctx.cands_mut().push(Candidate {
                inst,
                operands,
                tokens,
                guard: gd,
            });
        }
        for &(i, gsel) in &r.obligations {
            let gd = guard_of(gsel, at + i, g, mgr, ct, it);
            ctx.obligations_mut().insert(it.id(op, &[at + i]), gd);
        }
        for &(i, v) in &r.resolved {
            ctx.resolved_mut().insert(it.id(cond, &[at + i]), v);
        }
        for &i in &r.done {
            ctx.done_mut().insert(it.id(op, &[at + i]));
        }
        // Resolution history and `done` are not part of the shift basis,
        // so a recipe with either also gets the floor to anchor it.
        if r.with_floor || !r.resolved.is_empty() || !r.done.is_empty() {
            let lp = g.loops()[0].id();
            ctx.floor_mut().insert((lp, Iter::new()), at);
        }
        ctx
    }

    #[test]
    fn hash_folds_shifted_iterations() {
        let g = loop_cdfg();
        let op = inc_op(&g);
        let mut mgr = BddManager::new();
        let ct = CondTable::default();
        let mut it = InstTable::default();
        let mut sb = SigBuilder::default();
        let mk = |iters: &[u32], it: &mut InstTable| -> Ctx {
            let mut ctx = Ctx::default();
            for &i in iters {
                ctx.avail_mut().insert(
                    Key::new(it.id(op, &[i]), 0),
                    AvailInfo {
                        guard: Guard::TRUE,
                        ready_in: 0,
                        depth: 0.0,
                        operands: Operands::new(),
                    },
                );
            }
            ctx
        };
        let lp = g.loops()[0].id();
        let a = mk(&[3, 4], &mut it);
        let b = mk(&[7, 8], &mut it);
        let c = mk(&[3, 5], &mut it);
        let ha = a.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
        let ha2 = a.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
        assert_eq!(ha, ha2, "hash is deterministic across calls");
        let mut mins = Vec::new();
        a.loop_mins(&g, &ct, &mut mgr, &it, &mut mins, &mut Vec::new());
        assert_eq!(mins[lp.index()], 3);
        let hb = b.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
        assert_eq!(ha, hb, "uniformly shifted contexts fold");
        b.loop_mins(&g, &ct, &mut mgr, &it, &mut mins, &mut Vec::new());
        assert_eq!(mins[lp.index()], 7);
        let hc = c.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
        assert_ne!(ha, hc, "non-uniform spacing does not fold");
    }

    props! {
        /// The hashed signature and the legacy string signature induce
        /// the same equivalence relation on contexts, including the
        /// shifted-iteration fold cases of Example 10 (a copy of a
        /// context shifted uniformly by +2 iterations folds with the
        /// original under both renderers) and candidate insertion
        /// order (the same candidates inserted in reverse fold too). A
        /// retagged copy probes that every tag reaches the stream.
        fn hashed_signature_agrees_with_string(r1 in arb_recipe(), r2 in arb_recipe()) {
            let g = loop_cdfg();
            let mut mgr = BddManager::new();
            let mut ct = CondTable::default();
            let mut it = InstTable::default();
            let mut sb = SigBuilder::default();
            cond_vars(&g, &mut ct, &mut it);
            let mut r1r = r1.clone();
            r1r.cands.reverse();
            let ctxs = [
                build(&r1, 0, &g, &mut mgr, &mut ct, &mut it),
                build(&r1, 2, &g, &mut mgr, &mut ct, &mut it),
                build(&r1r, 0, &g, &mut mgr, &mut ct, &mut it),
                build(&r2, 0, &g, &mut mgr, &mut ct, &mut it),
                build(&r2, 1, &g, &mut mgr, &mut ct, &mut it),
                build(&retag(&r1), 0, &g, &mut mgr, &mut ct, &mut it),
            ];
            let mut sigs = Vec::new();
            for c in &ctxs {
                let (s, _) = c.signature(&g, &ct, &mut mgr, &it);
                let h = c.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
                sigs.push((s, h));
            }
            for (a, b, what) in [(0, 1, "shifted copy"), (0, 2, "reordered candidates")] {
                assert_eq!(sigs[a].0, sigs[b].0, "{what} folds under the string renderer");
                assert_eq!(sigs[a].1, sigs[b].1, "{what} folds under the hashed renderer");
            }
            for (i, (si, hi)) in sigs.iter().enumerate() {
                for (sj, hj) in &sigs[i + 1..] {
                    assert_eq!(
                        si == sj,
                        hi == hj,
                        "equality relations diverge:\n  s={si}\n  s'={sj}\n  h={hi:032x}\n  h'={hj:032x}"
                    );
                }
            }
        }
    }
}
