//! Hash-consed state signatures.
//!
//! The fold test of Fig. 12 step 11 asks whether the context reached
//! along a new edge is schedule-equivalent (modulo a uniform per-loop
//! iteration shift) to any existing state. The original implementation
//! rendered every context into a canonical `String`
//! (`Ctx::signature`) and keyed the fold index on it — megabytes of
//! formatting on the hot path, re-rendering shared substructure (guard
//! SOPs, instance names, whole unchanged sections) for every branch of
//! every state.
//!
//! [`SigBuilder`] replaces the string with a two-level hash-consed
//! token form:
//!
//! 1. every *atom* (a shifted instance or loop-context name) is
//!    interned into a dense id, so the common case — a name already
//!    seen in a previous state — is a hash probe, not a `format!`;
//! 2. every signature *entry* (one `A`/`C`/`O`/… record of the string
//!    renderer) is a short `u64` token stream over those atom ids,
//!    interned again into an entry id;
//! 3. the signature itself is the 128-bit content hash
//!    ([`hash128_ids`]) of the entry-id sequence, used as the fold
//!    index key.
//!
//! Token streams are built to be *decodable* (every variable-length
//! run is length-prefixed or self-delimiting, every alternative is
//! tagged), which makes the entry encoding injective on the shifted
//! content the string renderer serializes. Two contexts therefore get
//! equal entry-id sequences exactly when they render equal strings —
//! the equality relation the fold index requires — and the 128-bit
//! hash collides only with ~2⁻¹²⁸-scale probability. The string
//! renderer survives as a test-only oracle: the
//! `hashed_signature_agrees_with_string` property checks that both
//! induce the same equality relation.

use crate::ctx::{cmp_inst, loop_ancestors, CondTable, Ctx, InstId, InstTable, Iter, Key, ValSrc};
use cdfg::{Cdfg, LoopId};
use guards::{BddManager, Guard};
use spec_support::fxhash::{hash128_ids, FxHashMap};
use spec_support::interner::SliceInterner;
use std::collections::BTreeMap;

/// Atom namespace discriminators: the first element of every interned
/// atom slice, so an instance atom can never alias a loop-context atom.
const NS_INST: i64 = 0;
const NS_LOOP: i64 = 1;

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

/// Reusable hash-consing state for [`Ctx::signature_hash`], owned by
/// the engine and shared across every signature of a run so atoms and
/// entries common to many states are interned (and hashed) once.
#[derive(Debug, Default)]
pub(crate) struct SigBuilder {
    /// Shifted instance / loop-context names.
    atoms: SliceInterner<i64>,
    /// Whole signature entries as token streams over atom ids.
    entries: SliceInterner<u64>,
    atom_buf: Vec<i64>,
    entry_buf: Vec<u64>,
    ids_buf: Vec<u32>,
    cand_buf: Vec<u32>,
}

/// The read-only inputs every token helper needs: the graph, the
/// interners, and the per-loop shift basis of the current context.
struct Shift<'a> {
    g: &'a Cdfg,
    it: &'a InstTable,
    ct: &'a CondTable,
    mins: &'a BTreeMap<LoopId, u32>,
}

impl Shift<'_> {
    fn shift_of(&self, l: &LoopId) -> i64 {
        i64::from(self.mins.get(l).copied().unwrap_or(0))
    }
}

/// Interns the shifted name of an instance: `[NS_INST, op,
/// iter - mins…]`.
fn inst_atom(
    atoms: &mut SliceInterner<i64>,
    buf: &mut Vec<i64>,
    sh: &Shift<'_>,
    inst: InstId,
) -> u64 {
    let (op, iter) = sh.it.pair(inst);
    buf.clear();
    buf.push(NS_INST);
    buf.push(op.index() as i64);
    let path = sh.g.op(op).loop_path();
    for (d, &v) in iter.iter().enumerate() {
        buf.push(i64::from(v) - sh.shift_of(&path[d]));
    }
    u64::from(atoms.intern(buf))
}

/// Interns the shifted name of a loop context: `[NS_LOOP, loop,
/// prefix - ancestor mins…]`.
fn loop_atom(
    atoms: &mut SliceInterner<i64>,
    buf: &mut Vec<i64>,
    sh: &Shift<'_>,
    l: LoopId,
    pre: &Iter,
) -> u64 {
    buf.clear();
    buf.push(NS_LOOP);
    buf.push(l.index() as i64);
    let ancestors = loop_ancestors(sh.g, l);
    for (d, &v) in pre.iter().enumerate() {
        let shift = ancestors.get(d).map(|a| sh.shift_of(a)).unwrap_or(0);
        buf.push(i64::from(v) - shift);
    }
    u64::from(atoms.intern(buf))
}

/// Appends a key token pair: `[atom, vrank]`.
fn push_key(
    out: &mut Vec<u64>,
    atoms: &mut SliceInterner<i64>,
    buf: &mut Vec<i64>,
    sh: &Shift<'_>,
    vrank: &FxHashMap<Key, u32>,
    k: &Key,
) {
    let a = inst_atom(atoms, buf, sh, k.inst);
    out.push(a);
    out.push(u64::from(vrank.get(k).copied().unwrap_or(k.version)));
}

/// Appends a tagged value-source token run (fixed length per tag).
fn push_src(
    out: &mut Vec<u64>,
    atoms: &mut SliceInterner<i64>,
    buf: &mut Vec<i64>,
    sh: &Shift<'_>,
    vrank: &FxHashMap<Key, u32>,
    s: &ValSrc,
) {
    match s {
        ValSrc::Const(v) => {
            out.push(0);
            out.push(*v as u64);
        }
        ValSrc::Input(i) => {
            out.push(1);
            out.push(i.index() as u64);
        }
        ValSrc::Key(k) => {
            out.push(2);
            push_key(out, atoms, buf, sh, vrank, k);
        }
    }
}

/// Appends the self-delimiting SOP token run of a guard, naming each
/// condition by its shifted instance atom (mirrors the string
/// renderer's `op@[shifted]` condition names).
fn push_guard(
    out: &mut Vec<u64>,
    atoms: &mut SliceInterner<i64>,
    buf: &mut Vec<i64>,
    sh: &Shift<'_>,
    mgr: &BddManager,
    gd: Guard,
) {
    let mut name = |c: guards::Cond| inst_atom(atoms, buf, sh, sh.ct.inst_of(c));
    mgr.sop_tokens(gd, &mut name, out);
}

impl Ctx {
    /// Hash-consed equivalent of `Ctx::signature`: the 128-bit
    /// content hash of the canonical entry-token form of this context,
    /// plus the per-loop minimum indices needed for fold renames.
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
    ) -> (u128, BTreeMap<LoopId, u32>) {
        let mins = self.loop_mins(g, ct, mgr, it);
        let SigBuilder {
            atoms,
            entries,
            atom_buf,
            entry_buf,
            ids_buf,
            cand_buf,
        } = sb;
        ids_buf.clear();
        let sh = Shift {
            g,
            it,
            ct,
            mins: &mins,
        };

        let avail_sorted = self.canonical_keys(it);
        // Canonical version renumbering, exactly as in the string
        // renderer: dense per-instance ranks over the content-sorted
        // available versions.
        let mut vrank: FxHashMap<Key, u32> = FxHashMap::default();
        {
            let mut counts: FxHashMap<InstId, u32> = FxHashMap::default();
            for k in &avail_sorted {
                let c = counts.entry(k.inst).or_insert(0);
                vrank.insert(*k, *c);
                *c += 1;
            }
        }

        for k in &avail_sorted {
            let info = &self.avail[k];
            entry_buf.clear();
            entry_buf.push(TAG_A);
            push_key(entry_buf, atoms, atom_buf, &sh, &vrank, k);
            push_guard(entry_buf, atoms, atom_buf, &sh, mgr, info.guard);
            entry_buf.push(u64::from(info.ready_in));
            entry_buf.push(info.operands.len() as u64);
            for o in &info.operands {
                push_src(entry_buf, atoms, atom_buf, &sh, &vrank, o);
            }
            ids_buf.push(entries.intern(entry_buf));
        }

        // Candidates are an unordered set: sort their entry ids by
        // *interned content* — a canonicalization of the same multiset
        // the string renderer canonicalizes by sorting rendered
        // strings, so the equality relation is unchanged.
        cand_buf.clear();
        for c in self.cands.iter() {
            entry_buf.clear();
            entry_buf.push(TAG_C);
            let a = inst_atom(atoms, atom_buf, &sh, c.inst);
            entry_buf.push(a);
            entry_buf.push(c.operands.len() as u64);
            for o in &c.operands {
                push_src(entry_buf, atoms, atom_buf, &sh, &vrank, o);
            }
            entry_buf.push(c.tokens.len() as u64);
            for t in &c.tokens {
                match t {
                    None => entry_buf.push(0),
                    Some(k) => {
                        entry_buf.push(1);
                        push_key(entry_buf, atoms, atom_buf, &sh, &vrank, k);
                    }
                }
            }
            push_guard(entry_buf, atoms, atom_buf, &sh, mgr, c.guard);
            cand_buf.push(entries.intern(entry_buf));
        }
        cand_buf.sort_by(|&a, &b| entries.resolve(a).cmp(entries.resolve(b)));
        ids_buf.extend_from_slice(cand_buf);

        let mut obls: Vec<(InstId, Guard)> =
            self.obligations.iter().map(|(i, g)| (*i, *g)).collect();
        obls.sort_by(|a, b| cmp_inst(it, a.0, b.0));
        for (inst, gd) in obls {
            entry_buf.clear();
            entry_buf.push(TAG_O);
            let a = inst_atom(atoms, atom_buf, &sh, inst);
            entry_buf.push(a);
            push_guard(entry_buf, atoms, atom_buf, &sh, mgr, gd);
            ids_buf.push(entries.intern(entry_buf));
        }

        for (k, gd, r) in self.pending_conds.iter() {
            entry_buf.clear();
            entry_buf.push(TAG_P);
            push_key(entry_buf, atoms, atom_buf, &sh, &vrank, k);
            push_guard(entry_buf, atoms, atom_buf, &sh, mgr, *gd);
            entry_buf.push(u64::from(*r));
            ids_buf.push(entries.intern(entry_buf));
        }

        let mut res: Vec<(InstId, bool)> = self.resolved.iter().map(|(i, v)| (*i, *v)).collect();
        res.sort_by(|a, b| cmp_inst(it, a.0, b.0));
        for (inst, v) in res {
            entry_buf.clear();
            entry_buf.push(TAG_R);
            let a = inst_atom(atoms, atom_buf, &sh, inst);
            entry_buf.push(a);
            entry_buf.push(u64::from(v));
            ids_buf.push(entries.intern(entry_buf));
        }

        let mut done: Vec<InstId> = self.done.iter().copied().collect();
        done.sort_by(|a, b| cmp_inst(it, *a, *b));
        for inst in done {
            entry_buf.clear();
            entry_buf.push(TAG_D);
            let a = inst_atom(atoms, atom_buf, &sh, inst);
            entry_buf.push(a);
            ids_buf.push(entries.intern(entry_buf));
        }

        let mut disc: Vec<InstId> = self.discharged.iter().copied().collect();
        disc.sort_by(|a, b| cmp_inst(it, *a, *b));
        for inst in disc {
            entry_buf.clear();
            entry_buf.push(TAG_X);
            let a = inst_atom(atoms, atom_buf, &sh, inst);
            entry_buf.push(a);
            ids_buf.push(entries.intern(entry_buf));
        }

        let mut pend: Vec<(InstId, Option<Key>)> =
            self.exit_pending.iter().map(|(i, k)| (*i, *k)).collect();
        pend.sort_by(|a, b| cmp_inst(it, a.0, b.0));
        for (inst, tok) in pend {
            entry_buf.clear();
            entry_buf.push(TAG_E);
            let a = inst_atom(atoms, atom_buf, &sh, inst);
            entry_buf.push(a);
            match tok {
                None => entry_buf.push(0),
                Some(k) => {
                    entry_buf.push(1);
                    push_key(entry_buf, atoms, atom_buf, &sh, &vrank, &k);
                }
            }
            ids_buf.push(entries.intern(entry_buf));
        }

        for (class, busy) in self.fu_busy.iter() {
            entry_buf.clear();
            entry_buf.push(TAG_F);
            // The class name as length-prefixed bytes: injective, so
            // entries stay equal exactly when the names are.
            entry_buf.push(class.len() as u64);
            entry_buf.extend(class.bytes().map(u64::from));
            entry_buf.push(busy.len() as u64);
            for &r in busy {
                entry_buf.push(u64::from(r));
            }
            ids_buf.push(entries.intern(entry_buf));
        }

        for (tag, map) in [
            (TAG_H, &self.horizon),
            (TAG_L, &self.floor),
            (TAG_W, &self.work_floor),
        ] {
            for ((l, pre), v) in map.iter() {
                entry_buf.clear();
                entry_buf.push(tag);
                let a = loop_atom(atoms, atom_buf, &sh, *l, pre);
                entry_buf.push(a);
                entry_buf.push((i64::from(*v) - sh.shift_of(l)) as u64);
                ids_buf.push(entries.intern(entry_buf));
            }
        }

        (hash128_ids(ids_buf), mins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{AvailInfo, Operands};
    use cdfg::{CdfgBuilder, OpId, OpKind, Src};
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

    /// One available-value entry of a recipe, positioned relative to
    /// the recipe's base iteration.
    #[derive(Debug, Clone)]
    struct Entry {
        iter: u32,
        /// 0 = TRUE, 1 = positive literal, 2 = negative literal of the
        /// loop condition at the same iteration.
        gsel: u32,
        ready: u32,
    }

    /// A small randomized context: a handful of available versions of
    /// the loop body's `Inc` at iterations `base + entry.iter`,
    /// optionally a floor entry at `base`.
    #[derive(Debug, Clone)]
    struct Recipe {
        base: u32,
        entries: Vec<Entry>,
        with_floor: bool,
    }

    fn arb_recipe() -> pl::Gen<Recipe> {
        let entry = pl::tuple3(pl::range(0u32..4), pl::range(0u32..3), pl::range(0u32..2))
            .map(|(iter, gsel, ready)| Entry { iter, gsel, ready });
        pl::tuple3(pl::range(0u32..3), pl::vec_of(entry, 0..4), pl::boolean()).map(
            |(base, entries, with_floor)| Recipe {
                base,
                entries,
                with_floor,
            },
        )
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
        let mut ctx = Ctx::default();
        for e in &r.entries {
            let i = r.base + shift + e.iter;
            let guard = match e.gsel {
                0 => Guard::TRUE,
                v => {
                    let var = ct.var(it.id(cond, &[i]));
                    mgr.literal(var, v == 1)
                }
            };
            ctx.avail_mut().insert(
                Key::new(it.id(op, &[i]), 0),
                AvailInfo {
                    guard,
                    ready_in: e.ready,
                    depth: 0.0,
                    operands: Operands::new(),
                },
            );
        }
        if r.with_floor {
            let lp = g.loops()[0].id();
            ctx.floor_mut().insert((lp, Iter::new()), r.base + shift);
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
        let (ha, mins_a) = a.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
        let (ha2, _) = a.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
        assert_eq!(ha, ha2, "hash is deterministic across calls");
        assert_eq!(mins_a[&lp], 3);
        let (hb, mins_b) = b.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
        assert_eq!(ha, hb, "uniformly shifted contexts fold");
        assert_eq!(mins_b[&lp], 7);
        let (hc, _) = c.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
        assert_ne!(ha, hc, "non-uniform spacing does not fold");
    }

    props! {
        /// The hashed signature and the legacy string signature induce
        /// the same equivalence relation on contexts, including the
        /// shifted-iteration fold cases of Example 10: a copy of a
        /// context shifted uniformly by +2 iterations must fold with
        /// the original under both renderers.
        fn hashed_signature_agrees_with_string(r1 in arb_recipe(), r2 in arb_recipe()) {
            let g = loop_cdfg();
            let mut mgr = BddManager::new();
            let mut ct = CondTable::default();
            let mut it = InstTable::default();
            let mut sb = SigBuilder::default();
            let c1 = build(&r1, 0, &g, &mut mgr, &mut ct, &mut it);
            let c2 = build(&r2, 0, &g, &mut mgr, &mut ct, &mut it);
            let c1s = build(&r1, 2, &g, &mut mgr, &mut ct, &mut it);
            let (s1, _) = c1.signature(&g, &ct, &mut mgr, &it);
            let (s2, _) = c2.signature(&g, &ct, &mut mgr, &it);
            let (s1s, _) = c1s.signature(&g, &ct, &mut mgr, &it);
            let (h1, _) = c1.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
            let (h2, _) = c2.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
            let (h1s, _) = c1s.signature_hash(&g, &ct, &mut mgr, &it, &mut sb);
            assert_eq!(s1, s1s, "shifted copy folds under the string renderer");
            assert_eq!(h1, h1s, "shifted copy folds under the hashed renderer");
            assert_eq!(
                s1 == s2,
                h1 == h2,
                "equality relations diverge:\n  s1={s1}\n  s2={s2}\n  h1={h1:032x}\n  h2={h2:032x}"
            );
        }
    }
}
