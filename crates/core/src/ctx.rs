//! Scheduling context: value versions, guards, obligations, resource
//! occupancy — everything the scheduler knows at a state boundary.
//!
//! A context is attached to every STG state under construction. It is the
//! concrete realization of the paper's bookkeeping: `Sched_succ[state]`
//! (our candidate list), the tagged value versions produced by
//! speculative execution, the conditions awaiting resolution, and the
//! side-effect obligations that decide when a path may transition to
//! STOP.
//!
//! Contexts support three operations central to the algorithm:
//!
//! * **cofactoring** by a resolved condition combination (Sec. 4.3
//!   Step 2) — validating/invalidating speculative work;
//! * **garbage collection** of value versions that no remaining or future
//!   consumer can reference — without this, loop iterations would
//!   accumulate state forever and no two contexts would ever fold;
//! * **normalization** to a canonical signature modulo a uniform
//!   iteration-index shift per loop — the state-equivalence test of
//!   Fig. 12 step 11 / Example 10 that produces finite steady-state
//!   schedules.
//!
//! # Instance interning
//!
//! Operation instances `(OpId, Iter)` are interned into copyable
//! [`InstId`]s through a per-schedule [`InstTable`]. Everything keyed by
//! an instance — value versions, obligations, resolution history — moves
//! with `memcpy`. The cardinal rule:
//! `InstId` *equality* is always content equality (that is what interning
//! means), but `InstId` *order* is allocation order. Any place where
//! relative order is semantically visible (signatures, fold renames,
//! candidate tie-breaks) must compare resolved content via [`cmp_inst`] /
//! [`cmp_key`] / [`cmp_src`], never raw ids.
//!
//! # Inline small vectors
//!
//! Iteration vectors and operand lists are short and bounded — at most
//! [`MAX_NEST`] loop levels and [`MAX_ARGS`] operands — and the
//! resolution walk copies them at every step. Both are
//! [`stg::InlineVec`]s: `Copy` arrays with a length, so a prefix copy, an
//! operand-list clone or naming an instance in the STG is a `memcpy`,
//! never a heap allocation.

use cdfg::{InputId, LoopId, OpId, Value};
use guards::{BddManager, Cond, Guard};
use hls_resources::FuClass;
#[cfg(test)]
use spec_support::fxhash::FxHashMap;
use spec_support::fxhash::FxHasher;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
#[cfg(test)]
use std::ops::{Bound, RangeBounds};
pub(crate) use stg::MAX_NEST;
use stg::{InlineVec, MAX_ARGS};

/// Iteration indices aligned with an op's loop path, outermost first:
/// the STG's own [`stg::IterVec`], so naming an instance in the STG is a
/// copy. Its capacity [`MAX_NEST`] is the deepest loop nest the
/// scheduler accepts; deeper CDFGs are rejected up front with
/// [`SchedError::NestTooDeep`](crate::SchedError::NestTooDeep).
pub(crate) type Iter = stg::IterVec;

/// Value operands of an instance, in port order: at most the STG's
/// [`MAX_ARGS`], the most any operation takes (a select's).
pub(crate) type Operands = InlineVec<ValSrc, MAX_ARGS>;

/// Interned identity of one operation instance `(OpId, Iter)`.
///
/// Equality is content equality. The numeric order is *allocation*
/// order — deterministic within a run, but not the content order the
/// signature and fold machinery require; use [`cmp_inst`] there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct InstId(u32);

impl InstId {
    /// The condition instance a BDD variable stands for: the variable of
    /// a condition instance is its own number (see [`cond_var`]).
    pub fn of(c: Cond) -> InstId {
        InstId(c.index())
    }
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Iteration indices at or above this bound skip the direct index of
/// [`InstTable`] and go through its hash index, so one runaway index
/// cannot size a row.
const FLAT_MAX: u32 = 1 << 12;

/// Per-schedule interner for operation instances.
///
/// Instances live in a dense id → value table. Shallow instances (at
/// most one iteration index: every lookup the benchmark workloads make,
/// as none of their designs nests loops) are found by direct index: `flat[op][0]` holds the loop-free instance and
/// `flat[op][k + 1]` iteration `k`. Deeper ones are deduplicated by an
/// open-addressing index probed with borrowed `(OpId, &[u32])` keys, so
/// neither a lookup nor a first-time intern allocates per instance.
/// Either way ids are handed out in first-intern order.
#[derive(Debug, Clone)]
pub(crate) struct InstTable {
    values: Vec<(OpId, Iter)>,
    flat: Vec<Vec<u32>>,
    index: Vec<u32>,
    /// Instances held by `index` (the deep ones).
    hashed: usize,
    mask: usize,
}

impl Default for InstTable {
    fn default() -> Self {
        InstTable {
            values: Vec::new(),
            flat: Vec::new(),
            index: vec![EMPTY_SLOT; 64],
            hashed: 0,
            mask: 63,
        }
    }
}

impl InstTable {
    fn hash_of(op: OpId, iter: &[u32]) -> u64 {
        let mut h = FxHasher::default();
        h.write_usize(op.index());
        for &v in iter {
            h.write_u32(v);
        }
        h.finish()
    }

    /// The direct-index position of a shallow iteration vector.
    fn flat_pos(iter: &[u32]) -> Option<usize> {
        match *iter {
            [] => Some(0),
            [k] if k < FLAT_MAX => Some(k as usize + 1),
            _ => None,
        }
    }

    fn push(&mut self, op: OpId, iter: &[u32]) -> u32 {
        let id = u32::try_from(self.values.len()).expect("instance id overflow");
        self.values.push((op, Iter::from_slice(iter)));
        id
    }

    /// Interns `(op, iter)`, returning its stable dense id (ids are
    /// handed out in first-intern order).
    pub fn id(&mut self, op: OpId, iter: &[u32]) -> InstId {
        if let Some(p) = Self::flat_pos(iter) {
            if self.flat.len() <= op.index() {
                self.flat.resize_with(op.index() + 1, Vec::new);
            }
            let row = &mut self.flat[op.index()];
            if row.len() <= p {
                row.resize((p + 1).max(2 * row.len()), EMPTY_SLOT);
            }
            if row[p] == EMPTY_SLOT {
                let id = self.push(op, iter);
                self.flat[op.index()][p] = id;
            }
            return InstId(self.flat[op.index()][p]);
        }
        let mut i = Self::hash_of(op, iter) as usize & self.mask;
        loop {
            let slot = self.index[i];
            if slot == EMPTY_SLOT {
                let id = self.push(op, iter);
                self.index[i] = id;
                self.hashed += 1;
                if (self.hashed + 1) * 4 > self.index.len() * 3 {
                    self.grow();
                }
                return InstId(id);
            }
            let (vop, viter) = &self.values[slot as usize];
            if *vop == op && **viter == *iter {
                return InstId(slot);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The id of `(op, iter)` if it has been interned; never inserts.
    pub fn get(&self, op: OpId, iter: &[u32]) -> Option<InstId> {
        if let Some(p) = Self::flat_pos(iter) {
            let slot = *self.flat.get(op.index())?.get(p)?;
            return (slot != EMPTY_SLOT).then_some(InstId(slot));
        }
        let mut i = Self::hash_of(op, iter) as usize & self.mask;
        loop {
            let slot = self.index[i];
            if slot == EMPTY_SLOT {
                return None;
            }
            let (vop, viter) = &self.values[slot as usize];
            if *vop == op && **viter == *iter {
                return Some(InstId(slot));
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.index.len() * 2;
        self.mask = cap - 1;
        self.index = vec![EMPTY_SLOT; cap];
        for (id, (op, iter)) in self.values.iter().enumerate() {
            if Self::flat_pos(iter).is_some() {
                continue;
            }
            let mut i = Self::hash_of(*op, iter) as usize & self.mask;
            while self.index[i] != EMPTY_SLOT {
                i = (i + 1) & self.mask;
            }
            self.index[i] = id as u32;
        }
    }

    /// The operation of an instance.
    pub fn op(&self, i: InstId) -> OpId {
        self.values[i.0 as usize].0
    }

    /// The iteration vector of an instance.
    pub fn iter_of(&self, i: InstId) -> &Iter {
        &self.values[i.0 as usize].1
    }

    /// Both halves at once.
    pub fn pair(&self, i: InstId) -> (OpId, &Iter) {
        let (op, iter) = &self.values[i.0 as usize];
        (*op, iter)
    }
}

/// Content (schedule-semantic) order of two instances: op id, then
/// iteration vector lexicographically — the order the pre-interning
/// `BTreeMap<(OpId, Iter), _>` keys had.
pub(crate) fn cmp_inst(it: &InstTable, a: InstId, b: InstId) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let (ao, ai) = it.pair(a);
    let (bo, bi) = it.pair(b);
    ao.cmp(&bo).then_with(|| ai.cmp(bi))
}

/// Content order of two keys: instance content, then version.
pub(crate) fn cmp_key(it: &InstTable, a: &Key, b: &Key) -> Ordering {
    cmp_inst(it, a.inst, b.inst).then_with(|| a.version.cmp(&b.version))
}

/// Content order of two value sources, matching the derived `Ord` of the
/// pre-interning enum: constants, then inputs, then keys.
pub(crate) fn cmp_src(it: &InstTable, a: &ValSrc, b: &ValSrc) -> Ordering {
    match (a, b) {
        (ValSrc::Const(x), ValSrc::Const(y)) => x.cmp(y),
        (ValSrc::Const(_), _) => Ordering::Less,
        (_, ValSrc::Const(_)) => Ordering::Greater,
        (ValSrc::Input(x), ValSrc::Input(y)) => x.cmp(y),
        (ValSrc::Input(_), _) => Ordering::Less,
        (_, ValSrc::Input(_)) => Ordering::Greater,
        (ValSrc::Key(x), ValSrc::Key(y)) => cmp_key(it, x, y),
    }
}

/// The loop enclosing `l` at nesting depth `d` (0 = outermost): the
/// loop whose iteration index sits at position `d` of the prefix of a
/// loop context `(l, prefix)`. `None` past `l`'s own depth.
pub(crate) fn loop_ancestor(g: &cdfg::Cdfg, l: LoopId, d: usize) -> Option<LoopId> {
    let parent = |x: LoopId| g.loop_info(x).parent();
    let depth = std::iter::successors(parent(l), |&a| parent(a)).count();
    // The ancestor at depth `d` sits `depth - 1 - d` steps above the
    // innermost enclosing loop.
    std::iter::successors(parent(l), |&a| parent(a)).nth(depth.checked_sub(d + 1)?)
}

/// The shift of loop `l` in a [`Ctx::loop_mins`] basis: its minimum, or
/// 0 for a loop the context does not index.
pub(crate) fn loop_shift(mins: &[u32], l: LoopId) -> i64 {
    match mins.get(l.index()) {
        Some(&m) if m != u32::MAX => i64::from(m),
        _ => 0,
    }
}

/// Identity of one executed value version: operation instance + version.
///
/// Derived `Ord` is `(allocation id, version)` — correct for grouping a
/// sorted-map range scan by instance, wrong for anything content-ordered
/// (use [`cmp_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct Key {
    pub inst: InstId,
    pub version: u32,
}

impl Key {
    pub fn new(inst: InstId, version: u32) -> Self {
        Key { inst, version }
    }

    /// Inclusive range bounds covering every version of `inst`.
    #[cfg(test)]
    pub fn version_range(inst: InstId) -> std::ops::RangeInclusive<Key> {
        Key::new(inst, 0)..=Key::new(inst, u32::MAX)
    }
}

/// Identity of a program-level condition instance (version-independent:
/// all versions of a conditional operation compute the same program
/// value; exactly one is valid on any path).
pub(crate) type CondInst = InstId;

/// Where an operand value comes from. `Copy` post-interning: operand
/// lists move by `memcpy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ValSrc {
    Const(Value),
    Input(InputId),
    Key(Key),
}

/// Filler for the unused slots of an [`Operands`] list; never observed.
impl Default for ValSrc {
    fn default() -> Self {
        ValSrc::Const(0)
    }
}

/// A schedulable conditioned operation instance with fully resolved
/// operand versions — one entry of the paper's `Schedulable_operations`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Candidate {
    pub inst: InstId,
    /// Value operands, in port order.
    pub operands: Operands,
    /// Memory-ordering tokens that must have been produced first
    /// (`None` = bypassed because the ordered-before access is on a
    /// disjoint control path).
    pub tokens: Vec<Option<Key>>,
    /// Speculation condition (Lemma 1 conjunction).
    pub guard: Guard,
}

/// Metadata of an issued value version.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AvailInfo {
    /// Validity guard (cofactored as conditions resolve).
    pub guard: Guard,
    /// Number of further states before the result is architecturally
    /// readable (0 = readable now / from the next state on).
    pub ready_in: u32,
    /// Combinational finish depth within the *current* state; reset to 0
    /// at every state boundary. ≥ 2.0 marks same-state-unreadable
    /// results (non-chainable units).
    pub depth: f64,
    /// Operand sources, kept for dedup and context signatures.
    pub operands: Operands,
}

/// The BDD variable of condition instance `inst`, placed in `mgr`'s
/// variable order by content ([`cmp_inst`]). This is the only place the
/// scheduler decides that order: a guard's structure and its rendering
/// depend on its conditions alone, not on the order they were first
/// referenced in. Content order survives a uniform per-loop iteration
/// shift, so a context and its shifted copy build guards of one shape.
pub(crate) fn cond_var(mgr: &mut BddManager, it: &InstTable, inst: CondInst) -> Cond {
    let c = Cond::new(inst.0);
    mgr.place(c, |a, b| cmp_inst(it, InstId::of(a), InstId::of(b)).is_lt());
    c
}

/// An ordered map kept as one `Vec` of entries sorted by key.
///
/// Lookups are binary searches, [`VecMap::versions`] is one
/// `partition_point`, and iteration runs in ascending key order — the
/// order a `BTreeMap` iterates in, so every walk the schedule can
/// observe is unchanged. Context maps hold tens of entries and are
/// cloned at every branch of a condition split: one contiguous buffer
/// clones as a single allocation and a `memcpy`, where a tree
/// re-allocates node by node.
#[derive(Debug, PartialEq, Hash)]
pub(crate) struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Clone, V: Clone> Clone for VecMap<K, V> {
    fn clone(&self) -> Self {
        VecMap {
            entries: self.entries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

/// The index range of `items`, sorted by `key`, whose keys lie in `range`.
#[cfg(test)]
fn sorted_range<K: Ord, T>(
    items: &[T],
    key: impl Fn(&T) -> &K,
    range: impl RangeBounds<K>,
) -> std::ops::Range<usize> {
    let lo = match range.start_bound() {
        Bound::Included(s) => items.partition_point(|e| key(e) < s),
        Bound::Excluded(s) => items.partition_point(|e| key(e) <= s),
        Bound::Unbounded => 0,
    };
    let hi = match range.end_bound() {
        Bound::Included(e) => items.partition_point(|x| key(x) <= e),
        Bound::Excluded(e) => items.partition_point(|x| key(x) < e),
        Bound::Unbounded => items.len(),
    };
    lo..hi.max(lo)
}

impl<K: Ord, V> VecMap<K, V> {
    /// A map of `entries`, which must have distinct keys, in any order.
    pub fn from_unsorted(mut entries: Vec<(K, V)>) -> Self {
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate keys"
        );
        VecMap { entries }
    }

    /// The entry buffer, for reuse.
    pub fn into_entries(self) -> Vec<(K, V)> {
        self.entries
    }

    /// The entries in order.
    pub fn as_slice(&self) -> &[(K, V)] {
        &self.entries
    }

    fn find(&self, k: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(e, _)| e.cmp(k))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The position of `k` in iteration order, if present.
    pub fn position(&self, k: &K) -> Option<usize> {
        self.find(k).ok()
    }

    pub fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_ok()
    }

    pub fn get(&self, k: &K) -> Option<&V> {
        self.find(k).ok().map(|i| &self.entries[i].1)
    }

    /// Inserts or overwrites `k`, returning the previous value.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.find(&k) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, v)),
            Err(i) => {
                self.entries.insert(i, (k, v));
                None
            }
        }
    }

    /// The value of `k`, inserted as `init()` when absent.
    pub fn get_or_insert_with(&mut self, k: K, init: impl FnOnce() -> V) -> &mut V {
        let i = match self.find(&k) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (k, init()));
                i
            }
        };
        &mut self.entries[i].1
    }

    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.find(k).ok().map(|i| self.entries.remove(i).1)
    }

    /// Keeps the entries `keep` accepts, visiting them in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// The entries whose keys lie in `range`, in order.
    #[cfg(test)]
    pub fn range(&self, range: impl RangeBounds<K>) -> impl Iterator<Item = (&K, &V)> {
        let r = sorted_range(&self.entries, |(k, _)| k, range);
        self.entries[r].iter().map(|(k, v)| (k, v))
    }
}

impl<V> VecMap<Key, V> {
    /// Every version of `inst`, in version order: one binary search for
    /// the instance's first entry, then a scan of its contiguous run.
    pub fn versions(&self, inst: InstId) -> &[(Key, V)] {
        let lo = self.entries.partition_point(|(k, _)| k.inst < inst);
        let run = &self.entries[lo..];
        let n = run.iter().take_while(|(k, _)| k.inst == inst).count();
        &run[..n]
    }
}

impl<K: Ord, V> std::ops::Index<&K> for VecMap<K, V> {
    type Output = V;

    fn index(&self, k: &K) -> &V {
        self.get(k).expect("key present in VecMap")
    }
}

/// An ordered set kept as one sorted `Vec`: the set counterpart of
/// [`VecMap`], with the same lookup, order and fork-cost trade.
#[derive(Debug, Clone, PartialEq, Hash)]
pub(crate) struct VecSet<K> {
    items: Vec<K>,
}

impl<K> Default for VecSet<K> {
    fn default() -> Self {
        VecSet { items: Vec::new() }
    }
}

impl<K: Ord> VecSet<K> {
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn contains(&self, k: &K) -> bool {
        self.items.binary_search(k).is_ok()
    }

    /// Inserts `k`; `false` if it was already present.
    pub fn insert(&mut self, k: K) -> bool {
        match self.items.binary_search(&k) {
            Ok(_) => false,
            Err(i) => {
                self.items.insert(i, k);
                true
            }
        }
    }

    /// Keeps the elements `keep` accepts, visiting them in order.
    pub fn retain(&mut self, keep: impl FnMut(&K) -> bool) {
        self.items.retain(keep);
    }

    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The elements in order.
    pub fn as_slice(&self) -> &[K] {
        &self.items
    }

    pub fn iter(&self) -> std::slice::Iter<'_, K> {
        self.items.iter()
    }

    #[cfg(test)]
    /// The elements in `range`, in order.
    pub fn range(&self, range: impl RangeBounds<K>) -> std::slice::Iter<'_, K> {
        let r = sorted_range(&self.items, |k| k, range);
        self.items[r].iter()
    }
}

/// The `(op, iteration)` pairs of one op that a narrowed sweep event
/// can have changed the candidate generation of, as a predicate over
/// the op's iteration vector, recorded beside the whole-op
/// [`Ctx::sweep_dirty`] marks. Each variant
/// fixes a prefix of the vector; deeper indices are free. A candidate
/// generation records no mark: only its own instance reads what it
/// writes, and a repeat call adds nothing, because the `max_versions`
/// cap counts versions, never a call's widenings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PairMark {
    /// Every pair: a whole-op mark of [`Ctx::sweep_dirty`], as a sweep
    /// pass drains it.
    All,
    /// Each index `d < b.len()` is `b[d]` or `b[d] + 1`: the readers of
    /// an instance issued at `b`, through a wire or a carried edge.
    Near(Iter),
    /// The first `b.len()` indices are lexicographically at least `b`:
    /// the pairs whose guards can mention a condition instance that
    /// resolved at `b`.
    From(Iter),
    /// `iter[..prefix.len()] == prefix` and the next index lies in
    /// `lo..=hi`: pairs a window growth made enumerable.
    Span { prefix: Iter, lo: u32, hi: u32 },
}

impl PairMark {
    /// Whether the mark covers the pair at `iter` (an iteration vector
    /// at least as deep as the mark's prefix).
    pub fn covers(&self, iter: &[u32]) -> bool {
        match self {
            PairMark::All => true,
            PairMark::Near(b) => b.iter().zip(iter).all(|(&b, &i)| i.wrapping_sub(b) <= 1),
            PairMark::From(b) => iter[..b.len()] >= **b,
            PairMark::Span { prefix, lo, hi } => {
                let d = prefix.len();
                iter[..d] == **prefix && (*lo..=*hi).contains(&iter[d])
            }
        }
    }
}

/// The scheduler's knowledge at a state boundary.
///
/// Every collection is an owned, flat field: a [`VecMap`] or [`VecSet`]
/// is one buffer sorted by key, so the copy `partition` makes for a
/// branch of a condition split is one allocation and a `memcpy` per
/// collection, and iteration runs in the ascending key order every
/// section of the signature and every sweep drain relies on.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Ctx {
    /// Issued value versions and their validity guards.
    pub avail: VecMap<Key, AvailInfo>,
    /// Schedulable conditioned instances.
    pub cands: Vec<Candidate>,
    /// Instances whose consumption is decided: a version with a
    /// constant-true guard was issued, so no further version can be
    /// valid on this path.
    pub done: VecSet<InstId>,
    /// Outstanding side-effect obligations: instantiated effectful
    /// instances (memory writes, outputs) not yet validly executed.
    pub obligations: VecMap<InstId, Guard>,
    /// Computed-but-unresolved condition versions: key, validity guard,
    /// states until the result is ready.
    pub pending_conds: Vec<(Key, Guard, u32)>,
    /// Resolution history on this path (pruned to the live window).
    pub resolved: VecMap<CondInst, bool>,
    /// Busy non-pipelined units: class → remaining-state counts.
    pub fu_busy: VecMap<FuClass, Vec<u32>>,
    /// Per loop context (loop, outer iteration prefix): highest iteration
    /// index instantiated so far.
    pub horizon: VecMap<(LoopId, Iter), u32>,
    /// Per loop context: all continue-condition instances below this
    /// index are known true on this path. Lets resolution history below
    /// the live window be pruned (else steady states would never fold).
    pub floor: VecMap<(LoopId, Iter), u32>,
    /// Per loop context: every direct-member instance below this index is
    /// already executed or control-dead. The candidate window never goes
    /// below it, and `done` entries under it can be pruned — the pair of
    /// facts that keeps lagging work schedulable without unbounded
    /// bookkeeping.
    pub work_floor: VecMap<(LoopId, Iter), u32>,
    /// Loop-exit order tokens whose serialization chain settled during
    /// the current state *and* whose producing loop is proven exited on
    /// this path, awaiting promotion to [`Ctx::discharged`] at the next
    /// state boundary. The recorded key (if any) is the predecessor
    /// token that settled the chain, kept so same-state port exclusivity
    /// still applies until the boundary.
    pub exit_pending: VecMap<InstId, Option<Key>>,
    /// Exit-pass instances whose order token is permanently discharged
    /// on this path: the producing loop exited and its serialization
    /// chain settled in an earlier state, so consumers no longer carry a
    /// token constraint. This is the fact that survives after the
    /// producing loop's resolution history and floors are pruned —
    /// without it, re-deriving the exit token from pruned history
    /// deadlocks every post-loop access.
    pub discharged: VecSet<InstId>,
    /// Sweep event feed: operations whose candidate-generation inputs
    /// changed on this path since the last sweep drained them (an
    /// issue, gc, discharge, horizon or cofactor event; a generation
    /// itself marks nothing, see [`PairMark`]). The
    /// incremental Fig.-12 sweep regenerates candidates only for these
    /// ops instead of rescanning the whole graph each pass. A sorted set
    /// so the drain order is deterministic (op index order, the same
    /// order the legacy full scan used). Not part of the canonical
    /// signature: two contexts with equal schedules but different dirty
    /// sets still fold — a folded context's dirty set is discarded, and
    /// quiescence at state boundaries makes that sound.
    pub sweep_dirty: VecSet<OpId>,
    /// Sweep-domain baseline: the `(lo, hi)` candidate iteration window
    /// per loop context the last sweep ran against. Window growth
    /// (horizon/lookahead raised `hi`, floor retreat lowered `lo`, or a
    /// new loop context appeared) is itself a sweep event — the loop's
    /// member ops must regenerate even though none of their operands
    /// changed. Not part of the canonical signature (it is derivable
    /// bookkeeping, like `sweep_dirty`).
    pub sweep_domain: VecMap<(LoopId, Iter), (u32, u32)>,
}

impl Ctx {
    /// Applies end-of-state timing: depths reset, multi-cycle results get
    /// one state closer to ready, busy units tick down. Pending loop-exit
    /// discharges become permanent here — promotion at the state boundary
    /// keeps same-state port exclusivity intact (a consumer relaxed by a
    /// discharge can only issue in a *later* state than the predecessor
    /// access it was ordered after).
    pub fn tick(&mut self) {
        for inst in std::mem::take(&mut self.exit_pending).keys() {
            self.discharged.insert(*inst);
        }
        for info in self.avail.values_mut() {
            info.depth = 0.0;
            info.ready_in = info.ready_in.saturating_sub(1);
        }
        for (_, _, r) in &mut self.pending_conds {
            *r = r.saturating_sub(1);
        }
        for v in self.fu_busy.values_mut() {
            for r in v.iter_mut() {
                *r -= 1;
            }
            v.retain(|&r| r > 0);
        }
    }

    /// Cofactors every guard in the context by `cond = value`, in place,
    /// dropping entries whose guard collapses to false (Step 2 of Sec.
    /// 4.3: invalidated speculations are removed so they stop sourcing
    /// successors). Survivors keep their order.
    pub fn cofactor(&mut self, mgr: &mut BddManager, var: Cond, value: bool, inst: CondInst) {
        self.resolved.insert(inst, value);
        let mut keep = |g: &mut Guard| {
            *g = mgr.cofactor(*g, var, value);
            !g.is_false()
        };
        self.avail.retain(|_, info| keep(&mut info.guard));
        self.cands.retain_mut(|c| keep(&mut c.guard));
        self.obligations.retain(|_, g| keep(g));
        self.pending_conds.retain_mut(|(_, g, _)| keep(g));
    }

    /// The minimum iteration index in use per loop, across the whole
    /// context, into `mins` (indexed by loop, `u32::MAX` where no
    /// instance is indexed by the loop); used by normalization. `supp`
    /// is scratch for guard supports.
    fn collect_loop_mins(
        &self,
        g: &cdfg::Cdfg,
        mgr: &mut BddManager,
        it: &InstTable,
        mins: &mut [u32],
        supp: &mut Vec<Cond>,
    ) {
        let mut note = |inst: InstId| {
            let (op, iter) = it.pair(inst);
            for (&l, &v) in g.op(op).loop_path().iter().zip(iter.iter()) {
                let e = &mut mins[l.index()];
                *e = (*e).min(v);
            }
        };
        let mut note_guard = |gd: Guard, note: &mut dyn FnMut(InstId)| {
            mgr.support_into(gd, supp);
            for &c in supp.iter() {
                note(InstId::of(c));
            }
        };
        let note_keys = |srcs: &Operands, note: &mut dyn FnMut(InstId)| {
            for o in srcs {
                if let ValSrc::Key(kk) = o {
                    note(kk.inst);
                }
            }
        };
        for (k, info) in self.avail.iter() {
            note(k.inst);
            note_guard(info.guard, &mut note);
            note_keys(&info.operands, &mut note);
        }
        for c in self.cands.iter() {
            note(c.inst);
            note_guard(c.guard, &mut note);
            note_keys(&c.operands, &mut note);
        }
        for (inst, gd) in self.obligations.iter() {
            note(*inst);
            note_guard(*gd, &mut note);
        }
        for (k, gd, _) in self.pending_conds.iter() {
            note(k.inst);
            note_guard(*gd, &mut note);
        }
    }

    /// Keys of `avail` in content order, into `out` — the canonical order
    /// the signature renders and fold renames zip by. (The map's own
    /// order is interner-allocation order, which differs between
    /// contexts that discovered equivalent instances at different times.)
    pub fn canonical_keys(&self, it: &InstTable, out: &mut Vec<Key>) {
        out.clear();
        out.extend(self.avail.keys().copied());
        // Keys are distinct and content order is total on them, so the
        // unstable sort is exact.
        out.sort_unstable_by(|a, b| cmp_key(it, a, b));
    }

    /// The canonical per-loop shift basis both signature renderers use,
    /// into `mins` (indexed by loop; read it through [`loop_shift`]):
    /// minimum live iteration index per loop, with loops that have no
    /// live indexed instance (typically: just exited) anchored at their
    /// floor so exit states of different iteration counts fold. Floors
    /// only ever advance, so this is a stable basis.
    pub(crate) fn loop_mins(
        &self,
        g: &cdfg::Cdfg,
        mgr: &mut BddManager,
        it: &InstTable,
        mins: &mut Vec<u32>,
        supp: &mut Vec<Cond>,
    ) {
        mins.clear();
        mins.resize(g.loops().len(), u32::MAX);
        self.collect_loop_mins(g, mgr, it, mins, supp);
        for ((l, _), f) in self.floor.iter() {
            let e = &mut mins[l.index()];
            if *e == u32::MAX {
                *e = *f;
            }
        }
    }

    /// Canonical signature of the context modulo a uniform per-loop
    /// iteration shift, plus the per-loop minimum indices needed to
    /// derive fold renames.
    ///
    /// Two contexts are schedule-equivalent iff their signatures are
    /// equal; the rename map for a fold edge shifts every key by the
    /// difference of the two contexts' minimums. Stale bookkeeping
    /// entries (resolution history below the live window) are rendered
    /// with signed indices, so they can only *prevent* a fold, never
    /// cause an unsound one.
    ///
    /// Every section is rendered in *content* order (see
    /// [`Ctx::canonical_keys`]), so signature equality is set equality of
    /// rendered entries regardless of interner allocation order.
    ///
    /// Since the token-stream [`Ctx::signature_hash`] took over the fold
    /// index, this renderer survives only as the test oracle for the
    /// token scheme's equality relation.
    #[cfg(test)]
    pub fn signature(
        &self,
        g: &cdfg::Cdfg,
        mgr: &mut BddManager,
        it: &InstTable,
    ) -> (String, Vec<u32>) {
        let mut mins = Vec::new();
        self.loop_mins(g, mgr, it, &mut mins, &mut Vec::new());
        let shift_iter = |op: OpId, iter: &[u32]| -> Vec<i64> {
            let path = g.op(op).loop_path();
            iter.iter()
                .enumerate()
                .map(|(d, &v)| i64::from(v) - loop_shift(&mins, path[d]))
                .collect()
        };
        let mut avail_sorted = Vec::new();
        self.canonical_keys(it, &mut avail_sorted);
        // Canonical version renumbering: versions are ranked densely per
        // instance in issue order, so contexts that differ only in how
        // many retired versions preceded the live ones still fold.
        let mut vrank: FxHashMap<Key, u32> = FxHashMap::default();
        {
            let mut counts: FxHashMap<InstId, u32> = FxHashMap::default();
            for k in &avail_sorted {
                let c = counts.entry(k.inst).or_insert(0);
                vrank.insert(*k, *c);
                *c += 1;
            }
        }
        let fmt_key = |k: &Key| -> String {
            let v = vrank.get(k).copied().unwrap_or(k.version);
            let (op, iter) = it.pair(k.inst);
            format!("{}@{:?}v{}", op, shift_iter(op, iter), v)
        };
        let fmt_src = |s: &ValSrc| -> String {
            match s {
                ValSrc::Const(v) => format!("#{v}"),
                ValSrc::Input(i) => format!("{i}"),
                ValSrc::Key(k) => fmt_key(k),
            }
        };
        let fmt_guard = |gd: Guard| -> String {
            mgr.to_sop_string(gd, &|c: Cond| {
                let (op, iter) = it.pair(InstId::of(c));
                format!("{}@{:?}", op, shift_iter(op, iter))
            })
        };

        let mut s = String::new();
        use std::fmt::Write as _;
        for k in &avail_sorted {
            let info = &self.avail[k];
            let _ = write!(
                s,
                "A{}:{}r{};",
                fmt_key(k),
                fmt_guard(info.guard),
                info.ready_in
            );
            for o in &info.operands {
                let _ = write!(s, "{},", fmt_src(o));
            }
        }
        let mut cand_strs: Vec<String> = self
            .cands
            .iter()
            .map(|c| {
                let ops = c
                    .operands
                    .iter()
                    .map(&fmt_src)
                    .collect::<Vec<_>>()
                    .join(",");
                let toks = c
                    .tokens
                    .iter()
                    .map(|t| t.as_ref().map(&fmt_key).unwrap_or_else(|| "-".into()))
                    .collect::<Vec<_>>()
                    .join(",");
                let (op, iter) = it.pair(c.inst);
                format!(
                    "C{}@{:?}({ops})[{toks}]:{};",
                    op,
                    shift_iter(op, iter),
                    fmt_guard(c.guard)
                )
            })
            .collect();
        cand_strs.sort();
        for c in cand_strs {
            s.push_str(&c);
        }
        let mut obls: Vec<(InstId, Guard)> =
            self.obligations.iter().map(|(i, g)| (*i, *g)).collect();
        obls.sort_by(|a, b| cmp_inst(it, a.0, b.0));
        for (inst, gd) in obls {
            let (op, iter) = it.pair(inst);
            let _ = write!(s, "O{}@{:?}:{};", op, shift_iter(op, iter), fmt_guard(gd));
        }
        for (k, gd, r) in self.pending_conds.iter() {
            let _ = write!(s, "P{}:{}r{r};", fmt_key(k), fmt_guard(*gd));
        }
        let mut res: Vec<(InstId, bool)> = self.resolved.iter().map(|(i, v)| (*i, *v)).collect();
        res.sort_by(|a, b| cmp_inst(it, a.0, b.0));
        for (inst, v) in res {
            let (op, iter) = it.pair(inst);
            let _ = write!(s, "R{}@{:?}={};", op, shift_iter(op, iter), v);
        }
        let mut done: Vec<InstId> = self.done.iter().copied().collect();
        done.sort_by(|a, b| cmp_inst(it, *a, *b));
        for inst in done {
            let (op, iter) = it.pair(inst);
            let _ = write!(s, "D{}@{:?};", op, shift_iter(op, iter));
        }
        let mut disc: Vec<InstId> = self.discharged.iter().copied().collect();
        disc.sort_by(|a, b| cmp_inst(it, *a, *b));
        for inst in disc {
            let (op, iter) = it.pair(inst);
            let _ = write!(s, "X{}@{:?};", op, shift_iter(op, iter));
        }
        let mut pend: Vec<(InstId, Option<Key>)> =
            self.exit_pending.iter().map(|(i, k)| (*i, *k)).collect();
        pend.sort_by(|a, b| cmp_inst(it, a.0, b.0));
        for (inst, tok) in pend {
            let (op, iter) = it.pair(inst);
            let t = tok.as_ref().map(fmt_key).unwrap_or_else(|| "-".into());
            let _ = write!(s, "E{}@{:?}>{t};", op, shift_iter(op, iter));
        }
        for (class, busy) in self.fu_busy.iter() {
            let _ = write!(s, "F{class}:{busy:?};");
        }
        let shifted_prefix = |l: LoopId, pre: &Iter| -> Vec<i64> {
            pre.iter()
                .enumerate()
                .map(|(d, &v)| {
                    let shift = loop_ancestor(g, l, d).map_or(0, |a| loop_shift(&mins, a));
                    i64::from(v) - shift
                })
                .collect()
        };
        for ((l, pre), h) in self.horizon.iter() {
            // Shift the horizon by the loop's own min, and the outer
            // prefix by each ancestor loop's min.
            let pre_shifted = shifted_prefix(*l, pre);
            let hs = i64::from(*h) - loop_shift(&mins, *l);
            let _ = write!(s, "H{l}@{pre_shifted:?}:{hs};");
        }
        for ((l, pre), fl) in self.floor.iter() {
            let pre_shifted = shifted_prefix(*l, pre);
            let fs = i64::from(*fl) - loop_shift(&mins, *l);
            let _ = write!(s, "L{l}@{pre_shifted:?}:{fs};");
        }
        for ((l, pre), wf) in self.work_floor.iter() {
            let pre_shifted = shifted_prefix(*l, pre);
            let ws_ = i64::from(*wf) - loop_shift(&mins, *l);
            let _ = write!(s, "W{l}@{pre_shifted:?}:{ws_};");
        }
        (s, mins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::{CdfgBuilder, OpKind, Src};
    use spec_support::props;
    use spec_support::proptest_lite as pl;

    fn loop_cdfg() -> cdfg::Cdfg {
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

    fn inc_op(g: &cdfg::Cdfg) -> OpId {
        g.ops()
            .iter()
            .find(|o| o.kind() == OpKind::Inc)
            .unwrap()
            .id()
    }

    #[test]
    fn inst_table_interns_and_resolves() {
        let mut it = InstTable::default();
        let a = it.id(OpId::new(3), &[0, 1]);
        let b = it.id(OpId::new(3), &[0, 1]);
        assert_eq!(a, b, "same content, same id");
        let c = it.id(OpId::new(3), &[0, 2]);
        assert_ne!(a, c);
        assert_eq!(it.op(a), OpId::new(3));
        assert_eq!(**it.iter_of(c), [0, 2]);
        assert_eq!(it.get(OpId::new(3), &[0, 1]), Some(a));
        assert_eq!(it.get(OpId::new(9), &[0]), None);
        // Survives growth past the initial index capacity.
        for i in 0..500u32 {
            it.id(OpId::new(7), &[i, 1]);
        }
        assert_eq!(it.get(OpId::new(3), &[0, 1]), Some(a));
        assert_eq!(
            **it.iter_of(it.get(OpId::new(7), &[499, 1]).unwrap()),
            [499, 1]
        );
    }

    #[test]
    fn pair_marks_cover_their_pairs() {
        let it = |v: &[u32]| Iter::from_slice(v);
        let near = PairMark::Near(it(&[3, 5]));
        for (iter, covered) in [
            (&[3, 5, 9][..], true),
            (&[4, 6, 0], true),
            (&[3, 6, 1], true),
            (&[2, 5, 0], false),
            (&[3, 7, 0], false),
            (&[5, 5, 0], false),
        ] {
            assert_eq!(near.covers(iter), covered, "Near {iter:?}");
        }
        let from = PairMark::From(it(&[2, 4]));
        for (iter, covered) in [
            (&[2, 4][..], true),
            (&[2, 9], true),
            (&[3, 0], true),
            (&[2, 3], false),
            (&[1, 9], false),
        ] {
            assert_eq!(from.covers(iter), covered, "From {iter:?}");
        }
        let span = PairMark::Span {
            prefix: it(&[7]),
            lo: 2,
            hi: 3,
        };
        for (iter, covered) in [
            (&[7, 2][..], true),
            (&[7, 3, 8], true),
            (&[7, 4], false),
            (&[7, 1], false),
            (&[6, 2], false),
        ] {
            assert_eq!(span.covers(iter), covered, "Span {iter:?}");
        }
        assert!(PairMark::All.covers(&[]));
        assert!(PairMark::Near(it(&[])).covers(&[9]), "no shared loop");
    }

    #[test]
    fn inst_table_direct_index_keeps_first_intern_order() {
        // Shallow instances take the direct index, deep ones and huge
        // indices the hash index; ids interleave in first-intern order
        // across both.
        let mut it = InstTable::default();
        let insts: [(u32, &[u32]); 6] = [
            (4, &[2]),
            (4, &[0, 0]),
            (9, &[]),
            (4, &[FLAT_MAX + 3]),
            (1, &[7]),
            (4, &[0]),
        ];
        for (n, (op, iter)) in insts.iter().enumerate() {
            assert_eq!(it.get(OpId::new(*op), iter), None);
            let id = it.id(OpId::new(*op), iter);
            assert_eq!(id, InstId(n as u32), "first-intern order");
        }
        for (n, (op, iter)) in insts.iter().enumerate() {
            let id = InstId(n as u32);
            assert_eq!(it.id(OpId::new(*op), iter), id);
            assert_eq!(it.get(OpId::new(*op), iter), Some(id));
            assert_eq!(it.pair(id), (OpId::new(*op), &Iter::from_slice(iter)));
        }
        assert_eq!(it.get(OpId::new(4), &[1]), None, "a gap in a row");
        assert_eq!(it.get(OpId::new(4), &[40]), None, "past a row's end");
        assert_eq!(it.get(OpId::new(30), &[]), None, "past the last row");
    }

    fn fx<T: Hash + ?Sized>(x: &T) -> u64 {
        let mut h = FxHasher::default();
        x.hash(&mut h);
        h.finish()
    }

    /// Small values make equal elements common; full-range ones reach
    /// every bit of the hash.
    fn arb_index() -> pl::Gen<u32> {
        pl::one_of(vec![pl::range(0u32..3), pl::range(0u32..u32::MAX)])
    }

    fn arb_src() -> pl::Gen<ValSrc> {
        pl::one_of(vec![
            pl::range(-2i64..3).map(ValSrc::Const),
            pl::range(0u32..3).map(|i| ValSrc::Input(InputId::new(i))),
            pl::tuple2(pl::range(0u32..3), pl::range(0u32..3))
                .map(|(i, v)| ValSrc::Key(Key::new(InstId(i), v))),
        ])
    }

    /// The second operand of a comparison: `b` itself, or `a` or a
    /// prefix of it, so equal and prefix-ordered pairs are common.
    fn partner<T: Clone>(a: &[T], b: &[T], pick: u32) -> Vec<T> {
        match pick {
            0 => a.to_vec(),
            1 => a[..a.len() / 2].to_vec(),
            _ => b.to_vec(),
        }
    }

    props! {
        /// An inline iteration vector compares, orders, hashes and
        /// prints exactly like the `Vec<u32>` with the same elements, so
        /// map orders, signatures and FxHash values do not depend on it.
        fn iter_behaves_like_vec(
            a in pl::vec_of(arb_index(), 0..MAX_NEST + 1),
            b in pl::vec_of(arb_index(), 0..MAX_NEST + 1),
            pick in pl::range(0u32..3),
        ) {
            let b = partner(&a, &b, pick);
            let (ia, ib) = (Iter::from_slice(&a), Iter::from_slice(&b));
            assert_eq!(ia.cmp(&ib), a.cmp(&b));
            assert_eq!(ia == ib, a == b);
            assert_eq!(fx(&ia), fx(&a));
            assert_eq!(format!("{ia:?}"), format!("{a:?}"));
            assert_eq!(a.iter().copied().collect::<Iter>(), ia);
        }

        /// The same for operand lists against `Vec<ValSrc>`.
        fn operands_behave_like_vec(
            a in pl::vec_of(arb_src(), 0..MAX_ARGS + 1),
            b in pl::vec_of(arb_src(), 0..MAX_ARGS + 1),
            pick in pl::range(0u32..3),
        ) {
            let b = partner(&a, &b, pick);
            let (oa, ob) = (Operands::from_slice(&a), Operands::from_slice(&b));
            assert_eq!(oa == ob, a == b);
            assert_eq!(fx(&oa), fx(&a));
            assert_eq!(format!("{oa:?}"), format!("{a:?}"));
        }
    }

    /// One step of a random map/set workload over small keys, so hits,
    /// misses and same-instance version runs are all common.
    #[derive(Debug, Clone)]
    enum MapOp {
        Insert(Key, u32),
        Remove(Key),
        Get(Key),
        /// Keep entries whose version is not divisible by `.0`.
        Retain(u32),
        /// Every version of one instance, as the scheduler ranges.
        Range(InstId),
        /// Get-or-insert, then bump the value.
        Bump(Key),
    }

    fn arb_key() -> pl::Gen<Key> {
        pl::tuple2(pl::range(0u32..5), pl::range(0u32..4)).map(|(i, v)| Key::new(InstId(i), v))
    }

    fn arb_map_op() -> pl::Gen<MapOp> {
        pl::one_of(vec![
            pl::tuple2(arb_key(), pl::range(0u32..100)).map(|(k, v)| MapOp::Insert(k, v)),
            arb_key().map(MapOp::Remove),
            arb_key().map(MapOp::Get),
            pl::range(2u32..4).map(MapOp::Retain),
            pl::range(0u32..6).map(|i| MapOp::Range(InstId(i))),
            arb_key().map(MapOp::Bump),
        ])
    }

    props! {
        /// The sorted-vector map and set answer every operation the
        /// scheduler uses exactly as `BTreeMap`/`BTreeSet` do, and iterate
        /// in the same order after every step.
        fn vec_collections_behave_like_btree(ops in pl::vec_of(arb_map_op(), 0..40)) {
            use std::collections::{BTreeMap, BTreeSet};
            let mut map: VecMap<Key, u32> = VecMap::default();
            let mut bmap: BTreeMap<Key, u32> = BTreeMap::new();
            let mut set: VecSet<Key> = VecSet::default();
            let mut bset: BTreeSet<Key> = BTreeSet::new();
            for op in &ops {
                match *op {
                    MapOp::Insert(k, v) => {
                        assert_eq!(map.insert(k, v), bmap.insert(k, v));
                        assert_eq!(set.insert(k), bset.insert(k));
                    }
                    MapOp::Remove(k) => {
                        assert_eq!(map.remove(&k), bmap.remove(&k));
                    }
                    MapOp::Get(k) => {
                        assert_eq!(map.get(&k), bmap.get(&k));
                        assert_eq!(map.contains_key(&k), bmap.contains_key(&k));
                        assert_eq!(map.position(&k), bmap.keys().position(|x| *x == k));
                        assert_eq!(set.contains(&k), bset.contains(&k));
                    }
                    MapOp::Retain(m) => {
                        map.retain(|k, _| k.version % m != 0);
                        bmap.retain(|k, _| k.version % m != 0);
                        set.retain(|k| k.version % m != 0);
                        bset.retain(|k| k.version % m != 0);
                    }
                    MapOp::Range(i) => {
                        let r = Key::version_range(i);
                        assert!(map.range(r.clone()).eq(bmap.range(r.clone())));
                        let versions = map.versions(i).iter().map(|(k, v)| (k, v));
                        assert!(versions.eq(bmap.range(r.clone())));
                        assert!(set.range(r.clone()).eq(bset.range(r)));
                    }
                    MapOp::Bump(k) => {
                        *map.get_or_insert_with(k, || 7) += 1;
                        *bmap.entry(k).or_insert(7) += 1;
                    }
                }
                assert_eq!(map.len(), bmap.len());
                assert!(map.iter().eq(bmap.iter()));
                assert!(set.iter().eq(bset.iter()));
                assert_eq!(set.len(), bset.len());
            }
        }
    }

    #[test]
    #[should_panic]
    fn iter_rejects_a_level_past_capacity() {
        let mut full = Iter::from_slice(&[0; MAX_NEST]);
        full.push(0);
    }

    #[test]
    fn cmp_inst_is_content_order() {
        let mut it = InstTable::default();
        // Intern in reverse content order: allocation order ≠ content
        // order, content comparison must still sort correctly.
        let hi = it.id(OpId::new(5), &[3]);
        let lo = it.id(OpId::new(5), &[1]);
        let other = it.id(OpId::new(2), &[9]);
        assert_eq!(cmp_inst(&it, lo, hi), Ordering::Less);
        assert_eq!(cmp_inst(&it, other, lo), Ordering::Less, "op id first");
        assert_eq!(cmp_inst(&it, hi, hi), Ordering::Equal);
        let ka = Key::new(lo, 1);
        let kb = Key::new(lo, 2);
        assert_eq!(cmp_key(&it, &ka, &kb), Ordering::Less);
        assert_eq!(
            cmp_src(&it, &ValSrc::Const(7), &ValSrc::Key(ka)),
            Ordering::Less
        );
    }

    #[test]
    fn tick_advances_timing() {
        let mut it = InstTable::default();
        let mut ctx = Ctx::default();
        ctx.avail.insert(
            Key::new(it.id(OpId::new(0), &[]), 0),
            AvailInfo {
                guard: Guard::TRUE,
                ready_in: 2,
                depth: 1.0,
                operands: Operands::new(),
            },
        );
        ctx.fu_busy.insert(FuClass::Multiplier, vec![2, 1]);
        let pass = it.id(OpId::new(7), &[]);
        ctx.exit_pending.insert(pass, None);
        ctx.tick();
        let info = ctx.avail.values().next().unwrap();
        assert_eq!(info.ready_in, 1);
        assert_eq!(info.depth, 0.0);
        assert_eq!(ctx.fu_busy[&FuClass::Multiplier], vec![1]);
        assert!(
            ctx.exit_pending.is_empty() && ctx.discharged.contains(&pass),
            "pending exit discharges promote at the state boundary"
        );
    }

    #[test]
    fn cofactor_drops_invalidated() {
        let mut mgr = BddManager::new();
        let mut it = InstTable::default();
        let inst = it.id(OpId::new(5), &[0]);
        let var = cond_var(&mut mgr, &it, inst);
        let other = it.id(OpId::new(5), &[1]);
        let other = cond_var(&mut mgr, &it, other);
        let (t, f) = (mgr.literal(var, true), mgr.literal(var, false));
        let o = mgr.literal(other, true);
        let t_and_o = mgr.and(t, o);
        // Each guard and what cofactoring by `var = true` leaves of it:
        // validated, invalidated (dropped), narrowed, untouched.
        let cases = [
            (t, Some(Guard::TRUE)),
            (f, None),
            (t_and_o, Some(o)),
            (o, Some(o)),
        ];
        let mut ctx = Ctx::default();
        for (n, &(gd, _)) in cases.iter().enumerate() {
            let n = n as u32;
            let key = Key::new(it.id(OpId::new(1), &[n]), 0);
            let info = AvailInfo {
                guard: gd,
                ready_in: 0,
                depth: 0.0,
                operands: Operands::new(),
            };
            ctx.avail.insert(key, info);
            ctx.obligations.insert(it.id(OpId::new(2), &[n]), gd);
        }
        // The vectors are filled in reverse, against the maps' key
        // order, so a survivor that moved would show.
        for (n, &(gd, _)) in cases.iter().enumerate().rev() {
            let n = n as u32;
            ctx.cands.push(Candidate {
                inst: it.id(OpId::new(1), &[n]),
                operands: Operands::new(),
                tokens: Vec::new(),
                guard: gd,
            });
            ctx.pending_conds
                .push((Key::new(it.id(OpId::new(3), &[n]), 0), gd, n));
        }
        ctx.cofactor(&mut mgr, var, true, inst);

        let want: Vec<(u32, Guard)> = (0u32..)
            .zip(cases)
            .filter_map(|(n, (_, after))| Some((n, after?)))
            .collect();
        let want_rev: Vec<(u32, Guard)> = want.iter().rev().copied().collect();
        let at = |i: InstId| it.iter_of(i)[0];
        let avail: Vec<_> = ctx
            .avail
            .iter()
            .map(|(k, i)| (at(k.inst), i.guard))
            .collect();
        assert_eq!(avail, want, "avail");
        let obls: Vec<_> = ctx.obligations.iter().map(|(i, g)| (at(*i), *g)).collect();
        assert_eq!(obls, want, "obligations");
        let cands: Vec<_> = ctx.cands.iter().map(|c| (at(c.inst), c.guard)).collect();
        assert_eq!(cands, want_rev, "cands");
        let pend: Vec<_> = ctx
            .pending_conds
            .iter()
            .map(|(k, g, _)| (at(k.inst), *g))
            .collect();
        assert_eq!(pend, want_rev, "pending_conds");
        assert!(ctx.pending_conds.iter().all(|(k, _, r)| at(k.inst) == *r));
        assert_eq!(ctx.resolved.get(&inst), Some(&true));
    }

    #[test]
    fn signature_folds_shifted_iterations() {
        let g = loop_cdfg();
        let op = inc_op(&g);
        let mut mgr = BddManager::new();
        let mut it = InstTable::default();
        let mk = |iters: &[u32], it: &mut InstTable| -> Ctx {
            let mut ctx = Ctx::default();
            for &i in iters {
                ctx.avail.insert(
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
        let (sig_a, mins_a) = a.signature(&g, &mut mgr, &it);
        let (sig_b, mins_b) = b.signature(&g, &mut mgr, &it);
        assert_eq!(sig_a, sig_b, "uniformly shifted contexts fold");
        assert_eq!(mins_a[lp.index()], 3);
        assert_eq!(mins_b[lp.index()], 7);
        let c = mk(&[3, 5], &mut it);
        let (sig_c, _) = c.signature(&g, &mut mgr, &it);
        assert_ne!(sig_a, sig_c, "non-uniform spacing does not fold");
    }

    #[test]
    fn signature_canonical_under_allocation_order() {
        // Two contexts with identical content whose instances were
        // interned in different orders must produce identical signatures.
        let g = loop_cdfg();
        let op = inc_op(&g);
        let mut mgr = BddManager::new();
        let mut it = InstTable::default();
        // Context A interns [0] then [1]; context B reuses them but
        // inserts in reverse — plus fresh instances interned later with
        // *smaller* content indices than existing ones.
        let add = |ctx: &mut Ctx, id: InstId| {
            ctx.avail.insert(
                Key::new(id, 0),
                AvailInfo {
                    guard: Guard::TRUE,
                    ready_in: 0,
                    depth: 0.0,
                    operands: Operands::new(),
                },
            );
        };
        let i1 = it.id(op, &[4]);
        let i0 = it.id(op, &[3]); // allocated later, sorts earlier
        let mut a = Ctx::default();
        add(&mut a, i0);
        add(&mut a, i1);
        let mut b = Ctx::default();
        add(&mut b, i1);
        add(&mut b, i0);
        let (sa, _) = a.signature(&g, &mut mgr, &it);
        let (sb, _) = b.signature(&g, &mut mgr, &it);
        assert_eq!(sa, sb);
        let (mut ck, mut ck_b) = (Vec::new(), Vec::new());
        a.canonical_keys(&it, &mut ck);
        b.canonical_keys(&it, &mut ck_b);
        assert_eq!(ck, ck_b);
        // Canonical keys are content-sorted even though id order differs.
        assert_eq!(ck[0].inst, i0);
        assert_eq!(ck[1].inst, i1);
    }

    #[test]
    fn signature_distinguishes_guards() {
        let g = loop_cdfg();
        let op = inc_op(&g);
        let cond = g.loops()[0].cond();
        let mut mgr = BddManager::new();
        let mut it = InstTable::default();
        let inst = it.id(cond, &[0]);
        let var = cond_var(&mut mgr, &it, inst);
        let lit = mgr.literal(var, true);
        let key = Key::new(it.id(op, &[0]), 0);
        let mk = |gd: Guard| -> Ctx {
            let mut ctx = Ctx::default();
            ctx.avail.insert(
                key,
                AvailInfo {
                    guard: gd,
                    ready_in: 0,
                    depth: 0.0,
                    operands: Operands::new(),
                },
            );
            ctx
        };
        let (sa, _) = mk(Guard::TRUE).signature(&g, &mut mgr, &it);
        let (sb, _) = mk(lit).signature(&g, &mut mgr, &it);
        assert_ne!(sa, sb);
    }
}
