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
//! [`MAX_NEST`] loop levels and [`MAX_ARITY`] operands — and the
//! resolution walk copies them at every step. Both are
//! [`stg::InlineVec`]s: `Copy` arrays with a length, so a prefix copy, an
//! operand-list clone or naming an instance in the STG is a `memcpy`,
//! never a heap allocation.

use cdfg::{InputId, LoopId, OpId, Value};
use guards::{BddManager, Cond, Guard};
use hls_resources::FuClass;
use spec_support::fxhash::{FxHashMap, FxHasher};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;
use stg::InlineVec;
pub(crate) use stg::MAX_NEST;

/// Most operands any operation takes ([`cdfg::OpKind::arity`] of a
/// select): the capacity of [`Operands`].
pub(crate) const MAX_ARITY: usize = 3;

/// Iteration indices aligned with an op's loop path, outermost first:
/// the STG's own [`stg::IterVec`], so naming an instance in the STG is a
/// copy. Its capacity [`MAX_NEST`] is the deepest loop nest the
/// scheduler accepts; deeper CDFGs are rejected up front with
/// [`SchedError::NestTooDeep`](crate::SchedError::NestTooDeep).
pub(crate) type Iter = stg::IterVec;

/// Value operands of an instance, in port order.
pub(crate) type Operands = InlineVec<ValSrc, MAX_ARITY>;

/// Interned identity of one operation instance `(OpId, Iter)`.
///
/// Equality is content equality. The numeric order is *allocation*
/// order — deterministic within a run, but not the content order the
/// signature and fold machinery require; use [`cmp_inst`] there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct InstId(u32);

const EMPTY_SLOT: u32 = u32::MAX;

/// Per-schedule interner for operation instances.
///
/// Instances live in a dense id → value table, deduplicated by an
/// open-addressing index probed with borrowed `(OpId, &[u32])` keys, so
/// neither a lookup nor a first-time intern allocates per instance.
#[derive(Debug, Clone)]
pub(crate) struct InstTable {
    values: Vec<(OpId, Iter)>,
    index: Vec<u32>,
    mask: usize,
}

impl Default for InstTable {
    fn default() -> Self {
        InstTable {
            values: Vec::new(),
            index: vec![EMPTY_SLOT; 64],
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

    /// Interns `(op, iter)`, returning its stable dense id (ids are
    /// handed out in first-intern order).
    pub fn id(&mut self, op: OpId, iter: &[u32]) -> InstId {
        let mut i = Self::hash_of(op, iter) as usize & self.mask;
        loop {
            let slot = self.index[i];
            if slot == EMPTY_SLOT {
                let id = u32::try_from(self.values.len()).expect("instance id overflow");
                self.values.push((op, Iter::from_slice(iter)));
                self.index[i] = id;
                if (self.values.len() + 1) * 4 > self.index.len() * 3 {
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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

/// Allocation of condition variables: one BDD variable per condition
/// instance, allocated on first reference (which may precede the
/// instance's execution — that is what speculation means).
///
/// First-reference order defines the BDD variable order and therefore
/// guard structure and rendered guard strings; resolution call order is
/// deterministic, which keeps runs byte-identical.
#[derive(Debug, Default)]
pub(crate) struct CondTable {
    vars: FxHashMap<CondInst, Cond>,
    by_var: Vec<CondInst>,
}

impl CondTable {
    pub fn var(&mut self, inst: CondInst) -> Cond {
        if let Some(&c) = self.vars.get(&inst) {
            return c;
        }
        let c = Cond::new(u32::try_from(self.by_var.len()).expect("too many conditions"));
        self.vars.insert(inst, c);
        self.by_var.push(inst);
        c
    }

    pub fn inst_of(&self, c: Cond) -> CondInst {
        self.by_var[c.index() as usize]
    }
}

/// An ordered map kept as one `Vec` of entries sorted by key.
///
/// Lookups are binary searches, [`VecMap::range`] bounds are
/// `partition_point`s, and iteration runs in ascending key order — the
/// order a `BTreeMap` iterates in, so every walk the schedule can
/// observe is unchanged. Context maps hold tens of entries and are
/// cloned at every copy-on-write fork: one contiguous buffer clones as a
/// single allocation and a few `memcpy`s, where a tree re-allocates node
/// by node.
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

    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.find(k).ok().map(|i| &mut self.entries[i].1)
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
    pub fn range(&self, range: impl RangeBounds<K>) -> impl Iterator<Item = (&K, &V)> {
        let r = sorted_range(&self.entries, |(k, _)| k, range);
        self.entries[r].iter().map(|(k, v)| (k, v))
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

    /// Removes `k`; `false` if it was absent.
    pub fn remove(&mut self, k: &K) -> bool {
        match self.items.binary_search(k) {
            Ok(i) => {
                self.items.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    #[cfg(test)]
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

/// The scheduler's knowledge at a state boundary.
///
/// # Copy-on-write layout
///
/// Every collection field sits behind an [`Arc`]: `Ctx::clone` — the
/// per-branch copy `partition` makes for each of the 2^k outcomes of a
/// condition split — is 14 reference-count bumps, not a deep copy.
/// Reads go through `Deref` transparently; writers must go through the
/// `*_mut` accessors ([`Arc::make_mut`]), which clone a field's
/// collection only at first mutation while shared. The engine's
/// mutation passes are written scan-before-mutate: they compute the
/// delta read-only and touch the accessor only when the delta is
/// non-empty, so a branch pays O(changed entries), not O(|Ctx|).
///
/// The keyed collections are flat: a [`VecMap`] or [`VecSet`] is one
/// buffer sorted by key, so the clone a first write makes is a single
/// allocation, and iteration runs in the ascending key order every
/// section of the signature and every sweep drain relies on.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ctx {
    /// Issued value versions and their validity guards.
    pub avail: Arc<VecMap<Key, AvailInfo>>,
    /// Schedulable conditioned instances.
    pub cands: Arc<Vec<Candidate>>,
    /// Instances whose consumption is decided: a version with a
    /// constant-true guard was issued, so no further version can be
    /// valid on this path.
    pub done: Arc<VecSet<InstId>>,
    /// Outstanding side-effect obligations: instantiated effectful
    /// instances (memory writes, outputs) not yet validly executed.
    pub obligations: Arc<VecMap<InstId, Guard>>,
    /// Computed-but-unresolved condition versions: key, validity guard,
    /// states until the result is ready.
    pub pending_conds: Arc<Vec<(Key, Guard, u32)>>,
    /// Resolution history on this path (pruned to the live window).
    pub resolved: Arc<VecMap<CondInst, bool>>,
    /// Busy non-pipelined units: class → remaining-state counts.
    pub fu_busy: Arc<VecMap<FuClass, Vec<u32>>>,
    /// Per loop context (loop, outer iteration prefix): highest iteration
    /// index instantiated so far.
    pub horizon: Arc<VecMap<(LoopId, Iter), u32>>,
    /// Per loop context: all continue-condition instances below this
    /// index are known true on this path. Lets resolution history below
    /// the live window be pruned (else steady states would never fold).
    pub floor: Arc<VecMap<(LoopId, Iter), u32>>,
    /// Per loop context: every direct-member instance below this index is
    /// already executed or control-dead. The candidate window never goes
    /// below it, and `done` entries under it can be pruned — the pair of
    /// facts that keeps lagging work schedulable without unbounded
    /// bookkeeping.
    pub work_floor: Arc<VecMap<(LoopId, Iter), u32>>,
    /// Loop-exit order tokens whose serialization chain settled during
    /// the current state *and* whose producing loop is proven exited on
    /// this path, awaiting promotion to [`Ctx::discharged`] at the next
    /// state boundary. The recorded key (if any) is the predecessor
    /// token that settled the chain, kept so same-state port exclusivity
    /// still applies until the boundary.
    pub exit_pending: Arc<VecMap<InstId, Option<Key>>>,
    /// Exit-pass instances whose order token is permanently discharged
    /// on this path: the producing loop exited and its serialization
    /// chain settled in an earlier state, so consumers no longer carry a
    /// token constraint. This is the fact that survives after the
    /// producing loop's resolution history and floors are pruned —
    /// without it, re-deriving the exit token from pruned history
    /// deadlocks every post-loop access.
    pub discharged: Arc<VecSet<InstId>>,
    /// Sweep event feed: operations whose candidate-generation inputs
    /// changed on this path since the last sweep drained them. The
    /// incremental Fig.-12 sweep regenerates candidates only for these
    /// ops instead of rescanning the whole graph each pass. A sorted set
    /// so the drain order is deterministic (op index order, the same
    /// order the legacy full scan used). Not part of the canonical
    /// signature: two contexts with equal schedules but different dirty
    /// sets still fold — a folded context's dirty set is discarded, and
    /// quiescence at state boundaries makes that sound.
    pub sweep_dirty: Arc<VecSet<OpId>>,
    /// Sweep-domain baseline: the `(lo, hi)` candidate iteration window
    /// per loop context the last sweep ran against. Window growth
    /// (horizon/lookahead raised `hi`, floor retreat lowered `lo`, or a
    /// new loop context appeared) is itself a sweep event — the loop's
    /// member ops must regenerate even though none of their operands
    /// changed. Not part of the canonical signature (it is derivable
    /// bookkeeping, like `sweep_dirty`).
    pub sweep_domain: Arc<VecMap<(LoopId, Iter), (u32, u32)>>,
}

impl Ctx {
    /// Mutable access to `avail` (clones the map if shared).
    pub fn avail_mut(&mut self) -> &mut VecMap<Key, AvailInfo> {
        Arc::make_mut(&mut self.avail)
    }

    /// Mutable access to `cands` (clones the vec if shared).
    pub fn cands_mut(&mut self) -> &mut Vec<Candidate> {
        Arc::make_mut(&mut self.cands)
    }

    /// Mutable access to `done` (clones the set if shared).
    pub fn done_mut(&mut self) -> &mut VecSet<InstId> {
        Arc::make_mut(&mut self.done)
    }

    /// Mutable access to `obligations` (clones the map if shared).
    pub fn obligations_mut(&mut self) -> &mut VecMap<InstId, Guard> {
        Arc::make_mut(&mut self.obligations)
    }

    /// Mutable access to `pending_conds` (clones the vec if shared).
    pub fn pending_conds_mut(&mut self) -> &mut Vec<(Key, Guard, u32)> {
        Arc::make_mut(&mut self.pending_conds)
    }

    /// Mutable access to `resolved` (clones the map if shared).
    pub fn resolved_mut(&mut self) -> &mut VecMap<CondInst, bool> {
        Arc::make_mut(&mut self.resolved)
    }

    /// Mutable access to `fu_busy` (clones the map if shared).
    pub fn fu_busy_mut(&mut self) -> &mut VecMap<FuClass, Vec<u32>> {
        Arc::make_mut(&mut self.fu_busy)
    }

    /// Mutable access to `horizon` (clones the map if shared).
    pub fn horizon_mut(&mut self) -> &mut VecMap<(LoopId, Iter), u32> {
        Arc::make_mut(&mut self.horizon)
    }

    /// Mutable access to `floor` (clones the map if shared).
    pub fn floor_mut(&mut self) -> &mut VecMap<(LoopId, Iter), u32> {
        Arc::make_mut(&mut self.floor)
    }

    /// Mutable access to `work_floor` (clones the map if shared).
    pub fn work_floor_mut(&mut self) -> &mut VecMap<(LoopId, Iter), u32> {
        Arc::make_mut(&mut self.work_floor)
    }

    /// Mutable access to `exit_pending` (clones the map if shared).
    pub fn exit_pending_mut(&mut self) -> &mut VecMap<InstId, Option<Key>> {
        Arc::make_mut(&mut self.exit_pending)
    }

    /// Mutable access to `discharged` (clones the set if shared).
    pub fn discharged_mut(&mut self) -> &mut VecSet<InstId> {
        Arc::make_mut(&mut self.discharged)
    }

    /// Mutable access to `sweep_dirty` (clones the set if shared).
    pub fn sweep_dirty_mut(&mut self) -> &mut VecSet<OpId> {
        Arc::make_mut(&mut self.sweep_dirty)
    }

    /// Mutable access to `sweep_domain` (clones the map if shared).
    pub fn sweep_domain_mut(&mut self) -> &mut VecMap<(LoopId, Iter), (u32, u32)> {
        Arc::make_mut(&mut self.sweep_domain)
    }

    /// Cheap structural fingerprint over every collection: sizes, key
    /// sets, and the scalar bookkeeping values. Used by the
    /// fault-injection gc-storm audit to assert that a redundant prune
    /// pass leaves the context untouched (pruning must be idempotent).
    /// Deliberately ignores guard BDD identities — the audit brackets a
    /// single prune pass, across which every retained key's guard is
    /// stable, so key-level identity is decisive.
    pub fn shape_fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.avail.len().hash(&mut h);
        for (k, info) in self.avail.iter() {
            k.hash(&mut h);
            info.operands.hash(&mut h);
        }
        self.cands.len().hash(&mut h);
        for c in self.cands.iter() {
            c.inst.hash(&mut h);
            c.operands.hash(&mut h);
        }
        self.done.hash(&mut h);
        for inst in self.obligations.keys() {
            inst.hash(&mut h);
        }
        self.pending_conds.len().hash(&mut h);
        for (k, _, left) in self.pending_conds.iter() {
            k.hash(&mut h);
            left.hash(&mut h);
        }
        self.resolved.hash(&mut h);
        self.fu_busy.hash(&mut h);
        self.horizon.hash(&mut h);
        self.floor.hash(&mut h);
        self.work_floor.hash(&mut h);
        for (inst, k) in self.exit_pending.iter() {
            inst.hash(&mut h);
            k.hash(&mut h);
        }
        self.discharged.hash(&mut h);
        self.sweep_dirty.hash(&mut h);
        h.finish()
    }

    /// Applies end-of-state timing: depths reset, multi-cycle results get
    /// one state closer to ready, busy units tick down. Pending loop-exit
    /// discharges become permanent here — promotion at the state boundary
    /// keeps same-state port exclusivity intact (a consumer relaxed by a
    /// discharge can only issue in a *later* state than the predecessor
    /// access it was ordered after).
    pub fn tick(&mut self) {
        if !self.exit_pending.is_empty() {
            let pend = std::mem::take(Arc::make_mut(&mut self.exit_pending));
            let discharged = self.discharged_mut();
            for inst in pend.keys() {
                discharged.insert(*inst);
            }
        }
        if self
            .avail
            .values()
            .any(|i| i.depth != 0.0 || i.ready_in > 0)
        {
            for info in self.avail_mut().values_mut() {
                info.depth = 0.0;
                if info.ready_in > 0 {
                    info.ready_in -= 1;
                }
            }
        }
        if self.pending_conds.iter().any(|(_, _, r)| *r > 0) {
            for (_, _, r) in self.pending_conds_mut() {
                if *r > 0 {
                    *r -= 1;
                }
            }
        }
        if self.fu_busy.values().any(|v| !v.is_empty()) {
            for v in self.fu_busy_mut().values_mut() {
                for r in v.iter_mut() {
                    *r -= 1;
                }
                v.retain(|&r| r > 0);
            }
        }
    }

    /// Cofactors every guard in the context by `cond = value`, dropping
    /// entries whose guard collapses to false (Step 2 of Sec. 4.3:
    /// invalidated speculations are removed so they stop sourcing
    /// successors).
    ///
    /// Scan-before-mutate: each collection is first walked read-only to
    /// find the guards the cofactor actually changes; collections with
    /// no affected guard are never written, so their copy-on-write
    /// storage stays shared with the sibling branch.
    pub fn cofactor(&mut self, mgr: &mut BddManager, var: Cond, value: bool, inst: CondInst) {
        self.resolved_mut().insert(inst, value);
        let changed: Vec<(Key, Guard)> = self
            .avail
            .iter()
            .filter_map(|(k, info)| {
                let ng = mgr.cofactor(info.guard, var, value);
                (ng != info.guard).then_some((*k, ng))
            })
            .collect();
        if !changed.is_empty() {
            let avail = self.avail_mut();
            for (k, ng) in changed {
                if ng.is_false() {
                    avail.remove(&k);
                } else {
                    avail.get_mut(&k).expect("scanned key").guard = ng;
                }
            }
        }
        let changed: Vec<(usize, Guard)> = self
            .cands
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let ng = mgr.cofactor(c.guard, var, value);
                (ng != c.guard).then_some((i, ng))
            })
            .collect();
        if !changed.is_empty() {
            let cands = self.cands_mut();
            for &(i, ng) in &changed {
                cands[i].guard = ng;
            }
            cands.retain(|c| !c.guard.is_false());
        }
        let changed: Vec<(InstId, Guard)> = self
            .obligations
            .iter()
            .filter_map(|(i, g)| {
                let ng = mgr.cofactor(*g, var, value);
                (ng != *g).then_some((*i, ng))
            })
            .collect();
        if !changed.is_empty() {
            let obls = self.obligations_mut();
            for (i, ng) in changed {
                if ng.is_false() {
                    obls.remove(&i);
                } else {
                    *obls.get_mut(&i).expect("scanned key") = ng;
                }
            }
        }
        let changed: Vec<(usize, Guard)> = self
            .pending_conds
            .iter()
            .enumerate()
            .filter_map(|(i, (_, g, _))| {
                let ng = mgr.cofactor(*g, var, value);
                (ng != *g).then_some((i, ng))
            })
            .collect();
        if !changed.is_empty() {
            let pend = self.pending_conds_mut();
            for &(i, ng) in &changed {
                pend[i].1 = ng;
            }
            pend.retain(|(_, g, _)| !g.is_false());
        }
    }

    /// The minimum iteration index in use per loop, across the whole
    /// context, into `mins` (indexed by loop, `u32::MAX` where no
    /// instance is indexed by the loop); used by normalization. `supp`
    /// is scratch for guard supports.
    fn collect_loop_mins(
        &self,
        g: &cdfg::Cdfg,
        ct: &CondTable,
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
                note(ct.inst_of(c));
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
        ct: &CondTable,
        mgr: &mut BddManager,
        it: &InstTable,
        mins: &mut Vec<u32>,
        supp: &mut Vec<Cond>,
    ) {
        mins.clear();
        mins.resize(g.loops().len(), u32::MAX);
        self.collect_loop_mins(g, ct, mgr, it, mins, supp);
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
        ct: &CondTable,
        mgr: &mut BddManager,
        it: &InstTable,
    ) -> (String, Vec<u32>) {
        let mut mins = Vec::new();
        self.loop_mins(g, ct, mgr, it, &mut mins, &mut Vec::new());
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
                let (op, iter) = it.pair(ct.inst_of(c));
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
            it.id(OpId::new(7), &[i]);
        }
        assert_eq!(it.get(OpId::new(3), &[0, 1]), Some(a));
        assert_eq!(it.get(OpId::new(7), &[499]), it.get(OpId::new(7), &[499]));
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
            a in pl::vec_of(arb_src(), 0..MAX_ARITY + 1),
            b in pl::vec_of(arb_src(), 0..MAX_ARITY + 1),
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
                        assert_eq!(set.remove(&k), bset.remove(&k));
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
    fn cond_table_allocates_once() {
        let mut it = InstTable::default();
        let mut ct = CondTable::default();
        let i0 = it.id(OpId::new(1), &[0]);
        let i1 = it.id(OpId::new(1), &[1]);
        let a = ct.var(i0);
        let b = ct.var(i0);
        assert_eq!(a, b);
        let c = ct.var(i1);
        assert_ne!(a, c);
        assert_eq!(ct.inst_of(a), i0);
    }

    #[test]
    fn tick_advances_timing() {
        let mut it = InstTable::default();
        let mut ctx = Ctx::default();
        ctx.avail_mut().insert(
            Key::new(it.id(OpId::new(0), &[]), 0),
            AvailInfo {
                guard: Guard::TRUE,
                ready_in: 2,
                depth: 1.0,
                operands: Operands::new(),
            },
        );
        ctx.fu_busy_mut().insert(FuClass::Multiplier, vec![2, 1]);
        let pass = it.id(OpId::new(7), &[]);
        ctx.exit_pending_mut().insert(pass, None);
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
        let mut ct = CondTable::default();
        let inst = it.id(OpId::new(5), &[0]);
        let var = ct.var(inst);
        let lit = mgr.literal(var, true);
        let mut ctx = Ctx::default();
        ctx.avail_mut().insert(
            Key::new(it.id(OpId::new(1), &[0]), 0),
            AvailInfo {
                guard: lit,
                ready_in: 0,
                depth: 0.0,
                operands: Operands::new(),
            },
        );
        let false_guard = mgr.literal(var, false);
        ctx.obligations_mut()
            .insert(it.id(OpId::new(2), &[0]), false_guard);
        ctx.cofactor(&mut mgr, var, true, inst);
        assert_eq!(ctx.avail.len(), 1, "validated value survives");
        assert!(ctx.avail.values().next().unwrap().guard.is_true());
        assert!(ctx.obligations.is_empty(), "false-guard obligation dropped");
        assert_eq!(ctx.resolved.get(&inst), Some(&true));
    }

    #[test]
    fn signature_folds_shifted_iterations() {
        let g = loop_cdfg();
        let op = inc_op(&g);
        let mut mgr = BddManager::new();
        let ct = CondTable::default();
        let mut it = InstTable::default();
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
        let (sig_a, mins_a) = a.signature(&g, &ct, &mut mgr, &it);
        let (sig_b, mins_b) = b.signature(&g, &ct, &mut mgr, &it);
        assert_eq!(sig_a, sig_b, "uniformly shifted contexts fold");
        assert_eq!(mins_a[lp.index()], 3);
        assert_eq!(mins_b[lp.index()], 7);
        let c = mk(&[3, 5], &mut it);
        let (sig_c, _) = c.signature(&g, &ct, &mut mgr, &it);
        assert_ne!(sig_a, sig_c, "non-uniform spacing does not fold");
    }

    #[test]
    fn signature_canonical_under_allocation_order() {
        // Two contexts with identical content whose instances were
        // interned in different orders must produce identical signatures.
        let g = loop_cdfg();
        let op = inc_op(&g);
        let mut mgr = BddManager::new();
        let ct = CondTable::default();
        let mut it = InstTable::default();
        // Context A interns [0] then [1]; context B reuses them but
        // inserts in reverse — plus fresh instances interned later with
        // *smaller* content indices than existing ones.
        let add = |ctx: &mut Ctx, id: InstId| {
            ctx.avail_mut().insert(
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
        let (sa, _) = a.signature(&g, &ct, &mut mgr, &it);
        let (sb, _) = b.signature(&g, &ct, &mut mgr, &it);
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
        let mut ct = CondTable::default();
        let mut it = InstTable::default();
        let var = ct.var(it.id(cond, &[0]));
        let lit = mgr.literal(var, true);
        let key = Key::new(it.id(op, &[0]), 0);
        let mk = |gd: Guard| -> Ctx {
            let mut ctx = Ctx::default();
            ctx.avail_mut().insert(
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
        let (sa, _) = mk(Guard::TRUE).signature(&g, &ct, &mut mgr, &it);
        let (sb, _) = mk(lit).signature(&g, &ct, &mut mgr, &it);
        assert_ne!(sa, sb);
    }
}
