//! A small reduced ordered binary decision diagram (ROBDD) package.
//!
//! Guards in a speculative schedule are Boolean functions over condition
//! instances. Most are conjunctions of a handful of literals, but the
//! algorithm also produces disjunctions (e.g. the loop-continue expression
//! `(c1_0 ∨ c2_0) ∧ c1_1` from Example 10 of the paper), so a general
//! representation is required. The manager hash-conses nodes, memoizes the
//! ternary if-then-else operator, and keeps every derived operation (AND,
//! OR, NOT, cofactor) canonical: two [`Guard`]s are semantically equal if
//! and only if they are `==`.

use crate::{Assignment, Cond};
use spec_support::fxhash::FxHashMap;
use std::fmt;

/// Capacity bound for the `ite` memo cache, in entries.
///
/// The cache is cleared wholesale when an insert would exceed this bound
/// (counted in [`CacheStats::ite_evictions`]). Clearing — rather than
/// LRU — keeps the hot path to a single hash probe; hash-consing means
/// the recursion re-fills the cache at the cost of one descent. At ~28
/// bytes per entry this bounds the cache near 8 MiB.
const ITE_CACHE_CAP: usize = 1 << 18;

/// Capacity bound for the cofactor memo cache, in entries (~1.5 MiB).
/// Cofactors are cheaper to recompute than `ite`, so the bound is tighter.
const COFACTOR_CACHE_CAP: usize = 1 << 16;

/// A guard: a Boolean function over [`Cond`] variables, represented as a
/// node in a [`BddManager`].
///
/// `Guard` is a lightweight handle; all operations go through the manager
/// that created it. Mixing handles across managers is a logic error (it
/// produces wrong results, never memory unsafety) and is caught by debug
/// assertions where cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Guard(u32);

impl Guard {
    /// The constant-false guard. An operation whose guard collapses to
    /// false has been invalidated by a resolved condition and must be
    /// discarded (Step 2 of Sec. 4.3: "every operation conditioned on 0 can
    /// be removed").
    pub const FALSE: Guard = Guard(0);

    /// The constant-true guard: the operation is unconditional ("normal" in
    /// the paper's terminology).
    pub const TRUE: Guard = Guard(1);

    /// Returns `true` if this is the constant-false guard.
    pub const fn is_false(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if this is the constant-true guard.
    pub const fn is_true(self) -> bool {
        self.0 == 1
    }

    /// Returns `true` if this guard is a constant (true or false).
    pub const fn is_const(self) -> bool {
        self.0 <= 1
    }

    fn idx(self) -> usize {
        self.0 as usize
    }
}

impl Default for Guard {
    fn default() -> Self {
        Guard::TRUE
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Guard::FALSE => write!(f, "0"),
            Guard::TRUE => write!(f, "1"),
            g => write!(f, "guard#{}", g.0),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: Guard,
    hi: Guard,
}

/// ROBDD manager: owns the node store and operation caches for a family of
/// [`Guard`]s.
///
/// Variable order is the numeric order of [`Cond`] indices: smaller indices
/// are tested first. Both terminal guards exist in every manager.
///
/// # Example
///
/// ```
/// use guards::{BddManager, Cond};
/// let mut m = BddManager::new();
/// let x = m.literal(Cond::new(0), true);
/// let nx = m.not(x);
/// assert!(m.or(x, nx).is_true());
/// assert!(m.and(x, nx).is_false());
/// ```
#[derive(Debug, Clone)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: FxHashMap<Node, Guard>,
    ite_cache: FxHashMap<(Guard, Guard, Guard), Guard>,
    cofactor_cache: FxHashMap<(Guard, u32, bool), Guard>,
    ite_cap: usize,
    cofactor_cap: usize,
    stats: Counters,
    // Scratch for `support_into`/`support_len`: per-node visit stamps with
    // a generation counter (O(1) logical clear), the reusable walk stack,
    // and a reusable out buffer.
    visit_stamp: Vec<u32>,
    stamp_gen: u32,
    support_work: Vec<Guard>,
    support_scratch: Vec<Cond>,
    // Memoized support sizes per node (`UNKNOWN_LEN` = not computed
    // yet). Nodes are hash-consed and never freed, so a node's support
    // never changes.
    support_lens: Vec<u32>,
}

/// `BddManager::support_lens` entry of a node whose support size has
/// not been computed yet.
const UNKNOWN_LEN: u32 = u32::MAX;

/// Raw hit/miss/eviction counters (monotonically increasing).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    ite_hits: u64,
    ite_misses: u64,
    cofactor_hits: u64,
    cofactor_misses: u64,
    ite_evictions: u64,
    cofactor_evictions: u64,
}

/// A snapshot of the manager's operation-cache behavior, exposed for the
/// bench binaries (`probe`) so cache tuning is observable, not guessed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `ite` memo-cache hits.
    pub ite_hits: u64,
    /// `ite` memo-cache misses (each one ran a Shannon expansion step).
    pub ite_misses: u64,
    /// Cofactor memo-cache hits.
    pub cofactor_hits: u64,
    /// Cofactor memo-cache misses.
    pub cofactor_misses: u64,
    /// Wholesale `ite`-cache clears forced by the capacity bound.
    pub ite_evictions: u64,
    /// Wholesale cofactor-cache clears forced by the capacity bound.
    pub cofactor_evictions: u64,
    /// Live (non-terminal) nodes in the manager at snapshot time.
    pub node_count: usize,
}

impl CacheStats {
    /// Total wholesale cache clears across both bounded caches.
    pub fn evictions(&self) -> u64 {
        self.ite_evictions + self.cofactor_evictions
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rate = |h: u64, m: u64| {
            if h + m == 0 {
                0.0
            } else {
                100.0 * h as f64 / (h + m) as f64
            }
        };
        write!(
            f,
            "nodes={} ite={}h/{}m ({:.1}%) cofactor={}h/{}m ({:.1}%) evictions={}i/{}c",
            self.node_count,
            self.ite_hits,
            self.ite_misses,
            rate(self.ite_hits, self.ite_misses),
            self.cofactor_hits,
            self.cofactor_misses,
            rate(self.cofactor_hits, self.cofactor_misses),
            self.ite_evictions,
            self.cofactor_evictions
        )
    }
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager containing only the terminal guards.
    pub fn new() -> Self {
        Self::with_cache_capacity(ITE_CACHE_CAP, COFACTOR_CACHE_CAP)
    }

    /// Creates a manager with explicit cache-capacity bounds. Exposed so
    /// tests and benches can exercise the eviction path with tiny caches;
    /// production code should use [`BddManager::new`].
    pub fn with_cache_capacity(ite_cap: usize, cofactor_cap: usize) -> Self {
        // Slots 0 and 1 are terminals; give them sentinel nodes that are
        // never inspected (terminal checks short-circuit on the handle).
        let sentinel = Node {
            var: u32::MAX,
            lo: Guard::FALSE,
            hi: Guard::FALSE,
        };
        BddManager {
            nodes: vec![sentinel, sentinel],
            unique: FxHashMap::default(),
            ite_cache: FxHashMap::default(),
            cofactor_cache: FxHashMap::default(),
            ite_cap: ite_cap.max(1),
            cofactor_cap: cofactor_cap.max(1),
            stats: Counters::default(),
            visit_stamp: Vec::new(),
            stamp_gen: 0,
            support_work: Vec::new(),
            support_scratch: Vec::new(),
            support_lens: Vec::new(),
        }
    }

    /// Snapshot of cache hit/miss/eviction counters and the node count.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            ite_hits: self.stats.ite_hits,
            ite_misses: self.stats.ite_misses,
            cofactor_hits: self.stats.cofactor_hits,
            cofactor_misses: self.stats.cofactor_misses,
            ite_evictions: self.stats.ite_evictions,
            cofactor_evictions: self.stats.cofactor_evictions,
            node_count: self.node_count(),
        }
    }

    /// Forces a wholesale eviction of both operation caches (ite and
    /// cofactor), counted under the respective eviction counters. The
    /// caches are pure memos over the hash-consed node store, so
    /// flushing is semantically invisible — results recompute to
    /// identical guards, only slower. Fault-injection probe: eviction
    /// storms must never change a schedule.
    pub fn flush_op_caches(&mut self) {
        if !self.ite_cache.is_empty() {
            self.ite_cache.clear();
            self.stats.ite_evictions += 1;
        }
        if !self.cofactor_cache.is_empty() {
            self.cofactor_cache.clear();
            self.stats.cofactor_evictions += 1;
        }
    }

    /// Number of live (non-terminal) nodes, a proxy for memory usage.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 2
    }

    fn var_of(&self, g: Guard) -> u32 {
        if g.is_const() {
            u32::MAX
        } else {
            self.nodes[g.idx()].var
        }
    }

    fn node(&self, g: Guard) -> Node {
        debug_assert!(!g.is_const(), "terminals have no node");
        self.nodes[g.idx()]
    }

    /// The decision at a non-constant guard: its top condition and the
    /// guards of its false and true branches.
    pub(crate) fn decision(&self, g: Guard) -> (Cond, Guard, Guard) {
        let n = self.node(g);
        (Cond::new(n.var), n.lo, n.hi)
    }

    fn mk(&mut self, var: u32, lo: Guard, hi: Guard) -> Guard {
        if lo == hi {
            return lo;
        }
        let n = Node { var, lo, hi };
        if let Some(&g) = self.unique.get(&n) {
            return g;
        }
        let g = Guard(u32::try_from(self.nodes.len()).expect("BDD node index overflow"));
        self.nodes.push(n);
        self.unique.insert(n, g);
        g
    }

    /// The guard that is true exactly when `cond` has the given `value`.
    pub fn literal(&mut self, cond: Cond, value: bool) -> Guard {
        if value {
            self.mk(cond.index(), Guard::FALSE, Guard::TRUE)
        } else {
            self.mk(cond.index(), Guard::TRUE, Guard::FALSE)
        }
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`. All other operators are derived
    /// from this.
    pub fn ite(&mut self, f: Guard, g: Guard, h: Guard) -> Guard {
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        let key = (f, g, h);
        if let Some(&r) = self.ite_cache.get(&key) {
            self.stats.ite_hits += 1;
            return r;
        }
        self.stats.ite_misses += 1;
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f_lo, f_hi) = self.cofactors_at(f, top);
        let (g_lo, g_hi) = self.cofactors_at(g, top);
        let (h_lo, h_hi) = self.cofactors_at(h, top);
        let lo = self.ite(f_lo, g_lo, h_lo);
        let hi = self.ite(f_hi, g_hi, h_hi);
        let r = self.mk(top, lo, hi);
        if self.ite_cache.len() >= self.ite_cap {
            // Bounded memoization: clear wholesale rather than evicting
            // entry-by-entry. Correctness is unaffected (the cache only
            // short-circuits recomputation); the recursion repopulates it.
            self.ite_cache.clear();
            self.stats.ite_evictions += 1;
        }
        self.ite_cache.insert(key, r);
        r
    }

    fn cofactors_at(&self, g: Guard, var: u32) -> (Guard, Guard) {
        if g.is_const() || self.var_of(g) != var {
            (g, g)
        } else {
            let n = self.node(g);
            (n.lo, n.hi)
        }
    }

    /// Conjunction of two guards (Lemma 1: an operation whose fanins are
    /// conditioned on `C_1 … C_n` is conditioned on their conjunction).
    pub fn and(&mut self, a: Guard, b: Guard) -> Guard {
        self.ite(a, b, Guard::FALSE)
    }

    /// Disjunction of two guards.
    pub fn or(&mut self, a: Guard, b: Guard) -> Guard {
        self.ite(a, Guard::TRUE, b)
    }

    /// Negation of a guard.
    pub fn not(&mut self, a: Guard) -> Guard {
        self.ite(a, Guard::FALSE, Guard::TRUE)
    }

    /// Exclusive or, used by tests to state algebraic laws compactly.
    pub fn xor(&mut self, a: Guard, b: Guard) -> Guard {
        let nb = self.not(b);
        self.ite(a, nb, b)
    }

    /// Conjunction over an iterator of guards.
    pub fn and_all<I: IntoIterator<Item = Guard>>(&mut self, guards: I) -> Guard {
        let mut acc = Guard::TRUE;
        for g in guards {
            acc = self.and(acc, g);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction over an iterator of guards.
    pub fn or_all<I: IntoIterator<Item = Guard>>(&mut self, guards: I) -> Guard {
        let mut acc = Guard::FALSE;
        for g in guards {
            acc = self.or(acc, g);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// Restricts `g` by the resolution `cond = value`.
    ///
    /// This is Step 2 of Sec. 4.3 of the paper: when a conditional operation
    /// resolves, every guard in the schedulable/scheduled sets is evaluated
    /// with the resolved value substituted. A result of [`Guard::FALSE`]
    /// means the speculation was invalidated; [`Guard::TRUE`] means the
    /// operation is now validated ("normal").
    pub fn cofactor(&mut self, g: Guard, cond: Cond, value: bool) -> Guard {
        if g.is_const() {
            return g;
        }
        let var = cond.index();
        let n = self.node(g);
        if n.var > var {
            // Variable order guarantees `var` does not appear below.
            return g;
        }
        if n.var == var {
            let branch = if value { n.hi } else { n.lo };
            return branch;
        }
        // Only the recursive case is memoized; the cases above are a
        // constant-time inspection already.
        let key = (g, var, value);
        if let Some(&r) = self.cofactor_cache.get(&key) {
            self.stats.cofactor_hits += 1;
            return r;
        }
        self.stats.cofactor_misses += 1;
        let lo = self.cofactor(n.lo, cond, value);
        let hi = self.cofactor(n.hi, cond, value);
        let r = self.mk(n.var, lo, hi);
        if self.cofactor_cache.len() >= self.cofactor_cap {
            self.cofactor_cache.clear();
            self.stats.cofactor_evictions += 1;
        }
        self.cofactor_cache.insert(key, r);
        r
    }

    /// Restricts `g` by every pair in `assignment`.
    ///
    /// Each step goes through the memoized [`BddManager::cofactor`], so
    /// repeated restriction of the same guards (the common pattern in
    /// Step 2 of Sec. 4.3, where every context guard is restricted by the
    /// same resolution) costs one cache probe per condition.
    pub fn restrict(&mut self, g: Guard, assignment: &Assignment) -> Guard {
        let mut acc = g;
        for (cond, value) in assignment.iter() {
            acc = self.cofactor(acc, cond, value);
            if acc.is_const() {
                break;
            }
        }
        acc
    }

    /// Decomposes a non-terminal guard into `(top condition, cofactor at
    /// false, cofactor at true)` without mutating the manager.
    ///
    /// # Panics
    ///
    /// Panics if `g` is a constant.
    pub fn branches(&self, g: Guard) -> (Cond, Guard, Guard) {
        assert!(!g.is_const(), "terminal guards have no branches");
        let n = self.node(g);
        (Cond::new(n.var), n.lo, n.hi)
    }

    /// The set of conditions the guard depends on, sorted by BDD variable
    /// order (i.e. ascending [`Cond`] index).
    ///
    /// Allocates a fresh vector and visited-set per call; hot paths that
    /// only need the conditions (or their count) should prefer
    /// [`BddManager::support_into`] / [`BddManager::support_len`], which
    /// reuse manager-owned scratch buffers.
    pub fn support(&self, g: Guard) -> Vec<Cond> {
        let mut vars = Vec::new();
        let mut stack = vec![g];
        let mut seen = spec_support::fxhash::FxHashSet::default();
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x) {
                continue;
            }
            let n = self.node(x);
            vars.push(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        vars.sort_unstable();
        vars.dedup();
        vars.into_iter().map(Cond::new).collect()
    }

    /// Collects the guard's support into `out` (cleared first), sorted by
    /// BDD variable order — identical contents to [`BddManager::support`]
    /// but allocation-free after warmup: visited nodes are tracked in a
    /// manager-owned stamp array with a generation counter, so "clearing"
    /// the visited set is a single increment, and the walk stack is
    /// manager-owned too.
    pub fn support_into(&mut self, g: Guard, out: &mut Vec<Cond>) {
        out.clear();
        if g.is_const() {
            return;
        }
        if self.visit_stamp.len() < self.nodes.len() {
            self.visit_stamp.resize(self.nodes.len(), 0);
        }
        self.stamp_gen = match self.stamp_gen.checked_add(1) {
            Some(gen) => gen,
            None => {
                // Generation counter wrapped: physically reset the stamps
                // once every 2^32 calls so stale marks can never alias.
                self.visit_stamp.iter_mut().for_each(|s| *s = 0);
                1
            }
        };
        let gen = self.stamp_gen;
        let mut work = std::mem::take(&mut self.support_work);
        work.clear();
        work.push(g);
        while let Some(x) = work.pop() {
            if x.is_const() {
                continue;
            }
            let slot = &mut self.visit_stamp[x.idx()];
            if *slot == gen {
                continue;
            }
            *slot = gen;
            let n = self.nodes[x.idx()];
            out.push(Cond::new(n.var));
            work.push(n.lo);
            work.push(n.hi);
        }
        self.support_work = work;
        out.sort_unstable();
        out.dedup();
    }

    /// Number of distinct conditions in the guard's support, computed
    /// without returning them. Memoized per node: the first query of a
    /// guard walks it once (with the same scratch as
    /// [`BddManager::support_into`]); every later one is a table read.
    pub fn support_len(&mut self, g: Guard) -> usize {
        if g.is_const() {
            return 0;
        }
        if self.support_lens.len() < self.nodes.len() {
            self.support_lens.resize(self.nodes.len(), UNKNOWN_LEN);
        }
        let known = self.support_lens[g.idx()];
        if known != UNKNOWN_LEN {
            return known as usize;
        }
        let mut buf = std::mem::take(&mut self.support_scratch);
        self.support_into(g, &mut buf);
        let n = buf.len();
        self.support_scratch = buf;
        self.support_lens[g.idx()] = n as u32;
        n
    }

    /// Evaluates the guard under a total assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` does not cover the guard's support.
    pub fn eval(&self, g: Guard, assignment: &Assignment) -> bool {
        let mut cur = g;
        while !cur.is_const() {
            let n = self.node(cur);
            let v = assignment
                .get(Cond::new(n.var))
                .expect("assignment must cover the guard's support");
            cur = if v { n.hi } else { n.lo };
        }
        cur.is_true()
    }

    /// Returns `true` if `a` logically implies `b`.
    pub fn implies(&mut self, a: Guard, b: Guard) -> bool {
        let nb = self.not(b);
        self.and(a, nb).is_false()
    }

    /// Enumerates all satisfying total assignments of `g` over exactly the
    /// conditions in `over` (which must be a superset of the support).
    ///
    /// This implements the partitioning in step 4 of the algorithm's flow
    /// diagram (Fig. 12): given the set of conditions resolved in a state,
    /// each satisfying combination spawns one successor state.
    ///
    /// # Panics
    ///
    /// Panics if `over` does not cover the support of `g`.
    pub fn assignments(&mut self, g: Guard, over: &[Cond]) -> Vec<Assignment> {
        for c in self.support(g) {
            assert!(
                over.contains(&c),
                "enumeration set must cover the guard's support (missing {c})"
            );
        }
        // Enumerate in BDD variable order regardless of how the caller
        // ordered `over`: partition enumeration is then order-deterministic
        // by construction (same guard + same condition set ⇒ same successor
        // order), and cofactoring in variable order peels the top variable
        // first, which keeps intermediate guards small.
        let mut sorted: Vec<Cond> = over.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut out = Vec::new();
        let mut partial = Assignment::new();
        self.enumerate(g, &sorted, 0, &mut partial, &mut out);
        out
    }

    fn enumerate(
        &mut self,
        g: Guard,
        over: &[Cond],
        i: usize,
        partial: &mut Assignment,
        out: &mut Vec<Assignment>,
    ) {
        if g.is_false() {
            return;
        }
        if i == over.len() {
            out.push(partial.clone());
            return;
        }
        let c = over[i];
        for value in [false, true] {
            let sub = self.cofactor(g, c, value);
            partial.set(c, value);
            self.enumerate(sub, over, i + 1, partial, out);
            partial.unset(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SOP_CUBES, SOP_FALSE, SOP_TRUE};

    fn mgr3() -> (BddManager, Guard, Guard, Guard) {
        let mut m = BddManager::new();
        let a = m.literal(Cond::new(0), true);
        let b = m.literal(Cond::new(1), true);
        let c = m.literal(Cond::new(2), true);
        (m, a, b, c)
    }

    #[test]
    fn terminals() {
        assert!(Guard::TRUE.is_true());
        assert!(Guard::FALSE.is_false());
        assert!(Guard::TRUE.is_const() && Guard::FALSE.is_const());
        assert_eq!(Guard::default(), Guard::TRUE);
    }

    #[test]
    fn literal_is_canonical() {
        let mut m = BddManager::new();
        let a1 = m.literal(Cond::new(5), true);
        let a2 = m.literal(Cond::new(5), true);
        assert_eq!(a1, a2);
        let na = m.literal(Cond::new(5), false);
        assert_ne!(a1, na);
        assert_eq!(m.not(a1), na);
    }

    #[test]
    fn and_or_not_basics() {
        let (mut m, a, b, _) = mgr3();
        assert_eq!(m.and(a, Guard::TRUE), a);
        assert_eq!(m.and(a, Guard::FALSE), Guard::FALSE);
        assert_eq!(m.or(a, Guard::FALSE), a);
        assert_eq!(m.or(a, Guard::TRUE), Guard::TRUE);
        let ab = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab, ba, "AND is commutative and canonical");
        let na = m.not(a);
        assert!(m.and(a, na).is_false());
        assert!(m.or(a, na).is_true());
        assert_eq!(m.not(na), a, "double negation");
    }

    #[test]
    fn de_morgan() {
        let (mut m, a, b, _) = mgr3();
        let lhs = {
            let ab = m.and(a, b);
            m.not(ab)
        };
        let rhs = {
            let na = m.not(a);
            let nb = m.not(b);
            m.or(na, nb)
        };
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn distributivity() {
        let (mut m, a, b, c) = mgr3();
        let bc = m.or(b, c);
        let lhs = m.and(a, bc);
        let ab = m.and(a, b);
        let ac = m.and(a, c);
        let rhs = m.or(ab, ac);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn cofactor_resolves_conditions() {
        let (mut m, a, b, _) = mgr3();
        let g = m.and(a, b); // c0 ∧ c1
        let t = m.cofactor(g, Cond::new(0), true);
        assert_eq!(t, b, "c0=1 leaves c1");
        let f = m.cofactor(g, Cond::new(0), false);
        assert!(f.is_false(), "c0=0 invalidates the speculation");
        // cofactor on a variable not in the support is identity
        assert_eq!(m.cofactor(g, Cond::new(9), true), g);
    }

    #[test]
    fn cofactor_example10_expression() {
        // (c1_0 ∨ c2_0) ∧ c1_1 from Example 10 of the paper.
        let mut m = BddManager::new();
        let c1_0 = m.literal(Cond::new(0), true);
        let c2_0 = m.literal(Cond::new(1), true);
        let c1_1 = m.literal(Cond::new(2), true);
        let disj = m.or(c1_0, c2_0);
        let g = m.and(disj, c1_1);
        // Resolving c1_0 = true reduces the guard to c1_1 alone.
        assert_eq!(m.cofactor(g, Cond::new(0), true), c1_1);
        // Resolving c1_0 = false leaves c2_0 ∧ c1_1.
        let rest = m.cofactor(g, Cond::new(0), false);
        assert_eq!(rest, m.and(c2_0, c1_1));
    }

    #[test]
    fn support_and_eval() {
        let (mut m, a, _b, c) = mgr3();
        let nc = m.not(c);
        let g = m.and(a, nc);
        assert_eq!(m.support(g), vec![Cond::new(0), Cond::new(2)]);
        let mut asg = Assignment::new();
        asg.set(Cond::new(0), true);
        asg.set(Cond::new(2), false);
        assert!(m.eval(g, &asg));
        asg.set(Cond::new(2), true);
        assert!(!m.eval(g, &asg));
    }

    #[test]
    #[should_panic(expected = "assignment must cover")]
    fn eval_requires_full_support() {
        let (m2, a, b, _) = {
            let (mut m, a, b, c) = mgr3();
            let _ = c;
            let g = m.and(a, b);
            (m, g, g, ())
        };
        let _ = b;
        let asg = Assignment::new();
        m2.eval(a, &asg);
    }

    #[test]
    fn implies() {
        let (mut m, a, b, _) = mgr3();
        let ab = m.and(a, b);
        assert!(m.implies(ab, a));
        assert!(m.implies(ab, b));
        assert!(!m.implies(a, ab));
        assert!(m.implies(Guard::FALSE, a));
        assert!(m.implies(a, Guard::TRUE));
    }

    #[test]
    fn assignments_enumerates_minterms() {
        let (mut m, a, b, _) = mgr3();
        let g = m.or(a, b);
        let over = [Cond::new(0), Cond::new(1)];
        let sats = m.assignments(g, &over);
        assert_eq!(sats.len(), 3, "three of four minterms satisfy a ∨ b");
        for asg in &sats {
            assert!(m.eval(g, asg));
        }
        // Enumerating TRUE over two conditions yields all four minterms.
        let all = m.assignments(Guard::TRUE, &over);
        assert_eq!(all.len(), 4);
        // FALSE has none.
        assert!(m.assignments(Guard::FALSE, &over).is_empty());
    }

    #[test]
    #[should_panic(expected = "must cover the guard's support")]
    fn assignments_requires_cover() {
        let (mut m, a, b, _) = mgr3();
        let g = m.and(a, b);
        let _ = m.assignments(g, &[Cond::new(0)]);
    }

    #[test]
    fn sop_rendering() {
        let (mut m, a, b, _) = mgr3();
        let nb = m.not(b);
        let g = m.and(a, nb);
        let s = m.to_sop_string(g, &|c| format!("c{}", c.index()));
        assert_eq!(s, "c0.!c1");
        assert_eq!(m.to_sop_string(Guard::TRUE, &|c| c.to_string()), "1");
        assert_eq!(m.to_sop_string(Guard::FALSE, &|c| c.to_string()), "0");
    }

    #[test]
    fn node_count_reflects_sharing() {
        let (mut m, a, b, c) = mgr3();
        let before = m.node_count();
        let ab = m.and(a, b);
        let ab2 = m.and(a, b);
        assert_eq!(ab, ab2);
        let _abc = m.and(ab, c);
        assert!(m.node_count() > before);
    }

    #[test]
    fn and_all_or_all() {
        let (mut m, a, b, c) = mgr3();
        let all = m.and_all([a, b, c]);
        let ab = m.and(a, b);
        assert_eq!(all, m.and(ab, c));
        assert_eq!(m.and_all(std::iter::empty()), Guard::TRUE);
        assert_eq!(m.or_all(std::iter::empty()), Guard::FALSE);
        let any = m.or_all([a, b, c]);
        let ab = m.or(a, b);
        assert_eq!(any, m.or(ab, c));
    }

    #[test]
    fn support_into_matches_support_and_is_sorted() {
        let mut m = BddManager::new();
        let lits: Vec<Guard> = [7u32, 2, 9, 0, 5]
            .iter()
            .map(|&i| m.literal(Cond::new(i), i % 2 == 0))
            .collect();
        let g = m.and_all(lits.clone());
        let d = {
            let x = m.or(lits[0], lits[3]);
            m.xor(x, g)
        };
        let mut buf = Vec::new();
        for guard in [g, d, Guard::TRUE, Guard::FALSE, lits[2]] {
            m.support_into(guard, &mut buf);
            assert_eq!(buf, m.support(guard), "support_into mismatch");
            assert!(buf.windows(2).all(|w| w[0] < w[1]), "not strictly sorted");
            assert_eq!(m.support_len(guard), buf.len());
        }
    }

    #[test]
    fn support_scratch_survives_interleaved_growth() {
        // Nodes created between support_into calls must not confuse the
        // stamp array.
        let mut m = BddManager::new();
        let a = m.literal(Cond::new(0), true);
        let mut buf = Vec::new();
        m.support_into(a, &mut buf);
        assert_eq!(buf, vec![Cond::new(0)]);
        let b = m.literal(Cond::new(1), true);
        let ab = m.and(a, b);
        m.support_into(ab, &mut buf);
        assert_eq!(buf, vec![Cond::new(0), Cond::new(1)]);
    }

    #[test]
    fn support_len_memo_matches_support_across_growth() {
        // Memoized sizes must stay right for guards built before and
        // after the memo table was last extended, on first and repeat
        // queries alike.
        let mut m = BddManager::new();
        let mut guards = vec![Guard::TRUE, Guard::FALSE];
        for v in 0..6 {
            let l = m.literal(Cond::new(v), v % 2 == 0);
            let prev = guards[guards.len() - 1];
            let conj = m.and(prev, l);
            let disj = m.or(conj, l);
            guards.extend([l, conj, disj]);
            for &g in &guards {
                assert_eq!(m.support_len(g), m.support(g).len(), "{g:?}");
            }
        }
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        let (mut m, a, b, _) = mgr3();
        let base = m.cache_stats();
        assert_eq!(base.ite_hits, 0);
        let ab1 = m.and(a, b);
        let after_miss = m.cache_stats();
        assert!(after_miss.ite_misses > base.ite_misses);
        let ab2 = m.and(a, b);
        assert_eq!(ab1, ab2);
        let after_hit = m.cache_stats();
        assert!(after_hit.ite_hits > after_miss.ite_hits);
        assert_eq!(after_hit.node_count, m.node_count());
        // Memoized cofactor: second identical call is a pure cache hit.
        let c = m.literal(Cond::new(2), true);
        let abc = m.and(ab1, c);
        let r1 = m.cofactor(abc, Cond::new(1), true);
        let cof_after_first = m.cache_stats();
        let r2 = m.cofactor(abc, Cond::new(1), true);
        assert_eq!(r1, r2);
        let cof_after_second = m.cache_stats();
        assert!(cof_after_second.cofactor_hits > cof_after_first.cofactor_hits);
        assert_eq!(
            cof_after_second.cofactor_misses,
            cof_after_first.cofactor_misses
        );
    }

    #[test]
    fn bounded_caches_evict_and_stay_correct() {
        // A manager with a 1-entry ite cache must still produce canonical
        // results, and must record evictions.
        let mut m = BddManager::with_cache_capacity(1, 1);
        let lits: Vec<Guard> = (0..8).map(|i| m.literal(Cond::new(i), true)).collect();
        let mut acc = Guard::TRUE;
        for &l in &lits {
            acc = m.and(acc, l);
        }
        let mut reference = BddManager::new();
        let rlits: Vec<Guard> = (0..8)
            .map(|i| reference.literal(Cond::new(i), true))
            .collect();
        let racc = reference.and_all(rlits);
        assert_eq!(m.support(acc), reference.support(racc));
        assert!(m.cache_stats().evictions() > 0, "tiny cache never evicted");
        // Eviction must not corrupt canonicity: same AND again is equal.
        let again = m.and_all(lits);
        assert_eq!(again, acc);
    }

    #[test]
    fn ite_evictions_counted_per_cache() {
        // A 1-entry ite cache with a roomy cofactor cache: building a
        // chain of ANDs forces ite evictions and only ite evictions.
        let mut m = BddManager::with_cache_capacity(1, 1 << 16);
        let lits: Vec<Guard> = (0..8).map(|i| m.literal(Cond::new(i), true)).collect();
        let _ = m.and_all(lits);
        let s = m.cache_stats();
        assert!(s.ite_evictions > 0, "1-entry ite cache never evicted");
        assert_eq!(s.cofactor_evictions, 0, "cofactor cache was not touched");
        assert_eq!(s.evictions(), s.ite_evictions);
    }

    #[test]
    fn cofactor_evictions_counted_per_cache() {
        // Build a deep guard with a roomy ite cache, then cofactor on a
        // high-index variable so the recursion needs >1 memo entry.
        let mut m = BddManager::with_cache_capacity(1 << 18, 1);
        let lits: Vec<Guard> = (0..8).map(|i| m.literal(Cond::new(i), true)).collect();
        let odd = lits.chunks(2).map(|p| m.or(p[0], p[1])).collect::<Vec<_>>();
        let g = m.and_all(odd);
        let before = m.cache_stats();
        let r = m.cofactor(g, Cond::new(7), true);
        let after = m.cache_stats();
        assert!(
            after.cofactor_evictions > before.cofactor_evictions,
            "1-entry cofactor cache never evicted"
        );
        assert_eq!(after.ite_evictions, before.ite_evictions);
        // Eviction must not affect the result: recompute with a roomy cache.
        let mut reference = BddManager::new();
        let rlits: Vec<Guard> = (0..8)
            .map(|i| reference.literal(Cond::new(i), true))
            .collect();
        let rodd = rlits
            .chunks(2)
            .map(|p| reference.or(p[0], p[1]))
            .collect::<Vec<_>>();
        let rg = reference.and_all(rodd);
        let rr = reference.cofactor(rg, Cond::new(7), true);
        assert_eq!(m.support(r), reference.support(rr));
    }

    #[test]
    fn ite_cache_bound_evicts_under_sustained_guard_algebra() {
        // Regression for the bounded ite cache: a *sustained* synthetic
        // guard workload (the shape schedulers generate — continuation
        // chains ANDed with branch literals, ORed across exit
        // iterations, then cofactored) must actually cycle a small
        // cache, not just an adversarial 1-entry one — and eviction
        // must never break canonicity against a roomy reference.
        let mut m = BddManager::with_cache_capacity(64, 64);
        let mut reference = BddManager::new();
        let build = |mgr: &mut BddManager| -> Vec<Guard> {
            let mut out = Vec::new();
            for base in 0..12u32 {
                // chain c_base ∧ c_{base+1} ∧ c_{base+2}
                let mut chain = Guard::TRUE;
                for k in 0..3 {
                    let l = mgr.literal(Cond::new(base + k), true);
                    chain = mgr.and(chain, l);
                }
                // exit-style disjunction with the negated successor
                let nl = mgr.literal(Cond::new(base + 3), false);
                let exit = mgr.and(chain, nl);
                let alt = mgr.literal(Cond::new(base + 4), true);
                let g = mgr.or(exit, alt);
                out.push(mgr.cofactor(g, Cond::new(base + 1), true));
            }
            out
        };
        let got = build(&mut m);
        let want = build(&mut reference);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                m.support(*g),
                reference.support(*w),
                "eviction corrupted canonicity"
            );
        }
        let s = m.cache_stats();
        assert!(
            s.ite_evictions > 0,
            "64-entry ite cache never evicted under sustained algebra: {s}"
        );
        assert_eq!(
            reference.cache_stats().evictions(),
            0,
            "reference manager must be roomy for the cross-check to mean anything"
        );
    }

    #[test]
    fn sop_tokens_mirror_sop_strings() {
        // Token streams must agree with the string renderer on equality:
        // same guard → same stream, different guards → different streams,
        // and the cube structure must match the rendered string.
        let (mut m, a, b, c) = mgr3();
        let ab = m.and(a, b);
        let nb = m.not(b);
        let g1 = m.or(ab, nb);
        let g2 = m.or(a, c);
        let toks = |g: Guard| {
            let mut out = Vec::new();
            m.sop_tokens(g, &mut |cond| cond.index() as u64, &mut out);
            out
        };
        assert_eq!(toks(Guard::FALSE), vec![SOP_FALSE]);
        assert_eq!(toks(Guard::TRUE), vec![SOP_TRUE]);
        assert_eq!(toks(g1), toks(g1));
        assert_ne!(toks(g1), toks(g2));
        // Cube count in the tag matches the string's "+"-separated terms.
        let t = toks(g1);
        let s = m.to_sop_string(g1, &|cond| format!("c{}", cond.index()));
        let n_terms = s.split(" + ").count() as u64;
        assert_eq!(t[0], SOP_CUBES + n_terms);
        // Polarity is the low bit (0 = negated): !b appears as the
        // literal `c1 << 1` somewhere in the stream.
        assert!(t.contains(&(1u64 << 1)), "missing !c1 literal");
    }

    #[test]
    fn assignments_order_independent_of_over_order() {
        let (mut m, a, b, _) = mgr3();
        let g = m.or(a, b);
        let fwd = m.assignments(g, &[Cond::new(0), Cond::new(1)]);
        let rev = m.assignments(g, &[Cond::new(1), Cond::new(0)]);
        assert_eq!(fwd, rev, "enumeration order must be canonical");
    }

    #[test]
    fn cache_stats_display_is_readable() {
        let (mut m, a, b, _) = mgr3();
        let _ = m.and(a, b);
        let s = m.cache_stats().to_string();
        assert!(s.contains("nodes=") && s.contains("ite=") && s.contains("evictions="));
    }

    #[test]
    fn restrict_applies_assignment() {
        let (mut m, a, b, c) = mgr3();
        let ab = m.and(a, b);
        let g = m.and(ab, c);
        let mut asg = Assignment::new();
        asg.set(Cond::new(0), true);
        asg.set(Cond::new(1), true);
        assert_eq!(m.restrict(g, &asg), c);
        asg.set(Cond::new(2), false);
        assert!(m.restrict(g, &asg).is_false());
    }
}
