//! The STG graph structure.

use crate::{Arg, OpInst, MAX_ARGS};
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a state in an [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// One operation issued in a state, with its result and operands named
/// by slots of the STG's instance table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The slot the result is written to; [`Stg::inst`] names the
    /// operation instance (`++1_2` in paper notation).
    pub dest: u32,
    /// Latency in cycles (1 for single-cycle units; 2 for the pipelined
    /// multiplier). The result is architecturally available `latency`
    /// states later; the simulator may commit it at issue because
    /// consumers are scheduled no earlier than that.
    pub latency: u32,
    /// Index of the human-readable speculation condition (`c1_0.!c2_0`,
    /// or `"1"` when the operation is non-speculative in this state) in
    /// the STG's guard table; see [`Stg::guard`]. Purely for display;
    /// the execution semantics do not depend on it.
    pub guard: u32,
    args: [Arg; MAX_ARGS],
    arity: u8,
}

impl ScheduledOp {
    /// An operation writing slot `dest` from `args`, in port order.
    /// Memory writes have `[addr, data]`; memory reads `[addr]`.
    ///
    /// # Errors
    ///
    /// Returns [`ArityError`] if `args` holds more than [`MAX_ARGS`]
    /// operands, more than any operation kind takes.
    pub fn new(dest: u32, args: &[Arg], latency: u32, guard: u32) -> Result<Self, ArityError> {
        let mut inline = [Arg::Const(0); MAX_ARGS];
        inline
            .get_mut(..args.len())
            .ok_or(ArityError { arity: args.len() })?
            .copy_from_slice(args);
        Ok(ScheduledOp {
            dest,
            latency,
            guard,
            args: inline,
            arity: args.len() as u8,
        })
    }

    /// The operands, in port order.
    #[inline]
    pub fn args(&self) -> &[Arg] {
        &self.args[..usize::from(self.arity)]
    }
}

/// An operation was given more than [`MAX_ARGS`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArityError {
    /// The number of operands given.
    pub arity: usize,
}

impl fmt::Display for ArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} operands, but no operation takes more than {MAX_ARGS}",
            self.arity
        )
    }
}

impl std::error::Error for ArityError {}

/// A controller transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The combination of just-resolved condition-instance outcomes that
    /// activates this transition: each condition's slot and the outcome
    /// it must have. Empty for an unconditional transition.
    pub when: Vec<(u32, bool)>,
    /// Destination state.
    pub target: StateId,
    /// Register relabelings applied on this edge (the variable
    /// relabelings of Example 10), as `(from, to)` slot pairs: the value
    /// registered under `from` becomes readable under `to`, atomically.
    pub renames: Vec<(u32, u32)>,
}

/// A controller state: the operations it issues and its outgoing
/// transitions.
#[derive(Debug, Clone, Default)]
pub struct State {
    /// Operations issued this cycle, in intra-state dependency order
    /// (chained consumers follow their producers).
    pub ops: Vec<ScheduledOp>,
    /// Slots of the condition instances computed in this state whose
    /// outcomes select the outgoing transition, in instance order.
    pub resolves: Vec<u32>,
    /// Outgoing transitions, one per satisfiable outcome combination of
    /// `resolves` (a single unconditional transition when `resolves` is
    /// empty).
    pub transitions: Vec<Transition>,
}

/// A scheduled state transition graph.
///
/// Every value the STG names is a *slot*: a dense `u32` index into its
/// instance table, which holds one [`OpInst`] per distinct instance.
/// Ops, operands, transition conditions, renames and `resolves` all
/// refer to slots, so a consumer indexes arrays by them instead of
/// hashing instances. Guard strings are likewise stored once each and
/// referenced by index.
///
/// Construct with [`Stg::new`], the `add_*` methods and the slot
/// interners (the schedulers do this); inspect with the accessors.
#[derive(Debug, Clone)]
pub struct Stg {
    name: String,
    states: Vec<State>,
    start: StateId,
    stop: StateId,
    /// Slot → instance, one entry per distinct instance.
    insts: Vec<OpInst>,
    /// Guard index → rendered guard, one entry per distinct string.
    guards: Vec<String>,
}

impl Stg {
    /// Creates an STG with an empty start state and a STOP state.
    pub fn new(name: impl Into<String>) -> Self {
        Stg {
            name: name.into(),
            states: vec![State::default(), State::default()],
            start: StateId(0),
            stop: StateId(1),
            insts: Vec::new(),
            guards: Vec::new(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The initial state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// The terminal STOP state (no operations, no transitions).
    pub fn stop(&self) -> StateId {
        self.stop
    }

    /// The slot of `inst`, adding it to the instance table if it has
    /// none yet. Scans the table, so it suits hand-built STGs; a
    /// scheduler that indexes its own instances appends with
    /// [`Stg::push_inst`].
    pub fn intern(&mut self, inst: &OpInst) -> u32 {
        match self.insts.iter().position(|i| i == inst) {
            Some(slot) => slot as u32,
            None => self.push_inst(inst.clone()),
        }
    }

    /// Appends `inst` to the instance table and returns its slot. The
    /// caller guarantees `inst` has no slot yet; [`Stg::check`] rejects a
    /// table naming an instance twice.
    pub fn push_inst(&mut self, inst: OpInst) -> u32 {
        let slot = u32::try_from(self.insts.len()).expect("too many slots");
        self.insts.push(inst);
        slot
    }

    /// The instance behind a slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    pub fn inst(&self, slot: u32) -> &OpInst {
        &self.insts[slot as usize]
    }

    /// Number of slots: the distinct instances the STG names.
    pub fn slot_count(&self) -> usize {
        self.insts.len()
    }

    /// The index of guard string `guard`, adding it to the guard table
    /// if it is not there yet.
    pub fn intern_guard(&mut self, guard: &str) -> u32 {
        let index = match self.guards.iter().position(|g| g == guard) {
            Some(i) => i,
            None => {
                self.guards.push(guard.to_string());
                self.guards.len() - 1
            }
        };
        u32::try_from(index).expect("too many guards")
    }

    /// The guard string behind an index (see [`ScheduledOp::guard`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn guard(&self, index: u32) -> &str {
        &self.guards[index as usize]
    }

    /// Heap bytes the STG holds, counted from capacities, so the figure
    /// is deterministic for a given construction sequence.
    pub fn heap_bytes(&self) -> usize {
        fn buf<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let states: usize = self
            .states
            .iter()
            .map(|st| {
                let edges: usize = st
                    .transitions
                    .iter()
                    .map(|t| buf(&t.when) + buf(&t.renames))
                    .sum();
                buf(&st.ops) + buf(&st.resolves) + buf(&st.transitions) + edges
            })
            .sum();
        let guards: usize = self.guards.iter().map(String::capacity).sum();
        self.name.capacity()
            + buf(&self.states)
            + states
            + buf(&self.insts)
            + buf(&self.guards)
            + guards
    }

    /// Adds a fresh empty state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(u32::try_from(self.states.len()).expect("too many states"));
        self.states.push(State::default());
        id
    }

    /// Read access to a state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.index()]
    }

    /// Write access to a state (used by the schedulers while building).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn state_mut(&mut self, id: StateId) -> &mut State {
        &mut self.states[id.index()]
    }

    /// All states, indexable by [`StateId::index`].
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// Number of *working* states: states reachable from start, excluding
    /// STOP — the `#states` metric of Table 1.
    pub fn working_state_count(&self) -> usize {
        self.reachable().iter().filter(|&&s| s != self.stop).count()
    }

    /// States reachable from the start state.
    pub fn reachable(&self) -> Vec<StateId> {
        let mut seen = vec![false; self.states.len()];
        let mut queue = VecDeque::from([self.start]);
        let mut out = Vec::new();
        seen[self.start.index()] = true;
        while let Some(s) = queue.pop_front() {
            out.push(s);
            for t in &self.states[s.index()].transitions {
                if !seen[t.target.index()] {
                    seen[t.target.index()] = true;
                    queue.push_back(t.target);
                }
            }
        }
        out
    }

    /// Static best case: the minimum number of working states on any path
    /// from start to STOP (BFS over transitions), or `None` if STOP is
    /// unreachable. This is the "best-case number of cycles" column of
    /// Table 1.
    pub fn best_case_cycles(&self) -> Option<u64> {
        if self.start == self.stop {
            return Some(0);
        }
        let mut dist = vec![u64::MAX; self.states.len()];
        dist[self.start.index()] = 0;
        let mut queue = VecDeque::from([self.start]);
        while let Some(s) = queue.pop_front() {
            for t in &self.states[s.index()].transitions {
                if dist[t.target.index()] == u64::MAX {
                    dist[t.target.index()] = dist[s.index()] + 1;
                    if t.target == self.stop {
                        return Some(dist[t.target.index()]);
                    }
                    queue.push_back(t.target);
                }
            }
        }
        None
    }

    /// Basic structural sanity: transition targets exist, every slot
    /// and guard index is in range, the instance table names each
    /// instance once, and every non-STOP reachable state has at least
    /// one transition (schedules must terminate into STOP, not
    /// dead-end).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        let slots = self.insts.len();
        for (i, st) in self.states.iter().enumerate() {
            let reads = st
                .ops
                .iter()
                .flat_map(|op| op.args())
                .filter_map(|a| match *a {
                    Arg::Slot(s) => Some(s),
                    _ => None,
                });
            let edges = st.transitions.iter().flat_map(|t| {
                let when = t.when.iter().map(|w| w.0);
                when.chain(t.renames.iter().flat_map(|&(from, to)| [from, to]))
            });
            let dests = st.ops.iter().map(|op| op.dest);
            let mut named = dests
                .chain(reads)
                .chain(st.resolves.iter().copied())
                .chain(edges);
            if let Some(s) = named.find(|&s| s as usize >= slots) {
                return Err(format!("S{i} names missing slot {s}"));
            }
            if let Some(op) = st
                .ops
                .iter()
                .find(|op| op.guard as usize >= self.guards.len())
            {
                return Err(format!("S{i} names missing guard {}", op.guard));
            }
            for t in &st.transitions {
                if t.target.index() >= self.states.len() {
                    return Err(format!("S{i} transitions to missing {}", t.target));
                }
            }
        }
        let mut sorted: Vec<&OpInst> = self.insts.iter().collect();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("instance {} has two slots", w[0]));
        }
        for s in self.reachable() {
            if s != self.stop && self.states[s.index()].transitions.is_empty() {
                return Err(format!("{s} is a dead end (no transitions, not STOP)"));
            }
        }
        if !self.states[self.stop.index()].transitions.is_empty() {
            return Err("STOP state must have no transitions".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_stg() -> Stg {
        // start → s1 → stop
        let mut g = Stg::new("t");
        let s1 = g.add_state();
        let stop = g.stop();
        g.state_mut(g.start()).transitions.push(Transition {
            when: vec![],
            target: s1,
            renames: vec![],
        });
        g.state_mut(s1).transitions.push(Transition {
            when: vec![],
            target: stop,
            renames: vec![],
        });
        g
    }

    #[test]
    fn fresh_stg_shape() {
        let g = Stg::new("x");
        assert_eq!(g.name(), "x");
        assert_ne!(g.start(), g.stop());
        assert!(g.state(g.stop()).transitions.is_empty());
    }

    #[test]
    fn best_case_is_shortest_path() {
        let g = linear_stg();
        assert_eq!(g.best_case_cycles(), Some(2));
        assert_eq!(g.working_state_count(), 2);
    }

    #[test]
    fn best_case_none_when_stop_unreachable() {
        let mut g = Stg::new("loop");
        let s = g.start();
        g.state_mut(s).transitions.push(Transition {
            when: vec![],
            target: s,
            renames: vec![],
        });
        assert_eq!(g.best_case_cycles(), None);
    }

    #[test]
    fn check_catches_dead_ends() {
        let mut g = Stg::new("dead");
        let s1 = g.add_state();
        g.state_mut(g.start()).transitions.push(Transition {
            when: vec![],
            target: s1,
            renames: vec![],
        });
        // s1 has no transitions and is not STOP.
        assert!(g.check().is_err());
        let stop = g.stop();
        g.state_mut(s1).transitions.push(Transition {
            when: vec![],
            target: stop,
            renames: vec![],
        });
        assert!(g.check().is_ok());
    }

    #[test]
    fn reachable_excludes_orphans() {
        let mut g = linear_stg();
        let _orphan = g.add_state();
        assert_eq!(g.reachable().len(), 3, "start, s1, stop");
    }

    fn inst(op: u32, iter: Vec<u32>) -> OpInst {
        OpInst::new(cdfg::OpId::new(op), iter)
    }

    #[test]
    fn interning_names_each_instance_once_in_dense_slots() {
        let mut g = Stg::new("t");
        let insts = [
            inst(1, vec![1]),
            inst(1, vec![0]),
            inst(2, vec![]),
            inst(3, vec![]),
        ];
        for (s, i) in insts.iter().enumerate() {
            assert_eq!(g.intern(i), s as u32, "fresh instances take the next slot");
        }
        for (s, i) in insts.iter().enumerate().rev() {
            assert_eq!(g.intern(i), s as u32, "a second intern reuses the slot");
        }
        assert_eq!(g.slot_count(), insts.len());
        for (s, i) in insts.iter().enumerate() {
            assert_eq!(g.inst(s as u32), i);
        }
        let v1 = OpInst {
            version: 1,
            ..inst(1, vec![1])
        };
        assert_eq!(g.intern(&v1), 4, "versions are distinct instances");

        assert_eq!(g.intern_guard("1"), 0);
        assert_eq!(g.intern_guard("c1_0"), 1);
        assert_eq!(g.intern_guard("1"), 0);
        assert_eq!((g.guard(0), g.guard(1)), ("1", "c1_0"));
    }

    #[test]
    fn ops_take_at_most_max_args_operands() {
        let args = [
            Arg::Slot(0),
            Arg::Const(-7),
            Arg::Input(cdfg::InputId::new(2)),
        ];
        let op = ScheduledOp::new(5, &args, 2, 1).unwrap();
        assert_eq!((op.dest, op.latency, op.guard), (5, 2, 1));
        assert_eq!(op.args(), &args);
        assert_eq!(ScheduledOp::new(5, &[], 1, 0).unwrap().args(), &[]);
        let err = ScheduledOp::new(5, &[Arg::Const(0); MAX_ARGS + 1], 1, 0).unwrap_err();
        assert_eq!(
            err,
            ArityError {
                arity: MAX_ARGS + 1
            }
        );
        assert_eq!(
            err.to_string(),
            "4 operands, but no operation takes more than 3"
        );
    }

    #[test]
    fn check_catches_dangling_and_duplicate_slots() {
        let mut g = linear_stg();
        let s1 = StateId(2);
        let x = g.intern(&inst(1, vec![]));
        let one = g.intern_guard("1");
        g.state_mut(s1)
            .ops
            .push(ScheduledOp::new(x, &[Arg::Slot(x)], 1, one).unwrap());
        assert_eq!(g.check(), Ok(()));
        g.state_mut(s1).transitions[0].renames.push((x, 7));
        assert_eq!(g.check(), Err("S2 names missing slot 7".into()));
        g.state_mut(s1).transitions[0].renames.clear();
        g.push_inst(inst(1, vec![]));
        assert_eq!(g.check(), Err("instance op1 has two slots".into()));
    }

    #[test]
    fn heap_bytes_counts_every_buffer() {
        let mut g = linear_stg();
        let before = g.heap_bytes();
        let x = g.intern(&inst(1, vec![]));
        let one = g.intern_guard("1");
        assert_eq!(
            g.heap_bytes(),
            before
                + g.insts.capacity() * std::mem::size_of::<OpInst>()
                + g.guards.capacity() * std::mem::size_of::<String>()
                + 1
        );
        let before = g.heap_bytes();
        let s1 = StateId(2);
        g.state_mut(s1).transitions[0].renames = vec![(x, x); 3];
        assert_eq!(g.heap_bytes(), before + 3 * 8);
        g.state_mut(s1)
            .ops
            .push(ScheduledOp::new(x, &[], 1, one).unwrap());
        assert!(g.heap_bytes() >= before + 3 * 8 + std::mem::size_of::<ScheduledOp>());
    }
}
