//! The STG graph structure.

use crate::{OpInst, ValRef};
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

/// One operation issued in a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledOp {
    /// The operation instance (`++1_2` in paper notation).
    pub inst: OpInst,
    /// Concrete operand sources, in port order. Memory writes have
    /// `[addr, data]`; memory reads `[addr]`.
    pub operands: Vec<ValRef>,
    /// Latency in cycles (1 for single-cycle units; 2 for the pipelined
    /// multiplier). The result is architecturally available `latency`
    /// states later; the simulator may commit it at issue because
    /// consumers are scheduled no earlier than that.
    pub latency: u32,
    /// Human-readable speculation condition (`c1_0.!c2_0`), or `"1"` when
    /// the operation is non-speculative in this state. Purely for
    /// display; the execution semantics do not depend on it.
    pub guard_str: String,
}

/// A controller transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// The combination of just-resolved condition-instance outcomes that
    /// activates this transition, in instance order. Empty for an
    /// unconditional transition.
    pub when: Vec<(OpInst, bool)>,
    /// Destination state.
    pub target: StateId,
    /// Register relabelings applied on this edge (the variable
    /// relabelings of Example 10): the value registered under the first
    /// instance becomes readable under the second, atomically.
    pub renames: Vec<(OpInst, OpInst)>,
}

/// A controller state: the operations it issues and its outgoing
/// transitions.
#[derive(Debug, Clone, Default)]
pub struct State {
    /// Operations issued this cycle, in intra-state dependency order
    /// (chained consumers follow their producers).
    pub ops: Vec<ScheduledOp>,
    /// Condition instances computed in this state whose outcomes select
    /// the outgoing transition.
    pub resolves: Vec<OpInst>,
    /// Outgoing transitions, one per satisfiable outcome combination of
    /// `resolves` (a single unconditional transition when `resolves` is
    /// empty).
    pub transitions: Vec<Transition>,
}

/// A scheduled state transition graph.
///
/// Construct with [`Stg::new`] and the `add_*` methods (the schedulers do
/// this); inspect with the accessors.
#[derive(Debug, Clone)]
pub struct Stg {
    name: String,
    states: Vec<State>,
    start: StateId,
    stop: StateId,
}

impl Stg {
    /// Creates an STG with an empty start state and a STOP state.
    pub fn new(name: impl Into<String>) -> Self {
        Stg {
            name: name.into(),
            states: vec![State::default(), State::default()],
            start: StateId(0),
            stop: StateId(1),
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

    /// Basic structural sanity: transition targets exist, and every
    /// non-STOP reachable state has at least one transition (schedules
    /// must terminate into STOP, not dead-end).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        for (i, st) in self.states.iter().enumerate() {
            for t in &st.transitions {
                if t.target.index() >= self.states.len() {
                    return Err(format!("S{i} transitions to missing {}", t.target));
                }
            }
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
}
