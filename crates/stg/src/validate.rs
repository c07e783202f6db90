//! Static dataflow validation of scheduled STGs.
//!
//! A scheduled STG is self-contained: every operand an operation reads
//! must have been written — in an earlier state on every path that can
//! reach the reader, in the same state earlier in issue order (chaining),
//! or transferred in under a fold edge's renames. The cycle-accurate
//! simulator checks this dynamically for the paths a trace takes;
//! [`validate_dataflow`] checks it statically for **all** paths by a
//! forward may-not-be-defined dataflow analysis, and is the tool that
//! catches scheduler rename/fold bugs on paths no test trace happens to
//! exercise.

use crate::{Arg, OpInst, SlotSet, Stg};

/// A static dataflow violation: on some path into `state`, operation
/// `reader` may read `missing` before any producer wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowError {
    /// The state whose operation reads too early.
    pub state: crate::StateId,
    /// The reading operation instance (or `None` for a transition's
    /// condition lookup).
    pub reader: Option<OpInst>,
    /// The operand instance that may be undefined.
    pub missing: OpInst,
}

impl std::fmt::Display for DataflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.reader {
            Some(r) => write!(
                f,
                "{}: {r} may read {} before it is defined",
                self.state, self.missing
            ),
            None => write!(
                f,
                "{}: transition condition {} may be undefined",
                self.state, self.missing
            ),
        }
    }
}

/// Checks that every operand read and every transition condition is
/// defined on every path, under an *intersection* (must-be-defined)
/// forward analysis seeded empty at the start state.
///
/// # Errors
///
/// Returns every violation found (empty ⇔ the STG is dataflow-sound).
pub fn validate_dataflow(stg: &Stg) -> Result<(), Vec<DataflowError>> {
    // must_in[s]: slots guaranteed defined on entry to s. `None` marks
    // "not yet computed" (top), so the first visit initializes.
    let mut must_in: Vec<Option<SlotSet>> = vec![None; stg.states().len()];
    must_in[stg.start().index()] = Some(SlotSet::new(stg.slot_count()));
    let mut defined = SlotSet::new(stg.slot_count());
    let mut out = SlotSet::new(stg.slot_count());
    let mut work = vec![stg.start()];
    while let Some(sid) = work.pop() {
        let Some(inn) = &must_in[sid.index()] else {
            continue;
        };
        defined.clone_from(inn);
        let st = stg.state(sid);
        for op in &st.ops {
            defined.insert(op.dest);
        }
        for t in &st.transitions {
            // Apply the edge's renames to the defined set, atomically.
            out.clone_from(&defined);
            for &(from, _) in &t.renames {
                out.remove(from);
            }
            for &(from, to) in &t.renames {
                if defined.contains(from) {
                    out.insert(to);
                }
            }
            let updated = match &mut must_in[t.target.index()] {
                Some(prev) => prev.intersect_with(&out),
                slot => {
                    *slot = Some(out.clone());
                    true
                }
            };
            if updated {
                work.push(t.target);
            }
        }
    }

    // Check reads against the fixpoint.
    let mut errors = Vec::new();
    let error = |state, reader: Option<u32>, missing| DataflowError {
        state,
        reader: reader.map(|r| stg.inst(r).clone()),
        missing: stg.inst(missing).clone(),
    };
    for sid in stg.reachable() {
        let st = stg.state(sid);
        match &must_in[sid.index()] {
            Some(inn) => defined.clone_from(inn),
            None => defined.clear(),
        }
        for op in &st.ops {
            for &a in op.args() {
                if let Arg::Slot(s) = a {
                    if !defined.contains(s) {
                        errors.push(error(sid, Some(op.dest), s));
                    }
                }
            }
            defined.insert(op.dest);
        }
        for t in &st.transitions {
            for &(s, _) in &t.when {
                if !defined.contains(s) {
                    errors.push(error(sid, None, s));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScheduledOp, StateId, Transition};
    use cdfg::OpId;

    /// Issues `inst` in `sid`, reading `reads`.
    fn issue(g: &mut Stg, sid: StateId, inst: OpInst, reads: &[&OpInst]) {
        let args: Vec<Arg> = reads.iter().map(|r| Arg::Slot(g.intern(r))).collect();
        let (dest, guard) = (g.intern(&inst), g.intern_guard("1"));
        let op = ScheduledOp::new(dest, &args, 1, guard).unwrap();
        g.state_mut(sid).ops.push(op);
    }

    fn root(op: u32) -> OpInst {
        OpInst::root(OpId::new(op))
    }

    fn edge(target: StateId) -> Transition {
        Transition {
            when: vec![],
            target,
            renames: vec![],
        }
    }

    #[test]
    fn chained_same_state_read_is_sound() {
        let mut g = Stg::new("t");
        let start = g.start();
        let stop = g.stop();
        issue(&mut g, start, root(0), &[]);
        issue(&mut g, start, root(1), &[&root(0)]);
        g.state_mut(start).transitions.push(edge(stop));
        assert_eq!(validate_dataflow(&g), Ok(()));
    }

    #[test]
    fn read_before_write_is_reported() {
        let mut g = Stg::new("t");
        let start = g.start();
        let stop = g.stop();
        issue(&mut g, start, root(1), &[&root(0)]);
        g.state_mut(start).transitions.push(edge(stop));
        let errs = validate_dataflow(&g).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].missing, root(0));
        assert_eq!(errs[0].reader, Some(root(1)));
    }

    #[test]
    fn renames_carry_definitions_across_folds() {
        // start defines op0_1; the self-loop renames op0_1 → op0_0 and a
        // second state reads op0_0.
        let mut g = Stg::new("t");
        let start = g.start();
        let s1 = g.add_state();
        let stop = g.stop();
        let (x1, x0) = (
            OpInst::new(OpId::new(0), vec![1]),
            OpInst::new(OpId::new(0), vec![0]),
        );
        issue(&mut g, start, x1.clone(), &[]);
        let rename = (g.intern(&x1), g.intern(&x0));
        g.state_mut(start).transitions.push(Transition {
            when: vec![],
            target: s1,
            renames: vec![rename],
        });
        issue(&mut g, s1, root(2), &[&x0]);
        g.state_mut(s1).transitions.push(edge(stop));
        assert_eq!(validate_dataflow(&g), Ok(()));
        // Without the rename the read is a violation.
        g.state_mut(start).transitions[0].renames.clear();
        assert!(validate_dataflow(&g).is_err());
    }

    #[test]
    fn swap_edge_renames_atomically() {
        // start defines a and b; the edge swaps them (a→b, b→a). Applied
        // atomically both stay defined; a one-pair-at-a-time application
        // would lose one of them.
        let mut g = Stg::new("t");
        let (start, s1, stop) = (g.start(), g.add_state(), g.stop());
        let (a, b) = (root(0), root(1));
        issue(&mut g, start, a.clone(), &[]);
        issue(&mut g, start, b.clone(), &[]);
        let (sa, sb) = (g.intern(&a), g.intern(&b));
        g.state_mut(start).transitions.push(Transition {
            when: vec![],
            target: s1,
            renames: vec![(sa, sb), (sb, sa)],
        });
        issue(&mut g, s1, root(2), &[&a, &b]);
        g.state_mut(s1).transitions.push(edge(stop));
        assert_eq!(validate_dataflow(&g), Ok(()));
    }

    #[test]
    fn must_analysis_intersects_over_paths() {
        // Two paths into s2; only one defines op0 — reading it in s2 is a
        // violation.
        let mut g = Stg::new("t");
        let start = g.start();
        let a = g.add_state();
        let b = g.add_state();
        let s2 = g.add_state();
        let stop = g.stop();
        issue(&mut g, start, root(9), &[]);
        let c = g.intern(&root(9));
        g.state_mut(start).transitions.push(Transition {
            when: vec![(c, true)],
            target: a,
            renames: vec![],
        });
        g.state_mut(start).transitions.push(Transition {
            when: vec![(c, false)],
            target: b,
            renames: vec![],
        });
        issue(&mut g, a, root(0), &[]);
        g.state_mut(a).transitions.push(edge(s2));
        g.state_mut(b).transitions.push(edge(s2));
        issue(&mut g, s2, root(1), &[&root(0)]);
        g.state_mut(s2).transitions.push(edge(stop));
        let errs = validate_dataflow(&g).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
    }
}
