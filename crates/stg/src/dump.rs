//! Human-readable and Graphviz renderings of STGs, in the visual style of
//! Fig. 2 of the paper: states annotated with `op_iter/guard` labels and
//! edges with condition combinations.

use crate::{ScheduledOp, State, Stg, Transition};
use cdfg::Cdfg;
use std::fmt::Write as _;

fn op_label(g: &Cdfg, inst: &crate::OpInst) -> String {
    let mut s = g.op(inst.op).name().to_string();
    for i in &inst.iter {
        s.push('_');
        s.push_str(&i.to_string());
    }
    s
}

/// A state's `op_iter/guard` labels (just `op_iter` when unguarded),
/// joined by `sep`.
fn ops_label(g: &Cdfg, stg: &Stg, st: &State, sep: &str) -> String {
    let label = |o: &ScheduledOp| match stg.guard(o.guard) {
        "1" => op_label(g, stg.inst(o.dest)),
        guard => format!("{}/{guard}", op_label(g, stg.inst(o.dest))),
    };
    st.ops.iter().map(label).collect::<Vec<_>>().join(sep)
}

fn edge_label(g: &Cdfg, stg: &Stg, t: &Transition) -> String {
    if t.when.is_empty() {
        return String::new();
    }
    t.when
        .iter()
        .map(|&(slot, v)| {
            let l = op_label(g, stg.inst(slot));
            if v {
                l
            } else {
                format!("!{l}")
            }
        })
        .collect::<Vec<_>>()
        .join(".")
}

/// Renders an STG as indented text, one state per paragraph — the exact
/// shape used by the experiment harness to print Fig. 2-style schedules.
pub fn render_text(stg: &Stg, g: &Cdfg) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "STG `{}`:", stg.name());
    for sid in stg.reachable() {
        let st = stg.state(sid);
        if sid == stg.stop() {
            let _ = writeln!(out, "  {sid}: STOP");
            continue;
        }
        let ops = ops_label(g, stg, st, ", ");
        let _ = writeln!(out, "  {sid}: {{{ops}}}");
        for t in &st.transitions {
            let lbl = edge_label(g, stg, t);
            let renames = if t.renames.is_empty() {
                String::new()
            } else {
                format!(
                    "  [{}]",
                    t.renames
                        .iter()
                        .map(|&(a, b)| {
                            let (a, b) = (stg.inst(a), stg.inst(b));
                            format!("{} := {}", op_label(g, b), op_label(g, a))
                        })
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            if lbl.is_empty() {
                let _ = writeln!(out, "    -> {}{renames}", t.target);
            } else {
                let _ = writeln!(out, "    -[{lbl}]-> {}{renames}", t.target);
            }
        }
    }
    out
}

impl Stg {
    /// Renders the STG as a Graphviz DOT digraph.
    pub fn to_dot(&self, g: &Cdfg) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name());
        let _ = writeln!(s, "  rankdir=TB; node [shape=box];");
        for sid in self.reachable() {
            let st = self.state(sid);
            if sid == self.stop() {
                let _ = writeln!(
                    s,
                    "  n{} [label=\"STOP\", shape=doublecircle];",
                    sid.index()
                );
                continue;
            }
            let ops = ops_label(g, self, st, "\\n");
            let _ = writeln!(s, "  n{} [label=\"{}\\n{}\"];", sid.index(), sid, ops);
        }
        for sid in self.reachable() {
            for t in &self.state(sid.to_owned()).transitions {
                let lbl = edge_label(g, self, t);
                let _ = writeln!(
                    s,
                    "  n{} -> n{} [label=\"{}\"];",
                    sid.index(),
                    t.target.index(),
                    lbl
                );
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arg, OpInst, ScheduledOp, StateId};
    use cdfg::{CdfgBuilder, OpKind, Src};

    fn tiny() -> (Stg, Cdfg) {
        let mut b = CdfgBuilder::new("t");
        let a = b.input("a");
        let x = b.op(OpKind::Inc, &[Src::Op(a)]);
        b.output("o", Src::Op(x));
        let g = b.finish().unwrap();

        let mut stg = Stg::new("t");
        let stop = stg.stop();
        let start = stg.start();
        let dest = stg.intern(&OpInst::root(x));
        let guard = stg.intern_guard("1");
        let arg = Arg::Input(cdfg::InputId::new(0));
        stg.state_mut(start)
            .ops
            .push(ScheduledOp::new(dest, &[arg], 1, guard).unwrap());
        stg.state_mut(start).transitions.push(Transition {
            when: vec![],
            target: stop,
            renames: vec![],
        });
        (stg, g)
    }

    #[test]
    fn text_render_contains_states_and_ops() {
        let (stg, g) = tiny();
        let txt = render_text(&stg, &g);
        assert!(txt.contains("S0"));
        assert!(txt.contains("++1"));
        assert!(txt.contains("STOP"));
    }

    #[test]
    fn dot_render_is_digraph() {
        let (stg, g) = tiny();
        let dot = stg.to_dot(&g);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("doublecircle"), "STOP rendered specially");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn guarded_op_shows_guard() {
        let (mut stg, g) = tiny();
        let s = StateId(0);
        stg.state_mut(s).ops[0].guard = stg.intern_guard("c1_0");
        let txt = render_text(&stg, &g);
        assert!(txt.contains("++1/c1_0"));
    }
}
