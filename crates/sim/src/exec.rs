//! Direct CDFG execution and branch profiling.
//!
//! Executes a CDFG with conventional sequential semantics — loops
//! iterate, branches select — without any scheduling. This serves two
//! purposes:
//!
//! * a **second golden model**, structurally independent of both the
//!   `hls-lang` interpreter (which walks the AST) and the STG simulator
//!   (which executes schedules), so three-way agreement is strong
//!   evidence of functional correctness;
//! * the **profiler**: it tallies how often every conditional operation
//!   evaluates true over a trace set, producing the branch probabilities
//!   the paper's scheduler consumes (Sec. 2: "profiling information that
//!   indicates the branch probabilities").
//!
//! Both build one execution plan per CDFG — the topological order
//! cut into per-region item lists, with every port resolved to a dense
//! index — and then run each input vector on flat `Vec`s indexed by
//! [`OpId`] and [`LoopId`].

use cdfg::analysis::{intra_topo_order, BranchProbs};
use cdfg::{Cdfg, CtrlKind, LoopId, OpId, OpKind, PortKind, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// Result of one CDFG execution.
#[derive(Debug, Clone)]
pub struct CdfgOutcome {
    /// Final outputs by name.
    pub outputs: BTreeMap<String, Value>,
    /// Final memory contents by name.
    pub mems: HashMap<String, Vec<Value>>,
    /// Per conditional op: (times true, times evaluated meaningfully).
    pub cond_stats: HashMap<OpId, (u64, u64)>,
    /// Operation evaluations performed (a step-limit proxy).
    pub steps: u64,
}

/// Errors raised by direct execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecCdfgError {
    /// The step limit was exhausted (runaway loop).
    StepLimit,
    /// A required input was not supplied.
    MissingInput(String),
}

impl std::fmt::Display for ExecCdfgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecCdfgError::StepLimit => write!(f, "step limit exhausted"),
            ExecCdfgError::MissingInput(n) => write!(f, "no value supplied for input `{n}`"),
        }
    }
}

impl std::error::Error for ExecCdfgError {}

/// Binds `inputs` to `g`'s primary inputs, in declaration order, into
/// `out`. When a name is bound twice the last binding wins. Returns the
/// first input name left unbound.
pub(crate) fn bind_inputs(
    g: &Cdfg,
    inputs: &[(&str, Value)],
    out: &mut Vec<Value>,
) -> Result<(), String> {
    out.clear();
    for (_, name) in g.inputs() {
        let v = inputs
            .iter()
            .rev()
            .find(|(n, _)| *n == name.as_str())
            .ok_or_else(|| name.clone())?;
        out.push(v.1);
    }
    Ok(())
}

/// Every memory of `g`, indexed by `MemId`, holding its `mem_init`
/// contents zero-extended (or truncated) to the declared size.
pub(crate) fn initial_mems(g: &Cdfg, mem_init: &HashMap<String, Vec<Value>>) -> Vec<Vec<Value>> {
    g.mems()
        .iter()
        .map(|m| {
            let mut cells = mem_init.get(m.name()).cloned().unwrap_or_default();
            cells.resize(m.size(), 0);
            cells
        })
        .collect()
}

/// Executes `g` on one input vector.
///
/// # Errors
///
/// See [`ExecCdfgError`].
pub fn execute_cdfg(
    g: &Cdfg,
    inputs: &[(&str, Value)],
    mem_init: &HashMap<String, Vec<Value>>,
    step_limit: u64,
) -> Result<CdfgOutcome, ExecCdfgError> {
    let plan = Plan::new(g);
    let mut ex = Exec::new(&plan, step_limit);
    ex.run(g, inputs, &initial_mems(g, mem_init))?;
    Ok(CdfgOutcome {
        outputs: g
            .outputs()
            .iter()
            .map(|(id, name)| (name.clone(), ex.outputs[id.index()]))
            .collect(),
        mems: g
            .mems()
            .iter()
            .map(|m| (m.name().to_string(), ex.mems[m.id().index()].clone()))
            .collect(),
        cond_stats: ex
            .cond_stats
            .iter()
            .enumerate()
            .filter(|(_, &(_, n))| n > 0)
            .map(|(i, &tn)| (OpId::new(i as u32), tn))
            .collect(),
        steps: ex.steps,
    })
}

/// Profiles `g` over a set of input vectors, producing the branch
/// probabilities the scheduler consumes. A run that fails — it exceeds
/// `step_limit` or lacks an input — contributes nothing: its partial
/// tallies are discarded.
pub fn profile_cdfg(
    g: &Cdfg,
    runs: &[Vec<(&str, Value)>],
    mem_init: &HashMap<String, Vec<Value>>,
    step_limit: u64,
) -> BranchProbs {
    let plan = Plan::new(g);
    let image = initial_mems(g, mem_init);
    let mut ex = Exec::new(&plan, step_limit);
    let mut tally = vec![(0u64, 0u64); g.ops().len()];
    for inputs in runs {
        if ex.run(g, inputs, &image).is_ok() {
            for (acc, &(t, n)) in tally.iter_mut().zip(&ex.cond_stats) {
                acc.0 += t;
                acc.1 += n;
            }
        }
    }
    let mut probs = BranchProbs::new();
    for (i, &(t, n)) in tally.iter().enumerate() {
        if n > 0 {
            probs.set(OpId::new(i as u32), t as f64 / n as f64);
        }
    }
    probs
}

/// One step of a region: evaluate an op, or run a directly nested loop
/// to its exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Item {
    Op(OpId),
    Loop(LoopId),
}

/// An input port, resolved against the executor's dense tables.
#[derive(Debug, Clone, Copy)]
enum Port {
    Wire(OpId),
    /// `prev` indexes the snapshot of `src`, or is `None` when `src` is
    /// not a member of `lp` (a later-iteration read then panics).
    Carried {
        lp: LoopId,
        prev: Option<usize>,
        init: OpId,
    },
    Exit {
        lp: LoopId,
        src: OpId,
        init: OpId,
    },
}

#[derive(Debug)]
struct OpPlan {
    kind: OpKind,
    /// The op's slice of [`Plan::ports`].
    ports: Range<usize>,
    /// The op's slice of [`Plan::branches`].
    branches: Range<usize>,
    conditional: bool,
}

#[derive(Debug)]
struct LoopPlan {
    cond: OpId,
    /// The condition cone, in topological order.
    cone: Vec<OpId>,
    /// The body minus the cone, in topological order, with nested loops
    /// entered at their first op.
    body: Vec<Item>,
    /// Members read through carried ports, with their snapshot index:
    /// copied at the end of every iteration for the next one to read.
    carried: Vec<(OpId, usize)>,
}

/// A CDFG compiled for repeated execution.
#[derive(Debug)]
struct Plan {
    top: Vec<Item>,
    loops: Vec<LoopPlan>,
    ops: Vec<OpPlan>,
    /// Every op's input ports, in operand order, back to back.
    ports: Vec<Port>,
    /// Every op's `(cond, polarity)` branch gates on side effects and
    /// profiling, back to back.
    branches: Vec<(OpId, bool)>,
    /// Total snapshot slots over all loops.
    prev_len: usize,
}

/// The items of the region at loop nest `path`: in `order`, the kept ops
/// whose loop path is `path`, and each directly nested loop once, at its
/// first kept op.
fn region_items(
    g: &Cdfg,
    order: &[OpId],
    path: &[LoopId],
    keep: impl Fn(OpId) -> bool,
) -> Vec<Item> {
    let mut items = Vec::new();
    for &id in order.iter().filter(|&&id| keep(id)) {
        let op_path = g.op(id).loop_path();
        if op_path == path {
            items.push(Item::Op(id));
        } else if op_path.len() > path.len() && op_path.starts_with(path) {
            let nested = Item::Loop(op_path[path.len()]);
            if !items.contains(&nested) {
                items.push(nested);
            }
        }
    }
    items
}

impl Plan {
    fn new(g: &Cdfg) -> Plan {
        let n = g.ops().len();
        let order = intra_topo_order(g).expect("validated CDFG");
        let mask = |ids: &[OpId]| {
            let mut m = vec![false; n];
            for id in ids {
                m[id.index()] = true;
            }
            m
        };
        let members: Vec<Vec<bool>> = g.loops().iter().map(|l| mask(l.members())).collect();
        let mut loops: Vec<LoopPlan> = g
            .loops()
            .iter()
            .zip(&members)
            .map(|(info, member)| {
                let in_cone = mask(info.cond_cone());
                let path = g.op(info.cond()).loop_path();
                LoopPlan {
                    cond: info.cond(),
                    cone: order
                        .iter()
                        .copied()
                        .filter(|id| in_cone[id.index()])
                        .collect(),
                    body: region_items(g, &order, path, |id| {
                        member[id.index()] && !in_cone[id.index()]
                    }),
                    carried: Vec::new(),
                }
            })
            .collect();
        // Snapshot slot k holds member `snapshots[k].1` of loop `.0`.
        let mut snapshots: Vec<(LoopId, OpId)> = Vec::new();
        let mut ops = Vec::with_capacity(n);
        let mut ports = Vec::new();
        let mut branches = Vec::new();
        for op in g.ops() {
            let first_port = ports.len();
            for p in op.ports() {
                ports.push(match *p {
                    PortKind::Wire(s) => Port::Wire(s),
                    PortKind::Carried { lp, src, init } => {
                        let prev = members[lp.index()][src.index()].then(|| {
                            snapshots
                                .iter()
                                .position(|&k| k == (lp, src))
                                .unwrap_or_else(|| {
                                    snapshots.push((lp, src));
                                    snapshots.len() - 1
                                })
                        });
                        Port::Carried { lp, prev, init }
                    }
                    PortKind::Exit { lp, src, init } => Port::Exit { lp, src, init },
                });
            }
            let first_branch = branches.len();
            branches.extend(
                op.ctrl_deps()
                    .iter()
                    .filter(|d| d.kind == CtrlKind::Branch)
                    .map(|d| (d.cond, d.polarity)),
            );
            ops.push(OpPlan {
                kind: op.kind(),
                ports: first_port..ports.len(),
                branches: first_branch..branches.len(),
                conditional: op.is_conditional(),
            });
        }
        for (slot, &(lp, src)) in snapshots.iter().enumerate() {
            loops[lp.index()].carried.push((src, slot));
        }
        Plan {
            top: region_items(g, &order, &[], |_| true),
            loops,
            ops,
            ports,
            branches,
            prev_len: snapshots.len(),
        }
    }
}

/// Executor state for one input vector at a time; [`Exec::run`] resets
/// it in place, so a profile over many vectors allocates once.
struct Exec<'p> {
    plan: &'p Plan,
    input_vals: Vec<Value>,
    mems: Vec<Vec<Value>>,
    outputs: Vec<Value>,
    /// Current value of every op (latest wave), by `OpId`.
    env: Vec<Option<Value>>,
    /// The previous iteration's values of carried-read loop members, by
    /// snapshot index.
    prev: Vec<Option<Value>>,
    /// Per loop: executing its first iteration (carried ports read
    /// inits).
    first_iter: Vec<bool>,
    /// Per loop: the body ran at least once (exit views read `src`;
    /// else the init).
    ran_body: Vec<bool>,
    /// Per op: (times true, times evaluated meaningfully).
    cond_stats: Vec<(u64, u64)>,
    steps: u64,
    step_limit: u64,
}

impl<'p> Exec<'p> {
    fn new(plan: &'p Plan, step_limit: u64) -> Self {
        let (n, l) = (plan.ops.len(), plan.loops.len());
        Exec {
            plan,
            input_vals: Vec::new(),
            mems: Vec::new(),
            outputs: Vec::new(),
            env: vec![None; n],
            prev: vec![None; plan.prev_len],
            first_iter: vec![true; l],
            ran_body: vec![false; l],
            cond_stats: vec![(0, 0); n],
            steps: 0,
            step_limit,
        }
    }

    /// Runs one input vector from a clean state, starting from the
    /// memory `image` (indexed by `MemId`).
    fn run(
        &mut self,
        g: &Cdfg,
        inputs: &[(&str, Value)],
        image: &[Vec<Value>],
    ) -> Result<(), ExecCdfgError> {
        bind_inputs(g, inputs, &mut self.input_vals).map_err(ExecCdfgError::MissingInput)?;
        self.mems.resize_with(image.len(), Vec::new);
        for (mem, init) in self.mems.iter_mut().zip(image) {
            mem.clone_from(init);
        }
        self.outputs.clear();
        self.outputs.resize(g.outputs().len(), 0);
        self.env.fill(None);
        self.prev.fill(None);
        self.first_iter.fill(true);
        self.ran_body.fill(false);
        self.cond_stats.fill((0, 0));
        self.steps = 0;
        let plan = self.plan;
        self.items(&plan.top)
    }

    fn tick(&mut self) -> Result<(), ExecCdfgError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(ExecCdfgError::StepLimit)
        } else {
            Ok(())
        }
    }

    fn items(&mut self, items: &[Item]) -> Result<(), ExecCdfgError> {
        for &item in items {
            match item {
                Item::Op(id) => self.eval_op(id)?,
                Item::Loop(l) => self.exec_loop(l)?,
            }
        }
        Ok(())
    }

    fn value(&self, id: OpId) -> Value {
        self.env[id.index()].expect("validated CDFG: producers run before consumers")
    }

    fn exec_loop(&mut self, l: LoopId) -> Result<(), ExecCdfgError> {
        let plan = self.plan;
        let lp = &plan.loops[l.index()];
        self.first_iter[l.index()] = true;
        self.ran_body[l.index()] = false;
        loop {
            self.tick()?;
            for &id in &lp.cone {
                self.eval_op(id)?;
            }
            if self.value(lp.cond) == 0 {
                break;
            }
            self.items(&lp.body)?;
            // Snapshot this iteration's values for next iteration's
            // carried reads.
            for &(m, slot) in &lp.carried {
                self.prev[slot] = self.env[m.index()];
            }
            self.first_iter[l.index()] = false;
            self.ran_body[l.index()] = true;
        }
        Ok(())
    }

    fn read_port(&self, p: Port) -> Value {
        match p {
            Port::Wire(s) => self.value(s),
            Port::Carried { lp, prev, init } => {
                if self.first_iter[lp.index()] {
                    self.value(init)
                } else {
                    self.prev[prev.expect("carried source is a loop member")]
                        .expect("carried source ran in the previous iteration")
                }
            }
            Port::Exit { lp, src, init } => {
                if self.ran_body[lp.index()] {
                    // Body values of the last completed iteration remain
                    // in env (the final cone evaluation only overwrote
                    // cone ops).
                    self.value(src)
                } else {
                    self.value(init)
                }
            }
        }
    }

    fn eval_op(&mut self, id: OpId) -> Result<(), ExecCdfgError> {
        self.tick()?;
        let plan = self.plan;
        let op = &plan.ops[id.index()];
        let ports = &plan.ports[op.ports.clone()];
        let mut buf = [0 as Value; 3];
        for (b, &p) in buf.iter_mut().zip(ports) {
            *b = self.read_port(p);
        }
        let vals = &buf[..ports.len()];
        // Side effects commit only when the realized branch conditions
        // hold (loop gating is implied by reaching this point).
        let branches_hold = plan.branches[op.branches.clone()]
            .iter()
            .all(|&(cond, polarity)| (self.value(cond) != 0) == polarity);
        let result = match op.kind {
            OpKind::Const(v) => v,
            OpKind::Input(i) => self.input_vals[i.index()],
            OpKind::MemRead(m) => {
                let mem = &self.mems[m.index()];
                let idx = vals[0].rem_euclid(mem.len() as Value) as usize;
                mem[idx]
            }
            OpKind::MemWrite(m) => {
                if branches_hold {
                    let mem = &mut self.mems[m.index()];
                    let idx = vals[0].rem_euclid(mem.len() as Value) as usize;
                    mem[idx] = vals[1];
                }
                vals[1]
            }
            OpKind::Output(o) => {
                if branches_hold {
                    self.outputs[o.index()] = vals[0];
                }
                vals[0]
            }
            k => k.eval(vals, None),
        };
        self.env[id.index()] = Some(result);
        // Profile: tally meaningful evaluations of conditionals.
        if op.conditional && branches_hold {
            let e = &mut self.cond_stats[id.index()];
            if result != 0 {
                e.0 += 1;
            }
            e.1 += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_lang::Program;

    fn exec(src: &str, inputs: &[(&str, i64)]) -> CdfgOutcome {
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        execute_cdfg(&g, inputs, &HashMap::new(), 1_000_000).unwrap()
    }

    #[test]
    fn agrees_with_interpreter_on_gcd() {
        let src = "design gcd { input x, y; output g; var a = x; var b = y;
            while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";
        for (x, y) in [(54, 24), (7, 13), (9, 9), (100, 1)] {
            let cd = exec(src, &[("x", x), ("y", y)]);
            let p = Program::parse(src).unwrap();
            let it =
                hls_lang::interp::run(&p, &[("x", x), ("y", y)], &Default::default(), 1_000_000)
                    .unwrap();
            assert_eq!(cd.outputs["g"], it.outputs["g"], "gcd({x},{y})");
        }
    }

    #[test]
    fn profiles_loop_condition() {
        let src = "design d { input n; output o; var i = 0;
            while (i < n) { i = i + 1; } o = i; }";
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        let out = execute_cdfg(&g, &[("n", 9)], &HashMap::new(), 100_000).unwrap();
        let cond = g.loops()[0].cond();
        let (t, n) = out.cond_stats[&cond];
        assert_eq!((t, n), (9, 10), "9 continues, 1 exit check");
        let probs = profile_cdfg(&g, &[vec![("n", 9)]], &HashMap::new(), 100_000);
        assert!((probs.get(cond) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn profile_drops_runs_over_the_step_limit() {
        let src = "design d { input n; output o; var i = 0;
            while (i < n) { i = i + 1; } o = i; }";
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        let cond = g.loops()[0].cond();
        let limit = 200;
        let long = vec![("n", 1_000)];
        assert_eq!(
            execute_cdfg(&g, &long, &HashMap::new(), limit).unwrap_err(),
            ExecCdfgError::StepLimit
        );
        // Alone, the runaway vector leaves no probability at all...
        let probs = profile_cdfg(&g, std::slice::from_ref(&long), &HashMap::new(), limit);
        assert_eq!(probs.iter().count(), 0);
        // ...and beside a finished run it does not move the tally: only
        // n = 3's 3 continues out of 4 checks count.
        let probs = profile_cdfg(&g, &[vec![("n", 3)], long], &HashMap::new(), limit);
        assert_eq!(probs.iter().collect::<Vec<_>>(), vec![(cond, 0.75)]);
    }

    #[test]
    fn branch_profile_counts_only_taken_paths() {
        // The inner condition is evaluated every iteration; its profile
        // reflects actual outcomes.
        let src = "design d { input n; output acc; var i = 0; var s = 0;
            while (i < n) { if (i > 2) { s = s + i; } i = i + 1; } acc = s; }";
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        let out = execute_cdfg(&g, &[("n", 6)], &HashMap::new(), 100_000).unwrap();
        assert_eq!(out.outputs["acc"], 3 + 4 + 5);
        // i > 2 true for i = 3, 4, 5 out of 6 evaluations.
        let gt = g
            .ops()
            .iter()
            .find(|o| o.kind() == OpKind::Gt)
            .unwrap()
            .id();
        assert_eq!(out.cond_stats[&gt], (3, 6));
    }

    #[test]
    fn memory_and_branch_effects() {
        let src = "design d { input a; output o; mem M[4];
            if (a > 0) { M[0] = a; } else { M[1] = a; } o = M[0] + M[1]; }";
        let cd = exec(src, &[("a", 5)]);
        assert_eq!(cd.mems["M"], vec![5, 0, 0, 0]);
        assert_eq!(cd.outputs["o"], 5);
        let cd = exec(src, &[("a", -3)]);
        assert_eq!(cd.mems["M"], vec![0, -3, 0, 0]);
        assert_eq!(cd.outputs["o"], -3);
    }

    #[test]
    fn nested_loops_execute() {
        // The inner loop carries `j` and `s` through `prev`; at i = 0 its
        // body never runs, so the outer body reads `s` through the exit
        // view's init.
        let src = "design d { input n; output acc; var i = 0; var s = 0;
            while (i < n) { var j = 0; while (j < i) { s = s + 1; j = j + 1; } i = i + 1; }
            acc = s; }";
        let p = Program::parse(src).unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        let cond_of = |outer: bool| {
            let l = g.loops().iter().find(|l| l.parent().is_none() == outer);
            l.unwrap().cond()
        };
        let (outer, inner) = (cond_of(true), cond_of(false));
        // (n, acc, outer (true, evaluated), inner (true, evaluated)).
        for (n, acc, outer_stats, inner_stats) in [
            (0, 0, (0, 1), None),
            (1, 0, (1, 2), Some((0, 1))),
            (2, 1, (2, 3), Some((1, 3))),
            (5, 10, (5, 6), Some((10, 15))),
        ] {
            let cd = execute_cdfg(&g, &[("n", n)], &HashMap::new(), 1_000_000).unwrap();
            let it =
                hls_lang::interp::run(&p, &[("n", n)], &Default::default(), 1_000_000).unwrap();
            assert_eq!(cd.outputs["acc"], acc, "n = {n}");
            assert_eq!(cd.outputs, it.outputs, "n = {n}: executor vs interpreter");
            let mut want = HashMap::from([(outer, outer_stats)]);
            want.extend(inner_stats.map(|s| (inner, s)));
            assert_eq!(cd.cond_stats, want, "n = {n}");
        }
    }

    #[test]
    fn step_limit_reported() {
        let src = "design d { output o; var i = 0; while (i < 1) { i = i * 1; } o = i; }";
        let g = hls_lang::lower::compile(&Program::parse(src).unwrap()).unwrap();
        let err = execute_cdfg(&g, &[], &HashMap::new(), 100).unwrap_err();
        assert_eq!(err, ExecCdfgError::StepLimit);
    }
}
