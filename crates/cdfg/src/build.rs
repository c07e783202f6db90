//! Structured construction of [`Cdfg`]s.
//!
//! [`CdfgBuilder`] mirrors the shape of a behavioral description: loops and
//! branches are entered and left like scopes, loop-carried variables are
//! declared with an initial value and assigned their next-iteration source,
//! and memory accesses are ordered automatically. The builder attaches all
//! control dependencies (branch gates, loop-body gates, loop-continue
//! gates, loop-exit gates) so schedulers never have to reconstruct them.

use crate::graph::{CtrlDep, CtrlKind, LoopInfo, MemInfo, Op, PortKind};
use crate::{Cdfg, CdfgError, InputId, LoopId, MemId, OpId, OpKind, OutputId, Value};
use std::collections::{HashMap, HashSet};

/// Handle to a loop-carried variable declared with [`CdfgBuilder::carried`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CarriedId(u32);

/// An operand source accepted by [`CdfgBuilder::op`]: either a previously
/// created operation's result or the current-iteration view of a
/// loop-carried variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// The result of an operation.
    Op(OpId),
    /// The current value of a loop-carried variable (last iteration's
    /// update, or the initial value in iteration 0).
    Carried(CarriedId),
}

#[derive(Debug)]
enum Scope {
    Loop(LoopId),
    Branch { cond: OpId, polarity: bool },
}

#[derive(Debug)]
struct CarriedSlot {
    lp: LoopId,
    init: OpId,
    next: Option<OpId>,
}

#[derive(Debug)]
struct LoopBuild {
    parent: Option<LoopId>,
    cond: Option<OpId>,
    members: Vec<OpId>,
}

#[derive(Debug, Clone, Copy)]
enum BSrc {
    Op(OpId),
    Carried(CarriedId),
    /// Loop-exit view of a carried slot (resolved at finish()).
    Exit(CarriedId),
}

/// A fully resolved carried edge recorded before `finish()` (used for the
/// memory ordering chain, which never goes through a [`CarriedId`] slot).
#[derive(Debug, Clone, Copy)]
struct PortKindBuild {
    lp: LoopId,
    src: OpId,
    init: OpId,
}

#[derive(Debug)]
struct PendingOp {
    kind: OpKind,
    name: String,
    ports: Vec<BSrc>,
    order_deps: Vec<BSrc>,
    carried_order_deps: Vec<PortKindBuild>,
    ctrl_deps: Vec<CtrlDep>,
    loop_path: Vec<LoopId>,
}

#[derive(Debug, Default)]
struct MemState {
    /// Token of the last access, for program-order serialization.
    last: Option<BSrc>,
}

/// Per-loop bookkeeping for the cross-iteration memory ordering chain.
#[derive(Debug)]
struct MemFrame {
    /// Memory token state when the loop was entered.
    token_before: Vec<Option<BSrc>>,
    /// First access to each memory inside the loop, if any.
    first_access: Vec<Option<OpId>>,
}

/// Builder for [`Cdfg`]s.
///
/// The builder is a small structured-programming facade: operations are
/// created in program order inside `begin_loop`/`end_loop` and
/// `begin_if`/`begin_else`/`end_if` scopes.
///
/// # Panics
///
/// Builder methods panic on *misuse* — unbalanced scopes, assigning a
/// carried variable twice, using a carried variable outside its loop —
/// because these are programming errors in the caller. Semantic problems
/// in the resulting graph are reported by [`CdfgBuilder::finish`] as
/// [`CdfgError`]s instead.
#[derive(Debug)]
pub struct CdfgBuilder {
    name: String,
    ops: Vec<PendingOp>,
    scopes: Vec<Scope>,
    loops: Vec<LoopBuild>,
    carried: Vec<CarriedSlot>,
    mems: Vec<MemInfo>,
    mem_state: Vec<MemState>,
    mem_frames: Vec<MemFrame>,
    inputs: Vec<(InputId, String)>,
    outputs: Vec<(OutputId, String)>,
    const_cache: HashMap<(Value, usize), OpId>,
    exit_cache: HashMap<CarriedId, OpId>,
}

impl CdfgBuilder {
    /// Creates a builder for a design called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CdfgBuilder {
            name: name.into(),
            ops: Vec::new(),
            scopes: Vec::new(),
            loops: Vec::new(),
            carried: Vec::new(),
            mems: Vec::new(),
            mem_state: Vec::new(),
            mem_frames: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            const_cache: HashMap::new(),
            exit_cache: HashMap::new(),
        }
    }

    fn loop_path(&self) -> Vec<LoopId> {
        self.scopes
            .iter()
            .filter_map(|s| match s {
                Scope::Loop(l) => Some(*l),
                Scope::Branch { .. } => None,
            })
            .collect()
    }

    fn branch_deps(&self) -> Vec<CtrlDep> {
        self.scopes
            .iter()
            .filter_map(|s| match s {
                Scope::Branch { cond, polarity } => Some(CtrlDep {
                    cond: *cond,
                    polarity: *polarity,
                    kind: CtrlKind::Branch,
                }),
                Scope::Loop(_) => None,
            })
            .collect()
    }

    fn push_op(&mut self, kind: OpKind, name: String, ports: Vec<BSrc>) -> OpId {
        let id = OpId::new(u32::try_from(self.ops.len()).expect("too many ops"));
        let loop_path = self.loop_path();
        for lp in &loop_path {
            self.loops[lp.index()].members.push(id);
        }
        self.ops.push(PendingOp {
            kind,
            name,
            ports,
            order_deps: Vec::new(),
            carried_order_deps: Vec::new(),
            ctrl_deps: self.branch_deps(),
            loop_path,
        });
        id
    }

    fn check_src(&self, s: Src) -> BSrc {
        match s {
            Src::Op(id) => {
                assert!(id.index() < self.ops.len(), "source {id} does not exist");
                let cur = self.loop_path();
                assert!(
                    cur.starts_with(&self.ops[id.index()].loop_path),
                    "source {id} lives inside a loop the consumer is not part of; \
                     consume it through exit_value()"
                );
                BSrc::Op(id)
            }
            Src::Carried(c) => {
                let slot = self
                    .carried
                    .get(c.0 as usize)
                    .expect("carried variable does not exist");
                assert!(
                    self.loop_path().contains(&slot.lp),
                    "carried variable of {} used outside that loop; use exit_value()",
                    slot.lp
                );
                BSrc::Carried(c)
            }
        }
    }

    /// Number of operations created so far. Useful for detecting whether
    /// an operation was created inside the current scope.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The kind of an already-created operation.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist.
    pub fn kind_of(&self, id: OpId) -> OpKind {
        self.ops[id.index()].kind
    }

    /// Declares a primary input and returns the operation producing its
    /// value.
    pub fn input(&mut self, name: impl Into<String>) -> OpId {
        let name = name.into();
        let id = InputId::new(u32::try_from(self.inputs.len()).expect("too many inputs"));
        self.inputs.push((id, name.clone()));
        self.push_op(OpKind::Input(id), name, Vec::new())
    }

    /// Returns an operation producing the integer constant `v`.
    /// Constants are deduplicated per loop nest.
    pub fn constant(&mut self, v: Value) -> OpId {
        let depth = self.loop_path().len();
        if let Some(&id) = self.const_cache.get(&(v, depth)) {
            // Only reuse when the cached op's loop path matches exactly;
            // depth collisions across sibling scopes are fine because
            // constants are pure and scope-independent, but keep the path
            // consistent for analyses.
            if self.ops[id.index()].loop_path == self.loop_path() {
                return id;
            }
        }
        let id = self.push_op(OpKind::Const(v), format!("#{v}"), Vec::new());
        self.const_cache.insert((v, depth), id);
        id
    }

    /// Declares a memory (array) of `size` cells.
    ///
    /// # Panics
    ///
    /// Panics if called inside a loop scope — memories are global storage
    /// and must be declared at the top level.
    pub fn mem(&mut self, name: impl Into<String>, size: usize) -> MemId {
        assert!(
            self.loop_path().is_empty(),
            "memories must be declared outside loops"
        );
        let id = MemId::new(u32::try_from(self.mems.len()).expect("too many memories"));
        self.mems.push(MemInfo {
            id,
            name: name.into(),
            size,
        });
        self.mem_state.push(MemState::default());
        id
    }

    /// Creates an operation of `kind` reading the given sources.
    ///
    /// # Panics
    ///
    /// Panics if the number of sources does not match the kind's arity, if
    /// a source does not exist, or if a carried source is used outside its
    /// loop.
    pub fn op(&mut self, kind: OpKind, srcs: &[Src]) -> OpId {
        assert_eq!(srcs.len(), kind.arity(), "wrong operand count for {kind}");
        assert!(
            !matches!(kind, OpKind::MemRead(_) | OpKind::MemWrite(_)),
            "use mem_read/mem_write for memory operations"
        );
        assert!(
            !matches!(
                kind,
                OpKind::Input(_) | OpKind::Output(_) | OpKind::Const(_)
            ),
            "use input/output/constant for I/O and literals"
        );
        let ports: Vec<BSrc> = srcs.iter().map(|&s| self.check_src(s)).collect();
        let n = self.ops.iter().filter(|o| o.kind == kind).count() + 1;
        self.push_op(kind, format!("{kind}{n}"), ports)
    }

    /// Materializes any source as an operation result via a free
    /// [`OpKind::Pass`]; returns the source unchanged when it already is
    /// one.
    pub fn pass(&mut self, src: Src) -> OpId {
        match src {
            Src::Op(id) => {
                let _ = self.check_src(src);
                id
            }
            Src::Carried(_) => {
                let ports = vec![self.check_src(src)];
                self.push_op(OpKind::Pass, "pass".to_string(), ports)
            }
        }
    }

    /// Convenience: a select (multiplexer) computing
    /// `if cond != 0 { t } else { f }`.
    pub fn select(&mut self, cond: Src, t: Src, f: Src) -> OpId {
        let ports = vec![self.check_src(cond), self.check_src(t), self.check_src(f)];
        let n = self.ops.iter().filter(|o| o.kind == OpKind::Select).count() + 1;
        self.push_op(OpKind::Select, format!("sel{n}"), ports)
    }

    /// Creates a memory read `mem[addr]`, serialized after the previous
    /// access to the same memory (single-ported memory model).
    pub fn mem_read(&mut self, mem: MemId, addr: Src) -> OpId {
        let ports = vec![self.check_src(addr)];
        let n = self
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::MemRead(m) if m == mem))
            .count()
            + 1;
        let id = self.push_op(
            OpKind::MemRead(mem),
            format!("{}r{n}", self.mems[mem.index()].name),
            ports,
        );
        self.chain_mem_access(mem, id);
        id
    }

    /// Creates a memory write `mem[addr] = data`, serialized after the
    /// previous access to the same memory.
    pub fn mem_write(&mut self, mem: MemId, addr: Src, data: Src) -> OpId {
        let ports = vec![self.check_src(addr), self.check_src(data)];
        let n = self
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::MemWrite(m) if m == mem))
            .count()
            + 1;
        let id = self.push_op(
            OpKind::MemWrite(mem),
            format!("{}w{n}", self.mems[mem.index()].name),
            ports,
        );
        self.chain_mem_access(mem, id);
        id
    }

    fn chain_mem_access(&mut self, mem: MemId, id: OpId) {
        if let Some(prev) = self.mem_state[mem.index()].last {
            self.ops[id.index()].order_deps.push(prev);
        }
        self.mem_state[mem.index()].last = Some(BSrc::Op(id));
        for frame in &mut self.mem_frames {
            if frame.first_access[mem.index()].is_none() {
                frame.first_access[mem.index()] = Some(id);
            }
        }
    }

    /// Declares a primary output fed by `src`. Returns the output
    /// operation.
    pub fn output(&mut self, name: impl Into<String>, src: Src) -> OpId {
        let name = name.into();
        let oid = OutputId::new(u32::try_from(self.outputs.len()).expect("too many outputs"));
        self.outputs.push((oid, name.clone()));
        let ports = vec![self.check_src(src)];
        self.push_op(OpKind::Output(oid), name, ports)
    }

    /// Opens a `while` loop scope. The loop's continue condition must be
    /// registered with [`CdfgBuilder::loop_condition`] before the matching
    /// [`CdfgBuilder::end_loop`].
    pub fn begin_loop(&mut self) -> LoopId {
        let id = LoopId::new(u32::try_from(self.loops.len()).expect("too many loops"));
        let parent = self.loop_path().last().copied();
        self.loops.push(LoopBuild {
            parent,
            cond: None,
            members: Vec::new(),
        });
        self.scopes.push(Scope::Loop(id));
        // Snapshot memory tokens: accesses inside the loop form a carried
        // ordering chain installed at end_loop.
        self.mem_frames.push(MemFrame {
            token_before: self.mem_state.iter().map(|m| m.last).collect(),
            first_access: vec![None; self.mems.len()],
        });
        id
    }

    /// Declares a loop-carried variable of the innermost open loop, with
    /// initial value produced by `init` (an operation outside the loop).
    ///
    /// # Panics
    ///
    /// Panics if no loop scope is open.
    pub fn carried(&mut self, init: OpId) -> CarriedId {
        let lp = *self
            .loop_path()
            .last()
            .expect("carried() requires an open loop scope");
        let id = CarriedId(u32::try_from(self.carried.len()).expect("too many carried vars"));
        self.carried.push(CarriedSlot {
            lp,
            init,
            next: None,
        });
        id
    }

    /// Returns an operation producing the loop-exit value of a carried
    /// variable: the last update if the loop body ran, or the initial
    /// value if it never did. Materialized as a free [`OpKind::Pass`] and
    /// memoized per variable.
    ///
    /// # Panics
    ///
    /// Panics if the carrying loop is still open (the exit value only
    /// exists after the loop), or if `c` does not exist.
    pub fn exit_value(&mut self, c: CarriedId) -> OpId {
        if let Some(&id) = self.exit_cache.get(&c) {
            return id;
        }
        let slot = self
            .carried
            .get(c.0 as usize)
            .expect("carried variable does not exist");
        assert!(
            !self.loop_path().contains(&slot.lp),
            "exit_value() is only available after the loop closes"
        );
        let id = self.push_op(OpKind::Pass, format!("exit{}", c.0), vec![BSrc::Exit(c)]);
        self.exit_cache.insert(c, id);
        id
    }

    /// Sets the next-iteration source of a carried variable.
    ///
    /// # Panics
    ///
    /// Panics if already set or if `c` does not exist.
    pub fn set_carried(&mut self, c: CarriedId, next: OpId) {
        let slot = self
            .carried
            .get_mut(c.0 as usize)
            .expect("carried variable does not exist");
        assert!(slot.next.is_none(), "carried variable assigned twice");
        slot.next = Some(next);
    }

    /// Registers the continue condition of the innermost open loop.
    ///
    /// # Panics
    ///
    /// Panics if no loop is open or the condition is already set.
    pub fn loop_condition(&mut self, cond: OpId) {
        let lp = *self
            .loop_path()
            .last()
            .expect("loop_condition() requires an open loop scope");
        let slot = &mut self.loops[lp.index()];
        assert!(slot.cond.is_none(), "loop condition set twice");
        slot.cond = Some(cond);
    }

    /// Closes the innermost loop scope, attaching loop-body and
    /// loop-continue control dependencies to its members.
    ///
    /// # Panics
    ///
    /// Panics if the innermost scope is not a loop or the loop has no
    /// condition.
    pub fn end_loop(&mut self) {
        let lp = match self.scopes.pop() {
            Some(Scope::Loop(l)) => l,
            other => panic!("end_loop() without matching begin_loop (found {other:?})"),
        };
        let cond = self.loops[lp.index()]
            .cond
            .expect("loop closed without a continue condition");
        // Install the cross-iteration memory ordering chain: the first
        // access to a memory inside the loop must follow the last access
        // of the previous iteration (or the pre-loop access in iteration
        // 0).
        let frame = self.mem_frames.pop().expect("frame stack in sync");
        for mem_idx in 0..frame.first_access.len() {
            let Some(first) = frame.first_access[mem_idx] else {
                continue;
            };
            let last_in_loop = match self.mem_state[mem_idx].last {
                Some(BSrc::Op(id)) => id,
                _ => unreachable!("memory accessed in loop has an op token"),
            };
            let init = match frame.token_before[mem_idx] {
                Some(BSrc::Op(id)) => id,
                Some(BSrc::Carried(_) | BSrc::Exit(_)) => {
                    unreachable!("memory tokens are always op results")
                }
                // No access before the loop: synthesize a constant token
                // outside the loop (the scope was already popped, so the
                // constant's loop path excludes `lp`).
                None => self.constant(0),
            };
            let carried = PortKindBuild {
                lp,
                src: last_in_loop,
                init,
            };
            self.ops[first.index()].carried_order_deps.push(carried);
            // The plain order dep `chain_mem_access` gave the first
            // in-loop access (on the pre-loop token) is subsumed by the
            // carried chain's iteration-0 init; keeping both would make
            // every iteration re-query the pre-loop token, which dangles
            // once the producing context is garbage-collected.
            if let Some(BSrc::Op(prev)) = frame.token_before[mem_idx] {
                self.ops[first.index()]
                    .order_deps
                    .retain(|d| !matches!(*d, BSrc::Op(p) if p == prev));
            }
            // Post-loop accesses must follow the ordering chain's value at
            // loop exit.
            let tok = CarriedId(u32::try_from(self.carried.len()).expect("too many carried vars"));
            self.carried.push(CarriedSlot {
                lp,
                init,
                next: Some(last_in_loop),
            });
            let pass = self.exit_value(tok);
            self.mem_state[mem_idx].last = Some(BSrc::Op(pass));
        }
        // Compute the condition cone: members of `lp` feeding `cond`
        // through intra-iteration wires.
        let members: HashSet<OpId> = self.loops[lp.index()].members.iter().copied().collect();
        let mut cone = HashSet::new();
        let mut stack = vec![cond];
        while let Some(x) = stack.pop() {
            if !members.contains(&x) || !cone.insert(x) {
                continue;
            }
            for p in self.ops[x.index()]
                .ports
                .iter()
                .chain(&self.ops[x.index()].order_deps)
            {
                if let BSrc::Op(s) = *p {
                    stack.push(s);
                }
            }
        }
        let member_list = self.loops[lp.index()].members.clone();
        for m in &member_list {
            // Only direct members decide their own gating; nested-loop
            // members received their gates when the inner loop closed, but
            // they still need the outer gate.
            let dep = if cone.contains(m) {
                CtrlDep {
                    cond,
                    polarity: true,
                    kind: CtrlKind::LoopContinue(lp),
                }
            } else {
                CtrlDep {
                    cond,
                    polarity: true,
                    kind: CtrlKind::LoopBody(lp),
                }
            };
            self.ops[m.index()].ctrl_deps.push(dep);
        }
    }

    /// Opens the true branch of an `if` on `cond`.
    pub fn begin_if(&mut self, cond: OpId) {
        assert!(
            cond.index() < self.ops.len(),
            "condition {cond} does not exist"
        );
        self.scopes.push(Scope::Branch {
            cond,
            polarity: true,
        });
    }

    /// Switches from the true branch to the false branch of the innermost
    /// `if`.
    ///
    /// # Panics
    ///
    /// Panics if the innermost scope is not a true branch.
    pub fn begin_else(&mut self) {
        match self.scopes.last_mut() {
            Some(Scope::Branch { polarity, .. }) if *polarity => *polarity = false,
            other => panic!("begin_else() without an open true branch (found {other:?})"),
        }
    }

    /// Closes the innermost `if` scope.
    ///
    /// # Panics
    ///
    /// Panics if the innermost scope is not a branch.
    pub fn end_if(&mut self) {
        match self.scopes.pop() {
            Some(Scope::Branch { .. }) => {}
            other => panic!("end_if() without matching begin_if (found {other:?})"),
        }
    }

    /// Finalizes the graph: resolves carried ports, attaches loop-exit
    /// control dependencies, derives conditional flags, and validates.
    ///
    /// # Errors
    ///
    /// Returns a [`CdfgError`] if the graph violates a structural
    /// invariant (see [`Cdfg::validate`]).
    ///
    /// # Panics
    ///
    /// Panics if scopes are still open or a carried variable was never
    /// assigned — both are builder misuse.
    pub fn finish(self) -> Result<Cdfg, CdfgError> {
        assert!(
            self.scopes.is_empty(),
            "finish() with {} unclosed scopes",
            self.scopes.len()
        );
        let resolve = |s: BSrc| -> PortKind {
            match s {
                BSrc::Op(id) => PortKind::Wire(id),
                BSrc::Carried(c) => {
                    let slot = &self.carried[c.0 as usize];
                    PortKind::Carried {
                        lp: slot.lp,
                        src: slot
                            .next
                            .expect("carried variable was never assigned with set_carried"),
                        init: slot.init,
                    }
                }
                BSrc::Exit(c) => {
                    let slot = &self.carried[c.0 as usize];
                    PortKind::Exit {
                        lp: slot.lp,
                        src: slot
                            .next
                            .expect("carried variable was never assigned with set_carried"),
                        init: slot.init,
                    }
                }
            }
        };
        let mut ops: Vec<Op> = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut op = Op::new(
                    OpId::new(i as u32),
                    p.kind,
                    p.name.clone(),
                    p.ports.iter().map(|&s| resolve(s)).collect(),
                    p.loop_path.clone(),
                );
                op.order_deps = p.order_deps.iter().map(|&s| resolve(s)).collect();
                op.order_deps
                    .extend(p.carried_order_deps.iter().map(|c| PortKind::Carried {
                        lp: c.lp,
                        src: c.src,
                        init: c.init,
                    }));
                op.ctrl_deps = p.ctrl_deps.clone();
                op
            })
            .collect();

        let loops: Vec<LoopInfo> = self
            .loops
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let id = LoopId::new(i as u32);
                let cond = l.cond.expect("loop closed without a continue condition");
                let members: HashSet<OpId> = l.members.iter().copied().collect();
                let cone: Vec<OpId> = ops
                    .iter()
                    .filter(|o| {
                        o.ctrl_deps.iter().any(|d| {
                            d.kind == CtrlKind::LoopContinue(id) && members.contains(&o.id)
                        })
                    })
                    .map(|o| o.id)
                    .collect();
                LoopInfo {
                    id,
                    parent: l.parent,
                    cond,
                    members: l.members.clone(),
                    cond_cone: cone,
                }
            })
            .collect();

        // Attach loop-exit dependencies: an op consuming a loop's exit
        // view executes only once the loop's continue condition has
        // evaluated false.
        for op in &mut ops {
            let mut exit_deps: Vec<CtrlDep> = Vec::new();
            for p in op.ports.iter().chain(&op.order_deps) {
                if let PortKind::Exit { lp, .. } = *p {
                    let dep = CtrlDep {
                        cond: loops[lp.index()].cond,
                        polarity: false,
                        kind: CtrlKind::LoopExit(lp),
                    };
                    if !exit_deps.contains(&dep) && !op.ctrl_deps.contains(&dep) {
                        exit_deps.push(dep);
                    }
                }
            }
            op.ctrl_deps.extend(exit_deps);
        }

        // Derive conditional flags.
        let mut conditional: HashSet<OpId> = ops
            .iter()
            .flat_map(|o| o.ctrl_deps.iter().map(|d| d.cond))
            .collect();
        conditional.extend(loops.iter().map(|l| l.cond));
        // Select conditions also steer datapath choice.
        for op in &ops {
            if op.kind.is_select() {
                if let PortKind::Wire(s) | PortKind::Carried { src: s, .. } = op.ports[0] {
                    conditional.insert(s);
                }
            }
        }
        for op in &mut ops {
            op.is_conditional = conditional.contains(&op.id);
        }

        let g = Cdfg {
            name: self.name,
            ops,
            loops,
            mems: self.mems,
            inputs: self.inputs,
            outputs: self.outputs,
        };
        g.validate()?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(n_val: Value) -> Cdfg {
        let mut b = CdfgBuilder::new("counter");
        let n = b.constant(n_val);
        let zero = b.constant(0);
        b.begin_loop();
        let i = b.carried(zero);
        let c = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(n)]);
        b.loop_condition(c);
        let i1 = b.op(OpKind::Inc, &[Src::Carried(i)]);
        b.set_carried(i, i1);
        b.end_loop();
        let e = b.exit_value(i);
        b.output("count", Src::Op(e));
        b.finish().unwrap()
    }

    #[test]
    fn counter_builds() {
        let g = counter(5);
        assert_eq!(g.loops().len(), 1);
        let lp = &g.loops()[0];
        // < and ++ are both members; only < is in the condition cone.
        assert_eq!(lp.members().len(), 2);
        assert_eq!(lp.cond_cone().len(), 1);
    }

    #[test]
    fn loop_gating_kinds() {
        let g = counter(5);
        let lp = &g.loops()[0];
        let cond_op = g.op(lp.cond());
        assert!(cond_op
            .ctrl_deps()
            .iter()
            .any(|d| d.kind == CtrlKind::LoopContinue(lp.id()) && d.polarity));
        let inc = g.ops().iter().find(|o| o.kind() == OpKind::Inc).unwrap();
        assert!(inc
            .ctrl_deps()
            .iter()
            .any(|d| d.kind == CtrlKind::LoopBody(lp.id()) && d.polarity));
    }

    #[test]
    fn exit_dep_attached_to_exit_view() {
        let g = counter(5);
        let lp = &g.loops()[0];
        let pass = g
            .ops()
            .iter()
            .find(|o| o.kind() == OpKind::Pass)
            .expect("exit view materialized");
        assert!(pass
            .ctrl_deps()
            .iter()
            .any(|d| d.kind == CtrlKind::LoopExit(lp.id()) && !d.polarity));
        assert!(matches!(pass.ports()[0], PortKind::Exit { .. }));
    }

    #[test]
    fn exit_value_memoized() {
        let mut b = CdfgBuilder::new("memo");
        let n = b.input("n");
        let zero = b.constant(0);
        b.begin_loop();
        let i = b.carried(zero);
        let c = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(n)]);
        b.loop_condition(c);
        let i1 = b.op(OpKind::Inc, &[Src::Carried(i)]);
        b.set_carried(i, i1);
        b.end_loop();
        let e1 = b.exit_value(i);
        let e2 = b.exit_value(i);
        assert_eq!(e1, e2);
    }

    #[test]
    #[should_panic(expected = "consume it through exit_value")]
    fn wire_from_loop_rejected() {
        let mut b = CdfgBuilder::new("bad");
        let n = b.input("n");
        let zero = b.constant(0);
        b.begin_loop();
        let i = b.carried(zero);
        let c = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(n)]);
        b.loop_condition(c);
        let i1 = b.op(OpKind::Inc, &[Src::Carried(i)]);
        b.set_carried(i, i1);
        b.end_loop();
        b.output("count", Src::Op(i1));
    }

    #[test]
    fn branch_deps_attach_with_polarity() {
        let mut b = CdfgBuilder::new("branchy");
        let x = b.input("x");
        let y = b.input("y");
        let c = b.op(OpKind::Gt, &[Src::Op(x), Src::Op(y)]);
        b.begin_if(c);
        let t = b.op(OpKind::Add, &[Src::Op(x), Src::Op(y)]);
        b.begin_else();
        let f = b.op(OpKind::Sub, &[Src::Op(x), Src::Op(y)]);
        b.end_if();
        let s = b.select(Src::Op(c), Src::Op(t), Src::Op(f));
        b.output("r", Src::Op(s));
        let g = b.finish().unwrap();
        let add = g.op(t);
        assert_eq!(
            add.ctrl_deps(),
            &[CtrlDep {
                cond: c,
                polarity: true,
                kind: CtrlKind::Branch
            }]
        );
        let sub = g.op(f);
        assert_eq!(
            sub.ctrl_deps(),
            &[CtrlDep {
                cond: c,
                polarity: false,
                kind: CtrlKind::Branch
            }]
        );
        // The select itself is unconditioned.
        assert!(g.op(s).ctrl_deps().is_empty());
        assert!(g.op(c).is_conditional());
    }

    #[test]
    fn memory_accesses_chain_in_program_order() {
        let mut b = CdfgBuilder::new("mem");
        let a = b.input("a");
        let m = b.mem("M", 8);
        let w = b.mem_write(m, Src::Op(a), Src::Op(a));
        let r = b.mem_read(m, Src::Op(a));
        b.output("v", Src::Op(r));
        let g = b.finish().unwrap();
        assert_eq!(g.op(w).order_deps().len(), 0);
        assert_eq!(g.op(r).order_deps(), &[PortKind::Wire(w)]);
    }

    #[test]
    fn constants_dedup_in_same_scope() {
        let mut b = CdfgBuilder::new("c");
        let c1 = b.constant(7);
        let c2 = b.constant(7);
        assert_eq!(c1, c2);
        let c3 = b.constant(8);
        assert_ne!(c1, c3);
    }

    #[test]
    #[should_panic(expected = "carried() requires an open loop scope")]
    fn carried_outside_loop_panics() {
        let mut b = CdfgBuilder::new("bad");
        let z = b.constant(0);
        b.carried(z);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn double_set_carried_panics() {
        let mut b = CdfgBuilder::new("bad");
        let z = b.constant(0);
        b.begin_loop();
        let i = b.carried(z);
        let c = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(z)]);
        b.loop_condition(c);
        let i1 = b.op(OpKind::Inc, &[Src::Carried(i)]);
        b.set_carried(i, i1);
        b.set_carried(i, i1);
    }

    #[test]
    #[should_panic(expected = "unclosed scopes")]
    fn unclosed_scope_panics() {
        let mut b = CdfgBuilder::new("bad");
        let z = b.constant(0);
        b.begin_loop();
        let i = b.carried(z);
        let c = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(z)]);
        b.loop_condition(c);
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "wrong operand count")]
    fn arity_checked_at_build() {
        let mut b = CdfgBuilder::new("bad");
        let z = b.constant(0);
        b.op(OpKind::Add, &[Src::Op(z)]);
    }

    #[test]
    #[should_panic(expected = "use mem_read/mem_write")]
    fn mem_ops_via_dedicated_methods() {
        let mut b = CdfgBuilder::new("bad");
        let z = b.constant(0);
        let m = b.mem("M", 4);
        b.op(OpKind::MemRead(m), &[Src::Op(z)]);
    }

    #[test]
    fn nested_loops_gate_with_both_conditions() {
        let mut b = CdfgBuilder::new("nested");
        let n = b.input("n");
        let zero = b.constant(0);
        let l0 = b.begin_loop();
        let i = b.carried(zero);
        let c0 = b.op(OpKind::Lt, &[Src::Carried(i), Src::Op(n)]);
        b.loop_condition(c0);
        let l1 = b.begin_loop();
        let j = b.carried(zero);
        let c1 = b.op(OpKind::Lt, &[Src::Carried(j), Src::Op(n)]);
        b.loop_condition(c1);
        let j1 = b.op(OpKind::Inc, &[Src::Carried(j)]);
        b.set_carried(j, j1);
        b.end_loop();
        let i1 = b.op(OpKind::Inc, &[Src::Carried(i)]);
        b.set_carried(i, i1);
        b.end_loop();
        let e = b.exit_value(i);
        b.output("o", Src::Op(e));
        let g = b.finish().unwrap();
        let inner_inc = g.op(j1);
        assert!(inner_inc
            .ctrl_deps()
            .iter()
            .any(|d| d.kind == CtrlKind::LoopBody(l1)));
        assert!(inner_inc
            .ctrl_deps()
            .iter()
            .any(|d| d.kind == CtrlKind::LoopBody(l0)));
        assert_eq!(inner_inc.loop_path(), &[l0, l1]);
    }
}
