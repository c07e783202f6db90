//! The [`Cdfg`] graph structure: operations, data/control edges, loops,
//! memories, and well-formedness validation.

use crate::{InputId, LoopId, MemId, OpId, OpKind, OutputId};
use std::fmt;

/// The producer feeding one input port of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortKind {
    /// The value of `src` in the current scope: the same loop iteration if
    /// `src` shares the consumer's loop nest, the loop-invariant value if
    /// `src` is outside it, or the value at loop exit if `src` sits in a
    /// loop the consumer is not part of.
    Wire(OpId),
    /// A loop-carried value (distance 1): the value `src` produced in the
    /// *previous* iteration of loop `lp`, or the value of `init` (an
    /// operation outside `lp`) in iteration 0. These are the edges drawn
    /// with initial values in parentheses in Fig. 1 of the paper.
    Carried {
        /// The loop the value is carried around.
        lp: LoopId,
        /// Producer of the value in the previous iteration.
        src: OpId,
        /// Producer of the iteration-0 value; must live outside `lp`.
        init: OpId,
    },
    /// The value of a carried chain when loop `lp` exits: `src`'s value
    /// from the last completed iteration, or `init`'s value if the loop
    /// body never ran. The consumer must be *outside* `lp`.
    Exit {
        /// The loop whose exit value is consumed.
        lp: LoopId,
        /// Producer of the per-iteration update inside the loop.
        src: OpId,
        /// Producer of the iteration-0 value; must live outside `lp`.
        init: OpId,
    },
}

impl PortKind {
    /// The in-iteration producer (ignoring the init source of a carried
    /// or exit edge).
    pub fn src(self) -> OpId {
        match self {
            PortKind::Wire(s) => s,
            PortKind::Carried { src, .. } | PortKind::Exit { src, .. } => src,
        }
    }

    /// Every producer of the port: the source plus, for a carried or
    /// exit edge, the init.
    pub fn producers(self) -> impl Iterator<Item = OpId> {
        let init = match self {
            PortKind::Wire(_) => None,
            PortKind::Carried { init, .. } | PortKind::Exit { init, .. } => Some(init),
        };
        std::iter::once(self.src()).chain(init)
    }
}

/// How a control dependency gates its dependent operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtrlKind {
    /// `if`/`else` branch: the dependent executes in the iteration where
    /// the condition instance (same iteration prefix) has `polarity`.
    Branch,
    /// `while` body: the dependent's instance at iteration *k* executes
    /// only if the loop-continue condition instance at iteration *k* is
    /// true.
    LoopBody(LoopId),
    /// Loop-condition cone: the dependent's instance at iteration *k*
    /// (for *k* ≥ 1) executes only if the continue condition at iteration
    /// *k* − 1 was true. Iteration 0 is gated by the enclosing scope only.
    LoopContinue(LoopId),
    /// Code after a loop: the dependent executes in the (unique) iteration
    /// whose continue condition instance is false.
    LoopExit(LoopId),
}

/// A control dependency: the dependent operation is gated on `cond`
/// evaluating to `polarity`, with instance semantics given by `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtrlDep {
    /// The conditional operation whose result gates the dependent.
    pub cond: OpId,
    /// Required outcome (`true` branch vs `false` branch). Loop body /
    /// continue dependencies are always `true`; loop exits always `false`.
    pub polarity: bool,
    /// Instance semantics of the gate.
    pub kind: CtrlKind,
}

/// An operation node.
#[derive(Debug, Clone)]
pub struct Op {
    pub(crate) id: OpId,
    pub(crate) kind: OpKind,
    pub(crate) name: String,
    pub(crate) ports: Vec<PortKind>,
    pub(crate) order_deps: Vec<PortKind>,
    pub(crate) ctrl_deps: Vec<CtrlDep>,
    pub(crate) loop_path: Vec<LoopId>,
    pub(crate) is_conditional: bool,
}

impl Op {
    /// The operation's identifier.
    pub fn id(&self) -> OpId {
        self.id
    }

    /// The operation's kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Human-readable name (e.g. `"+1"`, `">1"`), used in STG dumps.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input ports, in operand order.
    pub fn ports(&self) -> &[PortKind] {
        &self.ports
    }

    /// Dependence-only edges (memory access ordering); no value flows.
    pub fn order_deps(&self) -> &[PortKind] {
        &self.order_deps
    }

    /// Control dependencies gating this operation.
    pub fn ctrl_deps(&self) -> &[CtrlDep] {
        &self.ctrl_deps
    }

    /// Enclosing loops, outermost first.
    pub fn loop_path(&self) -> &[LoopId] {
        &self.loop_path
    }

    /// `true` if this operation's result steers control flow somewhere in
    /// the graph (it appears as the `cond` of some control dependency or
    /// loop). Set during validation.
    pub fn is_conditional(&self) -> bool {
        self.is_conditional
    }
}

impl Op {
    pub(crate) fn new(
        id: OpId,
        kind: OpKind,
        name: String,
        ports: Vec<PortKind>,
        loop_path: Vec<LoopId>,
    ) -> Self {
        Op {
            id,
            kind,
            name,
            ports,
            order_deps: Vec::new(),
            ctrl_deps: Vec::new(),
            loop_path,
            is_conditional: false,
        }
    }
}

/// A loop region.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    pub(crate) id: LoopId,
    pub(crate) parent: Option<LoopId>,
    pub(crate) cond: OpId,
    pub(crate) members: Vec<OpId>,
    pub(crate) cond_cone: Vec<OpId>,
}

impl LoopInfo {
    /// The loop's identifier.
    pub fn id(&self) -> LoopId {
        self.id
    }

    /// The immediately enclosing loop, if any.
    pub fn parent(&self) -> Option<LoopId> {
        self.parent
    }

    /// The continue-condition operation: the loop body executes while this
    /// evaluates true.
    pub fn cond(&self) -> OpId {
        self.cond
    }

    /// All operations inside the loop (including nested loops' members).
    pub fn members(&self) -> &[OpId] {
        &self.members
    }

    /// The operations computing the continue condition (the backward cone
    /// of [`LoopInfo::cond`] through intra-iteration wires within the
    /// loop). These execute every iteration regardless of the body gate.
    pub fn cond_cone(&self) -> &[OpId] {
        &self.cond_cone
    }
}

/// A memory (array) declared in the CDFG.
#[derive(Debug, Clone)]
pub struct MemInfo {
    pub(crate) id: MemId,
    pub(crate) name: String,
    pub(crate) size: usize,
}

impl MemInfo {
    /// The memory's identifier.
    pub fn id(&self) -> MemId {
        self.id
    }

    /// Declared name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of addressable cells (addresses are taken modulo this size
    /// by the simulators).
    pub fn size(&self) -> usize {
        self.size
    }
}

/// Errors produced by CDFG validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdfgError {
    /// An operation references a port producer that does not exist.
    DanglingOp(OpId),
    /// An operation has the wrong number of input ports for its kind.
    ArityMismatch {
        /// The offending operation.
        op: OpId,
        /// Ports expected by the kind.
        expected: usize,
        /// Ports actually present.
        found: usize,
    },
    /// A carried port's init source lives inside the loop it initializes.
    InitInsideLoop {
        /// The offending operation.
        op: OpId,
        /// The loop being carried around.
        lp: LoopId,
    },
    /// A carried port is used by an operation outside the carrying loop.
    CarriedOutsideLoop {
        /// The offending operation.
        op: OpId,
        /// The loop being carried around.
        lp: LoopId,
    },
    /// An exit port is used by an operation inside the loop it exits.
    ExitInsideLoop {
        /// The offending operation.
        op: OpId,
        /// The loop being exited.
        lp: LoopId,
    },
    /// A wire consumes a value produced strictly inside a loop the
    /// consumer is not part of; such values must be consumed through
    /// [`PortKind::Exit`] views.
    WireFromLoop {
        /// The offending operation.
        op: OpId,
        /// The in-loop producer.
        src: OpId,
    },
    /// The intra-iteration data graph has a cycle (a combinational loop).
    CombinationalCycle(Vec<OpId>),
    /// A loop's continue condition is not a member of the loop.
    CondOutsideLoop(LoopId),
    /// A loop's continue condition does not produce a truth value.
    CondNotConditional(LoopId),
    /// A control dependency references a non-condition-producing op.
    CtrlFromNonCondition {
        /// The gated operation.
        op: OpId,
        /// The operation used as a condition.
        cond: OpId,
    },
}

impl fmt::Display for CdfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdfgError::DanglingOp(op) => write!(f, "port of {op} references a missing op"),
            CdfgError::ArityMismatch {
                op,
                expected,
                found,
            } => {
                write!(f, "{op} expects {expected} ports, found {found}")
            }
            CdfgError::InitInsideLoop { op, lp } => {
                write!(f, "carried port of {op} has init inside {lp}")
            }
            CdfgError::CarriedOutsideLoop { op, lp } => {
                write!(f, "{op} uses a value carried around {lp} but is outside it")
            }
            CdfgError::ExitInsideLoop { op, lp } => {
                write!(f, "{op} consumes the exit value of {lp} from inside it")
            }
            CdfgError::WireFromLoop { op, src } => {
                write!(
                    f,
                    "{op} wires to {src} inside a loop it does not belong to; use an exit view"
                )
            }
            CdfgError::CombinationalCycle(ops) => {
                write!(f, "combinational cycle through ")?;
                for (i, op) in ops.iter().enumerate() {
                    if i > 0 {
                        write!(f, " → ")?;
                    }
                    write!(f, "{op}")?;
                }
                Ok(())
            }
            CdfgError::CondOutsideLoop(lp) => {
                write!(f, "continue condition of {lp} is not a member of the loop")
            }
            CdfgError::CondNotConditional(lp) => {
                write!(
                    f,
                    "continue condition of {lp} does not produce a truth value"
                )
            }
            CdfgError::CtrlFromNonCondition { op, cond } => {
                write!(f, "{op} is control-dependent on non-conditional {cond}")
            }
        }
    }
}

impl std::error::Error for CdfgError {}

/// A validated control-data flow graph.
///
/// Construct one with [`CdfgBuilder`](crate::CdfgBuilder); direct mutation
/// is not exposed, so every `Cdfg` in circulation satisfies the structural
/// invariants checked by [`Cdfg::validate`].
#[derive(Debug, Clone)]
pub struct Cdfg {
    pub(crate) name: String,
    pub(crate) ops: Vec<Op>,
    pub(crate) loops: Vec<LoopInfo>,
    pub(crate) mems: Vec<MemInfo>,
    pub(crate) inputs: Vec<(InputId, String)>,
    pub(crate) outputs: Vec<(OutputId, String)>,
}

impl Cdfg {
    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up an operation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// All operations, in creation (program) order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// All loop regions.
    pub fn loops(&self) -> &[LoopInfo] {
        &self.loops
    }

    /// Looks up a loop.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn loop_info(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.index()]
    }

    /// All declared memories.
    pub fn mems(&self) -> &[MemInfo] {
        &self.mems
    }

    /// Primary inputs `(id, name)`, in declaration order.
    pub fn inputs(&self) -> &[(InputId, String)] {
        &self.inputs
    }

    /// Primary outputs `(id, name)`, in declaration order.
    pub fn outputs(&self) -> &[(OutputId, String)] {
        &self.outputs
    }

    /// Checks all structural invariants. Called by the builder; exposed for
    /// tests and for users who deserialize CDFGs from other sources.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant found.
    pub fn validate(&self) -> Result<(), CdfgError> {
        let n = self.ops.len();
        let exists = |id: OpId| id.index() < n;
        for op in &self.ops {
            if op.ports.len() != op.kind.arity() {
                return Err(CdfgError::ArityMismatch {
                    op: op.id,
                    expected: op.kind.arity(),
                    found: op.ports.len(),
                });
            }
            for p in op.ports.iter().chain(&op.order_deps) {
                match *p {
                    PortKind::Wire(s) => {
                        if !exists(s) {
                            return Err(CdfgError::DanglingOp(op.id));
                        }
                        // The producer must be at the same or an outer
                        // scope: values inside foreign loops are only
                        // reachable through exit views.
                        let src_path = &self.op(s).loop_path;
                        if !op.loop_path.starts_with(src_path) {
                            return Err(CdfgError::WireFromLoop { op: op.id, src: s });
                        }
                    }
                    PortKind::Carried { lp, src, init } => {
                        if !exists(src) || !exists(init) {
                            return Err(CdfgError::DanglingOp(op.id));
                        }
                        if !op.loop_path.contains(&lp) {
                            return Err(CdfgError::CarriedOutsideLoop { op: op.id, lp });
                        }
                        if self.op(init).loop_path.contains(&lp) {
                            return Err(CdfgError::InitInsideLoop { op: op.id, lp });
                        }
                    }
                    PortKind::Exit { lp, src, init } => {
                        if !exists(src) || !exists(init) {
                            return Err(CdfgError::DanglingOp(op.id));
                        }
                        if op.loop_path.contains(&lp) {
                            return Err(CdfgError::ExitInsideLoop { op: op.id, lp });
                        }
                        if self.op(init).loop_path.contains(&lp) {
                            return Err(CdfgError::InitInsideLoop { op: op.id, lp });
                        }
                    }
                }
            }
            for cd in &op.ctrl_deps {
                if !exists(cd.cond) {
                    return Err(CdfgError::DanglingOp(op.id));
                }
                if !self.op(cd.cond).kind.is_condition_producer() {
                    return Err(CdfgError::CtrlFromNonCondition {
                        op: op.id,
                        cond: cd.cond,
                    });
                }
            }
        }
        for lp in &self.loops {
            if !self.op(lp.cond).loop_path.contains(&lp.id) {
                return Err(CdfgError::CondOutsideLoop(lp.id));
            }
            if !self.op(lp.cond).kind.is_condition_producer() {
                return Err(CdfgError::CondNotConditional(lp.id));
            }
        }
        crate::analysis::intra_topo_order(self)
            .map_err(CdfgError::CombinationalCycle)
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CdfgBuilder, Src};

    fn tiny() -> Cdfg {
        let mut b = CdfgBuilder::new("tiny");
        let a = b.input("a");
        let bb = b.input("b");
        let s = b.op(OpKind::Add, &[Src::Op(a), Src::Op(bb)]);
        b.output("sum", Src::Op(s));
        b.finish().unwrap()
    }

    #[test]
    fn accessors() {
        let g = tiny();
        assert_eq!(g.name(), "tiny");
        assert_eq!(g.inputs().len(), 2);
        assert_eq!(g.outputs().len(), 1);
        assert!(g.loops().is_empty());
        assert!(g.mems().is_empty());
        let add = g.ops().iter().find(|o| o.kind() == OpKind::Add).unwrap();
        assert_eq!(add.ports().len(), 2);
        assert!(add.loop_path().is_empty());
        assert!(!add.is_conditional());
    }

    #[test]
    fn conditional_flag_set_for_loop_conditions() {
        let mut b = CdfgBuilder::new("loopy");
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
        b.output("count", Src::Op(e));
        let g = b.finish().unwrap();
        assert!(g.op(c).is_conditional());
        let lp = &g.loops()[0];
        assert_eq!(lp.cond(), c);
        assert!(lp.members().contains(&i1));
        assert!(lp.cond_cone().contains(&c));
        assert!(!lp.cond_cone().contains(&i1));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CdfgError::ArityMismatch {
            op: OpId::new(3),
            expected: 2,
            found: 1,
        };
        assert!(e.to_string().contains("op3"));
        let e = CdfgError::CombinationalCycle(vec![OpId::new(0), OpId::new(1)]);
        assert!(e.to_string().contains("op0 → op1"));
    }
}
