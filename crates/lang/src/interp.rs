//! Reference interpreter for behavioral descriptions — the functional
//! golden model.
//!
//! Every schedule produced by the schedulers is ultimately validated by
//! comparing STG simulation results against this interpreter (see the
//! `hls-sim` crate). [`Interpreter::new`] compiles the AST once,
//! resolving every name to a value slot or a memory index, and
//! [`Interpreter::run`] executes one input vector on plain vectors with
//! conventional imperative semantics; [`run`] does both for a single
//! call. The interpreter works from the AST and is deliberately
//! independent of the CDFG lowering, so agreement between the two is
//! meaningful evidence of correctness.

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Initial memory contents by memory name. Memories absent from the image
/// start zero-filled.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    /// Map from memory name to initial cell values (shorter vectors are
    /// zero-extended to the declared size).
    pub contents: HashMap<String, Vec<i64>>,
}

impl MemImage {
    /// Creates an empty image (all memories zero-filled).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the initial contents of one memory (builder style).
    pub fn with(mut self, name: impl Into<String>, cells: Vec<i64>) -> Self {
        self.contents.insert(name.into(), cells);
        self
    }
}

/// The result of executing a behavioral description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Final output values. Unassigned outputs read 0 (the hardware reset
    /// convention shared with the CDFG lowering).
    pub outputs: BTreeMap<String, i64>,
    /// Final memory contents by name.
    pub mems: HashMap<String, Vec<i64>>,
    /// Statements (plus loop-condition checks) executed.
    pub steps: u64,
}

/// Errors raised during execution (or by pre-execution checks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A name was declared more than once.
    Duplicate(String),
    /// A variable (or input) is referenced but not in scope.
    Unbound(String),
    /// A memory name was used where a value was expected, or vice versa.
    NotAMem(String),
    /// Assignment to a primary input.
    AssignToInput(String),
    /// A required input value was not supplied to [`run`].
    MissingInput(String),
    /// The step limit was exhausted (runaway loop).
    StepLimit,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Duplicate(n) => write!(f, "duplicate declaration of `{n}`"),
            ExecError::Unbound(n) => write!(f, "`{n}` is not in scope"),
            ExecError::NotAMem(n) => write!(f, "`{n}` is not a memory"),
            ExecError::AssignToInput(n) => write!(f, "cannot assign to input `{n}`"),
            ExecError::MissingInput(n) => write!(f, "no value supplied for input `{n}`"),
            ExecError::StepLimit => write!(f, "step limit exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Checks the program's name discipline: inputs, outputs, memories, and
/// top-level declarations must not collide.
///
/// # Errors
///
/// Returns [`ExecError::Duplicate`] on the first collision.
pub fn check_names(p: &Program) -> Result<(), ExecError> {
    let mut seen = HashSet::new();
    for n in p
        .inputs
        .iter()
        .chain(&p.outputs)
        .chain(p.mems.iter().map(|(n, _)| n))
    {
        if !seen.insert(n.as_str()) {
            return Err(ExecError::Duplicate(n.clone()));
        }
    }
    Ok(())
}

/// Executes a program with the given input values and memory image.
///
/// `step_limit` bounds the number of executed statements and loop checks;
/// exceeding it returns [`ExecError::StepLimit`] (behavioral descriptions
/// with data-dependent loops may diverge for some inputs). Compiles the
/// program for this one call; a caller running many vectors builds one
/// [`Interpreter`] instead.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run(
    p: &Program,
    inputs: &[(&str, i64)],
    image: &MemImage,
    step_limit: u64,
) -> Result<ExecOutcome, ExecError> {
    Interpreter::new(p).run(inputs, image, step_limit)
}

/// A program compiled for repeated execution. Every name is resolved
/// once: inputs, outputs and memories by declaration index, and each
/// `var` site to its own local slot. A run then indexes plain vectors.
///
/// Names are scoped lexically per block, which is exactly the scope
/// chain a direct walk builds at run time: a name is the innermost `var`
/// declared before that point, then an input, then an output. A name
/// that cannot resolve compiles to a node that raises its error only
/// when it executes, after the same evaluations a direct walk makes
/// first, so errors and step counts are those of the walk.
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    /// The [`check_names`] verdict, reported before anything else.
    names: Result<(), ExecError>,
    /// Value slots: the inputs, then the outputs, then one per `var`.
    slots: usize,
    body: Vec<SlotStmt>,
}

/// A statement with its names resolved. An `Err` target is raised after
/// the statement's own evaluations.
#[derive(Debug)]
enum SlotStmt {
    /// A `var` declaration or an assignment.
    Set(Result<usize, ExecError>, SlotExpr),
    /// A `var` redeclaring a name in scope: fails before its initializer.
    Fail(ExecError),
    /// `mem[addr] = value`.
    Store(Result<usize, ExecError>, SlotExpr, SlotExpr),
    If(SlotExpr, Vec<SlotStmt>, Vec<SlotStmt>),
    While(SlotExpr, Vec<SlotStmt>),
}

/// An expression with its names resolved.
#[derive(Debug)]
enum SlotExpr {
    Const(i64),
    Read(usize),
    /// An unbound name, or a memory used as a value.
    Fail(ExecError),
    Load(Result<usize, ExecError>, Box<SlotExpr>),
    Unary(UnOp, Box<SlotExpr>),
    Binary(BinOp, Box<SlotExpr>, Box<SlotExpr>),
}

impl<'p> Interpreter<'p> {
    /// Compiles `p`. Never fails: name errors surface when a run reaches
    /// them, as [`run`] reports them.
    pub fn new(p: &'p Program) -> Self {
        let mut c = Compiler {
            p,
            scope: Vec::new(),
            slots: p.inputs.len() + p.outputs.len(),
        };
        let body = c.block(&p.body);
        Interpreter {
            program: p,
            names: check_names(p),
            slots: c.slots,
            body,
        }
    }

    /// Executes the compiled program on one input vector; see [`run`].
    /// When an input is bound more than once, the last binding wins.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run(
        &self,
        inputs: &[(&str, i64)],
        image: &MemImage,
        step_limit: u64,
    ) -> Result<ExecOutcome, ExecError> {
        self.names.clone()?;
        let p = self.program;
        let mut vals = vec![0; self.slots];
        for (slot, n) in vals.iter_mut().zip(&p.inputs) {
            *slot = inputs
                .iter()
                .rev()
                .find(|(m, _)| m == n)
                .ok_or_else(|| ExecError::MissingInput(n.clone()))?
                .1;
        }
        let mems = p
            .mems
            .iter()
            .map(|(n, size)| {
                let init = image.contents.get(n).map_or(&[][..], Vec::as_slice);
                let mut cells = init[..init.len().min(*size)].to_vec();
                cells.resize(*size, 0);
                cells
            })
            .collect();
        let mut m = Machine {
            vals,
            mems,
            steps: 0,
            step_limit,
        };
        m.stmts(&self.body)?;
        let outputs = m.vals[p.inputs.len()..].iter().copied();
        Ok(ExecOutcome {
            outputs: p.outputs.iter().cloned().zip(outputs).collect(),
            mems: p.mems.iter().map(|(n, _)| n.clone()).zip(m.mems).collect(),
            steps: m.steps,
        })
    }
}

/// Lexical name resolution for [`Interpreter::new`].
struct Compiler<'p> {
    p: &'p Program,
    /// The locals in scope, outermost first.
    scope: Vec<(&'p str, usize)>,
    slots: usize,
}

impl<'p> Compiler<'p> {
    fn block(&mut self, stmts: &'p [Stmt]) -> Vec<SlotStmt> {
        let mark = self.scope.len();
        let out = stmts.iter().map(|s| self.stmt(s)).collect();
        self.scope.truncate(mark);
        out
    }

    fn stmt(&mut self, s: &'p Stmt) -> SlotStmt {
        match s {
            Stmt::Var(n, e) => {
                if self.input(n).is_some()
                    || self.output(n).is_some()
                    || self.mem(n).is_ok()
                    || self.local(n).is_some()
                {
                    return SlotStmt::Fail(ExecError::Duplicate(n.clone()));
                }
                let e = self.expr(e);
                let slot = self.slots;
                self.slots += 1;
                self.scope.push((n, slot));
                SlotStmt::Set(Ok(slot), e)
            }
            Stmt::Assign(n, e) => {
                let target = if self.input(n).is_some() {
                    Err(ExecError::AssignToInput(n.clone()))
                } else {
                    self.local(n)
                        .or_else(|| self.output(n))
                        .ok_or_else(|| ExecError::Unbound(n.clone()))
                };
                SlotStmt::Set(target, self.expr(e))
            }
            Stmt::Store(m, a, v) => SlotStmt::Store(self.mem(m), self.expr(a), self.expr(v)),
            Stmt::If(c, t, e) => SlotStmt::If(self.expr(c), self.block(t), self.block(e)),
            Stmt::While(c, b) => SlotStmt::While(self.expr(c), self.block(b)),
        }
    }

    fn expr(&self, e: &Expr) -> SlotExpr {
        match e {
            Expr::Int(v) => SlotExpr::Const(*v),
            Expr::Ident(n) => match self
                .local(n)
                .or_else(|| self.input(n))
                .or_else(|| self.output(n))
            {
                Some(slot) => SlotExpr::Read(slot),
                None if self.mem(n).is_ok() => SlotExpr::Fail(ExecError::NotAMem(n.clone())),
                None => SlotExpr::Fail(ExecError::Unbound(n.clone())),
            },
            Expr::Load(m, a) => SlotExpr::Load(self.mem(m), Box::new(self.expr(a))),
            Expr::Unary(op, x) => SlotExpr::Unary(*op, Box::new(self.expr(x))),
            Expr::Binary(op, l, r) => {
                SlotExpr::Binary(*op, Box::new(self.expr(l)), Box::new(self.expr(r)))
            }
        }
    }

    fn local(&self, n: &str) -> Option<usize> {
        self.scope
            .iter()
            .rev()
            .find(|(m, _)| *m == n)
            .map(|&(_, s)| s)
    }

    fn input(&self, n: &str) -> Option<usize> {
        self.p.inputs.iter().position(|m| m == n)
    }

    fn output(&self, n: &str) -> Option<usize> {
        let i = self.p.outputs.iter().position(|m| m == n)?;
        Some(self.p.inputs.len() + i)
    }

    fn mem(&self, n: &str) -> Result<usize, ExecError> {
        self.p
            .mems
            .iter()
            .position(|(m, _)| m == n)
            .ok_or_else(|| ExecError::NotAMem(n.to_string()))
    }
}

/// The state of one run of an [`Interpreter`].
struct Machine {
    vals: Vec<i64>,
    mems: Vec<Vec<i64>>,
    steps: u64,
    step_limit: u64,
}

impl Machine {
    fn tick(&mut self) -> Result<(), ExecError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(ExecError::StepLimit)
        } else {
            Ok(())
        }
    }

    fn stmts(&mut self, stmts: &[SlotStmt]) -> Result<(), ExecError> {
        stmts.iter().try_for_each(|s| self.stmt(s))
    }

    fn stmt(&mut self, s: &SlotStmt) -> Result<(), ExecError> {
        self.tick()?;
        match s {
            SlotStmt::Set(target, e) => {
                let v = self.eval(e)?;
                self.vals[target.clone()?] = v;
            }
            SlotStmt::Fail(err) => return Err(err.clone()),
            SlotStmt::Store(m, addr, val) => {
                let a = self.eval(addr)?;
                let v = self.eval(val)?;
                let cells = &mut self.mems[m.clone()?];
                let idx = a.rem_euclid(cells.len() as i64) as usize;
                cells[idx] = v;
            }
            SlotStmt::If(c, t, e) => {
                let arm = if self.eval(c)? != 0 { t } else { e };
                self.stmts(arm)?;
            }
            SlotStmt::While(c, b) => loop {
                self.tick()?;
                if self.eval(c)? == 0 {
                    break;
                }
                self.stmts(b)?;
            },
        }
        Ok(())
    }

    fn eval(&self, e: &SlotExpr) -> Result<i64, ExecError> {
        Ok(match e {
            SlotExpr::Const(v) => *v,
            SlotExpr::Read(slot) => self.vals[*slot],
            SlotExpr::Fail(err) => return Err(err.clone()),
            SlotExpr::Load(m, addr) => {
                let a = self.eval(addr)?;
                let cells = &self.mems[m.clone()?];
                cells[a.rem_euclid(cells.len() as i64) as usize]
            }
            SlotExpr::Unary(UnOp::Not, x) => i64::from(self.eval(x)? == 0),
            SlotExpr::Unary(UnOp::Neg, x) => self.eval(x)?.wrapping_neg(),
            SlotExpr::Binary(op, l, r) => {
                let a = self.eval(l)?;
                let b = self.eval(r)?;
                match op {
                    BinOp::Or => i64::from(a != 0 || b != 0),
                    BinOp::And => i64::from(a != 0 && b != 0),
                    BinOp::Eq => i64::from(a == b),
                    BinOp::Ne => i64::from(a != b),
                    BinOp::Lt => i64::from(a < b),
                    BinOp::Le => i64::from(a <= b),
                    BinOp::Gt => i64::from(a > b),
                    BinOp::Ge => i64::from(a >= b),
                    BinOp::Shl => a.wrapping_shl((b.rem_euclid(64)) as u32),
                    BinOp::Shr => a.wrapping_shr((b.rem_euclid(64)) as u32),
                    BinOp::Xor => a ^ b,
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::Mul => a.wrapping_mul(b),
                }
            }
        })
    }
}

/// The direct AST walker the compiled interpreter replaced: one
/// `HashMap` per block scope, every name looked up at run time. Kept as
/// the differential oracle for [`Interpreter`].
#[cfg(test)]
mod reference {
    use super::{check_names, ExecError, ExecOutcome, MemImage};
    use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
    use std::collections::{BTreeMap, HashMap};

    pub(super) fn run(
        p: &Program,
        inputs: &[(&str, i64)],
        image: &MemImage,
        step_limit: u64,
    ) -> Result<ExecOutcome, ExecError> {
        check_names(p)?;
        let input_map: HashMap<&str, i64> = inputs.iter().copied().collect();
        let mut st = State {
            inputs: HashMap::new(),
            outputs: BTreeMap::new(),
            mems: HashMap::new(),
            mem_sizes: HashMap::new(),
            scopes: vec![HashMap::new()],
            steps: 0,
            step_limit,
        };
        for n in &p.inputs {
            let v = *input_map
                .get(n.as_str())
                .ok_or_else(|| ExecError::MissingInput(n.clone()))?;
            st.inputs.insert(n.clone(), v);
        }
        for n in &p.outputs {
            st.outputs.insert(n.clone(), 0);
        }
        for (n, size) in &p.mems {
            let mut cells = image.contents.get(n).cloned().unwrap_or_default();
            cells.resize(*size, 0);
            cells.truncate(*size);
            st.mem_sizes.insert(n.clone(), *size);
            st.mems.insert(n.clone(), cells);
        }
        st.block(&p.body)?;
        Ok(ExecOutcome {
            outputs: st.outputs,
            mems: st.mems,
            steps: st.steps,
        })
    }

    struct State {
        inputs: HashMap<String, i64>,
        outputs: BTreeMap<String, i64>,
        mems: HashMap<String, Vec<i64>>,
        mem_sizes: HashMap<String, usize>,
        scopes: Vec<HashMap<String, i64>>,
        steps: u64,
        step_limit: u64,
    }

    impl State {
        fn tick(&mut self) -> Result<(), ExecError> {
            self.steps += 1;
            if self.steps > self.step_limit {
                Err(ExecError::StepLimit)
            } else {
                Ok(())
            }
        }

        fn block(&mut self, stmts: &[Stmt]) -> Result<(), ExecError> {
            self.scopes.push(HashMap::new());
            let r = self.stmts(stmts);
            self.scopes.pop();
            r
        }

        fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), ExecError> {
            for s in stmts {
                self.stmt(s)?;
            }
            Ok(())
        }

        fn stmt(&mut self, s: &Stmt) -> Result<(), ExecError> {
            self.tick()?;
            match s {
                Stmt::Var(n, e) => {
                    if self.inputs.contains_key(n)
                        || self.outputs.contains_key(n)
                        || self.mems.contains_key(n)
                        || self.scopes.iter().any(|sc| sc.contains_key(n))
                    {
                        return Err(ExecError::Duplicate(n.clone()));
                    }
                    let v = self.eval(e)?;
                    self.scopes
                        .last_mut()
                        .expect("scope stack is never empty")
                        .insert(n.clone(), v);
                    Ok(())
                }
                Stmt::Assign(n, e) => {
                    let v = self.eval(e)?;
                    if self.inputs.contains_key(n) {
                        return Err(ExecError::AssignToInput(n.clone()));
                    }
                    for sc in self.scopes.iter_mut().rev() {
                        if let Some(slot) = sc.get_mut(n) {
                            *slot = v;
                            return Ok(());
                        }
                    }
                    if let Some(slot) = self.outputs.get_mut(n) {
                        *slot = v;
                        return Ok(());
                    }
                    Err(ExecError::Unbound(n.clone()))
                }
                Stmt::Store(m, addr, val) => {
                    let a = self.eval(addr)?;
                    let v = self.eval(val)?;
                    let size = *self
                        .mem_sizes
                        .get(m)
                        .ok_or_else(|| ExecError::NotAMem(m.clone()))?;
                    let idx = (a.rem_euclid(size as i64)) as usize;
                    self.mems.get_mut(m).expect("sized memories exist")[idx] = v;
                    Ok(())
                }
                Stmt::If(c, t, e) => {
                    if self.eval(c)? != 0 {
                        self.block(t)
                    } else {
                        self.block(e)
                    }
                }
                Stmt::While(c, b) => {
                    loop {
                        self.tick()?;
                        if self.eval(c)? == 0 {
                            break;
                        }
                        self.block(b)?;
                    }
                    Ok(())
                }
            }
        }

        fn eval(&mut self, e: &Expr) -> Result<i64, ExecError> {
            Ok(match e {
                Expr::Int(v) => *v,
                Expr::Ident(n) => {
                    for sc in self.scopes.iter().rev() {
                        if let Some(&v) = sc.get(n) {
                            return Ok(v);
                        }
                    }
                    if let Some(&v) = self.inputs.get(n) {
                        return Ok(v);
                    }
                    if let Some(&v) = self.outputs.get(n) {
                        return Ok(v);
                    }
                    if self.mems.contains_key(n) {
                        return Err(ExecError::NotAMem(n.clone()));
                    }
                    return Err(ExecError::Unbound(n.clone()));
                }
                Expr::Load(m, addr) => {
                    let a = self.eval(addr)?;
                    let size = *self
                        .mem_sizes
                        .get(m)
                        .ok_or_else(|| ExecError::NotAMem(m.clone()))?;
                    let idx = (a.rem_euclid(size as i64)) as usize;
                    self.mems[m][idx]
                }
                Expr::Unary(UnOp::Not, x) => i64::from(self.eval(x)? == 0),
                Expr::Unary(UnOp::Neg, x) => self.eval(x)?.wrapping_neg(),
                Expr::Binary(op, l, r) => {
                    let a = self.eval(l)?;
                    let b = self.eval(r)?;
                    match op {
                        BinOp::Or => i64::from(a != 0 || b != 0),
                        BinOp::And => i64::from(a != 0 && b != 0),
                        BinOp::Eq => i64::from(a == b),
                        BinOp::Ne => i64::from(a != b),
                        BinOp::Lt => i64::from(a < b),
                        BinOp::Le => i64::from(a <= b),
                        BinOp::Gt => i64::from(a > b),
                        BinOp::Ge => i64::from(a >= b),
                        BinOp::Shl => a.wrapping_shl((b.rem_euclid(64)) as u32),
                        BinOp::Shr => a.wrapping_shr((b.rem_euclid(64)) as u32),
                        BinOp::Xor => a ^ b,
                        BinOp::Add => a.wrapping_add(b),
                        BinOp::Sub => a.wrapping_sub(b),
                        BinOp::Mul => a.wrapping_mul(b),
                    }
                }
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;
    use spec_support::props;
    use spec_support::proptest_lite as pl;

    fn run_src(src: &str, inputs: &[(&str, i64)]) -> ExecOutcome {
        let p = Program::parse(src).unwrap();
        run(&p, inputs, &MemImage::new(), 100_000).unwrap()
    }

    #[test]
    fn straight_line() {
        let o = run_src(
            "design d { input a, b; output s, p; s = a + b; p = a * b; }",
            &[("a", 3), ("b", 4)],
        );
        assert_eq!(o.outputs["s"], 7);
        assert_eq!(o.outputs["p"], 12);
    }

    #[test]
    fn gcd_computes() {
        let src = "design gcd { input x, y; output g; var a = x; var b = y; \
                   while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";
        assert_eq!(run_src(src, &[("x", 54), ("y", 24)]).outputs["g"], 6);
        assert_eq!(run_src(src, &[("x", 7), ("y", 13)]).outputs["g"], 1);
        assert_eq!(run_src(src, &[("x", 9), ("y", 9)]).outputs["g"], 9);
    }

    #[test]
    fn while_with_memory() {
        let p = Program::parse(
            "design d { input n; output sum; mem A[8]; var i = 0; var s = 0; \
             while (i < n) { s = s + A[i]; i = i + 1; } sum = s; }",
        )
        .unwrap();
        let img = MemImage::new().with("A", vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let o = run(&p, &[("n", 5)], &img, 100_000).unwrap();
        assert_eq!(o.outputs["sum"], 15);
    }

    #[test]
    fn store_then_load() {
        let o = run_src(
            "design d { input a; output o; mem M[4]; M[1] = a * 2; o = M[1] + M[0]; }",
            &[("a", 21)],
        );
        assert_eq!(o.outputs["o"], 42);
        assert_eq!(o.mems["M"], vec![0, 42, 0, 0]);
    }

    #[test]
    fn address_wraps_modulo_size() {
        let o = run_src(
            "design d { input a; output o; mem M[4]; M[5] = 9; o = M[1]; }",
            &[("a", 0)],
        );
        assert_eq!(o.outputs["o"], 9);
        // Negative addresses wrap too (Euclidean remainder).
        let o = run_src(
            "design d { output o; mem M[4]; M[0 - 1] = 7; o = M[3]; }",
            &[],
        );
        assert_eq!(o.outputs["o"], 7);
    }

    #[test]
    fn unassigned_output_reads_zero() {
        let o = run_src("design d { input a; output x, y; x = a; }", &[("a", 5)]);
        assert_eq!(o.outputs["y"], 0);
    }

    #[test]
    fn branch_scoping_drops_locals() {
        let p = Program::parse(
            "design d { input a; output o; if (a > 0) { var t = a * 2; o = t; } o = o + t; }",
        )
        .unwrap();
        let e = run(&p, &[("a", 1)], &MemImage::new(), 1000).unwrap_err();
        assert_eq!(e, ExecError::Unbound("t".into()));
    }

    #[test]
    fn step_limit_catches_divergence() {
        let p = Program::parse("design d { output o; while (1) { o = o + 1; } }").unwrap();
        let e = run(&p, &[], &MemImage::new(), 500).unwrap_err();
        assert_eq!(e, ExecError::StepLimit);
    }

    #[test]
    fn input_errors() {
        let p = Program::parse("design d { input a; output o; o = a; }").unwrap();
        assert_eq!(
            run(&p, &[], &MemImage::new(), 100).unwrap_err(),
            ExecError::MissingInput("a".into())
        );
        let p = Program::parse("design d { input a; output o; a = 1; }").unwrap();
        assert_eq!(
            run(&p, &[("a", 0)], &MemImage::new(), 100).unwrap_err(),
            ExecError::AssignToInput("a".into())
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let p = Program::parse("design d { input a; output a; }").unwrap();
        assert_eq!(
            run(&p, &[("a", 0)], &MemImage::new(), 100).unwrap_err(),
            ExecError::Duplicate("a".into())
        );
        let p = Program::parse("design d { input a; var a = 1; }").unwrap();
        assert_eq!(
            run(&p, &[("a", 0)], &MemImage::new(), 100).unwrap_err(),
            ExecError::Duplicate("a".into())
        );
    }

    #[test]
    fn logic_and_shift_semantics() {
        let o = run_src(
            "design d { input a; output w, x, y, z; w = !a; x = a && 0; y = a || 0; z = a >> 1; }",
            &[("a", 6)],
        );
        assert_eq!(o.outputs["w"], 0);
        assert_eq!(o.outputs["x"], 0);
        assert_eq!(o.outputs["y"], 1);
        assert_eq!(o.outputs["z"], 3);
    }

    #[test]
    fn nested_loops() {
        let o = run_src(
            "design d { input n; output acc; var i = 0; var s = 0; \
             while (i < n) { var j = 0; while (j < i) { s = s + 1; j = j + 1; } i = i + 1; } \
             acc = s; }",
            &[("n", 5)],
        );
        assert_eq!(o.outputs["acc"], 10, "0+1+2+3+4");
    }

    #[test]
    fn var_initializer_cannot_see_its_own_name() {
        let p = Program::parse("design d { output o; var x = x; }").unwrap();
        assert_eq!(
            run(&p, &[], &MemImage::new(), 100).unwrap_err(),
            ExecError::Unbound("x".into())
        );
    }

    #[test]
    fn bad_names_in_untaken_branches_are_not_errors() {
        let p = Program::parse(
            "design d { input a; output o; mem M[2]; \
             if (a > 100) { o = nope; a = 1; var a = 2; a[0] = 3; o = M; } o = a; }",
        )
        .unwrap();
        let o = run(&p, &[("a", 7)], &MemImage::new(), 100).unwrap();
        assert_eq!(o.outputs["o"], 7);
        assert_eq!(o.steps, 2);
    }

    #[test]
    fn step_limit_wins_over_the_failing_statement() {
        let p = Program::parse("design d { output o; o = 1; o = nope; }").unwrap();
        assert_eq!(
            run(&p, &[], &MemImage::new(), 1).unwrap_err(),
            ExecError::StepLimit
        );
        assert_eq!(
            run(&p, &[], &MemImage::new(), 2).unwrap_err(),
            ExecError::Unbound("nope".into())
        );
    }

    fn name(names: &'static [&'static str]) -> pl::Gen<String> {
        pl::one_of(names.iter().map(|&n| pl::just(n)).collect()).map(str::to_string)
    }

    /// Names read as values. `a` and `i` are declared at the top level,
    /// `b` and `c` only where a random `var` puts them, `M` is a memory
    /// and `z` is never declared.
    const READS: &[&str] = &["a", "a", "i", "b", "c", "x", "y", "o", "M", "z"];
    /// Memory names for loads and stores: two memories, a local, and an
    /// undeclared name.
    const MEMS: &[&str] = &["M", "M", "N", "a", "z"];
    /// `var` names: `b`/`c` are legal unless already in scope, while
    /// `a`, an input, an output and a memory are always duplicates.
    const DECLS: &[&str] = &["b", "b", "c", "c", "a", "x", "o", "M"];
    /// Assignment targets, including an input, a memory and an
    /// undeclared name.
    const TARGETS: &[&str] = &["a", "b", "c", "o", "p", "x", "M", "z"];

    fn arb_expr() -> pl::Gen<Expr> {
        let leaf = pl::one_of(vec![
            pl::range(-8i64..8).map(Expr::Int),
            name(READS).map(Expr::Ident),
        ]);
        let ops = [
            BinOp::Or,
            BinOp::And,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Shl,
            BinOp::Shr,
            BinOp::Xor,
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
        ];
        pl::recursive(3, leaf, move |inner| {
            let op = pl::one_of(ops.iter().map(|&op| pl::just(op)).collect());
            pl::one_of(vec![
                pl::tuple3(inner.clone(), op, inner.clone())
                    .map(|(l, op, r)| Expr::Binary(op, Box::new(l), Box::new(r))),
                pl::tuple2(pl::boolean(), inner.clone()).map(|(not, x)| {
                    Expr::Unary(if not { UnOp::Not } else { UnOp::Neg }, Box::new(x))
                }),
                pl::tuple2(name(MEMS), inner).map(|(m, a)| Expr::Load(m, Box::new(a))),
            ])
        })
    }

    fn ident(n: &str) -> Box<Expr> {
        Box::new(Expr::Ident(n.into()))
    }

    /// A random condition, or `x == k`, which rarely holds.
    fn arb_cond() -> pl::Gen<Expr> {
        pl::one_of(vec![
            arb_expr(),
            pl::range(-20i64..20)
                .map(|k| Expr::Binary(BinOp::Eq, ident("x"), Box::new(Expr::Int(k)))),
        ])
    }

    fn arb_stmt() -> pl::Gen<Stmt> {
        let leaf = pl::one_of(vec![
            pl::tuple2(name(DECLS), arb_expr()).map(|(n, e)| Stmt::Var(n, e)),
            pl::tuple2(name(TARGETS), arb_expr()).map(|(n, e)| Stmt::Assign(n, e)),
            pl::tuple3(name(MEMS), arb_expr(), arb_expr()).map(|(m, a, v)| Stmt::Store(m, a, v)),
        ]);
        pl::recursive(3, leaf, |inner| {
            pl::one_of(vec![
                pl::tuple3(
                    arb_cond(),
                    pl::vec_of(inner.clone(), 0..4),
                    pl::vec_of(inner.clone(), 0..3),
                )
                .map(|(c, t, e)| Stmt::If(c, t, e)),
                pl::tuple2(arb_cond(), pl::vec_of(inner.clone(), 1..4))
                    .map(|(c, body)| Stmt::While(c, body)),
                // A loop on the shared counter `i`: it ends unless its
                // body fails, so `var`s in it are redeclared per pass.
                pl::vec_of(inner, 1..4).map(|body| {
                    let step = Expr::Binary(BinOp::Add, ident("i"), Box::new(Expr::Int(1)));
                    Stmt::While(
                        Expr::Binary(BinOp::Lt, ident("i"), Box::new(Expr::Int(3))),
                        body.into_iter()
                            .chain([Stmt::Assign("i".into(), step)])
                            .collect(),
                    )
                }),
            ])
        })
    }

    fn arb_program() -> pl::Gen<Program> {
        pl::tuple2(pl::vec_of(arb_stmt(), 1..6), pl::range(0u32..8)).map(|(body, k)| Program {
            name: "rnd".into(),
            inputs: vec!["x".into(), "y".into()],
            // One program in eight declares `x` twice, so `check_names`
            // fails before any input is looked up.
            outputs: vec!["o".into(), if k == 0 { "x" } else { "p" }.into()],
            mems: vec![("M".into(), 4), ("N".into(), 3)],
            body: [
                Stmt::Var("a".into(), Expr::Ident("x".into())),
                Stmt::Var("i".into(), Expr::Int(0)),
            ]
            .into_iter()
            .chain(body)
            .collect(),
        })
    }

    /// Binds `x`, and `y` three times in four, then up to two extra
    /// bindings: a rebinding (the last one wins) or an undeclared input.
    fn arb_inputs() -> pl::Gen<Vec<(String, i64)>> {
        let extra = pl::tuple2(name(&["x", "y", "q"]), pl::range(-20i64..20));
        pl::tuple3(
            pl::tuple2(pl::range(-20i64..20), pl::range(-20i64..20)),
            pl::range(0u32..4),
            pl::vec_of(extra, 0..3),
        )
        .map(|((x, y), k, extra)| {
            let mut v = vec![("x".to_string(), x)];
            if k != 0 {
                v.push(("y".to_string(), y));
            }
            v.extend(extra);
            v
        })
    }

    /// `M`'s initial cells (shorter or longer than its 4 cells; `N`
    /// starts zero-filled) and a step limit.
    fn arb_env() -> pl::Gen<(Vec<i64>, u64)> {
        pl::tuple2(pl::vec_of(pl::range(-9i64..9), 0..7), pl::range(1u64..200))
    }

    /// Runs one compiled interpreter at the drawn step limit and at a
    /// generous one, checking each run against the reference walker.
    fn check_against_reference(
        p: &Program,
        inputs: &[(String, i64)],
        (cells, limit): &(Vec<i64>, u64),
    ) -> Vec<Result<ExecOutcome, ExecError>> {
        let inputs: Vec<(&str, i64)> = inputs.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let image = MemImage::new().with("M", cells.clone());
        let interp = Interpreter::new(p);
        [*limit, 2_000]
            .into_iter()
            .map(|limit| {
                let got = interp.run(&inputs, &image, limit);
                let want = reference::run(p, &inputs, &image, limit);
                assert_eq!(got, want, "limit {limit}, inputs {inputs:?}\n{p}");
                got
            })
            .collect()
    }

    props! {
        /// The compiled interpreter and the direct walker return the
        /// same `Result` — outputs, memories, steps and error — on
        /// random programs with scoping, name and step-limit errors.
        fn compiled_matches_reference_walker(
            p in arb_program(),
            inputs in arb_inputs(),
            env in arb_env(),
        ) {
            check_against_reference(&p, &inputs, &env);
        }
    }

    /// The differential property's generators reach every outcome, so
    /// each error path is actually compared.
    #[test]
    fn differential_generators_reach_every_outcome() {
        let mut rng = spec_support::rng::Xoshiro256StarStar::seed_from_u64(15);
        let (programs, inputs, envs) = (arb_program(), arb_inputs(), arb_env());
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..256 {
            let (p, i, e) = (
                programs.generate(&mut rng),
                inputs.generate(&mut rng),
                envs.generate(&mut rng),
            );
            for r in check_against_reference(&p, &i, &e) {
                seen.insert(match r {
                    Ok(_) => "ok",
                    Err(ExecError::Duplicate(_)) => "duplicate",
                    Err(ExecError::Unbound(_)) => "unbound",
                    Err(ExecError::NotAMem(_)) => "not-a-mem",
                    Err(ExecError::AssignToInput(_)) => "assign-to-input",
                    Err(ExecError::MissingInput(_)) => "missing-input",
                    Err(ExecError::StepLimit) => "step-limit",
                });
            }
        }
        assert_eq!(seen.len(), 7, "outcomes reached: {seen:?}");
    }
}
