//! Cycle-accurate STG simulation.

use crate::exec::{bind_inputs, initial_mems};
use cdfg::{Cdfg, OpKind, Value};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use stg::{Arg, StateId, Stg, MAX_ARGS};

/// Errors raised by STG simulation. Any of these indicates a scheduler
/// bug (the STG is self-contained by construction) or a runaway design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An operand referenced an instance the registry does not hold.
    MissingValue(String),
    /// No outgoing transition matched the resolved condition values.
    NoTransition(String),
    /// The cycle limit was reached before STOP.
    CycleLimit(u64),
    /// An input value was not supplied.
    MissingInput(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingValue(w) => write!(f, "registry miss: {w}"),
            SimError::NoTransition(w) => write!(f, "no matching transition from {w}"),
            SimError::CycleLimit(n) => write!(f, "cycle limit {n} reached before STOP"),
            SimError::MissingInput(n) => write!(f, "no value supplied for input `{n}`"),
        }
    }
}

impl std::error::Error for SimError {}

/// The result of simulating one input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Final output values by name.
    pub outputs: BTreeMap<String, Value>,
    /// Final memory contents by name.
    pub mems: HashMap<String, Vec<Value>>,
    /// Clock cycles from start to STOP (STOP itself takes no cycle).
    pub cycles: u64,
}

/// Cycle-accurate simulator for a scheduled STG.
///
/// The STG names every value by a dense slot of its instance table, so
/// [`StgSimulator::run`] executes it directly on a flat register file
/// with a live bit per slot. It is allocation-light per cycle: a cycle
/// never hashes, and only a run's first renaming edge grows a buffer.
/// Build one simulator per STG and reuse it across input vectors.
///
/// # Example
///
/// ```
/// use hls_lang::Program;
/// use hls_resources::{Allocation, FuClass, Library};
/// use wavesched::{schedule, Mode, SchedConfig};
/// use hls_sim::StgSimulator;
///
/// let p = Program::parse("design d { input a; output o; o = a + 1; }")?;
/// let g = hls_lang::lower::compile(&p)?;
/// let r = schedule(
///     &g,
///     &Library::dac98(),
///     &Allocation::new().with(FuClass::Incrementer, 1),
///     &Default::default(),
///     &SchedConfig::new(Mode::Speculative),
/// )?;
/// let sim = StgSimulator::new(&g, &r.stg);
/// let out = sim.run(&[("a", 41)], &Default::default(), 1_000)?;
/// assert_eq!(out.outputs["o"], 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct StgSimulator<'a> {
    g: &'a Cdfg,
    stg: &'a Stg,
    /// The operation kind of each slot's instance, so a cycle reads it
    /// with one index instead of two.
    kinds: Vec<OpKind>,
}

impl<'a> StgSimulator<'a> {
    /// Creates a simulator for `stg`, which must have been scheduled from
    /// `g`.
    pub fn new(g: &'a Cdfg, stg: &'a Stg) -> Self {
        let kinds = (0..stg.slot_count() as u32)
            .map(|s| g.op(stg.inst(s).op).kind())
            .collect();
        StgSimulator { g, stg, kinds }
    }

    /// Runs one input vector to STOP.
    ///
    /// `mem_init` maps memory names to initial contents (zero-extended to
    /// the declared size; missing memories start zeroed). When `inputs`
    /// binds a name twice, the last binding wins.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    ///
    /// # Panics
    ///
    /// Panics if a scheduled operation names an operation `g` lacks.
    pub fn run(
        &self,
        inputs: &[(&str, Value)],
        mem_init: &HashMap<String, Vec<Value>>,
        cycle_limit: u64,
    ) -> Result<SimOutcome, SimError> {
        let mut input_vals = Vec::new();
        bind_inputs(self.g, inputs, &mut input_vals).map_err(SimError::MissingInput)?;
        let mut mems = initial_mems(self.g, mem_init);
        let mut outputs: Vec<Value> = vec![0; self.g.outputs().len()];
        // The register file: a value and a live bit per slot. A slot is
        // live once written and dead again after it is renamed away.
        let mut vals: Vec<Value> = vec![0; self.stg.slot_count()];
        let mut live: Vec<bool> = vec![false; self.stg.slot_count()];
        let mut moved: Vec<(u32, Option<Value>)> = Vec::new();
        let missing = |what: &str, slot: u32, state: StateId| {
            SimError::MissingValue(format!("{what}{} in {state}", self.stg.inst(slot)))
        };

        let mut state = self.stg.start();
        let stop = self.stg.stop();
        let mut cycles: u64 = 0;
        while state != stop {
            if cycles >= cycle_limit {
                return Err(SimError::CycleLimit(cycle_limit));
            }
            cycles += 1;
            let st = self.stg.state(state);
            for op in &st.ops {
                let mut buf = [0 as Value; MAX_ARGS];
                for (b, a) in buf.iter_mut().zip(op.args()) {
                    *b = match *a {
                        Arg::Const(v) => v,
                        Arg::Input(i) => input_vals[i.index()],
                        Arg::Slot(s) if live[s as usize] => vals[s as usize],
                        Arg::Slot(s) => return Err(missing("", s, state)),
                    };
                }
                let args = &buf[..op.args().len()];
                let result = match self.kinds[op.dest as usize] {
                    // Scheduled pass-throughs are register transfers of
                    // their single resolved source.
                    OpKind::Pass | OpKind::Select => args[0],
                    OpKind::MemRead(m) => {
                        let mem = &mems[m.index()];
                        let idx = args[0].rem_euclid(mem.len() as Value) as usize;
                        mem[idx]
                    }
                    OpKind::MemWrite(m) => {
                        let mem = &mut mems[m.index()];
                        let idx = args[0].rem_euclid(mem.len() as Value) as usize;
                        mem[idx] = args[1];
                        args[1]
                    }
                    OpKind::Output(o) => {
                        outputs[o.index()] = args[0];
                        args[0]
                    }
                    k => k.eval(args, None),
                };
                vals[op.dest as usize] = result;
                live[op.dest as usize] = true;
            }
            // Select the transition whose condition combination matches.
            let mut chosen = None;
            'outer: for t in &st.transitions {
                for &(s, want) in &t.when {
                    if !live[s as usize] {
                        return Err(missing("condition ", s, state));
                    }
                    if (vals[s as usize] != 0) != want {
                        continue 'outer;
                    }
                }
                chosen = Some(t);
                break;
            }
            let t = chosen.ok_or_else(|| SimError::NoTransition(state.to_string()))?;
            // Register transfers on the edge, applied atomically: read
            // every source, kill every source, then write every live
            // source's value to its destination.
            if !t.renames.is_empty() {
                moved.clear();
                moved.extend(t.renames.iter().map(|&(from, to)| {
                    let from = from as usize;
                    (to, live[from].then_some(vals[from]))
                }));
                for &(from, _) in &t.renames {
                    live[from as usize] = false;
                }
                for &(to, v) in &moved {
                    if let Some(v) = v {
                        vals[to as usize] = v;
                        live[to as usize] = true;
                    }
                }
            }
            state = t.target;
        }

        Ok(SimOutcome {
            outputs: self
                .g
                .outputs()
                .iter()
                .map(|(id, name)| (name.clone(), outputs[id.index()]))
                .collect(),
            mems: self
                .g
                .mems()
                .iter()
                .map(|m| (m.name().to_string(), mems[m.id().index()].clone()))
                .collect(),
            cycles,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdfg::analysis::BranchProbs;
    use cdfg::{CdfgBuilder, OpId, Src};
    use hls_lang::Program;
    use hls_resources::{Allocation, FuClass, Library};
    use stg::{OpInst, ScheduledOp, Transition};
    use wavesched::{schedule, Mode, SchedConfig};

    fn run_design(src: &str, mode: Mode, alloc: Allocation, inputs: &[(&str, i64)]) -> SimOutcome {
        let p = Program::parse(src).unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        let r = schedule(
            &g,
            &Library::dac98(),
            &alloc,
            &BranchProbs::new(),
            &SchedConfig::new(mode),
        )
        .unwrap();
        StgSimulator::new(&g, &r.stg)
            .run(inputs, &HashMap::new(), 100_000)
            .unwrap()
    }

    #[test]
    fn straight_line_computes() {
        let out = run_design(
            "design d { input a, b; output s, p; s = a + b; p = (a - b) * 2; }",
            Mode::Speculative,
            Allocation::new()
                .with(FuClass::Adder, 1)
                .with(FuClass::Subtracter, 1)
                .with(FuClass::Multiplier, 1),
            &[("a", 9), ("b", 5)],
        );
        assert_eq!(out.outputs["s"], 14);
        assert_eq!(out.outputs["p"], 8);
        assert!(out.cycles >= 2, "multiply takes two cycles");
    }

    #[test]
    fn gcd_all_modes_agree_with_interpreter() {
        let src = "design gcd { input x, y; output g; var a = x; var b = y;
            while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";
        let alloc = || {
            Allocation::new()
                .with(FuClass::Subtracter, 2)
                .with(FuClass::Comparator, 1)
                .with(FuClass::EqComparator, 2)
        };
        for mode in [Mode::NonSpeculative, Mode::SinglePath, Mode::Speculative] {
            for (x, y, want) in [(54, 24, 6), (7, 13, 1), (9, 9, 9), (1, 8, 1)] {
                let out = run_design(src, mode, alloc(), &[("x", x), ("y", y)]);
                assert_eq!(out.outputs["g"], want, "{mode}: gcd({x},{y})");
            }
        }
    }

    #[test]
    fn speculative_is_faster_on_loops() {
        let src = "design d { input n; output o; var i = 0;
            while (i < n) { i = i + 1; } o = i; }";
        let alloc = || {
            Allocation::new()
                .with(FuClass::Incrementer, 1)
                .with(FuClass::Comparator, 1)
        };
        let ns = run_design(src, Mode::NonSpeculative, alloc(), &[("n", 20)]);
        let sp = run_design(src, Mode::Speculative, alloc(), &[("n", 20)]);
        assert_eq!(ns.outputs["o"], 20);
        assert_eq!(sp.outputs["o"], 20);
        assert!(
            sp.cycles < ns.cycles,
            "speculation pipelines the loop: {} vs {}",
            sp.cycles,
            ns.cycles
        );
        // Steady state reaches one iteration per cycle (plus constant
        // fill/drain), versus ≥ 2 for the serial schedule.
        assert!(
            sp.cycles <= 20 + 4,
            "~1 cycle per iteration, got {}",
            sp.cycles
        );
        assert!(ns.cycles >= 2 * 20, "serial schedule pays the dependence");
    }

    #[test]
    fn memory_designs_simulate() {
        let src = "design d { input n; output sum; mem A[8];
            var i = 0; var s = 0;
            while (i < n) { s = s + A[i]; i = i + 1; } sum = s; }";
        let p = Program::parse(src).unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        let r = schedule(
            &g,
            &Library::dac98(),
            &Allocation::new()
                .with(FuClass::Adder, 1)
                .with(FuClass::Incrementer, 1)
                .with(FuClass::Comparator, 1),
            &BranchProbs::new(),
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap();
        let mut init = HashMap::new();
        init.insert("A".to_string(), vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let out = StgSimulator::new(&g, &r.stg)
            .run(&[("n", 5)], &init, 100_000)
            .unwrap();
        assert_eq!(out.outputs["sum"], 15);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let out = run_design(
            "design d { input a; output o; mem M[4]; M[1] = a * 2; o = M[1] + 1; }",
            Mode::Speculative,
            Allocation::new()
                .with(FuClass::Multiplier, 1)
                .with(FuClass::Adder, 1)
                .with(FuClass::Incrementer, 1),
            &[("a", 21)],
        );
        assert_eq!(out.outputs["o"], 43);
        assert_eq!(out.mems["M"], vec![0, 42, 0, 0]);
    }

    #[test]
    fn missing_input_is_reported() {
        let p = Program::parse("design d { input a; output o; o = a + 1; }").unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        let r = schedule(
            &g,
            &Library::dac98(),
            &Allocation::new().with(FuClass::Incrementer, 1),
            &BranchProbs::new(),
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap();
        let sim = StgSimulator::new(&g, &r.stg);
        let err = sim.run(&[], &HashMap::new(), 100).unwrap_err();
        assert_eq!(err, SimError::MissingInput("a".into()));
        // A name bound twice takes its last binding.
        let out = sim
            .run(&[("a", 1), ("a", 6)], &HashMap::new(), 100)
            .unwrap();
        assert_eq!(out.outputs["o"], 7);
    }

    /// A hand-built STG over a two-input design: `sum = a + b`
    /// (op2), `diff = a - b` (op3), `lt = a < b` (op4), and outputs
    /// `x` (op5) and `y` (op6). The tests below wire these ops into
    /// states and edges directly, to pin down the simulator's edge
    /// semantics independently of any scheduler.
    struct Edges {
        g: Cdfg,
        stg: Stg,
        sum: OpInst,
        diff: OpInst,
        lt: OpInst,
        out_x: OpId,
        out_y: OpId,
    }

    impl Edges {
        fn new() -> Self {
            let mut b = CdfgBuilder::new("edges");
            let a = b.input("a");
            let bb = b.input("b");
            let sum = b.op(OpKind::Add, &[Src::Op(a), Src::Op(bb)]);
            let diff = b.op(OpKind::Sub, &[Src::Op(a), Src::Op(bb)]);
            let lt = b.op(OpKind::Lt, &[Src::Op(a), Src::Op(bb)]);
            let out_x = b.output("x", Src::Op(sum));
            let out_y = b.output("y", Src::Op(diff));
            Edges {
                g: b.finish().unwrap(),
                stg: Stg::new("edges"),
                sum: OpInst::root(sum),
                diff: OpInst::root(diff),
                lt: OpInst::root(lt),
                out_x,
                out_y,
            }
        }

        /// Issues `inst` in `state`, reading the two primary inputs.
        fn issue(&mut self, state: StateId, inst: &OpInst) {
            let inputs = [
                Arg::Input(cdfg::InputId::new(0)),
                Arg::Input(cdfg::InputId::new(1)),
            ];
            self.push(state, inst, &inputs);
        }

        /// Writes outputs `x` and `y` from `x_src` and `y_src` in `state`.
        fn emit(&mut self, state: StateId, x_src: &OpInst, y_src: &OpInst) {
            let (ox, oy) = (OpInst::root(self.out_x), OpInst::root(self.out_y));
            let (x, y) = (self.stg.intern(x_src), self.stg.intern(y_src));
            self.push(state, &ox, &[Arg::Slot(x)]);
            self.push(state, &oy, &[Arg::Slot(y)]);
        }

        fn push(&mut self, state: StateId, inst: &OpInst, args: &[Arg]) {
            let (dest, guard) = (self.stg.intern(inst), self.stg.intern_guard("1"));
            let op = ScheduledOp::new(dest, args, 1, guard).unwrap();
            self.stg.state_mut(state).ops.push(op);
        }

        fn edge(&mut self, from: StateId, to: StateId, renames: Vec<(OpInst, OpInst)>) {
            let renames = renames
                .iter()
                .map(|(f, t)| (self.stg.intern(f), self.stg.intern(t)))
                .collect();
            self.stg.state_mut(from).transitions.push(Transition {
                when: vec![],
                target: to,
                renames,
            });
        }

        fn when(&mut self, from: StateId, to: StateId, cond: &OpInst, want: bool) {
            let cond = self.stg.intern(cond);
            self.stg.state_mut(from).transitions.push(Transition {
                when: vec![(cond, want)],
                target: to,
                renames: vec![],
            });
        }

        /// start → S2 → STOP: computes `sum` and `diff` in start, applies
        /// `renames` on the first edge, and emits `x`/`y` from S2.
        fn two_states(&mut self, renames: Vec<(OpInst, OpInst)>, x: &OpInst, y: &OpInst) {
            let (start, stop) = (self.stg.start(), self.stg.stop());
            let s2 = self.stg.add_state();
            let (sum, diff) = (self.sum.clone(), self.diff.clone());
            self.issue(start, &sum);
            self.issue(start, &diff);
            self.edge(start, s2, renames);
            self.emit(s2, x, y);
            self.edge(s2, stop, vec![]);
        }

        fn run(&self) -> Result<SimOutcome, SimError> {
            StgSimulator::new(&self.g, &self.stg).run(&[("a", 9), ("b", 4)], &HashMap::new(), 10)
        }
    }

    #[test]
    fn edge_renames_swap_atomically() {
        let mut e = Edges::new();
        let (sum, diff) = (e.sum.clone(), e.diff.clone());
        let swap = vec![(sum.clone(), diff.clone()), (diff.clone(), sum.clone())];
        e.two_states(swap, &sum, &diff);
        let out = e.run().unwrap();
        assert_eq!(out.outputs["x"], 5, "sum now holds a - b");
        assert_eq!(out.outputs["y"], 13, "diff now holds a + b");
        assert_eq!(out.cycles, 2);
    }

    #[test]
    fn rename_from_dead_source_keeps_destination() {
        let mut e = Edges::new();
        let (sum, diff) = (e.sum.clone(), e.diff.clone());
        // `sum` of iteration 1 was never computed: its rename onto
        // `diff` moves nothing, so `diff` keeps a - b.
        let ghost = OpInst::new(sum.op, vec![1]);
        e.two_states(vec![(ghost, diff.clone())], &sum, &diff);
        let out = e.run().unwrap();
        assert_eq!((out.outputs["x"], out.outputs["y"]), (13, 5));
    }

    #[test]
    fn renamed_away_source_is_dead() {
        let mut e = Edges::new();
        let (sum, diff) = (e.sum.clone(), e.diff.clone());
        e.two_states(vec![(sum.clone(), diff.clone())], &diff, &sum);
        let err = e.run().unwrap_err();
        assert_eq!(err, SimError::MissingValue("op2 in S2".into()));
        assert_eq!(err.to_string(), "registry miss: op2 in S2");
    }

    #[test]
    fn unmatched_and_runaway_controllers_report_exact_variants() {
        // start resolves `lt` (9 < 4 is false) but only has a `true` edge.
        let mut e = Edges::new();
        let (start, stop, lt) = (e.stg.start(), e.stg.stop(), e.lt.clone());
        e.issue(start, &lt);
        e.when(start, stop, &lt, true);
        assert_eq!(e.run().unwrap_err(), SimError::NoTransition("S0".into()));

        // A condition that was never computed is a registry miss.
        let mut e = Edges::new();
        e.when(start, stop, &lt, false);
        assert_eq!(
            e.run().unwrap_err(),
            SimError::MissingValue("condition op4 in S0".into())
        );

        // start loops on itself forever.
        let mut e = Edges::new();
        e.edge(start, start, vec![]);
        assert_eq!(e.run().unwrap_err(), SimError::CycleLimit(10));
    }
}
