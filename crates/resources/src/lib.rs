//! Functional-unit library, allocation constraints, module selection, and
//! clocking model for the DAC'98 speculative-scheduling reproduction.
//!
//! The paper's scheduler consumes three pieces of resource information
//! (Sec. 2): *allocation constraints* (how many units of each type exist),
//! *module selection* (which unit type executes each operation), and the
//! *target clock period* (which bounds operation chaining). This crate
//! models all three:
//!
//! * [`FuClass`] — the unit classes of the paper's experimental library
//!   (Sec. 5): adder `add1`, subtracter `sub1`, multiplier `mult1`,
//!   less-than-class comparator `comp1`, equality comparator `eqc1`,
//!   incrementer `inc1`, plus a shifter (Fig. 4), single-input logic gates
//!   (unlimited in the paper), and one access port per memory.
//! * [`FuSpec`] — latency in cycles, pipelining (the 2-stage pipelined
//!   multiplier of Example 1 has `latency = 2, pipelined = true`),
//!   fractional combinational delay for chaining decisions, and a
//!   gate-equivalent area used by the RTL area model.
//! * [`Library`] — module selection: maps an [`OpKind`] to its [`FuSpec`].
//!   [`Library::dac98`] reproduces the paper's library.
//! * [`Allocation`] — per-class unit counts, as in Table 2 of the paper.
//!
//! # Chaining model
//!
//! Each `FuSpec` carries `frac_delay` ∈ (0, 1]: the fraction of the clock
//! period one traversal of the unit consumes. Within a state, an operation
//! may consume same-state results as long as the accumulated depth stays
//! ≤ 1.0; units with `frac_delay = 1.0` can never chain. The paper's GCD
//! example relies on the `eqc1 → or1` and `not1 → or1` chains fitting in
//! one cycle, which the default library honors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cdfg::{Cdfg, MemId, OpId, OpKind};
use std::collections::HashMap;
use std::fmt;

/// Functional-unit classes. Operation kinds map onto classes via
/// [`classify`]; allocation constraints are expressed per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Two-operand adder (`add1`).
    Adder,
    /// Two-operand subtracter (`sub1`); also executes negation.
    Subtracter,
    /// Multiplier (`mult1`); two-cycle pipelined in the paper's library.
    Multiplier,
    /// Magnitude comparator (`comp1`): `<`, `<=`, `>`, `>=`.
    Comparator,
    /// Equality comparator (`eqc1`): `==`, `!=`.
    EqComparator,
    /// Incrementer (`inc1`); also executes decrement.
    Incrementer,
    /// Single- and two-input logic gates (`!`, `&&`, `||`, `^`) —
    /// unlimited in the paper's experiments.
    Logic,
    /// Barrel shifter (`<<`, `>>`).
    Shifter,
    /// One access port of the given memory.
    MemPort(MemId),
    /// No unit needed: selects (datapath multiplexers), constants,
    /// primary inputs and outputs.
    Free,
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuClass::Adder => write!(f, "add1"),
            FuClass::Subtracter => write!(f, "sub1"),
            FuClass::Multiplier => write!(f, "mult1"),
            FuClass::Comparator => write!(f, "comp1"),
            FuClass::EqComparator => write!(f, "eqc1"),
            FuClass::Incrementer => write!(f, "inc1"),
            FuClass::Logic => write!(f, "logic"),
            FuClass::Shifter => write!(f, "shift1"),
            FuClass::MemPort(m) => write!(f, "port[{m}]"),
            FuClass::Free => write!(f, "free"),
        }
    }
}

/// Maps an operation kind to the functional-unit class that executes it
/// (the paper's module selection information `M_inf`).
pub fn classify(kind: OpKind) -> FuClass {
    use OpKind::*;
    match kind {
        Add => FuClass::Adder,
        Sub | Neg => FuClass::Subtracter,
        Mul => FuClass::Multiplier,
        Lt | Le | Gt | Ge => FuClass::Comparator,
        Eq | Ne => FuClass::EqComparator,
        Inc | Dec => FuClass::Incrementer,
        Not | And | Or | Xor => FuClass::Logic,
        Shl | Shr => FuClass::Shifter,
        MemRead(m) | MemWrite(m) => FuClass::MemPort(m),
        Select | Pass | Const(_) | Input(_) | Output(_) => FuClass::Free,
    }
}

/// Timing, pipelining, and area characteristics of one unit class.
#[derive(Debug, Clone, PartialEq)]
pub struct FuSpec {
    /// The class this spec describes.
    pub class: FuClass,
    /// Execution latency in clock cycles (≥ 1).
    pub latency: u32,
    /// If `true`, the unit accepts a new operation every cycle even while
    /// earlier ones are still in flight (initiation interval 1); otherwise
    /// the unit is busy for all `latency` cycles.
    pub pipelined: bool,
    /// Fraction of the clock period one traversal consumes, used for
    /// chaining decisions; 1.0 forbids chaining through this unit.
    pub frac_delay: f64,
    /// Gate-equivalent area of one unit (MSU-library-scale numbers).
    pub area: f64,
}

impl FuSpec {
    /// `true` if results of this unit can be chained into further logic
    /// within the same cycle.
    pub fn chainable(&self) -> bool {
        self.latency == 1 && self.frac_delay < 1.0
    }
}

/// `FuClass` erased of its memory id, so one `MemPort` spec covers every
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FuClassKey {
    Adder,
    Subtracter,
    Multiplier,
    Comparator,
    EqComparator,
    Incrementer,
    Logic,
    Shifter,
    MemPort,
    Free,
}

fn key_of(class: FuClass) -> FuClassKey {
    match class {
        FuClass::Adder => FuClassKey::Adder,
        FuClass::Subtracter => FuClassKey::Subtracter,
        FuClass::Multiplier => FuClassKey::Multiplier,
        FuClass::Comparator => FuClassKey::Comparator,
        FuClass::EqComparator => FuClassKey::EqComparator,
        FuClass::Incrementer => FuClassKey::Incrementer,
        FuClass::Logic => FuClassKey::Logic,
        FuClass::Shifter => FuClassKey::Shifter,
        FuClass::MemPort(_) => FuClassKey::MemPort,
        FuClass::Free => FuClassKey::Free,
    }
}

/// A functional-unit library: one [`FuSpec`] per class, defaulting
/// unspecified classes to a single-cycle non-chaining unit.
#[derive(Debug, Clone, Default)]
pub struct Library {
    specs: HashMap<FuClassKey, FuSpec>,
}

impl Library {
    /// An empty library: every class falls back to a single-cycle,
    /// non-chaining, 100-gate spec.
    pub fn new() -> Self {
        Library::default()
    }

    /// The library used throughout the paper's experiments (Sec. 5): all
    /// units single-cycle except the two-cycle *pipelined* multiplier;
    /// logic gates chain (`eqc1 → or1` and `not1 → or1` fit in one cycle);
    /// area figures are gate-equivalent counts on the scale of the MSU
    /// generic library.
    pub fn dac98() -> Self {
        let mut lib = Library::new();
        let one = |class, frac, area| FuSpec {
            class,
            latency: 1,
            pipelined: false,
            frac_delay: frac,
            area,
        };
        lib.set(one(FuClass::Adder, 1.0, 180.0));
        lib.set(one(FuClass::Subtracter, 1.0, 185.0));
        lib.set(FuSpec {
            class: FuClass::Multiplier,
            latency: 2,
            pipelined: true,
            frac_delay: 1.0,
            area: 900.0,
        });
        lib.set(one(FuClass::Comparator, 0.6, 90.0));
        lib.set(one(FuClass::EqComparator, 0.5, 70.0));
        lib.set(one(FuClass::Incrementer, 1.0, 60.0));
        lib.set(one(FuClass::Logic, 0.35, 12.0));
        lib.set(one(FuClass::Shifter, 1.0, 110.0));
        lib.set(one(FuClass::MemPort(MemId::new(0)), 1.0, 0.0));
        lib
    }

    /// Installs (or replaces) the spec for a class.
    pub fn set(&mut self, spec: FuSpec) {
        self.specs.insert(key_of(spec.class), spec);
    }

    /// The spec executing `kind`, or `None` for free operations.
    pub fn spec_for(&self, kind: OpKind) -> Option<FuSpec> {
        let class = classify(kind);
        if class == FuClass::Free {
            return None;
        }
        Some(self.spec(class))
    }

    /// The spec for a (non-free) class, synthesizing the default
    /// single-cycle spec when unset.
    ///
    /// # Panics
    ///
    /// Panics if asked for [`FuClass::Free`].
    pub fn spec(&self, class: FuClass) -> FuSpec {
        assert!(class != FuClass::Free, "free operations have no unit");
        self.specs
            .get(&key_of(class))
            .cloned()
            .map(|mut s| {
                // Re-instantiate the concrete memory id for ports.
                if let FuClass::MemPort(_) = class {
                    s.class = class;
                }
                s
            })
            .unwrap_or(FuSpec {
                class,
                latency: 1,
                pipelined: false,
                frac_delay: 1.0,
                area: 100.0,
            })
    }

    /// Latency (in cycles) of `kind` under this library; 0 for free
    /// operations.
    pub fn latency(&self, kind: OpKind) -> u32 {
        self.spec_for(kind).map_or(0, |s| s.latency)
    }

    /// A delay function suitable for [`cdfg::analysis::lambda`].
    pub fn delay_fn<'a>(&'a self, g: &'a Cdfg) -> impl Fn(OpId) -> f64 + 'a {
        move |id| f64::from(self.latency(g.op(id).kind()))
    }
}

/// How many units of a class are available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// At most this many concurrent operations of the class per state.
    Finite(u32),
    /// No constraint (the paper's "no resource constraints … for
    /// illustration" setting of Example 1).
    Unlimited,
}

impl Limit {
    /// `true` if one more operation fits on top of `used` already-placed
    /// ones.
    pub fn allows(self, used: u32) -> bool {
        match self {
            Limit::Finite(n) => used < n,
            Limit::Unlimited => true,
        }
    }
}

/// Allocation constraints: unit counts per class, as in Table 2 of the
/// paper.
///
/// Defaults: logic gates are unlimited (as in the paper), each memory has
/// exactly one access port, free operations are unconstrained, and any
/// other class is **absent** (zero units) unless granted — matching the
/// paper's convention that Table 2 lists every unit a design may use.
///
/// # Example
///
/// ```
/// use hls_resources::{Allocation, FuClass};
/// // GCD row of Table 2: two subtracters, one comparator, two equality
/// // comparators.
/// let alloc = Allocation::new()
///     .with(FuClass::Subtracter, 2)
///     .with(FuClass::Comparator, 1)
///     .with(FuClass::EqComparator, 2);
/// assert!(alloc.limit(FuClass::Subtracter).allows(1));
/// assert!(!alloc.limit(FuClass::Subtracter).allows(2));
/// assert!(!alloc.limit(FuClass::Adder).allows(0), "no adder granted");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    counts: HashMap<FuClassKey, u32>,
    unconstrained: bool,
}

impl Allocation {
    /// An allocation granting only the defaults (unlimited logic, one port
    /// per memory).
    pub fn new() -> Self {
        Allocation::default()
    }

    /// An allocation with no constraints at all — every class unlimited.
    pub fn unlimited() -> Self {
        Allocation {
            counts: HashMap::new(),
            unconstrained: true,
        }
    }

    /// Grants `n` units of `class` (builder style).
    pub fn with(mut self, class: FuClass, n: u32) -> Self {
        self.counts.insert(key_of(class), n);
        self
    }

    /// The limit for a class.
    pub fn limit(&self, class: FuClass) -> Limit {
        if self.unconstrained || class == FuClass::Free {
            return Limit::Unlimited;
        }
        if let Some(&n) = self.counts.get(&key_of(class)) {
            return Limit::Finite(n);
        }
        match class {
            FuClass::Logic => Limit::Unlimited,
            FuClass::MemPort(_) => Limit::Finite(1),
            _ => Limit::Finite(0),
        }
    }

    /// Iterates over explicitly granted unit counts (for area
    /// accounting); the logic/memory defaults are not included.
    pub fn granted(&self) -> impl Iterator<Item = (FuClass, u32)> + '_ {
        self.counts.iter().map(|(&k, &n)| {
            let class = match k {
                FuClassKey::Adder => FuClass::Adder,
                FuClassKey::Subtracter => FuClass::Subtracter,
                FuClassKey::Multiplier => FuClass::Multiplier,
                FuClassKey::Comparator => FuClass::Comparator,
                FuClassKey::EqComparator => FuClass::EqComparator,
                FuClassKey::Incrementer => FuClass::Incrementer,
                FuClassKey::Logic => FuClass::Logic,
                FuClassKey::Shifter => FuClass::Shifter,
                FuClassKey::MemPort => FuClass::MemPort(MemId::new(0)),
                FuClassKey::Free => FuClass::Free,
            };
            (class, n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_covers_all_kinds() {
        assert_eq!(classify(OpKind::Add), FuClass::Adder);
        assert_eq!(classify(OpKind::Neg), FuClass::Subtracter);
        assert_eq!(classify(OpKind::Mul), FuClass::Multiplier);
        assert_eq!(classify(OpKind::Gt), FuClass::Comparator);
        assert_eq!(classify(OpKind::Ne), FuClass::EqComparator);
        assert_eq!(classify(OpKind::Dec), FuClass::Incrementer);
        assert_eq!(classify(OpKind::Or), FuClass::Logic);
        assert_eq!(classify(OpKind::Shr), FuClass::Shifter);
        assert_eq!(
            classify(OpKind::MemRead(MemId::new(3))),
            FuClass::MemPort(MemId::new(3))
        );
        assert_eq!(classify(OpKind::Select), FuClass::Free);
        assert_eq!(classify(OpKind::Const(0)), FuClass::Free);
    }

    #[test]
    fn dac98_multiplier_is_two_cycle_pipelined() {
        let lib = Library::dac98();
        let m = lib.spec(FuClass::Multiplier);
        assert_eq!(m.latency, 2);
        assert!(m.pipelined);
        assert!(!m.chainable());
        assert_eq!(lib.latency(OpKind::Mul), 2);
        assert_eq!(lib.latency(OpKind::Add), 1);
        assert_eq!(lib.latency(OpKind::Select), 0, "selects are free");
    }

    #[test]
    fn dac98_gcd_chains_fit() {
        // The GCD example chains eqc1 → or1 and not1 → or1 in one cycle.
        let lib = Library::dac98();
        let eq = lib.spec(FuClass::EqComparator);
        let logic = lib.spec(FuClass::Logic);
        assert!(eq.frac_delay + logic.frac_delay <= 1.0);
        assert!(logic.frac_delay + logic.frac_delay <= 1.0);
        // But a subtracter cannot chain into anything.
        let sub = lib.spec(FuClass::Subtracter);
        assert!(!sub.chainable());
    }

    #[test]
    fn library_default_spec_for_unset_class() {
        let lib = Library::new();
        let s = lib.spec(FuClass::Adder);
        assert_eq!(s.latency, 1);
        assert!(!s.pipelined);
    }

    #[test]
    #[should_panic(expected = "free operations have no unit")]
    fn spec_for_free_panics() {
        Library::new().spec(FuClass::Free);
    }

    #[test]
    fn mem_port_spec_keeps_concrete_id() {
        let lib = Library::dac98();
        let s = lib.spec(FuClass::MemPort(MemId::new(7)));
        assert_eq!(s.class, FuClass::MemPort(MemId::new(7)));
    }

    #[test]
    fn allocation_defaults() {
        let a = Allocation::new();
        assert_eq!(a.limit(FuClass::Logic), Limit::Unlimited);
        assert_eq!(a.limit(FuClass::MemPort(MemId::new(0))), Limit::Finite(1));
        assert_eq!(a.limit(FuClass::Adder), Limit::Finite(0));
        assert_eq!(a.limit(FuClass::Free), Limit::Unlimited);
    }

    #[test]
    fn allocation_grants() {
        let a = Allocation::new().with(FuClass::Adder, 2);
        assert!(a.limit(FuClass::Adder).allows(0));
        assert!(a.limit(FuClass::Adder).allows(1));
        assert!(!a.limit(FuClass::Adder).allows(2));
        let grants: Vec<_> = a.granted().collect();
        assert_eq!(grants, vec![(FuClass::Adder, 2)]);
    }

    #[test]
    fn allocation_unlimited_overrides_everything() {
        let a = Allocation::unlimited();
        assert_eq!(a.limit(FuClass::Multiplier), Limit::Unlimited);
        assert_eq!(a.limit(FuClass::MemPort(MemId::new(1))), Limit::Unlimited);
    }

    #[test]
    fn limit_allows() {
        assert!(Limit::Finite(1).allows(0));
        assert!(!Limit::Finite(1).allows(1));
        assert!(Limit::Unlimited.allows(u32::MAX));
    }

    #[test]
    fn class_display() {
        assert_eq!(FuClass::Adder.to_string(), "add1");
        assert_eq!(FuClass::MemPort(MemId::new(2)).to_string(), "port[mem2]");
    }
}
