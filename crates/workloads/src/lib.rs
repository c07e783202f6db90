//! Benchmark behavioral descriptions from the DAC'98 evaluation.
//!
//! The paper evaluates on five designs (Sec. 5): **GCD** (Fig. 13),
//! **Test1** (the Fig. 1 loop), **Barcode** (a barcode reader), **TLC**
//! (a traffic light controller), and **Findmin** (index of the minimum
//! array element). GCD and Test1 are given in the paper; Barcode and TLC
//! sources were never published, so this crate reconstructs
//! control-flow-intensive designs with the documented character (see
//! `DESIGN.md` for the substitution rationale). Each workload carries its
//! Table-2 allocation, the resource library, seeded Gaussian input
//! vectors, and memory images.
//!
//! The crate also provides the Fig. 4 example CDFG used by Examples 2/3
//! and Figures 5–7, with its three resource/probability settings, plus
//! extra stress designs (nested loops, memory pipelines) used by the
//! test suite.
//!
//! # Example
//!
//! ```
//! let w = workloads::gcd()?;
//! assert_eq!(w.cdfg.name(), "gcd");
//! assert_eq!(w.vectors(4).len(), 4);
//! # Ok::<(), workloads::WorkloadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cdfg::Cdfg;
use hls_lang::Program;
use hls_resources::{Allocation, FuClass, FuSpec, Library};
use std::collections::HashMap;

/// Why a workload could not be constructed or found. The bundled
/// sources are compile-time constants, so [`WorkloadError::Parse`] and
/// [`WorkloadError::Lower`] indicate a broken source tree — but they
/// surface as values so batch drivers (benches, the `probe` CLI) can
/// report one bad workload without panicking the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The behavioral source does not parse.
    Parse {
        /// Workload name.
        name: String,
        /// Parser error message.
        detail: String,
    },
    /// The parsed program does not lower to a CDFG.
    Lower {
        /// Workload name.
        name: String,
        /// Lowering error message.
        detail: String,
    },
    /// No workload with the requested name exists (see [`by_name`]).
    Unknown {
        /// The name that failed to resolve.
        name: String,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Parse { name, detail } => {
                write!(f, "workload `{name}` does not parse: {detail}")
            }
            WorkloadError::Lower { name, detail } => {
                write!(f, "workload `{name}` does not lower: {detail}")
            }
            WorkloadError::Unknown { name } => write!(f, "unknown workload `{name}`"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A benchmark design bundled with everything an experiment needs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Design name (matches the paper's Table 1 rows).
    pub name: &'static str,
    /// Behavioral source.
    pub source: &'static str,
    /// Parsed program (the golden model input).
    pub program: Program,
    /// Lowered CDFG.
    pub cdfg: Cdfg,
    /// Allocation constraints (Table 2).
    pub allocation: Allocation,
    /// Functional-unit library.
    pub library: Library,
    /// Initial memory contents.
    pub mem_init: HashMap<String, Vec<i64>>,
    /// Trace seed (deterministic runs).
    pub seed: u64,
    /// Gaussian σ for input magnitudes.
    pub sigma: f64,
    /// Upper bound on input magnitudes (keeps loops terminating).
    pub cap: i64,
    /// Simulation cycle limit per run.
    pub cycle_limit: u64,
    /// Speculation depth for the speculative scheduler.
    pub spec_depth: usize,
}

impl Workload {
    fn build(
        name: &'static str,
        source: &'static str,
        allocation: Allocation,
        seed: u64,
        sigma: f64,
        cap: i64,
    ) -> Result<Self, WorkloadError> {
        let program = Program::parse(source).map_err(|e| WorkloadError::Parse {
            name: name.to_string(),
            detail: e.to_string(),
        })?;
        let cdfg = hls_lang::lower::compile(&program).map_err(|e| WorkloadError::Lower {
            name: name.to_string(),
            detail: e.to_string(),
        })?;
        Ok(Workload {
            name,
            source,
            program,
            cdfg,
            allocation,
            library: Library::dac98(),
            mem_init: HashMap::new(),
            seed,
            sigma,
            cap,
            cycle_limit: 1_000_000,
            spec_depth: 4,
        })
    }

    /// `n` seeded input vectors (positive Gaussian magnitudes, capped).
    pub fn vectors(&self, n: usize) -> Vec<Vec<(String, i64)>> {
        let names: Vec<&str> = self.program.inputs.iter().map(|s| s.as_str()).collect();
        hls_sim::trace::positive_vectors(self.seed, &names, self.sigma, self.cap, n)
    }
}

/// GCD (Fig. 13 of the paper): `while (a != b) { if (a > b) … }`.
pub fn gcd() -> Result<Workload, WorkloadError> {
    Workload::build(
        "GCD",
        "design gcd {
            input x, y;
            output g;
            var a = x;
            var b = y;
            while (a != b) {
                if (a > b) { a = a - b; } else { b = b - a; }
            }
            g = a;
        }",
        // Table 2: two sub1, one comp1, two eqc1.
        Allocation::new()
            .with(FuClass::Subtracter, 2)
            .with(FuClass::Comparator, 1)
            .with(FuClass::EqComparator, 2),
        101,
        24.0,
        63,
    )
}

/// Test1: the Fig. 1 `while (k > t4)` loop with the two-stage pipelined
/// multiplier chain `t4 = M1[i]·C1·C2 + C3` and the `M2[i] = t4` store.
pub fn test1() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "Test1",
        "design test1 {
            input k;
            output iters;
            mem M1[256];
            mem M2[256];
            var i = 0;
            var t4 = 0;
            while (k > t4) {
                i = i + 1;
                t4 = M1[i] * 1 * 1 + 7;
                M2[i] = t4;
            }
            iters = i;
        }",
        // Table 2: two add1, four mult1, one comp1, one inc1.
        Allocation::new()
            .with(FuClass::Adder, 2)
            .with(FuClass::Multiplier, 4)
            .with(FuClass::Comparator, 1)
            .with(FuClass::Incrementer, 1),
        202,
        90.0,
        // t4 after iteration i is M1[i] + 7 = i + 7 with the ramp image
        // below, so the loop runs ≈ k − 7 iterations; the cap keeps it
        // well inside the array.
        200,
    )?;
    w.mem_init
        .insert("M1".into(), (0..256).map(|i| i as i64).collect());
    // The Fig. 2(b) steady state keeps ~8 loop iterations in flight
    // (one comparison per pipeline stage), so the speculation depth
    // must cover them.
    w.spec_depth = 9;
    Ok(w)
}

/// Barcode reader (reconstructed): scans a 0/1 signal, measuring bar
/// widths and counting bars/wide bars — nested conditionals inside a
/// data-dependent loop, matching the documented control-intensive
/// character.
pub fn barcode() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "Barcode",
        "design barcode {
            input n;
            output bars, wide;
            mem SIG[32];
            var i = 0;
            var cnt = 0;
            var prev = 9999;
            var w = 0;
            var wd = 0;
            while (i < n) {
                var s = SIG[i];
                if (s == prev) {
                    w = w + 1;
                } else {
                    if (w > 2) { wd = wd + 1; }
                    cnt = cnt + 1;
                    w = 1;
                    prev = s;
                }
                i = i + 1;
            }
            bars = cnt;
            wide = wd;
        }",
        // Table 2: two add1, three comp1, three eqc1, three inc1.
        Allocation::new()
            .with(FuClass::Adder, 2)
            .with(FuClass::Comparator, 3)
            .with(FuClass::EqComparator, 3)
            .with(FuClass::Incrementer, 3),
        303,
        20.0,
        31,
    )?;
    // A plausible scan line: runs of 0s and 1s of varying width.
    w.mem_init.insert(
        "SIG".into(),
        vec![
            0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1,
            1, 1, 0,
        ],
    );
    Ok(w)
}

/// Traffic light controller (reconstructed): a fixed-length timed loop
/// switching phases when the timer reaches the phase's green time. Its
/// cycle count is input-independent (best = worst = mean within each
/// scheduler), the character the paper's TLC row shows.
pub fn tlc() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "TLC",
        "design tlc {
            input g1, g2;
            output switches;
            var t = 0;
            var phase = 0;
            var sw = 0;
            var total = 0;
            while (total < 100) {
                var limit = 0;
                if (phase == 0) { limit = g1; } else { limit = g2; }
                if (t >= limit) {
                    t = 0;
                    phase = !phase;
                    sw = sw + 1;
                } else {
                    t = t + 1;
                }
                total = total + 1;
            }
            switches = sw;
        }",
        // Table 2: one comp1, one eqc1, one inc1.
        Allocation::new()
            .with(FuClass::Comparator, 1)
            .with(FuClass::EqComparator, 1)
            .with(FuClass::Incrementer, 1),
        404,
        8.0,
        15,
    )?;
    // Three conditions per iteration: depth 3 speculates exactly one
    // iteration ahead, which is where TLC's benefit saturates; deeper
    // fronts multiply contexts without improving the recurrence bound.
    w.spec_depth = 3;
    Ok(w)
}

/// Findmin: index and value of the minimum element of an array — one
/// comparison-gated update per element.
pub fn findmin() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "Findmin",
        "design findmin {
            input n;
            output idx, min;
            mem A[16];
            var i = 1;
            var best = A[0];
            var bi = 0;
            while (i < n) {
                var v = A[i];
                if (v < best) { best = v; bi = i; }
                i = i + 1;
            }
            idx = bi;
            min = best;
        }",
        // Table 2: two comp1, two eqc1, one inc1.
        Allocation::new()
            .with(FuClass::Comparator, 2)
            .with(FuClass::EqComparator, 2)
            .with(FuClass::Incrementer, 1),
        505,
        10.0,
        16,
    )?;
    w.mem_init.insert(
        "A".into(),
        vec![93, 27, 64, 11, 85, 42, 7, 58, 31, 99, 16, 73, 5, 88, 49, 22],
    );
    Ok(w)
}

/// Findmin at N = 64: the same comparison-gated scan over a four-times
/// larger array. Not part of [`all`] (which mirrors the paper's Table 1
/// exactly). The array size never reaches the scheduler: it schedules
/// [`findmin`]'s CDFG into STGs of the same states, issues and folds
/// (only the profiled branch probabilities differ, which can reorder
/// the ops of a state). What grows is the run: its traces scan longer,
/// so simulation and the E.N.C. see more loop iterations.
pub fn findmin64() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "Findmin64",
        "design findmin64 {
            input n;
            output idx, min;
            mem A[64];
            var i = 1;
            var best = A[0];
            var bi = 0;
            while (i < n) {
                var v = A[i];
                if (v < best) { best = v; bi = i; }
                i = i + 1;
            }
            idx = bi;
            min = best;
        }",
        Allocation::new()
            .with(FuClass::Comparator, 2)
            .with(FuClass::EqComparator, 2)
            .with(FuClass::Incrementer, 1),
        515,
        20.0,
        64,
    )?;
    // Deterministic pseudo-shuffle with a unique minimum: A[60] = 0.
    w.mem_init
        .insert("A".into(), (0..64).map(|i| (i * 37 + 11) % 97).collect());
    Ok(w)
}

/// Findmin at N = 1024: run-time iteration counts far beyond the fold
/// horizon. As for [`findmin64`], the scheduler sees [`findmin`]'s CDFG
/// and does the same work; the long traces load the simulator, the
/// golden interpreter and the E.N.C. solve instead. Not part of [`all`].
pub fn findmin1024() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "Findmin1024",
        "design findmin1024 {
            input n;
            output idx, min;
            mem A[1024];
            var i = 1;
            var best = A[0];
            var bi = 0;
            while (i < n) {
                var v = A[i];
                if (v < best) { best = v; bi = i; }
                i = i + 1;
            }
            idx = bi;
            min = best;
        }",
        Allocation::new()
            .with(FuClass::Comparator, 2)
            .with(FuClass::EqComparator, 2)
            .with(FuClass::Incrementer, 1),
        525,
        20.0,
        1024,
    )?;
    // The stride pattern repeats mod 97, so shift it up by one and
    // carve a unique global minimum: A[600] = 0.
    let mut a: Vec<i64> = (0..1024).map(|i| (i * 37 + 11) % 97 + 1).collect();
    a[600] = 0;
    w.mem_init.insert("A".into(), a);
    Ok(w)
}

/// Multi-loop Findmin: the minimum scan over `A` followed by a second
/// data-dependent loop counting the elements of `B` within `margin` of
/// that minimum. Two sequential loops joined by a scalar feed
/// (`lim = best + margin`), so their steady states must fold
/// independently — a bench-only stress of the fold index across loop
/// boundaries (not part of [`all`]). The passes scan *distinct*
/// memories, which keeps this variant a pure two-port bench point with
/// no serialization between the loops; [`findmin_shared_mem`] is the
/// single-memory variant whose second loop is ordered after the first
/// through the loop-exit token.
pub fn findmin_two_pass() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "FindminTwoPass",
        "design findmin2p {
            input n, margin;
            output idx, near;
            mem A[16];
            mem B[16];
            var i = 1;
            var best = A[0];
            var bi = 0;
            while (i < n) {
                var v = A[i];
                if (v < best) { best = v; bi = i; }
                i = i + 1;
            }
            var j = 0;
            var c = 0;
            var lim = best + margin;
            while (j < n) {
                var u = B[j];
                if (u < lim) { c = c + 1; }
                j = j + 1;
            }
            idx = bi;
            near = c;
        }",
        Allocation::new()
            .with(FuClass::Adder, 1)
            .with(FuClass::Comparator, 2)
            .with(FuClass::EqComparator, 2)
            .with(FuClass::Incrementer, 1),
        525,
        10.0,
        16,
    )?;
    w.mem_init.insert(
        "A".into(),
        vec![93, 27, 64, 11, 85, 42, 7, 58, 31, 99, 16, 73, 5, 88, 49, 22],
    );
    w.mem_init.insert(
        "B".into(),
        vec![14, 52, 9, 77, 3, 61, 18, 90, 12, 44, 70, 8, 33, 95, 26, 15],
    );
    Ok(w)
}

/// Shared-memory two-pass Findmin: the minimum scan over `A` followed
/// by a second data-dependent loop re-reading **the same** memory `A`,
/// counting the elements within `margin` of the minimum. The second
/// loop's reads are serialized after the first loop's accesses through
/// the loop-exit order token, so this is the canonical stress for
/// memory disambiguation across sequential loop horizons (the
/// cross-loop deadlock fixed in the loop-exit token rework). Not part
/// of [`all`]; lives under the `stress/` bench prefix.
pub fn findmin_shared_mem() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "FindminSharedMem",
        "design findmin_shared {
            input n, margin;
            output idx, near;
            mem A[16];
            var i = 1;
            var best = A[0];
            var bi = 0;
            while (i < n) {
                var v = A[i];
                if (v < best) { best = v; bi = i; }
                i = i + 1;
            }
            var j = 0;
            var c = 0;
            var lim = best + margin;
            while (j < n) {
                var u = A[j];
                if (u < lim) { c = c + 1; }
                j = j + 1;
            }
            idx = bi;
            near = c;
        }",
        Allocation::new()
            .with(FuClass::Adder, 1)
            .with(FuClass::Comparator, 2)
            .with(FuClass::EqComparator, 2)
            .with(FuClass::Incrementer, 1),
        535,
        10.0,
        16,
    )?;
    w.mem_init.insert(
        "A".into(),
        vec![93, 27, 64, 11, 85, 42, 7, 58, 31, 99, 16, 73, 5, 88, 49, 22],
    );
    Ok(w)
}

/// All five Table-1 workloads, in the paper's row order.
///
/// # Errors
///
/// Fails if any bundled source no longer parses or lowers — see
/// [`WorkloadError`].
pub fn all() -> Result<Vec<Workload>, WorkloadError> {
    Ok(vec![barcode()?, gcd()?, test1()?, tlc()?, findmin()?])
}

/// Looks a workload up by its Table-1 name (case-insensitive), covering
/// every named design in this crate — the five [`all`] rows plus the
/// bench/stress extras. This is the entry point for CLIs taking a
/// user-supplied workload name.
///
/// # Errors
///
/// [`WorkloadError::Unknown`] for an unrecognized name; `Parse`/`Lower`
/// if the bundled source is broken.
pub fn by_name(name: &str) -> Result<Workload, WorkloadError> {
    match name.to_ascii_lowercase().as_str() {
        "gcd" => gcd(),
        "test1" => test1(),
        "barcode" => barcode(),
        "tlc" => tlc(),
        "findmin" => findmin(),
        "findmin64" => findmin64(),
        "findmin1024" => findmin1024(),
        "findmintwopass" | "findmin_two_pass" => findmin_two_pass(),
        "findminsharedmem" | "findmin_shared_mem" => findmin_shared_mem(),
        "triangle" => triangle(),
        "dspclip" | "dsp_clip" => dsp_clip(),
        "fig4" => fig4(),
        _ => Err(WorkloadError::Unknown {
            name: name.to_string(),
        }),
    }
}

/// Extra stress design: nested data-dependent loops (not in the paper;
/// exercises multi-level implicit unrolling).
pub fn triangle() -> Result<Workload, WorkloadError> {
    Workload::build(
        "Triangle",
        "design triangle {
            input n;
            output acc;
            var i = 0;
            var s = 0;
            while (i < n) {
                var j = 0;
                while (j < i) { s = s + 2; j = j + 1; }
                i = i + 1;
            }
            acc = s;
        }",
        Allocation::new()
            .with(FuClass::Adder, 1)
            .with(FuClass::Comparator, 2)
            .with(FuClass::Incrementer, 2),
        606,
        4.0,
        8,
    )
}

/// Extra stress design: a memory-to-memory DSP-style pipeline (clip and
/// accumulate), used by the `dsp_loop_pipelining` example.
pub fn dsp_clip() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "DspClip",
        "design dsp_clip {
            input n, lo, hi;
            output sum;
            mem X[16];
            mem Y[16];
            var i = 0;
            var s = 0;
            while (i < n) {
                var v = X[i];
                if (v < lo) { v = lo; } else { if (v > hi) { v = hi; } }
                Y[i] = v;
                s = s + v;
                i = i + 1;
            }
            sum = s;
        }",
        Allocation::new()
            .with(FuClass::Adder, 1)
            .with(FuClass::Comparator, 2)
            .with(FuClass::Incrementer, 1),
        707,
        6.0,
        16,
    )?;
    // Two conditions (clip-low, clip-high) plus the loop continue per
    // iteration: depth 3 covers one iteration of speculation; deeper
    // fronts multiply clip-combination contexts without improving the
    // 1-port memory bound.
    w.spec_depth = 3;
    w.mem_init.insert(
        "X".into(),
        vec![5, -9, 14, 2, 30, -4, 8, 21, -17, 3, 12, 26, -1, 9, 18, 0],
    );
    Ok(w)
}

/// The Fig. 4 example CDFG of the paper (Examples 2/3, Figs. 5–7): an
/// increment feeding a comparison that steers an adder-vs-adder/shifter
/// choice into a multiplier. All units are single-cycle, as the paper
/// assumes for this example.
pub fn fig4() -> Result<Workload, WorkloadError> {
    let mut w = Workload::build(
        "Fig4",
        "design fig4 {
            input b, e;
            output o;
            var x = b + 1;
            var t = 0;
            if (x > 2) { t = (b + 3) * e * e; } else { t = (b + 5) >> 1 >> 1; }
            o = t;
        }",
        fig4_allocation(1),
        808,
        3.0,
        7,
    )?;
    w.library = fig4_library();
    Ok(w)
}

/// Fig. 4's library: every unit single-cycle (including the multiplier),
/// no chaining.
pub fn fig4_library() -> Library {
    let mut lib = Library::dac98();
    lib.set(FuSpec {
        class: FuClass::Multiplier,
        latency: 1,
        pipelined: false,
        frac_delay: 1.0,
        area: 900.0,
    });
    lib
}

/// Fig. 4's allocation: one of each unit, with `adders` adders (1 for
/// Figs. 5(a)/5(b)/7, 2 for Fig. 5(c)).
pub fn fig4_allocation(adders: u32) -> Allocation {
    Allocation::new()
        .with(FuClass::Adder, adders)
        .with(FuClass::Incrementer, 1)
        .with(FuClass::Comparator, 1)
        .with(FuClass::Shifter, 1)
        .with(FuClass::Multiplier, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn all_workloads_compile_and_execute() {
        for w in all().unwrap().into_iter().chain([
            triangle().unwrap(),
            dsp_clip().unwrap(),
            fig4().unwrap(),
            findmin64().unwrap(),
            findmin_two_pass().unwrap(),
            findmin_shared_mem().unwrap(),
        ]) {
            let vectors = w.vectors(3);
            assert_eq!(vectors.len(), 3, "{}", w.name);
            for v in &vectors {
                let inputs: Vec<(&str, i64)> = v.iter().map(|(n, x)| (n.as_str(), *x)).collect();
                let image = hls_lang::MemImage {
                    contents: w.mem_init.clone(),
                };
                hls_lang::interp::run(&w.program, &inputs, &image, 10_000_000)
                    .unwrap_or_else(|e| panic!("{} diverges on {v:?}: {e}", w.name));
            }
        }
    }

    #[test]
    fn interpreters_agree_on_all_workloads() {
        for w in all().unwrap().into_iter().chain([
            triangle().unwrap(),
            dsp_clip().unwrap(),
            fig4().unwrap(),
            findmin64().unwrap(),
            findmin_two_pass().unwrap(),
            findmin_shared_mem().unwrap(),
        ]) {
            for v in w.vectors(3) {
                let inputs: Vec<(&str, i64)> = v.iter().map(|(n, x)| (n.as_str(), *x)).collect();
                let image = hls_lang::MemImage {
                    contents: w.mem_init.clone(),
                };
                let a = hls_lang::interp::run(&w.program, &inputs, &image, 10_000_000).unwrap();
                let mem_init: HashMap<String, Vec<i64>> = w.mem_init.clone();
                let b = hls_sim::execute_cdfg(&w.cdfg, &inputs, &mem_init, 10_000_000).unwrap();
                assert_eq!(a.outputs, b.outputs, "{} on {v:?}", w.name);
                assert_eq!(a.mems, b.mems, "{} on {v:?}", w.name);
            }
        }
    }

    #[test]
    fn gcd_matches_euclid() {
        let w = gcd().unwrap();
        fn euclid(mut a: i64, mut b: i64) -> i64 {
            while b != 0 {
                let t = a % b;
                a = b;
                b = t;
            }
            a
        }
        for (x, y) in [(54, 24), (13, 7), (8, 8)] {
            let out = hls_lang::interp::run(
                &w.program,
                &[("x", x), ("y", y)],
                &Default::default(),
                1_000_000,
            )
            .unwrap();
            assert_eq!(out.outputs["g"], euclid(x, y));
        }
    }

    #[test]
    fn findmin_finds_minimum() {
        let w = findmin().unwrap();
        let image = hls_lang::MemImage {
            contents: w.mem_init.clone(),
        };
        let out = hls_lang::interp::run(&w.program, &[("n", 16)], &image, 1_000_000).unwrap();
        assert_eq!(out.outputs["min"], 5);
        assert_eq!(out.outputs["idx"], 12);
    }

    #[test]
    fn findmin64_finds_unique_zero_minimum() {
        let w = findmin64().unwrap();
        assert_eq!(w.mem_init["A"].len(), 64);
        let image = hls_lang::MemImage {
            contents: w.mem_init.clone(),
        };
        let out = hls_lang::interp::run(&w.program, &[("n", 64)], &image, 1_000_000).unwrap();
        assert_eq!(out.outputs["min"], 0);
        assert_eq!(out.outputs["idx"], 60);
    }

    #[test]
    fn findmin1024_finds_unique_zero_minimum() {
        let w = findmin1024().unwrap();
        let a = &w.mem_init["A"];
        assert_eq!(a.len(), 1024);
        assert_eq!(a.iter().filter(|&&v| v == 0).count(), 1);
        let image = hls_lang::MemImage {
            contents: w.mem_init.clone(),
        };
        let out = hls_lang::interp::run(&w.program, &[("n", 1024)], &image, 10_000_000).unwrap();
        assert_eq!(out.outputs["min"], 0);
        assert_eq!(out.outputs["idx"], 600);
    }

    #[test]
    fn findmin_two_pass_counts_near_minimum() {
        let w = findmin_two_pass().unwrap();
        let image = hls_lang::MemImage {
            contents: w.mem_init.clone(),
        };
        let out =
            hls_lang::interp::run(&w.program, &[("n", 16), ("margin", 10)], &image, 1_000_000)
                .unwrap();
        // min(A) = 5 at index 12; elements of B below 5 + 10 = 15 are
        // {14, 9, 3, 12, 8}.
        assert_eq!(out.outputs["idx"], 12);
        assert_eq!(out.outputs["near"], 5);
    }

    #[test]
    fn findmin_shared_mem_counts_near_minimum_in_same_memory() {
        let w = findmin_shared_mem().unwrap();
        let image = hls_lang::MemImage {
            contents: w.mem_init.clone(),
        };
        let out =
            hls_lang::interp::run(&w.program, &[("n", 16), ("margin", 10)], &image, 1_000_000)
                .unwrap();
        // min(A) = 5 at index 12; elements of A below 5 + 10 = 15 are
        // {11, 7, 5}.
        assert_eq!(out.outputs["idx"], 12);
        assert_eq!(out.outputs["near"], 3);
    }

    #[test]
    fn tlc_is_input_independent_in_iteration_count() {
        // Different green times change `switches` but the loop runs a
        // fixed 100 iterations either way.
        let w = tlc().unwrap();
        let a = hls_lang::interp::run(
            &w.program,
            &[("g1", 3), ("g2", 5)],
            &Default::default(),
            1_000_000,
        )
        .unwrap();
        let b = hls_lang::interp::run(
            &w.program,
            &[("g1", 10), ("g2", 2)],
            &Default::default(),
            1_000_000,
        )
        .unwrap();
        assert_ne!(a.outputs["switches"], b.outputs["switches"]);
        // Steps differ only through branch shape, not loop length; the
        // cycle-accuracy claim is checked at the STG level in the
        // integration tests.
    }

    #[test]
    fn test1_terminates_within_cap() {
        let w = test1().unwrap();
        let image = hls_lang::MemImage {
            contents: w.mem_init.clone(),
        };
        for k in [1, 50, 200] {
            let out = hls_lang::interp::run(&w.program, &[("k", k)], &image, 1_000_000).unwrap();
            // t4 = i + 7 with the ramp image, so the loop runs ≈ k − 7
            // iterations and stays well inside the 256-entry arrays.
            assert!(out.outputs["iters"] <= 200);
        }
    }

    #[test]
    fn table2_allocations_match_paper() {
        let by_name: HashMap<&str, Workload> =
            all().unwrap().into_iter().map(|w| (w.name, w)).collect();
        let gcd = &by_name["GCD"].allocation;
        assert!(gcd.limit(FuClass::Subtracter).allows(1));
        assert!(!gcd.limit(FuClass::Subtracter).allows(2));
        assert!(!gcd.limit(FuClass::Adder).allows(0));
        let t1 = &by_name["Test1"].allocation;
        assert!(t1.limit(FuClass::Multiplier).allows(3));
        assert!(!t1.limit(FuClass::Multiplier).allows(4));
    }

    #[test]
    fn fig4_library_is_single_cycle() {
        let lib = fig4_library();
        assert_eq!(lib.spec(FuClass::Multiplier).latency, 1);
        assert_eq!(
            fig4_allocation(2).limit(FuClass::Adder),
            hls_resources::Limit::Finite(2)
        );
    }
}

/// The paper's Fig. 13 GCD CDFG, built directly with the [`cdfg`]
/// builder (not through the language frontend), using the paper's exact
/// operation repertoire: `≥1`, `−1`, `−2`, `==1`, `!1` — with the loop
/// continue condition `!(a == b)` chained through the equality
/// comparator and a logic gate in one cycle, as Example 10's clocking
/// assumes (`eqc1 → not1` fits the period under
/// [`Library::dac98`]'s chaining model).
///
/// Returns the CDFG together with the Table-2 GCD allocation.
pub fn gcd_fig13() -> (Cdfg, Allocation) {
    use cdfg::{CdfgBuilder, OpKind, Src};
    let mut b = CdfgBuilder::new("gcd_fig13");
    let x = b.input("x");
    let y = b.input("y");
    b.begin_loop();
    let a = b.carried(x);
    let bb = b.carried(y);
    // Continue condition: !(a == b), an eqc1 → not1 chain.
    let eq = b.op(OpKind::Eq, &[Src::Carried(a), Src::Carried(bb)]);
    let ne = b.op(OpKind::Not, &[Src::Op(eq)]);
    b.loop_condition(ne);
    // Branch: c1 = (a ≥ b); subtract on each side.
    let ge = b.op(OpKind::Ge, &[Src::Carried(a), Src::Carried(bb)]);
    b.begin_if(ge);
    let s1 = b.op(OpKind::Sub, &[Src::Carried(a), Src::Carried(bb)]);
    b.begin_else();
    let s2 = b.op(OpKind::Sub, &[Src::Carried(bb), Src::Carried(a)]);
    b.end_if();
    let a_next = b.select(Src::Op(ge), Src::Op(s1), Src::Carried(a));
    let b_next = b.select(Src::Op(ge), Src::Carried(bb), Src::Op(s2));
    b.set_carried(a, a_next);
    b.set_carried(bb, b_next);
    b.end_loop();
    let g = b.exit_value(a);
    b.output("g", Src::Op(g));
    let cdfg = b.finish().expect("fig13 GCD is well-formed");
    let alloc = Allocation::new()
        .with(FuClass::Subtracter, 2)
        .with(FuClass::Comparator, 1)
        .with(FuClass::EqComparator, 2);
    (cdfg, alloc)
}

#[cfg(test)]
mod fig13_tests {
    use super::*;

    #[test]
    fn fig13_gcd_builds_and_has_chainable_condition() {
        let (g, _) = gcd_fig13();
        assert_eq!(g.loops().len(), 1);
        // The continue condition is the NOT, fed by the equality — the
        // chain Example 10 schedules in one cycle.
        let lp = &g.loops()[0];
        assert_eq!(g.op(lp.cond()).kind(), cdfg::OpKind::Not);
        assert_eq!(lp.cond_cone().len(), 2, "Eq and Not in the cone");
    }
}
