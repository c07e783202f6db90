//! End-to-end measurement: schedule → simulate traces → E.N.C., best,
//! worst — the four metrics of Table 1 — with functional verification
//! against the behavioral golden model on every run.

use crate::exec::profile_cdfg;
use crate::sim::StgSimulator;
use cdfg::analysis::BranchProbs;
use cdfg::{Cdfg, Value};
use hls_lang::interp::Interpreter;
use std::collections::HashMap;
use stg::Stg;

/// Aggregate metrics over a trace set (one simulated run per input
/// vector).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Mean cycles — the paper's expected number of cycles (E.N.C.).
    pub mean_cycles: f64,
    /// Fewest cycles observed.
    pub best_cycles: u64,
    /// Most cycles observed.
    pub worst_cycles: u64,
    /// Number of runs measured.
    pub runs: usize,
    /// Functional mismatches against the golden model (must be 0).
    pub mismatches: usize,
}

/// Why a measurement could not be produced. Mismatches against the
/// golden model are *not* errors — they are counted in
/// [`Measurement::mismatches`] so experiments can report them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MeasureError {
    /// The STG simulator failed on one trace (cycle limit, missing
    /// input, internal inconsistency). Scheduled STGs are
    /// self-contained, so this indicates a scheduler bug — but it
    /// should fail the one measurement, not the whole batch.
    Sim {
        /// The offending input vector, rendered for logging.
        vector: String,
        /// The simulator's error message.
        detail: String,
    },
    /// The behavioral golden model failed on one trace (step limit or
    /// an unsupported construct), so functional verification of that
    /// vector is impossible.
    Golden {
        /// The offending input vector, rendered for logging.
        vector: String,
        /// The interpreter's error message.
        detail: String,
    },
    /// No input vectors were supplied: the mean is undefined.
    NoVectors,
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Sim { vector, detail } => {
                write!(f, "simulation failed on {vector}: {detail}")
            }
            MeasureError::Golden { vector, detail } => {
                write!(f, "golden model failed on {vector}: {detail}")
            }
            MeasureError::NoVectors => write!(f, "measure() needs at least one input vector"),
        }
    }
}

impl std::error::Error for MeasureError {}

/// Simulates `stg` over every input vector, checking outputs and final
/// memories against the `hls-lang` interpreter when `golden` is
/// provided. The STG ([`StgSimulator::new`]) and the golden model
/// ([`Interpreter::new`]) are compiled once, and the
/// golden model's memory image is built once, for all vectors.
///
/// # Errors
///
/// Returns [`MeasureError`] if a simulation or golden-model run fails —
/// scheduled STGs are self-contained, so failures indicate scheduler
/// bugs, but they fail this one measurement instead of panicking a
/// whole batch run. The first failing vector (in vector order) is
/// reported.
pub fn measure(
    g: &Cdfg,
    stg: &Stg,
    vectors: &[Vec<(String, Value)>],
    mem_init: &HashMap<String, Vec<Value>>,
    golden: Option<&hls_lang::Program>,
    cycle_limit: u64,
) -> Result<Measurement, MeasureError> {
    if vectors.is_empty() {
        return Err(MeasureError::NoVectors);
    }
    let sim = StgSimulator::new(g, stg);
    let golden = golden.map(|p| {
        let image = hls_lang::MemImage {
            contents: mem_init.clone(),
        };
        (Interpreter::new(p), image)
    });
    let mut total: u64 = 0;
    let mut best = u64::MAX;
    let mut worst = 0u64;
    let mut mismatches = 0usize;
    for vec in vectors {
        let inputs: Vec<(&str, Value)> = vec.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let out = sim
            .run(&inputs, mem_init, cycle_limit)
            .map_err(|e| MeasureError::Sim {
                vector: format!("{vec:?}"),
                detail: e.to_string(),
            })?;
        if let Some((model, image)) = &golden {
            let want = model
                .run(&inputs, image, 10_000_000)
                .map_err(|e| MeasureError::Golden {
                    vector: format!("{vec:?}"),
                    detail: e.to_string(),
                })?;
            mismatches += usize::from(want.outputs != out.outputs || want.mems != out.mems);
        }
        total += out.cycles;
        best = best.min(out.cycles);
        worst = worst.max(out.cycles);
    }
    Ok(Measurement {
        mean_cycles: total as f64 / vectors.len() as f64,
        best_cycles: best,
        worst_cycles: worst,
        runs: vectors.len(),
        mismatches,
    })
}

/// Profiles branch probabilities over the same vectors the measurement
/// runs use — the paper's methodology (profiling information drives the
/// scheduler; the traces drive the reported E.N.C.).
pub fn profile(
    g: &Cdfg,
    vectors: &[Vec<(String, Value)>],
    mem_init: &HashMap<String, Vec<Value>>,
) -> BranchProbs {
    let runs: Vec<Vec<(&str, Value)>> = vectors
        .iter()
        .map(|v| v.iter().map(|(n, x)| (n.as_str(), *x)).collect())
        .collect();
    profile_cdfg(g, &runs, mem_init, 10_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hls_lang::Program;
    use hls_resources::{Allocation, FuClass, Library};
    use wavesched::{schedule, Mode, SchedConfig};

    const GCD: &str = "design gcd { input x, y; output g; var a = x; var b = y;
        while (a != b) { if (a > b) { a = a - b; } else { b = b - a; } } g = a; }";

    fn gcd_alloc() -> Allocation {
        Allocation::new()
            .with(FuClass::Subtracter, 2)
            .with(FuClass::Comparator, 1)
            .with(FuClass::EqComparator, 2)
    }

    #[test]
    fn gcd_measurement_pipeline() {
        let p = Program::parse(GCD).unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        let vectors = crate::trace::positive_vectors(5, &["x", "y"], 24.0, 63, 40);
        let probs = profile(&g, &vectors, &HashMap::new());
        // The loop-continue probability must be well above 1/2 for GCD.
        let cond = g.loops()[0].cond();
        assert!(probs.get(cond) > 0.5);

        let mut results = Vec::new();
        for mode in [Mode::NonSpeculative, Mode::Speculative] {
            let r = schedule(
                &g,
                &Library::dac98(),
                &gcd_alloc(),
                &probs,
                &SchedConfig::new(mode),
            )
            .unwrap();
            let m = measure(&g, &r.stg, &vectors, &HashMap::new(), Some(&p), 1_000_000).unwrap();
            assert_eq!(m.mismatches, 0, "{mode}: functional equivalence");
            results.push(m);
        }
        let (ws, spec) = (&results[0], &results[1]);
        assert!(
            spec.mean_cycles < ws.mean_cycles,
            "speculation speeds up GCD: {} vs {}",
            spec.mean_cycles,
            ws.mean_cycles
        );
        assert!(spec.best_cycles <= ws.best_cycles);
        assert!(spec.worst_cycles <= ws.worst_cycles);
    }

    #[test]
    fn analytic_matches_simulated_for_counter() {
        let src = "design d { input n; output o; var i = 0;
            while (i < n) { i = i + 1; } o = i; }";
        let p = Program::parse(src).unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        // Fixed n = 7 for every vector makes the loop deterministic:
        // analytic E.N.C. with the exact per-iteration probability
        // p = 7/8 should match simulation closely.
        let vectors: Vec<Vec<(String, i64)>> = vec![vec![("n".to_string(), 7)]; 8];
        let probs = profile(&g, &vectors, &HashMap::new());
        let r = schedule(
            &g,
            &Library::dac98(),
            &Allocation::new()
                .with(FuClass::Incrementer, 1)
                .with(FuClass::Comparator, 1),
            &probs,
            &SchedConfig::new(Mode::Speculative),
        )
        .unwrap();
        let m = measure(&g, &r.stg, &vectors, &HashMap::new(), Some(&p), 100_000).unwrap();
        assert_eq!(m.mismatches, 0);
        let analytic = crate::markov::expected_cycles(&r.stg, &probs).unwrap();
        // The geometric-loop model approximates the fixed-n run; both
        // must be in the same ballpark (n + fill cycles).
        assert!(
            (analytic - m.mean_cycles).abs() < 0.35 * m.mean_cycles,
            "analytic {analytic} vs simulated {}",
            m.mean_cycles
        );
    }
}
