//! Regenerates Fig. 6 of the paper: expected number of cycles of the
//! three Fig. 5 schedules as a function of P(c1), by both analytic
//! Markov evaluation and Bernoulli-input simulation.
//!
//! The paper's closed forms are CCa = 2P+2, CCb = 3, CCc = P+2. Our
//! reproduction measures its own schedules' coefficients (constants
//! differ because our Output commit takes its own state), but the
//! qualitative content must match: (a) and (b) cross at P = 0.5, and
//! the two-adder schedule (c) dominates both everywhere.

use cdfg::analysis::BranchProbs;
use spec_support::rng::{Rng, Xoshiro256StarStar};
use std::collections::HashMap;
use wavesched::{schedule, Mode, SchedConfig, ScheduleResult};

fn fig4_cond(g: &cdfg::Cdfg) -> cdfg::OpId {
    g.ops()
        .iter()
        .find(|o| o.kind() == cdfg::OpKind::Gt)
        .expect("fig4 has the comparison")
        .id()
}

fn build(w: &workloads::Workload, adders: u32, p: f64) -> ScheduleResult {
    let mut probs = BranchProbs::new();
    probs.set(fig4_cond(&w.cdfg), p);
    schedule(
        &w.cdfg,
        &w.library,
        &workloads::fig4_allocation(adders),
        &probs,
        &SchedConfig::new(Mode::Speculative),
    )
    .expect("fig4 schedules")
}

/// Simulated mean cycles at branch probability `p`: inputs b ∈ {1, 3}
/// with P(b = 3) = p (so P(x = b+1 > 2) = p), e fixed, drawn from a
/// seeded stream.
fn simulate(w: &workloads::Workload, stg: &stg::Stg, p: f64, runs: usize) -> f64 {
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    let sim = hls_sim::StgSimulator::new(&w.cdfg, stg);
    let total: u64 = (0..runs)
        .map(|_| {
            let b = if rng.chance(p) { 3 } else { 1 };
            sim.run(&[("b", b), ("e", 5)], &HashMap::new(), 10_000)
                .expect("fig4 simulates")
                .cycles
        })
        .sum();
    total as f64 / runs as f64
}

fn main() {
    let w = workloads::fig4().unwrap();
    let cond = fig4_cond(&w.cdfg);
    // Fixed schedules, as in the paper: each derived once under its own
    // design-time assumption, then evaluated across the whole P range.
    let sched_a = build(&w, 1, 0.2);
    let sched_b = build(&w, 1, 0.8);
    let sched_c = build(&w, 2, 0.8);

    println!("Fig. 6 — expected cycles of the Fig. 5 schedules vs P(c1)");
    println!("(analytic Markov value, with simulated mean over 4000 Bernoulli runs in parens)\n");
    println!(
        "{:>5}  {:>16}  {:>16}  {:>16}",
        "P", "CCa (1add,pF)", "CCb (1add,pT)", "CCc (2add)"
    );
    let mut rows = Vec::new();
    for i in 0..=10 {
        let p = i as f64 / 10.0;
        let mut probs = BranchProbs::new();
        probs.set(cond, p);
        let mut cells = Vec::new();
        for s in [&sched_a, &sched_b, &sched_c] {
            let analytic =
                hls_sim::markov::expected_cycles(&s.stg, &probs).expect("fig4 STGs are acyclic");
            let simulated = simulate(&w, &s.stg, p, 4000);
            cells.push((analytic, simulated));
        }
        println!(
            "{:>5.2}  {:>7.3} ({:>5.2})  {:>7.3} ({:>5.2})  {:>7.3} ({:>5.2})",
            p, cells[0].0, cells[0].1, cells[1].0, cells[1].1, cells[2].0, cells[2].1
        );
        rows.push((p, cells));
    }
    // Qualitative checks, printed so the log is self-certifying.
    let at = |p: f64, k: usize| {
        rows.iter()
            .find(|(q, _)| (*q - p).abs() < 1e-9)
            .map(|(_, c)| c[k].0)
            .expect("row")
    };
    println!();
    println!(
        "crossover: CCa(0)={:.2} < CCb(0)={:.2} and CCa(1)={:.2} > CCb(1)={:.2}",
        at(0.0, 0),
        at(0.0, 1),
        at(1.0, 0),
        at(1.0, 1)
    );
    let dominated = rows
        .iter()
        .all(|(_, c)| c[2].0 <= c[0].0 + 1e-9 && c[2].0 <= c[1].0 + 1e-9);
    println!("two-adder schedule dominates both single-adder schedules everywhere: {dominated}");
}
