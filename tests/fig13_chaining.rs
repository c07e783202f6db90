//! The paper's exact Fig. 13 GCD (built programmatically) schedules
//! correctly in every mode, and the `eqc1 → not1` chain of Example 10
//! lands in a single controller state under the DAC'98 clocking model.

use hls_resources::Library;
use std::collections::HashMap;
use wavesched::{schedule, Mode, SchedConfig};

fn euclid(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[test]
fn fig13_gcd_schedules_and_computes_in_all_modes() {
    let (g, alloc) = workloads::gcd_fig13();
    for mode in [Mode::NonSpeculative, Mode::SinglePath, Mode::Speculative] {
        let r = schedule(
            &g,
            &Library::dac98(),
            &alloc,
            &Default::default(),
            &SchedConfig::new(mode),
        )
        .unwrap_or_else(|e| panic!("{mode}: {e}"));
        let sim = hls_sim::StgSimulator::new(&g, &r.stg);
        for (x, y) in [(54, 24), (7, 13), (9, 9), (60, 48), (1, 40)] {
            let out = sim
                .run(&[("x", x), ("y", y)], &HashMap::new(), 100_000)
                .unwrap();
            assert_eq!(out.outputs["g"], euclid(x, y), "{mode}: gcd({x},{y})");
        }
    }
}

#[test]
fn fig13_condition_chain_shares_a_state() {
    // Example 10 schedules ==1 and !1 chained within one cycle; verify
    // some state issues both (the chaining model permits
    // 0.5 + 0.35 ≤ 1.0 of the clock period).
    let (g, alloc) = workloads::gcd_fig13();
    let r = schedule(
        &g,
        &Library::dac98(),
        &alloc,
        &Default::default(),
        &SchedConfig::new(Mode::Speculative),
    )
    .unwrap();
    let chained = r.stg.reachable().iter().any(|&sid| {
        let st = r.stg.state(sid);
        let mut eq_iters = Vec::new();
        let mut not_iters = Vec::new();
        for op in &st.ops {
            let inst = r.stg.inst(op.dest);
            match g.op(inst.op).kind() {
                cdfg::OpKind::Eq => eq_iters.push(inst.iter),
                cdfg::OpKind::Not => not_iters.push(inst.iter),
                _ => {}
            }
        }
        eq_iters.iter().any(|i| not_iters.contains(i))
    });
    assert!(
        chained,
        "==1 and !1 of the same iteration chain in one state"
    );
}

#[test]
fn fig13_speculation_beats_baseline() {
    let (g, alloc) = workloads::gcd_fig13();
    let mut enc = Vec::new();
    for mode in [Mode::NonSpeculative, Mode::Speculative] {
        let r = schedule(
            &g,
            &Library::dac98(),
            &alloc,
            &Default::default(),
            &SchedConfig::new(mode),
        )
        .unwrap();
        let sim = hls_sim::StgSimulator::new(&g, &r.stg);
        let mut total = 0u64;
        for (x, y) in [(54, 24), (35, 21), (62, 37), (60, 48), (40, 1)] {
            total += sim
                .run(&[("x", x), ("y", y)], &HashMap::new(), 100_000)
                .unwrap()
                .cycles;
        }
        enc.push(total);
    }
    assert!(enc[1] < enc[0], "spec {} < baseline {}", enc[1], enc[0]);
}
