//! Randomized end-to-end testing: generate small random branchy/loopy
//! programs, schedule them in every mode, and check STG simulation
//! against the interpreter on random inputs. This is the widest net for
//! scheduler soundness bugs (operand mis-resolution, bad folds, rename
//! errors).

use hls_lang::Program;
use spec_support::rng::{Rng, SplitMix64};
use std::collections::HashMap;
use wavesched::{schedule, Mode, SchedConfig};

/// Generates a random single-loop program over vars a, b and inputs
/// x, y: a bounded counter loop whose body mixes arithmetic and nested
/// branches.
fn random_program(seed: u64) -> String {
    let mut r = SplitMix64::new(seed.wrapping_add(17));
    let ops = ["+", "-", "^"];
    let cmps = ["<", ">", "<=", ">=", "==", "!="];
    let mut body = String::new();
    for v in ["a", "b"] {
        let op = ops[r.range(0..3usize)];
        let operand = ["x", "y", "i", "3"][r.range(0..4usize)];
        let cmp = cmps[r.range(0..6usize)];
        let lhs = ["a", "b", "i"][r.range(0..3usize)];
        let rhs = ["x", "y", "5"][r.range(0..3usize)];
        let alt_op = ops[r.range(0..3usize)];
        body.push_str(&format!(
            "if ({lhs} {cmp} {rhs}) {{ {v} = {v} {op} {operand}; }} else {{ {v} = {v} {alt_op} 1; }}\n"
        ));
    }
    format!(
        "design rnd {{
            input x, y;
            output oa, ob, oi;
            var a = x;
            var b = y;
            var i = 0;
            while (i < 6) {{
                {body}
                i = i + 1;
            }}
            oa = a; ob = b; oi = i;
        }}"
    )
}

#[test]
fn random_programs_schedule_and_verify() {
    let alloc = hls_resources::Allocation::new()
        .with(hls_resources::FuClass::Adder, 2)
        .with(hls_resources::FuClass::Subtracter, 2)
        .with(hls_resources::FuClass::Logic, 4)
        .with(hls_resources::FuClass::Comparator, 2)
        .with(hls_resources::FuClass::EqComparator, 2)
        .with(hls_resources::FuClass::Incrementer, 2);
    let lib = hls_resources::Library::dac98();
    let mut scheduled = 0;
    for seed in 0..12u64 {
        let src = random_program(seed);
        let p = Program::parse(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let g = hls_lang::lower::compile(&p).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for mode in [Mode::NonSpeculative, Mode::Speculative, Mode::SinglePath] {
            let mut cfg = SchedConfig::new(mode);
            cfg.max_spec_depth = 3;
            let r = match schedule(&g, &lib, &alloc, &Default::default(), &cfg) {
                Ok(r) => r,
                Err(e) => panic!("seed {seed} / {mode}: {e}"),
            };
            scheduled += 1;
            let sim = hls_sim::StgSimulator::new(&g, &r.stg);
            let mut rng = SplitMix64::new(seed.wrapping_mul(31).wrapping_add(5));
            for _ in 0..6 {
                let x = rng.range(-10..30i64);
                let y = rng.range(-10..30i64);
                let inputs = [("x", x), ("y", y)];
                let got = sim
                    .run(&inputs, &HashMap::new(), 100_000)
                    .unwrap_or_else(|e| panic!("seed {seed} / {mode} on ({x},{y}): {e}"));
                let want =
                    hls_lang::interp::run(&p, &inputs, &Default::default(), 1_000_000).unwrap();
                assert_eq!(
                    got.outputs, want.outputs,
                    "seed {seed} / {mode} on ({x},{y})\n{src}"
                );
            }
        }
    }
    assert_eq!(scheduled, 36, "every seed schedules in all three modes");
}
