//! Measurement-substrate benches: cycle-accurate STG simulation, the
//! behavioral golden model, and the analytic Markov solver — the pieces
//! every Table-1 number flows through.
//!
//! Run with `cargo bench --bench simulation`; results land in
//! `target/spec-bench/BENCH_simulation.json`.

use spec_support::bench::{black_box, Harness};
use std::collections::HashMap;
use wavesched::{schedule, Mode, SchedConfig};

fn bench_stg_simulation(h: &mut Harness) {
    let w = workloads::gcd().unwrap();
    let r = schedule(
        &w.cdfg,
        &w.library,
        &w.allocation,
        &Default::default(),
        &SchedConfig::new(Mode::Speculative),
    )
    .expect("schedules");
    let sim = hls_sim::StgSimulator::new(&w.cdfg, &r.stg);
    let mem: HashMap<String, Vec<i64>> = HashMap::new();
    h.bench("sim/gcd_spec_run", || {
        sim.run(black_box(&[("x", 48), ("y", 36)]), &mem, 100_000)
            .expect("simulates")
            .cycles
    });
}

fn bench_golden_models(h: &mut Harness) {
    let w = workloads::gcd().unwrap();
    let mem: HashMap<String, Vec<i64>> = HashMap::new();
    h.bench("sim/gcd_interp_run", || {
        hls_lang::interp::run(
            black_box(&w.program),
            &[("x", 48), ("y", 36)],
            &Default::default(),
            1_000_000,
        )
        .expect("runs")
        .steps
    });
    h.bench("sim/gcd_cdfg_exec", || {
        hls_sim::execute_cdfg(black_box(&w.cdfg), &[("x", 48), ("y", 36)], &mem, 1_000_000)
            .expect("runs")
            .steps
    });
    // Test1 runs a long data-dependent loop of loads and stores over two
    // 256-cell memories: the loop-heavy design, one trace of it.
    let w = workloads::test1().unwrap();
    let vector = w.vectors(1).remove(0);
    let inputs: Vec<(&str, i64)> = vector.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let image = hls_lang::MemImage {
        contents: w.mem_init.clone(),
    };
    h.bench("sim/test1_interp_run", || {
        hls_lang::interp::run(black_box(&w.program), &inputs, &image, 1_000_000)
            .expect("runs")
            .steps
    });
}

/// Whole-call costs over fixed GCD trace sets: `measure` compiles the
/// STG (and, when checking, the golden model) once per call and
/// `profile` builds one execution plan per call, so these entries show
/// what that set-up amortizes over. The `_1w` suffix keeps the unchecked
/// measure entry comparable with older JSON, from when `measure` also
/// ran on several worker threads; `_golden` checks every trace against
/// the interpreter, as the paper binaries and the benchmark do.
fn bench_trace_sets(h: &mut Harness) {
    let w = workloads::gcd().unwrap();
    let r = schedule(
        &w.cdfg,
        &w.library,
        &w.allocation,
        &Default::default(),
        &SchedConfig::new(Mode::Speculative),
    )
    .expect("schedules");
    let vectors = hls_sim::trace::positive_vectors(7, &["x", "y"], 24.0, 63, 64);
    let mem: HashMap<String, Vec<i64>> = HashMap::new();
    h.bench("sim/gcd_measure_1w", || {
        hls_sim::measure(black_box(&w.cdfg), &r.stg, &vectors, &mem, None, 100_000)
            .unwrap()
            .mean_cycles
    });
    h.bench("sim/gcd_measure_golden", || {
        let m = hls_sim::measure(
            black_box(&w.cdfg),
            &r.stg,
            &vectors,
            &mem,
            Some(&w.program),
            100_000,
        )
        .unwrap();
        assert_eq!(m.mismatches, 0);
        m.mean_cycles
    });
    let vectors = hls_sim::trace::positive_vectors(7, &["x", "y"], 24.0, 63, 50);
    h.bench("sim/gcd_profile", || {
        hls_sim::profile(black_box(&w.cdfg), &vectors, &mem)
    });
}

fn bench_markov(h: &mut Harness) {
    let w = workloads::test1().unwrap();
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_spec_depth = w.spec_depth;
    let r = schedule(
        &w.cdfg,
        &w.library,
        &w.allocation,
        &Default::default(),
        &cfg,
    )
    .expect("schedules");
    h.bench("sim/test1_markov_enc", || {
        hls_sim::markov::expected_cycles(black_box(&r.stg), &Default::default())
    });

    // The largest STG the benchmark suite solves: DspClip under
    // Wavesched-spec, profiled as the `table1` binary profiles.
    let w = workloads::by_name("DspClip").unwrap();
    let probs = hls_sim::profile(&w.cdfg, &w.vectors(spec_bench::TRACE_RUNS), &w.mem_init);
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_spec_depth = w.spec_depth;
    let r = schedule(&w.cdfg, &w.library, &w.allocation, &probs, &cfg).expect("schedules");
    assert_eq!(r.stg.reachable().len(), 843);
    h.bench("sim/dspclip_spec_markov_enc", || {
        hls_sim::markov::expected_cycles(black_box(&r.stg), &probs)
    });
}

fn main() {
    let mut h = Harness::new("simulation");
    bench_stg_simulation(&mut h);
    bench_golden_models(&mut h);
    bench_trace_sets(&mut h);
    bench_markov(&mut h);
    h.finish().expect("bench JSON written");
}
