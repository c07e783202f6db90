//! Closed-form assertions for the paper's Figures 2, 5, 6 and 7:
//! steady-state pipelining of the Fig. 1 loop, and the probability /
//! resource trade-off geometry of the Fig. 4 example.

use cdfg::analysis::BranchProbs;
use wavesched::{schedule, Mode, SchedConfig, ScheduleResult};

fn fig4_cond(g: &cdfg::Cdfg) -> cdfg::OpId {
    g.ops()
        .iter()
        .find(|o| o.kind() == cdfg::OpKind::Gt)
        .expect("fig4 has the comparison")
        .id()
}

fn build_fig4(adders: u32, p: f64, mode: Mode) -> (workloads::Workload, ScheduleResult) {
    let w = workloads::fig4().unwrap();
    let mut probs = BranchProbs::new();
    probs.set(fig4_cond(&w.cdfg), p);
    let r = schedule(
        &w.cdfg,
        &w.library,
        &workloads::fig4_allocation(adders),
        &probs,
        &SchedConfig::new(mode),
    )
    .unwrap();
    (w, r)
}

fn enc(w: &workloads::Workload, r: &ScheduleResult, p: f64) -> f64 {
    let mut probs = BranchProbs::new();
    probs.set(fig4_cond(&w.cdfg), p);
    hls_sim::markov::expected_cycles(&r.stg, &probs).expect("fig4 STGs are acyclic")
}

/// Fig. 2 / Fig. 3: the speculative Test1 schedule pipelines the while
/// loop to one cycle per iteration; the baseline needs several.
#[test]
fn fig2_steady_state_cycles_per_iteration() {
    let w = workloads::test1().unwrap();
    let mem = w.mem_init.clone();
    let mut per_iter = Vec::new();
    for mode in [Mode::NonSpeculative, Mode::Speculative] {
        let mut cfg = SchedConfig::new(mode);
        cfg.max_spec_depth = w.spec_depth;
        let r = schedule(
            &w.cdfg,
            &w.library,
            &w.allocation,
            &Default::default(),
            &cfg,
        )
        .unwrap();
        let sim = hls_sim::StgSimulator::new(&w.cdfg, &r.stg);
        let short = sim.run(&[("k", 107)], &mem, w.cycle_limit).unwrap();
        let long = sim.run(&[("k", 207)], &mem, w.cycle_limit).unwrap();
        per_iter.push((long.cycles - short.cycles) as f64 / 100.0);
    }
    assert!(
        per_iter[0] >= 5.0,
        "baseline is serial: {} cycles/iter",
        per_iter[0]
    );
    assert!(
        per_iter[1] <= 1.25,
        "speculation reaches ~one iteration per cycle: {} cycles/iter",
        per_iter[1]
    );
}

/// Fig. 6: the two single-adder schedules cross at P = 0.5 and the
/// two-adder schedule dominates everywhere (the paper's Example 2).
#[test]
fn fig6_probability_resource_geometry() {
    let (w, a) = build_fig4(1, 0.2, Mode::Speculative);
    let (_, b) = build_fig4(1, 0.8, Mode::Speculative);
    let (_, c) = build_fig4(2, 0.8, Mode::Speculative);
    // Crossover: prefer-false wins at low P, prefer-true at high P.
    assert!(enc(&w, &a, 0.0) < enc(&w, &b, 0.0));
    assert!(enc(&w, &a, 1.0) > enc(&w, &b, 1.0));
    let mid_a = enc(&w, &a, 0.5);
    let mid_b = enc(&w, &b, 0.5);
    assert!(
        (mid_a - mid_b).abs() < 1e-6,
        "curves cross at P = 0.5: {mid_a} vs {mid_b}"
    );
    // Dominance of the extra adder for every P.
    for i in 0..=10 {
        let p = i as f64 / 10.0;
        let cc = enc(&w, &c, p);
        assert!(cc <= enc(&w, &a, p) + 1e-9, "P={p}");
        assert!(cc <= enc(&w, &b, p) + 1e-9, "P={p}");
    }
}

/// Fig. 7 / Eq. 4: single-path speculation is dominated by multi-path
/// speculation for every P (Example 3).
#[test]
fn fig7_single_path_is_dominated() {
    let (w, multi) = build_fig4(1, 0.8, Mode::Speculative);
    let (_, single) = build_fig4(1, 0.8, Mode::SinglePath);
    let mut strict = false;
    for i in 0..=10 {
        let p = i as f64 / 10.0;
        let ccb = enc(&w, &multi, p);
        let ccd = enc(&w, &single, p);
        assert!(ccd + 1e-9 >= ccb, "P={p}: {ccd} < {ccb}");
        strict |= ccd > ccb + 1e-6;
    }
    assert!(strict, "dominance is strict somewhere below P = 1");
}

/// The schedules behind Fig. 5 honor their allocations: one adder means
/// at most one add/sub-class op per state.
#[test]
fn fig5_schedules_respect_allocations() {
    let (w, r) = build_fig4(1, 0.2, Mode::Speculative);
    for sid in r.stg.reachable() {
        let adds = r
            .stg
            .state(sid)
            .ops
            .iter()
            .filter(|o| {
                hls_resources::classify(w.cdfg.op(r.stg.inst(o.dest).op).kind())
                    == hls_resources::FuClass::Adder
            })
            .count();
        assert!(adds <= 1, "state {sid} uses {adds} adders");
    }
}
