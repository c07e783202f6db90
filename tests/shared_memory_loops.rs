//! Cross-loop memory serialization: two sequential loops reading the
//! *same* single-ported memory must schedule, with the second loop's
//! accesses ordered after the first loop's through the loop-exit order
//! token. This is the regression suite for the cross-loop
//! memory-serialization deadlock — before the loop-exit token discharge
//! existed, the second loop's accesses re-derived their order token
//! through the first loop's GC-pruned resolution history and deadlocked
//! with `SchedError::Stuck`.

use std::collections::HashMap;
use wavesched::{schedule, Mode, SchedConfig};

#[test]
fn shared_memory_loops_schedule_in_all_modes() {
    let w = workloads::findmin_shared_mem().unwrap();
    for mode in [Mode::NonSpeculative, Mode::Speculative, Mode::SinglePath] {
        let mut cfg = SchedConfig::new(mode);
        cfg.max_spec_depth = w.spec_depth;
        let r = schedule(
            &w.cdfg,
            &w.library,
            &w.allocation,
            &Default::default(),
            &cfg,
        )
        .unwrap_or_else(|e| panic!("{mode}: cross-loop serialization deadlock resurfaced: {e}"));
        assert!(r.stg.best_case_cycles().is_some(), "{mode}: STOP reachable");
        assert!(r.stats.folds > 0, "{mode}: loops fold into steady states");
    }
}

#[test]
fn shared_memory_schedule_matches_interpreter() {
    let w = workloads::findmin_shared_mem().unwrap();
    let mem: HashMap<String, Vec<i64>> = w.mem_init.clone();
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
        // Edge iteration counts: empty loops, a single iteration, the
        // full scan; margins straddling zero near-hits and a full sweep.
        for (n, margin) in [(0, 0), (1, 5), (2, 0), (16, 10), (16, 100)] {
            let inputs = [("n", n), ("margin", margin)];
            let out = sim.run(&inputs, &mem, w.cycle_limit * 1_000).unwrap();
            let image = hls_lang::MemImage {
                contents: w.mem_init.clone(),
            };
            let want = hls_lang::interp::run(&w.program, &inputs, &image, 10_000_000).unwrap();
            assert_eq!(
                out.outputs, want.outputs,
                "{mode} diverges from the golden model on (n={n}, margin={margin})"
            );
        }
    }
}

#[test]
fn shared_memory_serializes_port_access() {
    // No state may issue two accesses to the single-ported `A`, even
    // across the two loops' overlapping pipelines.
    let w = workloads::findmin_shared_mem().unwrap();
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_spec_depth = w.spec_depth;
    let r = schedule(
        &w.cdfg,
        &w.library,
        &w.allocation,
        &Default::default(),
        &cfg,
    )
    .unwrap();
    for sid in r.stg.reachable() {
        let accesses = r
            .stg
            .state(sid)
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    w.cdfg.op(r.stg.inst(o.dest).op).kind(),
                    cdfg::OpKind::MemRead(_) | cdfg::OpKind::MemWrite(_)
                )
            })
            .count();
        assert!(
            accesses <= 1,
            "state {sid} issues {accesses} accesses on one memory port"
        );
    }
}
