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

/// ROADMAP item 7's memory programs: a data-dependent scan of `M`
/// followed by the read `b = M[1]`, alone and behind two conditional
/// stores, scheduled in all three modes with the sweep differential's
/// allocation and uniform branch probabilities. The scan alone needs
/// more than 512 states in the speculative and single-path modes; the
/// conditional-store variants go `Stuck` in single-path mode, and the
/// one whose branch and store read `M` in the speculative mode too.
/// Until those are fixed, each run must either match the interpreter
/// on every trace vector or end in a structured [`SchedError`] — never
/// a panic, which `schedule` would report as `SchedError::Internal`.
#[test]
fn scan_then_read_schedules_or_errors_cleanly() {
    use hls_resources::{Allocation, FuClass, Library};
    use wavesched::SchedError;
    let scan = "while (j < x) { var u = M[j]; if (u < a) { a = u; } j = j + 1; } b = M[1];";
    let programs = [
        scan.to_string(),
        format!("if (a < 3) {{ M[b] = 6; }} else {{ b = x; }} {scan}"),
        format!("if (M[a] < 3) {{ M[b] = 6 + M[1]; }} else {{ b = x; }} {scan}"),
    ];
    let lib = Library::dac98();
    let alloc = Allocation::new()
        .with(FuClass::Adder, 2)
        .with(FuClass::Subtracter, 2)
        .with(FuClass::Comparator, 2)
        .with(FuClass::EqComparator, 2)
        .with(FuClass::Incrementer, 2)
        .with(FuClass::MemPort(cdfg::MemId::new(0)), 1);
    let cells = vec![5, 2, 7, 1, 6, 3, 0, 4];
    let mem: HashMap<String, Vec<i64>> = [("M".to_string(), cells)].into_iter().collect();
    let image = hls_lang::MemImage {
        contents: mem.clone(),
    };
    for body in &programs {
        let src = format!(
            "design scan {{ input x, y; output o; mem M[8];
              var a = x; var b = y; var j = 0;
              {body}
              o = a + b; }}"
        );
        let p = hls_lang::Program::parse(&src).unwrap();
        let g = hls_lang::lower::compile(&p).unwrap();
        for mode in [Mode::NonSpeculative, Mode::Speculative, Mode::SinglePath] {
            let mut cfg = SchedConfig::new(mode);
            cfg.max_states = 512;
            let r = match schedule(&g, &lib, &alloc, &Default::default(), &cfg) {
                Ok(r) => r,
                Err(SchedError::Internal { context }) => {
                    panic!("{mode}: internal error: {context}\n{src}")
                }
                Err(e) if mode == Mode::NonSpeculative => panic!("{mode}: {e}\n{src}"),
                Err(_) => continue,
            };
            let sim = hls_sim::StgSimulator::new(&g, &r.stg);
            for (x, y) in [(0, 0), (1, 4), (3, 2), (8, 7), (5, 1)] {
                let inputs = [("x", x), ("y", y)];
                let got = sim
                    .run(&inputs, &mem, 100_000)
                    .unwrap_or_else(|e| panic!("{mode} on ({x},{y}): {e}\n{src}"));
                let want = hls_lang::interp::run(&p, &inputs, &image, 1_000_000).unwrap();
                assert_eq!(got.outputs, want.outputs, "{mode} on ({x},{y})\n{src}");
            }
        }
    }
}
