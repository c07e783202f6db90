//! Regenerates Fig. 3 of the paper: the unrolled steady-state operation
//! of the speculative Test1 schedule over five consecutive cycles,
//! showing one loop iteration speculatively initiated per clock cycle
//! (the "iteration threads").

use spec_bench::run_workload;
use std::collections::BTreeSet;
use wavesched::Mode;

fn main() {
    let w = workloads::test1().unwrap();
    let r = run_workload(&w, Mode::Speculative, 10);
    let stg = &r.sched.stg;

    // Find the steady cycle: walk the all-continue path (always take the
    // transition whose `when` literals are all true) until a state
    // repeats, then print the cycle.
    let mut seen = BTreeSet::new();
    let mut sid = stg.start();
    let mut path = Vec::new();
    while seen.insert(sid) {
        path.push(sid);
        let st = stg.state(sid);
        let next = st
            .transitions
            .iter()
            .find(|t| t.when.iter().all(|(_, v)| *v))
            .or_else(|| st.transitions.first());
        match next {
            Some(t) if t.target != stg.stop() => sid = t.target,
            _ => break,
        }
    }
    let cycle_start = path.iter().position(|&s| s == sid).unwrap_or(0);

    println!("Fig. 3 — steady-state operation of the speculative Test1 schedule");
    println!(
        "(all-continue path; {} fill states, then the steady cycle)\n",
        cycle_start
    );
    println!("five consecutive steady-state cycles:");
    let cycle: Vec<_> = path[cycle_start..].to_vec();
    for i in 0..5 {
        let s = cycle[i % cycle.len()];
        let ops = stg
            .state(s)
            .ops
            .iter()
            .map(|o| {
                let inst = stg.inst(o.dest);
                let mut name = w.cdfg.op(inst.op).name().to_string();
                for ix in &inst.iter {
                    name.push('_');
                    name.push_str(&ix.to_string());
                }
                name
            })
            .collect::<Vec<_>>()
            .join("  ");
        println!("  cycle {i}: [{s}] {ops}");
    }
    println!("\nEach cycle initiates a new loop iteration (a new `M1r`/`++1` instance)");
    println!("while older iterations' multiplies and stores drain — the paper's");
    println!("iteration threads.");
}
