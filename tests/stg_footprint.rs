//! Memory footprint of a scheduled STG. Fold edges relabel registers
//! (Example 10 of the paper), so most of a large speculative STG is
//! rename pairs: DspClip's speculative schedule holds 14,291 of them
//! over 125 distinct instances. The STG names every value by a `u32`
//! slot of its instance table, so those pairs cost 8 bytes each; storing
//! a full `OpInst` per mention would hold 3.1 MiB for this STG.

use spec_bench::TRACE_RUNS;
use wavesched::{schedule, Mode, SchedConfig};

#[test]
fn dspclip_spec_stg_names_instances_by_slot() {
    let w = workloads::dsp_clip().expect("bundled workload builds");
    let probs = hls_sim::profile(&w.cdfg, &w.vectors(TRACE_RUNS), &w.mem_init);
    let mut cfg = SchedConfig::new(Mode::Speculative);
    cfg.max_spec_depth = w.spec_depth;
    let r = schedule(&w.cdfg, &w.library, &w.allocation, &probs, &cfg).expect("schedules");
    let renames: usize = r
        .stg
        .states()
        .iter()
        .flat_map(|st| &st.transitions)
        .map(|t| t.renames.len())
        .sum();
    assert_eq!(
        (renames, r.stg.slot_count()),
        (14_291, 125),
        "the shipped schedule changed"
    );
    let bytes = r.stg.heap_bytes();
    assert!(bytes < 1 << 20, "the STG holds {bytes} heap bytes");
}
