//! Byte-identity oracle for the scheduler, the RTL binding and the
//! analytic E.N.C.: every named workload is scheduled in all three
//! modes, its STG is bound by `rtl_synth::synthesize` and solved by
//! `hls_sim::markov::expected_cycles`, and all three are compared against
//! a committed table of `(states, issues, folds, FxHash of
//! stg::render_text)`, `(registers, mux inputs, transitions, transfer
//! moves, per-class FU peaks)`, the E.N.C.'s `f64` bits and the run's
//! BDD node count. BDD nodes are allocated in resolution-call order, so
//! the count also changes when a scheduler change skips or reorders a
//! guard construction that happens not to alter the STG.
//!
//! Performance work on the scheduler or the Markov solver must leave
//! schedules byte for byte and E.N.C.s bit for bit the same, and a
//! planned BDD-order re-baselining will regenerate this
//! table once. On a mismatch the test names every differing
//! `(workload, mode)` pair and prints the table the current code
//! produces, so an intended re-baselining is a reviewed paste.
//!
//! The RTL columns pin today's binding, including the known
//! register-liveness defect: register allocation undoes a fold edge's
//! renames one pair at a time, so chained renames (`v@[2]→v@[1]` with
//! `v@[3]→v@[2]`) drop live values and under-count registers — Test1
//! wavesched-spec has 12 registers here, 17 under an atomic undo (see
//! ROADMAP). Fixing the defect re-baselines those rows once.
//!
//! Each pair runs the shipped configuration of the `table1` binary:
//! branch probabilities profiled over the workload's first
//! [`TRACE_RUNS`] trace vectors and the workload's own speculation depth.
//!
//! Triangle is not in the table: nested data-dependent loops do not
//! schedule yet (see `nested_loops_error_loudly_not_silently` in
//! `pipeline_benchmarks.rs`), so there is no STG to digest.

use spec_bench::TRACE_RUNS;
use spec_support::fxhash::hash_bytes;
use wavesched::{schedule, Mode, SchedConfig};

/// `(workload, mode, states, issues, folds, render_text hash,
/// registers, mux inputs, transitions, transfer moves, FU peaks, E.N.C.
/// bits, BDD nodes)`.
type Row<S> = (
    &'static str,
    S,
    usize,
    usize,
    usize,
    u64,
    usize,
    usize,
    usize,
    usize,
    S,
    Option<u64>,
    usize,
);

const WORKLOADS: &[&str] = &[
    "Barcode",
    "GCD",
    "Test1",
    "TLC",
    "Findmin",
    "Findmin64",
    "Findmin1024",
    "FindminTwoPass",
    "FindminSharedMem",
    "DspClip",
    "Fig4",
];

/// The schedule columns were generated from the scheduler before the
/// allocation-free hot path landed, the RTL columns from the binding
/// before it moved onto the shared slot plan, the E.N.C. column from
/// the dense Gaussian-elimination solver, and the BDD-node column from
/// the scheduler before its contexts moved to sorted vectors; every
/// later change must reproduce them.
#[rustfmt::skip]
const EXPECTED: &[Row<&str>] = &[
    ("Barcode", "wavesched", 46, 253, 35, 0xfba5420967e0af5d, 6, 24, 96, 158, "comp1=1 eqc1=1 inc1=2 port[mem0]=1", Some(0x4041a7fabd3483dc), 92),
    ("Barcode", "wavesched-spec", 65, 1106, 159, 0x192ecb1671ee0330, 23, 151, 247, 1150, "comp1=3 eqc1=1 inc1=3 port[mem0]=1", Some(0x4032737a583a1be8), 1391),
    ("Barcode", "single-path-spec", 46, 505, 91, 0x21b99f55fe346b63, 10, 50, 152, 389, "comp1=2 eqc1=1 inc1=3 port[mem0]=1", Some(0x4032df51a35eca51), 478),
    ("GCD", "wavesched", 24, 48, 7, 0x3c3d0c36b509b843, 2, 18, 34, 9, "comp1=1 eqc1=1 sub1=1", Some(0x403d5c28f5c28f5d), 41),
    ("GCD", "wavesched-spec", 7, 65, 9, 0x46d2c41719d0e504, 5, 32, 17, 29, "comp1=1 eqc1=1 sub1=2", Some(0x40263d70a3d70a3e), 271),
    ("GCD", "single-path-spec", 14, 57, 7, 0x8581541f184b4bbc, 4, 18, 24, 15, "comp1=1 eqc1=1 sub1=1", Some(0x402e51eb851eb856), 149),
    ("Test1", "wavesched", 21, 22, 1, 0xfc108f00864d2c54, 2, 11, 24, 3, "add1=1 comp1=1 inc1=1 mult1=1 port[mem0]=1 port[mem1]=1", Some(0x407ee51eb851eb6c), 13),
    ("Test1", "wavesched-spec", 11, 45, 2, 0x85bf541fa0f4afca, 12, 31, 14, 25, "add1=1 comp1=1 inc1=1 mult1=2 port[mem0]=1 port[mem1]=1", Some(0x40515c6b80825bf7), 103),
    ("Test1", "single-path-spec", 12, 43, 1, 0x89272ce0e45077a7, 9, 31, 15, 21, "add1=1 comp1=1 inc1=1 mult1=2 port[mem0]=1 port[mem1]=1", Some(0x40515c6b80825bf7), 103),
    ("TLC", "wavesched", 89, 439, 88, 0xad7a7ad145e09f92, 4, 21, 205, 224, "comp1=1 eqc1=1 inc1=1 logic=1", Some(0x40695faee41e6a1b), 80),
    ("TLC", "wavesched-spec", 274, 2784, 396, 0xa9fe3484311a32d8, 30, 87, 698, 3896, "comp1=1 eqc1=1 inc1=1 logic=4", Some(0x406944d9d78b6f75), 499),
    ("TLC", "single-path-spec", 178, 1232, 242, 0x2a6084f33faa1361, 14, 33, 444, 1452, "comp1=1 eqc1=1 inc1=1 logic=1", Some(0x40694717eafc093f), 253),
    ("Findmin", "wavesched", 28, 118, 6, 0x2e270f9b380edf38, 5, 14, 44, 20, "comp1=2 inc1=1 port[mem0]=1", Some(0x4030d70a3d70a3d9), 30),
    ("Findmin", "wavesched-spec", 14, 124, 21, 0x275f180bdb311311, 16, 26, 36, 154, "comp1=2 inc1=1 port[mem0]=1", Some(0x40249a3b7e810ede), 262),
    ("Findmin", "single-path-spec", 25, 168, 28, 0x74702d0c7fd47add, 8, 29, 59, 104, "comp1=2 inc1=1 port[mem0]=1", Some(0x40249a3b7e810ede), 174),
    ("Findmin64", "wavesched", 28, 118, 6, 0xfd9c2fd3ae18bc00, 5, 14, 44, 20, "comp1=2 inc1=1 port[mem0]=1", Some(0x4040f5c28f5c28fb), 30),
    ("Findmin64", "wavesched-spec", 14, 124, 21, 0x7a1389b844e624a0, 16, 26, 36, 154, "comp1=2 inc1=1 port[mem0]=1", Some(0x4032e6aa68b7ef06), 262),
    ("Findmin64", "single-path-spec", 25, 168, 28, 0xafe2f8d26261cc13, 8, 29, 59, 104, "comp1=2 inc1=1 port[mem0]=1", Some(0x4032e6aa68b7ef08), 174),
    ("Findmin1024", "wavesched", 28, 118, 6, 0x4ddee77a64e51457, 5, 14, 44, 20, "comp1=2 inc1=1 port[mem0]=1", Some(0x40413851eb851ec2), 30),
    ("Findmin1024", "wavesched-spec", 14, 124, 21, 0x5225d9427d981e1b, 16, 26, 36, 154, "comp1=2 inc1=1 port[mem0]=1", Some(0x403329741ce0666a), 262),
    ("Findmin1024", "single-path-spec", 25, 168, 28, 0x2fcd451bddd6ec71, 8, 29, 59, 104, "comp1=2 inc1=1 port[mem0]=1", Some(0x403329741ce0666b), 174),
    ("FindminTwoPass", "wavesched", 168, 632, 79, 0x3eb088bc72ddcfa6, 9, 42, 278, 120, "add1=1 comp1=2 inc1=1 port[mem0]=1 port[mem1]=1", Some(0x403da2d54c265edc), 80),
    ("FindminTwoPass", "wavesched-spec", 641, 4612, 1045, 0x7e682e0d5bdee15c, 25, 107, 1993, 1946, "add1=1 comp1=2 inc1=1 port[mem0]=1 port[mem1]=1", Some(0x4033b5eb6dee2036), 701),
    ("FindminTwoPass", "single-path-spec", 391, 1976, 407, 0xc9beb503cc31cb0d, 18, 73, 865, 770, "add1=1 comp1=2 inc1=1 port[mem0]=1 port[mem1]=1", Some(0x40349277130a4f77), 485),
    ("FindminSharedMem", "wavesched", 168, 672, 79, 0x86f878fd4e9b8cd3, 9, 42, 278, 120, "add1=1 comp1=2 inc1=1 port[mem0]=1", Some(0x403c985b9ad7c7e5), 83),
    ("FindminSharedMem", "wavesched-spec", 354, 3129, 454, 0x238d87b18bee4fd7, 23, 110, 849, 1908, "add1=1 comp1=2 inc1=1 port[mem0]=1", Some(0x40341ecb915ab77d), 768),
    ("FindminSharedMem", "single-path-spec", 1474, 7873, 1626, 0x5ea87f4c8dbb61d1, 22, 102, 3571, 2732, "add1=1 comp1=2 inc1=1 port[mem0]=1", Some(0x40350f8889f9c156), 676),
    ("DspClip", "wavesched", 62, 277, 45, 0x5fa9964f36e4b4d4, 6, 25, 128, 117, "add1=1 comp1=2 inc1=1 port[mem0]=1 port[mem1]=1", Some(0x402a030010b2732d), 80),
    ("DspClip", "wavesched-spec", 842, 4919, 1258, 0x1b5cb5153c9ed75f, 20, 101, 2150, 14291, "add1=1 comp1=2 inc1=1 port[mem0]=1 port[mem1]=1", Some(0x40239ceec44bfd46), 717),
    ("DspClip", "single-path-spec", 837, 4498, 1252, 0x55c609d323ff1a78, 15, 70, 2140, 11359, "add1=1 comp1=2 inc1=1 port[mem0]=1 port[mem1]=1", Some(0x40239ceec44bfd46), 430),
    ("Fig4", "wavesched", 8, 12, 0, 0x8c80b40678033b46, 1, 3, 9, 0, "add1=1 comp1=1 inc1=1 mult1=1 shift1=1", Some(0x4014000000000000), 2),
    ("Fig4", "wavesched-spec", 5, 12, 0, 0x2fa4ca8fdd06a134, 2, 3, 6, 0, "add1=1 comp1=1 inc1=1 mult1=1 shift1=1", Some(0x400a3d70a3d70a3e), 2),
    ("Fig4", "single-path-spec", 6, 12, 0, 0x3588e8a2bf0bdace, 2, 3, 7, 0, "add1=1 comp1=1 inc1=1 mult1=1 shift1=1", Some(0x400c7ae147ae147b), 2),
];

fn digest(name: &'static str, mode: Mode) -> Row<String> {
    let w = workloads::by_name(name).expect("bundled workload builds");
    let probs = hls_sim::profile(&w.cdfg, &w.vectors(TRACE_RUNS), &w.mem_init);
    let mut cfg = SchedConfig::new(mode);
    cfg.max_spec_depth = w.spec_depth;
    let r = schedule(&w.cdfg, &w.library, &w.allocation, &probs, &cfg)
        .unwrap_or_else(|e| panic!("{name} / {mode}: {e}"));
    let text = stg::render_text(&r.stg, &w.cdfg);
    let rtl = rtl_synth::synthesize(&w.cdfg, &r.stg);
    let fus: Vec<String> = rtl
        .fus
        .iter()
        .map(|(class, (_, n))| format!("{class}={n}"))
        .collect();
    (
        name,
        mode.to_string(),
        r.stg.working_state_count(),
        r.stats.issues,
        r.stats.folds,
        hash_bytes(text.as_bytes()),
        rtl.registers,
        rtl.mux_inputs,
        rtl.transitions,
        rtl.transfer_moves,
        fus.join(" "),
        hls_sim::markov::expected_cycles(&r.stg, &probs).map(f64::to_bits),
        r.stats.bdd_nodes,
    )
}

/// One table row as committed source text.
fn render<S: std::fmt::Display>(d: &Row<S>) -> String {
    let enc = match d.11 {
        Some(bits) => format!("Some({bits:#018x})"),
        None => "None".to_string(),
    };
    format!(
        "    (\"{}\", \"{}\", {}, {}, {}, {:#018x}, {}, {}, {}, {}, \"{}\", {enc}, {}),",
        d.0, d.1, d.2, d.3, d.4, d.5, d.6, d.7, d.8, d.9, d.10, d.12
    )
}

fn check(mode: Mode) {
    let got: Vec<Row<String>> = WORKLOADS.iter().map(|&w| digest(w, mode)).collect();
    let table: Vec<String> = got.iter().map(render).collect();
    let mut mismatches = Vec::new();
    for (d, row) in got.iter().zip(&table) {
        let want = EXPECTED
            .iter()
            .find(|e| e.0 == d.0 && e.1 == d.1)
            .map(render);
        if want.as_ref() != Some(row) {
            mismatches.push(format!("{} / {}: expected {want:?}, got {row:?}", d.0, d.1));
        }
    }
    assert!(
        mismatches.is_empty(),
        "STG digests changed:\n  {}\ncurrent table rows for {mode}:\n{}",
        mismatches.join("\n  "),
        table.join("\n")
    );
}

#[test]
fn wavesched_stgs_match_committed_digests() {
    check(Mode::NonSpeculative);
}

#[test]
fn wavesched_spec_stgs_match_committed_digests() {
    check(Mode::Speculative);
}

#[test]
fn single_path_stgs_match_committed_digests() {
    check(Mode::SinglePath);
}
