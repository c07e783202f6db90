//! Byte-identity oracle for the scheduler: every named workload is
//! scheduled in all three modes and its STG is compared against a
//! committed table of `(states, issues, folds, FxHash of
//! stg::render_text)`.
//!
//! Performance work on the scheduler must leave schedules byte for byte
//! the same, and a planned BDD-order re-baselining will regenerate this
//! table once. On a mismatch the test names every differing
//! `(workload, mode)` pair and prints the table the current code
//! produces, so an intended re-baselining is a reviewed paste.
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

/// `(workload, mode, states, issues, folds, render_text hash)`.
type Digest = (&'static str, String, usize, usize, usize, u64);

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

/// Generated from the scheduler before the allocation-free hot path
/// landed; every later change must reproduce it.
#[rustfmt::skip]
const EXPECTED: &[(&str, &str, usize, usize, usize, u64)] = &[
    ("Barcode", "wavesched", 46, 253, 35, 0xfba5420967e0af5d),
    ("Barcode", "wavesched-spec", 65, 1106, 159, 0x192ecb1671ee0330),
    ("Barcode", "single-path-spec", 46, 505, 91, 0x21b99f55fe346b63),
    ("GCD", "wavesched", 24, 48, 7, 0x3c3d0c36b509b843),
    ("GCD", "wavesched-spec", 7, 65, 9, 0x46d2c41719d0e504),
    ("GCD", "single-path-spec", 14, 57, 7, 0x8581541f184b4bbc),
    ("Test1", "wavesched", 21, 22, 1, 0xfc108f00864d2c54),
    ("Test1", "wavesched-spec", 11, 45, 2, 0x85bf541fa0f4afca),
    ("Test1", "single-path-spec", 12, 43, 1, 0x89272ce0e45077a7),
    ("TLC", "wavesched", 89, 439, 88, 0xad7a7ad145e09f92),
    ("TLC", "wavesched-spec", 274, 2784, 396, 0xa9fe3484311a32d8),
    ("TLC", "single-path-spec", 178, 1232, 242, 0x2a6084f33faa1361),
    ("Findmin", "wavesched", 28, 118, 6, 0x2e270f9b380edf38),
    ("Findmin", "wavesched-spec", 14, 124, 21, 0x275f180bdb311311),
    ("Findmin", "single-path-spec", 25, 168, 28, 0x74702d0c7fd47add),
    ("Findmin64", "wavesched", 28, 118, 6, 0xfd9c2fd3ae18bc00),
    ("Findmin64", "wavesched-spec", 14, 124, 21, 0x7a1389b844e624a0),
    ("Findmin64", "single-path-spec", 25, 168, 28, 0xafe2f8d26261cc13),
    ("Findmin1024", "wavesched", 28, 118, 6, 0x4ddee77a64e51457),
    ("Findmin1024", "wavesched-spec", 14, 124, 21, 0x5225d9427d981e1b),
    ("Findmin1024", "single-path-spec", 25, 168, 28, 0x2fcd451bddd6ec71),
    ("FindminTwoPass", "wavesched", 168, 632, 79, 0x3eb088bc72ddcfa6),
    ("FindminTwoPass", "wavesched-spec", 641, 4612, 1045, 0x7e682e0d5bdee15c),
    ("FindminTwoPass", "single-path-spec", 391, 1976, 407, 0xc9beb503cc31cb0d),
    ("FindminSharedMem", "wavesched", 168, 672, 79, 0x86f878fd4e9b8cd3),
    ("FindminSharedMem", "wavesched-spec", 354, 3129, 454, 0x238d87b18bee4fd7),
    ("FindminSharedMem", "single-path-spec", 1474, 7873, 1626, 0x5ea87f4c8dbb61d1),
    ("DspClip", "wavesched", 62, 277, 45, 0x5fa9964f36e4b4d4),
    ("DspClip", "wavesched-spec", 842, 4919, 1258, 0x1b5cb5153c9ed75f),
    ("DspClip", "single-path-spec", 837, 4498, 1252, 0x55c609d323ff1a78),
    ("Fig4", "wavesched", 8, 12, 0, 0x8c80b40678033b46),
    ("Fig4", "wavesched-spec", 5, 12, 0, 0x2fa4ca8fdd06a134),
    ("Fig4", "single-path-spec", 6, 12, 0, 0x3588e8a2bf0bdace),
];

fn digest(name: &'static str, mode: Mode) -> Digest {
    let w = workloads::by_name(name).expect("bundled workload builds");
    let probs = hls_sim::profile(&w.cdfg, &w.vectors(TRACE_RUNS), &w.mem_init);
    let mut cfg = SchedConfig::new(mode);
    cfg.max_spec_depth = w.spec_depth;
    let r = schedule(&w.cdfg, &w.library, &w.allocation, &probs, &cfg)
        .unwrap_or_else(|e| panic!("{name} / {mode}: {e}"));
    let text = stg::render_text(&r.stg, &w.cdfg);
    (
        name,
        mode.to_string(),
        r.stg.working_state_count(),
        r.stats.issues,
        r.stats.folds,
        hash_bytes(text.as_bytes()),
    )
}

fn check(mode: Mode) {
    let got: Vec<Digest> = WORKLOADS.iter().map(|&w| digest(w, mode)).collect();
    let mut mismatches = Vec::new();
    for d in &got {
        let want = EXPECTED
            .iter()
            .find(|e| e.0 == d.0 && e.1 == d.1)
            .map(|e| (e.2, e.3, e.4, e.5));
        if want != Some((d.2, d.3, d.4, d.5)) {
            mismatches.push(format!(
                "{} / {}: expected {want:?}, got {:?}",
                d.0,
                d.1,
                (d.2, d.3, d.4, d.5)
            ));
        }
    }
    let table: Vec<String> = got
        .iter()
        .map(|d| {
            format!(
                "    (\"{}\", \"{}\", {}, {}, {}, {:#018x}),",
                d.0, d.1, d.2, d.3, d.4, d.5
            )
        })
        .collect();
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
