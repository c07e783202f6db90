//! Identity oracle for the behavioral golden model: every named workload
//! is interpreted on its first [`TRACE_RUNS`] trace vectors and the
//! results are compared against a committed table of `(FxHash of the
//! outputs, FxHash of the memories sorted by name, total steps)`.
//!
//! `hls_sim::measure` checks every simulated trace against
//! `hls_lang::interp::run`, and `steps` feeds the benchmark's
//! `cycles_per_step` metric, so a change to the interpreter must leave
//! every value here the same. On a mismatch the test names every
//! differing workload and prints the table the current code produces.
//!
//! Triangle is included: its nested loops do not schedule yet, but the
//! interpreter runs it like any other design.

use spec_bench::TRACE_RUNS;
use spec_support::fxhash::FxHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// `(workload, outputs hash, memories hash, total steps)`.
type Digest = (&'static str, u64, u64, u64);

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
    "Triangle",
    "DspClip",
    "Fig4",
];

/// Generated from the `HashMap` scope-chain interpreter, before the
/// golden model was compiled to slots; every later change must
/// reproduce it.
#[rustfmt::skip]
const EXPECTED: &[Digest] = &[
    ("Barcode", 0xf887e50753c4cb19, 0xe4898ba5f7727741, 5806),
    ("GCD", 0xa26f7262abb4dfed, 0x0000000000000000, 1618),
    ("Test1", 0x2956cb850ff21f7b, 0xf46fde27f0f135ff, 12558),
    ("TLC", 0x6267eb6477616101, 0x0000000000000000, 36994),
    ("Findmin", 0xfedacd146d5a727b, 0x301d20d5ddc9b4ef, 2094),
    ("Findmin64", 0x5e18333c5b52a2dc, 0x30832c5b88d26008, 3626),
    ("Findmin1024", 0x02b569bc55c2c142, 0x12657c7dd636d210, 3682),
    ("FindminTwoPass", 0x089d0f0d1de78ba6, 0xbee985b905163799, 3654),
    ("FindminSharedMem", 0x4e006eebfe72d877, 0x301d20d5ddc9b4ef, 3527),
    ("Triangle", 0xa1c619f92e0c8afa, 0x0000000000000000, 2090),
    ("DspClip", 0x15dd0b7fd2acce37, 0x3f29592d0e2d4a44, 2207),
    ("Fig4", 0x6b16e655a55cc876, 0x0000000000000000, 250),
];

fn digest(name: &'static str) -> Digest {
    let w = workloads::by_name(name).expect("bundled workload builds");
    let image = hls_lang::MemImage {
        contents: w.mem_init.clone(),
    };
    let mut outputs = FxHasher::default();
    let mut mems = FxHasher::default();
    let mut steps = 0u64;
    for vector in w.vectors(TRACE_RUNS) {
        let inputs: Vec<(&str, i64)> = vector.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let o = hls_lang::interp::run(&w.program, &inputs, &image, 10_000_000)
            .unwrap_or_else(|e| panic!("{name} on {vector:?}: {e}"));
        o.outputs.hash(&mut outputs);
        o.mems.iter().collect::<BTreeMap<_, _>>().hash(&mut mems);
        steps += o.steps;
    }
    (name, outputs.finish(), mems.finish(), steps)
}

#[test]
fn golden_results_match_committed_digests() {
    let got: Vec<Digest> = WORKLOADS.iter().map(|&w| digest(w)).collect();
    let mismatches: Vec<String> = got
        .iter()
        .filter(|d| EXPECTED.iter().find(|e| e.0 == d.0) != Some(*d))
        .map(|d| {
            let want = EXPECTED.iter().find(|e| e.0 == d.0);
            format!("{}: expected {want:?}, got {d:?}", d.0)
        })
        .collect();
    let table: Vec<String> = got
        .iter()
        .map(|d| format!("    (\"{}\", {:#018x}, {:#018x}, {}),", d.0, d.1, d.2, d.3))
        .collect();
    assert!(
        mismatches.is_empty(),
        "golden digests changed:\n  {}\ncurrent table:\n{}",
        mismatches.join("\n  "),
        table.join("\n")
    );
}
