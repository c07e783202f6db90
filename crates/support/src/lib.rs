//! `spec-support` — the repository's reproducibility substrate.
//!
//! This crate exists so the workspace builds **hermetically**: no
//! registry dependencies, no network, no vendored crates. It replaces
//! the three external crates the seed declared but could never fetch:
//!
//! * [`rng`] replaces `rand` — a seedable SplitMix64 + xoshiro256\*\*
//!   PRNG stack with uniform, range and Bernoulli sampling. Every
//!   sample is a pure function of the seed, so simulation traces rerun
//!   byte-identically.
//! * [`proptest_lite`] replaces `proptest` — seeded property-based
//!   testing with combinator generators, configurable case counts
//!   (`SPEC_PROPTEST_CASES`), failing-seed reporting, and bounded
//!   shrinking for integer and vector generators.
//! * [`mod@bench`] replaces `criterion` — a wall-clock micro-bench harness
//!   (warmup + N timed iterations, median/p95) that emits
//!   machine-readable `BENCH_*.json` files for perf trajectories.
//!
//! One further module serves the workspace's hot paths rather than its
//! test infrastructure:
//!
//! * [`fxhash`] — the rustc multiply-xor hasher with `FxHashMap`/
//!   `FxHashSet` aliases, for in-process keys where SipHash's DoS
//!   resistance buys nothing (BDD hash-consing, memo caches,
//!   instance tables) and a two-lane 128-bit stream hash that keys the
//!   scheduler's fold index on a state signature's token stream.
//!   Unseeded and platform-stable, with committed reference vectors.
//!
//! Determinism is not just an infrastructure concern here: the paper's
//! Table 1 / Fig. 13 cycle counts come from simulated input traces, so
//! the reproduction's numbers must be replayable from a seed alone.

pub mod bench;
pub mod fxhash;
pub mod proptest_lite;
pub mod rng;
