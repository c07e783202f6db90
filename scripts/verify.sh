#!/usr/bin/env bash
# Tier-1 verification, run exactly as the build environment does: no
# network, no registry. A regression back to registry dependencies
# (rand/proptest/criterion/...) fails here at dependency *resolution*,
# before a single crate compiles — which is the point: offline
# buildability is itself an invariant of this repo (see DESIGN.md,
# "Zero external dependencies").
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt not installed; skipping format check"
fi

echo "== cargo build --release --offline --locked"
# `--locked` fails instead of silently rewriting a committed lockfile
# when a manifest changes.
cargo build --release --offline --locked

echo "== determinism (all eight paper binaries twice each, byte-identical)"
# Seeded experiments must rerun byte-identically (the determinism
# doctrine of DESIGN.md section 7); all sixteen runs take well under a
# second.
det_dir="$(mktemp -d)"
trap 'rm -rf "$det_dir"' EXIT
for bin in table1 fig6 area ablation fig2 fig3 fig5 fig7; do
    "target/release/$bin" > "$det_dir/$bin.1"
    "target/release/$bin" > "$det_dir/$bin.2"
    cmp "$det_dir/$bin.1" "$det_dir/$bin.2" \
        || { echo "$bin output differs between two runs"; exit 1; }
done

echo "== cargo test -q --offline (wall-clock capped)"
# Failure containment must extend to the harness itself: a livelocked
# scheduler (the class of bug the budget/cancellation machinery exists
# for) should fail the gate in bounded time, not hang it. The cap is
# generous — the full suite runs in a few minutes.
SPEC_TEST_TIMEOUT="${SPEC_TEST_TIMEOUT:-1800}"
if command -v timeout >/dev/null 2>&1; then
    timeout --signal=KILL "$SPEC_TEST_TIMEOUT" cargo test -q --offline \
        || { echo "tests failed or exceeded ${SPEC_TEST_TIMEOUT}s"; exit 1; }
else
    cargo test -q --offline
fi

echo "== fault-injection smoke (SPEC_FAULT_CASES=24)"
# The full 256-case property already ran inside `cargo test`; this gate
# re-runs a small sweep explicitly so a future edit that deletes or
# skips the property is caught here, not silently.
SPEC_FAULT_CASES=24 cargo test -q --offline -p integration --test fault_injection

echo "== incremental-sweep differential (SPEC_PROPTEST_CASES=256, release, debug assertions)"
# The pair-granular sweep events must stay a superset of what each
# event can change: four times the default case count, against the
# regenerate-everything reference and its every-fixpoint audit. Debug
# assertions stay on so the carried sweep window is checked against a
# rebuild at every use over the large case set too; the build gets its
# own target directory so it does not replace the release build above.
# `cargo test` exits 0 when its name filter selects nothing, so a moved
# or renamed test would skip this step silently: require a passed test.
diff_log="$det_dir/sweep_differential.log"
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true CARGO_TARGET_DIR=target/checked \
    SPEC_PROPTEST_CASES=256 cargo test -q --release --offline -p wavesched --lib \
    incremental_sweep_matches_reference 2>&1 | tee "$diff_log"
grep -Eq "test result: ok\. [1-9][0-9]* passed" "$diff_log" \
    || { echo "the sweep differential filter selected no test"; exit 1; }

echo "== benchmark package tests"
# `benchmark/` is its own cargo package (path deps on `crates/*`), so the
# workspace test run above never compiles it.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

echo "== cargo clippy --offline --all-targets -- -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --offline --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint check"
fi

echo "== rustdoc (-D warnings, private items included)"
# Broken or ambiguous intra-doc links fail here, e.g. a link left
# pointing at a deleted module. Private items are documented too: most
# of the scheduler core's docs sit on crate-private items.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --document-private-items

echo "== bench smoke (1 iteration per entry)"
for target in substrates schedulers simulation; do
    SPEC_BENCH_ITERS=1 SPEC_BENCH_WARMUP=0 \
        cargo bench -q --offline --bench "$target"
done

echo "== scheduler work counters (exact, against the committed BENCH_schedulers.json)"
# The counters do not depend on the box or the iteration count, so the
# 1-iteration smoke reproduces them; only the timing gate stays opt-in.
scripts/bench_counters.sh BENCH_schedulers.json target/spec-bench/BENCH_schedulers.json

# Opt-in perf-regression gate (off by default: CI container timings are
# too noisy to hard-fail every run on).
if [ "${SPEC_BENCH_CHECK:-0}" = "1" ]; then
    echo "== bench_check (SPEC_BENCH_CHECK=1)"
    scripts/bench_check.sh
fi

echo "verify: OK"
