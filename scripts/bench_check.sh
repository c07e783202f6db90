#!/usr/bin/env bash
# Perf-regression gate: re-runs the scheduler and simulation benches
# into a scratch directory and compares every bench's median against
# the committed BENCH_schedulers.json and BENCH_simulation.json. Fails
# if any median regresses by more than 25% (override with
# SPEC_BENCH_CHECK_PCT), if a baseline bench disappeared from the
# fresh run, or if any scheduler bench's work counters (states, issues,
# folds, BDD nodes, heap allocations) differ from the committed ones at
# all. New benches (present only in the fresh run) are ignored —
# they gain a baseline when scripts/bench.sh refreshes the committed
# artifacts.
#
# Opt-in from the tier-1 gate: SPEC_BENCH_CHECK=1 scripts/verify.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

GROUPS_CHECKED="schedulers simulation"
THRESHOLD_PCT="${SPEC_BENCH_CHECK_PCT:-25}"

for group in $GROUPS_CHECKED; do
    if [ ! -f "BENCH_$group.json" ]; then
        echo "bench_check: no committed BENCH_$group.json to compare against"
        exit 1
    fi
done

export CARGO_NET_OFFLINE=true
export SPEC_BENCH_ITERS="${SPEC_BENCH_ITERS:-9}"
export SPEC_BENCH_WARMUP="${SPEC_BENCH_WARMUP:-2}"

FRESH_DIR="$(mktemp -d)"
trap 'rm -rf "$FRESH_DIR"' EXIT

echo "== bench_check (iters=$SPEC_BENCH_ITERS warmup=$SPEC_BENCH_WARMUP threshold=${THRESHOLD_PCT}%)"
for group in $GROUPS_CHECKED; do
    SPEC_BENCH_DIR="$FRESH_DIR" cargo bench -q --offline --bench "$group"
done

# The harness writes one bench per line, so "name median" pairs fall
# out of a single substitution.
medians() {
    sed -n 's/.*"name": "\([^"]*\)".*"median": \([0-9]*\).*/\1 \2/p' "$1"
}

fail=0
for group in $GROUPS_CHECKED; do
    baseline="BENCH_$group.json"
    fresh_json="$FRESH_DIR/BENCH_$group.json"

    # A format drift in the bench JSON would make the sed above extract
    # nothing — and a compare-loop over zero baselines vacuously passes.
    # Fail loudly instead of silently gating nothing.
    if [ -z "$(medians "$baseline")" ]; then
        echo "bench_check: FAILED — extracted zero medians from $baseline" \
            "(format drift? update the medians() parser)"
        exit 1
    fi
    if [ -z "$(medians "$fresh_json")" ]; then
        echo "bench_check: FAILED — extracted zero medians from the fresh $group run" \
            "(format drift? update the medians() parser)"
        exit 1
    fi

    while read -r name base; do
        fresh="$(medians "$fresh_json" | awk -v n="$name" '$1 == n {print $2}')"
        if [ -z "$fresh" ]; then
            echo "bench_check: MISSING   $group/$name (in baseline, absent from fresh run)"
            fail=1
        elif [ "$((fresh * 100))" -gt "$((base * (100 + THRESHOLD_PCT)))" ]; then
            echo "bench_check: REGRESSED $group/$name: median ${base} ns -> ${fresh} ns"
            fail=1
        else
            echo "bench_check: ok        $group/$name: median ${base} ns -> ${fresh} ns"
        fi
    done < <(medians "$baseline")
done

# Exact work counters: the states, issues, folds, BDD nodes and heap
# allocations of a schedule are deterministic, so every scheduler bench
# must reproduce the committed counts exactly — a difference is a
# schedule or hot-path change, not timer noise.
counters() {
    sed -n 's/.*"name": "\([^"]*\)".*"extra": {.*"states": \([0-9]*\).*"issues": \([0-9]*\).*"folds": \([0-9]*\).*"bdd_nodes": \([0-9]*\).*"allocs": \([0-9]*\).*/\1 \2 \3 \4 \5 \6/p' "$1"
}
base_counters="$(counters BENCH_schedulers.json)"
fresh_counters="$(counters "$FRESH_DIR/BENCH_schedulers.json")"
if [ -z "$base_counters" ] || [ -z "$fresh_counters" ]; then
    echo "bench_check: FAILED — extracted zero work counters from the schedulers" \
        "baseline or fresh run (format drift? update the counters() parser)"
    exit 1
fi
while read -r name _; do
    base="$(awk -v n="$name" '$1 == n {print $2, $3, $4, $5, $6}' <<<"$base_counters")"
    fresh="$(awk -v n="$name" '$1 == n {print $2, $3, $4, $5, $6}' <<<"$fresh_counters")"
    if [ -z "$base" ]; then
        echo "bench_check: NOCOUNT   schedulers/$name" \
            "(no states/issues/folds/bdd_nodes/allocs in the baseline)"
        fail=1
    elif [ "$fresh" != "$base" ]; then
        echo "bench_check: COUNTERS  schedulers/$name: states issues folds bdd_nodes allocs" \
            "$base -> ${fresh:-missing}"
        fail=1
    else
        echo "bench_check: ok        schedulers/$name: states issues folds bdd_nodes allocs $base"
    fi
done < <(medians BENCH_schedulers.json)

# Absolute spec/baseline ratio gate on the stress tier of the fresh
# scheduler run (the simulation group has no such tier): speculative scheduling does strictly more work per state than
# the baseline, but the incremental sweep must keep it within a
# constant factor — a superlinear grow phase shows up here as a ratio
# blowout long before the 25% self-regression gate trips. Override the
# bound with SPEC_STRESS_RATIO_MAX.
STRESS_RATIO_MAX="${SPEC_STRESS_RATIO_MAX:-5}"
while read -r wname spec base; do
    if [ "$spec" -gt "$((base * STRESS_RATIO_MAX))" ]; then
        echo "bench_check: RATIO     stress/$wname: spec ${spec} ns >" \
            "${STRESS_RATIO_MAX}x baseline ${base} ns"
        fail=1
    else
        echo "bench_check: ok        stress/$wname: spec/baseline" \
            "${spec}/${base} ns within ${STRESS_RATIO_MAX}x"
    fi
done < <(medians "$FRESH_DIR/BENCH_schedulers.json" |
    awk -F'[/ ]' '$1 == "stress" {
        if ($3 == "wavesched-spec") spec[$2] = $4
        else if ($3 == "wavesched") base[$2] = $4
    } END { for (w in spec) if (w in base) print w, spec[w], base[w] }')

if [ "$fail" -ne 0 ]; then
    echo "bench_check: FAILED (medians above are noisy on loaded machines;" \
        "rerun, or refresh the baseline via scripts/bench.sh if the change is intended)"
    exit 1
fi
echo "bench_check: OK"
