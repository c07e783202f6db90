#!/usr/bin/env bash
# Exact work-counter gate: compares the deterministic counters of every
# scheduler bench in BASELINE (states, issues, folds, BDD nodes, heap
# allocations, STG heap bytes, generator calls, gc pair visits and
# swept-window builds) against FRESH. These never depend on the box or
# the iteration count, so any difference is a schedule or hot-path
# change, not timer noise; a bench in BASELINE that lacks a counter, or
# is absent from FRESH, fails too. A moved counter prints by name, as
# `gen_calls 874 → 872 (−2)`.
#
# Usage: scripts/bench_counters.sh BASELINE FRESH
#   e.g. scripts/bench_counters.sh BENCH_schedulers.json \
#            target/spec-bench/BENCH_schedulers.json
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 BASELINE FRESH" >&2
    exit 2
fi
BASELINE="$1"
FRESH="$2"

COUNTER_KEYS="states issues folds bdd_nodes allocs stg_bytes gen_calls gc_visits window_builds"

# The bench harness writes one bench per line. Prints the name of every
# bench in the file.
names() {
    sed -n 's/.*"name": "\([^"]*\)".*/\1/p' "$1"
}

# Prints "name count…" in COUNTER_KEYS order for each bench whose
# `extra` has every key.
counters() {
    awk -v keys="$COUNTER_KEYS" '
        match($0, /"name": "[^"]*"/) && index($0, "\"extra\": {") {
            out = substr($0, RSTART + 9, RLENGTH - 10)
            extra = substr($0, index($0, "\"extra\": {"))
            n = split(keys, k, " ")
            for (i = 1; i <= n; i++) {
                if (!match(extra, "\"" k[i] "\": [0-9]+")) next
                out = out " " substr(extra, RSTART + length(k[i]) + 4, RLENGTH - length(k[i]) - 4)
            }
            print out
        }' "$1"
}

base_counters="$(counters "$BASELINE")"
fresh_counters="$(counters "$FRESH")"
# A format drift in the bench JSON would make the parser extract
# nothing, and a compare loop over zero entries vacuously passes.
if [ -z "$base_counters" ] || [ -z "$fresh_counters" ]; then
    echo "bench_counters: FAILED — extracted zero work counters from $BASELINE" \
        "or $FRESH (format drift? update the counters() parser)"
    exit 1
fi

# Prints each counter that differs between the count lists $1 (baseline)
# and $2 (fresh), both in COUNTER_KEYS order, as "key base → fresh
# (±delta)", comma-separated.
moved() {
    local -a keys base fresh out=()
    read -ra keys <<<"$COUNTER_KEYS"
    read -ra base <<<"$1"
    read -ra fresh <<<"$2"
    local i d
    for i in "${!keys[@]}"; do
        if [ "${base[i]}" != "${fresh[i]}" ]; then
            d=$((fresh[i] - base[i]))
            if [ "$d" -lt 0 ]; then d="−${d#-}"; else d="+$d"; fi
            out+=("${keys[i]} ${base[i]} → ${fresh[i]} ($d)")
        fi
    done
    local joined
    joined="$(printf '%s, ' "${out[@]}")"
    echo "${joined%, }"
}

fail=0
while read -r name; do
    base="$(awk -v n="$name" '$1 == n {$1 = ""; print substr($0, 2)}' <<<"$base_counters")"
    fresh="$(awk -v n="$name" '$1 == n {$1 = ""; print substr($0, 2)}' <<<"$fresh_counters")"
    if [ -z "$base" ]; then
        echo "bench_counters: NOCOUNT   $name (not every one of $COUNTER_KEYS in the baseline)"
        fail=1
    elif [ -z "$fresh" ]; then
        echo "bench_counters: MISSING   $name (absent from $FRESH, or lacks one of $COUNTER_KEYS)"
        fail=1
    elif [ "$fresh" != "$base" ]; then
        echo "bench_counters: COUNTERS  $name: $(moved "$base" "$fresh")"
        fail=1
    else
        echo "bench_counters: ok        $name: $COUNTER_KEYS $base"
    fi
done < <(names "$BASELINE")

if [ "$fail" -ne 0 ]; then
    echo "bench_counters: FAILED (a counter change is a schedule or hot-path change:" \
        "if it is intended, re-record the moved counters in $BASELINE)"
    exit 1
fi
echo "bench_counters: OK"
