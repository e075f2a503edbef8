#!/usr/bin/env bash
# Perf gate: perfbench `compare` of this checkout against a base checkout.
#
#   benchmarks/perf_gate.sh BASE_DIR [WORKLOAD...]
#
# Run from the root of the changed checkout.  For each workload (default:
# families elementwise) it runs 10 alternating base/change pairs of
# `perfbench/harness.py compare`.  It fails when compare exits non-zero,
# when a run is not correct, or when any end-to-end metric's verdict is
# `regression` (worse than the base median by more than the metric's
# bound in BENCHMARK.json).
set -uo pipefail

base=${1:?usage: perf_gate.sh BASE_DIR [WORKLOAD...]}
shift
workloads=("$@")
[ ${#workloads[@]} -eq 0 ] && workloads=(families elementwise)

status=0
for workload in "${workloads[@]}"; do
    out=$(mktemp)
    python3 perfbench/harness.py compare --base "$base" --change . \
        --workload "$workload" --pairs 10 | tee "$out"
    if [ "${PIPESTATUS[0]}" -ne 0 ]; then
        echo "perf gate: compare failed on $workload" >&2
        status=1
    fi
    if grep -q '^pair [0-9]*: .* run is not correct$' "$out"; then
        echo "perf gate: an incorrect run on $workload" >&2
        status=1
    fi
    if grep -q ' regression$' "$out"; then
        echo "perf gate: regression on $workload" >&2
        status=1
    fi
    rm -f "$out"
done
exit $status
