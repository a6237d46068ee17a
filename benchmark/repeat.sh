#!/usr/bin/env bash
# A/A: runs the full benchmark (untraced and traced, every workload) as two
# interleaved sets of N runs (A B A B ...) on the same checkout with the same
# seed, then prints, per workload and metric, the relative difference of the
# two sets' medians against the bound.  Fails if any end-to-end median
# differs by more than its bound, or if any exact count (pairs emitted, disk
# overhead, entries fetched, container mix, WAL bytes) is not bit-identical
# in every run.  The report is kept as benchmark/out/aa_report.txt.
#
# On a machine whose speed wanders (see README "Steadiness") single runs can
# differ by more than any bound, which is why a set is several runs.
#
#   benchmark/repeat.sh [--sets N] [--seed N] [--seconds S]      (N defaults to 3)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

sets=3
if [[ "${1:-}" == --sets ]]; then
    sets="$2"
    shift 2
fi
out=benchmark/out
mkdir -p "$out"
rm -f "$out"/run_{a,b}.tsv "$out"/run_{a,b}.log
for ((i = 1; i <= sets; i++)); do
    for side in a b; do
        echo "A/A set $side, run $i of $sets ..." >&2
        benchmark/run.sh --trace 1 --tsv "$out/run_$side.tsv" "$@" >>"$out/run_$side.log"
    done
done
benchmark/run.sh --compare "$out/run_a.tsv" "$out/run_b.tsv" | tee "$out/aa_report.txt"
exit "${PIPESTATUS[0]}"
