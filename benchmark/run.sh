#!/usr/bin/env bash
# The benchmark of record: builds the benchmark package and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one measurement (the form BENCHMARK.json's driver uses); the last
#       line of standard output is the result as JSON
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--tsv FILE]
#       every workload in turn, each in its own process (peak memory is
#       per process); --trace 1 adds the traced run of each
#   benchmark/run.sh --compare A.tsv B.tsv
#       compare two --tsv files of the same code and seed (see repeat.sh)
#   benchmark/run.sh --spread RUNS.tsv
#       interquartile spread per workload and end-to-end metric over the
#       runs appended to one --tsv file (ten seeds, say), against its bound
#   benchmark/run.sh --check
#       seconds-long validity check for CI: every workload tiny, traced and
#       untraced, every answer verified, every emitted metric name checked
#       against BENCHMARK.json in both directions; non-zero on any failure
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/subzero-benchmark"

workloads=(astro_capture astro_query micro_scan daemon_mixed)
trace=0
check=0
single=0
pass=()
while (($#)); do
    case "$1" in
        --compare | --spread) exec "$bin" "$@" ;;
        --workload) single=1; pass+=("$1" "$2"); shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --check) check=1; shift ;;
        *) pass+=("$1"); shift ;;
    esac
done

if ((single)); then
    exec "$bin" ${pass[@]+"${pass[@]}"} --trace "$trace"
fi

if ((check)); then
    "$bin" --check-manifest
    for w in "${workloads[@]}"; do
        for t in 0 1; do
            "$bin" --workload "$w" --check --trace "$t" ${pass[@]+"${pass[@]}"}
        done
    done
    echo "benchmark check passed"
    exit 0
fi

for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --trace 0 ${pass[@]+"${pass[@]}"}
    if [[ "$trace" == 1 ]]; then
        "$bin" --workload "$w" --trace 1 ${pass[@]+"${pass[@]}"}
    fi
done
