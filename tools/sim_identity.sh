#!/usr/bin/env bash
# Checks that the simulator's output is unchanged against a git revision.
#
# Usage: tools/sim_identity.sh [rev]        (rev defaults to HEAD)
#
# Builds bench/overhead_stats, bench/outage_recovery and
# examples/run_experiment (Release) twice: once from `git archive <rev>`
# and once from the working tree. Runs the two benches plus four
# run_experiment configurations on the one event-loop host (Fido on
# TPC-W; Memcached, i.e. prediction off, on TPC-W; Apollo on TPC-W; and
# Apollo on TPC-C, which coalesces heavily through single flight), and
# diffs their stdout with the "(wall)" lines, which are real wall-clock
# readings, removed. Prints the diff and exits 1 on any difference, 0 when the
# simulated output is byte-identical, 2 when a build fails.
#
# Build trees go to $SIM_IDENTITY_DIR if set (kept, so a rerun builds
# incrementally), else to a temporary directory removed on exit. $JOBS
# sets the build parallelism (default: nproc).
set -euo pipefail

rev="${1:-HEAD}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
targets=(overhead_stats outage_recovery run_experiment)
# One run per line: output name, binary (relative to a build tree), args.
runs=(
  "overhead_stats bench/overhead_stats"
  "outage_recovery bench/outage_recovery"
  "fido examples/run_experiment --system fido --clients 20 --minutes 2"
  "memcached examples/run_experiment --system memcached --clients 20 --minutes 2"
  "tpcw examples/run_experiment --system apollo --workload tpcw --clients 20 --minutes 2"
  "tpcc examples/run_experiment --system apollo --workload tpcc --clients 20 --minutes 2"
)
jobs="${JOBS:-$(nproc)}"

if [[ -n "${SIM_IDENTITY_DIR:-}" ]]; then
  work="$SIM_IDENTITY_DIR"
  mkdir -p "$work"
else
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
fi
work="$(cd "$work" && pwd)"

build() {  # build <source dir> <build dir>
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" -j"$jobs" --target "${targets[@]}"; } \
       > "$2.log" 2>&1; then
    tail -n 40 "$2.log"
    echo "sim_identity: build of $1 failed (log: $2.log)" >&2
    exit 2
  fi
}

echo "sim_identity: building $rev and the working tree in $work"
rm -rf "$work/base-src"
mkdir -p "$work/base-src"
git -C "$repo" archive "$rev" | tar -x -C "$work/base-src"
build "$work/base-src" "$work/base"
build "$repo" "$work/tree"

# The benches write BENCH_*.json into their working directory.
mkdir -p "$work/run"
status=0
for run in "${runs[@]}"; do
  read -r b bin args <<< "$run"
  for side in base tree; do
    # $args is split into words on purpose.
    # shellcheck disable=SC2086
    (cd "$work/run" && "$work/$side/$bin" $args) | grep -v '(wall)' \
      > "$work/$b.$side.txt"
  done
  if diff -u --label "$b@$rev" --label "$b@working-tree" \
       "$work/$b.base.txt" "$work/$b.tree.txt"; then
    echo "sim_identity: $b identical to $rev"
  else
    echo "sim_identity: $b differs from $rev"
    status=1
  fi
done
exit "$status"
