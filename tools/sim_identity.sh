#!/usr/bin/env bash
# Checks that the simulator's output is unchanged against a git revision.
#
# Usage: tools/sim_identity.sh [rev]        (rev defaults to HEAD)
#
# Builds bench/overhead_stats and bench/outage_recovery (Release) twice:
# once from `git archive <rev>` and once from the working tree. Runs each
# and diffs their stdout with the "(wall)" lines, which are real
# wall-clock readings, removed. Prints the diff and exits 1 on any
# difference, 0 when the simulated output is byte-identical, 2 when a
# build fails.
#
# Build trees go to $SIM_IDENTITY_DIR if set (kept, so a rerun builds
# incrementally), else to a temporary directory removed on exit. $JOBS
# sets the build parallelism (default: nproc).
set -euo pipefail

rev="${1:-HEAD}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
benches=(overhead_stats outage_recovery)
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
         cmake --build "$2" -j"$jobs" --target "${benches[@]}"; } \
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
for b in "${benches[@]}"; do
  for side in base tree; do
    (cd "$work/run" && "$work/$side/bench/$b") | grep -v '(wall)' \
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
