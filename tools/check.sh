#!/usr/bin/env bash
# Full verification: build + ctest, plain and sanitized.
#
#   tools/check.sh            # plain + ASan/UBSan passes
#   tools/check.sh --plain    # plain RelWithDebInfo build + ctest only
#   tools/check.sh --asan     # ASan/UBSan build + ctest only
#   tools/check.sh --thread   # TSan build; runs the concurrency + rt suites
#   tools/check.sh --stress   # long overload/fault-injection soak (plain
#                             # build; APOLLO_SOAK_MS bounds wall clock)
#   tools/check.sh --repeat N [thread]
#                             # flake hunt: the parity, cross-host, gateway,
#                             # shard, fair-queue and thread-pool suites N
#                             # times in a row (-j8), stopping at the first
#                             # failure; "thread" runs them in the TSan
#                             # build
#
# The sanitized pass builds into build-asan/ with
# -DAPOLLO_SANITIZE=address,undefined so the retry/timeout/breaker code
# (shared_ptr callback chains racing simulated timers) runs under ASan and
# UBSan on every check. The thread pass builds into build-tsan/ with
# -DAPOLLO_SANITIZE=thread and runs the suites that exercise real threads
# (the threaded runtime, the locked core structures, the database): TSan
# and ASan cannot share a build, so this is its own mode rather than part
# of `all`.
set -euo pipefail

cd "$(dirname "$0")/.."

run_pass() {
  local dir="$1"; shift
  echo "=== configure+build: ${dir} ($*) ==="
  cmake -B "${dir}" -S . "$@" >/dev/null
  cmake --build "${dir}" -j"$(nproc)"
  echo "=== ctest: ${dir} ==="
  ctest --test-dir "${dir}" --output-on-failure -j"$(nproc)"
}

mode="${1:-all}"

case "${mode}" in
  --plain|plain)
    run_pass build
    ;;
  --asan|asan)
    run_pass build-asan -DAPOLLO_SANITIZE=address,undefined
    ;;
  --thread|thread|--tsan|tsan)
    dir=build-tsan
    echo "=== configure+build: ${dir} (TSan) ==="
    cmake -B "${dir}" -S . -DAPOLLO_SANITIZE=thread >/dev/null
    cmake --build "${dir}" -j"$(nproc)" \
      --target concurrency_test rt_test overload_test tinylfu_test \
               scaling_test cluster_test cross_host_test
    echo "=== ctest: ${dir} (concurrency + rt + overload + scaling + cluster + cross-host suites) ==="
    ctest --test-dir "${dir}" --output-on-failure -j"$(nproc)" \
      -R 'Concurrent|Contention|Future|ThreadPool|Inflight|Brownout|FairQueue|Overload|TinyLfu|CountMin|Gateway|Batch|Parity|Shard|Cluster|SessionRouter|EdgeLink|CrossHost'
    ;;
  --repeat|repeat)
    n="${2:?usage: $0 --repeat N [thread]}"
    if [[ "${3:-}" == thread ]]; then
      dir=build-tsan
      sanitize=thread
    else
      dir=build
      sanitize=
    fi
    echo "=== configure+build: ${dir} (repeat ${n}) ==="
    cmake -B "${dir}" -S . -DAPOLLO_SANITIZE="${sanitize}" >/dev/null
    cmake --build "${dir}" -j"$(nproc)"
    echo "=== ctest: ${dir} (until-fail:${n}) ==="
    ctest --test-dir "${dir}" --output-on-failure -j8 \
      --repeat until-fail:"${n}" \
      -R 'Parity|CrossHost|Gateway|Shard|FairQueue|ThreadPool'
    ;;
  --stress|stress)
    # Extended soak of the overload/brownout/fault-injection path: the
    # 8-session read-your-writes soak with a longer wall-clock budget
    # (default 15 s; override with APOLLO_SOAK_MS).
    dir=build
    echo "=== configure+build: ${dir} (stress) ==="
    cmake -B "${dir}" -S . >/dev/null
    cmake --build "${dir}" -j"$(nproc)" --target overload_test
    echo "=== soak: OverloadSoakTest (APOLLO_SOAK_MS=${APOLLO_SOAK_MS:-15000}) ==="
    APOLLO_SOAK_MS="${APOLLO_SOAK_MS:-15000}" \
      ctest --test-dir "${dir}" --output-on-failure -R 'OverloadSoakTest' \
        --timeout 300
    ;;
  all)
    run_pass build
    run_pass build-asan -DAPOLLO_SANITIZE=address,undefined
    ;;
  *)
    echo "usage: $0 [--plain|--asan|--thread|--stress|--repeat N [thread]]" >&2
    exit 2
    ;;
esac

echo "All checks passed."
