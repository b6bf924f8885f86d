#!/usr/bin/env bash
# tools/check.sh — the repo's tier-1+ correctness gate.
#
# Runs, in order, failing fast with a non-zero exit on the first problem,
# and prints a per-leg PASS/FAIL/SKIP summary at the end either way:
#   1. plain build (RelWithDebInfo, -Wall -Wextra -Werror) + full ctest
#      suite, which includes the gdp_lint source linter (and its
#      determinism-contract rules: no-wall-clock, no-float-accumulate,
#      no-unordered-iteration, mutex-annotated, no-per-edge-accounting),
#      then the peak-RSS probe (tools/rss_probe.cc): a budgeted,
#      unmaterialized block-streamed ingest whose host RSS growth must stay
#      within the ingest byte ledger's prediction plus slack;
#   2. native-arch kernel benches: rebuilds the engine-kernel claims
#      benches with -DGDP_NATIVE_ARCH=ON (-march=native on bench/ targets
#      only) and re-runs the kernel/engine scaling claims, so a
#      vectorization-dependent determinism break under the host's full ISA
#      cannot slip through. The plain leg already covers the portable
#      codegen of the same benches;
#   3. thread-safety build (Clang only): -DGDP_THREAD_SAFETY=ON compiles
#      the tree under clang++ with -Wthread-safety -Wthread-safety-beta
#      -Werror, checking the GDP_GUARDED_BY / GDP_REQUIRES annotations
#      (src/util/thread_annotations.h) statically. SKIPPED when clang++ is
#      not on PATH — the mutex-annotated lint rule in leg 1 still enforces
#      that every mutex carries annotations;
#   4. clang-tidy over leg 1's compile_commands.json (config in
#      .clang-tidy). SKIPPED when clang-tidy is not on PATH;
#   5. ASan+UBSan build (Debug, so GDP_DCHECK and the structural validators
#      in src/partition/validate.h are live) + full ctest suite, failing on
#      any sanitizer report (halt_on_error);
#   6. TSan build (GDP_SANITIZE=thread) running the engine / frontier /
#      thread-pool / parallel-ingress test targets — the data-race gate for
#      the parallel GAS engine and the parallel ingest pipeline.
#      Timing-sensitive claims benches are excluded (TSan's ~10x slowdown
#      makes their wall-clock thresholds meaningless).
#
# Usage: tools/check.sh [--quick]
#   --quick  plain leg only (the seed tier-1 contract) — no static-analysis
#            or sanitizer legs.
#
# Build trees: build-check/ (plain), build-native/ (-march=native benches),
# build-tsafe/ (Clang thread safety), build-asan/ and build-tsan/
# (sanitized), kept apart from the developer's build/ so the gate never
# clobbers a working tree.

set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="$(nproc 2>/dev/null || echo 4)"
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

SUMMARY=()

print_summary() {
  echo
  echo "=== check.sh leg summary ==="
  local line
  for line in "${SUMMARY[@]}"; do
    echo "  $line"
  done
}

pass() { SUMMARY+=("$1: PASS"); }
skip() { SUMMARY+=("$1: SKIP ($2)"); echo "=== [$1] SKIPPED: $2 ==="; }
fail() {
  SUMMARY+=("$1: FAIL")
  print_summary
  echo "check.sh: gate FAILED at leg [$1]" >&2
  exit 1
}

# run_leg <name> <build-dir> <ctest-filter> [cmake args...]
# A ctest filter of "@skip" builds without running tests (for
# analysis-only legs).
run_leg() {
  local name="$1" dir="$2" ctest_filter="$3"
  shift 3
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S "$ROOT" "$@" >"$dir.configure.log" 2>&1 || {
    cat "$dir.configure.log"
    echo "check.sh: [$name] configure FAILED" >&2
    return 1
  }
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS" >"$dir.build.log" 2>&1 || {
    tail -50 "$dir.build.log"
    echo "check.sh: [$name] build FAILED" >&2
    return 1
  }
  [[ "$ctest_filter" == "@skip" ]] && return 0
  echo "=== [$name] ctest ==="
  local filter_args=()
  [[ -n "$ctest_filter" ]] && filter_args=(-R "$ctest_filter")
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${filter_args[@]}") || {
    echo "check.sh: [$name] tests FAILED" >&2
    return 1
  }
}

# Leg 1: plain build + tests (includes the gdp_lint ctest test, the
# gdp_run bad-input tests tool_run_rejects_* and the registry_first_call
# executable). -Werror promotes the [[nodiscard]] Status discards to hard
# errors.
if run_leg "plain" "$ROOT/build-check" "" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-Werror; then
  pass "plain"
else
  fail "plain"
fi

# Leg 1b: peak-RSS probe for the bounded streaming ingress. Runs the
# budgeted, unmaterialized block-streamed ingest and asserts the process's
# RSS growth stays within the byte ledger's prediction plus slack
# (tools/rss_probe.cc). Uses leg 1's build tree.
rss_leg() {
  echo "=== [rss-probe] budgeted streaming ingest vs peak RSS ==="
  "$ROOT/build-check/tools/rss_probe"
}
if rss_leg; then
  pass "rss-probe"
else
  fail "rss-probe"
fi

if [[ "$QUICK" == "1" ]]; then
  skip "native-arch" "--quick"
  skip "thread-safety" "--quick"
  skip "clang-tidy" "--quick"
  skip "asan+ubsan" "--quick"
  skip "tsan" "--quick"
  print_summary
  echo "check.sh: quick gate PASSED (plain build + ctest + lint)"
  exit 0
fi

# Leg 2: the kernel claims benches again, under -march=native. The kernel
# determinism contract (bit-identical simulated costs across plan layouts
# and thread counts) must survive the host's widest vector
# ISA, not just portable codegen; only bench/ targets get the flag, so
# everything else in this tree is identical to leg 1's.
native_leg() {
  local dir="$ROOT/build-native"
  echo "=== [native-arch] configure ==="
  cmake -B "$dir" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGDP_NATIVE_ARCH=ON >"$dir.configure.log" 2>&1 || {
    cat "$dir.configure.log"
    echo "check.sh: [native-arch] configure FAILED" >&2
    return 1
  }
  echo "=== [native-arch] build (kernel benches) ==="
  cmake --build "$dir" -j "$JOBS" \
    --target bench_kernel_scaling --target bench_engine_scaling \
    >"$dir.build.log" 2>&1 || {
    tail -50 "$dir.build.log"
    echo "check.sh: [native-arch] build FAILED" >&2
    return 1
  }
  echo "=== [native-arch] kernel claims ==="
  (cd "$dir" &&
   ctest --output-on-failure -R 'claims_bench_(kernel|engine)_scaling')
}
if native_leg; then
  pass "native-arch"
else
  fail "native-arch"
fi

# Leg 3: Clang thread-safety analysis. Build-only: the annotations are
# checked at compile time, and the plain leg already ran the suite.
if command -v clang++ >/dev/null 2>&1; then
  if run_leg "thread-safety" "$ROOT/build-tsafe" "@skip" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DGDP_THREAD_SAFETY=ON \
    -DCMAKE_CXX_FLAGS=-Werror; then
    pass "thread-safety"
  else
    fail "thread-safety"
  fi
else
  skip "thread-safety" "clang++ not on PATH"
fi

# Leg 4: clang-tidy over the plain leg's compile database (.clang-tidy
# holds the check list). Headers are covered through the .cc files that
# include them.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== [clang-tidy] src/ + tools/ over build-check/compile_commands.json ==="
  mapfile -t tidy_sources < <(find "$ROOT/src" "$ROOT/tools" -name '*.cc' | sort)
  if clang-tidy -p "$ROOT/build-check" --quiet "${tidy_sources[@]}" \
      >"$ROOT/build-check.clang-tidy.log" 2>&1; then
    pass "clang-tidy"
  else
    tail -50 "$ROOT/build-check.clang-tidy.log"
    echo "check.sh: [clang-tidy] FAILED" >&2
    fail "clang-tidy"
  fi
else
  skip "clang-tidy" "clang-tidy not on PATH"
fi

# Leg 5: ASan + UBSan, Debug so NDEBUG is off and the structural validators
# (GDP_DCHECK_OK(ValidateDistributedGraph) in the harness and GAS engine)
# run on every ingest. halt_on_error turns any report into a test failure.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
if run_leg "asan+ubsan" "$ROOT/build-asan" "" \
  -DCMAKE_BUILD_TYPE=Debug \
  "-DGDP_SANITIZE=address;undefined"; then
  pass "asan+ubsan"
else
  fail "asan+ubsan"
fi

# Leg 6: TSan over the concurrency surface — the parallel GAS engine, the
# parallel ingress pipeline (Ingest* matches the ingest determinism +
# conservation suites), the parallel grid runner and its partition/plan
# caches (GridRunner/PartitionCache/PlanCache), their
# frontier/thread-pool/accumulator utilities, the sim layer they charge,
# the observability layer (Obs* suites: sharded metrics counters, trace
# recorder, ExecContext determinism matrix), and the serving layer
# (Serving* suites: the batched scheduler's parallel phase over the
# byte-budgeted caches), and the neighbor-expansion family (NeFamily*
# suites: NE/SNE/2PS/HEP determinism matrix across threads and
# representations; MinHeap/StrategyRegistry cover the heap and the
# locked registry those strategies dispatch through), the greedy
# strategies' per-loader state (Hdrf/Oblivious/LoaderState suites) and the
# per-lane scratch layout (CacheLineLayout). RelWithDebInfo:
# TSan+Debug is too slow for the determinism matrix, and the race coverage
# is identical. The -R filter selects the discovered gtest suites that
# exercise threads; claims_ benches are timing-based and excluded (none of
# them match).
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
if run_leg "tsan" "$ROOT/build-tsan" \
  '(EngineDeterminism|EngineCorrectness|EngineAccounting|EngineEdge|ExecutionPlan|KCoreDeterminism|ThreadPool|DenseBitset|PhaseAccumulator|Machine|Cluster|Async|Ingest|GridRunner|PartitionCache|PlanCache|Obs|Serving|EdgeBlockStore|StreamIngest|NeFamily|MinHeap|StrategyRegistry|Hdrf|Oblivious|LoaderState|CacheLineLayout)' \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGDP_SANITIZE=thread; then
  pass "tsan"
else
  fail "tsan"
fi

print_summary
echo "check.sh: full gate PASSED"
