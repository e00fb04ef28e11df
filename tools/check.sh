#!/usr/bin/env bash
# Sanitizer gate: configure a dedicated ASan+UBSan build tree, build
# everything, and run the full test suite under the sanitizers. A full
# (unbounded) run finishes with a stock Release (-O3) build of every
# target and a Release (-O2) perf smoke: the data-plane
# micro-benchmark must still clear its CRC speedup gate at optimized
# codegen, so a dispatch or kernel regression fails CI, not just a chart.
#
#   tools/check.sh [build-dir]          (default: build-asan)
#
# Extra ctest arguments can be passed via CTEST_ARGS, e.g.
#   CTEST_ARGS="-R Store" tools/check.sh
# TARGETS bounds the build to the named test targets (space-separated);
# pair it with a CTEST_ARGS filter so the unbuilt targets' placeholder
# tests are not selected. Setting TARGETS also skips the perf smoke —
# the in-tree asan_gate ctest test always sets it, which keeps the gate
# from recursing into another full build.
#
# COVERAGE=1 switches the build from sanitizers to gcov instrumentation
# (default build dir: build-cov) and prints a line-coverage summary after
# the test run — via gcovr when available, else aggregated from gcov
# directly. Informational only: no threshold is enforced yet.
#
# TSAN=1 switches from ASan/UBSan to ThreadSanitizer (default build dir:
# build-tsan) and, unless TARGETS/CTEST_ARGS narrow it, bounds the run to
# the concurrency-heavy suites: the I/O scheduler (svc), the tiered-store
# drain/restore races, the pipelined streamer, the recorder, the
# recovery supervisor, and the JSA's preemption handshake. The perf
# smoke is skipped — TSan throughput is meaningless.
#
# CHAOS=1 appends a recovery chaos campaign after the test run: the
# availability bench's --chaos mode replays CHAOS_SCHEDULES (default 32)
# seeded failure schedules under the sanitizers and fails unless every
# run recovers to the failure-free fingerprint with full failure-kind
# coverage. Fixed seeds (CHAOS_SEED, default 1) keep the gate
# reproducible.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
coverage="${COVERAGE:-}"
tsan="${TSAN:-}"
if [[ -n "${coverage}" ]]; then
  build="${1:-${repo}/build-cov}"
elif [[ -n "${tsan}" ]]; then
  build="${1:-${repo}/build-tsan}"
else
  build="${1:-${repo}/build-asan}"
fi
jobs="$(nproc 2>/dev/null || echo 4)"

if [[ -n "${tsan}" ]]; then
  # TSan mode defaults to the scheduler/drain race suites; an explicit
  # TARGETS/CTEST_ARGS pair overrides the bound.
  if [[ -z "${TARGETS:-}" && -z "${CTEST_ARGS:-}" ]]; then
    TARGETS="test_svc test_store test_streamer test_obs test_recovery test_partial_recovery test_redundancy test_delta test_adapt test_arch"
    CTEST_ARGS="-R Svc|IoScheduler|TieredBackend|Streamer|Obs|Recovery|Redundan|Delta|Partial|StreamRuns|Adapt|JobScheduler"
  fi
fi

if [[ -n "${coverage}" ]]; then
  cmake -B "${build}" -S "${repo}" -DCOVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
elif [[ -n "${tsan}" ]]; then
  cmake -B "${build}" -S "${repo}" -DTSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
else
  cmake -B "${build}" -S "${repo}" -DASAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
if [[ -n "${TARGETS:-}" ]]; then
  # shellcheck disable=SC2086
  cmake --build "${build}" -j "${jobs}" --target ${TARGETS}
else
  cmake --build "${build}" -j "${jobs}"
fi

# abort_on_error makes sanitizer failures fail the test instead of just
# logging.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-abort_on_error=1:halt_on_error=1}"

ctest --test-dir "${build}" --output-on-failure -j "${jobs}" ${CTEST_ARGS:-}
if [[ -n "${coverage}" ]]; then
  echo "check.sh: all tests passed (coverage build)"
elif [[ -n "${tsan}" ]]; then
  echo "check.sh: all tests passed under TSan"
else
  echo "check.sh: all tests passed under ASan/UBSan"
fi

# Coverage summary. Prefer gcovr's report; without it, run gcov over the
# src/ object files and aggregate its per-file "Lines executed" output.
if [[ -n "${coverage}" ]]; then
  echo "---- line coverage (src/) ----"
  if command -v gcovr >/dev/null 2>&1; then
    gcovr --root "${repo}" --filter "${repo}/src/" "${build}" || true
  else
    find "${build}/src" -name '*.gcda' -print0 |
      xargs -0 -r gcov -n 2>/dev/null |
      awk '/^File .*\/src\//    { f=$2; keep=1; next }
           /^File/              { keep=0; next }
           keep && /^Lines executed:/ {
             split($0, a, ":"); split(a[2], b, "% of ");
             covered += b[1] / 100.0 * b[2]; total += b[2]; keep=0;
             printf "  %6.2f%% of %5d  %s\n", b[1], b[2], f;
           }
           END {
             if (total > 0)
               printf "TOTAL %.2f%% of %d lines\n", covered * 100.0 / total, total;
             else
               print "no coverage data found";
           }'
  fi
  exit 0
fi

# Chaos campaign (opt-in): replay the seeded failure schedules under the
# sanitizers. The bench exits non-zero if any schedule fails to recover
# bit-exactly or the campaign misses a failure kind, so a supervisor race
# or a verify regression fails the gate here.
if [[ -n "${CHAOS:-}" ]]; then
  cmake --build "${build}" -j "${jobs}" --target bench_availability_model
  (cd "${build}/bench" &&
   ./bench_availability_model --chaos "${CHAOS_SCHEDULES:-32}" "${CHAOS_SEED:-1}")
  echo "check.sh: recovery chaos campaign passed (${CHAOS_SCHEDULES:-32} schedules)"
fi

# Stock Release build (skipped for TARGETS-bounded runs): every target
# must compile at -O3 with the project's -Werror warning set, which catches
# diagnostics (e.g. GCC's -Wrestrict) that only fire at that level.
if [[ -z "${TARGETS:-}" && -z "${tsan}" ]]; then
  release_build="${build}-release"
  cmake -B "${release_build}" -S "${repo}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${release_build}" -j "${jobs}"
  echo "check.sh: stock Release (-O3) build passed"
fi

# Perf smoke (skipped for TARGETS-bounded runs, e.g. the asan_gate test):
# sanitizer instrumentation distorts throughput, so benchmark in a plain
# Release tree. bench_data_plane exits non-zero if the dispatched CRC-32C
# kernel is not at least 4x the bytewise baseline; bench_contention exits
# non-zero if the sharded I/O scheduler fails its 2x multi-tenant
# throughput gate or restores regress behind queued drains; bench_delta
# exits non-zero unless delta generations cut bytes written by >= 30%
# (and checkpoint time measurably) with a bit-exact chain restore
# (virtual-time model, so sanitizer/host speed cannot skew it);
# bench_adaptive exits non-zero unless the adaptive interval controller
# strictly beats the fixed paper interval (DRMS fleet efficiency) in at
# least 2 gated failure regimes with a bit-identical trace-file replay.
if [[ -z "${TARGETS:-}" && -z "${tsan}" ]]; then
  perf_build="${build}-perf"
  cmake -B "${perf_build}" -S "${repo}" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG"
  cmake --build "${perf_build}" -j "${jobs}" --target bench_data_plane bench_contention bench_delta bench_adaptive
  (cd "${perf_build}/bench" && ./bench_data_plane --quick)
  (cd "${perf_build}/bench" && ./bench_contention --quick)
  (cd "${perf_build}/bench" && ./bench_delta --quick)
  (cd "${perf_build}/bench" && ./bench_adaptive --quick)
  echo "check.sh: data-plane + contention + delta + adaptive perf smokes passed (Release -O2)"
fi
