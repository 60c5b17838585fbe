#!/usr/bin/env bash
# Tier-1 verification wrapper: configure, build, run the full test suite,
# then rebuild the kernel-equivalence tests under ASan/UBSan and run them
# once, and finally rebuild the vmpi engine and fault-injection tests under
# ThreadSanitizer and run them in both host execution modes (bounded
# executor and HPRS_THREAD_PER_RANK).  This is the gate a change must pass
# before merging.
#
# A final bench-smoke tier reruns the table 5/7/8 + fault benches at
# reduced size and diffs their run summaries against bench/golden/
# (scripts/bench_smoke.sh) -- the same regression gate CI applies.
#
# Usage: scripts/check.sh [--no-sanitizers] [--no-bench-smoke]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
run_sanitizers=1
run_bench_smoke=1
for arg in "$@"; do
  case "$arg" in
    --no-sanitizers) run_sanitizers=0 ;;
    --no-bench-smoke) run_bench_smoke=0 ;;
    *) echo "check.sh: unknown option $arg" >&2; exit 2 ;;
  esac
done

echo "== tier 1: build + full test suite =="
cmake -S "$repo" -B "$repo/build" -DCMAKE_BUILD_TYPE=Release
cmake --build "$repo/build" -j "$jobs"
ctest --test-dir "$repo/build" --output-on-failure -j "$jobs"

if [[ "$run_sanitizers" == "1" ]]; then
  echo "== tier 1b: fast-path equivalence under ASan/UBSan =="
  cmake -S "$repo" -B "$repo/build-asan" \
    -DCMAKE_BUILD_TYPE=Release \
    -DHPRS_ENABLE_SANITIZERS=ON \
    -DHPRS_BUILD_BENCH=OFF \
    -DHPRS_BUILD_EXAMPLES=OFF
  asan_tests=(linalg_blocked_test morph_sad_cache_test fastpath_equivalence_test
              core_corr_plane_test linalg_fcls_test linalg_multilane_test)
  cmake --build "$repo/build-asan" -j "$jobs" --target \
    "${asan_tests[@]}" sched_resilience_test
  for t in "${asan_tests[@]}"; do
    "$repo/build-asan/tests/$t"
  done
  # A preempted gang leader catches the PreemptSignal and then releases its
  # gang, which parks the fiber; LeakSanitizer catches an exception object
  # retired on the wrong executor thread.
  "$repo/build-asan/tests/sched_resilience_test" --gtest_filter='*Preempt*'

  echo "== tier 1c: vmpi engine + scheduler under TSan, both execution modes =="
  vmpi_tests=(vmpi_engine_test vmpi_collectives_test vmpi_engine_stress_test
              vmpi_fault_test vmpi_split_test sched_scheduler_test
              sched_resilience_test sched_snapshot_test serve_service_test)
  cmake -S "$repo" -B "$repo/build-tsan" \
    -DCMAKE_BUILD_TYPE=Release \
    -DHPRS_ENABLE_TSAN=ON \
    -DHPRS_BUILD_BENCH=OFF \
    -DHPRS_BUILD_EXAMPLES=OFF
  cmake --build "$repo/build-tsan" -j "$jobs" --target "${vmpi_tests[@]}"
  for t in "${vmpi_tests[@]}"; do
    # Smaller stress world under TSan: thread-per-rank mode instruments
    # every rank thread, so full 192-rank runs are disproportionately slow.
    HPRS_STRESS_RANKS=64 "$repo/build-tsan/tests/$t"
    HPRS_STRESS_RANKS=64 HPRS_THREAD_PER_RANK=1 "$repo/build-tsan/tests/$t"
  done

  echo "== tier 1e: threaded kernels under TSan (HPRS_KERNEL_THREADS=4) =="
  # The fast-path equivalence suite rides along (the streamed tiled
  # driver must stay race-free at 4 kernel threads), as does the eigen
  # suite: its memo is shared by concurrent callers, the correlation-plane
  # suite: its OSP/FCLS sweeps run in lanes, and the multi-lane suite: the
  # lockstep solve and dot kernels those lanes call.
  kernel_tests=(linalg_thread_pool_test linalg_blocked_test
                morph_sad_cache_test
                fastpath_equivalence_test linalg_eigen_test
                core_corr_plane_test linalg_multilane_test)
  cmake --build "$repo/build-tsan" -j "$jobs" --target "${kernel_tests[@]}"
  for t in "${kernel_tests[@]}"; do
    HPRS_KERNEL_THREADS=4 "$repo/build-tsan/tests/$t"
  done
fi

if [[ "$run_bench_smoke" == "1" ]]; then
  echo "== tier 1d: bench-smoke vs bench/golden/ =="
  BUILD_DIR="$repo/build" "$repo/scripts/bench_smoke.sh"
fi

echo "check.sh: all green"
