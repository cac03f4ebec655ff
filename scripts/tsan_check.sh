#!/usr/bin/env bash
# Builds the parallel runtime under ThreadSanitizer and runs the
# parallelism and serving tests. Usage: scripts/tsan_check.sh [build-dir]
#
# TSan serializes and slows everything ~5-15x, so only the tests that
# exercise the thread pool or the server's threads are run here; the full
# suite stays on the regular Release build.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "${BUILD_DIR}" -S . -DAUTOAC_TSAN=ON
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
  --target parallel_test parallel_determinism_test sparse_ops_test \
           tensor_test telemetry_test compiler_test serving_test \
           mutation_test

# halt_on_error makes any data-race report fail the run loudly instead of
# being buried in test output.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"

# Exercise the pool at several widths, including more threads than cores.
for threads in 2 4 7; do
  echo "== TSan pass with AUTOAC_NUM_THREADS=${threads} =="
  AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/parallel_test"
  AUTOAC_NUM_THREADS="${threads}" \
    "${BUILD_DIR}/tests/parallel_determinism_test"
  AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/sparse_ops_test"
  AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/tensor_test"
  # Telemetry layer: concurrent counter bumps, Emit calls, and profile
  # scopes from pool workers must be race-free.
  AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/telemetry_test"
  # Compiled forward: fused kernels and the arena executor run on the
  # pool; the zoo identity tests exercise them at this thread count.
  AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/compiler_test"
  # Serving: reader threads, the batcher, registry swaps under SIGHUP-style
  # reloads, the mutation overlay and the chaos sites. The widest pass is
  # skipped to bound TSan time (the pool's own width coverage is above).
  if [ "${threads}" -le 4 ]; then
    AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/serving_test"
    AUTOAC_NUM_THREADS="${threads}" "${BUILD_DIR}/tests/mutation_test"
  fi
done

echo "TSan check passed."
