#!/usr/bin/env bash
# Builds the serialization/checkpoint and serving layers under ASan+UBSan
# and runs the tests that parse untrusted bytes. Usage:
# scripts/asan_check.sh [build-dir]
#
# The byte-flip fuzz tests deliberately feed corrupted containers to the
# readers; ASan proves that every rejection path is also memory-safe (no
# overread past a truncated payload, no use of a partially-parsed state).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "${BUILD_DIR}" -S . -DAUTOAC_ASAN=ON
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
  --target serialization_test checkpoint_test telemetry_test util_test \
           serving_test mutation_test

# Any sanitizer report fails the run loudly instead of being buried in
# test output. detect_leaks needs ptrace, which some CI sandboxes deny;
# callers can override via ASAN_OPTIONS.
export ASAN_OPTIONS="abort_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

"${BUILD_DIR}/tests/serialization_test"
"${BUILD_DIR}/tests/checkpoint_test"
"${BUILD_DIR}/tests/telemetry_test"
"${BUILD_DIR}/tests/util_test"
# Serving: the AACM byte-flip fuzz, the request scanner over hostile
# lines, and the mutation overlay's row insertions and subgraph scatters.
"${BUILD_DIR}/tests/serving_test"
"${BUILD_DIR}/tests/mutation_test"

echo "ASan+UBSan check passed."
