#!/usr/bin/env bash
# Chaos smoke for the serving subsystem (DESIGN.md §13): armed fault sites
# must degrade, never break — no dropped well-formed responses, no fd
# leaks, no crashes, and counters that add up at shutdown.
#
#   1. scripts/serve_smoke.sh runs unmodified under each benign IO fault
#      site armed on every hit ('*'): partial writes (every send()
#      truncated to one byte), torn reads (every recv() split in two
#      ingest passes), delayed accepts (50 ms stall per connection). The
#      smoke's own bitwise-identity assertions prove nothing was dropped
#      or corrupted on the way through.
#   2. A CHAOS_SOAK_S-second (default 30) open-loop Poisson loadgen soak
#      at AUTOAC_NUM_THREADS=4 against a rate-limited server with all
#      four benign sites armed — including serve_mid_batch_reload, whose
#      chaos hook hot-reloads the (unchanged) artifact mid-batch; pinned
#      sessions must keep answering. Asserts: zero lost responses, every
#      rate-limited rejection carries a retry hint, the server's fd count
#      returns to its pre-soak baseline, and a clean SIGTERM audit where
#      requests == responses + errors + shed + deadline-expired, with zero
#      write errors and a nonzero faults-injected count.
#
# serve_mutation_apply is deliberately NOT armed here: it makes a
# well-formed mutation fail by design, which serve_smoke's exact-ack
# assertions would (correctly) flag. Its containment is covered in-process
# by ChaosTest.MutationApplyFaultIsContained in tests/serving_test.cc.
#
# Usage: scripts/chaos_smoke.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SOAK_S="${CHAOS_SOAK_S:-30}"
SOAK_RPS="${CHAOS_SOAK_RPS:-300}"

for site in serve_partial_write serve_torn_read serve_delayed_accept; do
  echo "=== serve_smoke under ${site}:* ==="
  AUTOAC_FAULT_INJECT="${site}:*" ./scripts/serve_smoke.sh "${BUILD_DIR}"
done

echo "=== chaos soak: ${SOAK_RPS} rps x ${SOAK_S}s, 4 worker threads ==="
cmake --build "${BUILD_DIR}" -j"$(nproc)" \
  --target autoac_run autoac_serve autoac_loadgen
RUN="${BUILD_DIR}/cli/autoac_run"
SERVE="${BUILD_DIR}/cli/autoac_serve"
LOADGEN="${BUILD_DIR}/cli/autoac_loadgen"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "${SERVER_PID}" ] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill -KILL "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORK}"
}
trap cleanup EXIT

"${RUN}" --dataset=dblp --scale=0.05 --method=onehot --seeds=1 --epochs=4 \
  --export_model="${WORK}/model.aacm" >"${WORK}/export.log" 2>&1
SOCK="${WORK}/serve.sock"

# Rate limiting sized so the soak exercises structured rejections: 4
# loadgen workers present 4 client identities at 60 rps each, so an
# offered ${SOAK_RPS} rps must shed the excess as rate_limited (every
# rejection carrying retry_after_ms) while admitted traffic is served.
AUTOAC_FAULT_INJECT='serve_partial_write:*,serve_torn_read:*,serve_delayed_accept:*,serve_mid_batch_reload:*' \
AUTOAC_NUM_THREADS=4 \
  "${SERVE}" --model="${WORK}/model.aacm" --socket="${SOCK}" \
  --max_batch=16 --batch_timeout_ms=2 \
  --rate_limit_rps=60 --rate_limit_burst=120 \
  --idle_timeout_ms=5000 --max_conns=64 \
  --metrics_out="${WORK}/serve_metrics.jsonl" \
  >"${WORK}/server.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -S "${SOCK}" ] && break
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "FAIL: server exited before binding its socket" >&2
    cat "${WORK}/server.log" >&2
    exit 1
  fi
  sleep 0.1
done
[ -S "${SOCK}" ] || { echo "FAIL: socket never appeared" >&2; exit 1; }

fds_before="$(ls "/proc/${SERVER_PID}/fd" | wc -l)"

AUTOAC_NUM_THREADS=4 "${LOADGEN}" --socket="${SOCK}" \
  --rps="${SOAK_RPS}" --duration_s="${SOAK_S}" --connections=4 \
  --qos_batch_pct=25 --max_node=64 --seed=7 \
  --metrics_out="${WORK}/loadgen.jsonl" 2>&1 | tee "${WORK}/loadgen.log"

kill -0 "${SERVER_PID}" 2>/dev/null || {
  echo "FAIL: server died during the soak" >&2
  cat "${WORK}/server.log" >&2
  exit 1
}
grep -q ' lost 0,' "${WORK}/loadgen.log" || {
  echo "FAIL: the soak lost responses" >&2
  exit 1
}
# Every rejection the soak produced carried a machine-readable retry hint.
while read -r rejected with_retry; do
  if [ "${rejected}" != "${with_retry}" ]; then
    echo "FAIL: ${rejected} rejections but only ${with_retry} retry hints" >&2
    exit 1
  fi
done < <(sed -En 's/^class .*rejected ([0-9]+) \(with retry hint ([0-9]+)\).*/\1 \2/p' \
           "${WORK}/loadgen.log")
grep -q 'rate_limited=' "${WORK}/loadgen.log" || {
  echo "FAIL: the soak never hit the rate limiter (misconfigured?)" >&2
  exit 1
}

# The soak's connections are reaped: the server's fd count returns to the
# pre-soak baseline (reaping runs on the accept loop, <=100ms cadence).
fds_after=-1
for _ in $(seq 1 50); do
  fds_after="$(ls "/proc/${SERVER_PID}/fd" | wc -l)"
  [ "${fds_after}" -le "${fds_before}" ] && break
  sleep 0.1
done
if [ "${fds_after}" -gt "${fds_before}" ]; then
  echo "FAIL: server fds grew across the soak (${fds_before} -> ${fds_after})" >&2
  exit 1
fi
echo "fd check: ${fds_before} before soak, ${fds_after} after"

echo "=== SIGTERM audit ==="
kill -TERM "${SERVER_PID}"
status=0
wait "${SERVER_PID}" || status=$?
SERVER_PID=""
if [ "${status}" -ne 0 ]; then
  echo "FAIL: server exited ${status} on SIGTERM (expected 0)" >&2
  cat "${WORK}/server.log" >&2
  exit 1
fi
stats="$(grep '^shutdown:' "${WORK}/server.log")" || {
  echo "FAIL: no shutdown stats line" >&2
  cat "${WORK}/server.log" >&2
  exit 1
}
echo "${stats}"
field() { sed -En "s/.* ([0-9]+) $1.*/\1/p" <<<"${stats}"; }
requests="$(field requests,)"
responses="$(field responses,)"
shed="$(field shed,)"
expired="$(field deadline-expired,)"
faults="$(field faults-injected,)"
errors="$(field errors)"
rate_limited="$(field rate-limited,)"
if [ "${requests}" -ne "$((responses + errors + shed + expired))" ]; then
  echo "FAIL: ${requests} requests != ${responses} responses + ${errors}" \
       "errors + ${shed} shed + ${expired} expired" >&2
  exit 1
fi
grep -q ' 0 write-errors,' <<<"${stats}" || {
  echo "FAIL: write errors under chaos: ${stats}" >&2
  exit 1
}
if [ "${faults}" -lt 1 ]; then
  echo "FAIL: no faults injected — the chaos sites never armed" >&2
  exit 1
fi
if [ "${rate_limited}" -lt 1 ]; then
  echo "FAIL: no rate-limited rejections in the server's own count" >&2
  exit 1
fi

echo "PASS: serve_smoke x3 fault sites -> ${SOAK_S}s soak (${faults} faults" \
     "absorbed, ${rate_limited} rate-limited with retry hints, fds stable," \
     "${requests} requests = ${responses} responses + ${errors} errors +" \
     "${shed} shed + ${expired} expired)"
