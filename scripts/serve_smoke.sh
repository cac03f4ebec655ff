#!/usr/bin/env bash
# End-to-end smoke test for the serving subsystem (src/serving/, DESIGN.md
# §10). Usage: scripts/serve_smoke.sh [build-dir]
#
#   0. Out-of-range serving flags (--max_batch=0, --batch_timeout_ms=-1, ...)
#      must be usage errors: exit 64 with a message naming the flag.
#   1. Train two small runs and export them with `autoac_run
#      --export_model` (different epoch counts => different fingerprints).
#   2. Load the first artifact again via `autoac_serve` and require the
#      printed fingerprint to be identical (the artifact is
#      self-validating: container CRC + content fingerprint).
#   3. Start the server on a unix socket and fire several concurrent
#      clients at it; every request must get a response line, and the
#      responses must be identical across clients (same frozen logits).
#   4. SIGTERM the server and require a cooperative shutdown: exit status
#      0, a final stats line, and request/response counters that add up.
#   5. Start a two-model server (--models=a=..,b=..); routed clients must
#      reproduce the single-model answers exactly, and the default route
#      must be model a.
#   6. SIGHUP with untouched artifacts must keep both sessions
#      (fingerprint match => "unchanged"); after overwriting artifact a
#      with b's bytes, SIGHUP must reload only a, and a's answers must
#      flip to b's.
#   7. Streaming mutations (DESIGN.md §12): replay a recorded delta feed
#      against a --enable_mutations server — partly via the startup
#      --mutation_feed, partly over the socket, with a SIGHUP reload in
#      between (unchanged fingerprint => the overlay and its deltas
#      survive). Every post-delta response, including the inductively
#      scored added node, must be bitwise identical to `autoac_serve
#      --reference`, the from-scratch re-export of the mutated graph. A
#      delta guarded by the wrong expect_fingerprint must be refused with
#      the distinct "fingerprint mismatch" error.
#   8. Quantized artifacts (DESIGN.md §14): re-export the same training run
#      with --quantize=int8, require the artifact to be materially smaller
#      with a distinct stored fingerprint (it covers the decoded content),
#      serve it next to its fp32 twin, and require the routed answers to
#      agree on top-1 labels within tolerance while the fp32 route stays
#      bitwise identical to the single-model baseline.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j"$(nproc)" --target autoac_run autoac_serve
RUN="${BUILD_DIR}/cli/autoac_run"
SERVE="${BUILD_DIR}/cli/autoac_serve"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  if [ -n "${SERVER_PID}" ] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill -KILL "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORK}"
}
trap cleanup EXIT

MODEL="${WORK}/model.aacm"
MODEL2="${WORK}/model2.aacm"
SOCK="${WORK}/serve.sock"
NODES="0,1,2,3,4,5,6,7"
NUM_CLIENTS=4
strip_latency() { sed 's/,"latency_us":[0-9]*//' "$1"; }

echo "== bad serving flags are usage errors =="
# Each is refused with exit 64 naming the flag, before any artifact is
# read: no constructor abort (exit 134), no spinning batcher.
for bad in --max_batch=0 --max_queue=0 --max_line_bytes=0 \
           --batch_timeout_ms=-1 --staleness_ms=-5; do
  status=0
  "${SERVE}" --model="${WORK}/absent.aacm" --socket="${WORK}/bad.sock" \
    "${bad}" >"${WORK}/bad-flag.log" 2>&1 || status=$?
  if [ "${status}" -ne 64 ] || ! grep -q -- "${bad%%=*} must be" \
       "${WORK}/bad-flag.log"; then
    echo "FAIL: ${bad} exited ${status} (expected 64 naming the flag)" >&2
    cat "${WORK}/bad-flag.log" >&2
    exit 1
  fi
done

echo "== export =="
"${RUN}" --dataset=dblp --scale=0.05 --method=onehot --seeds=1 --epochs=4 \
  --export_model="${MODEL}" | tee "${WORK}/export.log"
grep -q 'frozen model written to' "${WORK}/export.log"
fingerprint="$(grep -o 'fingerprint [0-9a-f]*' "${WORK}/export.log" | head -1)"

echo "== export second artifact =="
"${RUN}" --dataset=dblp --scale=0.05 --method=onehot --seeds=1 --epochs=6 \
  --export_model="${MODEL2}" | tee "${WORK}/export2.log"
grep -q 'frozen model written to' "${WORK}/export2.log"
fingerprint2="$(grep -o 'fingerprint [0-9a-f]*' "${WORK}/export2.log" | head -1)"
if [ "${fingerprint}" = "${fingerprint2}" ]; then
  echo "FAIL: the two exports share a fingerprint (expected distinct)" >&2
  exit 1
fi

echo "== server =="
"${SERVE}" --model="${MODEL}" --socket="${SOCK}" \
  --max_batch=4 --batch_timeout_ms=2 \
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

# The server must report the exporter's fingerprint: same artifact, loaded
# through the full validation path.
grep -q "${fingerprint}" "${WORK}/server.log" || {
  echo "FAIL: server loaded a different fingerprint" >&2
  cat "${WORK}/server.log" >&2
  exit 1
}

echo "== ${NUM_CLIENTS} concurrent clients =="
client_pids=()
for c in $(seq 1 "${NUM_CLIENTS}"); do
  "${SERVE}" --client --socket="${SOCK}" --nodes="${NODES}" \
    >"${WORK}/client-${c}.log" 2>&1 &
  client_pids+=("$!")
done
for pid in "${client_pids[@]}"; do
  wait "${pid}" || {
    echo "FAIL: a client did not receive all its responses" >&2
    cat "${WORK}"/client-*.log >&2
    exit 1
  }
done

expected_lines=$(awk -F, '{print NF}' <<<"${NODES}")
for c in $(seq 1 "${NUM_CLIENTS}"); do
  lines="$(wc -l <"${WORK}/client-${c}.log")"
  if [ "${lines}" -ne "${expected_lines}" ]; then
    echo "FAIL: client ${c} got ${lines}/${expected_lines} responses" >&2
    exit 1
  fi
  grep -q '"error"' "${WORK}/client-${c}.log" && {
    echo "FAIL: client ${c} received an error response" >&2
    cat "${WORK}/client-${c}.log" >&2
    exit 1
  }
done

# Same frozen logits => every client saw identical labels/scores (latency
# differs per request, so strip it before comparing).
for c in $(seq 2 "${NUM_CLIENTS}"); do
  if ! diff <(sed 's/,"latency_us":[0-9]*//' "${WORK}/client-1.log") \
            <(sed 's/,"latency_us":[0-9]*//' "${WORK}/client-${c}.log"); then
    echo "FAIL: client ${c} answers differ from client 1" >&2
    exit 1
  fi
done

echo "== cooperative shutdown =="
kill -TERM "${SERVER_PID}"
status=0
wait "${SERVER_PID}" || status=$?
SERVER_PID=""
if [ "${status}" -ne 0 ]; then
  echo "FAIL: server exited ${status} on SIGTERM (expected 0)" >&2
  cat "${WORK}/server.log" >&2
  exit 1
fi
grep -q '^shutdown:' "${WORK}/server.log" || {
  echo "FAIL: no shutdown stats line" >&2
  cat "${WORK}/server.log" >&2
  exit 1
}
total=$((NUM_CLIENTS * expected_lines))
stats="$(grep '^shutdown:' "${WORK}/server.log")"
echo "${stats}"
echo "${stats}" | grep -q " ${NUM_CLIENTS} connections" || {
  echo "FAIL: expected ${NUM_CLIENTS} connections in: ${stats}" >&2
  exit 1
}
echo "${stats}" | grep -q " ${total} requests, ${total} responses" || {
  echo "FAIL: expected ${total} requests and responses in: ${stats}" >&2
  exit 1
}
# Telemetry captured per-request latencies and per-batch occupancy.
grep -q '"type":"serve_request"' "${WORK}/serve_metrics.jsonl"
grep -q '"type":"serve_batch"' "${WORK}/serve_metrics.jsonl"

echo "== two-model server =="
# Serve private copies so overwriting one later cannot corrupt the
# originals mid-read.
ARTIFACT_A="${WORK}/a.aacm"
ARTIFACT_B="${WORK}/b.aacm"
cp "${MODEL}" "${ARTIFACT_A}"
cp "${MODEL2}" "${ARTIFACT_B}"
SOCK2="${WORK}/serve2.sock"
"${SERVE}" --models="a=${ARTIFACT_A},b=${ARTIFACT_B}" --socket="${SOCK2}" \
  --max_batch=4 --batch_timeout_ms=2 \
  >"${WORK}/server2.log" 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  [ -S "${SOCK2}" ] && break
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "FAIL: two-model server exited before binding its socket" >&2
    cat "${WORK}/server2.log" >&2
    exit 1
  fi
  sleep 0.1
done
[ -S "${SOCK2}" ] || { echo "FAIL: socket never appeared" >&2; exit 1; }
# Both artifacts loaded under their registry names, a is the default.
grep -q "loaded a \[default\].*${fingerprint}" "${WORK}/server2.log" || {
  echo "FAIL: model a not loaded as default with its fingerprint" >&2
  cat "${WORK}/server2.log" >&2
  exit 1
}
grep -q "loaded b:.*${fingerprint2}" "${WORK}/server2.log" || {
  echo "FAIL: model b not loaded with its fingerprint" >&2
  cat "${WORK}/server2.log" >&2
  exit 1
}

echo "== routing =="
"${SERVE}" --client --socket="${SOCK2}" --nodes="${NODES}" --model_name=a \
  >"${WORK}/routed-a.log" 2>&1
"${SERVE}" --client --socket="${SOCK2}" --nodes="${NODES}" --model_name=b \
  >"${WORK}/routed-b.log" 2>&1
"${SERVE}" --client --socket="${SOCK2}" --nodes="${NODES}" \
  >"${WORK}/routed-default.log" 2>&1
# Routing to a reproduces the single-model server's answers exactly.
diff <(strip_latency "${WORK}/client-1.log") \
     <(strip_latency "${WORK}/routed-a.log") || {
  echo "FAIL: model-a answers differ from the single-model server" >&2
  exit 1
}
# Omitting "model" routes to the default (a): single-model clients keep
# working against a multi-model server.
diff <(strip_latency "${WORK}/routed-a.log") \
     <(strip_latency "${WORK}/routed-default.log") || {
  echo "FAIL: default route differs from model a" >&2
  exit 1
}
# The artifacts genuinely differ, so the routes must too.
if diff <(strip_latency "${WORK}/routed-a.log") \
        <(strip_latency "${WORK}/routed-b.log") >/dev/null; then
  echo "FAIL: models a and b answered identically (routing broken?)" >&2
  exit 1
fi

await_reloads() {  # await_reloads COUNT -- wait for the Nth reload report
  for _ in $(seq 1 50); do
    [ "$(grep -c '^reload:' "${WORK}/server2.log")" -ge "$1" ] && return 0
    sleep 0.1
  done
  echo "FAIL: SIGHUP reload $1 never reported" >&2
  cat "${WORK}/server2.log" >&2
  exit 1
}

echo "== SIGHUP with unchanged artifacts =="
kill -HUP "${SERVER_PID}"
await_reloads 1
grep -q 'reload: 0 loaded \[-\], 0 reloaded \[-\], 2 unchanged \[a,b\], 0 removed \[-\]' \
  "${WORK}/server2.log" || {
  echo "FAIL: no-op SIGHUP should keep both sessions (fingerprint match)" >&2
  cat "${WORK}/server2.log" >&2
  exit 1
}

echo "== SIGHUP after overwriting artifact a =="
cp "${ARTIFACT_B}" "${ARTIFACT_A}"
kill -HUP "${SERVER_PID}"
await_reloads 2
grep -q 'reload: 0 loaded \[-\], 1 reloaded \[a\], 1 unchanged \[b\], 0 removed \[-\]' \
  "${WORK}/server2.log" || {
  echo "FAIL: expected exactly model a to reload" >&2
  cat "${WORK}/server2.log" >&2
  exit 1
}
"${SERVE}" --client --socket="${SOCK2}" --nodes="${NODES}" --model_name=a \
  >"${WORK}/routed-a-reloaded.log" 2>&1
diff <(strip_latency "${WORK}/routed-b.log") \
     <(strip_latency "${WORK}/routed-a-reloaded.log") || {
  echo "FAIL: model a does not answer like b after the reload" >&2
  exit 1
}

echo "== two-model shutdown =="
kill -TERM "${SERVER_PID}"
status=0
wait "${SERVER_PID}" || status=$?
SERVER_PID=""
if [ "${status}" -ne 0 ]; then
  echo "FAIL: two-model server exited ${status} on SIGTERM (expected 0)" >&2
  cat "${WORK}/server2.log" >&2
  exit 1
fi
grep '^shutdown:' "${WORK}/server2.log"
total2=$((4 * expected_lines))
grep -q " ${total2} requests, ${total2} responses" \
  <(grep '^shutdown:' "${WORK}/server2.log") || {
  echo "FAIL: two-model request/response counters do not add up" >&2
  cat "${WORK}/server2.log" >&2
  exit 1
}

echo "== mutation server =="
# Fingerprints as bare hex for the expect_fingerprint guard ("fingerprint"
# prefix stripped from the export-log capture).
FP_HEX="${fingerprint#fingerprint }"
FP2_HEX="${fingerprint2#fingerprint }"
SOCK3="${WORK}/serve3.sock"
# Delta m0 rides the startup --mutation_feed; m1..m3 go over the socket.
cat >"${WORK}/feed-boot.jsonl" <<EOF
{"id": "m0", "op": "add_edge", "edge": "paper-author", "src": 0, "dst": 1}
EOF
cat >"${WORK}/feed-live-1.jsonl" <<EOF
{"id": "m1", "op": "add_node", "type": "author"}
EOF
cat >"${WORK}/feed-live-2.jsonl" <<EOF
{"id": "m2", "op": "add_edge", "edge": "paper-author", "src": 0, "dst": 3, "expect_fingerprint": "${FP_HEX}"}
{"id": "m3", "op": "remove_edge", "edge": "paper-author", "src": 0, "dst": 1}
EOF
cat "${WORK}/feed-boot.jsonl" "${WORK}/feed-live-1.jsonl" \
    "${WORK}/feed-live-2.jsonl" >"${WORK}/feed-all.jsonl"
cat >"${WORK}/feed-stale.jsonl" <<EOF
{"id": "m4", "op": "add_edge", "edge": "paper-author", "src": 0, "dst": 5, "expect_fingerprint": "${FP2_HEX}"}
EOF

"${SERVE}" --model="${MODEL}" --socket="${SOCK3}" \
  --enable_mutations --mutation_feed="${WORK}/feed-boot.jsonl" \
  --max_batch=4 --batch_timeout_ms=2 \
  --metrics_out="${WORK}/serve3_metrics.jsonl" \
  >"${WORK}/server3.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [ -S "${SOCK3}" ] && break
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "FAIL: mutation server exited before binding its socket" >&2
    cat "${WORK}/server3.log" >&2
    exit 1
  fi
  sleep 0.1
done
[ -S "${SOCK3}" ] || { echo "FAIL: socket never appeared" >&2; exit 1; }
grep -q 'mutations enabled (staleness 0 ms)' "${WORK}/server3.log" || {
  echo "FAIL: server did not announce the mutation overlay" >&2
  cat "${WORK}/server3.log" >&2
  exit 1
}
grep -q 'mutation feed: 1 deltas applied' "${WORK}/server3.log" || {
  echo "FAIL: startup --mutation_feed was not replayed" >&2
  cat "${WORK}/server3.log" >&2
  exit 1
}

echo "== mutations over the socket, SIGHUP mid-feed =="
"${SERVE}" --client --socket="${SOCK3}" --feed="${WORK}/feed-live-1.jsonl" \
  >"${WORK}/acks-1.log" 2>&1 || {
  echo "FAIL: mutation client 1 did not get all its acks" >&2
  cat "${WORK}/acks-1.log" >&2
  exit 1
}
grep -q '"applied":"add_node"' "${WORK}/acks-1.log" || {
  echo "FAIL: add_node was not acknowledged" >&2
  cat "${WORK}/acks-1.log" >&2
  exit 1
}
# The ack carries the new node's type-local id: inductive scoring makes it
# addressable immediately, so probe it along with the original nodes.
NEW_NODE="$(grep -o '"node":[0-9]*' "${WORK}/acks-1.log" | head -1 | cut -d: -f2)"
[ -n "${NEW_NODE}" ] || {
  echo "FAIL: add_node ack carries no node id" >&2
  cat "${WORK}/acks-1.log" >&2
  exit 1
}
NODES_MUT="${NODES},${NEW_NODE}"

# A SIGHUP with the artifact untouched: the fingerprint matches, so the
# overlay — and the deltas already applied — must survive the reload.
kill -HUP "${SERVER_PID}"
for _ in $(seq 1 50); do
  grep -q '^reload:' "${WORK}/server3.log" && break
  sleep 0.1
done
grep -q 'reload: 0 loaded \[-\], 0 reloaded \[-\], 1 unchanged \[default\], 0 removed \[-\]' \
  "${WORK}/server3.log" || {
  echo "FAIL: mid-feed SIGHUP should keep the mutation overlay" >&2
  cat "${WORK}/server3.log" >&2
  exit 1
}

"${SERVE}" --client --socket="${SOCK3}" --feed="${WORK}/feed-live-2.jsonl" \
  >"${WORK}/acks-2.log" 2>&1 || {
  echo "FAIL: mutation client 2 did not get all its acks" >&2
  cat "${WORK}/acks-2.log" >&2
  exit 1
}
grep -q '"error"' "${WORK}/acks-2.log" && {
  echo "FAIL: post-reload deltas were rejected" >&2
  cat "${WORK}/acks-2.log" >&2
  exit 1
}
# A delta guarded by the *other* artifact's fingerprint must be refused
# with the distinct reload-race error, and must not mutate anything.
"${SERVE}" --client --socket="${SOCK3}" --feed="${WORK}/feed-stale.jsonl" \
  >"${WORK}/acks-stale.log" 2>&1 || {
  echo "FAIL: stale-fingerprint client did not get its response" >&2
  cat "${WORK}/acks-stale.log" >&2
  exit 1
}
grep -q 'fingerprint mismatch' "${WORK}/acks-stale.log" || {
  echo "FAIL: wrong expect_fingerprint not refused distinctly" >&2
  cat "${WORK}/acks-stale.log" >&2
  exit 1
}

echo "== incremental answers == from-scratch re-export =="
"${SERVE}" --client --socket="${SOCK3}" --nodes="${NODES_MUT}" \
  >"${WORK}/mutated-live.log" 2>&1 || {
  echo "FAIL: post-mutation probe failed" >&2
  cat "${WORK}/mutated-live.log" >&2
  exit 1
}
"${SERVE}" --reference --model="${MODEL}" \
  --mutation_feed="${WORK}/feed-all.jsonl" --nodes="${NODES_MUT}" \
  >"${WORK}/mutated-reference.log" 2>&1 || {
  echo "FAIL: --reference re-export failed" >&2
  cat "${WORK}/mutated-reference.log" >&2
  exit 1
}
diff <(strip_latency "${WORK}/mutated-live.log") \
     <(strip_latency "${WORK}/mutated-reference.log") || {
  echo "FAIL: incremental answers differ from the from-scratch re-export" >&2
  exit 1
}
# ... and the mutations genuinely changed the answers (else the diff above
# proved nothing): the probe of the original nodes must differ from the
# pre-mutation single-model responses.
if diff <(strip_latency "${WORK}/client-1.log") \
        <(head -n "${expected_lines}" "${WORK}/mutated-live.log" | \
          sed 's/,"latency_us":[0-9]*//') >/dev/null; then
  echo "FAIL: mutations did not change any probed answer" >&2
  exit 1
fi

echo "== mutation server shutdown =="
kill -TERM "${SERVER_PID}"
status=0
wait "${SERVER_PID}" || status=$?
SERVER_PID=""
if [ "${status}" -ne 0 ]; then
  echo "FAIL: mutation server exited ${status} on SIGTERM (expected 0)" >&2
  cat "${WORK}/server3.log" >&2
  exit 1
fi
grep '^shutdown:' "${WORK}/server3.log"
# Socket-applied deltas: m1..m3 (the boot feed and the refused m4 are not
# the batcher's). Dirty rows must be nonzero.
grep '^shutdown:' "${WORK}/server3.log" | \
  grep -Eq ' 3 mutations, [1-9][0-9]* dirty-rows' || {
  echo "FAIL: mutation counters do not add up in the shutdown line" >&2
  cat "${WORK}/server3.log" >&2
  exit 1
}
grep -q '"type":"serve_mutation"' "${WORK}/serve3_metrics.jsonl" || {
  echo "FAIL: no serve_mutation telemetry records" >&2
  exit 1
}

echo "== int8 export next to the fp32 twin =="
MODEL_I8="${WORK}/model_int8.aacm"
"${RUN}" --dataset=dblp --scale=0.05 --method=onehot --seeds=1 --epochs=4 \
  --export_model="${MODEL_I8}" --quantize=int8 | tee "${WORK}/export_i8.log"
grep -q 'encoding int8' "${WORK}/export_i8.log" || {
  echo "FAIL: int8 export did not report its encoding" >&2
  exit 1
}
fingerprint_i8="$(grep -o 'fingerprint [0-9a-f]*' "${WORK}/export_i8.log" | head -1)"
# Same training run, different payload encoding: the stored fingerprint
# covers the *decoded* content, so the quantized twin's must differ.
if [ "${fingerprint_i8}" = "${fingerprint}" ]; then
  echo "FAIL: int8 twin shares the fp32 fingerprint (expected distinct)" >&2
  exit 1
fi
f32_bytes="$(stat -c %s "${MODEL}")"
i8_bytes="$(stat -c %s "${MODEL_I8}")"
# The int8 payload must be materially smaller than the fp32 twin: at least
# 1.5x (the un-quantizable graph structure keeps the small smoke artifact
# below the 2.5x the serving-width benchmark model is gated at).
if [ $((i8_bytes * 3)) -gt $((f32_bytes * 2)) ]; then
  echo "FAIL: int8 artifact ${i8_bytes} B not 1.5x under fp32 ${f32_bytes} B" >&2
  exit 1
fi
echo "int8 artifact: ${i8_bytes} B vs fp32 ${f32_bytes} B"

echo "== quantized routing + tolerance diff =="
SOCK4="${WORK}/serve4.sock"
"${SERVE}" --models="f32=${MODEL},i8=${MODEL_I8}" --socket="${SOCK4}" \
  --max_batch=4 --batch_timeout_ms=2 \
  >"${WORK}/server4.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 100); do
  [ -S "${SOCK4}" ] && break
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "FAIL: quantized server exited before binding its socket" >&2
    cat "${WORK}/server4.log" >&2
    exit 1
  fi
  sleep 0.1
done
[ -S "${SOCK4}" ] || { echo "FAIL: socket never appeared" >&2; exit 1; }
grep -q "loaded f32 \[default\].*${fingerprint}" "${WORK}/server4.log" || {
  echo "FAIL: fp32 twin not loaded as default with its fingerprint" >&2
  cat "${WORK}/server4.log" >&2
  exit 1
}
grep -q "loaded i8:.*${fingerprint_i8}" "${WORK}/server4.log" || {
  echo "FAIL: int8 twin not loaded with its stored fingerprint" >&2
  cat "${WORK}/server4.log" >&2
  exit 1
}
"${SERVE}" --client --socket="${SOCK4}" --nodes="${NODES}" --model_name=f32 \
  >"${WORK}/routed-f32.log" 2>&1
"${SERVE}" --client --socket="${SOCK4}" --nodes="${NODES}" --model_name=i8 \
  >"${WORK}/routed-i8.log" 2>&1
# The fp32 route reproduces the single-model baseline bitwise: hosting a
# quantized neighbor must not perturb the full-precision answers.
diff <(strip_latency "${WORK}/client-1.log") \
     <(strip_latency "${WORK}/routed-f32.log") || {
  echo "FAIL: fp32 route differs from the single-model baseline" >&2
  exit 1
}
grep -q '"error"' "${WORK}/routed-i8.log" && {
  echo "FAIL: int8 route returned an error response" >&2
  cat "${WORK}/routed-i8.log" >&2
  exit 1
}
# Tolerance diff: int8 dequantizes to slightly different logits, so scores
# may drift, but the top-1 labels must agree on nearly every probe.
agree="$(paste <(grep -o '"label":[0-9]*' "${WORK}/routed-f32.log") \
               <(grep -o '"label":[0-9]*' "${WORK}/routed-i8.log") \
         | awk '$1 == $2' | wc -l)"
min_agree=$((expected_lines - 1))
if [ "${agree}" -lt "${min_agree}" ]; then
  echo "FAIL: int8 top-1 labels agree on ${agree}/${expected_lines}" \
       "probes (need >= ${min_agree})" >&2
  diff <(strip_latency "${WORK}/routed-f32.log") \
       <(strip_latency "${WORK}/routed-i8.log") >&2 || true
  exit 1
fi
echo "int8 top-1 agreement: ${agree}/${expected_lines}"

echo "== quantized server shutdown =="
kill -TERM "${SERVER_PID}"
status=0
wait "${SERVER_PID}" || status=$?
SERVER_PID=""
if [ "${status}" -ne 0 ]; then
  echo "FAIL: quantized server exited ${status} on SIGTERM (expected 0)" >&2
  cat "${WORK}/server4.log" >&2
  exit 1
fi

echo "PASS: export -> serve -> ${NUM_CLIENTS}x${expected_lines} identical" \
     "responses -> clean shutdown -> two-model routing -> SIGHUP reload" \
     "-> mutation feed == from-scratch re-export (incl. mid-feed SIGHUP)" \
     "-> int8 twin smaller + top-1 within tolerance"
