#ifndef AUTOAC_E2E_BENCH_LOADGEN_H_
#define AUTOAC_E2E_BENCH_LOADGEN_H_

// Open-loop load over autoac_serve's wire protocol (newline-delimited JSON
// on a unix socket). Each stream is one connection driven by one thread.
// Requests are sent when due whether or not earlier answers came back, and
// latency runs from the *scheduled* arrival, so a stall of the server or of
// the generator counts against every request it delays. Reads arrive as a
// seeded Poisson process (independent users); writes at a fixed interval
// (one ingest feed), so a run's write latencies reflect the cost of a delta
// rather than how the arrivals happened to bunch. Nothing here includes the
// serving headers.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace autoac::bench {

struct StreamConfig {
  enum class Kind { kRead, kWrite };
  Kind kind = Kind::kRead;
  std::string socket_path;
  double rate_rps = 0.0;
  int64_t start_us = 0;    // steady-clock time the schedule starts
  int64_t measure_us = 0;  // arrivals scheduled earlier are warm-up
  int64_t end_us = 0;      // no arrivals at or after this
  int64_t grace_us = 2'000'000;
  uint64_t seed = 1;
  /// CPU the stream's thread pins itself to (-1: none). The server runs on
  /// the other CPUs: a client sharing a CPU with the server's batcher is
  /// woken onto the busy CPU and waits out its time slice, milliseconds of
  /// generator lag that are no property of the server.
  int cpu = -1;
  // Reads: node ids uniform over [0, num_targets). With `expected` set,
  // every answer must equal expected[node] (see AnswerOf).
  int64_t num_targets = 0;
  const std::vector<std::string>* expected = nullptr;
  // Writes: add_edge, add_edge, add_node, repeating. add_edge of
  // `edge_type` with seeded uniform endpoints in [0, src_count) x
  // [0, dst_count); add_node of `node_type`.
  std::string edge_type;
  std::string node_type;
  int64_t src_count = 0;
  int64_t dst_count = 0;
};

struct Sample {
  int64_t scheduled_us = 0;  // relative to the measured window's start
  int64_t latency_us = 0;    // client-side, from the scheduled arrival
  int64_t server_us = 0;     // the response's own latency_us
};

struct StreamResult {
  bool connected = false;
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t errors = 0;      // error or rejection lines
  int64_t lost = 0;        // unanswered at the end of the grace period
  int64_t mismatches = 0;  // answers that differ from the expected ones
  std::vector<Sample> samples;  // successes scheduled in the measured window
  std::vector<double> lag_us;   // send time minus scheduled time
  /// Writes: the request lines the server acknowledged as applied, in
  /// acknowledgement order (the server applies one connection's deltas in
  /// order), and how many of them added a node.
  std::vector<std::string> applied;
  int64_t added_nodes = 0;
  std::string first_error;
};

/// Drives one stream until its schedule ends and its answers are in (or the
/// grace period runs out).
void RunStream(const StreamConfig& config, StreamResult* result);

/// Sends the delta `lines` over a fresh connection, each after the previous
/// one is acknowledged, and appends the applied ones to `applied`. False
/// (with `error`) when one was not applied.
bool ApplyInOrder(const std::string& socket_path,
                  const std::vector<std::string>& lines,
                  std::vector<std::string>* applied, std::string* error);

/// Reads nodes [0, count) once each over a fresh connection and returns
/// their answers in node order. False (with `error`) when any read failed.
bool ReadAll(const std::string& socket_path, int64_t count,
             std::vector<std::string>* answers, std::string* error);

/// The part of a prediction line that identifies the answer:
/// `"label":L,"score":S`. Empty for anything else.
std::string_view AnswerOf(std::string_view line);

/// Connects to a unix socket; -1 on failure.
int ConnectUnix(const std::string& path);

}  // namespace autoac::bench

#endif  // AUTOAC_E2E_BENCH_LOADGEN_H_
