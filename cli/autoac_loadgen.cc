// autoac_loadgen: open-loop load generator for autoac_serve (DESIGN.md §13).
//
//   autoac_loadgen --socket=/tmp/autoac.sock --rps=200 --duration_s=10
//     --connections=4 --qos_batch_pct=50 --max_node=64
//     --metrics_out=loadgen.jsonl
//
// Open-loop means arrivals follow a Poisson process (exponential
// inter-arrival times from a seeded RNG) and are sent at their scheduled
// times whether or not earlier responses have arrived — the generator
// never waits on the server, so a slow server faces the full offered load
// instead of a politely backing-off one. Latency is measured from the
// *scheduled* arrival, not the actual send, so queueing delay inside the
// generator counts against the server (no coordinated omission).
//
// Each request carries a "qos" class (batch with probability
// --qos_batch_pct, interactive otherwise) and a per-connection "client"
// identity. Per-class latency percentiles (p50/p95/p99 over successful
// responses) and rejection counts (by structured "reason", noting
// retry_after_ms hints) are printed and, with --metrics_out, emitted as
// telemetry JSONL: one "bench_context" record (hardware fingerprint for
// the regression gate's self-skip), one "loadgen_class" record per class,
// and one "loadgen" total. scripts/check_bench_regression.py gates the
// per-class p99 against BENCH_serving.json.
//
// Exit status: 0 when the run completed and at least one response arrived;
// 1 on connect failure or a silent server.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serving/server.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace autoac {
namespace {

const std::vector<Flags::Spec>& FlagTable() {
  using Type = Flags::Spec::Type;
  static const std::vector<Flags::Spec> kSpecs = {
      {"help", Type::kBool},
      {"socket", Type::kString},
      {"port", Type::kInt},
      {"rps", Type::kDouble},
      {"duration_s", Type::kDouble},
      {"connections", Type::kInt},
      {"qos_batch_pct", Type::kInt},
      {"max_node", Type::kInt},
      {"model_name", Type::kString},
      {"deadline_ms", Type::kInt},
      {"seed", Type::kInt},
      {"grace_ms", Type::kInt},
      {"metrics_out", Type::kString},
  };
  return kSpecs;
}

void PrintUsage() {
  std::printf(
      "usage: autoac_loadgen (--socket=PATH | --port=N)\n"
      "  [--rps=200]          total offered load, Poisson arrivals\n"
      "  [--duration_s=10]    send window (responses drain in the grace\n"
      "                       period after it)\n"
      "  [--connections=4]    connections, each an independent open loop\n"
      "                       offering rps/connections\n"
      "  [--qos_batch_pct=0]  percent of requests tagged \"qos\":\"batch\"\n"
      "  [--max_node=64]      node ids sampled uniformly from [0, N)\n"
      "  [--model_name=NAME]  route requests to a named model\n"
      "  [--deadline_ms=M]    attach a deadline to every request\n"
      "  [--seed=42]          RNG seed (arrivals, nodes, classes)\n"
      "  [--grace_ms=2000]    wait for stragglers after the send window\n"
      "  [--metrics_out=PATH] telemetry JSONL (bench_context +\n"
      "                       loadgen_class records for the bench gate)\n");
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Connect(const std::string& unix_path, int port) {
  if (!unix_path.empty()) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

constexpr int kNumClasses = 2;  // 0 = interactive, 1 = batch

const char* ClassName(int c) { return c == 0 ? "interactive" : "batch"; }

struct WorkerConfig {
  std::string unix_path;
  int port = 0;
  double rate_rps = 0.0;  // this connection's share
  int64_t duration_us = 0;
  int64_t grace_us = 0;
  int batch_pct = 0;
  int64_t max_node = 64;
  std::string model_name;
  int64_t deadline_ms = -1;
  uint64_t seed = 42;
};

struct WorkerResult {
  bool connected = false;
  int64_t sent = 0;
  int64_t lost = 0;  // never answered within the grace period
  /// Successful-response latencies (us, from scheduled arrival), per class.
  std::vector<int64_t> latencies[kNumClasses];
  int64_t ok[kNumClasses] = {0, 0};
  int64_t rejected[kNumClasses] = {0, 0};
  int64_t rejected_with_retry[kNumClasses] = {0, 0};
  std::map<std::string, int64_t> reject_reasons;
  int64_t errors_other = 0;  // error lines without a structured reason
};

/// One open-loop connection: sends at scheduled Poisson arrivals, drains
/// responses as they come, never blocks sending on receiving.
void RunWorker(int tid, const WorkerConfig& cfg, WorkerResult* out) {
  int fd = Connect(cfg.unix_path, cfg.port);
  if (fd < 0) return;
  out->connected = true;
  Rng rng(cfg.seed + static_cast<uint64_t>(tid) * 1000003);

  std::vector<int64_t> scheduled_us;  // per seq
  std::vector<uint8_t> class_of;      // per seq
  std::vector<uint8_t> answered;      // per seq

  const int64_t start_us = NowMicros();
  const int64_t end_us = start_us + cfg.duration_us;
  auto next_gap = [&]() {
    // Exponential inter-arrival: -ln(U)/rate, U in (0, 1].
    double u = 1.0 - rng.Uniform();
    return static_cast<int64_t>(-std::log(u) / cfg.rate_rps * 1e6);
  };
  int64_t next_us = start_us + next_gap();
  int64_t outstanding = 0;
  std::string pending;
  char buf[4096];
  bool peer_gone = false;

  auto drain = [&]() {
    for (;;) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        peer_gone = true;
        return;
      }
      int64_t now = NowMicros();
      pending.append(buf, static_cast<size_t>(n));
      size_t at = 0;
      for (size_t nl = pending.find('\n', at); nl != std::string::npos;
           nl = pending.find('\n', at)) {
        std::string line = pending.substr(at, nl - at);
        at = nl + 1;
        // Ids are "t<tid>-<seq>"; anything else (e.g. an idle-timeout
        // notice with an empty id) is not one of ours.
        size_t id_at = line.find("\"id\":\"t");
        if (id_at == std::string::npos) continue;
        size_t dash = line.find('-', id_at);
        if (dash == std::string::npos) continue;
        int64_t seq = std::strtoll(line.c_str() + dash + 1, nullptr, 10);
        if (seq < 0 || seq >= static_cast<int64_t>(scheduled_us.size()) ||
            answered[seq]) {
          continue;
        }
        answered[seq] = 1;
        --outstanding;
        int cls = class_of[seq];
        if (line.find("\"error\":") == std::string::npos) {
          ++out->ok[cls];
          out->latencies[cls].push_back(now - scheduled_us[seq]);
          continue;
        }
        size_t reason_at = line.find("\"reason\":\"");
        if (reason_at == std::string::npos) {
          ++out->errors_other;
          continue;
        }
        ++out->rejected[cls];
        size_t value = reason_at + 10;
        size_t end = line.find('"', value);
        if (end != std::string::npos) {
          ++out->reject_reasons[line.substr(value, end - value)];
        }
        if (line.find("\"retry_after_ms\":") != std::string::npos) {
          ++out->rejected_with_retry[cls];
        }
      }
      pending.erase(0, at);
    }
  };

  while (!peer_gone) {
    int64_t now = NowMicros();
    bool sending = now < end_us;
    if (!sending && (outstanding == 0 || now >= end_us + cfg.grace_us)) {
      break;
    }
    int64_t wake = sending ? std::min(next_us, end_us)
                           : end_us + cfg.grace_us;
    int timeout_ms = static_cast<int>(
        std::min<int64_t>(50, std::max<int64_t>(0, (wake - now) / 1000)));
    pollfd pfd{fd, POLLIN, 0};
    ::poll(&pfd, 1, timeout_ms);
    drain();
    if (peer_gone) break;
    now = NowMicros();
    // Send every arrival whose scheduled time has passed — when the
    // generator fell behind, the backlog goes out as a burst, exactly
    // what an open-loop source does.
    while (now < end_us && next_us <= now) {
      int cls = rng.UniformInt(1, 100) <= cfg.batch_pct ? 1 : 0;
      int64_t seq = static_cast<int64_t>(scheduled_us.size());
      scheduled_us.push_back(next_us);
      class_of.push_back(static_cast<uint8_t>(cls));
      answered.push_back(0);
      std::string req = "{\"id\":\"t" + std::to_string(tid) + "-" +
                        std::to_string(seq) + "\",\"qos\":\"" +
                        ClassName(cls) + "\",\"client\":\"loadgen-t" +
                        std::to_string(tid) + "\"";
      if (!cfg.model_name.empty()) {
        req += ",\"model\":\"" + cfg.model_name + "\"";
      }
      if (cfg.deadline_ms >= 0) {
        req += ",\"deadline_ms\":" + std::to_string(cfg.deadline_ms);
      }
      req += ",\"node\":" +
             std::to_string(rng.UniformInt(0, cfg.max_node - 1)) + "}\n";
      if (!SendAll(fd, req.data(), req.size())) {
        peer_gone = true;
        break;
      }
      ++out->sent;
      ++outstanding;
      next_us += next_gap();
      now = NowMicros();
    }
  }
  out->lost = outstanding;
  ::close(fd);
}

int64_t Percentile(const std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return -1;
  size_t idx = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  idx = idx > 0 ? idx - 1 : 0;
  return sorted[std::min(idx, sorted.size() - 1)];
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<std::string> problems = flags.Validate(FlagTable());
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "error: %s\n", p.c_str());
    }
    std::fprintf(stderr, "run with --help for usage\n");
    return 64;
  }
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  const std::string unix_path = flags.GetString("socket", "");
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (unix_path.empty() && port <= 0) {
    std::fprintf(stderr, "error: need --socket or --port\n");
    return 64;
  }
  const double rps = flags.GetDouble("rps", 200.0);
  const double duration_s = flags.GetDouble("duration_s", 10.0);
  const int connections =
      std::max(1, static_cast<int>(flags.GetInt("connections", 4)));
  const int batch_pct = static_cast<int>(
      std::min<int64_t>(100, std::max<int64_t>(0,
          flags.GetInt("qos_batch_pct", 0))));
  if (rps <= 0.0 || duration_s <= 0.0) {
    std::fprintf(stderr, "error: --rps and --duration_s must be positive\n");
    return 64;
  }
  InitTelemetryFromFlag(flags.GetString("metrics_out", ""));

  WorkerConfig cfg;
  cfg.unix_path = unix_path;
  cfg.port = port;
  cfg.rate_rps = rps / connections;
  cfg.duration_us = static_cast<int64_t>(duration_s * 1e6);
  cfg.grace_us = flags.GetInt("grace_ms", 2000) * 1000;
  cfg.batch_pct = batch_pct;
  cfg.max_node = std::max<int64_t>(1, flags.GetInt("max_node", 64));
  cfg.model_name = flags.GetString("model_name", "");
  cfg.deadline_ms = flags.GetInt("deadline_ms", -1);
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  std::printf("loadgen: %.1f rps x %.1f s over %d connection(s), "
              "%d%% batch, nodes [0, %lld)\n",
              rps, duration_s, connections, batch_pct,
              static_cast<long long>(cfg.max_node));
  std::fflush(stdout);

  const int64_t wall_start_us = NowMicros();
  std::vector<WorkerResult> results(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (int t = 0; t < connections; ++t) {
    threads.emplace_back(RunWorker, t, std::cref(cfg), &results[t]);
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      static_cast<double>(NowMicros() - wall_start_us) / 1e6;

  int connected = 0;
  int64_t sent = 0, lost = 0, errors_other = 0;
  int64_t ok[kNumClasses] = {0, 0};
  int64_t rejected[kNumClasses] = {0, 0};
  int64_t rejected_with_retry[kNumClasses] = {0, 0};
  std::vector<int64_t> latencies[kNumClasses];
  std::map<std::string, int64_t> reject_reasons;
  for (const WorkerResult& r : results) {
    connected += r.connected ? 1 : 0;
    sent += r.sent;
    lost += r.lost;
    errors_other += r.errors_other;
    for (int c = 0; c < kNumClasses; ++c) {
      ok[c] += r.ok[c];
      rejected[c] += r.rejected[c];
      rejected_with_retry[c] += r.rejected_with_retry[c];
      latencies[c].insert(latencies[c].end(), r.latencies[c].begin(),
                          r.latencies[c].end());
    }
    for (const auto& [reason, count] : r.reject_reasons) {
      reject_reasons[reason] += count;
    }
  }
  if (connected == 0) {
    std::fprintf(stderr, "error: no connection could be established\n");
    return 1;
  }

  if (Telemetry::Enabled()) {
    Telemetry::Get().Emit(
        MetricRecord("bench_context")
            .Add("num_cpus", static_cast<int64_t>(
                                 std::thread::hardware_concurrency()))
            .Add("num_threads_env", static_cast<int64_t>(NumThreads())));
  }
  int64_t total_ok = 0, total_rejected = 0;
  for (int c = 0; c < kNumClasses; ++c) {
    std::sort(latencies[c].begin(), latencies[c].end());
    int64_t p50 = Percentile(latencies[c], 50.0);
    int64_t p95 = Percentile(latencies[c], 95.0);
    int64_t p99 = Percentile(latencies[c], 99.0);
    total_ok += ok[c];
    total_rejected += rejected[c];
    int64_t class_sent = ok[c] + rejected[c];
    if (class_sent == 0 && latencies[c].empty()) continue;
    std::printf(
        "class %s: ok %lld, rejected %lld (with retry hint %lld), "
        "p50 %lld us, p95 %lld us, p99 %lld us\n",
        ClassName(c), static_cast<long long>(ok[c]),
        static_cast<long long>(rejected[c]),
        static_cast<long long>(rejected_with_retry[c]),
        static_cast<long long>(p50), static_cast<long long>(p95),
        static_cast<long long>(p99));
    if (Telemetry::Enabled()) {
      Telemetry::Get().Emit(MetricRecord("loadgen_class")
                                .Add("qos", ClassName(c))
                                .Add("ok", ok[c])
                                .Add("rejected", rejected[c])
                                .Add("rejected_with_retry",
                                     rejected_with_retry[c])
                                .Add("p50_us", p50)
                                .Add("p95_us", p95)
                                .Add("p99_us", p99));
    }
  }
  std::string breakdown;
  for (const auto& [reason, count] : reject_reasons) {
    if (!breakdown.empty()) breakdown += ", ";
    breakdown += reason + "=" + std::to_string(count);
  }
  double achieved_rps = wall_s > 0.0 ? static_cast<double>(sent) / wall_s
                                     : 0.0;
  std::printf(
      "total: sent %lld, ok %lld, rejected %lld%s%s%s, other errors %lld, "
      "lost %lld, offered %.1f rps (wall %.1f s)\n",
      static_cast<long long>(sent), static_cast<long long>(total_ok),
      static_cast<long long>(total_rejected),
      breakdown.empty() ? "" : " (", breakdown.c_str(),
      breakdown.empty() ? "" : ")",
      static_cast<long long>(errors_other), static_cast<long long>(lost),
      achieved_rps, wall_s);
  if (Telemetry::Enabled()) {
    Telemetry::Get().Emit(MetricRecord("loadgen")
                              .Add("target_rps", rps)
                              .Add("duration_s", duration_s)
                              .Add("connections", connections)
                              .Add("batch_pct", batch_pct)
                              .Add("sent", sent)
                              .Add("ok", total_ok)
                              .Add("rejected", total_rejected)
                              .Add("lost", lost)
                              .Add("achieved_rps", achieved_rps));
  }
  if (total_ok == 0) {
    std::fprintf(stderr, "error: no successful response received\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace autoac

int main(int argc, char** argv) {
  int rc = autoac::Run(argc, argv);
  autoac::ShutdownTelemetry(/*print_profile_table=*/false);
  return rc;
}
