// autoac_bench: the end-to-end benchmark of the AutoAC pipeline and the
// served request. One invocation runs one workload:
//
//   autoac_bench --workload=dblp-simplehgn --seed=1 --seconds=40 --trace=0
//     --serve_bin=PATH --work_dir=DIR
//
// 1. Pipeline (child process): set-up, AutoAC search -> probe retrains ->
//    final retrain -> test evaluation, export of the trained run.
// 2. Read phase: the exported artifact served by the deployed autoac_serve
//    (started five times; the start-up time is set-up), open-loop Poisson
//    reads whose every answer must equal `autoac_serve --reference`.
// 3. Mixed phase: a server with mutations enabled (staleness 0), Poisson
//    reads on one connection and a fixed-rate delta feed on another. Every
//    delta must be applied, and afterwards every target, added nodes
//    included, must read exactly as `autoac_serve --reference
//    --mutation_feed=<the applied deltas in order>`.
//
// It prints `workload metric value unit` lines, the correctness checks, and
// as its last line one JSON object {correct, attempted, failed, metrics}.
// With --trace=1 the metrics are the per-layer breakdown instead: the same
// phases with the kernel profiler on in a second pipeline process, plus the
// in-process layer probes. Exit status 0 only when every check passed.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "loadgen.h"
#include "util/flags.h"

extern char** environ;

namespace autoac::bench {

// Workload parameters and the reason each exists are in e2e_bench/README.md.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"dblp-simplehgn", "dblp", "SimpleHGN", 80.0, "paper-author"},
      {"imdb-magnn", "imdb", "MAGNN", 60.0, "movie-actor"},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void PrintKv(const std::string& key, double value) {
  std::printf("%s %.17g\n", key.c_str(), value);
}

void PrintKv(const std::string& key, const std::string& value) {
  std::printf("%s %s\n", key.c_str(), value.c_str());
}

KeyValues ParseKv(const std::string& text) {
  KeyValues kv;
  std::istringstream in(text);
  std::string key, value;
  while (in >> key >> value) kv[key] = value;
  return kv;
}

double KvNumber(const KeyValues& kv, const std::string& key) {
  auto it = kv.find(key);
  return it == kv.end() ? std::nan("") : std::strtod(it->second.c_str(), nullptr);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) /
         2.0;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

namespace {

constexpr double kReadRps = 32000.0;
constexpr int kReadConnections = 2;
constexpr double kReadWarmupS = 2.0;
constexpr int kP99Windows = 20;  // *_p99_us = median of per-window p99s
constexpr double kMixedReadRps = 2000.0;
constexpr double kWriteRps = 10.0;
constexpr int kTailDeltas = 3;
constexpr double kMixedWarmupS = 1.0;
constexpr int kServerStarts = 5;
constexpr double kMaxLagP99Us = 1000.0;
constexpr int kPipelineTimeoutS = 150;

// ---------------------------------------------------------------------------
// Child processes.

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A spawned process that is always reaped: the destructor kills and waits
/// for it if nobody waited yet.
class Child {
 public:
  Child() = default;
  ~Child() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts argv[0] with stdout redirected to `stdout_path`; stderr is
  /// shared with this process.
  bool Spawn(const std::vector<std::string>& args,
             const std::string& stdout_path) {
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     stdout_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) pid_ = -1;
    return rc == 0;
  }

  /// Non-blocking: true once the process has exited (status filled in).
  bool Exited() {
    if (pid_ <= 0) return true;
    if (::wait4(pid_, &status_, WNOHANG, &usage_) == pid_) pid_ = -1;
    return pid_ <= 0;
  }

  /// Waits up to `timeout_s`; kills the process when it runs over. True
  /// when it exited on its own with status 0.
  bool Wait(double timeout_s) {
    const int64_t deadline = NowMicros() + static_cast<int64_t>(timeout_s * 1e6);
    while (!Exited()) {
      if (NowMicros() > deadline) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status_, 0, &usage_);
        pid_ = -1;
        return false;
      }
      ::usleep(2000);
    }
    return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
  }

  void Signal(int sig) const {
    if (pid_ > 0) ::kill(pid_, sig);
  }
  double PeakRssMb() const { return static_cast<double>(usage_.ru_maxrss) / 1024.0; }

 private:
  pid_t pid_ = -1;
  int status_ = 0;
  rusage usage_{};
};

struct Checks {
  bool all_passed = true;
  void Record(const std::string& name, bool passed, const std::string& detail) {
    std::printf("check %s %s%s%s\n", name.c_str(), passed ? "ok" : "FAILED",
                detail.empty() ? "" : " ", detail.c_str());
    all_passed = all_passed && passed;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Serving helpers.

struct ServerRun {
  Child process;
  std::string socket;
  std::string log;
  double start_s = -1.0;  // spawn until the socket accepts
};

/// This process's CPUs split between the server (all but the highest) and
/// the load generator (the highest), as two machines would be. With a
/// single CPU nothing is pinned.
struct CpuSplit {
  cpu_set_t all;
  cpu_set_t server;
  int loadgen = -1;

  CpuSplit() {
    CPU_ZERO(&all);
    ::sched_getaffinity(0, sizeof(all), &all);
    server = all;
    if (CPU_COUNT(&all) < 2) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && loadgen < 0; --cpu) {
      if (CPU_ISSET(cpu, &all)) loadgen = cpu;
    }
    CPU_CLR(loadgen, &server);
  }
};

bool StartServer(const std::string& serve_bin, const CpuSplit& cpus,
                 const std::string& name, const std::vector<std::string>& extra,
                 ServerRun* server) {
  server->socket = name + ".sock";
  server->log = name + ".log";
  ::unlink(server->socket.c_str());
  std::vector<std::string> args = {serve_bin,
                                   "--model=model.aacm",
                                   "--socket=" + server->socket,
                                   "--max_batch=16",
                                   "--batch_timeout_ms=2",
                                   "--num_threads=" + std::to_string(kServeThreads)};
  args.insert(args.end(), extra.begin(), extra.end());
  const int64_t spawned = NowMicros();
  // The child inherits the spawning thread's affinity.
  ::sched_setaffinity(0, sizeof(cpus.server), &cpus.server);
  const bool started = server->process.Spawn(args, server->log);
  ::sched_setaffinity(0, sizeof(cpus.all), &cpus.all);
  if (!started) return false;
  const int64_t deadline = spawned + 60'000'000;
  while (NowMicros() < deadline) {
    const int fd = ConnectUnix(server->socket);
    if (fd >= 0) {
      server->start_s = static_cast<double>(NowMicros() - spawned) / 1e6;
      ::close(fd);
      return true;
    }
    if (server->process.Exited()) return false;
    ::usleep(200);
  }
  return false;
}

/// SIGTERM is the server's cooperative shutdown: it drains, prints its
/// stats line and exits 0.
bool StopServer(ServerRun* server) {
  server->process.Signal(SIGTERM);
  return server->process.Wait(30.0);
}

/// The server's shutdown line ("shutdown: 3 connections, 100 requests, ...")
/// as label -> count.
std::map<std::string, double> ShutdownStats(const std::string& log_path) {
  std::map<std::string, double> stats;
  const std::string log = ReadFile(log_path);
  const size_t at = log.rfind("shutdown: ");
  if (at == std::string::npos) return stats;
  const std::string line = log.substr(at, log.find('\n', at) - at);
  static const std::regex kCount("([0-9.]+) ([a-z-]+)");
  for (std::sregex_iterator it(line.begin(), line.end(), kCount), end;
       it != end; ++it) {
    stats[(*it)[2]] = std::strtod((*it)[1].str().c_str(), nullptr);
  }
  const size_t occ = line.find("(occupancy ");
  if (occ != std::string::npos) {
    stats["occupancy"] = std::strtod(line.c_str() + occ + 11, nullptr);
  }
  return stats;
}

std::string NodeList(int64_t count) {
  std::string nodes;
  for (int64_t i = 0; i < count; ++i) {
    if (i > 0) nodes += ',';
    nodes += std::to_string(i);
  }
  return nodes;
}

/// `autoac_serve --reference`: the from-scratch answers for nodes
/// [0, count), optionally after replaying a mutation feed.
bool ReferenceAnswers(const std::string& serve_bin, int64_t count,
                      const std::string& feed, std::vector<std::string>* out) {
  std::vector<std::string> args = {serve_bin, "--reference",
                                   "--model=model.aacm",
                                   "--nodes=" + NodeList(count)};
  if (!feed.empty()) args.push_back("--mutation_feed=" + feed);
  Child reference;
  const std::string path = feed.empty() ? "reference.out" : "reference_feed.out";
  if (!reference.Spawn(args, path) || !reference.Wait(120.0)) return false;
  out->clear();
  std::istringstream in(ReadFile(path));
  for (std::string line; std::getline(in, line);) {
    out->push_back(std::string(AnswerOf(line)));
  }
  return static_cast<int64_t>(out->size()) == count &&
         std::none_of(out->begin(), out->end(),
                      [](const std::string& a) { return a.empty(); });
}

std::vector<double> Latencies(const std::vector<StreamResult>& streams,
                              bool server_side) {
  std::vector<double> out;
  for (const StreamResult& s : streams) {
    for (const Sample& sample : s.samples) {
      out.push_back(static_cast<double>(server_side ? sample.server_us
                                                    : sample.latency_us));
    }
  }
  return out;
}

/// Median over `windows` equal slices of the measured window of each
/// slice's p99: one burst of host noise moves one slice, not the metric.
double WindowedP99(const std::vector<StreamResult>& streams, double window_s,
                   int windows) {
  std::vector<std::vector<double>> slices(windows);
  const double slice_us = window_s * 1e6 / windows;
  for (const StreamResult& s : streams) {
    for (const Sample& sample : s.samples) {
      const int slice = std::min(
          windows - 1, static_cast<int>(sample.scheduled_us / slice_us));
      slices[slice].push_back(static_cast<double>(sample.latency_us));
    }
  }
  std::vector<double> p99s;
  for (const auto& slice : slices) p99s.push_back(Percentile(slice, 99.0));
  return Median(p99s);
}

std::vector<double> Lags(const std::vector<StreamResult>& streams) {
  std::vector<double> out;
  for (const StreamResult& s : streams) {
    out.insert(out.end(), s.lag_us.begin(), s.lag_us.end());
  }
  return out;
}

void RunStreams(std::vector<StreamConfig> configs,
                std::vector<StreamResult>* results) {
  results->assign(configs.size(), StreamResult{});
  std::vector<std::thread> threads;
  for (size_t i = 0; i < configs.size(); ++i) {
    threads.emplace_back(RunStream, std::cref(configs[i]), &(*results)[i]);
  }
  for (std::thread& t : threads) t.join();
}

// ---------------------------------------------------------------------------
// The workload.

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  std::string self;
  std::string serve_bin;
};

std::string UnitOf(const std::string& name) {
  if (name.ends_with("_ms")) return "ms";
  if (name.ends_with("_us")) return "us";
  if (name.ends_with("_ns")) return "ns";
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_mb")) return "MB";
  if (name.ends_with("_gflops")) return "GFLOP/s";
  if (name.ends_with("_f1")) return "%";
  if (name.ends_with("share") || name.ends_with("coverage") ||
      name.ends_with("occupancy")) {
    return "ratio";
  }
  return "count";
}

double Stat(const std::map<std::string, double>& stats, const char* label) {
  auto it = stats.find(label);
  return it == stats.end() ? 0.0 : it->second;
}

class WorkloadRun {
 public:
  explicit WorkloadRun(const Options& options) : opt_(options) {}

  int Run() {
    const bool ok = RunPipeline() && RunReadPhase() && RunMixedPhase() &&
                    (!opt_.trace || RunServingProbes());
    if (!ok) checks_.Record("run_completed", false, error_);
    Report();
    return checks_.all_passed ? 0 : 1;
  }

 private:
  // --seconds splits between the fixed-work pipeline (about a quarter at
  // the default), the read window (a quarter) and the mixed window (half,
  // so it holds enough writes for a p90 with ten samples beyond it).
  double ReadWindowS() const { return opt_.seconds / 4.0; }
  double MixedWindowS() const { return opt_.seconds / 2.0; }

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value) {
    Add(name, value, UnitOf(name));
  }

  bool Fail(const std::string& why) {
    error_ = why;
    return false;
  }

  bool SpawnPipeline(bool trace, KeyValues* kv, double* rss_mb = nullptr) {
    Child child;
    const std::string out = trace ? "pipeline_traced.out" : "pipeline.out";
    std::vector<std::string> args = {
        opt_.self, "--child=pipeline",
        std::string("--workload=") + opt_.workload->name,
        "--seed=" + std::to_string(opt_.seed), "--artifact=model.aacm",
        std::string("--trace=") + (trace ? "1" : "0")};
    if (!child.Spawn(args, out) || !child.Wait(kPipelineTimeoutS)) {
      return Fail("pipeline child failed");
    }
    *kv = ParseKv(ReadFile(out));
    if (rss_mb != nullptr) *rss_mb = child.PeakRssMb();
    return true;
  }

  bool RunPipeline() {
    double rss_mb = 0.0;
    if (!SpawnPipeline(false, &pipeline_, &rss_mb)) return false;
    const double f1 = KvNumber(pipeline_, "test_micro_f1");
    checks_.Record("pipeline_f1_floor", f1 >= opt_.workload->f1_floor,
                   "micro-F1 " + std::to_string(f1) + " vs floor " +
                       std::to_string(opt_.workload->f1_floor));
    targets_ = static_cast<int64_t>(KvNumber(pipeline_, "targets"));
    if (!opt_.trace) {
      Add("pipeline_s", KvNumber(pipeline_, "pipeline_s"), "s");
      Add("search_s", KvNumber(pipeline_, "autoac.search_s"), "s");
      Add("retrain_s", KvNumber(pipeline_, "autoac.retrain_s"), "s");
      Add("test_micro_f1", f1, "%");
      Add("pipeline_rss_mb", rss_mb, "MB");
      return true;
    }
    // Traced: a second pipeline process on the same fixed inputs with the
    // profiler on. It must produce the same bits. Its layer numbers are
    // the ones the untraced process cannot give (profile, probes).
    KeyValues traced;
    if (!SpawnPipeline(true, &traced)) return false;
    checks_.Record("profiler_keeps_bits",
                   traced["state_digest"] == pipeline_["state_digest"],
                   pipeline_["state_digest"] + " vs " + traced["state_digest"]);
    for (const KeyValues* kv : {&pipeline_, &traced}) {
      for (const auto& [key, value] : *kv) {
        if (key.find('.') == std::string::npos) continue;
        if (kv == &traced && pipeline_.count(key) > 0) continue;
        AddLayer(key, std::strtod(value.c_str(), nullptr));
      }
    }
    return true;
  }

  StreamConfig Stream(StreamConfig::Kind kind, const ServerRun& server,
                      double rate_rps, uint64_t stream) const {
    StreamConfig cfg;
    cfg.kind = kind;
    cfg.socket_path = server.socket;
    cfg.rate_rps = rate_rps;
    cfg.seed = opt_.seed * 1000003 + stream;
    cfg.cpu = cpus_.loadgen;
    cfg.num_targets = targets_;
    return cfg;
  }

  // Counts sent / failed requests and checks the generator kept its
  // schedule: a late generator would under-offer the load it reports.
  bool Tally(const std::string& phase, const std::vector<StreamResult>& streams) {
    for (const StreamResult& s : streams) {
      if (!s.connected) return Fail(phase + " stream: " + s.first_error);
      attempted_ += s.sent;
      failed_ += s.errors + s.lost;
      if (!s.first_error.empty()) {
        std::fprintf(stderr, "%s: %s\n", phase.c_str(), s.first_error.c_str());
      }
    }
    const double lag_p99 = Percentile(Lags(streams), 99.0);
    checks_.Record(phase + "_loadgen_on_schedule", lag_p99 <= kMaxLagP99Us,
                   "send lag p99 " + std::to_string(lag_p99) + " us");
    if (opt_.trace) AddLayer("loadgen." + phase + "_lag_p99_us", lag_p99);
    return true;
  }

  bool RunReadPhase() {
    if (!ReferenceAnswers(opt_.serve_bin, targets_, "", &reference_)) {
      return Fail("autoac_serve --reference failed");
    }
    // Start-up is set-up time: spawn until the socket accepts (artifact
    // load, verification, compile, first forward). The last start serves.
    std::vector<double> starts;
    ServerRun server;
    for (int k = 0; k < kServerStarts; ++k) {
      ServerRun attempt;
      ServerRun& s = k + 1 == kServerStarts ? server : attempt;
      if (!StartServer(opt_.serve_bin, cpus_, "read", {}, &s)) {
        return Fail("read server did not start");
      }
      starts.push_back(s.start_s);
      if (&s == &attempt && !StopServer(&attempt)) {
        return Fail("read server did not stop");
      }
    }
    const int64_t start = NowMicros() + 10'000;
    const int64_t measure = start + static_cast<int64_t>(kReadWarmupS * 1e6);
    std::vector<StreamConfig> configs;
    for (int c = 0; c < kReadConnections; ++c) {
      StreamConfig cfg = Stream(StreamConfig::Kind::kRead, server,
                                kReadRps / kReadConnections, c);
      cfg.start_us = start;
      cfg.measure_us = measure;
      cfg.end_us = measure + static_cast<int64_t>(ReadWindowS() * 1e6);
      cfg.expected = &reference_;
      configs.push_back(cfg);
    }
    std::vector<StreamResult> reads;
    RunStreams(configs, &reads);
    if (!StopServer(&server)) return Fail("read server did not stop cleanly");
    if (!Tally("read", reads)) return false;
    int64_t mismatches = 0;
    for (const StreamResult& r : reads) mismatches += r.mismatches;
    checks_.Record("reads_match_reference", mismatches == 0,
                   std::to_string(mismatches) + " answers differ");

    const std::vector<double> client = Latencies(reads, false);
    std::printf("%s samples.read %zu count\n", opt_.workload->name,
                client.size());
    if (!opt_.trace) {
      Add("setup_s", KvNumber(pipeline_, "setup_s") + Median(starts), "s");
      Add("read_p50_us", Percentile(client, 50.0), "us");
      Add("read_p99_us", WindowedP99(reads, ReadWindowS(), kP99Windows), "us");
      Add("server_rss_mb", server.process.PeakRssMb(), "MB");
      return true;
    }
    const std::vector<double> server_side = Latencies(reads, true);
    std::vector<double> outside;
    for (const StreamResult& r : reads) {
      for (const Sample& s : r.samples) {
        outside.push_back(static_cast<double>(s.latency_us - s.server_us));
      }
    }
    const std::map<std::string, double> stats = ShutdownStats(server.log);
    AddLayer("serving.start_s", Median(starts));
    AddLayer("serving.server_p50_us", Percentile(server_side, 50.0));
    AddLayer("serving.server_p99_us", Percentile(server_side, 99.0));
    AddLayer("serving.outside_p50_us", Percentile(outside, 50.0));
    AddLayer("serving.read_samples", static_cast<double>(client.size()));
    AddLayer("serving.mean_batch_size",
             Stat(stats, "batches") > 0
                 ? Stat(stats, "requests") / Stat(stats, "batches")
                 : 0.0);
    AddLayer("serving.batch_occupancy", Stat(stats, "occupancy"));
    AddLayer("serving.shed", Stat(stats, "shed"));
    return true;
  }

  bool RunMixedPhase() {
    ServerRun server;
    if (!StartServer(opt_.serve_bin, cpus_, "mixed",
                     {"--enable_mutations", "--staleness_ms=0"}, &server)) {
      return Fail("mixed server did not start");
    }
    const int64_t start = NowMicros() + 10'000;
    const int64_t measure = start + static_cast<int64_t>(kMixedWarmupS * 1e6);
    const int64_t end = measure + static_cast<int64_t>(MixedWindowS() * 1e6);
    StreamConfig read =
        Stream(StreamConfig::Kind::kRead, server, kMixedReadRps, 17);
    read.start_us = start;
    read.measure_us = measure;
    read.end_us = end;
    StreamConfig write =
        Stream(StreamConfig::Kind::kWrite, server, kWriteRps, 29);
    write.start_us = measure;
    write.measure_us = measure;
    write.end_us = end;
    write.edge_type = opt_.workload->write_edge;
    write.node_type = pipeline_["target_type"];
    write.src_count = static_cast<int64_t>(KvNumber(pipeline_, "edge_src_count"));
    write.dst_count = static_cast<int64_t>(KvNumber(pipeline_, "edge_dst_count"));
    std::vector<StreamResult> streams;
    RunStreams({read, write}, &streams);
    const StreamResult& reads = streams[0];
    const StreamResult& writes = streams[1];

    // Every target, the added ones included, must now read exactly as a
    // from-scratch re-export of the mutated graph. An add_edge on DBLP
    // mostly ends in a full refreeze, which recomputes every row, so the
    // feed ends on a few add_node deltas (a partial recompute there) for
    // the check to cover the incremental path too.
    std::vector<std::string> applied = writes.applied;
    std::vector<std::string> tail;
    for (int i = 0; i < kTailDeltas; ++i) {
      tail.push_back("{\"id\":\"" + std::to_string(i) +
                     "\",\"op\":\"add_node\",\"type\":\"" + write.node_type +
                     "\"}");
    }
    std::string tail_error;
    const bool tail_applied =
        ApplyInOrder(server.socket, tail, &applied, &tail_error);
    attempted_ += kTailDeltas;
    const int64_t probe_count = targets_ + writes.added_nodes + kTailDeltas;
    std::vector<std::string> live;
    std::string probe_error;
    const bool probed = ReadAll(server.socket, probe_count, &live, &probe_error);
    attempted_ += probe_count;
    if (!StopServer(&server)) return Fail("mixed server did not stop cleanly");
    if (!Tally("mixed", streams)) return false;
    checks_.Record("mixed_reads_answered", reads.mismatches == 0,
                   std::to_string(reads.mismatches) + " malformed answers");
    checks_.Record("writes_applied",
                   writes.sent > 0 && tail_applied &&
                       static_cast<int64_t>(writes.applied.size()) == writes.sent,
                   std::to_string(writes.applied.size()) + " of " +
                       std::to_string(writes.sent) + " applied" +
                       (tail_applied ? "" : "; " + tail_error));
    {
      std::ofstream feed("applied.jsonl");
      for (const std::string& line : applied) feed << line << "\n";
    }
    std::vector<std::string> expected;
    if (!ReferenceAnswers(opt_.serve_bin, probe_count, "applied.jsonl",
                          &expected)) {
      return Fail("autoac_serve --reference --mutation_feed failed");
    }
    int64_t differ = 0;
    for (int64_t i = 0; i < probe_count; ++i) {
      differ += probed && live[i] == expected[i] ? 0 : 1;
    }
    checks_.Record("mutated_graph_matches_reference", probed && differ == 0,
                   probed ? std::to_string(differ) + " of " +
                                std::to_string(probe_count) + " differ"
                          : probe_error);

    const std::vector<double> read_us = Latencies({reads}, false);
    const std::vector<double> write_us = Latencies({writes}, false);
    std::printf("%s samples.mixed_read %zu count\n", opt_.workload->name,
                read_us.size());
    std::printf("%s samples.write %zu count\n", opt_.workload->name,
                write_us.size());
    if (!opt_.trace) {
      Add("mixed_read_p99_us",
          WindowedP99({reads}, MixedWindowS(), kP99Windows), "us");
      // The mean, not the median: a delta's cost moves between two levels
      // (~45 and ~60 ms on a 4-vCPU VM) in phases of a second or two, and
      // the median of that mixture jumps from one level to the other as
      // the phases' shares shift from run to run.
      Add("write_mean_us",
          std::accumulate(write_us.begin(), write_us.end(), 0.0) /
              std::max<size_t>(1, write_us.size()),
          "us");
      Add("write_p90_us", Percentile(write_us, 90.0), "us");
      return true;
    }
    const std::map<std::string, double> stats = ShutdownStats(server.log);
    AddLayer("serving.mixed_start_s", server.start_s);
    AddLayer("serving.write_server_p50_us",
             Percentile(Latencies({writes}, true), 50.0));
    AddLayer("serving.write_samples", static_cast<double>(write_us.size()));
    AddLayer("serving.dirty_rows", Stat(stats, "dirty-rows"));
    AddLayer("serving.partial_rows", Stat(stats, "partial-rows"));
    AddLayer("serving.mixed_rss_mb", server.process.PeakRssMb());
    return true;
  }

  bool RunServingProbes() {
    Child child;
    const std::vector<std::string> args = {
        opt_.self, "--child=serving_probes",
        std::string("--workload=") + opt_.workload->name,
        "--seed=" + std::to_string(opt_.seed), "--artifact=model.aacm"};
    if (!child.Spawn(args, "probes.out") || !child.Wait(120.0)) {
      return Fail("serving probes failed");
    }
    for (const auto& [key, value] : ParseKv(ReadFile("probes.out"))) {
      AddLayer(key, std::strtod(value.c_str(), nullptr));
    }
    return true;
  }

  void Report() {
    for (const Metric& m : metrics_) {
      std::printf("%s %s %.10g %s\n", opt_.workload->name, m.name.c_str(),
                  m.value, m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += checks_.all_passed ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted_));
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      json += (i > 0 ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
              value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

  Options opt_;
  CpuSplit cpus_;
  KeyValues pipeline_;
  int64_t targets_ = 0;
  std::vector<std::string> reference_;
  std::vector<Metric> metrics_;
  Checks checks_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::string error_;
};

const std::vector<Flags::Spec>& FlagTable() {
  using Type = Flags::Spec::Type;
  static const std::vector<Flags::Spec> kSpecs = {
      {"workload", Type::kString}, {"seed", Type::kInt},
      {"seconds", Type::kDouble},  {"trace", Type::kInt},
      {"serve_bin", Type::kString}, {"work_dir", Type::kString},
      {"child", Type::kString},    {"artifact", Type::kString},
  };
  return kSpecs;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<std::string> problems = flags.Validate(FlagTable());
  const Workload* workload = FindWorkload(flags.GetString("workload", ""));
  if (workload == nullptr) problems.push_back("unknown --workload");
  if (!problems.empty()) {
    for (const std::string& p : problems) std::fprintf(stderr, "error: %s\n", p.c_str());
    std::fprintf(stderr, "workloads:");
    for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 64;
  }
  ChildArgs child;
  child.workload = workload;
  child.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  child.trace = flags.GetInt("trace", 0) != 0;
  child.artifact = flags.GetString("artifact", "");
  const std::string mode = flags.GetString("child", "");
  if (mode == "pipeline") return RunPipelineChild(child);
  if (mode == "serving_probes") return RunServingProbesChild(child);

  Options options;
  options.workload = workload;
  options.seed = child.seed;
  options.trace = child.trace;
  options.seconds = flags.GetDouble("seconds", options.seconds);
  options.serve_bin = flags.GetString("serve_bin", "");
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0 || options.serve_bin.empty() || options.seconds < 3.0) {
    std::fprintf(stderr, "error: need --serve_bin and --seconds >= 3\n");
    return 64;
  }
  options.self.assign(self, static_cast<size_t>(n));
  const std::string work_dir = flags.GetString("work_dir", ".");
  if (::chdir(work_dir.c_str()) != 0) {
    std::fprintf(stderr, "error: cannot enter %s\n", work_dir.c_str());
    return 1;
  }
  return WorkloadRun(options).Run();
}

}  // namespace
}  // namespace autoac::bench

int main(int argc, char** argv) { return autoac::bench::Main(argc, argv); }
