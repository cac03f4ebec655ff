#ifndef AUTOAC_BENCH_BENCHMARK_SUPPORT_H_
#define AUTOAC_BENCH_BENCHMARK_SUPPORT_H_

// Shared by the google-benchmark binaries (micro_kernels,
// serving_throughput): thread-count pinning, the telemetry reporter, and a
// main() that accepts --metrics_out.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/parallel.h"
#include "util/telemetry.h"

namespace autoac {

/// Pins the pool to the benchmark's thread-count argument for the duration
/// of one benchmark run, restoring the default afterwards.
class ThreadCountScope {
 public:
  explicit ThreadCountScope(int64_t n) {
    SetNumThreads(static_cast<int>(n));
  }
  ~ThreadCountScope() { SetNumThreads(0); }
};

/// Console display plus one JSONL "bench" record per benchmark run, so the
/// CI bench-smoke job can diff a run against the committed BENCH_*.json
/// baselines (scripts/check_bench_regression.py) with the same record
/// format the trainer telemetry uses.
class TelemetryReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    if (Telemetry::Enabled()) {
      Telemetry::Get().Emit(
          MetricRecord("bench_context")
              .Add("num_cpus",
                   static_cast<int64_t>(context.cpu_info.num_cpus))
              .Add("mhz_per_cpu",
                   context.cpu_info.cycles_per_second / 1e6)
              .Add("num_threads_env", static_cast<int64_t>(NumThreads())));
    }
    return ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& reports) override {
    if (Telemetry::Enabled()) {
      for (const Run& run : reports) {
        if (run.run_type != Run::RT_Iteration || run.error_occurred ||
            run.iterations <= 0) {
          continue;
        }
        // real_accumulated_time is seconds over all iterations; normalize
        // to per-iteration nanoseconds, the unit the baselines keep.
        double wall_ns = run.real_accumulated_time /
                         static_cast<double>(run.iterations) * 1e9;
        MetricRecord record("bench");
        record.Add("name", run.benchmark_name())
            .Add("iterations", run.iterations)
            .Add("wall_time_ns", wall_ns);
        // User counters (tensor_allocs_per_iter, artifact sizes) are
        // already finalized per-iteration values here; the regression gate
        // reads them as hardware-independent signals.
        for (const auto& [name, counter] : run.counters) {
          record.Add(name, counter.value);
        }
        Telemetry::Get().Emit(record);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

/// Runs the registered benchmarks through TelemetryReporter. --metrics_out
/// is ours, not google-benchmark's: it is captured and stripped before
/// Initialize() would reject it as unrecognized.
inline int RunBenchmarksMain(int argc, char** argv) {
  std::string metrics_out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr std::string_view kFlag = "--metrics_out=";
    std::string_view arg(argv[i]);
    if (arg.substr(0, kFlag.size()) == kFlag) {
      metrics_out = std::string(arg.substr(kFlag.size()));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  InitTelemetryFromFlag(metrics_out);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TelemetryReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  ShutdownTelemetry(/*print_profile_table=*/false);
  return 0;
}

}  // namespace autoac

#endif  // AUTOAC_BENCH_BENCHMARK_SUPPORT_H_
