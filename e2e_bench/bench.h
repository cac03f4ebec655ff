#ifndef AUTOAC_E2E_BENCH_BENCH_H_
#define AUTOAC_E2E_BENCH_BENCH_H_

// Shared pieces of autoac_bench, the end-to-end benchmark.
//
// One invocation runs one workload: the AutoAC pipeline in a child process
// (search -> retrain -> evaluate -> export), then the exported artifact
// served by the deployed autoac_serve under a read-only phase and a mixed
// read/write phase. The orchestrator (autoac_bench.cc) never includes the
// serving session headers; the in-process layer probes live in pipeline.cc
// and serving_probes.cc and run only in traced runs.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace autoac {
class HeteroGraph;  // graph/hetero_graph.h
}  // namespace autoac

namespace autoac::bench {

/// One workload: a dataset + host GNN for the pipeline, and the deltas the
/// mixed serving phase streams against the exported artifact.
struct Workload {
  const char* name;
  const char* dataset;  // MakeDataset name
  const char* model;    // host GNN
  /// Test Micro-F1 (%) the pipeline must reach; a floor, not a golden, so
  /// a numerics-changing kernel may move it a little without failing.
  double f1_floor;
  const char* write_edge;  // edge type of the served add_edge deltas
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// What the served deltas address: add_node of the target type (so the
/// read after the mixed window covers the added nodes) and add_edge of
/// `Workload::write_edge` between uniformly drawn endpoints.
struct DeltaTargets {
  std::string node_type;
  int64_t src_count = 0;  // nodes of the edge type's source type
  int64_t dst_count = 0;  // and of its destination type
};
/// False when `graph` has no edge type `workload.write_edge`.
bool FindDeltaTargets(const HeteroGraph& graph, const Workload& workload,
                      DeltaTargets* out);

/// Inputs of the pipeline are fixed per workload (the autoac_run defaults):
/// its cost depends on which completion operations the search visits, which
/// depends on the data, so a seeded dataset would make the measured work
/// itself vary from run to run. The workload seed drives everything served.
constexpr uint64_t kDataSeed = 7;
constexpr uint64_t kTrainSeed = 1;
constexpr double kScale = 0.15;
constexpr int64_t kSearchEpochs = 16;
constexpr int64_t kTrainEpochs = 50;
constexpr int kPipelineThreads = 4;
/// The server computes on one thread. On a 4-vCPU VM a two-thread refreeze
/// was ~10% faster in the median, but its per-delta time varied three to
/// four times as much from one delta to the next.
constexpr int kServeThreads = 1;

/// Flat "key value" protocol between the child modes and the orchestrator:
/// one pair per line on stdout.
using KeyValues = std::map<std::string, std::string>;
void PrintKv(const std::string& key, double value);
void PrintKv(const std::string& key, const std::string& value);
KeyValues ParseKv(const std::string& text);
double KvNumber(const KeyValues& kv, const std::string& key);

inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `values` (averages the middle pair for even sizes); 0 when
/// empty. Takes a copy because it partially sorts.
double Median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Child modes of the autoac_bench binary.
struct ChildArgs {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  bool trace = false;
  std::string artifact;  // exported by the pipeline, read by the probes
};

/// Runs the pipeline (pipeline.cc) and prints its results as key/values;
/// with `trace`, also the profiler breakdown and the step and GEMM probes.
int RunPipelineChild(const ChildArgs& args);

/// In-process serving and compiler probes on `args.artifact`
/// (serving_probes.cc). Traced runs only.
int RunServingProbesChild(const ChildArgs& args);

}  // namespace autoac::bench

#endif  // AUTOAC_E2E_BENCH_BENCH_H_
