// google-benchmark microbenchmarks for the serving subsystem
// (src/serving/): the taped vs tape-free evaluation forward (the NoGradGuard
// speedup the serving path and the trainer's eval block both rely on), the
// InferenceSession logits recomputation across thread counts, the
// per-request prediction lookup, and the request-line parser.
//
// Run with --metrics_out=... to emit the telemetry JSONL that
// scripts/check_bench_regression.py gates against BENCH_serving.json.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "benchmark_support.h"
#include "compiler/compiled_graph.h"
#include "completion/completion_module.h"
#include "data/hgb_datasets.h"
#include "models/factory.h"
#include "serving/frozen_model.h"
#include "serving/inference_session.h"
#include "serving/model_registry.h"
#include "serving/server.h"
#include "tensor/graph_ir.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"

namespace autoac {
namespace {

/// Attaches the hardware-independent allocation signal to a benchmark run:
/// heap tensor buffers acquired per iteration of the timed loop. The
/// compiled forward must report 0.0 here (everything lives in the
/// preplanned arena); check_bench_regression.py gates on it.
class AllocCounterScope {
 public:
  explicit AllocCounterScope(benchmark::State& state)
      : state_(state), before_(TensorBuffersAllocated()) {}
  ~AllocCounterScope() {
    state_.counters["tensor_allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(TensorBuffersAllocated() - before_),
        benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  int64_t before_;
};

Dataset& BenchDataset() {
  static Dataset* dataset = [] {
    DatasetOptions options;
    options.scale = 0.1;
    return new Dataset(MakeDataset("dblp", options));
  }();
  return *dataset;
}

ModelContext& BenchContext() {
  static ModelContext* ctx =
      new ModelContext(BuildModelContext(BenchDataset().graph));
  return *ctx;
}

/// A frozen model with untrained (random) weights: forward-pass cost does
/// not depend on the values, so the bench skips the training stage.
FrozenModel* NewBenchFrozen(int hidden_dim) {
  Dataset& dataset = BenchDataset();
  ModelContext& ctx = BenchContext();
  auto* model = new FrozenModel();
  model->model_name = "SimpleHGN";
  model->hidden_dim = hidden_dim;
  model->num_layers = 2;
  model->num_heads = 2;
  model->dropout = 0.1f;
  model->negative_slope = 0.05f;
  model->seed = 1;
  model->num_classes = dataset.graph->num_classes();
  model->graph = dataset.graph;
  Rng rng(model->seed);
  ModelConfig config;
  config.in_dim = model->hidden_dim;
  config.hidden_dim = model->hidden_dim;
  config.out_dim = model->hidden_dim;
  config.num_layers = model->num_layers;
  config.num_heads = model->num_heads;
  config.dropout = model->dropout;
  config.negative_slope = model->negative_slope;
  ModelPtr gnn = MakeModel(model->model_name, config, ctx, rng,
                           /*l2_normalize_output=*/false);
  for (const VarPtr& p : gnn->Parameters()) {
    model->model_params.push_back(p->value);
  }
  model->h0 = RandomNormal({dataset.graph->num_nodes(), model->hidden_dim},
                           0.5f, rng);
  model->classifier_weight =
      RandomNormal({model->hidden_dim, model->num_classes}, 0.1f, rng);
  model->classifier_bias = Tensor::Zeros({model->num_classes});
  model->fingerprint = ComputeFrozenFingerprint(*model);
  return model;
}

FrozenModel& BenchFrozen() {
  static FrozenModel* frozen = NewBenchFrozen(/*hidden_dim=*/64);
  return *frozen;
}

/// Serving-width variant for the artifact-size bench: at hidden 64 the
/// graph's un-quantizable structure bytes (edge lists) dilute the payload
/// ratio; hidden 256 is the width the export-size claim is made at.
FrozenModel& BenchFrozenWide() {
  static FrozenModel* frozen = NewBenchFrozen(/*hidden_dim=*/256);
  return *frozen;
}

/// The full evaluation forward (GNN + linear head), taped: what the trainer
/// paid per validation evaluation before the NoGradGuard satellite.
void BM_EvalForwardTaped(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  FrozenModel& frozen = BenchFrozen();
  ModelContext& ctx = BenchContext();
  ModelConfig config;
  config.in_dim = frozen.hidden_dim;
  config.hidden_dim = frozen.hidden_dim;
  config.out_dim = frozen.hidden_dim;
  config.num_layers = frozen.num_layers;
  config.num_heads = frozen.num_heads;
  config.dropout = frozen.dropout;
  config.negative_slope = frozen.negative_slope;
  Rng rng(frozen.seed);
  ModelPtr model = MakeModel(frozen.model_name, config, ctx, rng,
                             /*l2_normalize_output=*/false);
  VarPtr h0 = MakeConst(frozen.h0);
  VarPtr w = MakeConst(frozen.classifier_weight);
  VarPtr b = MakeConst(frozen.classifier_bias);
  for (auto _ : state) {
    VarPtr h = model->Forward(ctx, h0, /*training=*/false, rng);
    benchmark::DoNotOptimize(AddBias(MatMul(h, w), b));
  }
}
BENCHMARK(BM_EvalForwardTaped)->ArgsProduct({{1, 2, 4, 8}});

/// The same forward under NoGradGuard: no closures, no parent retention,
/// intermediates freed eagerly. The ratio to BM_EvalForwardTaped is the
/// eval-path speedup quoted in the PR description.
void BM_EvalForwardTapeFree(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  FrozenModel& frozen = BenchFrozen();
  ModelContext& ctx = BenchContext();
  ModelConfig config;
  config.in_dim = frozen.hidden_dim;
  config.hidden_dim = frozen.hidden_dim;
  config.out_dim = frozen.hidden_dim;
  config.num_layers = frozen.num_layers;
  config.num_heads = frozen.num_heads;
  config.dropout = frozen.dropout;
  config.negative_slope = frozen.negative_slope;
  Rng rng(frozen.seed);
  ModelPtr model = MakeModel(frozen.model_name, config, ctx, rng,
                             /*l2_normalize_output=*/false);
  VarPtr h0 = MakeConst(frozen.h0);
  VarPtr w = MakeConst(frozen.classifier_weight);
  VarPtr b = MakeConst(frozen.classifier_bias);
  AllocCounterScope allocs(state);
  for (auto _ : state) {
    NoGradGuard no_grad;
    VarPtr h = model->Forward(ctx, h0, /*training=*/false, rng);
    benchmark::DoNotOptimize(AddBias(MatMul(h, w), b));
  }
}
BENCHMARK(BM_EvalForwardTapeFree)->ArgsProduct({{1, 2, 4, 8}});

/// The same forward compiled ahead of time (DESIGN.md §11): IR capture,
/// pass pipeline (folding, fusion, in-place), arena planner. The ratio to
/// BM_EvalForwardTapeFree at 1 thread is the compiler's payoff, and
/// tensor_allocs_per_iter must come out 0.0 — the gated proof that steady
/// state runs entirely out of the preplanned arena.
void BM_EvalForwardCompiled(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  FrozenModel& frozen = BenchFrozen();
  ModelContext& ctx = BenchContext();
  ModelConfig config;
  config.in_dim = frozen.hidden_dim;
  config.hidden_dim = frozen.hidden_dim;
  config.out_dim = frozen.hidden_dim;
  config.num_layers = frozen.num_layers;
  config.num_heads = frozen.num_heads;
  config.dropout = frozen.dropout;
  config.negative_slope = frozen.negative_slope;
  Rng rng(frozen.seed);
  ModelPtr model = MakeModel(frozen.model_name, config, ctx, rng,
                             /*l2_normalize_output=*/false);
  ir::Graph graph;
  {
    IrCapture capture;
    VarPtr h0 = MakeConst(frozen.h0);
    capture.MarkInput(h0, "h0");
    VarPtr h = model->Forward(ctx, h0, /*training=*/false, rng);
    VarPtr logits = AddBias(MatMul(h, MakeConst(frozen.classifier_weight)),
                            MakeConst(frozen.classifier_bias));
    graph = capture.Finish(logits);
  }
  StatusOr<compiler::CompiledGraph> compiled =
      compiler::CompiledGraph::Compile(std::move(graph));
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().message().c_str());
    return;
  }
  compiler::CompiledGraph cg = compiled.TakeValue();
  std::vector<const Tensor*> inputs = {&frozen.h0};
  Tensor out;
  cg.Run(inputs, &out);  // size the output buffer outside the timed loop
  AllocCounterScope allocs(state);
  for (auto _ : state) {
    cg.Run(inputs, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_EvalForwardCompiled)->ArgsProduct({{1, 2, 4, 8}});

/// InferenceSession's cache refresh (the cost of serving a graph update).
void BM_RecomputeLogits(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  InferenceSession session(BenchFrozen());
  AllocCounterScope allocs(state);
  for (auto _ : state) {
    session.RecomputeLogits();
  }
}
BENCHMARK(BM_RecomputeLogits)->ArgsProduct({{1, 2, 4, 8}});

/// Rows per PredictBatch call in the two batch benchmarks below.
constexpr size_t kBatchRows = 64;

/// One PredictBatch call answering kBatchRows predictions from the logits
/// table (the name is the key BENCH_serving.json's gates use): the batch
/// read a server pays when only specific rows are requested, held against
/// a full RecomputeLogits by the relative_gate, with the alloc gate
/// pinning the steady state at 0 tensor buffers.
void BM_BatchHeadPredict(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  InferenceSession session(BenchFrozen());
  std::vector<int64_t> nodes(kBatchRows);
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<int64_t>(i * 13) % session.num_targets();
  }
  {
    StatusOr<std::vector<InferenceSession::Prediction>> warm =
        session.PredictBatch(nodes);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().message().c_str());
      return;
    }
  }
  AllocCounterScope allocs(state);
  for (auto _ : state) {
    StatusOr<std::vector<InferenceSession::Prediction>> batch =
        session.PredictBatch(nodes);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nodes.size()));
}
BENCHMARK(BM_BatchHeadPredict)->ArgsProduct({{1, 4}});

/// BenchFrozen() upgraded to a v2 artifact: H0 really is the completion
/// module's discrete-op output and the completion parameters ride along, so
/// the streaming-mutation overlay (DESIGN.md §12) can re-run completion on
/// a mutated graph. Built once; weights stay untrained (cost, not accuracy).
FrozenModel& BenchFrozenV2() {
  static FrozenModel* frozen = [] {
    auto* model = new FrozenModel(BenchFrozen());
    Rng rng(model->seed + 1);
    CompletionConfig completion_config;
    completion_config.hidden_dim = model->hidden_dim;
    completion_config.ppnp_steps = 3;
    CompletionModule completion(model->graph, completion_config, rng);
    for (int64_t i = 0; i < completion.num_missing(); ++i) {
      model->op_of.push_back(i % 2 == 0 ? CompletionOpType::kMean
                                        : CompletionOpType::kGcn);
    }
    {
      NoGradGuard no_grad;
      model->h0 = completion.CompleteDiscrete(model->op_of)->value;
    }
    model->has_completion = true;
    for (const VarPtr& p : completion.Parameters()) {
      model->completion_params.push_back(p->value);
    }
    model->ppnp_restart = completion_config.ppnp_restart;
    model->ppnp_steps = completion_config.ppnp_steps;
    model->fingerprint = ComputeFrozenFingerprint(*model);
    return model;
  }();
  return *frozen;
}

/// The tentpole's payoff: applying one isolated add_node delta through the
/// mutation overlay. The new node has no edges, so its dirty ball is the
/// node alone and the flush takes the partial subgraph path — the number to
/// hold against BM_RecomputeLogits above (the full-refresh alternative).
/// Iterations are pinned so the overlay graph stays within a few hundred
/// nodes of the export instead of drifting with benchmark repetitions.
void BM_PartialForwardSingleDelta(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  InferenceSession session(BenchFrozenV2());  // staleness 0: Apply flushes
  Mutation mutation;
  mutation.kind = Mutation::Kind::kAddNode;
  mutation.node_type = "author";
  AllocCounterScope allocs(state);
  for (auto _ : state) {
    StatusOr<MutationResult> result = session.Apply(mutation);
    if (!result.ok()) {
      state.SkipWithError(result.status().message().c_str());
      return;
    }
    benchmark::DoNotOptimize(result.value().dirty_rows);
  }
  if (session.partial_recomputes() != session.mutations_applied()) {
    state.SkipWithError("partial path was not taken");
    return;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PartialForwardSingleDelta)
    ->ArgsProduct({{1, 4}})
    ->Iterations(200);

/// Clean-row prediction on a mutation-capable (v2) artifact: Predict keeps
/// its O(num_classes) row-scan cost and stays tensor-alloc-free (gated at 0
/// by BENCH_serving.json).
void BM_MutablePredictClean(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  InferenceSession session(BenchFrozenV2());
  int64_t node = 0;
  AllocCounterScope allocs(state);
  for (auto _ : state) {
    StatusOr<InferenceSession::Prediction> prediction = session.Predict(node);
    benchmark::DoNotOptimize(prediction);
    node = (node + 1) % session.num_targets();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutablePredictClean)->ArgsProduct({{1}});

/// A mutation has landed and been flushed, and the server now needs fresh
/// answers for a kBatchRows-row batch: PredictBatch reads them off the
/// grown logits table — the number to hold against BM_RecomputeLogits
/// (refreshing every row to answer the same rows).
void BM_MutableBatchPredict(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  InferenceSession session(BenchFrozenV2());  // staleness 0: Apply flushes
  Mutation mutation;
  mutation.kind = Mutation::Kind::kAddNode;
  mutation.node_type = "author";
  StatusOr<MutationResult> applied = session.Apply(mutation);
  if (!applied.ok()) {
    state.SkipWithError(applied.status().message().c_str());
    return;
  }
  std::vector<int64_t> nodes(kBatchRows);
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<int64_t>(i * 13) % session.num_targets();
  }
  {
    StatusOr<std::vector<InferenceSession::Prediction>> warm =
        session.PredictBatch(nodes);
    if (!warm.ok()) {
      state.SkipWithError(warm.status().message().c_str());
      return;
    }
  }
  AllocCounterScope allocs(state);
  for (auto _ : state) {
    StatusOr<std::vector<InferenceSession::Prediction>> batch =
        session.PredictBatch(nodes);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(nodes.size()));
}
BENCHMARK(BM_MutableBatchPredict)->ArgsProduct({{1}});

/// Artifact footprint per payload encoding. Not a timing benchmark: the
/// counters carry the hardware-independent size signal that
/// BENCH_serving.json's size_gate checks (fp16 export at least 1.8x smaller
/// than f32, int8 smaller still). Uses the serving-width model so the
/// measured payload has the tensor/structure mix the claim is made at.
void BM_ArtifactBytes(benchmark::State& state) {
  FrozenModel& frozen = BenchFrozenWide();
  auto exported_bytes = [&](TensorEncoding encoding) -> int64_t {
    // A unique path per export: concurrent bench runs must not overwrite
    // each other's artifact between the save and the stat.
    std::string path = "/tmp/autoac_bench_artifact.XXXXXX";
    int fd = ::mkstemp(path.data());
    if (fd < 0) {
      state.SkipWithError("mkstemp failed for the exported artifact");
      return -1;
    }
    ::close(fd);
    FrozenSaveOptions options;
    options.encoding = encoding;
    Status status = SaveFrozenModel(frozen, path, options);
    struct stat st;
    bool sized = status.ok() && ::stat(path.c_str(), &st) == 0;
    std::remove(path.c_str());
    if (!sized) {
      state.SkipWithError(status.ok() ? "stat failed on exported artifact"
                                      : status.message().c_str());
      return -1;
    }
    return static_cast<int64_t>(st.st_size);
  };
  const int64_t f32 = exported_bytes(TensorEncoding::kF32);
  const int64_t f16 = exported_bytes(TensorEncoding::kF16);
  const int64_t i8 = exported_bytes(TensorEncoding::kI8);
  if (f32 <= 0 || f16 <= 0 || i8 <= 0) return;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f32);
  }
  state.counters["f32_bytes"] = static_cast<double>(f32);
  state.counters["f16_bytes"] = static_cast<double>(f16);
  state.counters["i8_bytes"] = static_cast<double>(i8);
  state.counters["f16_size_ratio"] =
      static_cast<double>(f32) / static_cast<double>(f16);
  state.counters["i8_size_ratio"] =
      static_cast<double>(f32) / static_cast<double>(i8);
}
BENCHMARK(BM_ArtifactBytes)->Iterations(1);

/// The steady-state per-request cost: an O(num_classes) row scan.
void BM_Predict(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  InferenceSession session(BenchFrozen());
  int64_t node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.Predict(node));
    node = (node + 1) % session.num_targets();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Predict)->ArgsProduct({{1}});

void BM_ParseServeRequestLine(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  const std::string line = R"({"id": "req-123456", "node": 4242})";
  ServeRequest request;
  std::string error;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParseServeRequestLine(line, &request, &error));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ParseServeRequestLine)->ArgsProduct({{1}});

/// The per-request routing cost added by the tentpole: resolving the
/// "model" key against the registry (shared_ptr copy out of a
/// mutex-guarded map). All names share one session so the bench measures
/// lookup, not session construction.
void BM_RegistryLookup(benchmark::State& state) {
  ThreadCountScope threads(state.range(0));
  ModelRegistry registry;
  auto session = std::make_shared<InferenceSession>(BenchFrozen());
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    names.push_back("model-" + std::to_string(i));
    registry.Register(names.back(), session);
  }
  size_t next = 0;
  std::string resolved;
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.Lookup(names[next], &resolved));
    next = (next + 1) % names.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryLookup)->ArgsProduct({{1}});

}  // namespace
}  // namespace autoac

int main(int argc, char** argv) {
  return autoac::RunBenchmarksMain(argc, argv);
}
