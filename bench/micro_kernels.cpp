// google-benchmark microbenchmarks for the kernels every experiment is
// built from: dense GEMM, sparse SpMM, edge-softmax attention, the four
// completion operations, the proximal projections, and the modularity loss.
//
// The hot kernels sweep the thread count of the shared parallel runtime
// (util/parallel.h) as their last argument; run
//   micro_kernels --benchmark_filter='MatMul|SpMM'
//       --benchmark_out=BENCH_kernels.json --benchmark_out_format=json
// to record the 1-vs-N scaling (see BENCH_kernels.json at the repo root).

#include "autoac/clustering.h"
#include "autoac/completion_params.h"
#include "benchmark_support.h"
#include "completion/completion_module.h"
#include "data/hgb_datasets.h"
#include "graph/sparse_ops.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace autoac {
namespace {

Dataset& BenchDataset() {
  static Dataset* dataset = [] {
    DatasetOptions options;
    options.scale = 0.1;
    return new Dataset(MakeDataset("dblp", options));
  }();
  return *dataset;
}

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  ThreadCountScope threads(state.range(1));
  Rng rng(1);
  VarPtr a = MakeConst(RandomNormal({n, 64}, 1.0f, rng));
  VarPtr b = MakeConst(RandomNormal({64, 64}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_MatMul)->ArgsProduct({{1024, 4096}, {1, 2, 4, 8}});

void BM_SpMM(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  ThreadCountScope threads(state.range(0));
  SpMatPtr adj = dataset.graph->FullAdjacency(AdjNorm::kSym, true);
  Rng rng(2);
  VarPtr x =
      MakeConst(RandomNormal({dataset.graph->num_nodes(), 64}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpMM(adj, x));
  }
  state.SetItemsProcessed(state.iterations() * adj->nnz() * 64);
}
BENCHMARK(BM_SpMM)->ArgsProduct({{1, 2, 4, 8}});

void BM_EdgeSoftmaxAggregate(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  ThreadCountScope threads(state.range(0));
  SpMatPtr adj = dataset.graph->FullAdjacency(AdjNorm::kNone, true);
  Rng rng(3);
  VarPtr logits = MakeConst(RandomNormal({adj->nnz()}, 1.0f, rng));
  VarPtr h =
      MakeConst(RandomNormal({dataset.graph->num_nodes(), 64}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdgeSoftmaxAggregate(adj, logits, h));
  }
  state.SetItemsProcessed(state.iterations() * adj->nnz() * 64);
}
BENCHMARK(BM_EdgeSoftmaxAggregate)->ArgsProduct({{1, 2, 4, 8}});

void BM_CompletionOp(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  Rng rng(4);
  CompletionConfig config;
  config.hidden_dim = 64;
  static CompletionModule* module =
      new CompletionModule(dataset.graph, config, rng);
  auto op = static_cast<CompletionOpType>(state.range(0));
  VarPtr base = module->BaseFeatures();
  for (auto _ : state) {
    benchmark::DoNotOptimize(module->RunOp(op, base));
  }
}
BENCHMARK(BM_CompletionOp)
    ->Arg(static_cast<int>(CompletionOpType::kMean))
    ->Arg(static_cast<int>(CompletionOpType::kGcn))
    ->Arg(static_cast<int>(CompletionOpType::kPpnp))
    ->Arg(static_cast<int>(CompletionOpType::kOneHot));

void BM_ProxC1(benchmark::State& state) {
  Rng rng(5);
  Tensor alpha = InitCompletionParams(state.range(0), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProxC1(alpha));
  }
}
BENCHMARK(BM_ProxC1)->Arg(16)->Arg(4096);

void BM_ModularityLoss(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  Rng rng(6);
  static ClusterHead* head =
      new ClusterHead(dataset.graph, 64, 8, rng);
  VarPtr hidden =
      MakeConst(RandomNormal({dataset.graph->num_nodes(), 64}, 1.0f, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        head->ModularityLoss(head->Assignments(hidden)));
  }
}
BENCHMARK(BM_ModularityLoss);

void BM_BackwardPass(benchmark::State& state) {
  Dataset& dataset = BenchDataset();
  SpMatPtr adj = dataset.graph->FullAdjacency(AdjNorm::kSym, true);
  Rng rng(7);
  VarPtr w = MakeParam(RandomNormal({64, 64}, 0.1f, rng));
  VarPtr x =
      MakeConst(RandomNormal({dataset.graph->num_nodes(), 64}, 1.0f, rng));
  for (auto _ : state) {
    w->ZeroGrad();
    VarPtr loss = SumSquares(SpMM(adj, MatMul(x, w)));
    Backward(loss);
    benchmark::DoNotOptimize(w->grad.data());
  }
}
BENCHMARK(BM_BackwardPass);

}  // namespace
}  // namespace autoac

int main(int argc, char** argv) {
  return autoac::RunBenchmarksMain(argc, argv);
}
