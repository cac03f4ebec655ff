// Pipeline child of autoac_bench: the paper pipeline through the library's
// public functions, in its own process so its peak RSS is its own.
//
// Untraced: set-up (five times, median), AutoAC through EvaluateMethod,
// export of the trained run as a serving artifact. Per-epoch wall times come
// from the library's own telemetry records (one JSONL line per epoch, the
// profiler stays off).
//
// Traced: the same run with the kernel profiler on, then two layer probes
// on the same data: a step probe that makes the calls of one search epoch
// (discrete-constraint alpha step, then w step) in SearchCompletionOps'
// order with a timer around each, steps alternating profiler off and on,
// and a GEMM probe.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "autoac/clustering.h"
#include "autoac/completion_params.h"
#include "autoac/evaluator.h"
#include "autoac/task.h"
#include "bench.h"
#include "data/hgb_datasets.h"
#include "models/factory.h"
#include "serving/frozen_model.h"
#include "tensor/init.h"
#include "tensor/optimizer.h"
#include "util/parallel.h"
#include "util/profiler.h"
#include "util/telemetry.h"
#include "util/timer.h"

namespace autoac::bench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int kProbeWarmupSteps = 2;
constexpr int kProbeSteps = 20;
constexpr int kGemmRepeats = 30;
constexpr int64_t kGemmDim = 64;

struct EpochTimes {
  std::vector<double> search_ms;   // one per search epoch after the first
  std::vector<double> retrain_ms;  // two-epoch windows / 2, see below
  int64_t train_runs = 0;          // probe retrains + the final retrain
  int64_t retrain_epochs = 0;
};

// Reads the telemetry sink the pipeline wrote. Each record carries "t"
// (seconds since the sink opened), so consecutive epoch records of one loop
// bound one epoch. Training evaluates every second epoch, so the retrain
// figure is the median of two-epoch windows (one evaluated, one not) halved.
EpochTimes ReadEpochTimes(const std::string& path) {
  EpochTimes out;
  std::ifstream in(path);
  std::string line;
  std::vector<double> search_t;
  std::vector<double> train_t;
  auto flush_run = [&] {
    for (size_t i = 2; i < train_t.size(); ++i) {
      out.retrain_ms.push_back((train_t[i] - train_t[i - 2]) * 1e3 / 2.0);
    }
    train_t.clear();
  };
  while (std::getline(in, line)) {
    size_t t_at = line.rfind("\"t\":");
    if (t_at == std::string::npos) continue;
    double t = std::strtod(line.c_str() + t_at + 4, nullptr);
    if (line.starts_with("{\"type\":\"search_epoch\"")) {
      search_t.push_back(t);
    } else if (line.starts_with("{\"type\":\"train_epoch\"")) {
      train_t.push_back(t);
      ++out.retrain_epochs;
    } else if (line.starts_with("{\"type\":\"train_run\"")) {
      ++out.train_runs;
      flush_run();
    }
  }
  for (size_t i = 1; i < search_t.size(); ++i) {
    out.search_ms.push_back((search_t[i] - search_t[i - 1]) * 1e3);
  }
  return out;
}

ExperimentConfig PipelineConfig(const Workload& w) {
  ExperimentConfig config;
  config.model_name = w.model;
  config.search_epochs = kSearchEpochs;
  config.train_epochs = kTrainEpochs;
  config.seed = kTrainSeed;
  config.capture_final_params = true;  // the export needs trained values
  return config;
}

void PrintKernelProfile(double pipeline_ms) {
  double gemm_fwd = 0, gemm_bwd = 0, spmm_fwd = 0, spmm_bwd = 0;
  double softmax_fwd = 0, softmax_bwd = 0, gather = 0, total = 0;
  int64_t gemm_calls = 0;
  for (const ProfileEntry* e : Profiler::Get().ActiveEntries()) {
    double ms = static_cast<double>(e->total_ns.load()) / 1e6;
    total += ms;
    const std::string& n = e->name;
    if (n == "gemm.forward") {
      gemm_fwd += ms;
      gemm_calls += e->calls.load();
    } else if (n == "gemm.backward") {
      gemm_bwd += ms;
      gemm_calls += e->calls.load();
    } else if (n == "spmm.forward" || n == "fused_spmm.forward") {
      spmm_fwd += ms;
    } else if (n == "spmm.backward") {
      spmm_bwd += ms;
    } else if (n == "edge_softmax.forward") {
      softmax_fwd += ms;
    } else if (n == "edge_softmax.backward") {
      softmax_bwd += ms;
    } else if (n.starts_with("gather") || n.starts_with("pair_dot")) {
      gather += ms;
    }
  }
  PrintKv("kernel.gemm_fwd_ms", gemm_fwd);
  PrintKv("kernel.gemm_bwd_ms", gemm_bwd);
  PrintKv("kernel.gemm_calls", static_cast<double>(gemm_calls));
  PrintKv("kernel.gemm_share", (gemm_fwd + gemm_bwd) / pipeline_ms);
  PrintKv("kernel.spmm_fwd_ms", spmm_fwd);
  PrintKv("kernel.spmm_bwd_ms", spmm_bwd);
  PrintKv("kernel.edge_softmax_fwd_ms", softmax_fwd);
  PrintKv("kernel.edge_softmax_bwd_ms", softmax_bwd);
  PrintKv("kernel.edge_softmax_share", (softmax_fwd + softmax_bwd) / pipeline_ms);
  PrintKv("kernel.gather_scatter_ms", gather);
  PrintKv("kernel.unattributed_share", 1.0 - total / pipeline_ms);
}

// Per-step wall time of each layer call of one search epoch.
struct StepTimer {
  std::map<std::string, std::vector<double>> per_layer;  // ms per step
  std::map<std::string, double> current;

  template <typename F>
  auto Time(const std::string& layer, F&& f) {
    WallTimer t;
    auto result = f();
    current[layer] += t.Millis();
    return result;
  }
  // Closes one step; returns the time its timed calls covered.
  double EndStep(bool keep) {
    double covered = 0.0;
    for (const auto& [layer, ms] : current) {
      if (keep) per_layer[layer].push_back(ms);
      covered += ms;
    }
    current.clear();
    return covered;
  }
};

// Makes the calls of SearchCompletionOps' discrete-constraint epoch in its
// order (alpha step on L_val at the one-hot projection, then the w step on
// L_train + lambda L_GmoC, then the cluster refresh) and times each. Steps
// alternate between profiler off and on; the layer times come from the off
// steps, and the ratio of the two step medians is the profiler's cost,
// measured on neighbouring steps so that drift in the host's speed cancels.
void RunStepProbe(const TaskData& task, const ModelContext& ctx,
                  const ExperimentConfig& config) {
  Rng rng(config.seed * 2654435761u + 97);
  CompletionConfig completion_config = config.completion;
  completion_config.hidden_dim = config.hidden_dim;
  CompletionModule completion(task.graph, completion_config, rng);
  const int64_t n_missing = completion.num_missing();
  ModelConfig model_config;
  model_config.in_dim = config.hidden_dim;
  model_config.hidden_dim = config.hidden_dim;
  model_config.out_dim = config.hidden_dim;
  model_config.num_layers = config.num_layers;
  model_config.num_heads = config.num_heads;
  model_config.dropout = config.dropout;
  model_config.negative_slope = config.negative_slope;
  ModelPtr model = MakeModel(config.model_name, model_config, ctx, rng);
  TaskHead head(task, model_config.out_dim, config.mrr_negatives, rng);
  ClusterHead cluster_head(task.graph, model_config.out_dim,
                           std::max<int64_t>(2, config.num_clusters), rng);
  VarPtr alpha = MakeParam(InitCompletionParams(config.num_clusters, rng));
  Adam alpha_optimizer({alpha}, config.lr_alpha, config.wd_alpha);
  std::vector<VarPtr> w_params = completion.Parameters();
  for (const VarPtr& p : model->Parameters()) w_params.push_back(p);
  for (const VarPtr& p : head.Parameters()) w_params.push_back(p);
  for (const VarPtr& p : cluster_head.Parameters()) w_params.push_back(p);
  Adam w_optimizer(w_params, config.lr_w, config.wd_w);
  std::vector<int64_t> cluster_of(n_missing);
  for (int64_t& c : cluster_of) c = rng.UniformInt(0, config.num_clusters - 1);

  StepTimer timer;
  std::vector<double> alpha_step_ms, w_step_ms, profiled_step_ms;
  double covered_total = 0.0, step_total = 0.0;
  int64_t allocs = 0;
  for (int step = 0; step < kProbeWarmupSteps + 2 * kProbeSteps; ++step) {
    const bool measured = step >= kProbeWarmupSteps;
    const bool profiled = measured && step % 2 == 1;
    if (profiled) Profiler::Get().Enable();
    const int64_t allocs_before = TensorBuffersAllocated();
    WallTimer alpha_timer;
    ZeroGrads(w_params);
    alpha->ZeroGrad();
    for (const VarPtr& p : w_params) p->requires_grad = false;
    VarPtr alpha_bar = MakeParam(ProxC1(alpha->value));
    VarPtr h0 = timer.Time("completion.weighted_ms", [&] {
      return completion.CompleteWeighted(alpha_bar, cluster_of, false);
    });
    VarPtr h = timer.Time("models.forward_eval_ms", [&] {
      return model->Forward(ctx, h0, /*training=*/false, rng);
    });
    VarPtr loss_val =
        timer.Time("task.val_loss_ms", [&] { return head.ValLoss(h); });
    timer.Time("task.evaluate_val_ms", [&] { return head.EvaluateVal(h); });
    timer.Time("tensor.backward_alpha_ms", [&] {
      Backward(loss_val);
      return 0;
    });
    alpha->EnsureGrad();
    if (alpha_bar->grad.numel() > 0) {
      std::copy(alpha_bar->grad.data(),
                alpha_bar->grad.data() + alpha_bar->grad.numel(),
                alpha->grad.data());
    }
    timer.Time("tensor.adam_step_ms", [&] {
      alpha_optimizer.Step();
      ProxC2(alpha->value);
      return 0;
    });
    for (const VarPtr& p : w_params) p->requires_grad = true;
    const double alpha_ms = alpha_timer.Millis();

    WallTimer w_timer;
    ZeroGrads(w_params);
    std::vector<CompletionOpType> cluster_ops = ArgmaxOps(ProxC1(alpha->value));
    std::vector<CompletionOpType> op_of(n_missing);
    for (int64_t i = 0; i < n_missing; ++i) op_of[i] = cluster_ops[cluster_of[i]];
    VarPtr h0_train = timer.Time("completion.discrete_ms", [&] {
      return completion.CompleteDiscrete(op_of);
    });
    VarPtr h_train = timer.Time("models.forward_train_ms", [&] {
      return model->Forward(ctx, h0_train, /*training=*/true, rng);
    });
    VarPtr loss = timer.Time("task.train_loss_ms",
                             [&] { return head.TrainLoss(h_train, rng); });
    VarPtr assignments;
    loss = timer.Time("clustering.assign_modularity_ms", [&] {
      assignments = cluster_head.Assignments(h_train);
      return Add(loss, Scale(cluster_head.ModularityLoss(assignments),
                             config.lambda));
    });
    timer.Time("tensor.backward_w_ms", [&] {
      Backward(loss);
      return 0;
    });
    timer.Time("tensor.adam_step_ms", [&] {
      ClipGradNorm(w_params, 5.0f);
      w_optimizer.Step();
      return 0;
    });
    cluster_of = timer.Time("clustering.hard_clusters_ms", [&] {
      return cluster_head.HardClusters(assignments, completion.missing_nodes());
    });
    const double w_ms = w_timer.Millis();
    Profiler::Get().Disable();
    const double covered = timer.EndStep(/*keep=*/measured && !profiled);
    if (profiled) {
      profiled_step_ms.push_back(alpha_ms + w_ms);
    } else if (measured) {
      allocs += TensorBuffersAllocated() - allocs_before;
      alpha_step_ms.push_back(alpha_ms);
      w_step_ms.push_back(w_ms);
      covered_total += covered;
      step_total += alpha_ms + w_ms;
    }
  }
  for (const auto& [layer, values] : timer.per_layer) {
    PrintKv(layer, Median(values));
  }
  std::vector<double> step_ms(alpha_step_ms.size());
  for (size_t i = 0; i < step_ms.size(); ++i) {
    step_ms[i] = alpha_step_ms[i] + w_step_ms[i];
  }
  PrintKv("probe.alpha_step_ms", Median(alpha_step_ms));
  PrintKv("probe.w_step_ms", Median(w_step_ms));
  PrintKv("probe.coverage", covered_total / step_total);
  PrintKv("tensor.allocs_per_step", static_cast<double>(allocs) / kProbeSteps);
  PrintKv("trace.overhead_share", Median(profiled_step_ms) / Median(step_ms) - 1.0);
}

// [N, 64] x [64, 64] with the workload's N. FLOPs are computed, not
// counted: 2*N*64*64 for the forward product, 4*N*64*64 for the backward
// (dA = dY W^T and dW = A^T dY).
void RunGemmProbe(int64_t rows) {
  Rng rng(kTrainSeed);
  VarPtr a = MakeParam(RandomNormal({rows, kGemmDim}, 1.0f, rng));
  VarPtr w = MakeParam(RandomNormal({kGemmDim, kGemmDim}, 0.1f, rng));
  std::vector<double> fwd_s, bwd_s;
  for (int r = 0; r < kGemmRepeats; ++r) {
    WallTimer t;
    VarPtr y = MatMul(a, w);
    fwd_s.push_back(t.Seconds());
    VarPtr loss = SumAll(y);
    ZeroGrads({a, w});
    WallTimer b;
    Backward(loss);
    bwd_s.push_back(b.Seconds());
  }
  const double flops = 2.0 * static_cast<double>(rows) * kGemmDim * kGemmDim;
  PrintKv("tensor.gemm_rows", static_cast<double>(rows));
  PrintKv("tensor.gemm_fwd_gflops", flops / Median(fwd_s) / 1e9);
  PrintKv("tensor.gemm_bwd_gflops", 2.0 * flops / Median(bwd_s) / 1e9);
}

}  // namespace

bool FindDeltaTargets(const HeteroGraph& graph, const Workload& workload,
                      DeltaTargets* out) {
  out->node_type = graph.node_type(graph.target_node_type()).name;
  for (int64_t e = 0; e < graph.num_edge_types(); ++e) {
    const HeteroGraph::EdgeTypeInfo& info = graph.edge_type(e);
    if (info.name != workload.write_edge) continue;
    out->src_count = graph.node_type(info.src_type).count;
    out->dst_count = graph.node_type(info.dst_type).count;
    return true;
  }
  return false;
}

int RunPipelineChild(const ChildArgs& args) {
  const Workload& w = *args.workload;
  SetNumThreads(kPipelineThreads);

  Dataset dataset;
  TaskData task;
  ModelContext ctx;
  std::vector<double> data_s, context_s, setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    WallTimer t;
    DatasetOptions options;
    options.scale = kScale;
    options.seed = kDataSeed;
    dataset = MakeDataset(w.dataset, options);
    task = MakeNodeTask(dataset);
    data_s.push_back(t.Seconds());
    WallTimer c;
    ctx = BuildModelContext(task.graph);
    context_s.push_back(c.Seconds());
    setup_s.push_back(t.Seconds());
  }
  PrintKv("setup_s", Median(setup_s));
  PrintKv("data.make_dataset_s", Median(data_s));
  PrintKv("graph.build_context_s", Median(context_s));

  const HeteroGraph& graph = *task.graph;
  DeltaTargets deltas;
  if (!FindDeltaTargets(graph, w, &deltas)) {
    std::fprintf(stderr, "error: %s has no edge type %s\n", w.dataset,
                 w.write_edge);
    return 1;
  }
  PrintKv("targets",
          static_cast<double>(graph.node_type(graph.target_node_type()).count));
  PrintKv("target_type", deltas.node_type);
  PrintKv("edge_src_count", static_cast<double>(deltas.src_count));
  PrintKv("edge_dst_count", static_cast<double>(deltas.dst_count));

  const ExperimentConfig config = PipelineConfig(w);
  const MethodSpec spec{std::string(w.model) + "-AutoAC", MethodKind::kAutoAc,
                        w.model, CompletionOpType::kOneHot};
  const std::string epochs_path = "pipeline_epochs.jsonl";
  if (!Telemetry::Get().Enable(epochs_path)) {
    std::fprintf(stderr, "error: cannot open %s\n", epochs_path.c_str());
    return 1;
  }
  if (args.trace) {
    Profiler::Get().Reset();
    Profiler::Get().Enable();
  }
  WallTimer pipeline_timer;
  AggregateResult result = EvaluateMethod(task, ctx, config, spec, 1);
  const double pipeline_s = pipeline_timer.Seconds();
  Profiler::Get().Disable();
  Telemetry::Get().Disable();
  if (result.interrupted || result.out_of_memory) {
    std::fprintf(stderr, "error: pipeline did not complete\n");
    return 1;
  }
  const EpochTimes epochs = ReadEpochTimes(epochs_path);
  PrintKv("pipeline_s", pipeline_s);
  PrintKv("test_micro_f1", result.micro_f1.mean);
  PrintKv("autoac.search_s", result.mean_times.search_seconds);
  PrintKv("autoac.retrain_s", result.mean_times.train_seconds);
  PrintKv("autoac.search_epoch_ms", Median(epochs.search_ms));
  PrintKv("autoac.retrain_epoch_ms", Median(epochs.retrain_ms));
  PrintKv("autoac.finalists", static_cast<double>(epochs.train_runs - 1));
  PrintKv("autoac.retrain_epochs", static_cast<double>(epochs.retrain_epochs));
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(result.state_digest));
  PrintKv("state_digest", digest);

  if (args.trace) {
    PrintKernelProfile(pipeline_s * 1e3);
    RunStepProbe(task, ctx, config);
    RunGemmProbe(graph.num_nodes());
    return 0;
  }
  WallTimer export_timer;
  StatusOr<FrozenModel> frozen =
      FreezeTrainedRun(task, ctx, result.last_config, result.last_run);
  if (!frozen.ok()) {
    std::fprintf(stderr, "error: freeze: %s\n",
                 frozen.status().message().c_str());
    return 1;
  }
  Status saved = SaveFrozenModel(frozen.value(), args.artifact);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: save: %s\n", saved.message().c_str());
    return 1;
  }
  PrintKv("autoac.export_s", export_timer.Seconds());
  return 0;
}

}  // namespace autoac::bench
