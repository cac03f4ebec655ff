// autoac_run: command-line driver for single experiments.
//
//   autoac_run --task=node --dataset=dblp --model=SimpleHGN --method=autoac
//   autoac_run --task=link --dataset=lastfm --method=baseline --seeds=5
//   autoac_run --dataset=acm --method=gcn --save_dataset=acm.aacd
//   autoac_run --load_dataset=acm.aacd --method=autoac
//
// Methods: autoac | baseline | hgnnac | hgca | random | mean | gcn | ppnp |
// onehot. Every ExperimentConfig knob is exposed as a flag; defaults match
// the library defaults.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autoac/checkpoint.h"
#include "autoac/evaluator.h"
#include "data/hgb_datasets.h"
#include "data/serialization.h"
#include "models/factory.h"
#include "serving/frozen_model.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/shutdown.h"
#include "util/telemetry.h"

namespace autoac {
namespace {

/// Every --method value SpecFromName accepts: the method kinds, then the
/// single-op names CompletionOpFromString parses.
const std::vector<std::string>& MethodNames() {
  static const std::vector<std::string> kNames = {
      "autoac", "baseline", "hgnnac", "hgca",  "random",
      "mean",   "gcn",      "ppnp",   "onehot"};
  return kNames;
}

MethodSpec SpecFromName(const std::string& method, const std::string& model) {
  if (method == "autoac") {
    return {model + "-AutoAC", MethodKind::kAutoAc, model,
            CompletionOpType::kOneHot};
  }
  if (method == "baseline") {
    return {model, MethodKind::kBaseline, model, CompletionOpType::kOneHot};
  }
  if (method == "hgnnac") {
    return {model + "-HGNNAC", MethodKind::kHgnnAc, model,
            CompletionOpType::kOneHot};
  }
  if (method == "hgca") {
    return {"HGCA", MethodKind::kHgca, "GCN", CompletionOpType::kMean};
  }
  if (method == "random") {
    return {"Random_AC", MethodKind::kRandomOp, model,
            CompletionOpType::kMean};
  }
  // Otherwise a single-op name: mean/gcn/ppnp/onehot (Run validated it).
  CompletionOpType op = CompletionOpFromString(method);
  return {std::string(CompletionOpName(op)), MethodKind::kSingleOp, model, op};
}

// The CLI's full flag table; anything else on the command line is a usage
// error (satellite hardening: a typo'd flag must not silently run with
// defaults).
const std::vector<Flags::Spec>& FlagTable() {
  using Type = Flags::Spec::Type;
  static const std::vector<Flags::Spec> kSpecs = {
      {"help", Type::kBool},          {"task", Type::kString},
      {"dataset", Type::kString},     {"method", Type::kString},
      {"model", Type::kString},       {"scale", Type::kDouble},
      {"seeds", Type::kInt},          {"epochs", Type::kInt},
      {"search_epochs", Type::kInt},  {"clusters", Type::kInt},
      {"lambda", Type::kDouble},      {"lr", Type::kDouble},
      {"lr_alpha", Type::kDouble},    {"mask_rate", Type::kDouble},
      {"no_discrete", Type::kBool},   {"save_dataset", Type::kString},
      {"load_dataset", Type::kString},{"num_threads", Type::kInt},
      {"metrics_out", Type::kString}, {"seed", Type::kInt},
      {"train_seed", Type::kInt},     {"checkpoint_dir", Type::kString},
      {"checkpoint_every", Type::kInt},
      {"checkpoint_keep", Type::kInt},
      {"resume", Type::kBool},
      {"export_model", Type::kString},
  };
  return kSpecs;
}

/// Appends "--<flag> must be one of a, b, ... (got 'value')" to `problems`
/// unless `value` is in `allowed`.
void CheckOneOf(const std::string& flag, const std::string& value,
                const std::vector<std::string>& allowed,
                std::vector<std::string>* problems) {
  std::string list;
  for (const std::string& name : allowed) {
    if (name == value) return;
    list += list.empty() ? name : ", " + name;
  }
  problems->push_back("--" + flag + " must be one of " + list + " (got '" +
                      value + "')");
}

/// Appends "--<flag> must be at least 1" to `problems` when the flag is
/// given below 1.
void CheckPositive(const Flags& flags, const std::string& flag,
                   std::vector<std::string>* problems) {
  if (flags.Has(flag) && flags.GetInt(flag, 1) < 1) {
    problems->push_back("--" + flag + " must be at least 1 (got " +
                        std::to_string(flags.GetInt(flag, 1)) + ")");
  }
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  std::vector<std::string> problems = flags.Validate(FlagTable());
  // Bad names and counts are usage errors here, not CHECK aborts (or
  // silently empty runs) deep inside the library.
  CheckOneOf("task", flags.GetString("task", "node"), {"node", "link"},
             &problems);
  CheckOneOf("dataset", flags.GetString("dataset", "dblp"),
             AllDatasetNames(), &problems);
  CheckOneOf("model", flags.GetString("model", "SimpleHGN"), AllModelNames(),
             &problems);
  CheckOneOf("method", flags.GetString("method", "autoac"), MethodNames(),
             &problems);
  for (const char* flag : {"seeds", "epochs", "search_epochs", "clusters"}) {
    CheckPositive(flags, flag, &problems);
  }
  // `!(x > 0)` refuses NaN too.
  for (const char* flag : {"scale", "lr", "lr_alpha"}) {
    if (flags.Has(flag) && !(flags.GetDouble(flag, 1.0) > 0.0)) {
      problems.push_back("--" + std::string(flag) + " must be above 0 (got " +
                         flags.GetString(flag, "") + ")");
    }
  }
  if (flags.Has("resume") && flags.GetBool("resume", false) &&
      flags.GetString("checkpoint_dir", "").empty()) {
    problems.push_back("--resume requires --checkpoint_dir");
  }
  if (flags.Has("export_model") &&
      flags.GetString("task", "node") == "link") {
    problems.push_back("--export_model supports --task=node only");
  }
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "error: %s\n", p.c_str());
    }
    std::fprintf(stderr, "run with --help for usage\n");
    return 64;  // EX_USAGE
  }
  // SIGINT/SIGTERM request a cooperative stop at the next epoch boundary
  // (final checkpoint + telemetry flush) instead of killing the process.
  InstallShutdownHandler();
  // 0 keeps the AUTOAC_NUM_THREADS / hardware default; results are bitwise
  // identical at every thread count.
  SetNumThreads(static_cast<int>(flags.GetInt("num_threads", 0)));
  // JSONL metrics sink + kernel profiler (also honors AUTOAC_METRICS_OUT).
  InitTelemetryFromFlag(flags.GetString("metrics_out", ""));
  if (flags.GetBool("help", false)) {
    std::printf(
        "usage: autoac_run [--task=node|link] [--dataset=dblp|acm|imdb|"
        "lastfm]\n"
        "  [--method=autoac|baseline|hgnnac|hgca|random|mean|gcn|ppnp|"
        "onehot]\n"
        "  [--model=SimpleHGN] [--scale=0.25] [--seeds=3] [--epochs=N]\n"
        "  [--search_epochs=N] [--clusters=M] [--lambda=F] [--lr=F]\n"
        "  [--lr_alpha=F] [--mask_rate=0.1] [--no_discrete]\n"
        "  [--save_dataset=PATH] [--load_dataset=PATH] [--num_threads=N]\n"
        "  [--metrics_out=PATH]   JSONL telemetry sink (also: env\n"
        "                         AUTOAC_METRICS_OUT); enables the kernel\n"
        "                         profiler and an end-of-run summary table\n"
        "  [--checkpoint_dir=DIR] crash-safe checkpoints: persist resumable\n"
        "                         search/training state to DIR\n"
        "  [--checkpoint_every=N] epochs between checkpoint writes (5)\n"
        "  [--checkpoint_keep=K]  checkpoint files retained (3)\n"
        "  [--resume]             continue from the newest valid checkpoint\n"
        "                         in --checkpoint_dir (bitwise-identical\n"
        "                         trajectory)\n"
        "  [--export_model=PATH]  freeze the last seed's trained run into a\n"
        "                         serving artifact (node task only); serve\n"
        "                         it with autoac_serve --model=PATH\n"
        "SIGINT/SIGTERM stop cooperatively at the next epoch boundary\n"
        "(writing a final checkpoint when enabled) and exit with status "
        "130.\n");
    return 0;
  }

  // Dataset: generated or loaded from a frozen file.
  Dataset dataset;
  if (flags.Has("load_dataset")) {
    StatusOr<Dataset> loaded =
        LoadDataset(flags.GetString("load_dataset", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
      return 1;
    }
    dataset = loaded.TakeValue();
  } else {
    DatasetOptions options;
    options.scale = flags.GetDouble("scale", 0.25);
    options.seed = flags.GetInt("seed", 7);
    dataset = MakeDataset(flags.GetString("dataset", "dblp"), options);
  }
  if (flags.Has("save_dataset")) {
    Status saved = SaveDataset(dataset, flags.GetString("save_dataset", ""));
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.message().c_str());
      return 1;
    }
    std::printf("dataset written to %s\n",
                flags.GetString("save_dataset", "").c_str());
  }

  // Task.
  bool link = flags.GetString("task", "node") == "link";
  TaskData task;
  if (link) {
    Rng rng(flags.GetInt("seed", 7) + 500);
    task = MakeLinkTask(dataset, flags.GetDouble("mask_rate", 0.1), rng);
  } else {
    task = MakeNodeTask(dataset);
  }
  ModelContext ctx = BuildModelContext(task.graph);

  // Configuration.
  ExperimentConfig config;
  config.task = link ? TaskKind::kLinkPrediction
                     : TaskKind::kNodeClassification;
  std::string model = flags.GetString("model", "SimpleHGN");
  config.model_name = model;
  config.train_epochs = flags.GetInt("epochs", config.train_epochs);
  config.search_epochs =
      flags.GetInt("search_epochs", config.search_epochs);
  config.num_clusters = flags.GetInt("clusters", config.num_clusters);
  config.lambda = static_cast<float>(flags.GetDouble("lambda", config.lambda));
  config.lr_w = static_cast<float>(flags.GetDouble("lr", config.lr_w));
  config.lr_alpha =
      static_cast<float>(flags.GetDouble("lr_alpha", config.lr_alpha));
  config.seed = flags.GetInt("train_seed", 1);
  if (flags.GetBool("no_discrete", false)) {
    config.discrete_constraints = false;
  }

  // Export needs the trained parameter values; capture is off otherwise
  // (the tensors are large and nothing else consumes them).
  config.capture_final_params = flags.Has("export_model");

  config.checkpoint.dir = flags.GetString("checkpoint_dir", "");
  config.checkpoint.every =
      flags.GetInt("checkpoint_every", config.checkpoint.every);
  config.checkpoint.keep =
      flags.GetInt("checkpoint_keep", config.checkpoint.keep);
  config.checkpoint.resume = flags.GetBool("resume", false);

  MethodSpec spec = SpecFromName(flags.GetString("method", "autoac"), model);
  int64_t seeds = flags.GetInt("seeds", 3);

  // A checkpoint only resumes the run it was written by: fingerprint the
  // trajectory-determining configuration plus the dataset/task/method
  // identity this binary adds on top of ExperimentConfig.
  std::unique_ptr<CheckpointManager> ckpt;
  if (!config.checkpoint.dir.empty()) {
    uint64_t fingerprint = ConfigFingerprint(config);
    const std::string& ds = dataset.name;
    fingerprint = Fnv1a(ds.data(), ds.size(), fingerprint);
    fingerprint = Fnv1a(&link, sizeof(link), fingerprint);
    double mask_rate = flags.GetDouble("mask_rate", 0.1);
    fingerprint = Fnv1a(&mask_rate, sizeof(mask_rate), fingerprint);
    const std::string& method = spec.display_name;
    fingerprint = Fnv1a(method.data(), method.size(), fingerprint);
    fingerprint = Fnv1a(&seeds, sizeof(seeds), fingerprint);
    StatusOr<std::unique_ptr<CheckpointManager>> opened =
        CheckpointManager::Open(config.checkpoint, fingerprint);
    if (!opened.ok()) {
      std::fprintf(stderr, "error: %s\n", opened.status().message().c_str());
      return 1;
    }
    ckpt = opened.TakeValue();
  }

  std::printf("%s on %s (%s task, %lld seeds)\n", spec.display_name.c_str(),
              dataset.name.c_str(), link ? "link" : "node",
              static_cast<long long>(seeds));
  AggregateResult result =
      EvaluateMethod(task, ctx, config, spec, seeds, ckpt.get());
  if (result.interrupted) {
    std::printf("interrupted — stopped at an epoch boundary%s\n",
                ckpt ? "; resume with --resume to continue the exact "
                       "trajectory"
                     : "");
    return 130;
  }
  if (result.out_of_memory) {
    std::printf("out of memory (tape exceeded --memory limit)\n");
    return 2;
  }
  if (link) {
    std::printf("ROC-AUC %s  MRR %s\n", Cell(result.roc_auc).c_str(),
                Cell(result.mrr).c_str());
  } else {
    std::printf("Macro-F1 %s  Micro-F1 %s\n", Cell(result.macro_f1).c_str(),
                Cell(result.micro_f1).c_str());
  }
  std::printf("mean wall time per run: %.1fs (pre-learn %.1f / search %.1f / "
              "train %.1f)\n",
              result.total_seconds, result.mean_times.prelearn_seconds,
              result.mean_times.search_seconds,
              result.mean_times.train_seconds);
  if (!result.last_ops.empty()) {
    int64_t counts[kNumCompletionOps] = {0};
    for (CompletionOpType op : result.last_ops) {
      ++counts[static_cast<int>(op)];
    }
    std::printf("searched operations:");
    for (int o = 0; o < kNumCompletionOps; ++o) {
      std::printf(" %s=%.1f%%",
                  CompletionOpName(static_cast<CompletionOpType>(o)),
                  100.0 * counts[o] / result.last_ops.size());
    }
    std::printf("\n");
  }
  // Single-value bitwise-identity witness: final parameters + metrics +
  // searched assignment, chained over all seeds. crash_resume_check.sh
  // compares this line between killed-and-resumed and uninterrupted runs.
  std::printf("state digest: %016llx\n",
              static_cast<unsigned long long>(result.state_digest));
  if (flags.Has("export_model")) {
    const std::string path = flags.GetString("export_model", "");
    StatusOr<FrozenModel> frozen =
        FreezeTrainedRun(task, ctx, result.last_config, result.last_run);
    if (!frozen.ok()) {
      std::fprintf(stderr, "error: --export_model: %s\n",
                   frozen.status().message().c_str());
      return 1;
    }
    Status saved = SaveFrozenModel(frozen.value(), path);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: --export_model: %s\n",
                   saved.message().c_str());
      return 1;
    }
    std::printf("frozen model written to %s (fingerprint %016llx)\n",
                path.c_str(),
                static_cast<unsigned long long>(frozen.value().fingerprint));
  }
  return 0;
}

}  // namespace
}  // namespace autoac

int main(int argc, char** argv) {
  int rc = autoac::Run(argc, argv);
  // Emits the per-kernel profile records + registry snapshot to the JSONL
  // sink and prints the profile summary table (no-op when telemetry is off).
  autoac::ShutdownTelemetry();
  return rc;
}
