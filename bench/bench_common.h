#ifndef AUTOAC_BENCH_BENCH_COMMON_H_
#define AUTOAC_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "autoac/evaluator.h"
#include "autoac/search.h"
#include "autoac/task.h"
#include "data/hgb_datasets.h"
#include "models/factory.h"
#include "util/flags.h"
#include "util/parallel.h"
#include "util/table.h"

namespace autoac::bench {

/// Shared command-line knobs for all table/figure benches. Defaults are
/// sized so each bench finishes in CPU-minutes at scale 0.15; pass
/// --scale=1.0 --seeds=5 for paper-scale runs.
struct BenchOptions {
  double scale = 0.15;
  int64_t seeds = 2;
  int64_t epochs = 70;
  int64_t search_epochs = 24;
  int64_t eval_every = 2;
  uint64_t seed = 7;

  static BenchOptions FromFlags(const Flags& flags) {
    BenchOptions options;
    // Applied immediately: every kernel behind this bench runs on the shared
    // pool. 0 keeps the AUTOAC_NUM_THREADS / hardware default.
    SetNumThreads(static_cast<int>(flags.GetInt("num_threads", 0)));
    options.scale = flags.GetDouble("scale", options.scale);
    options.seeds = flags.GetInt("seeds", options.seeds);
    options.epochs = flags.GetInt("epochs", options.epochs);
    options.search_epochs =
        flags.GetInt("search_epochs", options.search_epochs);
    options.eval_every = flags.GetInt("eval_every", options.eval_every);
    options.seed = flags.GetInt("seed", options.seed);
    return options;
  }

  ExperimentConfig BaseConfig() const {
    ExperimentConfig config;
    config.train_epochs = epochs;
    config.search_epochs = search_epochs;
    config.eval_every = eval_every;
    config.seed = seed;
    return config;
  }

  Dataset LoadDataset(const std::string& name) const {
    DatasetOptions dataset_options;
    dataset_options.scale = scale;
    dataset_options.seed = seed;
    return MakeDataset(name, dataset_options);
  }
};

/// Per-model hyperparameters mirroring Appendix B's per-baseline configs,
/// condensed to the knobs this implementation exposes.
inline void ApplyModelDefaults(ExperimentConfig& config,
                               const std::string& model) {
  config.model_name = model;
  config.num_layers = 2;
  // AutoAC host-model hyperparameters (Section V-B): lambda and M.
  if (model == "MAGNN") {
    config.lambda = 0.5f;
    config.num_clusters = 8;
  } else {
    config.lambda = 0.4f;
    config.num_clusters = 8;
  }
}

/// Formats a seconds value the way the paper's runtime columns do.
inline std::string Secs(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", seconds);
  return buffer;
}

inline std::string Pct(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f%%", 100.0 * fraction);
  return buffer;
}

}  // namespace autoac::bench

#endif  // AUTOAC_BENCH_BENCH_COMMON_H_
