#include "models/factory.h"

#include "models/homogeneous.h"
#include "models/metapath_models.h"
#include "models/relation_models.h"
#include "models/simple_hgn.h"
#include "util/check.h"

namespace autoac {

ModelPtr MakeModel(const std::string& name, const ModelConfig& config,
                   const ModelContext& ctx, Rng& rng,
                   bool l2_normalize_output) {
  if (name == "GCN") return std::make_unique<GcnModel>(config, rng);
  if (name == "GAT") return std::make_unique<GatModel>(config, rng);
  if (name == "SimpleHGN") {
    return std::make_unique<SimpleHgnModel>(config, ctx, l2_normalize_output,
                                            rng);
  }
  if (name == "HAN") return std::make_unique<HanModel>(config, ctx, rng);
  if (name == "MAGNN") return std::make_unique<MagnnModel>(config, ctx, rng);
  if (name == "HGT") return std::make_unique<HgtModel>(config, ctx, rng);
  if (name == "HetSANN") {
    return std::make_unique<HetSannModel>(config, ctx, rng);
  }
  if (name == "GTN") return std::make_unique<GtnModel>(config, ctx, rng);
  if (name == "HetGNN") return std::make_unique<HetGnnModel>(config, ctx, rng);
  if (name == "GATNE") return std::make_unique<GatneModel>(config, ctx, rng);
  AUTOAC_CHECK(false) << "unknown model" << name;
  return nullptr;
}

std::vector<std::string> AllModelNames() {
  return {"GCN", "GAT",     "SimpleHGN", "HAN",    "MAGNN",
          "HGT", "HetSANN", "GTN",       "HetGNN", "GATNE"};
}

std::vector<std::string> NodeClassificationBaselines() {
  return {"HAN", "GTN", "HetSANN", "MAGNN",
          "HGT", "HetGNN", "GCN", "GAT", "SimpleHGN"};
}

std::vector<std::string> LinkPredictionBaselines() {
  return {"GATNE", "HetGNN", "GCN", "GAT", "SimpleHGN"};
}

}  // namespace autoac
