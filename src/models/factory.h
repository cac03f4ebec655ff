#ifndef AUTOAC_MODELS_FACTORY_H_
#define AUTOAC_MODELS_FACTORY_H_

#include <string>
#include <vector>

#include "models/model.h"

namespace autoac {

/// Creates a model by its table name. Accepted names: "GCN", "GAT",
/// "SimpleHGN", "HAN", "MAGNN", "HGT", "HetSANN", "GTN", "HetGNN", "GATNE".
/// `l2_normalize_output` applies only to SimpleHGN (its link-prediction
/// configuration).
ModelPtr MakeModel(const std::string& name, const ModelConfig& config,
                   const ModelContext& ctx, Rng& rng,
                   bool l2_normalize_output = false);

/// Every name MakeModel accepts, in the order listed above.
std::vector<std::string> AllModelNames();

/// Model names in the grouping order of Table II (meta-path models first).
std::vector<std::string> NodeClassificationBaselines();

/// Model names evaluated on the link-prediction task (Table V).
std::vector<std::string> LinkPredictionBaselines();

}  // namespace autoac

#endif  // AUTOAC_MODELS_FACTORY_H_
