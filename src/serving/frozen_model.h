#ifndef AUTOAC_SERVING_FROZEN_MODEL_H_
#define AUTOAC_SERVING_FROZEN_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "autoac/experiment.h"
#include "autoac/task.h"
#include "completion/op.h"
#include "graph/hetero_graph.h"
#include "models/model.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace autoac {

/// A trained AutoAC run frozen into a self-contained serving artifact
/// (DESIGN.md §10). The artifact deliberately contains no optimizer state
/// and no search state. The searched discrete assignment is applied once at
/// export time and the resulting completed attribute matrix H0 is stored
/// materialized, so building a session never re-runs the MEAN/GCN/PPNP
/// aggregations or the one-hot scatter. The trained completion parameters
/// ride along so that a served graph delta can re-run those operations on
/// the rows it dirties (DESIGN.md §12).
///
/// On disk the artifact is the standard checksummed container
/// (data/serialization.h) with magic "AACM": magic | version | size | crc |
/// payload, every tensor stored as raw f32. On top of the CRC (which
/// catches random corruption) the payload embeds a content fingerprint
/// recomputed on load, which catches *coherent* edits — a payload rewritten
/// by a drifted builder, or a field patched without re-freezing — that a
/// checksum written alongside the edit would not.
struct FrozenModel {
  // --- compatibility header -------------------------------------------------
  // Enough of the training-time ExperimentConfig to rebuild the exact GNN
  // the weights belong to. A loader refuses an artifact whose stored
  // fingerprint does not match the one recomputed from this content.
  std::string model_name = "SimpleHGN";
  int64_t hidden_dim = 64;
  int64_t num_layers = 2;
  int64_t num_heads = 2;
  float dropout = 0.1f;
  float negative_slope = 0.05f;
  uint64_t seed = 1;          // training seed (shapes + init stream)
  int64_t num_classes = 0;
  uint64_t fingerprint = 0;   // ComputeFrozenFingerprint over the rest

  // --- frozen content -------------------------------------------------------
  /// The (finalized) training graph; serving rebuilds the model context
  /// (cached adjacencies) from it.
  HeteroGraphPtr graph;
  /// Discretized completion-operation choice per missing node, in
  /// CompletionModule::missing_nodes() order. H0 already holds its result;
  /// every served delta reads it again (ExtendOpAssignment, and the
  /// overlay's completion radius) to complete the rows it dirties.
  std::vector<CompletionOpType> op_of;
  /// Materialized completed attribute matrix [num_nodes, hidden_dim]:
  /// CompleteDiscrete(op_of) evaluated once at export under NoGradGuard.
  Tensor h0;
  /// Trained GNN weights in Model::Parameters() order.
  std::vector<Tensor> model_params;
  /// Node-classification head: logits = h @ weight + bias.
  Tensor classifier_weight;  // [hidden_dim, num_classes]
  Tensor classifier_bias;    // [num_classes]

  // --- completion section ---------------------------------------------------
  // Streaming mutation (DESIGN.md §12) re-runs the completion operations for
  // dirty rows: the trained completion parameters in
  // CompletionModule::Parameters() order plus the PPNP hyperparameters.
  std::vector<Tensor> completion_params;
  float ppnp_restart = 0.15f;
  int64_t ppnp_steps = 6;
};

/// Content fingerprint over every field except `fingerprint` itself
/// (FNV-1a chained over the header fields, graph shape, assignment, and all
/// tensors). Stable across save/load round trips.
uint64_t ComputeFrozenFingerprint(const FrozenModel& model);

/// Freezes a completed training run into a FrozenModel. `run` must come
/// from a node-classification run executed with
/// ExperimentConfig::capture_final_params set (so RunResult::final_params
/// holds the trained values) and must carry the searched assignment.
/// Reconstructs the completion module / model / task head exactly as
/// TrainFixedCompletion does (same Rng(config.seed) construction order, so
/// every shape matches), overwrites their parameters with the trained
/// values, and materializes H0 tape-free.
StatusOr<FrozenModel> FreezeTrainedRun(const TaskData& data,
                                       const ModelContext& ctx,
                                       const ExperimentConfig& config,
                                       const RunResult& run);

/// Writes the artifact atomically (temp + fsync + rename) with magic
/// "AACM". The stored fingerprint is written verbatim from
/// `model.fingerprint` — FreezeTrainedRun sets it; tests exercise the
/// mismatch-refusal path by saving a tampered value.
Status SaveFrozenModel(const FrozenModel& model, const std::string& path);

/// Reads an artifact written by SaveFrozenModel: container magic / version /
/// CRC checks first, then allocation-bounded payload parsing, then
/// structural validation, then fingerprint recomputation. Any mismatch is a
/// Status error naming the field, never a crash. The structural checks
/// cover everything a consumer indexes without rebuilding the GNN: the
/// model name is one MakeModel knows, H0 is [num_nodes, hidden_dim], the
/// classifier is [hidden_dim, num_classes], op_of holds one operation per
/// missing node, and the completion section has the count and shapes
/// CompletionModule builds on the artifact's graph. A payload that ends
/// before the completion section is refused with a re-export hint. The GNN
/// weights are checked where a session rebuilds the model
/// (InferenceSession::Create, RefreezeWithGraph).
StatusOr<FrozenModel> LoadFrozenModel(const std::string& path);

/// Reads only the artifact header (container magic / version / CRC, then the
/// compatibility fields) and returns the *stored* fingerprint without
/// parsing the graph or any tensor. The CRC guards the whole payload, so a
/// match against a live session's fingerprint proves the artifact content is
/// unchanged — the registry uses this to make fingerprint-stable SIGHUP
/// reloads skip the full parse and the forward entirely.
StatusOr<uint64_t> PeekFrozenFingerprint(const std::string& path);

/// Extends the frozen completion-op assignment to a graph grown from
/// frozen.graph (same types, same attributed-ness, nodes appended at the
/// end of each type's local range): existing missing nodes keep their
/// searched operation; missing nodes attached after export get kMean — a
/// deterministic choice shared by the incremental and the full-recompute
/// paths, so both complete a new node identically.
std::vector<CompletionOpType> ExtendOpAssignment(const FrozenModel& frozen,
                                                 const HeteroGraph& graph);

/// Overwrites the values of `completion_params` / `model_params` (the
/// Parameters() of a CompletionModule / Model rebuilt on `graph`) with the
/// frozen model's trained values. `graph` may be the full mutated graph or
/// an extracted subgraph of it; `frozen_local_of[t][l]` maps node (t, l)
/// of `graph` to its frozen type-local id, or -1 for nodes without a
/// frozen counterpart (attached after export). Per-node-row parameters —
/// one-hot embedding tables and [num_nodes, d] model parameters such as
/// GATNE's base embedding — are row-gathered through that map with zero
/// rows for new nodes; everything else must match shape exactly.
Status BindFrozenParams(
    const FrozenModel& frozen, const HeteroGraph& graph,
    const std::vector<std::vector<int64_t>>& frozen_local_of,
    const std::vector<VarPtr>& completion_params,
    const std::vector<VarPtr>& model_params);

/// The GNN configuration `frozen`'s weights belong to (hidden width in and
/// out, layers, heads, dropout, slope).
ModelConfig FrozenModelConfig(const FrozenModel& frozen);

/// The logits [rows, num_classes] every served table holds: `model`'s
/// tape-free evaluation forward over `h0`, then `frozen`'s classifier head.
/// `model` (built on `ctx`) must already hold the frozen weights. The
/// session build, a partial flush and a full refreeze all run this one
/// forward, so each is bitwise identical to the training-time evaluation
/// forward at any thread count.
Tensor FrozenLogits(const FrozenModel& frozen, Model& model,
                    const ModelContext& ctx, const VarPtr& h0);

/// Re-freezes `frozen` onto a mutated graph: rebuilds the completion
/// module and GNN on `graph`, binds the trained parameters
/// (BindFrozenParams with the canonical append layout), re-materializes H0
/// under `op_of` (ExtendOpAssignment of the mutated graph), and recomputes
/// the fingerprint. This *is* the from-scratch reference the incremental
/// path is tested bitwise against, and the full-recompute fallback the
/// serving layer uses when a delta's K-hop ball stops being local. When
/// `logits` is non-null it also receives the FrozenLogits of the rebuilt
/// model over the new H0.
StatusOr<FrozenModel> RefreezeWithGraph(
    const FrozenModel& frozen, HeteroGraphPtr graph,
    const std::vector<CompletionOpType>& op_of, Tensor* logits = nullptr);

}  // namespace autoac

#endif  // AUTOAC_SERVING_FROZEN_MODEL_H_
