#ifndef AUTOAC_SERVING_INFERENCE_SESSION_H_
#define AUTOAC_SERVING_INFERENCE_SESSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/mutable_graph.h"
#include "serving/frozen_model.h"
#include "util/status.h"

namespace autoac {

/// One streaming graph delta (DESIGN.md §12), as parsed from the serving
/// socket or a --mutation_feed file. Endpoint ids are type-local in the
/// *current* layout (existing nodes keep their export-time locals; added
/// nodes get the locals AddNode returned).
struct Mutation {
  enum class Kind { kAddNode, kAddEdge, kRemoveEdge };
  Kind kind = Kind::kAddNode;
  std::string node_type;          // add_node: type of the new node
  std::vector<float> attributes;  // add_node: optional raw attribute row
  std::string edge_type;          // add_edge / remove_edge
  int64_t src = -1;               // add_edge / remove_edge endpoint locals
  int64_t dst = -1;
  /// When nonzero, the mutation only applies if the live artifact's content
  /// fingerprint matches — the guard against racing a SIGHUP reload that
  /// swapped the model underneath the client.
  uint64_t expect_fingerprint = 0;
};

/// Outcome of one applied mutation, echoed to the client and folded into
/// ServeStats.
struct MutationResult {
  int64_t node = -1;         // add_node: assigned type-local id
  int64_t dirty_rows = 0;    // logits rows in the delta's K-hop ball
  int64_t partial_rows = 0;  // rows the partial path recomputed (0: full)
};

/// The serving session of one hosted model (DESIGN.md §10, §12).
///
/// The benchmark graphs are transductive: every node the model can be asked
/// about is already in the frozen graph, so one forward pass determines
/// every answer. The session publishes one version at a time — a logits
/// table (row = global node id), the target type's offset in it and the
/// target count — and serves each request as an O(classes) row scan of
/// that version; per-request work allocates nothing.
///
/// Create (or the constructor) fills the table with one tape-free forward
/// (RecomputeLogits): it rebuilds the GNN, binds the frozen weights, runs
/// the forward over H0 plus the classifier head (FrozenLogits), and drops
/// the model again. Every answer is bitwise identical to the training-time
/// evaluation forward at any thread count.
///
/// Graph deltas (Apply) go through a mutation overlay that the first delta
/// creates — a MutableGraph and a copy of H0 — so a session that never
/// receives one carries no overlay. Each delta expands a K-hop dirty
/// frontier (K from the artifact's completion operations plus the GNN's
/// receptive depth) and recomputes exactly those rows before Apply
/// returns. The recompute is partial whenever the model is
/// row-decomposable: the support ball around the dirty rows is extracted
/// as a degree-overridden subgraph, the frozen parameters are bound onto a
/// completion module + GNN rebuilt on it, and the dirty rows are scattered
/// into a copy of the published table. Models with global coupling (HAN /
/// MAGNN / HetGNN semantic attention averages over *all* target rows) and
/// deltas whose support ball stops being local take a full refreeze
/// (RefreezeWithGraph), whose forward yields the next table. Both paths
/// are bitwise identical to exporting the mutated graph from scratch.
///
/// Threading: one writer at a time (Apply, RecomputeLogits) and any number
/// of concurrent readers (Predict, PredictBatch, logits, LogitsDigest,
/// num_targets). The writer builds the next version privately, swaps it in
/// under a short lock before it returns, and frees the old table outside
/// the lock; a reader holds the same lock only for its row scans, so it
/// sees either the version before a delta or the one after, never a mix.
/// The mutation counters belong to the writer.
class InferenceSession {
 public:
  /// No settable options: every delta is published before Apply returns.
  struct Options {};

  /// Builds a session and fills its table (RecomputeLogits). LoadFrozenModel
  /// checks everything but the GNN weights, whose shapes only the rebuilt
  /// model knows; a weight that does not fit it is a Status error here.
  /// Every artifact the server hosts goes through this.
  static StatusOr<std::shared_ptr<InferenceSession>> Create(
      FrozenModel frozen);

  /// As Create, but CHECK-fails where Create returns an error: for models
  /// frozen in-process and artifacts a Create has already accepted.
  InferenceSession(FrozenModel frozen, const Options& options);
  explicit InferenceSession(FrozenModel frozen)
      : InferenceSession(std::move(frozen), Options()) {}
  /// A fresh session on `other`'s artifact: none of its deltas, its own
  /// table. The end-to-end benchmark's serving probes
  /// (e2e_bench/serving_probes.cc) build their delta overlay this way.
  InferenceSession(const std::shared_ptr<InferenceSession>& other,
                   const Options& options)
      : InferenceSession(other->frozen(), options) {}

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// One prediction for a target-type node addressed by its type-local id.
  struct Prediction {
    int64_t node = -1;   // echo of the requested local id
    int64_t label = -1;  // argmax class
    float score = 0.0f;  // logit of the argmax class
  };

  /// The prediction a logits row encodes: its first maximal class.
  static Prediction ArgmaxRow(int64_t node, const float* row,
                              int64_t classes);

  /// Prediction for a target-type node addressed by its *current* type-local
  /// id — nodes added after export are addressable as soon as Apply returns
  /// their local id (inductive scoring). Out-of-range ids are a Status error
  /// (the serving front-end turns it into an error response, not a crash).
  StatusOr<Prediction> Predict(int64_t node) const;

  /// Batch prediction (DESIGN.md §10), answered from one published
  /// version: checks every id first — any out-of-range id fails the whole
  /// request with no partial answers — then scans each row, so a batch is
  /// exactly its rows' Predict answers.
  StatusOr<std::vector<Prediction>> PredictBatch(
      const std::vector<int64_t>& nodes) const;

  /// Recomputes the table from the artifact: rebuilds the GNN, binds the
  /// frozen weights, runs the export-time forward, drops the model and
  /// publishes the result. Idempotent — the result is bitwise identical
  /// every time. A weight count or shape that does not fit the rebuilt
  /// model is a Status error and publishes nothing. Exposed for the
  /// thread-invariance tests and the serving benchmarks; a session that has
  /// applied deltas CHECK-fails here.
  Status RecomputeLogits();

  /// Validates, applies and publishes one delta. Distinct errors for:
  /// fingerprint mismatch (SIGHUP swapped the model), unknown node/edge
  /// type, malformed attribute rows, endpoint ids out of range, and removal
  /// of a nonexistent edge; a refused delta changes nothing. On success the
  /// delta's dirty rows are recomputed and the next version is published
  /// before Apply returns.
  StatusOr<MutationResult> Apply(const Mutation& mutation);

  /// FNV-1a digest over the published logits table. The
  /// mutation-equivalence fuzz compares this against the digest of a
  /// from-scratch re-export at every thread count.
  uint64_t LogitsDigest() const;

  /// A copy of the published logits table [num_nodes, num_classes]
  /// (row = current global id).
  Tensor logits() const;

  int64_t num_targets() const;
  int64_t num_classes() const { return frozen_.num_classes; }
  const FrozenModel& frozen() const { return frozen_; }

  // --- observability (writer-side counters) ---------------------------------
  int64_t mutations_applied() const { return mutations_applied_; }
  /// Logits rows recomputed via the partial (subgraph) path.
  int64_t partial_forward_rows() const { return partial_forward_rows_; }
  int64_t partial_recomputes() const { return partial_recomputes_; }
  int64_t full_recomputes() const { return full_recomputes_; }

 private:
  /// Mutation state, created by the first Apply; only the writer touches
  /// it.
  struct Overlay {
    explicit Overlay(const FrozenModel& frozen);

    MutableGraph graph;
    Tensor h0;  // current completed H0
    int64_t model_hops = 0;  // receptive depth of the GNN
    bool partial_capable = false;
    bool ops_present[4] = {false, false, false, false};
  };
  /// What a read needs, published as one unit.
  struct Version {
    Tensor logits;               // [num_nodes, num_classes]
    int64_t target_offset = 0;   // global id of target local 0
    int64_t num_targets = 0;     // target-type node count
  };

  struct Unfilled {};
  /// A session with an empty table; Create and the public constructor
  /// fill it.
  InferenceSession(FrozenModel frozen, Unfilled);

  /// Row scan of a checked id; call under mu_.
  Prediction ReadRow(int64_t node) const;
  /// Swaps `next` in under mu_; the old version is freed after the lock
  /// is released, when `next` goes out of scope.
  void Publish(Version next);
  /// Completion radius of the operations currently in use.
  int64_t CompletionRadius() const;
  /// Subgraph recompute of the sorted dirty rows into `next->logits`, a
  /// copy of the published table with a zero row at `inserted_row` (when
  /// >= 0, an add_node). False when the support ball is not local enough
  /// (caller falls back to FlushFull); then nothing has changed.
  bool TryFlushPartial(const std::vector<int64_t>& dirty_logits,
                       const std::vector<int64_t>& dirty_h0,
                       int64_t inserted_row, Version* next);
  /// Full refreeze: the next table comes from the forward
  /// RefreezeWithGraph runs on the model it rebuilds for the mutated graph.
  void FlushFull(Version* next);

  FrozenModel frozen_;
  int64_t target_type_ = -1;
  std::unique_ptr<Overlay> overlay_;

  /// Guards reads of `published_` against the writer's swap. The writer
  /// reads `published_` without it: only the writer replaces it.
  mutable std::mutex mu_;
  Version published_;

  int64_t mutations_applied_ = 0;
  int64_t partial_forward_rows_ = 0;
  int64_t partial_recomputes_ = 0;
  int64_t full_recomputes_ = 0;
};

}  // namespace autoac

#endif  // AUTOAC_SERVING_INFERENCE_SESSION_H_
