#ifndef AUTOAC_SERVING_INFERENCE_SESSION_H_
#define AUTOAC_SERVING_INFERENCE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
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
  int64_t node = -1;       // add_node: assigned type-local id
  int64_t dirty_rows = 0;  // logits rows newly marked dirty by this delta
};

/// The serving session of one hosted model (DESIGN.md §10, §12, §14).
///
/// The benchmark graphs are transductive: every node the model can be asked
/// about is already in the frozen graph, so one forward pass determines
/// every answer. The session holds one logits table (row = global node id)
/// and serves each request as an O(classes) row scan; per-request work
/// allocates nothing.
///
/// The constructor fills the table with one tape-free forward
/// (RecomputeLogits): it rebuilds the GNN, binds the frozen weights, runs
/// the forward over H0 plus the classifier head (FrozenLogits), and drops
/// the model again. Every answer is bitwise identical to the training-time
/// evaluation forward at any thread count.
///
/// Graph deltas (Apply) go through a mutation overlay that the first delta
/// creates — a MutableGraph, the dirty sets, and a copy of H0 — so a
/// session that never receives one carries no overlay. Each delta expands
/// a K-hop dirty frontier (K from the artifact's completion operations
/// plus the GNN's receptive depth); reads of clean rows stay row scans,
/// reads of dirty rows are served stale-but-bounded or recompute first per
/// Options::staleness_ms. The recompute is partial whenever the model is
/// row-decomposable: the support ball around the dirty rows is extracted
/// as a degree-overridden subgraph, the frozen parameters are bound onto a
/// completion module + GNN rebuilt on it, and the dirty rows are scattered
/// back. Models with global coupling (HAN / MAGNN / HetGNN semantic
/// attention averages over *all* target rows) and deltas whose support
/// ball stops being local take a full refreeze (RefreezeWithGraph). Both
/// paths are bitwise identical to exporting the mutated graph from
/// scratch.
///
/// Not thread-safe: the server calls every non-const method from its one
/// batcher thread.
class InferenceSession {
 public:
  struct Options {
    /// 0: every mutation flushes before returning, so reads never observe a
    /// stale row. >0: dirty rows are served from the stale table until the
    /// oldest unflushed mutation is older than this bound, then a read of a
    /// dirty row recomputes first.
    int64_t staleness_ms = 0;
  };

  /// Fills the table (RecomputeLogits). CHECK-fails on internally
  /// inconsistent artifacts (load validation should have rejected them
  /// already).
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
  /// A dirty row follows the staleness policy.
  StatusOr<Prediction> Predict(int64_t node);

  /// Batch prediction (DESIGN.md §14): checks every id first — any
  /// out-of-range id fails the whole request with no partial answers — then
  /// answers each row with Predict, so a batch is exactly its rows' answers.
  StatusOr<std::vector<Prediction>> PredictBatch(
      const std::vector<int64_t>& nodes);

  /// Recomputes the table from the artifact: rebuilds the GNN, binds the
  /// frozen weights, runs the export-time forward, and drops the model.
  /// Idempotent — the result is bitwise identical every time. Exposed for
  /// the thread-invariance tests and the serving benchmarks; a session that
  /// has applied deltas recomputes through Flush instead (CHECK-enforced).
  void RecomputeLogits();

  /// Validates and applies one delta. Distinct errors for: v1 artifacts
  /// (no completion section), fingerprint mismatch (SIGHUP swapped the
  /// model), unknown node/edge type, malformed attribute rows, endpoint
  /// ids out of range, and removal of a nonexistent edge. On success the
  /// dirty frontier is expanded; with staleness_ms == 0 the recompute also
  /// runs before returning.
  StatusOr<MutationResult> Apply(const Mutation& mutation);

  /// Recomputes every dirty row now (partial when possible, full refreeze
  /// otherwise) and clears the frontier. No-op when clean.
  void Flush();

  /// FNV-1a digest over the full logits table after a Flush(). The
  /// mutation-equivalence fuzz compares this against the digest of a
  /// from-scratch re-export at every thread count.
  uint64_t LogitsDigest();

  /// The full logits table after a Flush().
  const Tensor& FlushedLogits();

  int64_t num_targets() const { return num_targets_; }
  int64_t num_classes() const { return frozen_.num_classes; }
  /// Logits table [num_nodes, num_classes] (row = current global id).
  const Tensor& logits() const { return logits_; }
  const FrozenModel& frozen() const { return frozen_; }

  // --- observability (ServeStats feeds from these) --------------------------
  int64_t mutations_applied() const { return mutations_applied_; }
  /// Logits rows recomputed via the partial (subgraph) path.
  int64_t partial_forward_rows() const { return partial_forward_rows_; }
  int64_t partial_recomputes() const { return partial_recomputes_; }
  int64_t full_recomputes() const { return full_recomputes_; }
  /// Rows currently dirty (awaiting a flush).
  int64_t pending_dirty_rows() const {
    return overlay_ == nullptr
               ? 0
               : static_cast<int64_t>(overlay_->dirty_logits.size());
  }
  /// Partial-forward rows not yet folded into ServeStats; the batcher (the
  /// sole consumer) drains this after each dispatch. Resets to zero.
  int64_t TakeUnreportedPartialRows() {
    return std::exchange(unreported_partial_rows_, 0);
  }

 private:
  /// Mutation state, created by the first Apply.
  struct Overlay {
    explicit Overlay(const FrozenModel& frozen);

    MutableGraph graph;
    Tensor h0;  // current completed H0 (exact for clean rows)
    int64_t model_hops = 0;  // receptive depth of the GNN
    bool partial_capable = false;
    bool ops_present[4] = {false, false, false, false};
    std::unordered_set<int64_t> dirty_logits;
    std::unordered_set<int64_t> dirty_h0;
    std::chrono::steady_clock::time_point first_dirty{};
  };

  bool IsDirty(int64_t row) const {
    return overlay_ != nullptr && !overlay_->dirty_logits.empty() &&
           overlay_->dirty_logits.count(row) != 0;
  }
  Status CheckNode(int64_t node) const;
  void MaybeFlushForRead();

  /// Folds one delta's influence balls into the dirty sets (the union of
  /// the balls on the graph before and after applying it — a removal's
  /// influence flowed through the edge that no longer exists). Counts rows
  /// newly marked dirty.
  void MarkDirty(const std::vector<int64_t>& logits_rows,
                 const std::vector<int64_t>& h0_rows, int64_t* newly_dirty);
  /// Shifts dirty ids for a node inserted at global id `pos` (ids >= pos
  /// move up by one) and inserts a zero row into H0 and the logits table.
  void InsertNodeRow(int64_t pos);
  /// Completion radius of the operations currently in use.
  int64_t CompletionRadius() const;
  /// Subgraph recompute of the sorted dirty rows. False when the support
  /// ball is not local enough (caller falls back to FlushFull).
  bool TryFlushPartial(const std::vector<int64_t>& dirty_logits,
                       const std::vector<int64_t>& dirty_h0);
  /// Full refreeze: the logits come from the forward RefreezeWithGraph
  /// runs on the model it rebuilds for the mutated graph.
  void FlushFull();

  FrozenModel frozen_;
  Options options_;
  int64_t target_type_ = -1;
  int64_t target_offset_ = 0;  // current global id of target local 0
  int64_t num_targets_ = 0;    // current target-type node count
  Tensor logits_;  // [num_nodes, num_classes]
  std::unique_ptr<Overlay> overlay_;

  int64_t mutations_applied_ = 0;
  int64_t partial_forward_rows_ = 0;
  int64_t unreported_partial_rows_ = 0;
  int64_t partial_recomputes_ = 0;
  int64_t full_recomputes_ = 0;
};

}  // namespace autoac

#endif  // AUTOAC_SERVING_INFERENCE_SESSION_H_
