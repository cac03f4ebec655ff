#include "serving/inference_session.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "autoac/checkpoint.h"
#include "completion/completion_module.h"
#include "models/factory.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace autoac {

namespace {

std::string HexFingerprint(uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

/// Sorted union of two sorted id vectors.
std::vector<int64_t> SortedUnion(const std::vector<int64_t>& a,
                                 const std::vector<int64_t>& b) {
  std::vector<int64_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

void CopyRow(const Tensor& src, int64_t src_row, Tensor& dst,
             int64_t dst_row) {
  std::copy(src.data() + src_row * src.cols(),
            src.data() + (src_row + 1) * src.cols(),
            dst.data() + dst_row * dst.cols());
}

/// A copy of `t` with a zero row inserted at `pos` (rows >= pos move down
/// by one); a plain copy when `pos` is negative.
Tensor CopyWithZeroRow(const Tensor& t, int64_t pos) {
  if (pos < 0) return t;
  Tensor grown = Tensor::Zeros({t.rows() + 1, t.cols()});
  const float* src = t.data();
  float* dst = grown.data();
  std::copy(src, src + pos * t.cols(), dst);
  std::copy(src + pos * t.cols(), src + t.rows() * t.cols(),
            dst + (pos + 1) * t.cols());
  return grown;
}

Status OutOfRange(int64_t node, int64_t count) {
  return Status::Error("node id " + std::to_string(node) +
                       " out of range [0, " + std::to_string(count) + ")");
}

}  // namespace

InferenceSession::InferenceSession(FrozenModel frozen, Unfilled)
    : frozen_(std::move(frozen)) {
  AUTOAC_CHECK(frozen_.graph != nullptr) << "frozen model has no graph";
  target_type_ = frozen_.graph->target_node_type();
  AUTOAC_CHECK_GE(target_type_, 0) << "frozen model has no target node type";
  published_.target_offset = frozen_.graph->node_type(target_type_).offset;
  published_.num_targets = frozen_.graph->node_type(target_type_).count;
}

InferenceSession::InferenceSession(FrozenModel frozen,
                                   const Options& /*options*/)
    : InferenceSession(std::move(frozen), Unfilled{}) {
  Status filled = RecomputeLogits();
  AUTOAC_CHECK(filled.ok()) << filled.message();
}

StatusOr<std::shared_ptr<InferenceSession>> InferenceSession::Create(
    FrozenModel frozen) {
  std::shared_ptr<InferenceSession> session(
      new InferenceSession(std::move(frozen), Unfilled{}));
  Status filled = session->RecomputeLogits();
  if (!filled.ok()) return filled;
  return session;
}

Status InferenceSession::RecomputeLogits() {
  AUTOAC_CHECK(overlay_ == nullptr)
      << "RecomputeLogits runs the export-time forward; a session that "
         "applied deltas recomputes inside Apply";
  // The rebuilt GNN lives only for this forward: reads need the table alone.
  NoGradGuard no_grad;
  ModelContext ctx = BuildModelContext(frozen_.graph);
  Rng rng(frozen_.seed);  // shapes the init draws the bind overwrites
  ModelPtr model = MakeModel(frozen_.model_name, FrozenModelConfig(frozen_),
                             ctx, rng, /*l2_normalize_output=*/false);
  std::vector<VarPtr> params = model->Parameters();
  if (params.size() != frozen_.model_params.size()) {
    return Status::Error(
        "frozen model has " + std::to_string(frozen_.model_params.size()) +
        " model_params, the rebuilt " + frozen_.model_name + " has " +
        std::to_string(params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (!params[i]->value.SameShape(frozen_.model_params[i])) {
      return Status::Error("model_params[" + std::to_string(i) +
                           "] has the wrong shape for the rebuilt " +
                           frozen_.model_name);
    }
    params[i]->value = frozen_.model_params[i];
  }
  Version next{FrozenLogits(frozen_, *model, ctx, MakeConst(frozen_.h0)),
               published_.target_offset, published_.num_targets};
  Publish(std::move(next));
  return Status::Ok();
}

void InferenceSession::Publish(Version next) {
  // `next` leaves holding the old version; as a parameter it is destroyed
  // after the lock is released.
  std::lock_guard<std::mutex> lock(mu_);
  std::swap(published_, next);
}

InferenceSession::Prediction InferenceSession::ArgmaxRow(int64_t node,
                                                         const float* row,
                                                         int64_t classes) {
  Prediction prediction;
  prediction.node = node;
  prediction.label = 0;
  prediction.score = row[0];
  for (int64_t c = 1; c < classes; ++c) {
    if (row[c] > prediction.score) {
      prediction.score = row[c];
      prediction.label = c;
    }
  }
  return prediction;
}

InferenceSession::Prediction InferenceSession::ReadRow(int64_t node) const {
  const int64_t classes = published_.logits.cols();
  return ArgmaxRow(
      node,
      published_.logits.data() + (published_.target_offset + node) * classes,
      classes);
}

StatusOr<InferenceSession::Prediction> InferenceSession::Predict(
    int64_t node) const {
  int64_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    count = published_.num_targets;
    if (node >= 0 && node < count) return ReadRow(node);
  }
  return OutOfRange(node, count);
}

StatusOr<std::vector<InferenceSession::Prediction>>
InferenceSession::PredictBatch(const std::vector<int64_t>& nodes) const {
  std::vector<Prediction> out;
  out.reserve(nodes.size());
  int64_t count = 0;
  const int64_t* bad = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    count = published_.num_targets;
    // Any bad id fails the whole request before any row is read, so callers
    // never see partial results.
    for (const int64_t& node : nodes) {
      if (node < 0 || node >= count) {
        bad = &node;
        break;
      }
    }
    if (bad == nullptr) {
      for (int64_t node : nodes) out.push_back(ReadRow(node));
    }
  }
  if (bad != nullptr) return OutOfRange(*bad, count);
  return out;
}

int64_t InferenceSession::num_targets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_.num_targets;
}

Tensor InferenceSession::logits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return published_.logits;
}

uint64_t InferenceSession::LogitsDigest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DigestTensor(kFnvOffsetBasis, published_.logits);
}

// --- mutation overlay (DESIGN.md §12) ----------------------------------------

InferenceSession::Overlay::Overlay(const FrozenModel& fz)
    : graph(fz.graph), h0(fz.h0) {
  // Receptive depth and partial-path eligibility per architecture. The
  // partial path needs every model output row to depend only on a bounded
  // neighbourhood of the input; HAN and MAGNN couple all target rows
  // through SemanticAttention's global mean (as does HetGNN, which also
  // aggregates over non-overridable per-source-type adjacencies), so any
  // delta invalidates every row and only the full refreeze is exact.
  const std::string& name = fz.model_name;
  model_hops = fz.num_layers;
  partial_capable = name == "GCN" || name == "GAT" || name == "SimpleHGN" ||
                    name == "HGT" || name == "HetSANN" || name == "GTN" ||
                    name == "GATNE";
  if (name == "GTN") model_hops = 2;  // one composite (2-hop) convolution
  if (name == "GATNE") model_hops = 1;
  for (CompletionOpType op : fz.op_of) {
    ops_present[static_cast<int>(op)] = true;
  }
}

int64_t InferenceSession::CompletionRadius() const {
  const bool* ops = overlay_->ops_present;
  int64_t c = 0;
  if (ops[static_cast<int>(CompletionOpType::kMean)] ||
      ops[static_cast<int>(CompletionOpType::kGcn)]) {
    c = std::max<int64_t>(c, 1);
  }
  if (ops[static_cast<int>(CompletionOpType::kPpnp)]) {
    c = std::max<int64_t>(c, frozen_.ppnp_steps);
  }
  return c;
}

StatusOr<MutationResult> InferenceSession::Apply(const Mutation& mutation) {
  if (mutation.expect_fingerprint != 0 &&
      mutation.expect_fingerprint != frozen_.fingerprint) {
    return Status::Error("fingerprint mismatch: artifact is " +
                         HexFingerprint(frozen_.fingerprint) +
                         ", mutation expected " +
                         HexFingerprint(mutation.expect_fingerprint) +
                         " (model reloaded?)");
  }
  if (overlay_ == nullptr) overlay_ = std::make_unique<Overlay>(frozen_);
  MutableGraph& graph = overlay_->graph;
  MutationResult result;
  // The next version starts from the published one (read without mu_: only
  // this writer replaces it); its table is filled by the flush below.
  Version next{Tensor(), published_.target_offset, published_.num_targets};
  int64_t inserted_row = -1;
  std::vector<int64_t> seeds;
  // Influence balls of a removal must be measured on the graph that still
  // has the edge: a row that was reachable only through it is dirty too.
  std::vector<int64_t> pre_logits;
  std::vector<int64_t> pre_h0;
  switch (mutation.kind) {
    case Mutation::Kind::kAddNode: {
      StatusOr<int64_t> type = graph.NodeTypeIdOf(mutation.node_type);
      if (!type.ok()) return type.status();
      StatusOr<int64_t> local = graph.AddNode(type.value(),
                                              mutation.attributes);
      if (!local.ok()) return local.status();
      result.node = local.value();
      int64_t pos = graph.GlobalId(type.value(), local.value());
      overlay_->h0 = CopyWithZeroRow(overlay_->h0, pos);
      inserted_row = pos;
      if (type.value() < target_type_) ++next.target_offset;
      if (type.value() == target_type_) ++next.num_targets;
      if (!graph.attributed(type.value())) {
        // The new node completes with the deterministic default operation.
        overlay_->ops_present[static_cast<int>(CompletionOpType::kMean)] =
            true;
      }
      seeds = {pos};
      break;
    }
    case Mutation::Kind::kAddEdge:
    case Mutation::Kind::kRemoveEdge: {
      StatusOr<int64_t> type = graph.EdgeTypeIdOf(mutation.edge_type);
      if (!type.ok()) return type.status();
      const HeteroGraph::EdgeTypeInfo& info =
          frozen_.graph->edge_type(type.value());
      if (mutation.src < 0 ||
          mutation.src >= graph.node_count(info.src_type) ||
          mutation.dst < 0 ||
          mutation.dst >= graph.node_count(info.dst_type)) {
        return Status::Error(
            "edge endpoint out of range for edge type \"" +
            mutation.edge_type + "\"");
      }
      seeds = {graph.GlobalId(info.src_type, mutation.src),
               graph.GlobalId(info.dst_type, mutation.dst)};
      if (mutation.kind == Mutation::Kind::kRemoveEdge) {
        int64_t c = CompletionRadius();
        pre_logits = graph.Ball(seeds, c + overlay_->model_hops);
        pre_h0 = graph.Ball(seeds, c);
        Status removed = graph.RemoveEdge(type.value(), mutation.src,
                                          mutation.dst);
        if (!removed.ok()) return removed;
      } else {
        Status added = graph.AddEdge(type.value(), mutation.src,
                                     mutation.dst);
        if (!added.ok()) return added;
      }
      break;
    }
  }
  // The dirty rows live only until this delta is published: rows within
  // c + h hops are dirty in the logits, rows within c in H0.
  int64_t c = CompletionRadius();
  std::vector<int64_t> dirty_logits = SortedUnion(
      graph.Ball(seeds, c + overlay_->model_hops), pre_logits);
  std::vector<int64_t> dirty_h0 = SortedUnion(graph.Ball(seeds, c), pre_h0);
  result.dirty_rows = static_cast<int64_t>(dirty_logits.size());
  if (overlay_->partial_capable &&
      TryFlushPartial(dirty_logits, dirty_h0, inserted_row, &next)) {
    result.partial_rows = result.dirty_rows;
  } else {
    FlushFull(&next);
  }
  ++mutations_applied_;
  Publish(std::move(next));
  return result;
}

bool InferenceSession::TryFlushPartial(
    const std::vector<int64_t>& dirty_logits,
    const std::vector<int64_t>& dirty_h0, int64_t inserted_row,
    Version* next) {
  const FrozenModel& fz = frozen_;
  MutableGraph& graph = overlay_->graph;
  int64_t c = CompletionRadius();
  // Support ball: every row a dirty logits row reads across the model's
  // layers, plus every row a dirty H0 row aggregates across the completion
  // radius. Rows of S outside those balls only need their *stored* values.
  std::vector<int64_t> support =
      SortedUnion(graph.Ball(dirty_logits, overlay_->model_hops),
                  graph.Ball(dirty_h0, c));
  int64_t num_nodes = graph.num_nodes();
  if (static_cast<int64_t>(support.size()) * 2 > num_nodes) {
    return false;  // not local: the full recompute is cheaper and simpler
  }
  if (static_cast<int64_t>(support.size()) == fz.graph->num_nodes()) {
    // A subgraph with exactly the frozen node count under a non-identity
    // node map defeats the shape-based per-node-parameter detection in
    // BindFrozenParams (a [n_old, d] weight is ambiguous); refreeze instead.
    return false;
  }
  MutableGraph::Subgraph sub = graph.Extract(support);
  const HeteroGraphPtr& compact = graph.Compact();

  // Rebuild completion + model on the subgraph (same construction order as
  // RefreezeWithGraph; the init draws are overwritten by the bind).
  Rng rng(fz.seed);
  CompletionConfig completion_config;
  completion_config.hidden_dim = fz.hidden_dim;
  completion_config.ppnp_restart = fz.ppnp_restart;
  completion_config.ppnp_steps = fz.ppnp_steps;
  CompletionModule completion(sub.graph, completion_config, rng);
  ModelContext ctx = BuildModelContext(sub.graph);
  ModelPtr model = MakeModel(fz.model_name, FrozenModelConfig(fz), ctx, rng,
                             /*l2_normalize_output=*/false);

  // Frozen type-local id of each subgraph node (-1 for post-export nodes).
  std::vector<std::vector<int64_t>> frozen_local_of(
      compact->num_node_types());
  for (int64_t t = 0; t < compact->num_node_types(); ++t) {
    const HeteroGraph::NodeTypeInfo& sub_info = sub.graph->node_type(t);
    const HeteroGraph::NodeTypeInfo& full_info = compact->node_type(t);
    int64_t frozen_count = fz.graph->node_type(t).count;
    frozen_local_of[t].resize(sub_info.count);
    for (int64_t l = 0; l < sub_info.count; ++l) {
      int64_t full_local =
          sub.sub_to_full[sub_info.offset + l] - full_info.offset;
      frozen_local_of[t][l] = full_local < frozen_count ? full_local : -1;
    }
  }
  Status bound = BindFrozenParams(fz, *sub.graph, frozen_local_of,
                                  completion.Parameters(),
                                  model->Parameters());
  if (!bound.ok()) return false;  // e.g. an ambiguous shape: refreeze

  // Completion ops for the subgraph's missing nodes, gathered from the
  // extended full assignment (so both paths complete a node identically).
  std::vector<CompletionOpType> full_ops = ExtendOpAssignment(fz, *compact);
  std::vector<int64_t> full_missing_pos(compact->num_nodes(), -1);
  int64_t next_missing = 0;
  for (int64_t t = 0; t < compact->num_node_types(); ++t) {
    const HeteroGraph::NodeTypeInfo& info = compact->node_type(t);
    if (info.attributes.numel() > 0) continue;
    for (int64_t l = 0; l < info.count; ++l) {
      full_missing_pos[info.offset + l] = next_missing++;
    }
  }
  std::vector<CompletionOpType> sub_ops;
  sub_ops.reserve(completion.num_missing());
  for (int64_t sub_id : completion.missing_nodes()) {
    int64_t pos = full_missing_pos[sub.sub_to_full[sub_id]];
    AUTOAC_CHECK(pos >= 0) << "missing-node bookkeeping out of sync";
    sub_ops.push_back(full_ops[pos]);
  }

  NoGradGuard no_grad;
  VarPtr h0_sub = completion.CompleteDiscrete(sub_ops);
  Tensor& h0_values = h0_sub->value;
  // Hybrid H0: rows whose full-graph counterpart is clean take the stored
  // (exact) value — only dirty rows rely on the subgraph recompute, and
  // their aggregation neighbourhoods are fully inside the support ball.
  for (int64_t i = 0; i < h0_values.rows(); ++i) {
    if (!std::binary_search(dirty_h0.begin(), dirty_h0.end(),
                            sub.sub_to_full[i])) {
      CopyRow(overlay_->h0, sub.sub_to_full[i], h0_values, i);
    }
  }
  Tensor logits = FrozenLogits(fz, *model, ctx, h0_sub);
  next->logits = CopyWithZeroRow(published_.logits, inserted_row);
  for (int64_t g : dirty_logits) {
    CopyRow(logits, sub.full_to_sub[g], next->logits, g);
  }
  for (int64_t g : dirty_h0) {
    CopyRow(h0_values, sub.full_to_sub[g], overlay_->h0, g);
  }
  partial_forward_rows_ += static_cast<int64_t>(dirty_logits.size());
  ++partial_recomputes_;
  return true;
}

void InferenceSession::FlushFull(Version* next) {
  const HeteroGraphPtr& compact = overlay_->graph.Compact();
  StatusOr<FrozenModel> refrozen =
      RefreezeWithGraph(frozen_, compact,
                        ExtendOpAssignment(frozen_, *compact), &next->logits);
  AUTOAC_CHECK(refrozen.ok()) << refrozen.status().message();
  overlay_->h0 = std::move(refrozen.value().h0);
  ++full_recomputes_;
}

}  // namespace autoac
