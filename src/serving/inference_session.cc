#include "serving/inference_session.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>

#include "autoac/checkpoint.h"
#include "completion/completion_module.h"
#include "models/factory.h"
#include "tensor/graph_ir.h"
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

}  // namespace

InferenceSession::InferenceSession(FrozenModel frozen, const Options& options)
    : frozen_(std::move(frozen)), options_(options) {
  AUTOAC_CHECK(frozen_.graph != nullptr) << "frozen model has no graph";
  target_type_ = frozen_.graph->target_node_type();
  AUTOAC_CHECK_GE(target_type_, 0) << "frozen model has no target node type";
  target_offset_ = frozen_.graph->node_type(target_type_).offset;
  num_targets_ = frozen_.graph->node_type(target_type_).count;
  Compile();
}

void InferenceSession::Compile() {
  ModelContext ctx = BuildModelContext(frozen_.graph);
  Rng rng(frozen_.seed);  // shapes the init draws the bind overwrites; the
                          // forward never draws (training=false)
  ModelPtr model = MakeModel(frozen_.model_name, FrozenModelConfig(frozen_),
                             ctx, rng, /*l2_normalize_output=*/false);
  std::vector<VarPtr> params = model->Parameters();
  AUTOAC_CHECK_EQ(params.size(), frozen_.model_params.size())
      << "frozen weights do not match the rebuilt " << frozen_.model_name;
  for (size_t i = 0; i < params.size(); ++i) {
    AUTOAC_CHECK(params[i]->value.SameShape(frozen_.model_params[i]))
        << "frozen weight " << i << " has the wrong shape";
    params[i]->value = frozen_.model_params[i];
  }
  // The capture executes eagerly while recording: that *is* the first
  // logits computation.
  ir::Graph graph;
  {
    IrCapture capture;
    VarPtr h0 = MakeConst(frozen_.h0);
    capture.MarkInput(h0, "h0");
    VarPtr h = model->Forward(ctx, h0, /*training=*/false, rng);
    VarPtr logits = AddBias(MatMul(h, MakeConst(frozen_.classifier_weight)),
                            MakeConst(frozen_.classifier_bias));
    graph = capture.Finish(logits);
    logits_ = std::move(logits->value);
  }
  // Every factory architecture compiles (CompiledZooTest); a capture that
  // does not is a missing replay kernel, not a property of the artifact.
  StatusOr<compiler::CompiledGraph> compiled =
      compiler::CompiledGraph::Compile(std::move(graph));
  AUTOAC_CHECK(compiled.ok()) << frozen_.model_name
                              << " forward does not compile: "
                              << compiled.status().message();
  compiled_ = std::make_unique<compiler::CompiledGraph>(compiled.TakeValue());
  compiled_inputs_ = {&frozen_.h0};
}

void InferenceSession::RecomputeLogits() {
  AUTOAC_CHECK(overlay_ == nullptr)
      << "RecomputeLogits replays the export-time graph; a session that "
         "applied deltas recomputes through Flush";
  // Replays the compiled plan into the preplanned arena; after the first
  // call this performs zero heap tensor allocations.
  compiled_->Run(compiled_inputs_, &logits_);
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

Status InferenceSession::CheckNode(int64_t node) const {
  if (node >= 0 && node < num_targets_) return Status::Ok();
  return Status::Error("node id " + std::to_string(node) +
                       " out of range [0, " + std::to_string(num_targets_) +
                       ")");
}

StatusOr<InferenceSession::Prediction> InferenceSession::Predict(
    int64_t node) {
  Status valid = CheckNode(node);
  if (!valid.ok()) return valid;
  const int64_t row = target_offset_ + node;
  if (IsDirty(row)) MaybeFlushForRead();
  return ArgmaxRow(node, logits_.data() + row * logits_.cols(),
                   logits_.cols());
}

StatusOr<std::vector<InferenceSession::Prediction>>
InferenceSession::PredictBatch(const std::vector<int64_t>& nodes) {
  // Any bad id fails the whole request before any row is read, so callers
  // never see partial results.
  for (int64_t node : nodes) {
    Status valid = CheckNode(node);
    if (!valid.ok()) return valid;
  }
  std::vector<Prediction> out;
  out.reserve(nodes.size());
  for (int64_t node : nodes) out.push_back(Predict(node).value());
  return out;
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

void InferenceSession::MarkDirty(const std::vector<int64_t>& logits_rows,
                                 const std::vector<int64_t>& h0_rows,
                                 int64_t* newly_dirty) {
  for (int64_t g : logits_rows) {
    if (overlay_->dirty_logits.insert(g).second) ++*newly_dirty;
  }
  for (int64_t g : h0_rows) overlay_->dirty_h0.insert(g);
}

void InferenceSession::InsertNodeRow(int64_t pos) {
  auto insert_row = [pos](Tensor& t) {
    Tensor grown = Tensor::Zeros({t.rows() + 1, t.cols()});
    const float* src = t.data();
    float* dst = grown.data();
    std::copy(src, src + pos * t.cols(), dst);
    std::copy(src + pos * t.cols(), src + t.rows() * t.cols(),
              dst + (pos + 1) * t.cols());
    t = std::move(grown);
  };
  insert_row(overlay_->h0);
  insert_row(logits_);
  auto shift = [pos](std::unordered_set<int64_t>& ids) {
    std::unordered_set<int64_t> shifted;
    shifted.reserve(ids.size());
    for (int64_t g : ids) shifted.insert(g >= pos ? g + 1 : g);
    ids.swap(shifted);
  };
  shift(overlay_->dirty_logits);
  shift(overlay_->dirty_h0);
}

StatusOr<MutationResult> InferenceSession::Apply(const Mutation& mutation) {
  if (!frozen_.has_completion) {
    return Status::Error(
        "frozen model predates the completion section (v1 artifact); "
        "re-export to enable mutations");
  }
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
  bool was_clean = overlay_->dirty_logits.empty();
  MutationResult result;
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
      InsertNodeRow(pos);
      if (type.value() < target_type_) ++target_offset_;
      if (type.value() == target_type_) ++num_targets_;
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
  int64_t c = CompletionRadius();
  MarkDirty(SortedUnion(graph.Ball(seeds, c + overlay_->model_hops),
                        pre_logits),
            SortedUnion(graph.Ball(seeds, c), pre_h0), &result.dirty_rows);
  ++mutations_applied_;
  if (was_clean && !overlay_->dirty_logits.empty()) {
    overlay_->first_dirty = std::chrono::steady_clock::now();
  }
  if (options_.staleness_ms == 0) Flush();
  return result;
}

void InferenceSession::MaybeFlushForRead() {
  if (options_.staleness_ms <= 0) {
    // staleness 0 flushes inside Apply; a dirty row here means a zero-bound
    // policy race is impossible, but flush defensively anyway.
    Flush();
    return;
  }
  auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - overlay_->first_dirty);
  if (age.count() >= options_.staleness_ms) Flush();
}

void InferenceSession::Flush() {
  if (overlay_ == nullptr ||
      (overlay_->dirty_logits.empty() && overlay_->dirty_h0.empty())) {
    return;
  }
  std::vector<int64_t> dirty_logits(overlay_->dirty_logits.begin(),
                                    overlay_->dirty_logits.end());
  std::sort(dirty_logits.begin(), dirty_logits.end());
  std::vector<int64_t> dirty_h0(overlay_->dirty_h0.begin(),
                                overlay_->dirty_h0.end());
  std::sort(dirty_h0.begin(), dirty_h0.end());
  bool done = overlay_->partial_capable &&
              TryFlushPartial(dirty_logits, dirty_h0);
  if (!done) FlushFull();
  overlay_->dirty_logits.clear();
  overlay_->dirty_h0.clear();
}

bool InferenceSession::TryFlushPartial(
    const std::vector<int64_t>& dirty_logits,
    const std::vector<int64_t>& dirty_h0) {
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
    if (overlay_->dirty_h0.count(sub.sub_to_full[i]) == 0) {
      CopyRow(overlay_->h0, sub.sub_to_full[i], h0_values, i);
    }
  }
  VarPtr h = model->Forward(ctx, h0_sub, /*training=*/false, rng);
  VarPtr logits = AddBias(MatMul(h, MakeConst(fz.classifier_weight)),
                          MakeConst(fz.classifier_bias));
  for (int64_t g : dirty_logits) {
    CopyRow(logits->value, sub.full_to_sub[g], logits_, g);
  }
  for (int64_t g : dirty_h0) {
    CopyRow(h0_values, sub.full_to_sub[g], overlay_->h0, g);
  }
  partial_forward_rows_ += static_cast<int64_t>(dirty_logits.size());
  unreported_partial_rows_ += static_cast<int64_t>(dirty_logits.size());
  ++partial_recomputes_;
  return true;
}

void InferenceSession::FlushFull() {
  const HeteroGraphPtr& compact = overlay_->graph.Compact();
  StatusOr<FrozenModel> refrozen = RefreezeWithGraph(
      frozen_, compact, ExtendOpAssignment(frozen_, *compact), &logits_);
  AUTOAC_CHECK(refrozen.ok()) << refrozen.status().message();
  overlay_->h0 = std::move(refrozen.value().h0);
  ++full_recomputes_;
}

uint64_t InferenceSession::LogitsDigest() {
  Flush();
  return DigestTensor(kFnvOffsetBasis, logits_);
}

const Tensor& InferenceSession::FlushedLogits() {
  Flush();
  return logits_;
}

}  // namespace autoac
