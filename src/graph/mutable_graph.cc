#include "graph/mutable_graph.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace autoac {

MutableGraph::MutableGraph(HeteroGraphPtr base) : base_(std::move(base)) {
  AUTOAC_CHECK(base_ != nullptr);
  for (int64_t t = 0; t < base_->num_node_types(); ++t) {
    const HeteroGraph::NodeTypeInfo& info = base_->node_type(t);
    NodeTypeState state;
    state.name = info.name;
    state.base_count = info.count;
    state.count = info.count;
    state.raw_dim = info.attributes.numel() > 0 ? info.attributes.cols() : 0;
    node_types_.push_back(std::move(state));
  }
  for (int64_t e = 0; e < base_->num_edge_types(); ++e) {
    edge_types_.push_back(base_->edge_type(e));
  }
  // Base edges as (etype, src_local, dst_local) records in ordinal order.
  edges_.reserve(base_->num_edges());
  for (int64_t e = 0; e < base_->num_edges(); ++e) {
    const HeteroGraph::EdgeTypeInfo& et =
        base_->edge_type(base_->edge_type_ids()[e]);
    EdgeRec rec;
    rec.etype = base_->edge_type_ids()[e];
    rec.src_local =
        base_->edge_src()[e] - base_->node_type(et.src_type).offset;
    rec.dst_local =
        base_->edge_dst()[e] - base_->node_type(et.dst_type).offset;
    edges_.push_back(rec);
  }
  live_edges_ = static_cast<int64_t>(edges_.size());
  compact_ = base_;
}

int64_t MutableGraph::num_nodes() const {
  int64_t n = 0;
  for (const NodeTypeState& t : node_types_) n += t.count;
  return n;
}

StatusOr<int64_t> MutableGraph::NodeTypeIdOf(const std::string& name) const {
  for (size_t t = 0; t < node_types_.size(); ++t) {
    if (node_types_[t].name == name) return static_cast<int64_t>(t);
  }
  return Status::Error("unknown node type: " + name);
}

StatusOr<int64_t> MutableGraph::EdgeTypeIdOf(const std::string& name) const {
  for (size_t e = 0; e < edge_types_.size(); ++e) {
    if (edge_types_[e].name == name) return static_cast<int64_t>(e);
  }
  return Status::Error("unknown edge type: " + name);
}

std::vector<int64_t> MutableGraph::Offsets() const {
  std::vector<int64_t> offsets(node_types_.size());
  int64_t offset = 0;
  for (size_t t = 0; t < node_types_.size(); ++t) {
    offsets[t] = offset;
    offset += node_types_[t].count;
  }
  return offsets;
}

int64_t MutableGraph::GlobalId(int64_t node_type, int64_t local) const {
  AUTOAC_CHECK(node_type >= 0 && node_type < num_node_types());
  AUTOAC_CHECK(local >= 0 && local < node_types_[node_type].count);
  int64_t offset = 0;
  for (int64_t t = 0; t < node_type; ++t) offset += node_types_[t].count;
  return offset + local;
}

void MutableGraph::Invalidate() {
  ++version_;
  compact_.reset();
  adjacency_valid_ = false;
}

StatusOr<int64_t> MutableGraph::AddNode(int64_t node_type,
                                        const std::vector<float>& attributes) {
  if (node_type < 0 || node_type >= num_node_types()) {
    return Status::Error("node type id " + std::to_string(node_type) +
                         " out of range");
  }
  NodeTypeState& state = node_types_[node_type];
  if (state.raw_dim == 0) {
    if (!attributes.empty()) {
      return Status::Error("node type " + state.name +
                           " carries no attributes but the delta has " +
                           std::to_string(attributes.size()));
    }
  } else if (!attributes.empty() &&
             static_cast<int64_t>(attributes.size()) != state.raw_dim) {
    return Status::Error(
        "attribute width " + std::to_string(attributes.size()) +
        " does not match node type " + state.name + " (raw_dim " +
        std::to_string(state.raw_dim) + ")");
  }
  if (state.raw_dim > 0) {
    if (attributes.empty()) {
      state.appended_attrs.resize(state.appended_attrs.size() + state.raw_dim,
                                  0.0f);
    } else {
      state.appended_attrs.insert(state.appended_attrs.end(),
                                  attributes.begin(), attributes.end());
    }
  }
  int64_t local = state.count++;
  Invalidate();
  return local;
}

Status MutableGraph::AddEdge(int64_t edge_type, int64_t src_local,
                             int64_t dst_local) {
  if (edge_type < 0 || edge_type >= num_edge_types()) {
    return Status::Error("edge type id " + std::to_string(edge_type) +
                         " out of range");
  }
  const HeteroGraph::EdgeTypeInfo& et = edge_types_[edge_type];
  if (src_local < 0 || src_local >= node_types_[et.src_type].count) {
    return Status::Error("src node " + std::to_string(src_local) +
                         " out of range for type " +
                         node_types_[et.src_type].name);
  }
  if (dst_local < 0 || dst_local >= node_types_[et.dst_type].count) {
    return Status::Error("dst node " + std::to_string(dst_local) +
                         " out of range for type " +
                         node_types_[et.dst_type].name);
  }
  EdgeRec rec;
  rec.etype = edge_type;
  rec.src_local = src_local;
  rec.dst_local = dst_local;
  edges_.push_back(rec);
  ++live_edges_;
  Invalidate();
  return Status::Ok();
}

Status MutableGraph::RemoveEdge(int64_t edge_type, int64_t src_local,
                                int64_t dst_local) {
  if (edge_type < 0 || edge_type >= num_edge_types()) {
    return Status::Error("edge type id " + std::to_string(edge_type) +
                         " out of range");
  }
  const HeteroGraph::EdgeTypeInfo& et = edge_types_[edge_type];
  bool symmetric = et.src_type == et.dst_type;
  for (EdgeRec& rec : edges_) {
    if (!rec.alive || rec.etype != edge_type) continue;
    bool match = rec.src_local == src_local && rec.dst_local == dst_local;
    if (!match && symmetric) {
      match = rec.src_local == dst_local && rec.dst_local == src_local;
    }
    if (match) {
      rec.alive = false;
      --live_edges_;
      Invalidate();
      return Status::Ok();
    }
  }
  return Status::Error("no such edge: type " + et.name + " " +
                       std::to_string(src_local) + " -> " +
                       std::to_string(dst_local));
}

const HeteroGraphPtr& MutableGraph::Compact() {
  if (compact_ != nullptr) return compact_;
  auto graph = std::make_shared<HeteroGraph>();
  for (const NodeTypeState& state : node_types_) {
    int64_t t = graph->AddNodeType(state.name, state.count);
    if (state.raw_dim > 0) {
      Tensor attrs = Tensor::Zeros({state.count, state.raw_dim});
      const Tensor& base_attrs =
          base_->node_type(t).attributes;  // [base_count, raw_dim]
      if (base_attrs.numel() > 0) {
        std::memcpy(attrs.data(), base_attrs.data(),
                    sizeof(float) * base_attrs.numel());
      }
      if (!state.appended_attrs.empty()) {
        std::memcpy(attrs.data() + state.base_count * state.raw_dim,
                    state.appended_attrs.data(),
                    sizeof(float) * state.appended_attrs.size());
      }
      graph->SetAttributes(t, std::move(attrs));
    }
  }
  for (const HeteroGraph::EdgeTypeInfo& et : edge_types_) {
    graph->AddEdgeType(et.name, et.src_type, et.dst_type);
  }
  for (const EdgeRec& rec : edges_) {
    if (!rec.alive) continue;
    graph->AddEdge(rec.etype, rec.src_local, rec.dst_local);
  }
  if (base_->target_node_type() >= 0) {
    graph->SetTargetNodeType(base_->target_node_type());
    const NodeTypeState& target = node_types_[base_->target_node_type()];
    // Base labels live in the target type's global block; nodes attached
    // after export are unlabeled (-1).
    std::vector<int64_t> labels(target.count, -1);
    int64_t base_offset = base_->node_type(base_->target_node_type()).offset;
    for (int64_t i = 0; i < target.base_count; ++i) {
      labels[i] = base_->global_labels()[base_offset + i];
    }
    graph->SetLabels(std::move(labels), base_->num_classes());
  }
  if (base_->target_edge_type() >= 0) {
    graph->SetTargetEdgeType(base_->target_edge_type());
  }
  graph->Finalize();
  compact_ = std::move(graph);
  return compact_;
}

void MutableGraph::EnsureAdjacency() {
  if (adjacency_valid_) return;
  std::vector<int64_t> offsets = Offsets();
  adjacency_.assign(num_nodes(), {});
  for (const EdgeRec& rec : edges_) {
    if (!rec.alive) continue;
    const HeteroGraph::EdgeTypeInfo& et = edge_types_[rec.etype];
    int64_t src = offsets[et.src_type] + rec.src_local;
    int64_t dst = offsets[et.dst_type] + rec.dst_local;
    adjacency_[src].push_back(dst);
    adjacency_[dst].push_back(src);
  }
  adjacency_valid_ = true;
}

std::vector<int64_t> MutableGraph::Ball(const std::vector<int64_t>& seeds,
                                        int64_t radius) {
  EnsureAdjacency();
  int64_t n = num_nodes();
  std::vector<bool> visited(n, false);
  std::vector<int64_t> frontier;
  std::vector<int64_t> result;
  for (int64_t s : seeds) {
    AUTOAC_CHECK(s >= 0 && s < n);
    if (visited[s]) continue;
    visited[s] = true;
    frontier.push_back(s);
    result.push_back(s);
  }
  for (int64_t hop = 0; hop < radius && !frontier.empty(); ++hop) {
    std::vector<int64_t> next;
    for (int64_t v : frontier) {
      for (int64_t u : adjacency_[v]) {
        if (visited[u]) continue;
        visited[u] = true;
        next.push_back(u);
        result.push_back(u);
      }
    }
    frontier = std::move(next);
  }
  std::sort(result.begin(), result.end());
  return result;
}

MutableGraph::Subgraph MutableGraph::Extract(
    const std::vector<int64_t>& nodes) {
  const HeteroGraphPtr& full = Compact();
  int64_t n = full->num_nodes();

  Subgraph sub;
  sub.sub_to_full = nodes;
  sub.full_to_sub.assign(n, -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    AUTOAC_CHECK(nodes[i] >= 0 && nodes[i] < n);
    AUTOAC_CHECK(i == 0 || nodes[i] > nodes[i - 1])
        << "Extract() wants sorted unique node ids";
    sub.full_to_sub[nodes[i]] = static_cast<int64_t>(i);
  }

  auto graph = std::make_shared<HeteroGraph>();
  // Register every node type; members of S keep their relative (ascending
  // full-id) order, so a type's sub-local order matches its full-local
  // order — the property the one-hot row gather and per-node parameter
  // binding rely on.
  std::vector<int64_t> sub_type_offset(node_types_.size(), 0);
  {
    int64_t offset = 0;
    for (int64_t t = 0; t < num_node_types(); ++t) {
      const HeteroGraph::NodeTypeInfo& info = full->node_type(t);
      int64_t count = 0;
      for (int64_t i = 0; i < info.count; ++i) {
        if (sub.full_to_sub[info.offset + i] >= 0) ++count;
      }
      graph->AddNodeType(info.name, count);
      sub_type_offset[t] = offset;
      offset += count;
      if (count > 0 && info.attributes.numel() > 0) {
        Tensor attrs = Tensor::Zeros({count, info.attributes.cols()});
        int64_t row = 0;
        for (int64_t i = 0; i < info.count; ++i) {
          if (sub.full_to_sub[info.offset + i] < 0) continue;
          std::memcpy(attrs.data() + row * attrs.cols(),
                      info.attributes.data() + i * attrs.cols(),
                      sizeof(float) * attrs.cols());
          ++row;
        }
        graph->SetAttributes(t, std::move(attrs));
      }
    }
  }
  for (const HeteroGraph::EdgeTypeInfo& et : edge_types_) {
    graph->AddEdgeType(et.name, et.src_type, et.dst_type);
  }
  // Edges of the induced subgraph, in the same ordinal order the full
  // compacted graph enumerates them: interior sub rows then bucket their
  // columns in exactly the full graph's per-row order.
  for (int64_t e = 0; e < full->num_edges(); ++e) {
    int64_t src = full->edge_src()[e];
    int64_t dst = full->edge_dst()[e];
    if (sub.full_to_sub[src] < 0 || sub.full_to_sub[dst] < 0) continue;
    const HeteroGraph::EdgeTypeInfo& et =
        edge_types_[full->edge_type_ids()[e]];
    graph->AddEdge(full->edge_type_ids()[e],
                   sub.full_to_sub[src] - sub_type_offset[et.src_type],
                   sub.full_to_sub[dst] - sub_type_offset[et.dst_type]);
  }
  graph->Finalize();

  // Full-graph degrees for every normalization the adjacency builders
  // apply, gathered onto the subgraph's id space.
  DegreeOverrides overrides;
  int64_t s = static_cast<int64_t>(nodes.size());
  overrides.structural.resize(s);
  for (int64_t i = 0; i < s; ++i) {
    overrides.structural[i] = full->degrees()[nodes[i]];
  }
  std::vector<bool> full_attributed(n, false);
  for (int64_t t = 0; t < full->num_node_types(); ++t) {
    const HeteroGraph::NodeTypeInfo& info = full->node_type(t);
    if (info.attributes.numel() == 0) continue;
    for (int64_t i = 0; i < info.count; ++i) {
      full_attributed[info.offset + i] = true;
    }
  }
  std::vector<int64_t> attr_deg(n, 0);
  int64_t r = num_edge_types();
  std::vector<std::vector<int64_t>> rel_deg(2 * r,
                                            std::vector<int64_t>(n, 0));
  for (int64_t e = 0; e < full->num_edges(); ++e) {
    int64_t src = full->edge_src()[e];
    int64_t dst = full->edge_dst()[e];
    int64_t etype = full->edge_type_ids()[e];
    if (full_attributed[src]) ++attr_deg[dst];
    if (full_attributed[dst]) ++attr_deg[src];
    ++rel_deg[etype][dst];      // forward relation rows are destinations
    ++rel_deg[etype + r][src];  // reverse relation rows are sources
  }
  overrides.attributed.resize(s);
  overrides.relation.assign(2 * r, std::vector<int64_t>(s, 0));
  for (int64_t i = 0; i < s; ++i) {
    overrides.attributed[i] = attr_deg[nodes[i]];
    for (int64_t d = 0; d < 2 * r; ++d) {
      overrides.relation[d][i] = rel_deg[d][nodes[i]];
    }
  }
  graph->SetDegreeOverrides(std::move(overrides));

  sub.graph = std::move(graph);
  return sub;
}

}  // namespace autoac
