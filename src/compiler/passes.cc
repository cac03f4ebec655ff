#include "compiler/passes.h"

#include <climits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr.h"
#include "graph/sparse_ops.h"
#include "tensor/op_helpers.h"
#include "util/check.h"

namespace autoac::compiler {

namespace {

/// Drops nodes flagged in `dead` and rebuilds Value::def indices.
void CompactNodes(ir::Graph& g, const std::vector<char>& dead) {
  std::vector<ir::Node> kept;
  kept.reserve(g.nodes.size());
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    if (!dead[i]) kept.push_back(std::move(g.nodes[i]));
  }
  g.nodes = std::move(kept);
  for (ir::Value& v : g.values) v.def = -1;
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    g.values[g.nodes[i].out].def = static_cast<int32_t>(i);
  }
}

}  // namespace

int DeadNodeElimination(ir::Graph& g) {
  std::vector<char> needed(g.values.size(), 0);
  for (int32_t o : g.outputs) needed[o] = 1;
  std::vector<char> dead(g.nodes.size(), 0);
  int removed = 0;
  for (int i = static_cast<int>(g.nodes.size()) - 1; i >= 0; --i) {
    const ir::Node& n = g.nodes[i];
    if (!needed[n.out]) {
      dead[i] = 1;
      ++removed;
      continue;
    }
    for (int32_t in : n.inputs) needed[in] = 1;
  }
  if (removed > 0) CompactNodes(g, dead);
  g.complete = !g.outputs.empty();
  for (const ir::Node& n : g.nodes) {
    if (n.kernel == nullptr) g.complete = false;
  }
  return removed;
}

int FoldConstants(ir::Graph& g) {
  std::vector<char> is_const(g.values.size(), 0);
  for (size_t v = 0; v < g.values.size(); ++v) {
    is_const[v] = g.values[v].kind == ir::ValueKind::kConst;
  }
  std::vector<char> is_output(g.values.size(), 0);
  for (int32_t o : g.outputs) is_output[o] = 1;
  std::vector<char> dead(g.nodes.size(), 0);
  std::vector<float> scratch;
  std::vector<const Tensor*> ins;
  int folded = 0;
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    ir::Node& n = g.nodes[i];
    if (n.kernel == nullptr || n.inputs.empty() || is_output[n.out]) continue;
    bool all_const = true;
    for (int32_t in : n.inputs) all_const = all_const && is_const[in];
    if (!all_const) continue;
    ins.clear();
    for (int32_t in : n.inputs) {
      const Tensor* t = g.values[in].const_data();
      AUTOAC_CHECK(t != nullptr) << "const value without storage in fold";
      ins.push_back(t);
    }
    ir::Value& out_val = g.values[n.out];
    Tensor out(out_val.shape);
    if (n.scratch_numel > 0 &&
        static_cast<int64_t>(scratch.size()) < n.scratch_numel) {
      scratch.resize(n.scratch_numel);
    }
    n.kernel(ins.data(), out, n.scratch_numel > 0 ? scratch.data() : nullptr);
    out_val.folded = std::move(out);
    out_val.kind = ir::ValueKind::kConst;
    out_val.def = -1;
    is_const[n.out] = 1;
    dead[i] = 1;
    ++folded;
  }
  if (folded > 0) CompactNodes(g, dead);
  return folded;
}

int FusePatterns(ir::Graph& g) {
  using internal::Act;
  size_t nv = g.values.size();
  // uses[v] = number of consuming nodes; sole[v] = the consumer when there
  // is exactly one. Graph outputs get an extra phantom use so a chain never
  // swallows a value the caller reads.
  std::vector<int> uses(nv, 0);
  std::vector<int> sole(nv, -1);
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    for (int32_t in : g.nodes[i].inputs) {
      ++uses[in];
      sole[in] = static_cast<int>(i);
    }
  }
  for (int32_t o : g.outputs) uses[o] += 2;

  std::vector<char> dead(g.nodes.size(), 0);
  int fused = 0;
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    if (dead[i]) continue;
    ir::Node& n = g.nodes[i];
    bool is_matmul = n.op == "MatMul" && n.inputs.size() == 2;
    bool is_spmm = n.op == "SpMM" && n.inputs.size() == 1;
    if (!is_matmul && !is_spmm) continue;

    // Optional GatherRows producer (dense chains only).
    int gather_idx = -1;
    std::shared_ptr<const std::vector<int64_t>> ids;
    if (is_matmul) {
      int32_t x_id = n.inputs[0];
      int def = g.values[x_id].def;
      if (def >= 0 && !dead[def] && g.nodes[def].op == "GatherRows" &&
          uses[x_id] == 1 && g.nodes[def].attrs.ids != nullptr) {
        gather_idx = def;
        ids = g.nodes[def].attrs.ids;
      }
    }

    // Optional AddBias then Relu/Elu consumers, each the sole reader of the
    // link it extends.
    int end = static_cast<int>(i);
    int bias_idx = -1;
    if (uses[g.nodes[end].out] == 1) {
      int c = sole[g.nodes[end].out];
      if (c >= 0 && !dead[c] && g.nodes[c].op == "AddBias" &&
          g.nodes[c].inputs[0] == g.nodes[end].out) {
        bias_idx = c;
        end = c;
      }
    }
    int act_idx = -1;
    Act act = Act::kNone;
    if (uses[g.nodes[end].out] == 1) {
      int c = sole[g.nodes[end].out];
      if (c >= 0 && !dead[c]) {
        if (g.nodes[c].op == "Relu") act = Act::kRelu;
        if (g.nodes[c].op == "Elu") act = Act::kElu;
        if (act != Act::kNone) {
          act_idx = c;
          end = c;
        }
      }
    }
    if (gather_idx < 0 && bias_idx < 0 && act_idx < 0) continue;

    bool has_bias = bias_idx >= 0;
    ir::Node f;
    if (is_matmul) {
      int32_t x_id = gather_idx >= 0 ? g.nodes[gather_idx].inputs[0]
                                     : n.inputs[0];
      int32_t w_id = n.inputs[1];
      const std::vector<int64_t>& out_shape = g.values[n.out].shape;
      const std::vector<int64_t>& w_shape = g.values[w_id].shape;
      f.kernel = internal::MakeFusedLinearKernel(
          ids, has_bias, act, /*m=*/out_shape[0], /*k=*/w_shape[0],
          /*n=*/out_shape[1]);
      f.inputs = {x_id, w_id};
      f.attrs.ids = std::move(ids);
    } else {
      AUTOAC_CHECK(n.attrs.handle != nullptr) << "SpMM node without matrix";
      auto a = std::static_pointer_cast<const SparseMatrix>(n.attrs.handle);
      f.kernel = internal::MakeFusedSpmmKernel(
          std::move(a), has_bias, act, /*d=*/g.values[n.out].shape[1]);
      f.inputs = {n.inputs[0]};
      f.attrs.handle = n.attrs.handle;
    }
    if (has_bias) f.inputs.push_back(g.nodes[bias_idx].inputs[1]);
    f.op = std::string("Fused") + (gather_idx >= 0 ? "Gather" : "") +
           (is_matmul ? "MatMul" : "SpMM") + (has_bias ? "Bias" : "") +
           (act == Act::kRelu ? "Relu" : act == Act::kElu ? "Elu" : "");
    f.out = g.nodes[end].out;

    if (gather_idx >= 0) dead[gather_idx] = 1;
    if (bias_idx >= 0 && bias_idx != end) dead[bias_idx] = 1;
    if (static_cast<int>(i) != end) dead[i] = 1;
    g.nodes[end] = std::move(f);
    ++fused;
  }
  if (fused > 0) CompactNodes(g, dead);
  return fused;
}

int MarkInPlace(ir::Graph& g) {
  std::vector<int> last_use(g.values.size(), -1);
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    for (int32_t in : g.nodes[i].inputs) last_use[in] = static_cast<int>(i);
  }
  std::vector<char> is_output(g.values.size(), 0);
  for (int32_t o : g.outputs) {
    last_use[o] = INT_MAX;
    is_output[o] = 1;
  }
  int marked = 0;
  for (size_t i = 0; i < g.nodes.size(); ++i) {
    ir::Node& n = g.nodes[i];
    if ((n.flags & ir::kCanAliasInput0) == 0 || n.inputs.empty()) continue;
    // The output value lives in the caller's tensor, not an arena slot, so
    // it cannot reuse a slot in place.
    if (is_output[n.out]) continue;
    int32_t v0 = n.inputs[0];
    const ir::Value& val = g.values[v0];
    if (val.kind != ir::ValueKind::kIntermediate) continue;
    if (last_use[v0] != static_cast<int>(i)) continue;
    int occurrences = 0;
    for (int32_t in : n.inputs) occurrences += in == v0 ? 1 : 0;
    if (occurrences != 1) continue;
    if (g.values[n.out].numel() != val.numel()) continue;
    n.inplace = true;
    ++marked;
  }
  return marked;
}

void RunPassPipeline(ir::Graph& g) {
  DeadNodeElimination(g);
  FoldConstants(g);
  DeadNodeElimination(g);
  FusePatterns(g);
  DeadNodeElimination(g);
  MarkInPlace(g);
}

}  // namespace autoac::compiler
