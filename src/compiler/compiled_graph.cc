#include "compiler/compiled_graph.h"

#include <algorithm>
#include <utility>

#include "compiler/passes.h"
#include "util/check.h"

namespace autoac::compiler {

StatusOr<CompiledGraph> CompiledGraph::Compile(ir::Graph graph) {
  RunPassPipeline(graph);
  if (!graph.complete) {
    return Status::Error(
        "capture is not compilable: an op without a replay kernel survived "
        "dead-node elimination, or no output was recorded");
  }
  if (graph.outputs.size() != 1) {
    return Status::Error("compiled graphs must have exactly one output");
  }
  if (graph.values[graph.outputs[0]].def < 0) {
    return Status::Error("output is not produced by any node");
  }

  CompiledGraph cg;
  cg.plan_ = PlanMemory(graph);
  Status verify = VerifyPlan(graph, cg.plan_);
  if (!verify.ok()) return verify;

  cg.input_pos_.assign(graph.values.size(), -1);
  for (size_t v = 0; v < graph.values.size(); ++v) {
    if (graph.values[v].kind != ir::ValueKind::kInput) continue;
    cg.input_pos_[v] = static_cast<int32_t>(cg.input_ids_.size());
    cg.input_ids_.push_back(static_cast<int32_t>(v));
    cg.input_names_.push_back(graph.values[v].name);
  }
  cg.output_id_ = graph.outputs[0];

  size_t max_inputs = 0;
  for (const ir::Node& n : graph.nodes) {
    max_inputs = std::max(max_inputs, n.inputs.size());
  }
  cg.ins_buf_.resize(max_inputs);

  cg.slots_.resize(cg.plan_.slot_capacity.size());
  for (size_t s = 0; s < cg.slots_.size(); ++s) {
    cg.slots_[s].ReserveNumel(cg.plan_.slot_capacity[s]);
  }
  cg.scratch_.resize(cg.plan_.scratch_capacity);
  cg.graph_ = std::move(graph);
  return cg;
}

const Tensor* CompiledGraph::Resolve(int32_t value_id,
                                     const std::vector<const Tensor*>& inputs,
                                     const Tensor* output) const {
  if (value_id == output_id_) return output;
  int32_t pos = input_pos_[value_id];
  if (pos >= 0) return inputs[pos];
  int32_t slot = plan_.slot_of_value[value_id];
  if (slot >= 0) return &slots_[slot];
  const Tensor* t = graph_.values[value_id].const_data();
  AUTOAC_CHECK(t != nullptr) << "unresolvable value v" << value_id;
  return t;
}

void CompiledGraph::Run(const std::vector<const Tensor*>& inputs,
                        Tensor* output) {
  AUTOAC_CHECK(output != nullptr);
  AUTOAC_CHECK_EQ(inputs.size(), input_ids_.size())
      << "compiled graph input arity mismatch";
  for (size_t i = 0; i < input_ids_.size(); ++i) {
    const ir::Value& v = graph_.values[input_ids_[i]];
    AUTOAC_CHECK(inputs[i] != nullptr);
    AUTOAC_CHECK(inputs[i]->shape() == v.shape)
        << "input " << input_names_[i] << " shape changed since capture";
  }

  // First call allocates the output buffer; afterwards both reserve and
  // reshape are no-ops heap-wise.
  const ir::Value& out_val = graph_.values[output_id_];
  output->ReserveNumel(out_val.numel());

  for (const ir::Node& n : graph_.nodes) {
    const ir::Value& v = graph_.values[n.out];
    Tensor& out = n.out == output_id_ ? *output
                                      : slots_[plan_.slot_of_value[n.out]];
    out.ReshapeInPlace(v.shape);
    for (size_t j = 0; j < n.inputs.size(); ++j) {
      ins_buf_[j] = Resolve(n.inputs[j], inputs, output);
    }
    n.kernel(ins_buf_.data(), out,
             n.scratch_numel > 0 ? scratch_.data() : nullptr);
  }
}

std::string CompiledGraph::Dump() const {
  return graph_.Dump() + plan_.Dump(graph_);
}

}  // namespace autoac::compiler
