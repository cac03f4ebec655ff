#ifndef AUTOAC_COMPILER_COMPILED_GRAPH_H_
#define AUTOAC_COMPILER_COMPILED_GRAPH_H_

#include <string>
#include <vector>

#include "compiler/planner.h"
#include "tensor/graph_ir.h"
#include "util/status.h"

// Compiled execution plan for a captured inference forward (DESIGN.md §11):
// the pass pipeline rewrites the IR, the arena planner colors intermediates
// into a preplanned slot pool, and Run() replays the node list into those
// slots. Results are bitwise identical to the interpreted tape-free forward
// at every thread count; steady-state Run() performs zero heap tensor
// allocations (TensorBuffersAllocated() stays flat).

namespace autoac::compiler {

class CompiledGraph {
 public:
  /// Runs the pass pipeline and the planner. Fails (recoverably) when the
  /// capture recorded an op without a replay kernel that DCE could not
  /// remove, or when the graph does not have exactly one output.
  static StatusOr<CompiledGraph> Compile(ir::Graph graph);

  /// Executes the plan. `inputs` bind the graph's kInput values in
  /// input_names() order (shapes must match the capture); `*output`
  /// receives the single graph output, reusing its buffer across calls.
  void Run(const std::vector<const Tensor*>& inputs, Tensor* output);

  const ir::Graph& graph() const { return graph_; }
  const MemoryPlan& plan() const { return plan_; }
  const std::vector<std::string>& input_names() const { return input_names_; }

  /// IR listing plus arena plan, for the --dump_ir debugging flag.
  std::string Dump() const;

 private:
  CompiledGraph() = default;

  const Tensor* Resolve(int32_t value_id,
                        const std::vector<const Tensor*>& inputs,
                        const Tensor* output) const;

  ir::Graph graph_;
  MemoryPlan plan_;
  std::vector<int32_t> input_ids_;  // kInput value ids, capture order
  std::vector<std::string> input_names_;
  std::vector<int32_t> input_pos_;  // value id -> index into `inputs`, or -1
  std::vector<Tensor> slots_;       // arena storage, capacity preallocated
  std::vector<float> scratch_;      // shared kernel workspace
  std::vector<const Tensor*> ins_buf_;  // reused per-step input pointers
  int32_t output_id_ = -1;
};

}  // namespace autoac::compiler

#endif  // AUTOAC_COMPILER_COMPILED_GRAPH_H_
