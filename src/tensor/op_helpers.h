#ifndef AUTOAC_TENSOR_OP_HELPERS_H_
#define AUTOAC_TENSOR_OP_HELPERS_H_

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/graph_ir.h"
#include "tensor/variable.h"

// Internal helpers shared by the op implementation files. Not part of the
// public API.

namespace autoac::internal {

/// Builds an interior tape node: requires_grad is inherited from the
/// parents, and the backward closure is attached only when a gradient can
/// actually flow. Under a NoGradGuard the node is a plain value instead:
/// no parents (the upstream graph can be freed eagerly), no closure, and
/// requires_grad forced off — the tape-free inference path.
inline VarPtr MakeOpNode(std::string name, Tensor value,
                         std::vector<VarPtr> parents,
                         std::function<void(Variable&)> backward) {
  const bool grad_mode = GradModeEnabled();
  bool requires_grad = false;
  for (const VarPtr& p : parents) {
    AUTOAC_CHECK(p != nullptr) << "null input to op" << name;
    requires_grad = requires_grad || (grad_mode && p->requires_grad);
  }
  auto node = std::make_shared<Variable>(std::move(value), requires_grad);
  node->op_name = std::move(name);
  if (grad_mode) node->parents = std::move(parents);
  if (requires_grad) {
    node->backward_fn = std::move(backward);
    NoteBackwardClosure();
  }
  return node;
}

/// IR metadata an op hands to MakeOp alongside its replay kernel.
struct OpExtra {
  ir::Attrs attrs;
  uint32_t flags = ir::kNoFlags;
  int64_t scratch_numel = 0;
};

/// Tape node for an op with no replay kernel (losses, training-mode
/// dropout). Under an active IrCapture the op is recorded as opaque, which
/// makes the capture incomplete (CompiledGraph::Compile refuses it).
inline VarPtr MakeOp(std::string name, Tensor value,
                     std::vector<VarPtr> parents,
                     std::function<void(Variable&)> backward) {
  if (!IrCaptureActive()) {
    return MakeOpNode(std::move(name), std::move(value), std::move(parents),
                      std::move(backward));
  }
  VarPtr node =
      MakeOpNode(std::move(name), std::move(value), parents,
                 std::move(backward));
  IrRecordOpaque(node, parents);
  return node;
}

/// Tape node for an op with a replay kernel. The kernel is the same closure
/// the op just executed eagerly, so replay is bitwise-identical by
/// construction. The ir::Kernel (type-erased std::function) is only
/// materialized under an active capture — the training path pays one
/// thread-local load.
template <typename KernelFn>
inline VarPtr MakeOp(std::string name, Tensor value,
                     std::vector<VarPtr> parents,
                     std::function<void(Variable&)> backward, KernelFn&& kernel,
                     OpExtra extra = {}) {
  if (!IrCaptureActive()) {
    return MakeOpNode(std::move(name), std::move(value), std::move(parents),
                      std::move(backward));
  }
  VarPtr node =
      MakeOpNode(std::move(name), std::move(value), parents,
                 std::move(backward));
  IrRecordOp(node, parents, ir::Kernel(std::forward<KernelFn>(kernel)),
             std::move(extra.attrs), extra.flags, extra.scratch_numel);
  return node;
}

/// True if gradient should be accumulated into this parent.
inline bool NeedsGrad(const VarPtr& p) { return p->requires_grad; }

// Raw GEMM kernels on row-major buffers. No aliasing between out and inputs.
// out is accumulated into (callers zero it first when needed).

/// out[m,n] += a[m,k] @ b[k,n]
void GemmNN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n);

/// out[m,n] += a[m,k] @ b[n,k]^T
void GemmNT(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n);

/// out[k,n] += a[m,k]^T @ b[m,n]
void GemmTN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n);

/// Activation fused into the compiler's fused kernels. Formulas match the
/// standalone Relu/Elu ops exactly (bitwise).
enum class Act { kNone, kRelu, kElu };

/// Applies a fused activation; formulas copied verbatim from Relu/Elu.
inline float ApplyAct(Act act, float v) {
  switch (act) {
    case Act::kRelu:
      return v > 0.0f ? v : 0.0f;
    case Act::kElu:
      return v > 0.0f ? v : std::expm1(v);
    case Act::kNone:
      break;
  }
  return v;
}

/// Fused `[GatherRows +] MatMul [+ AddBias] [+ act]` replay kernel
/// (implemented in ops_nn.cc). Inputs: x [m,k] (or the gather source when
/// `ids` is set, with m = ids->size()), w [k,n], then bias [n] when
/// has_bias. Bias is added after a row's GEMM accumulation completes and the
/// activation applied last, so every float op matches the unfused chain.
ir::Kernel MakeFusedLinearKernel(
    std::shared_ptr<const std::vector<int64_t>> ids, bool has_bias, Act act,
    int64_t m, int64_t k, int64_t n);

}  // namespace autoac::internal

#endif  // AUTOAC_TENSOR_OP_HELPERS_H_
