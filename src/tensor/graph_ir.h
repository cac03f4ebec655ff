#ifndef AUTOAC_TENSOR_GRAPH_IR_H_
#define AUTOAC_TENSOR_GRAPH_IR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/variable.h"

// Dataflow IR for the tape-free eval forward (DESIGN.md §11).
//
// A frozen model's forward is a fixed dataflow program: the op sequence,
// every shape, and every weight are known at load time, and only H0 (the
// completed attributes) varies between runs of the same artifact. IrCapture
// turns one execution of that forward into an explicit, topologically
// ordered op list — the input of the src/compiler/ pass pipeline and arena
// planner. Capture happens through internal::MakeOp: each op contributes a
// *replay kernel*, a closure that recomputes the op's output from its input
// tensors. The eager op implementations execute the very same closure they
// record, so replaying the IR is bitwise identical to interpreting the tape
// at every thread count (all kernels run on the shared deterministic
// ParallelFor runtime).
//
// Kernel contract:
//   * Dims are captured in the closure at record time (shapes are static for
//     a frozen model); the Tensor arguments only supply data pointers.
//   * The kernel fully defines `out` — it either writes every element or
//     explicitly zeroes before accumulating. Arena slots hold garbage from
//     the previous value, so nothing may rely on zero-initialized output.
//   * A kernel flagged kCanAliasInput0 must stay correct when `&out` is the
//     same tensor as `ins[0]` (elementwise read-then-write per index).
//   * `scratch` points at Node::scratch_numel floats when that is > 0;
//     kernels with optional scratch (e.g. RowL2Normalize's backward norms)
//     must tolerate nullptr.

namespace autoac {
namespace ir {

/// Recomputes one op: `ins` are the input tensors in op-argument order,
/// `out` is preshaped to the recorded output shape, `scratch` is a
/// per-node float workspace (see Node::scratch_numel).
using Kernel =
    std::function<void(const Tensor* const* ins, Tensor& out, float* scratch)>;

/// Op-specific payload carried by a Node. Only what the compiler passes
/// need: a scalar (LeakyRelu slope, Scale factor), an index list (gathers /
/// scatters), and a type-erased handle (the SparseMatrix of sparse ops —
/// type-erased because the tensor library cannot depend on the graph
/// library; src/compiler/ casts it back knowing the op name).
struct Attrs {
  float scalar = 0.0f;
  std::shared_ptr<const std::vector<int64_t>> ids;
  std::shared_ptr<const void> handle;
};

enum NodeFlags : uint32_t {
  kNoFlags = 0,
  /// Output may share a buffer with ins[0] (in-place rewrite candidate).
  kCanAliasInput0 = 1u << 0,
};

/// How a value comes into existence.
enum class ValueKind {
  kConst,         // frozen leaf (weights) or pass-folded constant
  kInput,         // rebindable leaf (H0) — bound by the executor per run
  kIntermediate,  // defined by a node
};

struct Value {
  std::vector<int64_t> shape;
  ValueKind kind = ValueKind::kIntermediate;
  /// Keeps const/input leaves alive for the lifetime of the IR; also pins
  /// recorded intermediates during capture so Variable addresses stay
  /// unique. Null for values folded by the compiler.
  VarPtr leaf;
  /// Owning storage for constants materialized by constant folding.
  Tensor folded;
  std::string name;  // debug label ("h0", "leaf", or the defining op)
  int32_t def = -1;  // index of the defining node, -1 for leaves

  int64_t numel() const {
    int64_t product = 1;
    for (int64_t extent : shape) product *= extent;
    return shape.empty() ? 0 : product;
  }
  /// Backing tensor of a kConst value (leaf weight or folded result).
  const Tensor* const_data() const {
    if (folded.numel() > 0) return &folded;
    return leaf != nullptr ? &leaf->value : nullptr;
  }
};

struct Node {
  std::string op;
  std::vector<int32_t> inputs;  // value ids, op-argument order
  int32_t out = -1;             // value id this node defines
  Kernel kernel;                // null => opaque op, graph is not compilable
  Attrs attrs;
  uint32_t flags = kNoFlags;
  int64_t scratch_numel = 0;
  /// Set by the in-place pass: the planner assigns out the slot of ins[0].
  bool inplace = false;
};

/// The captured program: values + nodes in execution (topological) order.
struct Graph {
  std::vector<Value> values;
  std::vector<Node> nodes;
  std::vector<int32_t> outputs;
  /// False when any recorded op lacks a replay kernel (the compiler then
  /// refuses the graph). Recomputed by DCE — a dead opaque op does not
  /// poison the graph.
  bool complete = true;

  /// Human-readable listing, stable enough for golden tests:
  ///   v0: input [303, 16] "h0"
  ///   n1: AddBias(v2, v3) -> v4 [303, 8] inplace
  std::string Dump() const;
};

}  // namespace ir

/// RAII recorder: while alive on this thread, every op built through
/// internal::MakeOp is appended to the IR. Implies NoGradGuard (capture is
/// an inference-path concept; grad mode and capture never mix). Does not
/// nest.
///
///   IrCapture capture;
///   capture.MarkInput(h0, "h0");
///   VarPtr logits = model->Forward(...);   // ops record themselves
///   ir::Graph graph = capture.Finish(logits);
class IrCapture {
 public:
  IrCapture();
  ~IrCapture();
  IrCapture(const IrCapture&) = delete;
  IrCapture& operator=(const IrCapture&) = delete;

  /// Declares `leaf` a rebindable input. Must be called before the forward
  /// runs; any leaf not marked is treated as a foldable constant.
  void MarkInput(const VarPtr& leaf, std::string name);

  /// Stops recording and returns the IR rooted at `output`. If `output` was
  /// never recorded (e.g. the forward is an identity over a leaf) the graph
  /// comes back with complete == false.
  ir::Graph Finish(const VarPtr& output);

  struct Recorder;  // implementation detail, public for graph_ir.cc helpers

 private:
  std::unique_ptr<Recorder> recorder_;
  NoGradGuard no_grad_;
};

namespace internal {

/// True when an IrCapture is live on this thread. Read by MakeOp on every
/// op; a bare thread_local load keeps the training path unaffected.
extern thread_local bool t_ir_capture_active;
inline bool IrCaptureActive() { return t_ir_capture_active; }

/// Appends one op to the active capture. `node` is the freshly built tape
/// node (its op_name and value supply the IR node/value metadata); leaves
/// among `parents` are registered on first sight.
void IrRecordOp(const VarPtr& node, const std::vector<VarPtr>& parents,
                ir::Kernel kernel, ir::Attrs attrs, uint32_t flags,
                int64_t scratch_numel);

/// Appends an op with no replay kernel (losses, training-mode dropout);
/// marks the capture incomplete unless DCE later removes the node.
void IrRecordOpaque(const VarPtr& node, const std::vector<VarPtr>& parents);

}  // namespace internal
}  // namespace autoac

#endif  // AUTOAC_TENSOR_GRAPH_IR_H_
