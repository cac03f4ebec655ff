#ifndef AUTOAC_TENSOR_OPS_H_
#define AUTOAC_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/variable.h"
#include "util/rng.h"

// Dense differentiable operations. Every function builds one node of the
// autograd tape: it computes the forward value eagerly and registers a
// closure that maps the node's output gradient to its parents' gradients.
//
// Shape conventions: feature matrices are rank-2 [rows, cols]; per-row
// scalars (attention logits, losses) are rank-1 [rows]; losses are rank-1
// tensors with a single element.

namespace autoac {

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// C = A @ B with A [m, k], B [k, n].
VarPtr MatMul(const VarPtr& a, const VarPtr& b);

/// Transpose of a rank-2 tensor.
VarPtr Transpose(const VarPtr& a);

// ---------------------------------------------------------------------------
// Elementwise arithmetic.
// ---------------------------------------------------------------------------

/// Elementwise a + b (identical shapes).
VarPtr Add(const VarPtr& a, const VarPtr& b);

/// Sum of >= 1 same-shaped variables (left fold of Add without the
/// intermediate nodes).
VarPtr AddN(const std::vector<VarPtr>& xs);

/// Elementwise a - b (identical shapes).
VarPtr Sub(const VarPtr& a, const VarPtr& b);

/// Elementwise a * b (identical shapes).
VarPtr Mul(const VarPtr& a, const VarPtr& b);

/// x * constant.
VarPtr Scale(const VarPtr& x, float s);

/// x + constant.
VarPtr AddScalar(const VarPtr& x, float s);

/// x * s where s is a trainable scalar variable (numel() == 1). Gradients
/// flow into both x and s.
VarPtr ScaleByVar(const VarPtr& x, const VarPtr& s);

/// Adds a rank-1 bias [n] to every row of a rank-2 tensor [m, n].
VarPtr AddBias(const VarPtr& x, const VarPtr& bias);

/// Elementwise square root. Inputs must be non-negative; gradient is clamped
/// near zero to stay finite.
VarPtr Sqrt(const VarPtr& x);

// ---------------------------------------------------------------------------
// Shape surgery.
// ---------------------------------------------------------------------------

/// Vertical concatenation of rank-2 tensors with matching column counts.
VarPtr ConcatRows(const std::vector<VarPtr>& xs);

/// Horizontal concatenation of rank-2 tensors with matching row counts.
VarPtr ConcatCols(const std::vector<VarPtr>& xs);

/// out[i, :] = x[rows[i], :]. Gradient scatter-adds back into x.
VarPtr GatherRows(const VarPtr& x, std::vector<int64_t> rows);

/// Returns an [n_rows, x.cols()] tensor whose row rows[i] is x's row i and
/// whose other rows are zero. `rows` must contain distinct indices.
VarPtr ScatterRows(const VarPtr& x, std::vector<int64_t> rows,
                   int64_t n_rows);

/// Extracts column j of a rank-2 tensor as a rank-1 vector.
VarPtr SliceCol(const VarPtr& x, int64_t j);

/// Extracts a single element of a rank-1 tensor as a 1-element tensor.
VarPtr SliceElement(const VarPtr& x, int64_t i);

/// Returns a copy with the same data but a new shape (numel preserved).
VarPtr Reshape(const VarPtr& x, std::vector<int64_t> shape);

/// out[i, :] = weights[ids[i]] * x[i, :] where weights is rank-1 [M] and
/// ids[i] in [0, M). This is the continuous-relaxation mixing step of Eq. 5
/// with cluster-shared weights: the gradient w.r.t. weights[c] is the sum of
/// <x[i, :], d_out[i, :]> over rows assigned to cluster c.
VarPtr ScaleRowsByGather(const VarPtr& x, const VarPtr& weights,
                         std::vector<int64_t> ids);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Sum of all elements; returns a 1-element tensor.
VarPtr SumAll(const VarPtr& x);

/// Mean of all elements; returns a 1-element tensor.
VarPtr MeanAll(const VarPtr& x);

/// Sum of squares of all elements; returns a 1-element tensor. Used for L2
/// penalties and Frobenius norms.
VarPtr SumSquares(const VarPtr& x);

// ---------------------------------------------------------------------------
// Nonlinearities.
// ---------------------------------------------------------------------------

VarPtr Relu(const VarPtr& x);
VarPtr LeakyRelu(const VarPtr& x, float negative_slope);
VarPtr Elu(const VarPtr& x);
VarPtr Sigmoid(const VarPtr& x);
VarPtr Tanh(const VarPtr& x);

/// Softmax over each row of a rank-2 tensor.
VarPtr RowSoftmax(const VarPtr& x);

/// L2-normalizes every row (used by SimpleHGN's output embedding). Rows with
/// norm below eps pass through unscaled.
VarPtr RowL2Normalize(const VarPtr& x, float eps = 1e-12f);

/// Inverted dropout: scales kept entries by 1/(1-p). Identity when not
/// training or p == 0.
VarPtr Dropout(const VarPtr& x, float p, bool training, Rng& rng);

// ---------------------------------------------------------------------------
// Losses.
// ---------------------------------------------------------------------------

/// Mean softmax cross-entropy over the subset `rows` of `logits` [n, C].
/// `labels` has one entry per logits row (entries outside `rows` ignored).
VarPtr SoftmaxCrossEntropy(const VarPtr& logits,
                           const std::vector<int64_t>& labels,
                           const std::vector<int64_t>& rows);

/// Mean binary cross-entropy with logits over a rank-1 score vector.
VarPtr BceWithLogits(const VarPtr& scores, const std::vector<float>& targets);

}  // namespace autoac

#endif  // AUTOAC_TENSOR_OPS_H_
