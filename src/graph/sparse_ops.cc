#include "graph/sparse_ops.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "tensor/op_helpers.h"
#include "util/parallel.h"
#include "util/profiler.h"

// See ops_core.cc for the op structure shared by all ops. Sparse kernels
// capture the SpMatPtr by value.

namespace autoac {

using internal::MakeOp;
using internal::NeedsGrad;

namespace {

/// Grain for row-partitioned sparse kernels: sized from the average row cost
/// so chunks carry comparable work even on skewed degree distributions.
int64_t SparseRowGrain(const Csr& csr, int64_t d) {
  int64_t rows = csr.num_rows > 0 ? csr.num_rows : 1;
  int64_t avg_row_work = (csr.nnz() / rows + 1) * d;
  return GrainForRows(avg_row_work);
}

/// Shared CSR × dense kernel: out[i, :] = sum_k values[k] * x[indices[k], :]
/// over row i's nonzeros. Row-partitioned: each chunk owns a disjoint span of
/// output rows. Empty rows are zero-filled explicitly and the first nonzero
/// of a row assigns instead of accumulating, so `out` may hold garbage on
/// entry.
void SpMMKernel(const Csr& csr, const float* x, float* out, int64_t d) {
  const int64_t* indptr = csr.indptr.data();
  const int64_t* indices = csr.indices.data();
  const float* values = csr.values.data();
  ParallelFor(0, csr.num_rows, SparseRowGrain(csr, d),
              [=](int64_t row_begin, int64_t row_end) {
                for (int64_t i = row_begin; i < row_end; ++i) {
                  int64_t begin = indptr[i];
                  int64_t end = indptr[i + 1];
                  float* orow = out + i * d;
                  if (begin == end) {
                    std::fill(orow, orow + d, 0.0f);
                    continue;
                  }
                  {
                    float w = values[begin];
                    const float* xrow = x + indices[begin] * d;
                    for (int64_t j = 0; j < d; ++j) orow[j] = w * xrow[j];
                  }
                  for (int64_t k = begin + 1; k < end; ++k) {
                    float w = values[k];
                    const float* xrow = x + indices[k] * d;
                    for (int64_t j = 0; j < d; ++j) orow[j] += w * xrow[j];
                  }
                }
              });
}

}  // namespace

VarPtr SpMM(const SpMatPtr& a, const VarPtr& x) {
  AUTOAC_CHECK(a != nullptr);
  AUTOAC_CHECK_EQ(x->value.dim(), 2);
  AUTOAC_CHECK_EQ(a->num_cols(), x->value.rows());
  const Csr& csr = a->forward();
  int64_t m = csr.num_rows;
  int64_t d = x->value.cols();
  Tensor out(m, d);
  auto kernel = [a, d](const Tensor* const* ins, Tensor& out,
                       float* /*scratch*/) {
    AUTOAC_PROFILE_SCOPE("spmm.forward");
    SpMMKernel(a->forward(), ins[0]->data(), out.data(), d);
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "SpMM", std::move(out), {x},
      [a, d](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        AUTOAC_PROFILE_SCOPE("spmm.backward");
        // dX = A^T dY, computed with the cached transpose. Unlike the
        // forward, this must accumulate (gx may already hold gradient from
        // other ops), so there is no first-nonzero assign shortcut here.
        const Csr& csr_t = a->backward();
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        const int64_t* indptr = csr_t.indptr.data();
        const int64_t* indices = csr_t.indices.data();
        const float* values = csr_t.values.data();
        ParallelFor(0, csr_t.num_rows, SparseRowGrain(csr_t, d),
                    [=](int64_t row_begin, int64_t row_end) {
                      for (int64_t i = row_begin; i < row_end; ++i) {
                        int64_t begin = indptr[i];
                        int64_t end = indptr[i + 1];
                        if (begin == end) continue;
                        float* gxrow = gx + i * d;
                        for (int64_t k = begin; k < end; ++k) {
                          float w = values[k];
                          const float* grow = g + indices[k] * d;
                          for (int64_t j = 0; j < d; ++j) {
                            gxrow[j] += w * grow[j];
                          }
                        }
                      }
                    });
      });
}

VarPtr EdgeSoftmaxAggregate(const SpMatPtr& a, const VarPtr& logits,
                            const VarPtr& h) {
  AUTOAC_CHECK(a != nullptr);
  const Csr& csr = a->forward();
  AUTOAC_CHECK_EQ(logits->value.dim(), 1);
  AUTOAC_CHECK_EQ(logits->value.numel(), csr.nnz());
  AUTOAC_CHECK_EQ(h->value.dim(), 2);
  AUTOAC_CHECK_EQ(h->value.rows(), csr.num_cols);

  int64_t m = csr.num_rows;
  int64_t d = h->value.cols();
  Tensor out(m, d);
  // Per-edge attention weights after the row-wise softmax; cached for the
  // backward pass. Each destination row owns a disjoint slice of the edge
  // array, so the forward is row-partitioned with no shared writes.
  std::vector<float> attention(csr.nnz());
  auto kernel = [a, d](const Tensor* const* ins, Tensor& out, float* scratch) {
    AUTOAC_PROFILE_SCOPE("edge_softmax.forward");
    const Csr& csr = a->forward();
    const float* pl = ins[0]->data();
    const float* ph = ins[1]->data();
    float* po = out.data();
    float* pattn = scratch;
    const int64_t* indptr = csr.indptr.data();
    const int64_t* indices = csr.indices.data();
    ParallelFor(0, csr.num_rows, SparseRowGrain(csr, d + 2),
                [=](int64_t row_begin, int64_t row_end) {
                  for (int64_t i = row_begin; i < row_end; ++i) {
                    int64_t begin = indptr[i];
                    int64_t end = indptr[i + 1];
                    float* orow = po + i * d;
                    std::fill(orow, orow + d, 0.0f);
                    if (begin == end) continue;
                    float max_logit = pl[begin];
                    for (int64_t k = begin + 1; k < end; ++k) {
                      max_logit = std::max(max_logit, pl[k]);
                    }
                    float sum = 0.0f;
                    for (int64_t k = begin; k < end; ++k) {
                      pattn[k] = std::exp(pl[k] - max_logit);
                      sum += pattn[k];
                    }
                    float inv = 1.0f / sum;
                    for (int64_t k = begin; k < end; ++k) {
                      pattn[k] *= inv;
                      const float* hrow = ph + indices[k] * d;
                      float w = pattn[k];
                      for (int64_t j = 0; j < d; ++j) orow[j] += w * hrow[j];
                    }
                  }
                });
  };
  {
    const Tensor* ins[] = {&logits->value, &h->value};
    kernel(ins, out, attention.data());
  }
  return MakeOp(
      "EdgeSoftmaxAggregate", std::move(out), {logits, h},
      [a, d, attention = std::move(attention)](Variable& self) {
        AUTOAC_PROFILE_SCOPE("edge_softmax.backward");
        const VarPtr& logits = self.parents[0];
        const VarPtr& h = self.parents[1];
        const Csr& csr = a->forward();
        const float* g = self.grad.data();
        const float* ph = h->value.data();
        const float* pattn = attention.data();
        const int64_t* indptr = csr.indptr.data();
        const int64_t* indices = csr.indices.data();
        // dH pass, partitioned over the rows of A^T (source nodes): each
        // chunk owns a disjoint span of gh rows. The transpose lists a
        // source's edges in ascending forward-slot order, so the per-row
        // accumulation order matches the serial destination-major sweep.
        if (NeedsGrad(h)) {
          float* gh = h->EnsureGrad().data();
          const Csr& csr_t = a->backward();
          const int64_t* t_indptr = csr_t.indptr.data();
          const int64_t* t_indices = csr_t.indices.data();
          const int64_t* t2f = a->backward_to_forward().data();
          ParallelFor(0, csr_t.num_rows, SparseRowGrain(csr_t, d),
                      [=](int64_t src_begin, int64_t src_end) {
                        for (int64_t s = src_begin; s < src_end; ++s) {
                          float* ghrow = gh + s * d;
                          for (int64_t k = t_indptr[s]; k < t_indptr[s + 1];
                               ++k) {
                            float w = pattn[t2f[k]];
                            const float* grow = g + t_indices[k] * d;
                            for (int64_t j = 0; j < d; ++j) {
                              ghrow[j] += w * grow[j];
                            }
                          }
                        }
                      });
        }
        // dLogits pass, partitioned over destination rows: the da and gl
        // slices of a row are disjoint from every other row's.
        if (NeedsGrad(logits)) {
          float* gl = logits->EnsureGrad().data();
          std::vector<float> da(csr.nnz());  // d loss / d attention per edge
          float* pda = da.data();
          ParallelFor(
              0, csr.num_rows, SparseRowGrain(csr, 2 * d),
              [=](int64_t row_begin, int64_t row_end) {
                for (int64_t i = row_begin; i < row_end; ++i) {
                  int64_t begin = indptr[i];
                  int64_t end = indptr[i + 1];
                  if (begin == end) continue;
                  const float* grow = g + i * d;
                  for (int64_t k = begin; k < end; ++k) {
                    const float* hrow = ph + indices[k] * d;
                    float acc = 0.0f;
                    for (int64_t j = 0; j < d; ++j) acc += grow[j] * hrow[j];
                    pda[k] = acc;
                  }
                  // Softmax Jacobian: de_k = a_k (da_k - sum_k' a_k' da_k').
                  float dot = 0.0f;
                  for (int64_t k = begin; k < end; ++k) {
                    dot += pattn[k] * pda[k];
                  }
                  for (int64_t k = begin; k < end; ++k) {
                    gl[k] += pattn[k] * (pda[k] - dot);
                  }
                }
              });
        }
      });
}

VarPtr GatherEdgeSrc(const SpMatPtr& a, const VarPtr& x) {
  const Csr& csr = a->forward();
  AUTOAC_CHECK_EQ(x->value.dim(), 1);
  AUTOAC_CHECK_EQ(x->value.numel(), csr.num_cols);
  Tensor out({csr.nnz()});
  auto kernel = [a](const Tensor* const* ins, Tensor& out, float* /*scratch*/) {
    AUTOAC_PROFILE_SCOPE("gather_edge_src.forward");
    const Csr& csr = a->forward();
    const float* px = ins[0]->data();
    float* po = out.data();
    const int64_t* indices = csr.indices.data();
    ParallelFor(0, csr.nnz(), kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t k = lo; k < hi; ++k) po[k] = px[indices[k]];
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "GatherEdgeSrc", std::move(out), {x},
      [a](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        AUTOAC_PROFILE_SCOPE("gather_edge_src.backward");
        // Partitioned over the rows of A^T so each chunk owns a disjoint
        // span of gx; per-source accumulation order (ascending forward slot)
        // matches the serial edge sweep.
        const Csr& csr_t = a->backward();
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        const int64_t* t_indptr = csr_t.indptr.data();
        const int64_t* t2f = a->backward_to_forward().data();
        ParallelFor(0, csr_t.num_rows, SparseRowGrain(csr_t, 1),
                    [=](int64_t src_begin, int64_t src_end) {
                      for (int64_t s = src_begin; s < src_end; ++s) {
                        for (int64_t k = t_indptr[s]; k < t_indptr[s + 1];
                             ++k) {
                          gx[s] += g[t2f[k]];
                        }
                      }
                    });
      });
}

VarPtr GatherEdgeDst(const SpMatPtr& a, const VarPtr& x) {
  const Csr& csr = a->forward();
  AUTOAC_CHECK_EQ(x->value.dim(), 1);
  AUTOAC_CHECK_EQ(x->value.numel(), csr.num_rows);
  Tensor out({csr.nnz()});
  auto kernel = [a](const Tensor* const* ins, Tensor& out, float* /*scratch*/) {
    AUTOAC_PROFILE_SCOPE("gather_edge_dst.forward");
    const Csr& csr = a->forward();
    const float* px = ins[0]->data();
    float* po = out.data();
    const int64_t* indptr = csr.indptr.data();
    ParallelFor(0, csr.num_rows, SparseRowGrain(csr, 1),
                [=](int64_t row_begin, int64_t row_end) {
                  for (int64_t i = row_begin; i < row_end; ++i) {
                    for (int64_t k = indptr[i]; k < indptr[i + 1]; ++k) {
                      po[k] = px[i];
                    }
                  }
                });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "GatherEdgeDst", std::move(out), {x},
      [a](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        AUTOAC_PROFILE_SCOPE("gather_edge_dst.backward");
        const Csr& csr = a->forward();
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        const int64_t* indptr = csr.indptr.data();
        ParallelFor(0, csr.num_rows, SparseRowGrain(csr, 1),
                    [=](int64_t row_begin, int64_t row_end) {
                      for (int64_t i = row_begin; i < row_end; ++i) {
                        for (int64_t k = indptr[i]; k < indptr[i + 1]; ++k) {
                          gx[i] += g[k];
                        }
                      }
                    });
      });
}

VarPtr Gather1d(const VarPtr& x, std::vector<int64_t> ids) {
  AUTOAC_CHECK_EQ(x->value.dim(), 1);
  int64_t n = x->value.numel();
  auto shared_ids =
      std::make_shared<const std::vector<int64_t>>(std::move(ids));
  int64_t m = static_cast<int64_t>(shared_ids->size());
  Tensor out({m});
  auto kernel = [shared_ids, m, n](const Tensor* const* ins, Tensor& out,
                                   float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    const int64_t* pids = shared_ids->data();
    ParallelFor(0, m, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        AUTOAC_DCHECK(pids[i] >= 0 && pids[i] < n);
        po[i] = px[pids[i]];
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Gather1d", std::move(out), {x},
      [shared_ids](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        AUTOAC_PROFILE_SCOPE("gather1d.scatter_backward");
        // Serial: `ids` may repeat, so the scatter-add is not
        // partitionable without atomics.
        const std::vector<int64_t>& ids = *shared_ids;
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        for (size_t i = 0; i < ids.size(); ++i) gx[ids[i]] += g[i];
      });
}

VarPtr PairDot(const VarPtr& h, std::vector<int64_t> us,
               std::vector<int64_t> vs) {
  AUTOAC_CHECK_EQ(h->value.dim(), 2);
  AUTOAC_CHECK_EQ(us.size(), vs.size());
  int64_t n = h->value.rows();
  int64_t d = h->value.cols();
  auto shared_us = std::make_shared<const std::vector<int64_t>>(std::move(us));
  auto shared_vs = std::make_shared<const std::vector<int64_t>>(std::move(vs));
  int64_t m = static_cast<int64_t>(shared_us->size());
  Tensor out({m});
  auto kernel = [shared_us, shared_vs, m, n, d](const Tensor* const* ins,
                                                Tensor& out,
                                                float* /*scratch*/) {
    const float* ph = ins[0]->data();
    float* po = out.data();
    const int64_t* pus = shared_us->data();
    const int64_t* pvs = shared_vs->data();
    ParallelFor(0, m, GrainForRows(d), [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        AUTOAC_DCHECK(pus[i] >= 0 && pus[i] < n);
        AUTOAC_DCHECK(pvs[i] >= 0 && pvs[i] < n);
        const float* hu = ph + pus[i] * d;
        const float* hv = ph + pvs[i] * d;
        float acc = 0.0f;
        for (int64_t j = 0; j < d; ++j) acc += hu[j] * hv[j];
        po[i] = acc;
      }
    });
  };
  {
    const Tensor* ins[] = {&h->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "PairDot", std::move(out), {h},
      [shared_us, shared_vs, d](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        AUTOAC_PROFILE_SCOPE("pair_dot.scatter_backward");
        // Serial: a node can appear in many pairs, so the scatter-add into
        // gh is not partitionable without atomics.
        const std::vector<int64_t>& us = *shared_us;
        const std::vector<int64_t>& vs = *shared_vs;
        const float* ph = self.parents[0]->value.data();
        float* gh = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        for (size_t i = 0; i < us.size(); ++i) {
          const float* hu = ph + us[i] * d;
          const float* hv = ph + vs[i] * d;
          float* gu = gh + us[i] * d;
          float* gv = gh + vs[i] * d;
          for (int64_t j = 0; j < d; ++j) {
            gu[j] += g[i] * hv[j];
            gv[j] += g[i] * hu[j];
          }
        }
      });
}

}  // namespace autoac
