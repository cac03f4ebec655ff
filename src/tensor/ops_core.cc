#include <algorithm>
#include <cmath>
#include <memory>

#include "tensor/op_helpers.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/profiler.h"

// Every op here follows the same structure: build the output tensor,
// compute it with a local kernel closure (input tensors -> out, dims
// captured by value), then hand the value and its backward closure to
// MakeOp. Kernels run on the deterministic parallel runtime, so every op's
// output is bitwise identical at every thread count.

namespace autoac {

using internal::MakeOp;
using internal::NeedsGrad;

namespace internal {

// All three GEMMs are blocked over *output* rows: each ParallelFor chunk
// owns a disjoint span of output rows and accumulates contributions in the
// same order as the serial loop, so results are bitwise identical at every
// thread count.

void GemmNN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n) {
  ParallelFor(0, m, GrainForRows(k * n), [=](int64_t row_begin,
                                             int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = a + i * k;
      float* orow = out + i * n;
      for (int64_t l = 0; l < k; ++l) {
        float av = arow[l];
        if (av == 0.0f) continue;
        const float* brow = b + l * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  });
}

void GemmNT(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n) {
  ParallelFor(0, m, GrainForRows(k * n), [=](int64_t row_begin,
                                             int64_t row_end) {
    for (int64_t i = row_begin; i < row_end; ++i) {
      const float* arow = a + i * k;
      float* orow = out + i * n;
      for (int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (int64_t l = 0; l < k; ++l) acc += arow[l] * brow[l];
        orow[j] += acc;
      }
    }
  });
}

void GemmTN(const float* a, const float* b, float* out, int64_t m, int64_t k,
            int64_t n) {
  // Output is [k, n]; the reduction runs over the m rows of a and b. Each
  // chunk restricts the inner column walk to its own output-row span
  // [i_begin, i_end), keeping the per-element accumulation order (ascending
  // l) identical to the serial sweep.
  ParallelFor(0, k, GrainForRows(m * n), [=](int64_t i_begin, int64_t i_end) {
    for (int64_t l = 0; l < m; ++l) {
      const float* arow = a + l * k;
      const float* brow = b + l * n;
      for (int64_t i = i_begin; i < i_end; ++i) {
        float av = arow[i];
        if (av == 0.0f) continue;
        float* orow = out + i * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  });
}

}  // namespace internal

VarPtr MatMul(const VarPtr& a, const VarPtr& b) {
  AUTOAC_CHECK_EQ(a->value.dim(), 2);
  AUTOAC_CHECK_EQ(b->value.dim(), 2);
  int64_t m = a->value.rows();
  int64_t k = a->value.cols();
  int64_t n = b->value.cols();
  AUTOAC_CHECK_EQ(k, b->value.rows())
      << "MatMul shape mismatch " << a->value.ShapeString() << " x "
      << b->value.ShapeString();
  Tensor out(m, n);
  auto kernel = [m, k, n](const Tensor* const* ins, Tensor& out,
                          float* /*scratch*/) {
    AUTOAC_PROFILE_SCOPE("gemm.forward");
    out.Fill(0.0f);
    internal::GemmNN(ins[0]->data(), ins[1]->data(), out.data(), m, k, n);
  };
  {
    const Tensor* ins[] = {&a->value, &b->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "MatMul", std::move(out), {a, b},
      [m, k, n](Variable& self) {
        AUTOAC_PROFILE_SCOPE("gemm.backward");
        const VarPtr& a = self.parents[0];
        const VarPtr& b = self.parents[1];
        if (NeedsGrad(a)) {
          internal::GemmNT(self.grad.data(), b->value.data(),
                           a->EnsureGrad().data(), m, n, k);
        }
        if (NeedsGrad(b)) {
          internal::GemmTN(a->value.data(), self.grad.data(),
                           b->EnsureGrad().data(), m, k, n);
        }
      });
}

VarPtr Transpose(const VarPtr& a) {
  AUTOAC_CHECK_EQ(a->value.dim(), 2);
  int64_t m = a->value.rows();
  int64_t n = a->value.cols();
  Tensor out(n, m);
  auto kernel = [m, n](const Tensor* const* ins, Tensor& out,
                       float* /*scratch*/) {
    const float* pa = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, GrainForRows(m), [=](int64_t lo, int64_t hi) {
      for (int64_t j = lo; j < hi; ++j) {
        for (int64_t i = 0; i < m; ++i) po[j * m + i] = pa[i * n + j];
      }
    });
  };
  {
    const Tensor* ins[] = {&a->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Transpose", std::move(out), {a},
      [m, n](Variable& self) {
        const VarPtr& a = self.parents[0];
        if (!NeedsGrad(a)) return;
        float* ga = a->EnsureGrad().data();
        const float* g = self.grad.data();
        ParallelFor(0, m, GrainForRows(n), [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            for (int64_t j = 0; j < n; ++j) ga[i * n + j] += g[j * m + i];
          }
        });
      });
}

VarPtr Add(const VarPtr& a, const VarPtr& b) {
  AUTOAC_CHECK(a->value.SameShape(b->value))
      << "Add shape mismatch " << a->value.ShapeString() << " vs "
      << b->value.ShapeString();
  Tensor out(a->value.shape());
  int64_t n = out.numel();
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* pa = ins[0]->data();
    const float* pb = ins[1]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] + pb[i];
    });
  };
  {
    const Tensor* ins[] = {&a->value, &b->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Add", std::move(out), {a, b},
      [n](Variable& self) {
        for (int side = 0; side < 2; ++side) {
          const VarPtr& p = self.parents[side];
          if (!NeedsGrad(p)) continue;
          float* gp = p->EnsureGrad().data();
          const float* g = self.grad.data();
          ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) gp[i] += g[i];
          });
        }
      });
}

VarPtr AddN(const std::vector<VarPtr>& xs) {
  AUTOAC_CHECK(!xs.empty());
  if (xs.size() == 1) return xs[0];
  Tensor out(xs[0]->value.shape());
  int64_t n = out.numel();
  for (const VarPtr& x : xs) AUTOAC_CHECK(x->value.SameShape(xs[0]->value));
  size_t count = xs.size();
  // Summed input-major within each span so the accumulation order per
  // element matches the serial sweep.
  auto kernel = [n, count](const Tensor* const* ins, Tensor& out,
                           float* /*scratch*/) {
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      std::fill(po + lo, po + hi, 0.0f);
      for (size_t s = 0; s < count; ++s) {
        const float* px = ins[s]->data();
        for (int64_t i = lo; i < hi; ++i) po[i] += px[i];
      }
    });
  };
  {
    std::vector<const Tensor*> ins;
    ins.reserve(count);
    for (const VarPtr& x : xs) ins.push_back(&x->value);
    kernel(ins.data(), out, nullptr);
  }
  return MakeOp(
      "AddN", std::move(out), xs,
      [n](Variable& self) {
        const float* g = self.grad.data();
        for (const VarPtr& p : self.parents) {
          if (!NeedsGrad(p)) continue;
          float* gp = p->EnsureGrad().data();
          ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) gp[i] += g[i];
          });
        }
      });
}

VarPtr Sub(const VarPtr& a, const VarPtr& b) {
  AUTOAC_CHECK(a->value.SameShape(b->value));
  Tensor out(a->value.shape());
  int64_t n = out.numel();
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* pa = ins[0]->data();
    const float* pb = ins[1]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] - pb[i];
    });
  };
  {
    const Tensor* ins[] = {&a->value, &b->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Sub", std::move(out), {a, b},
      [n](Variable& self) {
        const float* g = self.grad.data();
        if (NeedsGrad(self.parents[0])) {
          float* ga = self.parents[0]->EnsureGrad().data();
          ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) ga[i] += g[i];
          });
        }
        if (NeedsGrad(self.parents[1])) {
          float* gb = self.parents[1]->EnsureGrad().data();
          ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) gb[i] -= g[i];
          });
        }
      });
}

VarPtr Mul(const VarPtr& a, const VarPtr& b) {
  AUTOAC_CHECK(a->value.SameShape(b->value));
  Tensor out(a->value.shape());
  int64_t n = out.numel();
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* pa = ins[0]->data();
    const float* pb = ins[1]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = pa[i] * pb[i];
    });
  };
  {
    const Tensor* ins[] = {&a->value, &b->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Mul", std::move(out), {a, b},
      [n](Variable& self) {
        const float* g = self.grad.data();
        const float* pa = self.parents[0]->value.data();
        const float* pb = self.parents[1]->value.data();
        if (NeedsGrad(self.parents[0])) {
          float* ga = self.parents[0]->EnsureGrad().data();
          ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) ga[i] += g[i] * pb[i];
          });
        }
        if (NeedsGrad(self.parents[1])) {
          float* gb = self.parents[1]->EnsureGrad().data();
          ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) gb[i] += g[i] * pa[i];
          });
        }
      });
}

VarPtr Scale(const VarPtr& x, float s) {
  Tensor out(x->value.shape());
  int64_t n = out.numel();
  auto kernel = [n, s](const Tensor* const* ins, Tensor& out,
                       float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = px[i] * s;
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Scale", std::move(out), {x},
      [n, s](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) gx[i] += g[i] * s;
        });
      });
}

VarPtr AddScalar(const VarPtr& x, float s) {
  Tensor out(x->value.shape());
  int64_t n = out.numel();
  auto kernel = [n, s](const Tensor* const* ins, Tensor& out,
                       float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = px[i] + s;
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "AddScalar", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) gx[i] += g[i];
        });
      });
}

VarPtr ScaleByVar(const VarPtr& x, const VarPtr& s) {
  AUTOAC_CHECK_EQ(s->value.numel(), 1);
  float sv = s->value.data()[0];
  Tensor out(x->value.shape());
  int64_t n = out.numel();
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    float sv = ins[1]->data()[0];
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = px[i] * sv;
    });
  };
  {
    const Tensor* ins[] = {&x->value, &s->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "ScaleByVar", std::move(out), {x, s},
      [n, sv](Variable& self) {
        const float* g = self.grad.data();
        const float* px = self.parents[0]->value.data();
        if (NeedsGrad(self.parents[0])) {
          float* gx = self.parents[0]->EnsureGrad().data();
          ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) gx[i] += g[i] * sv;
          });
        }
        if (NeedsGrad(self.parents[1])) {
          double acc = ParallelReduce(
              0, n, kReduceGrain, [=](int64_t lo, int64_t hi) {
                double partial = 0.0;
                for (int64_t i = lo; i < hi; ++i) partial += g[i] * px[i];
                return partial;
              });
          self.parents[1]->EnsureGrad().data()[0] += static_cast<float>(acc);
        }
      });
}

VarPtr AddBias(const VarPtr& x, const VarPtr& bias) {
  AUTOAC_CHECK_EQ(x->value.dim(), 2);
  AUTOAC_CHECK_EQ(bias->value.dim(), 1);
  int64_t m = x->value.rows();
  int64_t n = x->value.cols();
  AUTOAC_CHECK_EQ(n, bias->value.numel());
  Tensor out(m, n);
  auto kernel = [m, n](const Tensor* const* ins, Tensor& out,
                       float* /*scratch*/) {
    const float* px = ins[0]->data();
    const float* pb = ins[1]->data();
    float* po = out.data();
    ParallelFor(0, m, GrainForRows(n), [=](int64_t row_begin,
                                           int64_t row_end) {
      for (int64_t i = row_begin; i < row_end; ++i) {
        for (int64_t j = 0; j < n; ++j) po[i * n + j] = px[i * n + j] + pb[j];
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value, &bias->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "AddBias", std::move(out), {x, bias},
      [m, n](Variable& self) {
        const float* g = self.grad.data();
        if (NeedsGrad(self.parents[0])) {
          float* gx = self.parents[0]->EnsureGrad().data();
          ParallelFor(0, m * n, kElementwiseGrain,
                      [=](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) gx[i] += g[i];
                      });
        }
        if (NeedsGrad(self.parents[1])) {
          // Column-partitioned so each chunk owns a disjoint span of gb; the
          // per-column accumulation order (ascending i) matches the serial
          // loop.
          float* gb = self.parents[1]->EnsureGrad().data();
          ParallelFor(0, n, GrainForRows(m), [=](int64_t col_begin,
                                                 int64_t col_end) {
            for (int64_t i = 0; i < m; ++i) {
              for (int64_t j = col_begin; j < col_end; ++j) {
                gb[j] += g[i * n + j];
              }
            }
          });
        }
      });
}

VarPtr Sqrt(const VarPtr& x) {
  Tensor out(x->value.shape());
  int64_t n = out.numel();
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        AUTOAC_DCHECK(px[i] >= 0.0f);
        po[i] = std::sqrt(px[i]);
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Sqrt", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        const float* po = self.value.data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            // d sqrt(x) / dx = 1 / (2 sqrt(x)); clamp to keep the gradient
            // finite at x == 0.
            gx[i] += g[i] / (2.0f * std::max(po[i], 1e-6f));
          }
        });
      });
}

VarPtr ConcatRows(const std::vector<VarPtr>& xs) {
  AUTOAC_CHECK(!xs.empty());
  int64_t cols = xs[0]->value.cols();
  int64_t total_rows = 0;
  std::vector<int64_t> row_counts;
  row_counts.reserve(xs.size());
  for (const VarPtr& x : xs) {
    AUTOAC_CHECK_EQ(x->value.dim(), 2);
    AUTOAC_CHECK_EQ(x->value.cols(), cols);
    row_counts.push_back(x->value.rows());
    total_rows += x->value.rows();
  }
  Tensor out(total_rows, cols);
  auto kernel = [cols, row_counts](const Tensor* const* ins, Tensor& out,
                                   float* /*scratch*/) {
    int64_t offset = 0;
    for (size_t s = 0; s < row_counts.size(); ++s) {
      const float* px = ins[s]->data();
      std::copy(px, px + row_counts[s] * cols, out.data() + offset * cols);
      offset += row_counts[s];
    }
  };
  {
    std::vector<const Tensor*> ins;
    ins.reserve(xs.size());
    for (const VarPtr& x : xs) ins.push_back(&x->value);
    kernel(ins.data(), out, nullptr);
  }
  return MakeOp(
      "ConcatRows", std::move(out), xs,
      [cols](Variable& self) {
        int64_t offset = 0;
        for (const VarPtr& p : self.parents) {
          int64_t r = p->value.rows();
          if (NeedsGrad(p)) {
            float* gp = p->EnsureGrad().data();
            const float* g = self.grad.data() + offset * cols;
            for (int64_t i = 0; i < r * cols; ++i) gp[i] += g[i];
          }
          offset += r;
        }
      });
}

VarPtr ConcatCols(const std::vector<VarPtr>& xs) {
  AUTOAC_CHECK(!xs.empty());
  int64_t rows = xs[0]->value.rows();
  int64_t total_cols = 0;
  std::vector<int64_t> col_counts;
  col_counts.reserve(xs.size());
  for (const VarPtr& x : xs) {
    AUTOAC_CHECK_EQ(x->value.dim(), 2);
    AUTOAC_CHECK_EQ(x->value.rows(), rows);
    col_counts.push_back(x->value.cols());
    total_cols += x->value.cols();
  }
  Tensor out(rows, total_cols);
  auto kernel = [rows, total_cols, col_counts](const Tensor* const* ins,
                                               Tensor& out,
                                               float* /*scratch*/) {
    int64_t col_offset = 0;
    for (size_t s = 0; s < col_counts.size(); ++s) {
      int64_t c = col_counts[s];
      const float* px = ins[s]->data();
      for (int64_t i = 0; i < rows; ++i) {
        std::copy(px + i * c, px + (i + 1) * c,
                  out.data() + i * total_cols + col_offset);
      }
      col_offset += c;
    }
  };
  {
    std::vector<const Tensor*> ins;
    ins.reserve(xs.size());
    for (const VarPtr& x : xs) ins.push_back(&x->value);
    kernel(ins.data(), out, nullptr);
  }
  return MakeOp(
      "ConcatCols", std::move(out), xs,
      [rows, total_cols](Variable& self) {
        int64_t col_offset = 0;
        for (const VarPtr& p : self.parents) {
          int64_t c = p->value.cols();
          if (NeedsGrad(p)) {
            Tensor& gp = p->EnsureGrad();
            for (int64_t i = 0; i < rows; ++i) {
              const float* g = self.grad.data() + i * total_cols + col_offset;
              float* gprow = gp.data() + i * c;
              for (int64_t j = 0; j < c; ++j) gprow[j] += g[j];
            }
          }
          col_offset += c;
        }
      });
}

VarPtr GatherRows(const VarPtr& x, std::vector<int64_t> rows) {
  AUTOAC_CHECK_EQ(x->value.dim(), 2);
  int64_t n = x->value.rows();
  int64_t c = x->value.cols();
  int64_t m = static_cast<int64_t>(rows.size());
  auto ids = std::make_shared<const std::vector<int64_t>>(std::move(rows));
  Tensor out(m, c);
  auto kernel = [ids, m, n, c](const Tensor* const* ins, Tensor& out,
                               float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    const int64_t* prows = ids->data();
    ParallelFor(0, m, GrainForRows(c), [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        AUTOAC_DCHECK(prows[i] >= 0 && prows[i] < n);
        std::copy(px + prows[i] * c, px + (prows[i] + 1) * c, po + i * c);
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "GatherRows", std::move(out), {x},
      [ids, c](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        // Serial: `rows` may repeat, so the scatter-add is not
        // row-partitionable without atomics.
        Tensor& gx = self.parents[0]->EnsureGrad();
        const std::vector<int64_t>& rows = *ids;
        for (size_t i = 0; i < rows.size(); ++i) {
          const float* g = self.grad.data() + i * c;
          float* gp = gx.data() + rows[i] * c;
          for (int64_t j = 0; j < c; ++j) gp[j] += g[j];
        }
      });
}

VarPtr ScatterRows(const VarPtr& x, std::vector<int64_t> rows,
                   int64_t n_rows) {
  AUTOAC_CHECK_EQ(x->value.dim(), 2);
  AUTOAC_CHECK_EQ(x->value.rows(), static_cast<int64_t>(rows.size()));
  int64_t c = x->value.cols();
  int64_t m = static_cast<int64_t>(rows.size());
  auto ids = std::make_shared<const std::vector<int64_t>>(std::move(rows));
  Tensor out(n_rows, c);
  // Callers scatter to distinct target rows (missing-node ids, per-type
  // offsets), so the row-partitioned writes below never collide. The
  // non-scattered rows are zero.
  auto kernel = [ids, m, c, n_rows](const Tensor* const* ins, Tensor& out,
                                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    const int64_t* prows = ids->data();
    out.Fill(0.0f);
    ParallelFor(0, m, GrainForRows(c), [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        AUTOAC_DCHECK(prows[i] >= 0 && prows[i] < n_rows);
        std::copy(px + i * c, px + (i + 1) * c, po + prows[i] * c);
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "ScatterRows", std::move(out), {x},
      [ids, c](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        Tensor& gx = self.parents[0]->EnsureGrad();
        const float* g = self.grad.data();
        float* gp = gx.data();
        const int64_t* prows = ids->data();
        int64_t m = static_cast<int64_t>(ids->size());
        ParallelFor(0, m, GrainForRows(c), [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            const float* grow = g + prows[i] * c;
            float* gprow = gp + i * c;
            for (int64_t j = 0; j < c; ++j) gprow[j] += grow[j];
          }
        });
      });
}

VarPtr SliceCol(const VarPtr& x, int64_t j) {
  AUTOAC_CHECK_EQ(x->value.dim(), 2);
  int64_t m = x->value.rows();
  int64_t n = x->value.cols();
  AUTOAC_CHECK(j >= 0 && j < n);
  Tensor out({m});
  auto kernel = [m, n, j](const Tensor* const* ins, Tensor& out,
                          float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    for (int64_t i = 0; i < m; ++i) po[i] = px[i * n + j];
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "SliceCol", std::move(out), {x},
      [m, n, j](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        Tensor& gx = self.parents[0]->EnsureGrad();
        for (int64_t i = 0; i < m; ++i) {
          gx.data()[i * n + j] += self.grad.at(i);
        }
      });
}

VarPtr SliceElement(const VarPtr& x, int64_t i) {
  AUTOAC_CHECK_EQ(x->value.dim(), 1);
  AUTOAC_CHECK(i >= 0 && i < x->value.numel());
  Tensor out({1});
  auto kernel = [i](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    out.data()[0] = ins[0]->data()[i];
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "SliceElement", std::move(out), {x},
      [i](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        self.parents[0]->EnsureGrad().data()[i] += self.grad.data()[0];
      });
}

VarPtr Reshape(const VarPtr& x, std::vector<int64_t> shape) {
  Tensor out(std::move(shape));
  int64_t n = out.numel();
  AUTOAC_CHECK_EQ(n, x->value.numel());
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = px[i];
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Reshape", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) gx[i] += g[i];
        });
      });
}

VarPtr ScaleRowsByGather(const VarPtr& x, const VarPtr& weights,
                         std::vector<int64_t> ids_in) {
  AUTOAC_CHECK_EQ(x->value.dim(), 2);
  AUTOAC_CHECK_EQ(weights->value.dim(), 1);
  int64_t m = x->value.rows();
  int64_t c = x->value.cols();
  int64_t n_weights = weights->value.numel();
  AUTOAC_CHECK_EQ(m, static_cast<int64_t>(ids_in.size()));
  auto ids = std::make_shared<const std::vector<int64_t>>(std::move(ids_in));
  Tensor out(m, c);
  auto kernel = [ids, m, c, n_weights](const Tensor* const* ins, Tensor& out,
                                       float* /*scratch*/) {
    const float* px = ins[0]->data();
    const float* pw = ins[1]->data();
    float* po = out.data();
    const int64_t* pids = ids->data();
    ParallelFor(0, m, GrainForRows(c), [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        AUTOAC_DCHECK(pids[i] >= 0 && pids[i] < n_weights);
        float w = pw[pids[i]];
        const float* xrow = px + i * c;
        float* orow = po + i * c;
        for (int64_t j = 0; j < c; ++j) orow[j] = w * xrow[j];
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value, &weights->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "ScaleRowsByGather", std::move(out), {x, weights},
      [ids, m, c](Variable& self) {
        const VarPtr& x = self.parents[0];
        const VarPtr& weights = self.parents[1];
        const float* g = self.grad.data();
        if (NeedsGrad(x)) {
          float* gx = x->EnsureGrad().data();
          const float* pw = weights->value.data();
          const int64_t* pids = ids->data();
          ParallelFor(0, m, GrainForRows(c), [=](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              float w = pw[pids[i]];
              for (int64_t j = 0; j < c; ++j) {
                gx[i * c + j] += w * g[i * c + j];
              }
            }
          });
        }
        if (NeedsGrad(weights)) {
          // Serial: `ids` repeat (many rows share a cluster weight), so the
          // scatter-add is not row-partitionable without atomics.
          float* gw = weights->EnsureGrad().data();
          const float* px = x->value.data();
          const std::vector<int64_t>& idv = *ids;
          for (int64_t i = 0; i < m; ++i) {
            float acc = 0.0f;
            for (int64_t j = 0; j < c; ++j) {
              acc += px[i * c + j] * g[i * c + j];
            }
            gw[idv[i]] += acc;
          }
        }
      });
}

VarPtr SumAll(const VarPtr& x) {
  int64_t n = x->value.numel();
  Tensor out({1});
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    double acc =
        ParallelReduce(0, n, kReduceGrain, [=](int64_t lo, int64_t hi) {
          double partial = 0.0;
          for (int64_t i = lo; i < hi; ++i) partial += px[i];
          return partial;
        });
    out.data()[0] = static_cast<float>(acc);
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "SumAll", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        float g = self.grad.data()[0];
        float* gx = self.parents[0]->EnsureGrad().data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) gx[i] += g;
        });
      });
}

VarPtr MeanAll(const VarPtr& x) {
  int64_t n = x->value.numel();
  AUTOAC_CHECK_GT(n, 0);
  Tensor out({1});
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    double acc =
        ParallelReduce(0, n, kReduceGrain, [=](int64_t lo, int64_t hi) {
          double partial = 0.0;
          for (int64_t i = lo; i < hi; ++i) partial += px[i];
          return partial;
        });
    out.data()[0] = static_cast<float>(acc / n);
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "MeanAll", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        float g = self.grad.data()[0] / static_cast<float>(n);
        float* gx = self.parents[0]->EnsureGrad().data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) gx[i] += g;
        });
      });
}

VarPtr SumSquares(const VarPtr& x) {
  int64_t n = x->value.numel();
  Tensor out({1});
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    double acc =
        ParallelReduce(0, n, kReduceGrain, [=](int64_t lo, int64_t hi) {
          double partial = 0.0;
          for (int64_t i = lo; i < hi; ++i) {
            partial += static_cast<double>(px[i]) * px[i];
          }
          return partial;
        });
    out.data()[0] = static_cast<float>(acc);
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "SumSquares", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        float g = self.grad.data()[0];
        const float* px = self.parents[0]->value.data();
        float* gx = self.parents[0]->EnsureGrad().data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) gx[i] += 2.0f * g * px[i];
        });
      });
}

}  // namespace autoac
