#include <algorithm>
#include <cmath>
#include <memory>

#include "tensor/op_helpers.h"
#include "tensor/ops.h"
#include "util/parallel.h"
#include "util/profiler.h"

// See ops_core.cc for the op structure shared by all ops.

namespace autoac {

using internal::MakeOp;
using internal::NeedsGrad;

VarPtr Relu(const VarPtr& x) {
  Tensor out(x->value.shape());
  int64_t n = out.numel();
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Relu", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        const float* px = self.parents[0]->value.data();
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            if (px[i] > 0.0f) gx[i] += g[i];
          }
        });
      });
}

VarPtr LeakyRelu(const VarPtr& x, float negative_slope) {
  Tensor out(x->value.shape());
  int64_t n = out.numel();
  auto kernel = [n, negative_slope](const Tensor* const* ins, Tensor& out,
                                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        po[i] = px[i] > 0.0f ? px[i] : negative_slope * px[i];
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "LeakyRelu", std::move(out), {x},
      [n, negative_slope](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        const float* px = self.parents[0]->value.data();
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            gx[i] += px[i] > 0.0f ? g[i] : negative_slope * g[i];
          }
        });
      });
}

VarPtr Elu(const VarPtr& x) {
  Tensor out(x->value.shape());
  int64_t n = out.numel();
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        po[i] = px[i] > 0.0f ? px[i] : std::expm1(px[i]);
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Elu", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        const float* px = self.parents[0]->value.data();
        const float* po = self.value.data();
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            // d elu / dx = 1 for x > 0, else elu(x) + 1 = exp(x).
            gx[i] += px[i] > 0.0f ? g[i] : g[i] * (po[i] + 1.0f);
          }
        });
      });
}

VarPtr Sigmoid(const VarPtr& x) {
  Tensor out(x->value.shape());
  int64_t n = out.numel();
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        po[i] = 1.0f / (1.0f + std::exp(-px[i]));
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Sigmoid", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        const float* po = self.value.data();
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            gx[i] += g[i] * po[i] * (1.0f - po[i]);
          }
        });
      });
}

VarPtr Tanh(const VarPtr& x) {
  Tensor out(x->value.shape());
  int64_t n = out.numel();
  auto kernel = [n](const Tensor* const* ins, Tensor& out,
                    float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = std::tanh(px[i]);
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "Tanh", std::move(out), {x},
      [n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        const float* po = self.value.data();
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* g = self.grad.data();
        ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            gx[i] += g[i] * (1.0f - po[i] * po[i]);
          }
        });
      });
}

VarPtr RowSoftmax(const VarPtr& x) {
  AUTOAC_CHECK_EQ(x->value.dim(), 2);
  int64_t m = x->value.rows();
  int64_t n = x->value.cols();
  Tensor out(m, n);
  auto kernel = [m, n](const Tensor* const* ins, Tensor& out,
                       float* /*scratch*/) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, m, GrainForRows(3 * n), [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const float* row = px + i * n;
        float* orow = po + i * n;
        float max_value = *std::max_element(row, row + n);
        float sum = 0.0f;
        for (int64_t j = 0; j < n; ++j) {
          orow[j] = std::exp(row[j] - max_value);
          sum += orow[j];
        }
        for (int64_t j = 0; j < n; ++j) orow[j] /= sum;
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, nullptr);
  }
  return MakeOp(
      "RowSoftmax", std::move(out), {x},
      [m, n](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        const float* po = self.value.data();
        const float* g = self.grad.data();
        float* gx = self.parents[0]->EnsureGrad().data();
        ParallelFor(0, m, GrainForRows(2 * n), [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            const float* orow = po + i * n;
            const float* grow = g + i * n;
            float dot = 0.0f;
            for (int64_t j = 0; j < n; ++j) dot += orow[j] * grow[j];
            float* gxrow = gx + i * n;
            for (int64_t j = 0; j < n; ++j) {
              gxrow[j] += orow[j] * (grow[j] - dot);
            }
          }
        });
      });
}

VarPtr RowL2Normalize(const VarPtr& x, float eps) {
  AUTOAC_CHECK_EQ(x->value.dim(), 2);
  int64_t m = x->value.rows();
  int64_t n = x->value.cols();
  Tensor out(m, n);
  std::vector<float> norms(m);
  // `scratch` receives the per-row clamped norms for the backward closure.
  auto kernel = [m, n, eps](const Tensor* const* ins, Tensor& out,
                            float* scratch) {
    const float* px = ins[0]->data();
    float* po = out.data();
    ParallelFor(0, m, GrainForRows(2 * n), [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        const float* row = px + i * n;
        double ss = 0.0;
        for (int64_t j = 0; j < n; ++j) {
          ss += static_cast<double>(row[j]) * row[j];
        }
        float norm = static_cast<float>(std::sqrt(ss));
        if (scratch != nullptr) scratch[i] = std::max(norm, eps);
        float inv = norm > eps ? 1.0f / norm : 1.0f;
        float* orow = po + i * n;
        for (int64_t j = 0; j < n; ++j) orow[j] = row[j] * inv;
      }
    });
  };
  {
    const Tensor* ins[] = {&x->value};
    kernel(ins, out, norms.data());
  }
  return MakeOp(
      "RowL2Normalize", std::move(out), {x},
      [m, n, norms = std::move(norms), eps](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        const float* po = self.value.data();
        const float* g = self.grad.data();
        float* gx = self.parents[0]->EnsureGrad().data();
        const float* pnorms = norms.data();
        ParallelFor(0, m, GrainForRows(2 * n), [=](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            const float* orow = po + i * n;
            const float* grow = g + i * n;
            float* gxrow = gx + i * n;
            if (pnorms[i] <= eps) {
              for (int64_t j = 0; j < n; ++j) gxrow[j] += grow[j];
              continue;
            }
            // d(x/||x||)/dx = (I - y y^T) / ||x||, y = x/||x||.
            float dot = 0.0f;
            for (int64_t j = 0; j < n; ++j) dot += orow[j] * grow[j];
            float inv = 1.0f / pnorms[i];
            for (int64_t j = 0; j < n; ++j) {
              gxrow[j] += (grow[j] - dot * orow[j]) * inv;
            }
          }
        });
      });
}

VarPtr Dropout(const VarPtr& x, float p, bool training, Rng& rng) {
  if (!training || p <= 0.0f) return x;
  AUTOAC_CHECK_LT(p, 1.0f);
  int64_t n = x->value.numel();
  std::vector<float> mask(n);
  float keep_scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < n; ++i) {
    mask[i] = rng.Bernoulli(p) ? 0.0f : keep_scale;
  }
  Tensor out(x->value.shape());
  const float* px = x->value.data();
  float* po = out.data();
  // The mask generation above stays serial (the RNG draw order defines the
  // mask); only the apply is parallel.
  {
    const float* pmask = mask.data();
    ParallelFor(0, n, kElementwiseGrain, [=](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) po[i] = px[i] * pmask[i];
    });
  }
  return MakeOp("Dropout", std::move(out), {x},
                [n, mask = std::move(mask)](Variable& self) {
                  if (!NeedsGrad(self.parents[0])) return;
                  float* gx = self.parents[0]->EnsureGrad().data();
                  const float* g = self.grad.data();
                  const float* pmask = mask.data();
                  ParallelFor(0, n, kElementwiseGrain,
                              [=](int64_t lo, int64_t hi) {
                                for (int64_t i = lo; i < hi; ++i) {
                                  gx[i] += g[i] * pmask[i];
                                }
                              });
                });
}

VarPtr SoftmaxCrossEntropy(const VarPtr& logits,
                           const std::vector<int64_t>& labels,
                           const std::vector<int64_t>& rows) {
  AUTOAC_CHECK_EQ(logits->value.dim(), 2);
  AUTOAC_CHECK(!rows.empty());
  int64_t n = logits->value.rows();
  int64_t num_classes = logits->value.cols();
  AUTOAC_CHECK_EQ(n, static_cast<int64_t>(labels.size()));

  // Cache the softmax probabilities for the selected rows; the backward pass
  // is then (prob - onehot) / |rows|. Each reduce chunk owns a disjoint span
  // of `probs` rows, and the loss sum uses ParallelReduce's fixed chunking,
  // so the result is identical at every thread count.
  std::vector<float> probs(rows.size() * num_classes);
  int64_t num_rows = static_cast<int64_t>(rows.size());
  int64_t row_grain = GrainForRows(3 * num_classes);
  double total = 0.0;
  {
    const float* pl = logits->value.data();
    float* pprobs = probs.data();
    const int64_t* prows = rows.data();
    const int64_t* plabels = labels.data();
    total = -ParallelReduce(0, num_rows, row_grain, [=](int64_t lo,
                                                        int64_t hi) {
      double partial = 0.0;
      for (int64_t r = lo; r < hi; ++r) {
        int64_t row = prows[r];
        AUTOAC_DCHECK(row >= 0 && row < n);
        int64_t label = plabels[row];
        AUTOAC_DCHECK(label >= 0 && label < num_classes);
        const float* lrow = pl + row * num_classes;
        float max_value = *std::max_element(lrow, lrow + num_classes);
        double sum = 0.0;
        float* prow = pprobs + r * num_classes;
        for (int64_t j = 0; j < num_classes; ++j) {
          prow[j] = std::exp(lrow[j] - max_value);
          sum += prow[j];
        }
        float inv = static_cast<float>(1.0 / sum);
        for (int64_t j = 0; j < num_classes; ++j) prow[j] *= inv;
        partial += std::log(std::max(prow[label], 1e-12f));
      }
      return partial;
    });
  }
  // The backward scatter is row-partitionable only when no logits row is
  // selected twice.
  bool unique_rows = [&] {
    std::vector<int64_t> sorted = rows;
    std::sort(sorted.begin(), sorted.end());
    return std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end();
  }();
  Tensor out = Tensor::Scalar(static_cast<float>(total / rows.size()));
  return MakeOp(
      "SoftmaxCrossEntropy", std::move(out), {logits},
      [rows, labels, probs = std::move(probs), num_classes, num_rows,
       row_grain, unique_rows](Variable& self) {
        if (!NeedsGrad(self.parents[0])) return;
        float g = self.grad.data()[0] / static_cast<float>(rows.size());
        float* gl = self.parents[0]->EnsureGrad().data();
        const float* pprobs = probs.data();
        const int64_t* prows = rows.data();
        const int64_t* plabels = labels.data();
        auto apply = [=](int64_t lo, int64_t hi) {
          for (int64_t r = lo; r < hi; ++r) {
            int64_t row = prows[r];
            const float* prow = pprobs + r * num_classes;
            float* grow = gl + row * num_classes;
            for (int64_t j = 0; j < num_classes; ++j) grow[j] += g * prow[j];
            grow[plabels[row]] -= g;
          }
        };
        if (unique_rows) {
          ParallelFor(0, num_rows, row_grain, apply);
        } else {
          apply(0, num_rows);
        }
      });
}

VarPtr BceWithLogits(const VarPtr& scores, const std::vector<float>& targets) {
  int64_t n = scores->value.numel();
  AUTOAC_CHECK_EQ(n, static_cast<int64_t>(targets.size()));
  AUTOAC_CHECK_GT(n, 0);
  const float* ps = scores->value.data();
  const float* pt = targets.data();
  double total = ParallelReduce(0, n, kReduceGrain, [=](int64_t lo,
                                                        int64_t hi) {
    double partial = 0.0;
    for (int64_t i = lo; i < hi; ++i) {
      float s = ps[i];
      // Numerically stable: max(s,0) - s*t + log(1 + exp(-|s|)).
      partial += std::max(s, 0.0f) - s * pt[i] +
                 std::log1p(std::exp(-std::fabs(s)));
    }
    return partial;
  });
  Tensor out = Tensor::Scalar(static_cast<float>(total / n));
  return MakeOp("BceWithLogits", std::move(out), {scores},
                [n, targets](Variable& self) {
                  if (!NeedsGrad(self.parents[0])) return;
                  float g = self.grad.data()[0] / static_cast<float>(n);
                  const float* ps = self.parents[0]->value.data();
                  float* gs = self.parents[0]->EnsureGrad().data();
                  const float* pt = targets.data();
                  ParallelFor(0, n, kElementwiseGrain,
                              [=](int64_t lo, int64_t hi) {
                                for (int64_t i = lo; i < hi; ++i) {
                                  float sigma =
                                      1.0f / (1.0f + std::exp(-ps[i]));
                                  gs[i] += g * (sigma - pt[i]);
                                }
                              });
                });
}

}  // namespace autoac
