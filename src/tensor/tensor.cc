#include "tensor/tensor.h"

#include <atomic>
#include <sstream>

namespace autoac {
namespace {

std::atomic<int64_t> g_tensor_buffers{0};

/// Bumps TensorBuffersAllocated() for a freshly acquired buffer of `numel`
/// floats. Zero-sized tensors own no buffer and never count.
void NoteBufferAllocated(int64_t numel) {
  if (numel > 0) g_tensor_buffers.fetch_add(1, std::memory_order_relaxed);
}

int64_t ShapeProduct(const std::vector<int64_t>& shape) {
  int64_t product = 1;
  for (int64_t extent : shape) {
    AUTOAC_CHECK_GE(extent, 0);
    product *= extent;
  }
  return product;
}

}  // namespace

int64_t TensorBuffersAllocated() {
  return g_tensor_buffers.load(std::memory_order_relaxed);
}

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  data_.assign(ShapeProduct(shape_), 0.0f);
  NoteBufferAllocated(numel());
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), data_(other.data_) {
  NoteBufferAllocated(numel());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  // vector copy-assign reuses the existing buffer when it is large enough;
  // only a genuine reallocation counts.
  if (data_.capacity() < other.data_.size()) {
    NoteBufferAllocated(static_cast<int64_t>(other.data_.size()));
  }
  shape_ = other.shape_;
  data_ = other.data_;
  return *this;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          std::vector<float> values) {
  Tensor t;
  int64_t expected = ShapeProduct(shape);
  AUTOAC_CHECK_EQ(expected, static_cast<int64_t>(values.size()));
  t.shape_ = std::move(shape);
  t.data_ = std::move(values);
  // The buffer was heap-allocated by the caller on this tensor's behalf.
  NoteBufferAllocated(t.numel());
  return t;
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::Scalar(float value) {
  return FromVector({1}, {value});
}

int64_t Tensor::size(int64_t axis) const {
  AUTOAC_CHECK(axis >= 0 && axis < dim());
  return shape_[axis];
}

int64_t Tensor::rows() const {
  AUTOAC_CHECK_EQ(dim(), 2);
  return shape_[0];
}

int64_t Tensor::cols() const {
  AUTOAC_CHECK_EQ(dim(), 2);
  return shape_[1];
}

void Tensor::Fill(float value) {
  for (float& x : data_) x = value;
}

Tensor Tensor::Reshaped(std::vector<int64_t> new_shape) const {
  AUTOAC_CHECK_EQ(ShapeProduct(new_shape), numel());
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  NoteBufferAllocated(t.numel());
  return t;
}

std::string Tensor::ShapeString() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape_[i];
  }
  out << "]";
  return out.str();
}

}  // namespace autoac
