#include "nn/tensor.h"

#include <cmath>
#include <sstream>

namespace birnn::nn {

size_t ShapeSize(const std::vector<int>& shape) {
  size_t n = 1;
  for (int d : shape) {
    BIRNN_CHECK_GE(d, 0);
    n *= static_cast<size_t>(d);
  }
  return n;
}

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
  data_.assign(ShapeSize(shape_), 0.0f);
}

Tensor Tensor::Scalar(float v) {
  Tensor t(std::vector<int>{1});
  t.data_[0] = v;
  return t;
}

Tensor Tensor::Full(std::vector<int> shape, float v) {
  Tensor t(std::move(shape));
  t.Fill(v);
  return t;
}

Tensor Tensor::FromVector(const std::vector<float>& values) {
  Tensor t(std::vector<int>{static_cast<int>(values.size())});
  t.data_ = values;
  return t;
}

Tensor Tensor::FromMatrix(int rows, int cols,
                          const std::vector<float>& values) {
  BIRNN_CHECK_EQ(values.size(), static_cast<size_t>(rows) * cols);
  Tensor t(rows, cols);
  t.data_ = values;
  return t;
}

size_t Tensor::SetShape(const std::vector<int>& shape) {
  const size_t n = ShapeSize(shape);
  if (&shape != &shape_) shape_.assign(shape.begin(), shape.end());
  return n;
}

size_t Tensor::SetShape(int rows, int cols) {
  BIRNN_CHECK_GE(rows, 0);
  BIRNN_CHECK_GE(cols, 0);
  shape_.resize(2);
  shape_[0] = rows;
  shape_[1] = cols;
  return static_cast<size_t>(rows) * static_cast<size_t>(cols);
}

// vector::assign and vector::resize reuse capacity.
void Tensor::Resize(const std::vector<int>& shape) {
  data_.assign(SetShape(shape), 0.0f);
}

void Tensor::Resize(int rows, int cols) {
  data_.assign(SetShape(rows, cols), 0.0f);
}

void Tensor::ResizeForOverwrite(const std::vector<int>& shape) {
  data_.resize(SetShape(shape));  // stale values retained; caller overwrites
}

void Tensor::ResizeForOverwrite(int rows, int cols) {
  data_.resize(SetShape(rows, cols));
}

void Tensor::Fill(float v) {
  for (auto& x : data_) x = v;
}

void Tensor::Add(const Tensor& other) {
  BIRNN_CHECK(shape_ == other.shape_) << "shape mismatch in Tensor::Add";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Scale(float s) {
  for (auto& x : data_) x *= s;
}

Tensor Tensor::Reshaped(std::vector<int> new_shape) const {
  BIRNN_CHECK_EQ(ShapeSize(new_shape), size());
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

float Tensor::Sum() const {
  float s = 0.0f;
  for (float x : data_) s += x;
  return s;
}

bool Tensor::Equals(const Tensor& other) const {
  return shape_ == other.shape_ && data_ == other.data_;
}

bool Tensor::AllClose(const Tensor& other, float tol) const {
  if (shape_ != other.shape_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Tensor::ToString(size_t max_elems) const {
  std::ostringstream out;
  out << "Tensor[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << "x";
    out << shape_[i];
  }
  out << "]{";
  for (size_t i = 0; i < data_.size() && i < max_elems; ++i) {
    if (i > 0) out << ", ";
    out << data_[i];
  }
  if (data_.size() > max_elems) out << ", ...";
  out << "}";
  return out.str();
}

}  // namespace birnn::nn
