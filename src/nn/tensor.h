#ifndef BIRNN_NN_TENSOR_H_
#define BIRNN_NN_TENSOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/logging.h"

namespace birnn::nn {

/// A dense row-major float tensor. The neural-network substrate only needs
/// rank 0–2 (scalars, vectors, matrices), so the shape is a small vector of
/// dimension sizes. Value semantics: copying copies the buffer.
class Tensor {
 public:
  /// Empty (rank-0, no elements until assigned).
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(std::vector<int> shape);

  /// Matrix constructor: `rows` x `cols`, zero-initialized.
  Tensor(int rows, int cols) : Tensor(std::vector<int>{rows, cols}) {}

  static Tensor Scalar(float v);
  static Tensor Zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  static Tensor Full(std::vector<int> shape, float v);
  /// 1-D tensor from values.
  static Tensor FromVector(const std::vector<float>& values);
  /// 2-D tensor from row-major values; values.size() must equal rows*cols.
  static Tensor FromMatrix(int rows, int cols, const std::vector<float>& values);

  const std::vector<int>& shape() const { return shape_; }
  int rank() const { return static_cast<int>(shape_.size()); }
  size_t size() const { return data_.size(); }

  /// Dimension `i`; CHECKs on out-of-range.
  int dim(int i) const {
    BIRNN_CHECK_GE(i, 0);
    BIRNN_CHECK_LT(i, rank());
    return shape_[static_cast<size_t>(i)];
  }

  /// Rows/cols accessors for rank-2 tensors.
  int rows() const { return dim(0); }
  int cols() const { return dim(1); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

  /// Element access for rank-2 tensors.
  float& at(int r, int c) {
    return data_[static_cast<size_t>(r) * shape_[1] + static_cast<size_t>(c)];
  }
  float at(int r, int c) const {
    return data_[static_cast<size_t>(r) * shape_[1] + static_cast<size_t>(c)];
  }

  /// Scalar value of a single-element tensor.
  float scalar() const {
    BIRNN_CHECK_EQ(size(), 1u);
    return data_[0];
  }

  /// Reshapes to `shape` and zeroes all elements, reusing the existing
  /// shape and data buffers whenever capacity allows (no allocation on the
  /// training or inference hot path once the first step has sized every
  /// tensor). `shape` may be this tensor's own shape().
  void Resize(const std::vector<int>& shape);
  void Resize(int rows, int cols);

  /// Reshapes to `shape` without clearing: element values are unspecified
  /// and the caller must overwrite all of them. Reuses capacity like
  /// Resize.
  void ResizeForOverwrite(const std::vector<int>& shape);
  void ResizeForOverwrite(int rows, int cols);

  /// Sets every element to `v`.
  void Fill(float v);

  /// Sets every element to zero (keeps shape).
  void Zero() { Fill(0.0f); }

  /// In-place elementwise add; shapes must match.
  void Add(const Tensor& other);

  /// In-place scale by `s`.
  void Scale(float s);

  /// Returns a reshaped view-copy; total size must be preserved.
  Tensor Reshaped(std::vector<int> new_shape) const;

  /// Sum of all elements.
  float Sum() const;

  /// True if shapes and all elements are exactly equal.
  bool Equals(const Tensor& other) const;

  /// True if shapes match and elements differ by at most `tol`.
  bool AllClose(const Tensor& other, float tol = 1e-5f) const;

  /// Debug string, e.g. "Tensor[2x3]{1, 2, 3, ...}".
  std::string ToString(size_t max_elems = 8) const;

 private:
  /// Sets shape_ in place (keeping its capacity); returns the element count.
  size_t SetShape(const std::vector<int>& shape);
  size_t SetShape(int rows, int cols);

  std::vector<int> shape_;
  std::vector<float> data_;
};

/// Number of elements implied by a shape.
size_t ShapeSize(const std::vector<int>& shape);

}  // namespace birnn::nn

#endif  // BIRNN_NN_TENSOR_H_
