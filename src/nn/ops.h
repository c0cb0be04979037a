#ifndef BIRNN_NN_OPS_H_
#define BIRNN_NN_OPS_H_

#include <initializer_list>
#include <span>
#include <vector>

#include "nn/tensor.h"

namespace birnn::nn {

/// Low-level dense math kernels shared by the autograd graph (training) and
/// the forward-only prediction paths (inference). All functions CHECK shape
/// compatibility; `out` parameters are fully overwritten unless the name says
/// "Acc" (accumulate).

/// The four GEMM kernels share one per-element contract: each output
/// element adds the 4-blocks of the reduction index in increasing order,
/// each as one `c += a0*b0 + a1*b1 + a2*b2 + a3*b3`, skips a block whose
/// four coefficients (for that output row) are all zero, then adds the
/// reduction tail one term at a time. With AVX-512 or AVX2 the bulk runs as
/// register tiles of 4 output rows by 4 vectors (64 or 32 columns); the
/// rows and columns left over, and every element at SSE2, run as plain
/// loops. Both paths follow the contract, so the results do not depend on
/// an element's position in the output or on the SIMD width's tiling.

/// out = a(n,k) * b(k,m). `out` is resized/zeroed internally.
void MatMul(const Tensor& a, const Tensor& b, Tensor* out);

/// out += a * b (accumulating matmul); `out` must already be (n,m).
void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out);

/// out += a^T * b where a is (n,k), b is (n,m), out is (k,m). The
/// reduction runs over the rows of a and b; the coefficients of output row
/// kk are column kk of a.
void MatMulTransposeAAcc(const Tensor& a, const Tensor& b, Tensor* out);

/// out += a * b^T where a is (n,m), b is (k,m), out is (n,k). b is
/// transposed into thread-local scratch, then the MatMulAcc kernel runs.
void MatMulTransposeBAcc(const Tensor& a, const Tensor& b, Tensor* out);

/// The kernels of MatMulAcc and MatMulTransposeAAcc on raw row-major
/// buffers, unchecked: c(n,m) += a(n,k) * b(k,m), and c(k,m) += a(n,k)^T *
/// b(n,m). They let a caller run a GEMM on a block of rows of a larger
/// matrix (one time step of a stacked sequence) without copying it out.
void GemmAcc(const float* a, const float* b, float* c, int n, int k, int m);
void GemmTransposeAAcc(const float* a, const float* b, float* c, int n, int k,
                       int m);

/// out = x(n,m) with bias(m) or bias(1,m) added to every row.
void AddBias(const Tensor& x, const Tensor& bias, Tensor* out);

/// out = tanh(x + bias), fused in one pass — the hot elementwise tail of
/// the vanilla RNN step (saves two full sweeps over the activations).
void AddBiasTanh(const Tensor& x, const Tensor& bias, Tensor* out);
/// The same on raw row-major buffers: out(n,m) = tanh(x(n,m) + bias(m)).
void AddBiasTanh(const float* x, const float* bias, float* out, int n, int m);

/// Elementwise c = a + b (same shape).
void AddElem(const Tensor& a, const Tensor& b, Tensor* out);

/// Elementwise c = a - b.
void SubElem(const Tensor& a, const Tensor& b, Tensor* out);

/// Elementwise c = a * b.
void MulElem(const Tensor& a, const Tensor& b, Tensor* out);

/// out = tanh(x), elementwise.
void TanhElem(const Tensor& x, Tensor* out);

/// out = max(0, x).
void ReluElem(const Tensor& x, Tensor* out);

/// out = 1 / (1 + exp(-x)).
void SigmoidElem(const Tensor& x, Tensor* out);

/// Row-wise numerically stable softmax of logits (n,m).
void SoftmaxRows(const Tensor& logits, Tensor* out);

/// Concatenates matrices with equal row counts along columns.
void ConcatCols(std::span<const Tensor* const> parts, Tensor* out);
/// The same for a braced list of parts, which needs no heap allocation.
inline void ConcatCols(std::initializer_list<const Tensor*> parts,
                       Tensor* out) {
  ConcatCols(std::span<const Tensor* const>(parts.begin(), parts.size()),
             out);
}

/// Copies columns [start, start+count) of x (n,m) into out (n,count).
void SliceCols(const Tensor& x, int start, int count, Tensor* out);

/// Gathers rows of `table` (V,E) by `ids` (values in [0,V)) into out (n,E).
/// Every id is range-checked: an id out of range aborts.
void GatherRows(const Tensor& table, const std::vector<int>& ids, Tensor* out);
/// The same into raw row-major storage of ids.size() x table.cols() floats.
void GatherRows(const Tensor& table, std::span<const int> ids, float* out);

/// Scatter-adds each row of `grad` (n,E) into row ids[i] of `table_grad`.
void ScatterAddRows(const Tensor& grad, const std::vector<int>& ids,
                    Tensor* table_grad);

/// Mean cross-entropy of softmax(logits) against integer labels; also
/// returns the softmax probabilities if `probs` is non-null.
float SoftmaxCrossEntropyLoss(const Tensor& logits,
                              const std::vector<int>& labels, Tensor* probs);

}  // namespace birnn::nn

#endif  // BIRNN_NN_OPS_H_
