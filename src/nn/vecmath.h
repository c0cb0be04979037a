#ifndef BIRNN_NN_VECMATH_H_
#define BIRNN_NN_VECMATH_H_

#include <cstddef>

namespace birnn::nn {

/// Transcendental sweeps compiled in their own translation unit with
/// -ffast-math so GCC lowers them to libmvec SIMD kernels (_ZGV*_tanhf /
/// _ZGV*_expf). Everything else in the library keeps strict FP semantics.
/// In-place operation (y == x) is allowed; otherwise x and y must not
/// overlap. Batch-size invariant: y[i]'s bits depend on x[i] alone, never on
/// `n` or on i's position — what makes memoized inference exact.

/// y[i] = tanh(x[i])
void TanhVec(const float* x, float* y, size_t n);

/// y[i] = 1 / (1 + exp(-x[i]))
void SigmoidVec(const float* x, float* y, size_t n);

}  // namespace birnn::nn

#endif  // BIRNN_NN_VECMATH_H_
