// Compiled with -ffast-math (see CMakeLists.txt): under __FAST_MATH__ glibc
// declares simd variants of tanhf/expf, so these loops vectorize into
// libmvec kernels instead of one scalar libm call per element. The hot
// tanh sweeps of the recurrent cells spend most of their time here.
//
// A plain loop would run its last n % 16 elements through a narrower libmvec
// variant or scalar libm, whose last bits differ. So the body covers the
// first n & ~15 elements (whole vectors at 4, 8 and 16 lanes: no epilogue
// runs) and the rest goes through one 16-lane block of the same vector code.
#include "nn/vecmath.h"

#include <algorithm>
#include <cmath>

namespace birnn::nn {
namespace {

constexpr size_t kBlock = 16;

inline float Tanh(float v) { return std::tanh(v); }
inline float Sigmoid(float v) { return 1.0f / (1.0f + std::exp(-v)); }

// noinline + __restrict: one full-width copy of the vector code, never
// re-specialized for a caller.
template <float (*F)(float)>
__attribute__((noinline)) void Block(const float* __restrict x,
                                     float* __restrict y) {
  for (size_t i = 0; i < kBlock; ++i) y[i] = F(x[i]);
}

template <float (*F)(float)>
void Sweep(const float* x, float* y, size_t n) {
  const size_t body = n & ~(kBlock - 1);
  for (size_t i = 0; i < body; ++i) y[i] = F(x[i]);
  if (body == n) return;
  alignas(64) float in[kBlock] = {};
  alignas(64) float out[kBlock];
  std::copy(x + body, x + n, in);
  Block<F>(in, out);
  std::copy(out, out + (n - body), y + body);
}

}  // namespace

void TanhVec(const float* x, float* y, size_t n) { Sweep<Tanh>(x, y, n); }

void SigmoidVec(const float* x, float* y, size_t n) {
  Sweep<Sigmoid>(x, y, n);
}

}  // namespace birnn::nn
