#ifndef BIRNN_NN_QUANT_H_
#define BIRNN_NN_QUANT_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace birnn::nn {

/// Inference compute precision. Training always runs fp32; inference can
/// trade activation precision for SIMD width (see DESIGN.md §12):
///   kFp32 — the bit-exact reference path (identical to training forward).
///   kInt8 — symmetric per-row-absmax weights + per-row on-the-fly
///           activation quantization, int32 accumulation, one combined
///           scale per output element. Quarter weight bytes, widest SIMD.
enum class Precision {
  kFp32,
  kInt8,
};

const char* PrecisionName(Precision p);

/// A weight matrix quantized to symmetric per-row-absmax int8. The fp32
/// source `w` is (in, out) and used as x·w; storage here is TRANSPOSED to
/// (out, in) so each stored row is one output channel and "per-row absmax"
/// equals per-output-channel scaling: scales[j] = absmax(w[:,j]) / 127,
/// q[j][k] = rint(w[k][j] / scales[j]). That makes the combined dequant
/// factor of an output element separable — a_scale[i] * scales[j] — which
/// is what lets the GEMM accumulate in int32 with no per-k dequant.
///
/// `q` is the canonical (serialized) form; `packed` is a derived runtime
/// layout — k-pairs widened to int16 and interleaved per output column so
/// the inner loop maps onto pairwise multiply-add (vpmaddwd / vpdpwssd).
/// Rebuilt deterministically from `q` on load, never serialized.
struct QuantizedMatrix {
  int rows = 0;  ///< output channels (columns of the fp32 weight).
  int cols = 0;  ///< input features (rows of the fp32 weight).
  std::vector<int8_t> q;       ///< rows*cols, row-major (out, in).
  std::vector<float> scales;   ///< rows; absmax/127 per output channel.
  std::vector<int16_t> packed; ///< [ceil(cols/2)][rows][2], zero-padded k.

  bool empty() const { return q.empty(); }
  /// Serialized footprint: int8 payload + fp32 scales.
  size_t bytes() const { return q.size() + scales.size() * sizeof(float); }
  /// Rebuilds `packed` from `q` (used after deserialization).
  void RebuildPacked();
};

/// Quantizes `w` (in, out) to per-row-absmax int8 (transposed storage).
QuantizedMatrix QuantizeWeightInt8(const Tensor& w);

/// Reassembles a QuantizedMatrix from serialized parts (bundle load);
/// rebuilds the packed runtime layout.
QuantizedMatrix QuantizedMatrixFromParts(int rows, int cols,
                                         std::vector<int8_t> q,
                                         std::vector<float> scales);

/// Per-thread scratch for the int8 kernels: quantized activation rows
/// (widened to int16 for the pairwise multiply-add) with their scales, and
/// the int32 accumulator tile. Reused across steps with no allocation once
/// sized.
struct QuantScratch {
  std::vector<int16_t> aq;    ///< n x cols_padded_even, quantized rows.
  std::vector<float> ascale;  ///< n, per-row activation scales.
  std::vector<int32_t> acc;   ///< n x out accumulators.
};

/// out(n, w.rows) = dequant( quantize_rows(x) · wᵀ ), overwriting `out`.
/// Each activation row is quantized on the fly (absmax/127, rint, the same
/// scheme as the weights); the int8·int8 products accumulate exactly in
/// int32 and the combined scale ascale[i]*w.scales[j] is applied once per
/// output element:  out[i][j] = float(acc[i][j]) * (ascale[i] * w.scales[j]).
/// Deterministic and batch-row independent: row i of `out` depends only on
/// row i of `x`, and the integer arithmetic is exact on every SIMD tier, so
/// results are bit-identical across scalar/AVX2/AVX-512 builds and any
/// batch composition.
void Int8MatMul(const Tensor& x, const QuantizedMatrix& w, Tensor* out,
                QuantScratch* scratch);

/// out += dequant(quantize_rows(x) · wᵀ); `out` must already be (n, w.rows).
void Int8MatMulAcc(const Tensor& x, const QuantizedMatrix& w, Tensor* out,
                   QuantScratch* scratch);

/// Fused quantized vanilla-RNN step: out = tanh(x·Wx + h·Wh + b) with both
/// GEMMs running the int8 path. Activations (x and h) are quantized on the
/// fly; each GEMM applies its combined scale once per output element; the
/// bias add and tanh run fused in one final pass (AddBiasTanh).
void Int8RnnTanhStep(const Tensor& x, const QuantizedMatrix& wx,
                     const Tensor& h, const QuantizedMatrix& wh,
                     const Tensor& b, Tensor* out, Tensor* z_scratch,
                     QuantScratch* scratch);

}  // namespace birnn::nn

#endif  // BIRNN_NN_QUANT_H_
