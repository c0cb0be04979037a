#include "nn/quant.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX512BW__)
#include <immintrin.h>
#endif

#include "nn/ops.h"

namespace birnn::nn {

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kInt8:
      return "int8";
  }
  return "?";
}

namespace {

/// rint to int8 range. lrintf uses the process rounding mode, which this
/// codebase never changes from the default (nearest-even) — deterministic.
inline int8_t QuantizeValue(float v, float inv_scale) {
  const long q = std::lrintf(v * inv_scale);
  return static_cast<int8_t>(std::clamp<long>(q, -127, 127));
}

}  // namespace

void QuantizedMatrix::RebuildPacked() {
  const int kp = (cols + 1) / 2;
  packed.assign(static_cast<size_t>(kp) * rows * 2, 0);
  for (int p = 0; p < kp; ++p) {
    for (int j = 0; j < rows; ++j) {
      const size_t dst = (static_cast<size_t>(p) * rows + j) * 2;
      packed[dst] = q[static_cast<size_t>(j) * cols + 2 * p];
      if (2 * p + 1 < cols) {
        packed[dst + 1] = q[static_cast<size_t>(j) * cols + 2 * p + 1];
      }
    }
  }
}

QuantizedMatrix QuantizeWeightInt8(const Tensor& w) {
  BIRNN_CHECK_EQ(w.rank(), 2);
  const int in = w.rows();
  const int out = w.cols();
  QuantizedMatrix m;
  m.rows = out;
  m.cols = in;
  m.q.resize(static_cast<size_t>(out) * in);
  m.scales.resize(static_cast<size_t>(out));
  for (int j = 0; j < out; ++j) {
    float absmax = 0.0f;
    for (int k = 0; k < in; ++k) {
      absmax = std::max(absmax, std::fabs(w.at(k, j)));
    }
    const float scale = absmax / 127.0f;
    const float inv = absmax > 0.0f ? 127.0f / absmax : 0.0f;
    m.scales[static_cast<size_t>(j)] = scale;
    for (int k = 0; k < in; ++k) {
      m.q[static_cast<size_t>(j) * in + k] = QuantizeValue(w.at(k, j), inv);
    }
  }
  m.RebuildPacked();
  return m;
}

QuantizedMatrix QuantizedMatrixFromParts(int rows, int cols,
                                         std::vector<int8_t> q,
                                         std::vector<float> scales) {
  BIRNN_CHECK_EQ(q.size(), static_cast<size_t>(rows) * cols);
  BIRNN_CHECK_EQ(scales.size(), static_cast<size_t>(rows));
  QuantizedMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.q = std::move(q);
  m.scales = std::move(scales);
  m.RebuildPacked();
  return m;
}

namespace {

/// Quantizes each row of x (n,k) to int16-widened int8 values in
/// scratch->aq (stride 2*kp, odd tail zero-padded) with per-row scales.
/// The AVX-512 tier is bit-identical to the scalar one: cvtps2dq rounds
/// nearest-even exactly like lrintf under the default rounding mode, and
/// the clamp bounds match.
void QuantizeRows(const Tensor& x, int kp, QuantScratch* scratch) {
  const int n = x.rows();
  const int k = x.cols();
  scratch->aq.assign(static_cast<size_t>(n) * kp * 2, 0);
  scratch->ascale.resize(static_cast<size_t>(n));
  const float* __restrict px = x.data();
  for (int i = 0; i < n; ++i) {
    const float* __restrict row = px + static_cast<size_t>(i) * k;
    float absmax = 0.0f;
    int c = 0;
#if defined(__AVX512F__)
    if (k >= 16) {
      __m512 vmax = _mm512_setzero_ps();
      const __m512 sign_mask =
          _mm512_castsi512_ps(_mm512_set1_epi32(0x7FFFFFFF));
      for (; c + 16 <= k; c += 16) {
        const __m512 v = _mm512_and_ps(_mm512_loadu_ps(row + c), sign_mask);
        vmax = _mm512_max_ps(vmax, v);
      }
      absmax = _mm512_reduce_max_ps(vmax);
    }
#endif
    for (; c < k; ++c) absmax = std::max(absmax, std::fabs(row[c]));
    const float inv = absmax > 0.0f ? 127.0f / absmax : 0.0f;
    scratch->ascale[static_cast<size_t>(i)] = absmax / 127.0f;
    int16_t* __restrict qrow = scratch->aq.data() + static_cast<size_t>(i) * kp * 2;
    c = 0;
#if defined(__AVX512F__)
    {
      const __m512 vinv = _mm512_set1_ps(inv);
      const __m512i lo = _mm512_set1_epi32(-127);
      const __m512i hi = _mm512_set1_epi32(127);
      for (; c + 16 <= k; c += 16) {
        const __m512i qi = _mm512_max_epi32(
            lo, _mm512_min_epi32(
                    hi, _mm512_cvtps_epi32(
                            _mm512_mul_ps(_mm512_loadu_ps(row + c), vinv))));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(qrow + c),
                            _mm512_cvtsepi32_epi16(qi));
      }
    }
#endif
    for (; c < k; ++c) qrow[c] = QuantizeValue(row[c], inv);
  }
}

/// acc[i][j] = Σ_k aq[i][k] · w.q[j][k], exact int32. The packed layout
/// pairs adjacent k so the inner op is a pairwise multiply-add; integer
/// arithmetic is exact, so the scalar and SIMD tiers are bit-identical.
void Int8Gemm(const QuantScratch& scratch, int n, int kp,
              const QuantizedMatrix& w, int32_t* __restrict acc) {
  const int m = w.rows;
  const int16_t* __restrict wp = w.packed.data();
  for (int i = 0; i < n; ++i) {
    const int16_t* __restrict arow =
        scratch.aq.data() + static_cast<size_t>(i) * kp * 2;
    int32_t* __restrict accrow = acc + static_cast<size_t>(i) * m;
    int j = 0;
#if defined(__AVX512BW__)
    for (; j + 64 <= m; j += 64) {
      __m512i acc0 = _mm512_setzero_si512();
      __m512i acc1 = _mm512_setzero_si512();
      __m512i acc2 = _mm512_setzero_si512();
      __m512i acc3 = _mm512_setzero_si512();
      for (int p = 0; p < kp; ++p) {
        const uint32_t pair =
            static_cast<uint16_t>(arow[2 * p]) |
            (static_cast<uint32_t>(static_cast<uint16_t>(arow[2 * p + 1]))
             << 16);
        const __m512i av = _mm512_set1_epi32(static_cast<int>(pair));
        const int16_t* wrow = wp + (static_cast<size_t>(p) * m + j) * 2;
        const __m512i w0 = _mm512_loadu_si512(wrow);
        const __m512i w1 = _mm512_loadu_si512(wrow + 32);
        const __m512i w2 = _mm512_loadu_si512(wrow + 64);
        const __m512i w3 = _mm512_loadu_si512(wrow + 96);
#if defined(__AVX512VNNI__)
        acc0 = _mm512_dpwssd_epi32(acc0, av, w0);
        acc1 = _mm512_dpwssd_epi32(acc1, av, w1);
        acc2 = _mm512_dpwssd_epi32(acc2, av, w2);
        acc3 = _mm512_dpwssd_epi32(acc3, av, w3);
#else
        acc0 = _mm512_add_epi32(acc0, _mm512_madd_epi16(av, w0));
        acc1 = _mm512_add_epi32(acc1, _mm512_madd_epi16(av, w1));
        acc2 = _mm512_add_epi32(acc2, _mm512_madd_epi16(av, w2));
        acc3 = _mm512_add_epi32(acc3, _mm512_madd_epi16(av, w3));
#endif
      }
      _mm512_storeu_si512(accrow + j, acc0);
      _mm512_storeu_si512(accrow + j + 16, acc1);
      _mm512_storeu_si512(accrow + j + 32, acc2);
      _mm512_storeu_si512(accrow + j + 48, acc3);
    }
    for (; j + 16 <= m; j += 16) {
      __m512i vacc = _mm512_setzero_si512();
      for (int p = 0; p < kp; ++p) {
        const uint32_t pair =
            static_cast<uint16_t>(arow[2 * p]) |
            (static_cast<uint32_t>(static_cast<uint16_t>(arow[2 * p + 1]))
             << 16);
        const __m512i av = _mm512_set1_epi32(static_cast<int>(pair));
        const __m512i wv =
            _mm512_loadu_si512(wp + (static_cast<size_t>(p) * m + j) * 2);
#if defined(__AVX512VNNI__)
        vacc = _mm512_dpwssd_epi32(vacc, av, wv);
#else
        vacc = _mm512_add_epi32(vacc, _mm512_madd_epi16(av, wv));
#endif
      }
      _mm512_storeu_si512(accrow + j, vacc);
    }
#endif  // __AVX512BW__
    for (; j < m; ++j) {
      int32_t s = 0;
      for (int p = 0; p < kp; ++p) {
        const int32_t a0 = arow[2 * p];
        const int32_t a1 = arow[2 * p + 1];
        const int16_t* w2 = wp + (static_cast<size_t>(p) * m + j) * 2;
        s += a0 * w2[0] + a1 * w2[1];
      }
      accrow[j] = s;
    }
  }
}

/// out[i][j] (= or +=) float(acc[i][j]) * (ascale[i] * w.scales[j]) — the
/// documented combined-scale expression; tests replicate it verbatim.
void ApplyScales(const QuantScratch& scratch, int n,
                 const QuantizedMatrix& w, bool accumulate, Tensor* out) {
  const int m = w.rows;
  const int32_t* __restrict acc = scratch.acc.data();
  const float* __restrict ws = w.scales.data();
  float* __restrict pc = out->data();
  for (int i = 0; i < n; ++i) {
    const float as = scratch.ascale[static_cast<size_t>(i)];
    const int32_t* __restrict accrow = acc + static_cast<size_t>(i) * m;
    float* __restrict crow = pc + static_cast<size_t>(i) * m;
    if (accumulate) {
      for (int j = 0; j < m; ++j) {
        crow[j] += static_cast<float>(accrow[j]) * (as * ws[j]);
      }
    } else {
      for (int j = 0; j < m; ++j) {
        crow[j] = static_cast<float>(accrow[j]) * (as * ws[j]);
      }
    }
  }
}

void Int8MatMulImpl(const Tensor& x, const QuantizedMatrix& w, bool accumulate,
                    Tensor* out, QuantScratch* scratch) {
  BIRNN_CHECK_EQ(x.rank(), 2);
  BIRNN_CHECK_EQ(x.cols(), w.cols);
  BIRNN_CHECK(!w.empty()) << "int8 weights not prepared";
  const int n = x.rows();
  if (accumulate) {
    BIRNN_CHECK_EQ(out->rows(), n);
    BIRNN_CHECK_EQ(out->cols(), w.rows);
  } else {
    out->ResizeForOverwrite(n, w.rows);
  }
  const int kp = (w.cols + 1) / 2;
  QuantizeRows(x, kp, scratch);
  scratch->acc.resize(static_cast<size_t>(n) * w.rows);
  Int8Gemm(*scratch, n, kp, w, scratch->acc.data());
  ApplyScales(*scratch, n, w, accumulate, out);
}

}  // namespace

void Int8MatMul(const Tensor& x, const QuantizedMatrix& w, Tensor* out,
                QuantScratch* scratch) {
  Int8MatMulImpl(x, w, /*accumulate=*/false, out, scratch);
}

void Int8MatMulAcc(const Tensor& x, const QuantizedMatrix& w, Tensor* out,
                   QuantScratch* scratch) {
  Int8MatMulImpl(x, w, /*accumulate=*/true, out, scratch);
}

void Int8RnnTanhStep(const Tensor& x, const QuantizedMatrix& wx,
                     const Tensor& h, const QuantizedMatrix& wh,
                     const Tensor& b, Tensor* out, Tensor* z_scratch,
                     QuantScratch* scratch) {
  Int8MatMul(x, wx, z_scratch, scratch);
  Int8MatMulAcc(h, wh, z_scratch, scratch);
  AddBiasTanh(*z_scratch, b, out);
}

}  // namespace birnn::nn
