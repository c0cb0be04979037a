#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "nn/vecmath.h"

namespace birnn::nn {

namespace {

// Lane count of the GEMM register tile, fixed at compile time. At plain
// SSE2 a 4-lane tile measured no faster than the loops on the
// bench_micro_nn GEMM shapes (0.97-1.07x), so there the loops below
// compute every element.
#if defined(__AVX512F__)
#define BIRNN_GEMM_LANES 16
#elif defined(__AVX2__)
#define BIRNN_GEMM_LANES 8
#endif

#ifdef BIRNN_GEMM_LANES
constexpr int kLanes = BIRNN_GEMM_LANES;
// Vectors per tile row: 64 columns at AVX-512, 32 at AVX2.
constexpr int kTileVecs = 4;

using Vec = float __attribute__((vector_size(kLanes * sizeof(float))));

inline Vec LoadVec(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreVec(float* p, const Vec& v) { std::memcpy(p, &v, sizeof(v)); }

// True when all four are +0 or -0. In the default floating-point
// environment (denormals not treated as zero) this is the loops'
// `x == 0.0f` test on each, without the compare chain that costs the tile
// about 15% of its speed.
inline bool AllZero(float x0, float x1, float x2, float x3) {
  uint32_t u[4];
  const float x[4] = {x0, x1, x2, x3};
  std::memcpy(u, x, sizeof(u));
  return ((u[0] | u[1] | u[2] | u[3]) << 1) == 0;
}

// c(kRows, kVecs * kLanes) += A(kRows, red) * B(red, kVecs * kLanes), with
// A(r, t) at a[r * ars + t * ats], B row t at b + t * ld and c row r at
// c + r * ld; kRows is 1 to 4. The accumulators are held across the whole
// reduction instead of being loaded and stored per block, and each 4-block
// of B rows is loaded once for all kRows output rows. Per output element
// this is the loops' exact sequence of operations (see GemmRowsAcc): the
// 4-blocks in increasing order, each added as the single expression
// `c += a0*b0 + a1*b1 + a2*b2 + a3*b3` unless that row's four coefficients
// are all zero, then the tail one term at a time. GCC's default
// -ffp-contract=fast contracts the expression here as in the loops;
// OpsTest.TiledGemmIsBitIdenticalToReferenceLoops checks the bits at each
// lane width and for every row count.
template <int kRows, int kVecs>
void GemmTile(const float* a, size_t ars, size_t ats, const float* b,
              float* c, size_t ld, int red) {
  Vec acc[kRows][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      acc[r][v] = LoadVec(c + r * ld + v * kLanes);
    }
  }
  int t = 0;
  for (; t + 4 <= red; t += 4) {
    Vec x[4][kVecs];
#pragma GCC unroll 4
    for (int q = 0; q < 4; ++q) {
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) {
        x[q][v] = LoadVec(b + (t + q) * ld + v * kLanes);
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const float* ar = a + r * ars + t * ats;
      const float a0 = ar[0];
      const float a1 = ar[ats];
      const float a2 = ar[2 * ats];
      const float a3 = ar[3 * ats];
      if (AllZero(a0, a1, a2, a3)) continue;
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] += a0 * x[0][v] + a1 * x[1][v] + a2 * x[2][v] + a3 * x[3][v];
      }
    }
  }
  for (; t < red; ++t) {
    const float* bt = b + t * ld;
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
      const float av = a[r * ars + t * ats];
      if (av == 0.0f) continue;
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) {
        acc[r][v] += av * LoadVec(bt + v * kLanes);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      StoreVec(c + r * ld + v * kLanes, acc[r][v]);
    }
  }
}

// Runs tiles of kVecs vectors, then of half as many, and so on, across
// the columns [j, cols) of kRows c rows. Afterwards fewer than kLanes
// columns are left to the loops.
template <int kRows, int kVecs>
void TileColumns(const float* a, size_t ars, size_t ats, const float* b,
                 float* c, size_t ld, int red, int j, int cols) {
  for (; j + kVecs * kLanes <= cols; j += kVecs * kLanes) {
    GemmTile<kRows, kVecs>(a, ars, ats, b + j, c + j, ld, red);
  }
  if constexpr (kVecs > 1) {
    TileColumns<kRows, kVecs / 2>(a, ars, ats, b, c, ld, red, j, cols);
  }
}

// Runs the tiles for c(rows, cols) += A(rows, red) * B(red, cols), with A
// addressed as in GemmTile and B, c row-major with `cols` columns: 4-row
// tiles, then one tile of the 1-3 rows left, so that a batch-1 GEMM is
// tiled too. Returns the number of leading columns they covered (whole
// vectors, in every row); the caller's loops compute the rest.
int TiledGemmAcc(const float* a, size_t ars, size_t ats, const float* b,
                 float* c, int rows, int red, int cols) {
  const int done = cols / kLanes * kLanes;
  if (done == 0) return 0;
  const size_t ld = static_cast<size_t>(cols);
  int i = 0;
  for (; i + 4 <= rows; i += 4) {
    TileColumns<4, kTileVecs>(a + static_cast<size_t>(i) * ars, ars, ats, b,
                              c + static_cast<size_t>(i) * ld, ld, red, 0,
                              cols);
  }
  const float* ai = a + static_cast<size_t>(i) * ars;
  float* ci = c + static_cast<size_t>(i) * ld;
  switch (rows - i) {
    case 3:
      TileColumns<3, kTileVecs>(ai, ars, ats, b, ci, ld, red, 0, cols);
      break;
    case 2:
      TileColumns<2, kTileVecs>(ai, ars, ats, b, ci, ld, red, 0, cols);
      break;
    case 1:
      TileColumns<1, kTileVecs>(ai, ars, ats, b, ci, ld, red, 0, cols);
      break;
    default:
      break;
  }
  return done;
}
#else
int TiledGemmAcc(const float*, size_t, size_t, const float*, float*, int, int,
                 int) {
  return 0;
}
#endif  // BIRNN_GEMM_LANES

// c(n, m) += a(n, k) * b(k, m), columns [j_begin, m) only: the loop the
// tiles reproduce. i-k-j order with
// the k loop blocked by 4, so each pass over a row of c performs four
// multiply-adds per load/store of c[j] and the j loop vectorizes.
void GemmRowsAcc(const float* __restrict pa, const float* __restrict pb,
                 float* __restrict pc, int n, int k, int m, int j_begin) {
  if (j_begin >= m) return;
  for (int i = 0; i < n; ++i) {
    const float* __restrict arow = pa + static_cast<size_t>(i) * k;
    float* __restrict crow = pc + static_cast<size_t>(i) * m;
    int kk = 0;
    for (; kk + 4 <= k; kk += 4) {
      const float a0 = arow[kk];
      const float a1 = arow[kk + 1];
      const float a2 = arow[kk + 2];
      const float a3 = arow[kk + 3];
      if (a0 == 0.0f && a1 == 0.0f && a2 == 0.0f && a3 == 0.0f) continue;
      const float* __restrict b0 = pb + static_cast<size_t>(kk) * m;
      const float* __restrict b1 = b0 + m;
      const float* __restrict b2 = b1 + m;
      const float* __restrict b3 = b2 + m;
      for (int j = j_begin; j < m; ++j) {
        crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* __restrict brow = pb + static_cast<size_t>(kk) * m;
      for (int j = j_begin; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// c(k, m) += a(n, k)^T * b(n, m), columns [j_begin, m) only. Blocked over four rows of a/b at a time so every
// c row written in the kk loop receives four rank-1 contributions per pass.
void TransposeARowsAcc(const float* __restrict pa, const float* __restrict pb,
                       float* __restrict pc, int n, int k, int m,
                       int j_begin) {
  if (j_begin >= m) return;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* __restrict a0 = pa + static_cast<size_t>(i) * k;
    const float* __restrict a1 = a0 + k;
    const float* __restrict a2 = a1 + k;
    const float* __restrict a3 = a2 + k;
    const float* __restrict b0 = pb + static_cast<size_t>(i) * m;
    const float* __restrict b1 = b0 + m;
    const float* __restrict b2 = b1 + m;
    const float* __restrict b3 = b2 + m;
    for (int kk = 0; kk < k; ++kk) {
      const float w0 = a0[kk];
      const float w1 = a1[kk];
      const float w2 = a2[kk];
      const float w3 = a3[kk];
      if (w0 == 0.0f && w1 == 0.0f && w2 == 0.0f && w3 == 0.0f) continue;
      float* __restrict crow = pc + static_cast<size_t>(kk) * m;
      for (int j = j_begin; j < m; ++j) {
        crow[j] += w0 * b0[j] + w1 * b1[j] + w2 * b2[j] + w3 * b3[j];
      }
    }
  }
  for (; i < n; ++i) {
    const float* __restrict arow = pa + static_cast<size_t>(i) * k;
    const float* __restrict brow = pb + static_cast<size_t>(i) * m;
    for (int kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      float* __restrict crow = pc + static_cast<size_t>(kk) * m;
      for (int j = j_begin; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace

void GemmAcc(const float* pa, const float* pb, float* pc, int n, int k,
             int m) {
  const int tiled = TiledGemmAcc(pa, static_cast<size_t>(k), 1, pb, pc, n,
                                 k, m);
  GemmRowsAcc(pa, pb, pc, n, k, m, tiled);
}

void GemmTransposeAAcc(const float* pa, const float* pb, float* pc, int n,
                       int k, int m) {
  // The tiles run over output rows kk..kk+3 with the reduction over the
  // rows of a and b; coefficient (kk, i) is a[i * k + kk].
  const int tiled =
      TiledGemmAcc(pa, 1, static_cast<size_t>(k), pb, pc, k, n, m);
  TransposeARowsAcc(pa, pb, pc, n, k, m, tiled);
}

void MatMul(const Tensor& a, const Tensor& b, Tensor* out) {
  BIRNN_CHECK_EQ(a.rank(), 2);
  BIRNN_CHECK_EQ(b.rank(), 2);
  BIRNN_CHECK_EQ(a.cols(), b.rows());
  out->Resize(a.rows(), b.cols());
  MatMulAcc(a, b, out);
}

void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out) {
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  BIRNN_CHECK_EQ(b.rows(), k);
  BIRNN_CHECK_EQ(out->rows(), n);
  BIRNN_CHECK_EQ(out->cols(), m);
  GemmAcc(a.data(), b.data(), out->data(), n, k, m);
}

void MatMulTransposeAAcc(const Tensor& a, const Tensor& b, Tensor* out) {
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  BIRNN_CHECK_EQ(b.rows(), n);
  BIRNN_CHECK_EQ(out->rows(), k);
  BIRNN_CHECK_EQ(out->cols(), m);
  GemmTransposeAAcc(a.data(), b.data(), out->data(), n, k, m);
}

void MatMulTransposeBAcc(const Tensor& a, const Tensor& b, Tensor* out) {
  const int n = a.rows();
  const int m = a.cols();
  const int k = b.rows();
  BIRNN_CHECK_EQ(b.cols(), m);
  BIRNN_CHECK_EQ(out->rows(), n);
  BIRNN_CHECK_EQ(out->cols(), k);
  // The natural formulation is a row-times-row dot product, but a float
  // reduction cannot be vectorized under strict FP semantics. Instead,
  // transpose b into a (thread-local, reused) scratch buffer and run the
  // same GEMM as MatMulAcc, which keeps the inner loop contiguous and
  // reduction-free. The transpose is O(k*m) against O(n*k*m) compute.
  thread_local std::vector<float> bt_scratch;
  bt_scratch.resize(static_cast<size_t>(m) * k);
  const float* __restrict pb = b.data();
  float* __restrict pt = bt_scratch.data();
  for (int kk = 0; kk < k; ++kk) {
    const float* __restrict brow = pb + static_cast<size_t>(kk) * m;
    for (int j = 0; j < m; ++j) {
      pt[static_cast<size_t>(j) * k + kk] = brow[j];
    }
  }
  GemmAcc(a.data(), pt, out->data(), n, m, k);
}

void AddBias(const Tensor& x, const Tensor& bias, Tensor* out) {
  BIRNN_CHECK_EQ(x.rank(), 2);
  const int n = x.rows();
  const int m = x.cols();
  BIRNN_CHECK_EQ(bias.size(), static_cast<size_t>(m));
  out->ResizeForOverwrite(x.shape());
  const float* __restrict px = x.data();
  const float* __restrict pb = bias.data();
  float* __restrict po = out->data();
  for (int i = 0; i < n; ++i) {
    const float* __restrict xrow = px + static_cast<size_t>(i) * m;
    float* __restrict row = po + static_cast<size_t>(i) * m;
    for (int j = 0; j < m; ++j) row[j] = xrow[j] + pb[j];
  }
}

void AddBiasTanh(const Tensor& x, const Tensor& bias, Tensor* out) {
  BIRNN_CHECK_EQ(x.rank(), 2);
  BIRNN_CHECK_EQ(bias.size(), static_cast<size_t>(x.cols()));
  out->ResizeForOverwrite(x.shape());
  AddBiasTanh(x.data(), bias.data(), out->data(), x.rows(), x.cols());
}

void AddBiasTanh(const float* x, const float* bias, float* out, int n,
                 int m) {
  const float* __restrict px = x;
  const float* __restrict pb = bias;
  float* __restrict po = out;
  for (int i = 0; i < n; ++i) {
    const float* __restrict xrow = px + static_cast<size_t>(i) * m;
    float* __restrict row = po + static_cast<size_t>(i) * m;
    for (int j = 0; j < m; ++j) row[j] = xrow[j] + pb[j];
  }
  TanhVec(po, po, static_cast<size_t>(n) * m);
}

void AddElem(const Tensor& a, const Tensor& b, Tensor* out) {
  BIRNN_CHECK(a.shape() == b.shape());
  out->ResizeForOverwrite(a.shape());
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  float* __restrict po = out->data();
  const size_t sz = a.size();
  for (size_t i = 0; i < sz; ++i) po[i] = pa[i] + pb[i];
}

void SubElem(const Tensor& a, const Tensor& b, Tensor* out) {
  BIRNN_CHECK(a.shape() == b.shape());
  out->ResizeForOverwrite(a.shape());
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  float* __restrict po = out->data();
  const size_t sz = a.size();
  for (size_t i = 0; i < sz; ++i) po[i] = pa[i] - pb[i];
}

void MulElem(const Tensor& a, const Tensor& b, Tensor* out) {
  BIRNN_CHECK(a.shape() == b.shape());
  out->ResizeForOverwrite(a.shape());
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  float* __restrict po = out->data();
  const size_t sz = a.size();
  for (size_t i = 0; i < sz; ++i) po[i] = pa[i] * pb[i];
}

void TanhElem(const Tensor& x, Tensor* out) {
  out->ResizeForOverwrite(x.shape());
  TanhVec(x.data(), out->data(), x.size());
}

void ReluElem(const Tensor& x, Tensor* out) {
  out->ResizeForOverwrite(x.shape());
  const float* __restrict px = x.data();
  float* __restrict po = out->data();
  const size_t sz = x.size();
  for (size_t i = 0; i < sz; ++i) po[i] = px[i] > 0.0f ? px[i] : 0.0f;
}

void SigmoidElem(const Tensor& x, Tensor* out) {
  out->ResizeForOverwrite(x.shape());
  SigmoidVec(x.data(), out->data(), x.size());
}

void SoftmaxRows(const Tensor& logits, Tensor* out) {
  BIRNN_CHECK_EQ(logits.rank(), 2);
  const int n = logits.rows();
  const int m = logits.cols();
  out->ResizeForOverwrite(logits.shape());
  const float* __restrict pl = logits.data();
  float* __restrict p = out->data();
  for (int i = 0; i < n; ++i) {
    const float* __restrict lrow = pl + static_cast<size_t>(i) * m;
    float* __restrict row = p + static_cast<size_t>(i) * m;
    float mx = lrow[0];
    for (int j = 1; j < m; ++j) mx = std::max(mx, lrow[j]);
    float sum = 0.0f;
    for (int j = 0; j < m; ++j) {
      row[j] = std::exp(lrow[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (int j = 0; j < m; ++j) row[j] *= inv;
  }
}

void ConcatCols(std::span<const Tensor* const> parts, Tensor* out) {
  BIRNN_CHECK(!parts.empty());
  const int n = parts[0]->rows();
  int total = 0;
  for (const Tensor* p : parts) {
    BIRNN_CHECK_EQ(p->rank(), 2);
    BIRNN_CHECK_EQ(p->rows(), n);
    total += p->cols();
  }
  out->ResizeForOverwrite(n, total);
  float* po = out->data();
  for (int i = 0; i < n; ++i) {
    float* row = po + static_cast<size_t>(i) * total;
    int off = 0;
    for (const Tensor* p : parts) {
      const int m = p->cols();
      const float* src = p->data() + static_cast<size_t>(i) * m;
      std::copy(src, src + m, row + off);
      off += m;
    }
  }
}

void SliceCols(const Tensor& x, int start, int count, Tensor* out) {
  BIRNN_CHECK_EQ(x.rank(), 2);
  BIRNN_CHECK_GE(start, 0);
  BIRNN_CHECK_GE(count, 0);
  BIRNN_CHECK_LE(start + count, x.cols());
  const int n = x.rows();
  const int m = x.cols();
  out->ResizeForOverwrite(n, count);
  for (int i = 0; i < n; ++i) {
    const float* src = x.data() + static_cast<size_t>(i) * m + start;
    float* dst = out->data() + static_cast<size_t>(i) * count;
    std::copy(src, src + count, dst);
  }
}

void GatherRows(const Tensor& table, const std::vector<int>& ids,
                Tensor* out) {
  out->ResizeForOverwrite(static_cast<int>(ids.size()), table.cols());
  GatherRows(table, ids, out->data());
}

void GatherRows(const Tensor& table, std::span<const int> ids, float* out) {
  BIRNN_CHECK_EQ(table.rank(), 2);
  const int e = table.cols();
  for (size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    BIRNN_CHECK_GE(id, 0);
    BIRNN_CHECK_LT(id, table.rows());
    const float* src = table.data() + static_cast<size_t>(id) * e;
    std::copy(src, src + e, out + i * e);
  }
}

void ScatterAddRows(const Tensor& grad, const std::vector<int>& ids,
                    Tensor* table_grad) {
  BIRNN_CHECK_EQ(grad.rank(), 2);
  BIRNN_CHECK_EQ(grad.rows(), static_cast<int>(ids.size()));
  const int e = grad.cols();
  BIRNN_CHECK_EQ(table_grad->cols(), e);
  for (size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    const float* __restrict src = grad.data() + i * static_cast<size_t>(e);
    float* __restrict dst = table_grad->data() + static_cast<size_t>(id) * e;
    for (int j = 0; j < e; ++j) dst[j] += src[j];
  }
}

float SoftmaxCrossEntropyLoss(const Tensor& logits,
                              const std::vector<int>& labels, Tensor* probs) {
  BIRNN_CHECK_EQ(logits.rank(), 2);
  BIRNN_CHECK_EQ(logits.rows(), static_cast<int>(labels.size()));
  Tensor local;
  Tensor* p = probs != nullptr ? probs : &local;
  SoftmaxRows(logits, p);
  const int n = logits.rows();
  const int m = logits.cols();
  double loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const int y = labels[static_cast<size_t>(i)];
    BIRNN_CHECK_GE(y, 0);
    BIRNN_CHECK_LT(y, m);
    const float py = std::max(p->at(i, y), 1e-12f);
    loss -= std::log(static_cast<double>(py));
  }
  return static_cast<float>(loss / std::max(1, n));
}

}  // namespace birnn::nn
