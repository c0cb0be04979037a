#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "nn/ops.h"
#include "nn/tensor.h"
#include "nn/vecmath.h"
#include "util/rng.h"

namespace birnn::nn {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ScalarAndFull) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(2.5f).scalar(), 2.5f);
  Tensor f = Tensor::Full({4}, 7.0f);
  for (size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(f[i], 7.0f);
}

TEST(TensorTest, FromMatrixAndAt) {
  Tensor t = Tensor::FromMatrix(2, 2, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1);
  EXPECT_FLOAT_EQ(t.at(0, 1), 2);
  EXPECT_FLOAT_EQ(t.at(1, 0), 3);
  EXPECT_FLOAT_EQ(t.at(1, 1), 4);
}

TEST(TensorTest, AddScaleSum) {
  Tensor a = Tensor::FromVector({1, 2, 3});
  Tensor b = Tensor::FromVector({10, 20, 30});
  a.Add(b);
  EXPECT_FLOAT_EQ(a[0], 11);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a[2], 66);
  EXPECT_FLOAT_EQ(a.Sum(), 22 + 44 + 66);
}

TEST(TensorTest, Reshaped) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6});
  Tensor m = t.Reshaped({2, 3});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_FLOAT_EQ(m.at(1, 0), 4);
}

TEST(TensorTest, EqualsAndAllClose) {
  Tensor a = Tensor::FromVector({1, 2});
  Tensor b = Tensor::FromVector({1, 2});
  Tensor c = Tensor::FromVector({1, 2.0001f});
  EXPECT_TRUE(a.Equals(b));
  EXPECT_FALSE(a.Equals(c));
  EXPECT_TRUE(a.AllClose(c, 1e-3f));
  EXPECT_FALSE(a.AllClose(c, 1e-6f));
  EXPECT_FALSE(a.AllClose(Tensor(1, 2)));
}

// Resize zero-fills, ResizeForOverwrite keeps the overlap, both reshape
// in place and accept the tensor's own shape.
TEST(TensorTest, ResizeReshapesInPlace) {
  Tensor t = Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6});
  t.ResizeForOverwrite(t.shape());
  EXPECT_EQ(t.shape(), (std::vector<int>{2, 3}));
  EXPECT_EQ(t.at(1, 2), 6.0f);
  t.ResizeForOverwrite(3, 2);
  EXPECT_EQ(t.shape(), (std::vector<int>{3, 2}));
  EXPECT_EQ(t[5], 6.0f);
  t.Resize(std::vector<int>{4});
  EXPECT_EQ(t.shape(), (std::vector<int>{4}));
  EXPECT_EQ(t.Sum(), 0.0f);
  t.Fill(1.0f);
  t.Resize(t.shape());
  EXPECT_EQ(t.shape(), (std::vector<int>{4}));
  EXPECT_EQ(t.Sum(), 0.0f);
  t.Fill(1.0f);
  t.Resize(1, 2);
  EXPECT_EQ(t.shape(), (std::vector<int>{1, 2}));
  EXPECT_EQ(t.Sum(), 0.0f);
}

TEST(TensorTest, ToString) {
  Tensor t = Tensor::FromMatrix(1, 3, {1, 2, 3});
  EXPECT_EQ(t.ToString(), "Tensor[1x3]{1, 2, 3}");
}

// --------------------------------------------------------------------- Ops

TEST(OpsTest, MatMulKnownResult) {
  Tensor a = Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromMatrix(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c;
  MatMul(a, b, &c);
  // [[58, 64], [139, 154]]
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(OpsTest, MatMulTransposeVariantsMatchExplicit) {
  Tensor a = Tensor::FromMatrix(3, 2, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromMatrix(3, 4, {1, 0, 2, 1, 3, 1, 0, 2, 0, 1, 1, 1});
  // a^T * b: (2,4)
  Tensor expected(2, 4);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 3; ++k) {
        expected.at(i, j) += a.at(k, i) * b.at(k, j);
      }
    }
  }
  Tensor got(2, 4);
  MatMulTransposeAAcc(a, b, &got);
  EXPECT_TRUE(got.AllClose(expected));

  // x * b^T with x (2,4): (2,3)
  Tensor x = Tensor::FromMatrix(2, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor expected2(2, 3);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      for (int k = 0; k < 4; ++k) {
        expected2.at(i, j) += x.at(i, k) * b.at(j, k);
      }
    }
  }
  Tensor got2(2, 3);
  MatMulTransposeBAcc(x, b, &got2);
  EXPECT_TRUE(got2.AllClose(expected2));
}

// The three GEMM loops as they stood before the register tiles, kept as
// the reference the tiled kernels must match bit for bit.
void RefMatMulAcc(const Tensor& a, const Tensor& b, Tensor* out) {
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  float* __restrict pc = out->data();
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
      for (int j = 0; j < m; ++j) {
        crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
      }
    }
    for (; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* __restrict brow = pb + static_cast<size_t>(kk) * m;
      for (int j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

void RefMatMulTransposeAAcc(const Tensor& a, const Tensor& b, Tensor* out) {
  const int n = a.rows();
  const int k = a.cols();
  const int m = b.cols();
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  float* __restrict pc = out->data();
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
      for (int j = 0; j < m; ++j) {
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
      for (int j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

void RefMatMulTransposeBAcc(const Tensor& a, const Tensor& b, Tensor* out) {
  const int n = a.rows();
  const int m = a.cols();
  const int k = b.rows();
  const float* __restrict pa = a.data();
  const float* __restrict pb = b.data();
  float* __restrict pc = out->data();
  std::vector<float> bt(static_cast<size_t>(m) * k);
  float* __restrict pt = bt.data();
  for (int kk = 0; kk < k; ++kk) {
    const float* __restrict brow = pb + static_cast<size_t>(kk) * m;
    for (int j = 0; j < m; ++j) pt[static_cast<size_t>(j) * k + kk] = brow[j];
  }
  for (int i = 0; i < n; ++i) {
    const float* __restrict arow = pa + static_cast<size_t>(i) * m;
    float* __restrict crow = pc + static_cast<size_t>(i) * k;
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      const float a0 = arow[j];
      const float a1 = arow[j + 1];
      const float a2 = arow[j + 2];
      const float a3 = arow[j + 3];
      if (a0 == 0.0f && a1 == 0.0f && a2 == 0.0f && a3 == 0.0f) continue;
      const float* __restrict t0 = pt + static_cast<size_t>(j) * k;
      const float* __restrict t1 = t0 + k;
      const float* __restrict t2 = t1 + k;
      const float* __restrict t3 = t2 + k;
      for (int kk = 0; kk < k; ++kk) {
        crow[kk] += a0 * t0[kk] + a1 * t1[kk] + a2 * t2[kk] + a3 * t3[kk];
      }
    }
    for (; j < m; ++j) {
      const float av = arow[j];
      if (av == 0.0f) continue;
      const float* __restrict trow = pt + static_cast<size_t>(j) * k;
      for (int kk = 0; kk < k; ++kk) crow[kk] += av * trow[kk];
    }
  }
}

// A (rows, cols) operand of random normals in which aligned 4-runs along
// rows and along columns are zeroed (so every kernel's zero-block skip
// fires, some runs mixing 0 and -0), and about one entry in 64 is
// `special`.
Tensor GemmOperand(int rows, int cols, float special, Rng* rng) {
  Tensor t(rows, cols);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = rng->Bernoulli(1.0 / 64) ? special
                                    : static_cast<float>(rng->Normal());
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c + 4 <= cols; c += 4) {
      if (!rng->Bernoulli(0.2)) continue;
      for (int d = 0; d < 4; ++d) t.at(r, c + d) = d % 2 == 0 ? 0.0f : -0.0f;
    }
  }
  for (int c = 0; c < cols; ++c) {
    for (int r = 0; r + 4 <= rows; r += 4) {
      if (!rng->Bernoulli(0.2)) continue;
      for (int d = 0; d < 4; ++d) t.at(r + d, c) = 0.0f;
    }
  }
  return t;
}

// Succeeds when a kernel's result `got` has the shape and every bit of
// the reference loop's result `want`.
::testing::AssertionResult SameBits(const char* kernel, int n, int k, int m,
                                    const Tensor& got, const Tensor& want) {
  if (got.shape() == want.shape() &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) ==
          0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << kernel << " differs from the reference loop at n=" << n
         << " k=" << k << " m=" << m;
}

// The register-tiled GEMM kernels must reproduce the reference loops'
// bits on every input: zero 4-blocks (the skip), -0 in the coefficients
// and accumulators, inf/NaN in B, and every row, reduction and column
// tail. Run at SSE2, AVX2 and AVX-512 builds, this checks each lane width.
TEST(OpsTest, TiledGemmIsBitIdenticalToReferenceLoops) {
  const float kInf = std::numeric_limits<float>::infinity();
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  Rng rng(18);
  for (const int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 75, 256}) {
    for (const int k : {1, 3, 4, 7, 32, 64, 128}) {
      for (const int m : {2, 32, 63, 64, 65, 128, 192, 256}) {
        // out(n, m) = a(n, k) * b(k, m), then += on a nonzero start.
        const Tensor a = GemmOperand(n, k, -0.0f, &rng);
        const Tensor b = GemmOperand(k, m, rng.Bernoulli(0.5) ? kInf : kNaN,
                                     &rng);
        const Tensor c0 = GemmOperand(n, m, -0.0f, &rng);
        Tensor want(n, m);
        RefMatMulAcc(a, b, &want);
        Tensor got(3, 5);  // MatMul must resize and zero it.
        got.Fill(1.0f);
        MatMul(a, b, &got);
        ASSERT_TRUE(SameBits("MatMul", n, k, m, got, want));
        want = c0;
        RefMatMulAcc(a, b, &want);
        got = c0;
        MatMulAcc(a, b, &got);
        ASSERT_TRUE(SameBits("MatMulAcc", n, k, m, got, want));

        // out(k, m) += a(n, k)^T * bn(n, m): the reduction runs over n.
        const Tensor bn = GemmOperand(n, m, kNaN, &rng);
        const Tensor ck = GemmOperand(k, m, -0.0f, &rng);
        want = ck;
        RefMatMulTransposeAAcc(a, bn, &want);
        got = ck;
        MatMulTransposeAAcc(a, bn, &got);
        ASSERT_TRUE(SameBits("MatMulTransposeAAcc", n, k, m, got, want));

        // out(n, m) += a(n, k) * bt(m, k)^T.
        const Tensor bt = GemmOperand(m, k, kInf, &rng);
        want = c0;
        RefMatMulTransposeBAcc(a, bt, &want);
        got = c0;
        MatMulTransposeBAcc(a, bt, &got);
        ASSERT_TRUE(SameBits("MatMulTransposeBAcc", n, k, m, got, want));
      }
    }
  }
}

// The fused recurrent node's parameter gradients run one kernel call per
// row block of a step; its blocks start at multiples of 4. Splitting the
// reduction rows there must keep every bit of one call over all rows: the
// 4-blocks and the tail are the same.
TEST(OpsTest, TransposeAAccSplitAtMultipleOf4KeepsBits) {
  Rng rng(19);
  for (const auto& [k, m] : {std::pair{32, 64}, std::pair{7, 65}}) {
    for (int n = 5; n <= 131; ++n) {
      const Tensor a = GemmOperand(n, k, -0.0f, &rng);
      const Tensor b = GemmOperand(n, m, -0.0f, &rng);
      const Tensor c0 = GemmOperand(k, m, -0.0f, &rng);
      Tensor whole = c0;
      GemmTransposeAAcc(a.data(), b.data(), whole.data(), n, k, m);
      for (int split = 4; split < n; split += 4) {
        Tensor parts = c0;
        GemmTransposeAAcc(a.data(), b.data(), parts.data(), split, k, m);
        GemmTransposeAAcc(a.data() + static_cast<size_t>(split) * k,
                          b.data() + static_cast<size_t>(split) * m,
                          parts.data(), n - split, k, m);
        ASSERT_TRUE(SameBits("GemmTransposeAAcc split", n, k, m, parts, whole))
            << "split at " << split;
      }
    }
  }
}

TEST(OpsTest, AddBiasBroadcastsOverRows) {
  Tensor x = Tensor::FromMatrix(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({10, 20});
  Tensor y;
  AddBias(x, b, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11);
  EXPECT_FLOAT_EQ(y.at(1, 1), 24);
}

TEST(OpsTest, Elementwise) {
  Tensor a = Tensor::FromVector({1, -2, 3});
  Tensor b = Tensor::FromVector({2, 2, 2});
  Tensor out;
  AddElem(a, b, &out);
  EXPECT_FLOAT_EQ(out[1], 0);
  SubElem(a, b, &out);
  EXPECT_FLOAT_EQ(out[0], -1);
  MulElem(a, b, &out);
  EXPECT_FLOAT_EQ(out[2], 6);
}

TEST(OpsTest, Nonlinearities) {
  Tensor x = Tensor::FromVector({-1.0f, 0.0f, 1.0f});
  Tensor y;
  TanhElem(x, &y);
  EXPECT_NEAR(y[0], -0.761594f, 1e-5);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  ReluElem(x, &y);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 1.0f);
  SigmoidElem(x, &y);
  EXPECT_NEAR(y[0], 0.268941f, 1e-5);
  EXPECT_FLOAT_EQ(y[1], 0.5f);
}

uint32_t Bits(float v) {
  uint32_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Every element of a TanhVec/SigmoidVec sweep must be bit-identical to the
// same input's value in a 16-aligned sweep, whatever the sweep length, the
// element's position in it, the buffers' alignment, or in-place operation:
// the invariant that lets a cell's prediction ignore its batch.
TEST(OpsTest, ActivationSweepsAreBatchSizeInvariant) {
  using Sweep = void (*)(const float*, float*, size_t);
  constexpr int kLen = 256;  // a multiple of 16: the reference takes no tail
  std::vector<float> src(kLen);
  for (int i = 0; i < kLen; ++i) {
    src[static_cast<size_t>(i)] = 6.0f * std::sin(0.37f * i + 0.1f) +
                                  0.01f * static_cast<float>(i % 7);
  }
  for (const Sweep sweep : {static_cast<Sweep>(TanhVec),
                            static_cast<Sweep>(SigmoidVec)}) {
    std::vector<float> ref(kLen);
    sweep(src.data(), ref.data(), kLen);
    for (size_t n = 1; n <= 64; ++n) {
      for (const size_t offset : {0, 1, 3, 5, 8, 13, 16, 37}) {
        std::vector<float> out(kLen, 0.0f);
        sweep(src.data() + offset, out.data() + (offset + 1) % 16, n);
        std::vector<float> inplace(src.begin(), src.end());
        sweep(inplace.data() + offset, inplace.data() + offset, n);
        for (size_t i = 0; i < n; ++i) {
          const uint32_t want = Bits(ref[offset + i]);
          ASSERT_EQ(Bits(out[(offset + 1) % 16 + i]), want)
              << "out of place n=" << n << " offset=" << offset << " i=" << i;
          ASSERT_EQ(Bits(inplace[offset + i]), want)
              << "in place n=" << n << " offset=" << offset << " i=" << i;
        }
      }
    }
  }
}

TEST(OpsTest, SoftmaxRowsSumToOneAndOrder) {
  Tensor logits = Tensor::FromMatrix(2, 3, {1, 2, 3, 1000, 1000, 1000});
  Tensor p;
  SoftmaxRows(logits, &p);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int c = 0; c < 3; ++c) sum += p.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  EXPECT_LT(p.at(0, 0), p.at(0, 2));
  // Large logits must not overflow (stability shift).
  EXPECT_NEAR(p.at(1, 0), 1.0f / 3.0f, 1e-5);
}

TEST(OpsTest, ConcatCols) {
  Tensor a = Tensor::FromMatrix(2, 1, {1, 2});
  Tensor b = Tensor::FromMatrix(2, 2, {3, 4, 5, 6});
  Tensor c;
  ConcatCols({&a, &b}, &c);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_FLOAT_EQ(c.at(0, 0), 1);
  EXPECT_FLOAT_EQ(c.at(0, 2), 4);
  EXPECT_FLOAT_EQ(c.at(1, 1), 5);
}

TEST(OpsTest, GatherAndScatterRows) {
  Tensor table = Tensor::FromMatrix(3, 2, {0, 1, 10, 11, 20, 21});
  Tensor out;
  GatherRows(table, {2, 0, 2}, &out);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_FLOAT_EQ(out.at(0, 0), 20);
  EXPECT_FLOAT_EQ(out.at(1, 1), 1);

  Tensor grad = Tensor::FromMatrix(3, 2, {1, 1, 2, 2, 3, 3});
  Tensor table_grad(3, 2);
  ScatterAddRows(grad, {2, 0, 2}, &table_grad);
  EXPECT_FLOAT_EQ(table_grad.at(0, 0), 2);  // from row 1
  EXPECT_FLOAT_EQ(table_grad.at(2, 0), 4);  // rows 0 and 2 accumulate
  EXPECT_FLOAT_EQ(table_grad.at(1, 0), 0);
}

TEST(OpsTest, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits, 2 classes: loss = ln(2).
  Tensor logits = Tensor::FromMatrix(2, 2, {0, 0, 0, 0});
  Tensor probs;
  const float loss = SoftmaxCrossEntropyLoss(logits, {0, 1}, &probs);
  EXPECT_NEAR(loss, std::log(2.0f), 1e-5);
  EXPECT_NEAR(probs.at(0, 0), 0.5f, 1e-6);
}

TEST(OpsTest, SoftmaxCrossEntropyConfidentCorrect) {
  Tensor logits = Tensor::FromMatrix(1, 2, {10, -10});
  const float loss = SoftmaxCrossEntropyLoss(logits, {0}, nullptr);
  EXPECT_LT(loss, 1e-4);
}

}  // namespace
}  // namespace birnn::nn
