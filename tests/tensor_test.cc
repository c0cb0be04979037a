#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/ops.h"
#include "nn/tensor.h"
#include "nn/vecmath.h"

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

TEST(OpsTest, ColSum) {
  Tensor x = Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor s;
  ColSum(x, &s);
  EXPECT_FLOAT_EQ(s[0], 5);
  EXPECT_FLOAT_EQ(s[1], 7);
  EXPECT_FLOAT_EQ(s[2], 9);
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
