#include <gtest/gtest.h>

#include <cmath>

#include "nn/init.h"
#include "nn/layers.h"

namespace birnn::nn {
namespace {

TEST(InitTest, GlorotUniformWithinLimit) {
  Rng rng(1);
  Tensor t(20, 30);
  GlorotUniform(&t, &rng);
  const float limit = std::sqrt(6.0f / 50.0f);
  float max_abs = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(t[i]));
  }
  EXPECT_LE(max_abs, limit);
  EXPECT_GT(max_abs, limit * 0.5f);  // not all tiny
}

TEST(InitTest, OrthogonalRowsAreOrthonormal) {
  Rng rng(2);
  Tensor t(8, 8);
  OrthogonalInit(&t, &rng);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      float dot = 0;
      for (int k = 0; k < 8; ++k) dot += t.at(i, k) * t.at(j, k);
      EXPECT_NEAR(dot, i == j ? 1.0f : 0.0f, 1e-4) << i << "," << j;
    }
  }
}

TEST(InitTest, OrthogonalRectangular) {
  Rng rng(3);
  Tensor t(4, 6);
  OrthogonalInit(&t, &rng);
  // Rows orthonormal when rows <= cols.
  for (int i = 0; i < 4; ++i) {
    float norm = 0;
    for (int k = 0; k < 6; ++k) norm += t.at(i, k) * t.at(i, k);
    EXPECT_NEAR(norm, 1.0f, 1e-4);
  }
}

TEST(EmbeddingTest, LookupReturnsTableRows) {
  Rng rng(4);
  Embedding emb("e", 6, 3, &rng);
  Tensor out;
  emb.LookupForward({1, 5, 1}, &out);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 3);
  EXPECT_FLOAT_EQ(out.at(0, 0), out.at(2, 0));  // same id, same row
  EXPECT_EQ(emb.vocab(), 6);
  EXPECT_EQ(emb.dim(), 3);
}

TEST(DenseTest, ForwardMatchesGraph) {
  Rng rng(5);
  Dense dense("d", 4, 3, Dense::Activation::kRelu, &rng);
  Tensor x(2, 4);
  NormalInit(&x, 1.0f, &rng);

  Tensor direct;
  dense.ApplyForward(x, &direct);

  Graph g;
  Graph::Var y = dense.Bind(&g).Apply(g.Input(x));
  EXPECT_TRUE(g.value(y).AllClose(direct, 1e-6f));
}

TEST(DenseTest, ActivationVariants) {
  Rng rng(6);
  Tensor x(1, 2);
  x.at(0, 0) = -5.0f;
  x.at(0, 1) = 5.0f;
  Dense none("n", 2, 2, Dense::Activation::kNone, &rng);
  Dense relu("r", 2, 2, Dense::Activation::kRelu, &rng);
  Tensor out;
  relu.ApplyForward(x, &out);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_GE(out[i], 0.0f);
}

TEST(BatchNormTest, ForwardUsesRunningStats) {
  BatchNorm1d bn("bn", 2);
  bn.SetRunningStats(Tensor::FromVector({1.0f, 2.0f}),
                     Tensor::FromVector({4.0f, 9.0f}));
  Tensor x = Tensor::FromMatrix(1, 2, {3.0f, 8.0f});
  Tensor out;
  bn.ApplyForward(x, &out);
  // (3-1)/2 = 1, (8-2)/3 = 2 (gamma=1, beta=0, eps negligible).
  EXPECT_NEAR(out.at(0, 0), 1.0f, 1e-3);
  EXPECT_NEAR(out.at(0, 1), 2.0f, 1e-3);
}

TEST(BatchNormTest, TrainUpdatesRunningStats) {
  BatchNorm1d bn("bn", 1);
  Graph g;
  Tensor x = Tensor::FromMatrix(4, 1, {10, 10, 10, 10});
  Graph::Var y = bn.Apply(&g, g.Input(x), /*training=*/true);
  (void)y;
  EXPECT_GT(bn.running_mean()[0], 0.0f);  // moved toward 10
  EXPECT_LT(bn.running_var()[0], 1.0f);   // moved toward 0
}

}  // namespace
}  // namespace birnn::nn
