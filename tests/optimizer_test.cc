#include <gtest/gtest.h>

#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace birnn::nn {
namespace {

TEST(RmsPropTest, NormalizesStepSize) {
  // Two coordinates with very different gradient magnitudes should move by
  // comparable amounts under RMSprop.
  Parameter w("w", Tensor::FromVector({0.0f, 0.0f}));
  RmsProp opt(0.01f);
  for (int i = 0; i < 10; ++i) {
    w.ZeroGrad();
    w.grad[0] = 100.0f;
    w.grad[1] = 0.01f;
    opt.Step({&w});
  }
  const float move0 = -w.value[0];
  const float move1 = -w.value[1];
  EXPECT_GT(move0, 0.0f);
  EXPECT_GT(move1, 0.0f);
  EXPECT_LT(move0 / move1, 3.0f);  // within a small factor of each other
}

TEST(RmsPropTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 via grad = 2(w - 3).
  Parameter w("w", Tensor::FromVector({0.0f}));
  RmsProp opt(0.05f);
  for (int i = 0; i < 500; ++i) {
    w.ZeroGrad();
    w.grad[0] = 2.0f * (w.value[0] - 3.0f);
    opt.Step({&w});
  }
  EXPECT_NEAR(w.value[0], 3.0f, 0.05f);
}

TEST(OptimizerTest, TrainsXorWithGraph) {
  // 2-4-2 MLP on XOR: end-to-end check that graph + layers + optimizer
  // actually learn.
  Rng rng(42);
  Dense hidden("h", 2, 8, Dense::Activation::kTanh, &rng);
  Dense output("o", 8, 2, Dense::Activation::kNone, &rng);
  std::vector<Parameter*> params;
  for (auto* p : hidden.Params()) params.push_back(p);
  for (auto* p : output.Params()) params.push_back(p);

  const Tensor x =
      Tensor::FromMatrix(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  const std::vector<int> y{0, 1, 1, 0};

  RmsProp opt(0.01f);
  float last_loss = 0;
  for (int it = 0; it < 800; ++it) {
    Graph g;
    Graph::Var h = hidden.Bind(&g).Apply(g.Input(x));
    Graph::Var logits = output.Bind(&g).Apply(h);
    Graph::Var loss = g.SoftmaxCrossEntropy(logits, y);
    ZeroGrads(params);
    g.Backward(loss);
    opt.Step(params);
    last_loss = g.value(loss).scalar();
  }
  EXPECT_LT(last_loss, 0.05f);
}

TEST(ZeroGradsTest, ClearsAll) {
  Parameter a("a", Tensor::FromVector({1.0f}));
  Parameter b("b", Tensor::FromVector({2.0f, 3.0f}));
  a.grad[0] = 9;
  b.grad[1] = 9;
  ZeroGrads({&a, &b});
  EXPECT_FLOAT_EQ(a.grad[0], 0);
  EXPECT_FLOAT_EQ(b.grad[1], 0);
}

TEST(CountWeightsTest, SumsSizes) {
  Parameter a("a", Tensor(2, 3));
  Parameter b("b", Tensor(std::vector<int>{5}));
  EXPECT_EQ(CountWeights({&a, &b}), 11u);
}

}  // namespace
}  // namespace birnn::nn
