#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/gradcheck.h"
#include "nn/graph.h"
#include "nn/init.h"
#include "nn/ops.h"

namespace birnn::nn {
namespace {

TEST(GraphTest, ForwardMatMulAdd) {
  Graph g;
  Graph::Var a = g.Input(Tensor::FromMatrix(1, 2, {1, 2}));
  Graph::Var b = g.Input(Tensor::FromMatrix(2, 1, {3, 4}));
  Graph::Var c = g.MatMul(a, b);
  EXPECT_FLOAT_EQ(g.value(c).at(0, 0), 11);
}

TEST(GraphTest, BackwardThroughScalarChain) {
  // loss = tanh(x * w); d loss/dw = x * (1 - tanh^2).
  Parameter w("w", Tensor::FromMatrix(1, 1, {0.5f}));
  Graph g;
  Graph::Var x = g.Input(Tensor::FromMatrix(1, 1, {2.0f}));
  Graph::Var wx = g.MatMul(x, g.Param(&w));
  Graph::Var y = g.Tanh(wx);
  w.ZeroGrad();
  g.Backward(y);
  const float t = std::tanh(1.0f);
  EXPECT_NEAR(w.grad[0], 2.0f * (1.0f - t * t), 1e-5);
}

TEST(GraphTest, ParamReuseAccumulatesGradient) {
  // loss = w + w -> dw = 2 (two Param nodes bound to the same parameter).
  Parameter w("w", Tensor::FromMatrix(1, 1, {3.0f}));
  Graph g;
  Graph::Var a = g.Param(&w);
  Graph::Var b = g.Param(&w);
  Graph::Var sum = g.Add(a, b);
  w.ZeroGrad();
  g.Backward(sum);
  EXPECT_FLOAT_EQ(w.grad[0], 2.0f);
}

TEST(GraphTest, ProbsAvailableAfterCrossEntropy) {
  Graph g;
  Graph::Var logits = g.Input(Tensor::FromMatrix(1, 2, {0, 0}));
  Graph::Var loss = g.SoftmaxCrossEntropy(logits, {1});
  EXPECT_NEAR(g.value(loss).scalar(), std::log(2.0f), 1e-5);
  EXPECT_NEAR(g.Probs(loss).at(0, 1), 0.5f, 1e-6);
}

// ------------------------------------------------------- gradient checking

/// Builds a parameterized loss for a given op and checks gradients against
/// finite differences.
struct OpCase {
  std::string name;
  // Builds a scalar loss from two parameters (some ops only use the first).
  std::function<Graph::Var(Graph*, Parameter*, Parameter*)> build;
};

class GradCheckTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(GradCheckTest, AnalyticMatchesNumeric) {
  const OpCase& op_case = GetParam();
  Rng rng(1234);
  Parameter p1("p1", Tensor(3, 4));
  Parameter p2("p2", Tensor(3, 4));
  NormalInit(&p1.value, 0.5f, &rng);
  NormalInit(&p2.value, 0.5f, &rng);

  auto loss_fn = [&](bool with_backward) {
    Graph g;
    Graph::Var loss = op_case.build(&g, &p1, &p2);
    if (with_backward) g.Backward(loss);
    return g.value(loss).scalar();
  };
  Rng check_rng(77);
  GradCheckResult result = CheckParameterGradients(
      {&p1, &p2}, loss_fn, &check_rng, 1e-3f, 2e-2f, 12);
  EXPECT_TRUE(result.ok) << op_case.name
                         << " max_rel_diff=" << result.max_rel_diff;
  EXPECT_GT(result.checked_elements, 0u);
}

/// Reduces a (n,m) Var to a scalar via cross-entropy against fixed labels
/// after a projection, so every op gets a well-behaved scalar head.
Graph::Var ReduceToLoss(Graph* g, Graph::Var x) {
  // Copy the dimensions: adding nodes below may reallocate the tape, which
  // would invalidate a reference into g->value(x).
  const int rows = g->value(x).rows();
  const int cols = g->value(x).cols();
  // Project columns to 2 with a fixed matrix, then cross-entropy.
  Tensor proj(cols, 2);
  for (int i = 0; i < cols; ++i) {
    proj.at(i, 0) = 0.1f * static_cast<float>(i + 1);
    proj.at(i, 1) = -0.05f * static_cast<float>(i + 1);
  }
  Graph::Var logits = g->MatMul(x, g->Input(proj));
  std::vector<int> labels(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) labels[static_cast<size_t>(i)] = i % 2;
  return g->SoftmaxCrossEntropy(logits, labels);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, GradCheckTest,
    ::testing::Values(
        OpCase{"tanh",
               [](Graph* g, Parameter* a, Parameter*) {
                 return ReduceToLoss(g, g->Tanh(g->Param(a)));
               }},
        OpCase{"relu",
               [](Graph* g, Parameter* a, Parameter*) {
                 return ReduceToLoss(g, g->Relu(g->Param(a)));
               }},
        OpCase{"sigmoid",
               [](Graph* g, Parameter* a, Parameter*) {
                 return ReduceToLoss(g, g->Sigmoid(g->Param(a)));
               }},
        OpCase{"add",
               [](Graph* g, Parameter* a, Parameter* b) {
                 return ReduceToLoss(g, g->Add(g->Param(a), g->Param(b)));
               }},
        OpCase{"sub",
               [](Graph* g, Parameter* a, Parameter* b) {
                 return ReduceToLoss(g, g->Sub(g->Param(a), g->Param(b)));
               }},
        OpCase{"mul",
               [](Graph* g, Parameter* a, Parameter* b) {
                 return ReduceToLoss(g, g->Mul(g->Param(a), g->Param(b)));
               }},
        OpCase{"scale",
               [](Graph* g, Parameter* a, Parameter*) {
                 return ReduceToLoss(g, g->ScaleBy(g->Param(a), 1.7f));
               }},
        OpCase{"matmul",
               [](Graph* g, Parameter* a, Parameter* b) {
                 // Exercise gradients on both operands: a (3,4) times the
                 // transpose-shaped product tanh(b)(3,4) -> reshape via a
                 // fixed (4,3) projection so shapes conform.
                 Graph::Var rhs =
                     g->MatMul(g->Tanh(g->Param(b)),
                               g->Input(Tensor::FromMatrix(
                                   4, 3, {0.3f, -0.1f, 0.2f, 0.5f, 0.4f,
                                          -0.2f, 0.1f, 0.2f, 0.3f, -0.4f,
                                          0.1f, 0.6f})));
                 // rhs is (3,3); a (3,4): multiply rhs * a -> (3,4).
                 return ReduceToLoss(g, g->MatMul(rhs, g->Param(a)));
               }},
        OpCase{"concat",
               [](Graph* g, Parameter* a, Parameter* b) {
                 return ReduceToLoss(
                     g, g->ConcatCols({g->Param(a), g->Param(b)}));
               }},
        OpCase{"addbias",
               [](Graph* g, Parameter* a, Parameter* b) {
                 // x gradient through AddBias (the vector-bias gradient has
                 // its own dedicated test below).
                 Graph::Var biased = g->AddBias(
                     g->Param(a),
                     g->Input(Tensor::FromVector({0.1f, -0.2f, 0.3f, 0.4f})));
                 return ReduceToLoss(g, g->Add(biased, g->Tanh(g->Param(b))));
               }}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

TEST(GradCheckBiasTest, VectorBiasGradient) {
  // Dedicated check that AddBias accumulates into a vector-shaped param.
  Rng rng(5);
  Parameter x("x", Tensor(3, 4));
  Parameter bias("bias", Tensor(std::vector<int>{4}));
  NormalInit(&x.value, 0.5f, &rng);
  NormalInit(&bias.value, 0.5f, &rng);
  auto loss_fn = [&](bool with_backward) {
    Graph g;
    Graph::Var y = g.AddBias(g.Param(&x), g.Param(&bias));
    Graph::Var logits = g.MatMul(
        g.Tanh(y), g.Input(Tensor::FromMatrix(
                       4, 2, {0.2f, -0.1f, 0.3f, 0.1f, -0.2f, 0.4f, 0.1f,
                              -0.3f})));
    Graph::Var loss = g.SoftmaxCrossEntropy(logits, {0, 1, 0});
    if (with_backward) g.Backward(loss);
    return g.value(loss).scalar();
  };
  Rng check_rng(7);
  GradCheckResult result =
      CheckParameterGradients({&x, &bias}, loss_fn, &check_rng, 1e-3f, 2e-2f);
  EXPECT_TRUE(result.ok) << result.max_rel_diff;
}

TEST(GradCheckEmbeddingTest, EmbeddingGradient) {
  Rng rng(6);
  Parameter table("table", Tensor(5, 3));
  NormalInit(&table.value, 0.5f, &rng);
  const std::vector<int> ids{0, 2, 4, 2};
  auto loss_fn = [&](bool with_backward) {
    Graph g;
    Graph::Var emb = g.Embedding(g.Param(&table), ids);
    Graph::Var logits = g.MatMul(
        g.Tanh(emb),
        g.Input(Tensor::FromMatrix(3, 2, {0.3f, -0.2f, 0.1f, 0.4f, -0.1f,
                                          0.2f})));
    Graph::Var loss = g.SoftmaxCrossEntropy(logits, {0, 1, 0, 1});
    if (with_backward) g.Backward(loss);
    return g.value(loss).scalar();
  };
  Rng check_rng(8);
  GradCheckResult result =
      CheckParameterGradients({&table}, loss_fn, &check_rng, 1e-3f, 2e-2f);
  EXPECT_TRUE(result.ok) << result.max_rel_diff;
}

TEST(GradCheckBatchNormTest, TrainModeGradient) {
  Rng rng(9);
  Parameter x("x", Tensor(6, 3));
  Parameter gamma("gamma", Tensor::Full({3}, 1.0f));
  Parameter beta("beta", Tensor(std::vector<int>{3}));
  NormalInit(&x.value, 1.0f, &rng);
  NormalInit(&gamma.value, 0.3f, &rng);
  gamma.value[0] += 1.0f;

  auto loss_fn = [&](bool with_backward) {
    Graph g;
    Tensor rm(std::vector<int>{3});
    Tensor rv = Tensor::Full({3}, 1.0f);
    Graph::Var y = g.BatchNormTrain(g.Param(&x), g.Param(&gamma),
                                    g.Param(&beta), &rm, &rv);
    Graph::Var logits = g.MatMul(
        y, g.Input(Tensor::FromMatrix(3, 2, {0.5f, -0.5f, 0.2f, 0.3f, -0.1f,
                                             0.4f})));
    Graph::Var loss = g.SoftmaxCrossEntropy(logits, {0, 1, 0, 1, 0, 1});
    if (with_backward) g.Backward(loss);
    return g.value(loss).scalar();
  };
  Rng check_rng(10);
  GradCheckResult result = CheckParameterGradients(
      {&x, &gamma, &beta}, loss_fn, &check_rng, 1e-3f, 3e-2f);
  EXPECT_TRUE(result.ok) << result.max_rel_diff;
}

TEST(GradCheckBatchNormTest, InferModeGradient) {
  Rng rng(11);
  Parameter x("x", Tensor(4, 3));
  Parameter gamma("gamma", Tensor::Full({3}, 1.2f));
  Parameter beta("beta", Tensor(std::vector<int>{3}));
  NormalInit(&x.value, 1.0f, &rng);
  const Tensor rm = Tensor::FromVector({0.1f, -0.2f, 0.3f});
  const Tensor rv = Tensor::FromVector({1.1f, 0.9f, 1.3f});

  auto loss_fn = [&](bool with_backward) {
    Graph g;
    Graph::Var y = g.BatchNormInfer(g.Param(&x), g.Param(&gamma),
                                    g.Param(&beta), rm, rv);
    Graph::Var logits = g.MatMul(
        y, g.Input(Tensor::FromMatrix(3, 2, {0.5f, -0.5f, 0.2f, 0.3f, -0.1f,
                                             0.4f})));
    Graph::Var loss = g.SoftmaxCrossEntropy(logits, {0, 1, 0, 1});
    if (with_backward) g.Backward(loss);
    return g.value(loss).scalar();
  };
  Rng check_rng(12);
  GradCheckResult result = CheckParameterGradients(
      {&x, &gamma, &beta}, loss_fn, &check_rng, 1e-3f, 2e-2f);
  EXPECT_TRUE(result.ok) << result.max_rel_diff;
}

TEST(GraphTest, BatchNormTrainNormalizesBatch) {
  Graph g;
  Parameter gamma("gamma", Tensor::Full({2}, 1.0f));
  Parameter beta("beta", Tensor(std::vector<int>{2}));
  Tensor rm(std::vector<int>{2});
  Tensor rv = Tensor::Full({2}, 1.0f);
  Tensor x = Tensor::FromMatrix(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
  Graph::Var y = g.BatchNormTrain(g.Input(x), g.Param(&gamma), g.Param(&beta),
                                  &rm, &rv);
  // Output columns should have ~zero mean and ~unit variance.
  const Tensor& out = g.value(y);
  for (int c = 0; c < 2; ++c) {
    float mean = 0;
    for (int r = 0; r < 4; ++r) mean += out.at(r, c);
    mean /= 4;
    EXPECT_NEAR(mean, 0.0f, 1e-5);
  }
  // Running stats moved toward the batch statistics.
  EXPECT_GT(rm[0], 0.0f);
  EXPECT_GT(rm[1], rm[0]);
}

// Claiming an op's output slot can grow the tape and move every node, so
// neither batch-norm op may read its input through a reference taken
// before. Some tape length below 16 lands on a growth of the node vector
// under any geometric growth policy.
TEST(GraphTest, BatchNormIsExactAtEveryTapeLength) {
  Parameter gamma("gamma", Tensor::Full({2}, 1.0f));
  Parameter beta("beta", Tensor(std::vector<int>{2}));
  const Tensor x = Tensor::FromMatrix(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
  const Tensor zero_mean(std::vector<int>{2});
  const Tensor unit_var = Tensor::Full({2}, 1.0f);
  for (int extra = 0; extra < 16; ++extra) {
    Graph g;
    for (int i = 0; i < extra; ++i) g.Input(Tensor(1, 1));
    Tensor rm = zero_mean;
    Tensor rv = unit_var;
    const Graph::Var train = g.BatchNormTrain(
        g.Input(x), g.Param(&gamma), g.Param(&beta), &rm, &rv);
    const Graph::Var infer = g.BatchNormInfer(
        g.Input(x), g.Param(&gamma), g.Param(&beta), zero_mean, unit_var);
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 2; ++c) {
        const float scale = c == 0 ? 1.0f : 10.0f;  // column c is scale * r
        const float xhat =
            (x.at(r, c) - 2.5f * scale) / std::sqrt(1.25f * scale * scale);
        EXPECT_NEAR(g.value(train).at(r, c), xhat, 1e-4f) << extra;
        EXPECT_NEAR(g.value(infer).at(r, c), x.at(r, c), 1e-3f) << extra;
      }
    }
  }
}

}  // namespace
}  // namespace birnn::nn
