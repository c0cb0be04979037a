#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "nn/gradcheck.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/recurrent.h"
#include "util/threadpool.h"

namespace birnn::nn {
namespace {

// Test-only reference for the fused training node: one step of each cell
// family composed from public Graph primitives, as training ran it before
// the node existed (the vanilla step was one fused tanh node).
struct RefState {
  Graph::Var h = -1;
  Graph::Var c = -1;  // LSTM only.
};

RefState RefStep(Graph* g, CellType type, int u, Graph::Var wx, Graph::Var wh,
                 Graph::Var b, Graph::Var x, const RefState& prev) {
  const int batch = g->value(prev.h).rows();
  RefState next;
  switch (type) {
    case CellType::kVanilla:
      next.h = g->Tanh(
          g->AddBias(g->Add(g->MatMul(x, wx), g->MatMul(prev.h, wh)), b));
      return next;
    case CellType::kGru: {
      // Reset-after GRU: the reset gate scales the recurrent projection.
      Graph::Var xg = g->AddBias(g->MatMul(x, wx), b);
      Graph::Var hg = g->MatMul(prev.h, wh);
      Graph::Var z = g->Sigmoid(
          g->Add(g->SliceCols(xg, 0, u), g->SliceCols(hg, 0, u)));
      Graph::Var r = g->Sigmoid(
          g->Add(g->SliceCols(xg, u, u), g->SliceCols(hg, u, u)));
      Graph::Var cand = g->Tanh(g->Add(g->SliceCols(xg, 2 * u, u),
                                       g->Mul(r, g->SliceCols(hg, 2 * u, u))));
      Graph::Var ones = g->Input(Tensor::Full({batch, u}, 1.0f));
      next.h = g->Add(g->Mul(g->Sub(ones, z), prev.h), g->Mul(z, cand));
      return next;
    }
    case CellType::kLstm: {
      Graph::Var gates = g->AddBias(
          g->Add(g->MatMul(x, wx), g->MatMul(prev.h, wh)), b);
      Graph::Var i = g->Sigmoid(g->SliceCols(gates, 0, u));
      Graph::Var f = g->Sigmoid(g->SliceCols(gates, u, u));
      Graph::Var cand = g->Tanh(g->SliceCols(gates, 2 * u, u));
      Graph::Var o = g->Sigmoid(g->SliceCols(gates, 3 * u, u));
      next.c = g->Add(g->Mul(f, prev.c), g->Mul(i, cand));
      next.h = g->Mul(o, g->Tanh(next.c));
      return next;
    }
  }
  return next;
}

// The whole stack from RefStep: per direction, levels step-major, the
// backward direction over reversed steps, final states concatenated.
Graph::Var RefStack(Graph* g, const StackedBiRecurrent& stack, int units,
                    int stacks, bool bidirectional,
                    const std::vector<Graph::Var>& steps) {
  const std::vector<Parameter*> params = stack.Params();
  const int batch = g->value(steps[0]).rows();
  std::vector<Graph::Var> outs;
  for (int d = 0; d < (bidirectional ? 2 : 1); ++d) {
    std::vector<RefState> state(static_cast<size_t>(stacks));
    std::vector<Graph::Var> w;
    for (int k = 0; k < 3 * stacks; ++k) {
      w.push_back(g->Param(params[static_cast<size_t>(d * 3 * stacks + k)]));
    }
    for (auto& st : state) {
      st.h = g->Input(Tensor(batch, units));
      st.c = g->Input(Tensor(batch, units));
    }
    const int t_count = static_cast<int>(steps.size());
    for (int i = 0; i < t_count; ++i) {
      Graph::Var x = steps[static_cast<size_t>(d == 1 ? t_count - 1 - i : i)];
      for (int l = 0; l < stacks; ++l) {
        const size_t k = static_cast<size_t>(3 * l);
        state[static_cast<size_t>(l)] =
            RefStep(g, stack.type(), units, w[k], w[k + 1], w[k + 2], x,
                    state[static_cast<size_t>(l)]);
        x = state[static_cast<size_t>(l)].h;
      }
    }
    outs.push_back(state.back().h);
  }
  return outs.size() == 1 ? outs[0] : g->ConcatCols(outs);
}

// max |a - b| over max |a|: the tensors agree to `tol`, relative to scale.
bool CloseRelative(const Tensor& a, const Tensor& b, float tol) {
  if (a.shape() != b.shape()) return false;
  float diff = 0.0f;
  float scale = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = std::max(diff, std::fabs(a[i] - b[i]));
    scale = std::max(scale, std::fabs(a[i]));
  }
  return diff <= tol * std::max(scale, 1e-30f);
}

// Values and gradients of one training pass through a stack: the output,
// every parameter gradient and every step-input gradient.
struct PassResult {
  Tensor out;
  std::vector<Tensor> param_grads;
  std::vector<Tensor> step_grads;
};

PassResult RunPass(const StackedBiRecurrent& stack,
                   const std::vector<Tensor>& steps, bool reference,
                   ThreadPool* pool, int units, int stacks,
                   bool bidirectional) {
  const int batch = steps[0].rows();
  ZeroGrads(stack.Params());
  Graph g;
  std::vector<Graph::Var> vars;
  for (const auto& s : steps) vars.push_back(g.Input(s));
  Graph::Var out =
      reference ? RefStack(&g, stack, units, stacks, bidirectional, vars)
                : stack.Apply(&g, vars, batch, pool);
  Tensor head(stack.output_dim(), 2);
  for (size_t i = 0; i < head.size(); ++i) {
    head[i] = 0.3f * std::sin(static_cast<float>(i) + 1.0f);
  }
  std::vector<int> labels(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) labels[static_cast<size_t>(i)] = i % 2;
  Graph::Var loss = g.SoftmaxCrossEntropy(g.MatMul(out, g.Input(head)),
                                          labels);
  g.Backward(loss);
  PassResult result;
  result.out = g.value(out);
  for (Parameter* p : stack.Params()) result.param_grads.push_back(p->grad);
  for (Graph::Var v : vars) result.step_grads.push_back(g.grad(v));
  return result;
}

TEST(CellTypeTest, NamesAndParsing) {
  EXPECT_STREQ(CellTypeName(CellType::kVanilla), "rnn");
  EXPECT_STREQ(CellTypeName(CellType::kGru), "gru");
  EXPECT_STREQ(CellTypeName(CellType::kLstm), "lstm");
  EXPECT_EQ(*ParseCellType("RNN"), CellType::kVanilla);
  EXPECT_EQ(*ParseCellType("vanilla"), CellType::kVanilla);
  EXPECT_EQ(*ParseCellType("gru"), CellType::kGru);
  EXPECT_EQ(*ParseCellType("LSTM"), CellType::kLstm);
  EXPECT_FALSE(ParseCellType("transformer").ok());
}

TEST(RecurrentCellTest, WeightShapesPerFamily) {
  Rng rng(1);
  RecurrentCell rnn(CellType::kVanilla, "r", 5, 7, &rng);
  RecurrentCell gru(CellType::kGru, "g", 5, 7, &rng);
  RecurrentCell lstm(CellType::kLstm, "l", 5, 7, &rng);
  EXPECT_EQ(CountWeights(rnn.Params()), 5u * 7 + 7u * 7 + 7);
  EXPECT_EQ(CountWeights(gru.Params()), 3u * (5 * 7 + 7 * 7 + 7));
  EXPECT_EQ(CountWeights(lstm.Params()), 4u * (5 * 7 + 7 * 7 + 7));
}

TEST(RecurrentCellTest, LstmForgetBiasIsOne) {
  Rng rng(2);
  RecurrentCell lstm(CellType::kLstm, "l", 3, 4, &rng);
  const Parameter* bias = lstm.Params()[2];
  ASSERT_EQ(bias->name, "l/b");
  for (int j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ((*bias).value[static_cast<size_t>(4 + j)], 1.0f);  // f
    EXPECT_FLOAT_EQ((*bias).value[static_cast<size_t>(j)], 0.0f);      // i
  }
}

class RecurrentFamilyTest : public ::testing::TestWithParam<CellType> {};

TEST_P(RecurrentFamilyTest, ReferenceStepMatchesForwardOnly) {
  const CellType type = GetParam();
  Rng rng(5);
  StackedBiRecurrent stack(type, "c", 3, 5, 1, false, &rng);
  std::vector<Tensor> steps(1, Tensor(2, 3));
  Rng data_rng(6);
  NormalInit(&steps[0], 1.0f, &data_rng);

  Tensor direct;
  stack.ApplyForward(steps, &direct);

  Graph g;
  Graph::Var out = RefStack(&g, stack, 5, 1, false, {g.Input(steps[0])});
  EXPECT_TRUE(g.value(out).AllClose(direct, 1e-5f));
}

TEST_P(RecurrentFamilyTest, OutputsBounded) {
  const CellType type = GetParam();
  Rng rng(7);
  RecurrentCell cell(type, "c", 2, 4, &rng);
  Tensor x = Tensor::Full({1, 2}, 50.0f);
  RecurrentTensors state = cell.InitialTensors(1);
  RecurrentTensors next;
  cell.StepForward(x, state, &next);
  for (size_t i = 0; i < next.h.size(); ++i) {
    EXPECT_LE(std::fabs(next.h[i]), 1.0f + 1e-5f);
  }
}

TEST_P(RecurrentFamilyTest, GradientCheckThroughTwoSteps) {
  // Two stacked bidirectional levels over two steps, through the fused
  // training node (StackedBiRecurrent::Apply).
  const CellType type = GetParam();
  Rng rng(8);
  StackedBiRecurrent stack(type, "s", 2, 3, 2, true, &rng);
  std::vector<Tensor> steps(2, Tensor(2, 2));
  Rng data_rng(9);
  for (auto& s : steps) NormalInit(&s, 0.7f, &data_rng);

  auto loss_fn = [&](bool with_backward) {
    Graph g;
    std::vector<Graph::Var> vars;
    for (const auto& s : steps) vars.push_back(g.Input(s));
    Graph::Var features = stack.Apply(&g, vars, 2);
    Graph::Var logits = g.MatMul(
        features, g.Input(Tensor::FromMatrix(
                      6, 2, {0.4f, -0.3f, 0.2f, 0.5f, -0.1f, 0.3f, 0.3f,
                             -0.2f, 0.1f, 0.4f, -0.4f, 0.2f})));
    Graph::Var loss = g.SoftmaxCrossEntropy(logits, {0, 1});
    if (with_backward) g.Backward(loss);
    return g.value(loss).scalar();
  };
  Rng check_rng(10);
  GradCheckResult result = CheckParameterGradients(
      stack.Params(), loss_fn, &check_rng, 1e-3f, 3e-2f, 8);
  EXPECT_TRUE(result.ok) << CellTypeName(type) << " "
                         << result.max_rel_diff;
}

TEST_P(RecurrentFamilyTest, StackedSequenceForwardMatchesGraph) {
  // Every stack shape: the training node's value equals inference exactly,
  // with the expected widths and weight counts.
  const CellType type = GetParam();
  const size_t gates = static_cast<size_t>(GateCount(type));
  for (int stacks : {1, 2, 3}) {
    for (bool bidirectional : {false, true}) {
      SCOPED_TRACE(std::to_string(stacks) + (bidirectional ? " bidi" : " uni"));
      Rng rng(11);
      StackedBiRecurrent stack(type, "s", 3, 4, stacks, bidirectional, &rng);
      const size_t dirs = bidirectional ? 2 : 1;
      EXPECT_EQ(stack.output_dim(), bidirectional ? 8 : 4);
      EXPECT_EQ(stack.Params().size(), dirs * 3 * stacks);
      // Level 0's Wx is (3, gates*4); every higher level's is (4, gates*4).
      EXPECT_EQ(CountWeights(stack.Params()),
                dirs * gates *
                    ((3 * 4 + 4 * 4 + 4) + (stacks - 1) * (4 * 4 + 4 * 4 + 4)));

      std::vector<Tensor> steps(4, Tensor(2, 3));
      Rng data_rng(12);
      for (auto& s : steps) NormalInit(&s, 1.0f, &data_rng);
      Tensor direct;
      stack.ApplyForward(steps, &direct);
      EXPECT_EQ(direct.rows(), 2);
      EXPECT_EQ(direct.cols(), stack.output_dim());

      Graph g;
      std::vector<Graph::Var> vars;
      for (const auto& s : steps) vars.push_back(g.Input(s));
      Graph::Var out = stack.Apply(&g, vars, 2);
      EXPECT_TRUE(g.value(out).Equals(direct));
    }
  }
}

TEST_P(RecurrentFamilyTest, UnidirectionalIsOrderSensitive) {
  // A sequence and its reverse give different outputs without the
  // backward chain.
  Rng rng(19);
  StackedBiRecurrent stack(GetParam(), "s", 2, 4, 2, false, &rng);
  std::vector<Tensor> seq;
  for (int t = 0; t < 4; ++t) {
    Tensor x(1, 2);
    x.at(0, 0) = static_cast<float>(t);
    x.at(0, 1) = 1.0f;
    seq.push_back(x);
  }
  const std::vector<Tensor> rev(seq.rbegin(), seq.rend());
  Tensor out_fwd;
  Tensor out_rev;
  stack.ApplyForward(seq, &out_fwd);
  stack.ApplyForward(rev, &out_rev);
  EXPECT_FALSE(out_fwd.AllClose(out_rev, 1e-3f));
}

class FusedNodeTest
    : public ::testing::TestWithParam<std::tuple<CellType, int, int, bool>> {
 protected:
  void SetUp() override {
    std::tie(type_, batch_, stacks_, bidirectional_) = GetParam();
  }
  CellType type_;
  int batch_;
  int stacks_;
  bool bidirectional_;
};

TEST_P(FusedNodeTest, GradientsMatchPerStepReference) {
  Rng rng(21);
  StackedBiRecurrent stack(type_, "s", 5, 8, stacks_, bidirectional_, &rng);
  std::vector<Tensor> steps(4, Tensor(batch_, 5));
  Rng data_rng(22);
  for (auto& s : steps) NormalInit(&s, 1.0f, &data_rng);

  const PassResult fused =
      RunPass(stack, steps, false, nullptr, 8, stacks_, bidirectional_);
  const PassResult ref =
      RunPass(stack, steps, true, nullptr, 8, stacks_, bidirectional_);
  EXPECT_TRUE(CloseRelative(fused.out, ref.out, 1e-5f));
  for (size_t i = 0; i < fused.param_grads.size(); ++i) {
    EXPECT_TRUE(CloseRelative(fused.param_grads[i], ref.param_grads[i], 1e-5f))
        << stack.Params()[i]->name;
  }
  for (size_t t = 0; t < fused.step_grads.size(); ++t) {
    EXPECT_TRUE(CloseRelative(fused.step_grads[t], ref.step_grads[t], 1e-5f))
        << "step " << t;
  }
}

// Runs a training pass through a stack serially and on pools of 1, 2 and 3
// workers — one to four lanes, so (direction, row block) splits of one to
// four blocks — and expects the value and every gradient bit for bit.
void ExpectPoolRunsMatchSerial(CellType type, int batch, int units,
                               int stacks, bool bidirectional) {
  Rng rng(23);
  StackedBiRecurrent stack(type, "s", 5, units, stacks, bidirectional, &rng);
  std::vector<Tensor> steps(6, Tensor(batch, 5));
  Rng data_rng(24);
  for (auto& s : steps) NormalInit(&s, 1.0f, &data_rng);

  const PassResult serial =
      RunPass(stack, steps, false, nullptr, units, stacks, bidirectional);
  for (int workers : {1, 2, 3}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ThreadPool pool(workers);
    const PassResult pooled =
        RunPass(stack, steps, false, &pool, units, stacks, bidirectional);
    EXPECT_TRUE(serial.out.Equals(pooled.out));
    for (size_t i = 0; i < serial.param_grads.size(); ++i) {
      EXPECT_TRUE(serial.param_grads[i].Equals(pooled.param_grads[i]))
          << stack.Params()[i]->name;
    }
    for (size_t t = 0; t < serial.step_grads.size(); ++t) {
      EXPECT_TRUE(serial.step_grads[t].Equals(pooled.step_grads[t]))
          << "step " << t;
    }
  }
}

TEST_P(FusedNodeTest, PoolRunIsBitIdenticalToSerial) {
  ExpectPoolRunsMatchSerial(type_, batch_, 8, stacks_, bidirectional_);
}

// At 64 units the GEMM kernels' AVX2/AVX-512 register tiles run in every
// row block, including the short last one.
TEST(FusedNodeWideTest, PoolRunIsBitIdenticalToSerial) {
  for (CellType type : {CellType::kVanilla, CellType::kGru, CellType::kLstm}) {
    for (int batch : {5, 75}) {
      for (bool bidirectional : {false, true}) {
        SCOPED_TRACE(std::string(CellTypeName(type)) + " b" +
                     std::to_string(batch) + (bidirectional ? " bidi" : " uni"));
        ExpectPoolRunsMatchSerial(type, batch, 64, 2, bidirectional);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedNodeTest,
    ::testing::Combine(::testing::Values(CellType::kVanilla, CellType::kGru,
                                         CellType::kLstm),
                       ::testing::Values(1, 3, 4, 5, 75, 128),
                       ::testing::Values(1, 2), ::testing::Bool()),
    [](const ::testing::TestParamInfo<FusedNodeTest::ParamType>& info) {
      return std::string(CellTypeName(std::get<0>(info.param))) + "_b" +
             std::to_string(std::get<1>(info.param)) + "_stacks" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_bidi" : "_uni");
    });

TEST_P(RecurrentFamilyTest, LearnsLastTokenParity) {
  // Toy sequence task: label = whether the last step's first input is
  // positive. All three families must solve it.
  const CellType type = GetParam();
  Rng rng(13);
  StackedBiRecurrent stack(type, "s", 2, 6, 1, true, &rng);
  Dense head("h", stack.output_dim(), 2, Dense::Activation::kNone, &rng);

  std::vector<Parameter*> params = stack.Params();
  for (auto* p : head.Params()) params.push_back(p);

  // Fixed batch of 16 random sequences, length 5.
  Rng data_rng(14);
  const int batch = 16;
  std::vector<Tensor> steps(5, Tensor(batch, 2));
  for (auto& s : steps) NormalInit(&s, 1.0f, &data_rng);
  std::vector<int> labels(batch);
  for (int i = 0; i < batch; ++i) {
    labels[static_cast<size_t>(i)] = steps[4].at(i, 0) > 0 ? 1 : 0;
  }

  RmsProp opt(0.01f);
  float loss_value = 0;
  for (int it = 0; it < 150; ++it) {
    Graph g;
    std::vector<Graph::Var> vars;
    for (const auto& s : steps) vars.push_back(g.Input(s));
    Graph::Var features = stack.Apply(&g, vars, batch);
    Graph::Var logits = head.Bind(&g).Apply(features);
    Graph::Var loss = g.SoftmaxCrossEntropy(logits, labels);
    ZeroGrads(params);
    g.Backward(loss);
    opt.Step(params);
    loss_value = g.value(loss).scalar();
  }
  EXPECT_LT(loss_value, 0.15f) << CellTypeName(type);
}

INSTANTIATE_TEST_SUITE_P(
    Families, RecurrentFamilyTest,
    ::testing::Values(CellType::kVanilla, CellType::kGru, CellType::kLstm),
    [](const ::testing::TestParamInfo<CellType>& info) {
      return CellTypeName(info.param);
    });

TEST(SliceColsTest, ForwardAndGradient) {
  Graph g;
  Graph::Var x = g.Input(Tensor::FromMatrix(2, 4, {1, 2, 3, 4, 5, 6, 7, 8}));
  Graph::Var mid = g.SliceCols(x, 1, 2);
  EXPECT_EQ(g.value(mid).cols(), 2);
  EXPECT_FLOAT_EQ(g.value(mid).at(0, 0), 2);
  EXPECT_FLOAT_EQ(g.value(mid).at(1, 1), 7);

  // Gradient: only the sliced columns receive gradient.
  Rng rng(15);
  Parameter p("p", Tensor(2, 4));
  NormalInit(&p.value, 0.5f, &rng);
  auto loss_fn = [&](bool with_backward) {
    Graph graph;
    Graph::Var slice = graph.SliceCols(graph.Param(&p), 1, 2);
    Graph::Var logits = graph.MatMul(
        graph.Tanh(slice),
        graph.Input(Tensor::FromMatrix(2, 2, {0.3f, -0.2f, 0.4f, 0.1f})));
    Graph::Var loss = graph.SoftmaxCrossEntropy(logits, {0, 1});
    if (with_backward) graph.Backward(loss);
    return graph.value(loss).scalar();
  };
  Rng check_rng(16);
  GradCheckResult result =
      CheckParameterGradients({&p}, loss_fn, &check_rng, 1e-3f, 2e-2f);
  EXPECT_TRUE(result.ok) << result.max_rel_diff;
  // Untouched columns must have exactly zero gradient.
  ZeroGrads({&p});
  loss_fn(true);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FLOAT_EQ(p.grad.at(i, 0), 0.0f);
    EXPECT_FLOAT_EQ(p.grad.at(i, 3), 0.0f);
  }
}

}  // namespace
}  // namespace birnn::nn
