#include "nn/layers.h"

#include <cmath>
#include <utility>

#include "nn/init.h"
#include "nn/ops.h"

namespace birnn::nn {

// ---------------------------------------------------------------- Embedding

Embedding::Embedding(std::string name, int vocab, int dim, Rng* rng)
    : table_(name + "/table", Tensor(vocab, dim)) {
  // Keras Embedding default: uniform(-0.05, 0.05).
  UniformInit(&table_.value, 0.05f, rng);
}

void Embedding::LookupForward(const std::vector<int>& ids, Tensor* out) const {
  GatherRows(table_.value, ids, out);
}

// -------------------------------------------------------------------- Dense

Dense::Dense(std::string name, int input_dim, int output_dim, Activation act,
             Rng* rng)
    : w_(name + "/w", Tensor(input_dim, output_dim)),
      b_(name + "/b", Tensor(std::vector<int>{output_dim})),
      act_(act) {
  GlorotUniform(&w_.value, rng);
}

Graph::Var Dense::Bound::Apply(Graph::Var x) const {
  Graph::Var z = g->AddBias(g->MatMul(x, w), b);
  switch (act) {
    case Activation::kNone:
      return z;
    case Activation::kRelu:
      return g->Relu(z);
    case Activation::kTanh:
      return g->Tanh(z);
  }
  return z;
}

Dense::Bound Dense::Bind(Graph* g) {
  return Bound{g, g->Param(&w_), g->Param(&b_), act_};
}

void Dense::ApplyForward(const Tensor& x, Tensor* out) const {
  ForwardScratch scratch;
  ApplyForward(x, out, &scratch);
}

void Dense::ApplyForward(const Tensor& x, Tensor* out,
                         ForwardScratch* scratch) const {
  MatMul(x, w_.value, &scratch->z);
  switch (act_) {
    case Activation::kNone:
      AddBias(scratch->z, b_.value, out);
      return;
    case Activation::kRelu:
      AddBias(scratch->z, b_.value, &scratch->zb);
      ReluElem(scratch->zb, out);
      return;
    case Activation::kTanh:
      AddBiasTanh(scratch->z, b_.value, out);
      return;
  }
}

// -------------------------------------------------------------- BatchNorm1d

BatchNorm1d::BatchNorm1d(std::string name, int features, float momentum,
                         float eps)
    : gamma_(name + "/gamma", Tensor::Full({features}, 1.0f)),
      beta_(name + "/beta", Tensor(std::vector<int>{features})),
      running_mean_(std::vector<int>{features}),
      running_var_(Tensor::Full({features}, 1.0f)),
      momentum_(momentum),
      eps_(eps) {}

Graph::Var BatchNorm1d::Apply(Graph* g, Graph::Var x, bool training) {
  Graph::Var gamma = g->Param(&gamma_);
  Graph::Var beta = g->Param(&beta_);
  if (training) {
    return g->BatchNormTrain(x, gamma, beta, &running_mean_, &running_var_,
                             momentum_, eps_);
  }
  return g->BatchNormInfer(x, gamma, beta, running_mean_, running_var_, eps_);
}

Graph::Var BatchNorm1d::ApplyTrainCaptured(Graph* g, Graph::Var x,
                                           Tensor* mean_out, Tensor* var_out) {
  Graph::Var gamma = g->Param(&gamma_);
  Graph::Var beta = g->Param(&beta_);
  return g->BatchNormTrain(x, gamma, beta, /*running_mean=*/nullptr,
                           /*running_var=*/nullptr, momentum_, eps_, mean_out,
                           var_out);
}

void BatchNorm1d::UpdateRunningStats(const Tensor& batch_mean,
                                     const Tensor& batch_var) {
  BIRNN_CHECK_EQ(batch_mean.size(), running_mean_.size());
  BIRNN_CHECK_EQ(batch_var.size(), running_var_.size());
  for (size_t j = 0; j < running_mean_.size(); ++j) {
    running_mean_[j] =
        momentum_ * running_mean_[j] + (1.0f - momentum_) * batch_mean[j];
    running_var_[j] =
        momentum_ * running_var_[j] + (1.0f - momentum_) * batch_var[j];
  }
}

void BatchNorm1d::ApplyForward(const Tensor& x, Tensor* out) const {
  BIRNN_CHECK_EQ(x.rank(), 2);
  const int n = x.rows();
  const int m = x.cols();
  BIRNN_CHECK_EQ(running_mean_.size(), static_cast<size_t>(m));
  out->ResizeForOverwrite(n, m);
  for (int j = 0; j < m; ++j) {
    const size_t sj = static_cast<size_t>(j);
    const float inv_std =
        1.0f / std::sqrt(running_var_[sj] + eps_);
    const float g = gamma_.value[sj];
    const float b = beta_.value[sj];
    const float mu = running_mean_[sj];
    for (int i = 0; i < n; ++i) {
      out->at(i, j) = g * (x.at(i, j) - mu) * inv_std + b;
    }
  }
}

void BatchNorm1d::SetRunningStats(Tensor mean, Tensor var) {
  BIRNN_CHECK(mean.shape() == running_mean_.shape());
  BIRNN_CHECK(var.shape() == running_var_.shape());
  running_mean_ = std::move(mean);
  running_var_ = std::move(var);
}

}  // namespace birnn::nn
