#ifndef BIRNN_NN_LAYERS_H_
#define BIRNN_NN_LAYERS_H_

#include <string>
#include <vector>

#include "nn/graph.h"
#include "nn/parameter.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace birnn::nn {

/// Character/attribute embedding table of shape (vocab, dim). Index 0 is the
/// padding/end indicator (the paper pads short sequences with index 0); it is
/// trained like any other row, matching the Keras default.
class Embedding {
 public:
  Embedding(std::string name, int vocab, int dim, Rng* rng);

  /// Creates the table node on `g` (call once per graph, reuse the Var).
  Graph::Var Bind(Graph* g) { return g->Param(&table_); }

  /// Forward-only lookup for inference.
  void LookupForward(const std::vector<int>& ids, Tensor* out) const;

  std::vector<Parameter*> Params() { return {&table_}; }
  int vocab() const { return table_.value.rows(); }
  int dim() const { return table_.value.cols(); }
  Parameter& table() { return table_; }

 private:
  Parameter table_;
};

/// Fully connected layer: y = act(x W + b).
class Dense {
 public:
  enum class Activation { kNone, kRelu, kTanh };

  Dense(std::string name, int input_dim, int output_dim, Activation act,
        Rng* rng);

  /// Handles to this layer's nodes on one graph.
  struct Bound {
    Graph* g;
    Graph::Var w;
    Graph::Var b;
    Activation act;
    Graph::Var Apply(Graph::Var x) const;
  };
  Bound Bind(Graph* g);

  /// Reusable intermediates for `ApplyForward`; keep one per thread and the
  /// layer stops allocating after the first batch.
  struct ForwardScratch {
    Tensor z;
    Tensor zb;
  };

  /// Forward-only application for inference.
  void ApplyForward(const Tensor& x, Tensor* out) const;

  /// Forward-only application writing intermediates into caller-owned
  /// scratch (bit-identical to the scratch-free overload).
  void ApplyForward(const Tensor& x, Tensor* out, ForwardScratch* scratch) const;

  std::vector<Parameter*> Params() { return {&w_, &b_}; }
  int input_dim() const { return w_.value.rows(); }
  int output_dim() const { return w_.value.cols(); }

 private:
  Parameter w_;
  Parameter b_;
  Activation act_;
};

/// Batch normalization over the feature axis with running statistics for
/// inference (Ioffe & Szegedy 2015), as used before the softmax in both
/// paper architectures.
class BatchNorm1d {
 public:
  BatchNorm1d(std::string name, int features, float momentum = 0.9f,
              float eps = 1e-5f);

  /// Training-mode application on a graph: uses batch statistics and
  /// updates the running estimates. `training=false` uses running stats.
  Graph::Var Apply(Graph* g, Graph::Var x, bool training);

  /// Training-mode application that captures the batch statistics into
  /// `mean_out`/`var_out` instead of updating the running estimates.
  /// Data-parallel shards use this so the EMA update can be replayed later
  /// in fixed shard order via `UpdateRunningStats`.
  Graph::Var ApplyTrainCaptured(Graph* g, Graph::Var x, Tensor* mean_out,
                                Tensor* var_out);

  /// Applies one EMA step with the given batch statistics:
  /// running = momentum * running + (1 - momentum) * batch.
  void UpdateRunningStats(const Tensor& batch_mean, const Tensor& batch_var);

  /// Forward-only inference using running statistics.
  void ApplyForward(const Tensor& x, Tensor* out) const;

  std::vector<Parameter*> Params() { return {&gamma_, &beta_}; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  /// Overwrites the running statistics (used by checkpoint restore).
  void SetRunningStats(Tensor mean, Tensor var);

 private:
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;
  float momentum_;
  float eps_;
};

}  // namespace birnn::nn

#endif  // BIRNN_NN_LAYERS_H_
