#ifndef BIRNN_NN_GRAPH_H_
#define BIRNN_NN_GRAPH_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/parameter.h"
#include "nn/tensor.h"

namespace birnn::nn {

/// Define-by-run reverse-mode autodiff tape.
///
/// Operations execute eagerly and record a backward closure; calling
/// `Backward(loss)` walks the tape in reverse, accumulating gradients into
/// every node and finally into the bound `Parameter::grad` buffers (or into
/// a caller-owned `ParamGradMap` sink for data-parallel training).
///
/// The tape is an arena: `Reset()` rewinds it without releasing node slots
/// or their tensor buffers, so a Graph that is rebuilt with the same
/// structure every step (the training loop) stops allocating after the
/// first step. A Graph is not thread-safe; data-parallel trainers use one
/// Graph per shard. Inference paths should use the forward-only kernels in
/// `nn/ops.h` directly (no tape overhead).
class Graph {
 public:
  /// Handle to a node on the tape.
  using Var = int;

  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Rewinds the tape for the next step. Node slots, tensor buffers and
  /// op-specific aux storage are retained and reused by subsequent ops, so
  /// steady-state steps perform no heap allocation for the tape itself.
  void Reset();

  /// Leaf holding a constant input; no gradient flows out of the graph.
  Var Input(Tensor value);

  /// Leaf bound to a trainable parameter. After Backward, the node's
  /// gradient is accumulated into `p->grad` (or the Backward sink).
  Var Param(Parameter* p);

  /// c = a * b (matrix product).
  Var MatMul(Var a, Var b);

  /// Elementwise sum; shapes must match.
  Var Add(Var a, Var b);

  /// x (n,m) plus a bias vector (m) broadcast over rows.
  Var AddBias(Var x, Var bias);

  /// Elementwise difference / product.
  Var Sub(Var a, Var b);
  Var Mul(Var a, Var b);

  /// Elementwise scale by a constant.
  Var ScaleBy(Var a, float s);

  /// Elementwise nonlinearities.
  Var Tanh(Var x);
  Var Relu(Var x);
  Var Sigmoid(Var x);

  /// Op-owned state of a `Fused` node (see there).
  struct FusedState {
    virtual ~FusedState() = default;
  };

  /// Appends a node that an op outside the tape computes as a whole — a
  /// fused multi-step op such as a recurrent stack
  /// (StackedBiRecurrent::Apply). The node's tape slot keeps one `S`
  /// (derived from FusedState) across Reset(), so the op's buffers stop
  /// allocating once the tape has warmed up. `forward(S*, Tensor* value)`
  /// runs now and must not add nodes; `backward(S*, const Tensor& dvalue)`
  /// runs when Backward reaches the node and adds into the gradients of
  /// the nodes the op read, through `mutable_grad`.
  template <class S, class Forward, class Backward>
  Var Fused(Forward forward, Backward backward) {
    const Var v = NewSlot();
    Node& nd = nodes_[static_cast<size_t>(v)];
    S* state = dynamic_cast<S*>(nd.fused.get());
    if (state == nullptr) {
      auto owned = std::make_unique<S>();
      state = owned.get();
      nd.fused = std::move(owned);
    }
    forward(state, &nd.value);
    nd.backward = [this, v, state, backward = std::move(backward)]() {
      backward(state, nodes_[static_cast<size_t>(v)].grad);
    };
    return v;
  }

  /// The gradient buffer of node `v`, for a Fused node's backward.
  Tensor* mutable_grad(Var v) { return &node(v).grad; }

  /// Concatenates matrices with equal row counts along the column axis.
  Var ConcatCols(const std::vector<Var>& parts);

  /// Columns [start, start+count) of x.
  Var SliceCols(Var x, int start, int count);

  /// Embedding lookup: rows of `table` (a Param or Input of shape (V,E))
  /// selected by integer ids; result is (|ids|, E).
  Var Embedding(Var table, std::vector<int> ids);

  /// Batch normalization over the feature (column) axis, training mode:
  /// normalizes with batch statistics. By default the running estimates are
  /// updated in-place (running = momentum * running + (1-momentum) * batch).
  /// When `batch_mean_out`/`batch_var_out` are non-null the batch statistics
  /// are written there instead and the running estimates are NOT touched —
  /// data-parallel shards use this to defer the EMA update so it can be
  /// applied in fixed shard order (`running_mean`/`running_var` may then be
  /// null).
  Var BatchNormTrain(Var x, Var gamma, Var beta, Tensor* running_mean,
                     Tensor* running_var, float momentum = 0.9f,
                     float eps = 1e-5f, Tensor* batch_mean_out = nullptr,
                     Tensor* batch_var_out = nullptr);

  /// Batch normalization, inference mode: uses the provided running
  /// statistics (still differentiable w.r.t. x, gamma, beta).
  Var BatchNormInfer(Var x, Var gamma, Var beta, const Tensor& running_mean,
                     const Tensor& running_var, float eps = 1e-5f);

  /// Mean softmax cross-entropy of `logits` (n,C) against integer labels;
  /// returns a scalar node. The softmax probabilities are retained and can
  /// be read back with `Probs`.
  Var SoftmaxCrossEntropy(Var logits, std::vector<int> labels);

  /// Softmax probabilities saved by SoftmaxCrossEntropy for node `loss`.
  const Tensor& Probs(Var loss) const;

  /// Runs reverse-mode accumulation from `loss` (must be a scalar node).
  /// Parameter gradients are *added* to `Parameter::grad` — call
  /// `Parameter::ZeroGrad()` between steps.
  void Backward(Var loss) { Backward(loss, 1.0f, nullptr); }

  /// Backward with an explicit seed gradient on the loss node (shard
  /// weighting in data-parallel training) and an optional sink: when `sink`
  /// is non-null, parameter gradients are accumulated into `(*sink)[param]`
  /// instead of `Parameter::grad`, leaving shared parameters untouched so
  /// shards can run concurrently.
  void Backward(Var loss, float loss_seed, ParamGradMap* sink);

  const Tensor& value(Var v) const { return nodes_[CheckVar(v)].value; }
  const Tensor& grad(Var v) const { return nodes_[CheckVar(v)].grad; }

  size_t num_nodes() const { return live_; }

 private:
  struct Node {
    Tensor value;
    Tensor grad;
    std::function<void()> backward;  // empty for leaves
    Parameter* param = nullptr;
    std::shared_ptr<Tensor> aux;  // op-specific saved forward state
    std::unique_ptr<FusedState> fused;  // Fused nodes' op state
  };

  size_t CheckVar(Var v) const {
    BIRNN_CHECK_GE(v, 0);
    BIRNN_CHECK_LT(static_cast<size_t>(v), live_);
    return static_cast<size_t>(v);
  }

  /// Claims the next tape slot, reusing a retired node (and its buffers)
  /// when the arena has one.
  Var NewSlot() {
    if (live_ == nodes_.size()) {
      nodes_.emplace_back();
    } else {
      Node& nd = nodes_[live_];
      nd.backward = nullptr;
      nd.param = nullptr;
    }
    return static_cast<Var>(live_++);
  }

  /// The reusable aux tensor of node `v` (allocated on first use).
  Tensor* Aux(Var v) {
    Node& nd = node(v);
    if (nd.aux == nullptr) nd.aux = std::make_shared<Tensor>();
    return nd.aux.get();
  }

  Node& node(Var v) { return nodes_[CheckVar(v)]; }

  size_t live_ = 0;
  std::vector<Node> nodes_;
};

}  // namespace birnn::nn

#endif  // BIRNN_NN_GRAPH_H_
