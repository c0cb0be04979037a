#include "nn/graph.h"

#include <cmath>
#include <utility>

#include "nn/ops.h"

namespace birnn::nn {

void Graph::Reset() { live_ = 0; }

Graph::Var Graph::Input(Tensor value) {
  Var c = NewSlot();
  node(c).value = std::move(value);
  return c;
}

Graph::Var Graph::Param(Parameter* p) {
  BIRNN_CHECK(p != nullptr);
  Var v = NewSlot();
  node(v).value = p->value;  // copy-assign reuses the slot's buffer
  node(v).param = p;
  return v;
}

Graph::Var Graph::MatMul(Var a, Var b) {
  Var c = NewSlot();
  nn::MatMul(value(a), value(b), &node(c).value);
  node(c).backward = [this, a, b, c]() {
    // dA += dC * B^T ; dB += A^T * dC
    MatMulTransposeBAcc(nodes_[c].grad, nodes_[b].value, &nodes_[a].grad);
    MatMulTransposeAAcc(nodes_[a].value, nodes_[c].grad, &nodes_[b].grad);
  };
  return c;
}

Graph::Var Graph::Add(Var a, Var b) {
  Var c = NewSlot();
  AddElem(value(a), value(b), &node(c).value);
  node(c).backward = [this, a, b, c]() {
    nodes_[a].grad.Add(nodes_[c].grad);
    nodes_[b].grad.Add(nodes_[c].grad);
  };
  return c;
}

Graph::Var Graph::AddBias(Var x, Var bias) {
  Var c = NewSlot();
  nn::AddBias(value(x), value(bias), &node(c).value);
  node(c).backward = [this, x, bias, c]() {
    nodes_[x].grad.Add(nodes_[c].grad);
    // Column sums of dC accumulated straight into the bias gradient; the
    // bias may be stored as (m) or (1,m) — both are m contiguous floats.
    const Tensor& dy = nodes_[c].grad;
    Tensor& db = nodes_[bias].grad;
    const int n = dy.rows();
    const int m = dy.cols();
    BIRNN_CHECK_EQ(db.size(), static_cast<size_t>(m));
    float* __restrict pd = db.data();
    for (int i = 0; i < n; ++i) {
      const float* __restrict row = dy.data() + static_cast<size_t>(i) * m;
      for (int j = 0; j < m; ++j) pd[j] += row[j];
    }
  };
  return c;
}

Graph::Var Graph::Sub(Var a, Var b) {
  Var c = NewSlot();
  SubElem(value(a), value(b), &node(c).value);
  node(c).backward = [this, a, b, c]() {
    nodes_[a].grad.Add(nodes_[c].grad);
    const Tensor& dy = nodes_[c].grad;
    Tensor& db = nodes_[b].grad;
    for (size_t i = 0; i < dy.size(); ++i) db[i] -= dy[i];
  };
  return c;
}

Graph::Var Graph::Mul(Var a, Var b) {
  Var c = NewSlot();
  MulElem(value(a), value(b), &node(c).value);
  node(c).backward = [this, a, b, c]() {
    const Tensor& dy = nodes_[c].grad;
    const Tensor& av = nodes_[a].value;
    const Tensor& bv = nodes_[b].value;
    Tensor& da = nodes_[a].grad;
    Tensor& db = nodes_[b].grad;
    for (size_t i = 0; i < dy.size(); ++i) {
      da[i] += dy[i] * bv[i];
      db[i] += dy[i] * av[i];
    }
  };
  return c;
}

Graph::Var Graph::ScaleBy(Var a, float s) {
  Var c = NewSlot();
  node(c).value = value(a);
  node(c).value.Scale(s);
  node(c).backward = [this, a, c, s]() {
    const Tensor& dy = nodes_[c].grad;
    Tensor& da = nodes_[a].grad;
    for (size_t i = 0; i < dy.size(); ++i) da[i] += dy[i] * s;
  };
  return c;
}

Graph::Var Graph::Tanh(Var x) {
  Var c = NewSlot();
  TanhElem(value(x), &node(c).value);
  node(c).backward = [this, x, c]() {
    // d tanh = 1 - tanh^2
    const Tensor& y = nodes_[c].value;
    const Tensor& dy = nodes_[c].grad;
    Tensor& dx = nodes_[x].grad;
    for (size_t i = 0; i < y.size(); ++i) {
      dx[i] += dy[i] * (1.0f - y[i] * y[i]);
    }
  };
  return c;
}

Graph::Var Graph::Relu(Var x) {
  Var c = NewSlot();
  ReluElem(value(x), &node(c).value);
  node(c).backward = [this, x, c]() {
    const Tensor& xin = nodes_[x].value;
    const Tensor& dy = nodes_[c].grad;
    Tensor& dx = nodes_[x].grad;
    for (size_t i = 0; i < xin.size(); ++i) {
      if (xin[i] > 0.0f) dx[i] += dy[i];
    }
  };
  return c;
}

Graph::Var Graph::Sigmoid(Var x) {
  Var c = NewSlot();
  SigmoidElem(value(x), &node(c).value);
  node(c).backward = [this, x, c]() {
    const Tensor& y = nodes_[c].value;
    const Tensor& dy = nodes_[c].grad;
    Tensor& dx = nodes_[x].grad;
    for (size_t i = 0; i < y.size(); ++i) {
      dx[i] += dy[i] * y[i] * (1.0f - y[i]);
    }
  };
  return c;
}

Graph::Var Graph::ConcatCols(const std::vector<Var>& parts) {
  Var c = NewSlot();
  std::vector<const Tensor*> tensors;
  tensors.reserve(parts.size());
  for (Var p : parts) tensors.push_back(&value(p));
  nn::ConcatCols(tensors, &node(c).value);
  std::vector<Var> saved = parts;
  node(c).backward = [this, saved, c]() {
    const Tensor& dy = nodes_[c].grad;
    const int n = dy.rows();
    const int total = dy.cols();
    int off = 0;
    for (Var p : saved) {
      Tensor& dp = nodes_[p].grad;
      const int m = dp.cols();
      for (int i = 0; i < n; ++i) {
        const float* src = dy.data() + static_cast<size_t>(i) * total + off;
        float* dst = dp.data() + static_cast<size_t>(i) * m;
        for (int j = 0; j < m; ++j) dst[j] += src[j];
      }
      off += m;
    }
    BIRNN_CHECK_EQ(off, total);
  };
  return c;
}

Graph::Var Graph::SliceCols(Var x, int start, int count) {
  Var c = NewSlot();
  nn::SliceCols(value(x), start, count, &node(c).value);
  node(c).backward = [this, x, c, start, count]() {
    const Tensor& dy = nodes_[c].grad;
    Tensor& dx = nodes_[x].grad;
    const int n = dy.rows();
    const int m = dx.cols();
    for (int i = 0; i < n; ++i) {
      const float* src = dy.data() + static_cast<size_t>(i) * count;
      float* dst = dx.data() + static_cast<size_t>(i) * m + start;
      for (int j = 0; j < count; ++j) dst[j] += src[j];
    }
  };
  return c;
}

Graph::Var Graph::Embedding(Var table, std::vector<int> ids) {
  Var c = NewSlot();
  GatherRows(value(table), ids, &node(c).value);
  node(c).backward = [this, table, ids = std::move(ids), c]() {
    ScatterAddRows(nodes_[c].grad, ids, &nodes_[table].grad);
  };
  return c;
}

Graph::Var Graph::BatchNormTrain(Var x, Var gamma, Var beta,
                                 Tensor* running_mean, Tensor* running_var,
                                 float momentum, float eps,
                                 Tensor* batch_mean_out,
                                 Tensor* batch_var_out) {
  // Claim the output slot first: a new slot may grow the tape and move
  // every node, which would leave a reference into it dangling.
  Var c = NewSlot();
  const Tensor& xin = value(x);
  BIRNN_CHECK_EQ(xin.rank(), 2);
  const int n = xin.rows();
  const int m = xin.cols();
  BIRNN_CHECK_EQ(value(gamma).size(), static_cast<size_t>(m));
  BIRNN_CHECK_EQ(value(beta).size(), static_cast<size_t>(m));

  std::vector<float> mu(m, 0.0f);
  std::vector<float> var(m, 0.0f);
  for (int i = 0; i < n; ++i) {
    const float* row = xin.data() + static_cast<size_t>(i) * m;
    for (int j = 0; j < m; ++j) mu[static_cast<size_t>(j)] += row[j];
  }
  for (int j = 0; j < m; ++j) mu[static_cast<size_t>(j)] /= static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    const float* row = xin.data() + static_cast<size_t>(i) * m;
    for (int j = 0; j < m; ++j) {
      const float d = row[j] - mu[static_cast<size_t>(j)];
      var[static_cast<size_t>(j)] += d * d;
    }
  }
  for (int j = 0; j < m; ++j) var[static_cast<size_t>(j)] /= static_cast<float>(n);

  if (batch_mean_out != nullptr) {
    // Deferred mode: hand the batch statistics to the caller (data-parallel
    // shards apply the EMA update later, in fixed shard order).
    BIRNN_CHECK(batch_var_out != nullptr);
    batch_mean_out->ResizeForOverwrite(std::vector<int>{m});
    batch_var_out->ResizeForOverwrite(std::vector<int>{m});
    for (int j = 0; j < m; ++j) {
      (*batch_mean_out)[static_cast<size_t>(j)] = mu[static_cast<size_t>(j)];
      (*batch_var_out)[static_cast<size_t>(j)] = var[static_cast<size_t>(j)];
    }
  } else {
    // Update running statistics in-place.
    BIRNN_CHECK_EQ(running_mean->size(), static_cast<size_t>(m));
    BIRNN_CHECK_EQ(running_var->size(), static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) {
      (*running_mean)[static_cast<size_t>(j)] =
          momentum * (*running_mean)[static_cast<size_t>(j)] +
          (1.0f - momentum) * mu[static_cast<size_t>(j)];
      (*running_var)[static_cast<size_t>(j)] =
          momentum * (*running_var)[static_cast<size_t>(j)] +
          (1.0f - momentum) * var[static_cast<size_t>(j)];
    }
  }

  // Saved state packed as (n+1, m): rows 0..n-1 hold xhat, row n holds
  // inv_std per feature (single aux slot per node).
  Tensor* aux = Aux(c);
  aux->ResizeForOverwrite(n + 1, m);
  for (int j = 0; j < m; ++j) {
    aux->at(n, j) = 1.0f / std::sqrt(var[static_cast<size_t>(j)] + eps);
  }
  Tensor& out = node(c).value;
  out.ResizeForOverwrite(n, m);
  const Tensor& g = value(gamma);
  const Tensor& b = value(beta);
  for (int i = 0; i < n; ++i) {
    const float* row = xin.data() + static_cast<size_t>(i) * m;
    float* orow = out.data() + static_cast<size_t>(i) * m;
    for (int j = 0; j < m; ++j) {
      const size_t sj = static_cast<size_t>(j);
      const float xhat = (row[j] - mu[sj]) * aux->at(n, j);
      aux->at(i, j) = xhat;
      orow[j] = g[sj] * xhat + b[sj];
    }
  }

  node(c).backward = [this, x, gamma, beta, c, n, m]() {
    const Tensor& dy = nodes_[c].grad;
    const Tensor& aux_t = *nodes_[c].aux;
    const Tensor& g = nodes_[gamma].value;
    Tensor& dx = nodes_[x].grad;
    Tensor& dgamma = nodes_[gamma].grad;
    Tensor& dbeta = nodes_[beta].grad;

    std::vector<float> sum_dy(static_cast<size_t>(m), 0.0f);
    std::vector<float> sum_dy_xhat(static_cast<size_t>(m), 0.0f);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        const size_t sj = static_cast<size_t>(j);
        sum_dy[sj] += dy.at(i, j);
        sum_dy_xhat[sj] += dy.at(i, j) * aux_t.at(i, j);
      }
    }
    for (int j = 0; j < m; ++j) {
      const size_t sj = static_cast<size_t>(j);
      dgamma[sj] += sum_dy_xhat[sj];
      dbeta[sj] += sum_dy[sj];
    }
    const float inv_n = 1.0f / static_cast<float>(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        const size_t sj = static_cast<size_t>(j);
        const float inv_std_j = aux_t.at(n, j);
        const float term = static_cast<float>(n) * dy.at(i, j) - sum_dy[sj] -
                           aux_t.at(i, j) * sum_dy_xhat[sj];
        dx.at(i, j) += g[sj] * inv_std_j * inv_n * term;
      }
    }
  };
  return c;
}

Graph::Var Graph::BatchNormInfer(Var x, Var gamma, Var beta,
                                 const Tensor& running_mean,
                                 const Tensor& running_var, float eps) {
  Var c = NewSlot();  // before any reference into the tape (see above)
  const Tensor& xin = value(x);
  BIRNN_CHECK_EQ(xin.rank(), 2);
  const int n = xin.rows();
  const int m = xin.cols();
  BIRNN_CHECK_EQ(running_mean.size(), static_cast<size_t>(m));
  BIRNN_CHECK_EQ(running_var.size(), static_cast<size_t>(m));

  // y = gamma * (x - rm) * inv_std + beta; save xhat (n,m) + inv_std row.
  Tensor* aux = Aux(c);
  aux->ResizeForOverwrite(n + 1, m);
  Tensor& out = node(c).value;
  out.ResizeForOverwrite(n, m);
  const Tensor& g = value(gamma);
  const Tensor& b = value(beta);
  for (int j = 0; j < m; ++j) {
    aux->at(n, j) = 1.0f / std::sqrt(running_var[static_cast<size_t>(j)] + eps);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      const size_t sj = static_cast<size_t>(j);
      const float xhat = (xin.at(i, j) - running_mean[sj]) * aux->at(n, j);
      aux->at(i, j) = xhat;
      out.at(i, j) = g[sj] * xhat + b[sj];
    }
  }
  node(c).backward = [this, x, gamma, beta, c, n, m]() {
    const Tensor& dy = nodes_[c].grad;
    const Tensor& aux_t = *nodes_[c].aux;
    const Tensor& g = nodes_[gamma].value;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        const size_t sj = static_cast<size_t>(j);
        nodes_[x].grad.at(i, j) += dy.at(i, j) * g[sj] * aux_t.at(n, j);
        nodes_[gamma].grad[sj] += dy.at(i, j) * aux_t.at(i, j);
        nodes_[beta].grad[sj] += dy.at(i, j);
      }
    }
  };
  return c;
}

Graph::Var Graph::SoftmaxCrossEntropy(Var logits, std::vector<int> labels) {
  Var c = NewSlot();
  Tensor* probs = Aux(c);
  const float loss = SoftmaxCrossEntropyLoss(value(logits), labels, probs);
  node(c).value.ResizeForOverwrite(std::vector<int>{1});
  node(c).value[0] = loss;
  node(c).backward = [this, logits, labels = std::move(labels), c]() {
    const float dloss = nodes_[c].grad[0];
    const Tensor& p = *nodes_[c].aux;
    Tensor& dl = nodes_[logits].grad;
    const int n = p.rows();
    const int m = p.cols();
    const float scale = dloss / static_cast<float>(std::max(1, n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) {
        const float onehot =
            (labels[static_cast<size_t>(i)] == j) ? 1.0f : 0.0f;
        dl.at(i, j) += scale * (p.at(i, j) - onehot);
      }
    }
  };
  return c;
}

const Tensor& Graph::Probs(Var loss) const {
  const Node& nd = nodes_[CheckVar(loss)];
  BIRNN_CHECK(nd.aux != nullptr) << "Probs() on a non-cross-entropy node";
  return *nd.aux;
}

void Graph::Backward(Var loss, float loss_seed, ParamGradMap* sink) {
  const size_t li = CheckVar(loss);
  BIRNN_CHECK_EQ(nodes_[li].value.size(), 1u)
      << "Backward requires a scalar loss";
  // Size and zero all gradients (buffer-reusing; no allocation once the
  // arena has warmed up).
  for (size_t i = 0; i < live_; ++i) {
    nodes_[i].grad.Resize(nodes_[i].value.shape());
  }
  nodes_[li].grad[0] = loss_seed;
  for (size_t i = live_; i-- > 0;) {
    if (nodes_[i].backward) nodes_[i].backward();
  }
  // Flush parameter gradients into the shared accumulators, or into the
  // caller's private sink for lock-free data-parallel shards.
  for (size_t i = 0; i < live_; ++i) {
    Node& nd = nodes_[i];
    if (nd.param == nullptr) continue;
    if (sink != nullptr) {
      Tensor& acc = (*sink)[nd.param];
      if (acc.shape() != nd.grad.shape()) acc.Resize(nd.grad.shape());
      acc.Add(nd.grad);
    } else {
      if (nd.param->grad.shape() != nd.grad.shape()) {
        nd.param->grad = Tensor(nd.grad.shape());
      }
      nd.param->grad.Add(nd.grad);
    }
  }
}

}  // namespace birnn::nn
