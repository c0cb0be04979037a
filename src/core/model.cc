#include "core/model.h"

#include <algorithm>
#include <span>
#include <utility>

#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/rng.h"

namespace birnn::core {

Status ModelConfig::Validate() const {
  if (vocab < 2) return Status::InvalidArgument("vocab must be >= 2");
  if (max_len < 1) return Status::InvalidArgument("max_len must be >= 1");
  if (enriched && use_attr_branch && n_attrs < 1) {
    return Status::InvalidArgument("enriched model needs n_attrs >= 1");
  }
  if (units < 1 || stacks < 1) {
    return Status::InvalidArgument("units and stacks must be >= 1");
  }
  if (char_emb_dim < 1 || attr_emb_dim < 1 || attr_units < 1 ||
      length_dense_dim < 1 || hidden_dense_dim < 1) {
    return Status::InvalidArgument("layer widths must be >= 1");
  }
  return Status::OK();
}

BatchInput MakeBatch(const data::EncodedDataset& ds,
                     const std::vector<int64_t>& indices) {
  BatchInput b;
  MakeBatchInto(ds, indices, ds.max_len, &b);
  return b;
}

void MakeBatchInto(const data::EncodedDataset& ds,
                   const std::vector<int64_t>& indices, int padded_len,
                   BatchInput* out) {
  BIRNN_CHECK_GE(padded_len, 1);
  BIRNN_CHECK_LE(padded_len, ds.max_len);
  out->batch = static_cast<int>(indices.size());
  out->char_steps.resize(static_cast<size_t>(padded_len));
  for (auto& step : out->char_steps) step.resize(indices.size());
  out->attr_ids.resize(indices.size());
  out->length_norm.resize(indices.size());
  out->labels.resize(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t cell = indices[i];
    for (int t = 0; t < padded_len; ++t) {
      out->char_steps[static_cast<size_t>(t)][i] = ds.seq_at(cell, t);
    }
    out->attr_ids[i] = ds.attrs[static_cast<size_t>(cell)];
    out->length_norm[i] = ds.length_norm[static_cast<size_t>(cell)];
    out->labels[i] = ds.labels[static_cast<size_t>(cell)];
  }
}

ErrorDetectionModel::ErrorDetectionModel(const ModelConfig& config)
    : config_(config), name_(config.enriched ? "ETSB-RNN" : "TSB-RNN") {
  BIRNN_CHECK(config.Validate().ok()) << config.Validate().ToString();
  Rng rng(config.seed ^ 0xE75BULL);

  char_emb_ = std::make_unique<nn::Embedding>("char_emb", config.vocab,
                                              config.char_emb_dim, &rng);
  value_rnn_ = std::make_unique<nn::StackedBiRecurrent>(
      config.cell_type, "value_rnn", config.char_emb_dim, config.units,
      config.stacks, config.bidirectional, &rng);

  if (config.enriched && config.use_attr_branch) {
    attr_emb_ = std::make_unique<nn::Embedding>("attr_emb", config.n_attrs,
                                                config.attr_emb_dim, &rng);
    attr_rnn_ = std::make_unique<nn::StackedBiRecurrent>(
        config.cell_type, "attr_rnn", config.attr_emb_dim, config.attr_units,
        config.stacks, config.bidirectional, &rng);
  }
  if (config.enriched && config.use_length_branch) {
    length_dense_ = std::make_unique<nn::Dense>(
        "length_dense", 1, config.length_dense_dim,
        nn::Dense::Activation::kRelu, &rng);
  }

  hidden_dense_ = std::make_unique<nn::Dense>("hidden_dense", ConcatDim(),
                                              config.hidden_dense_dim,
                                              nn::Dense::Activation::kRelu,
                                              &rng);
  batch_norm_ =
      std::make_unique<nn::BatchNorm1d>("batch_norm", config.hidden_dense_dim);
  output_dense_ = std::make_unique<nn::Dense>("output_dense",
                                              config.hidden_dense_dim, 2,
                                              nn::Dense::Activation::kNone,
                                              &rng);
}

double ErrorDetectionModel::ParameterCount(const ModelConfig& c) {
  const double dirs = c.bidirectional ? 2.0 : 1.0;
  // Per direction, a stack's first level reads `input` and the others read
  // `units`; each level holds Wx, Wh and a bias for every gate block.
  const auto rnn = [&](double input, double units) {
    return dirs * nn::GateCount(c.cell_type) * units *
           (input + units + 1.0 + (c.stacks - 1.0) * (2.0 * units + 1.0));
  };
  const bool attr = c.enriched && c.use_attr_branch;
  const bool length = c.enriched && c.use_length_branch;
  const double concat = dirs * (c.units + (attr ? c.attr_units : 0)) +
                        (length ? c.length_dense_dim : 0);
  const double hidden = c.hidden_dense_dim;
  return static_cast<double>(c.vocab) * c.char_emb_dim +
         rnn(c.char_emb_dim, c.units) +
         (attr ? static_cast<double>(c.n_attrs) * c.attr_emb_dim +
                     rnn(c.attr_emb_dim, c.attr_units)
               : 0.0) +
         (length ? 2.0 * c.length_dense_dim : 0.0) +
         // hidden dense, batch-norm gamma/beta, 2-way output dense.
         (concat + 1.0) * hidden + 2.0 * hidden + (hidden + 1.0) * 2.0;
}

int ErrorDetectionModel::ConcatDim() const {
  int dim = value_rnn_->output_dim();
  if (attr_rnn_ != nullptr) dim += attr_rnn_->output_dim();
  if (length_dense_ != nullptr) dim += config_.length_dense_dim;
  return dim;
}

nn::Graph::Var ErrorDetectionModel::Forward(nn::Graph* g,
                                            const BatchInput& batch,
                                            bool training,
                                            nn::Tensor* bn_mean_out,
                                            nn::Tensor* bn_var_out,
                                            ThreadPool* pool) {
  BIRNN_CHECK_EQ(static_cast<int>(batch.char_steps.size()), config_.max_len);

  // Value branch: character embedding -> two-stacked bidirectional RNN.
  const nn::Graph::Var char_table = char_emb_->Bind(g);
  std::vector<nn::Graph::Var> steps;
  steps.reserve(batch.char_steps.size());
  for (const auto& ids : batch.char_steps) {
    steps.push_back(g->Embedding(char_table, ids));
  }
  nn::Graph::Var features = value_rnn_->Apply(g, steps, batch.batch, pool);

  std::vector<nn::Graph::Var> parts{features};
  if (attr_rnn_ != nullptr) {
    // Attribute branch: the attribute id is a length-1 sequence through its
    // own embedding + BiRNN (Fig. 5, bottom left).
    const nn::Graph::Var attr_table = attr_emb_->Bind(g);
    std::vector<nn::Graph::Var> attr_steps{
        g->Embedding(attr_table, batch.attr_ids)};
    // Its whole pass is cheaper than one pool handoff, so it runs inline.
    parts.push_back(attr_rnn_->Apply(g, attr_steps, batch.batch));
  }
  if (length_dense_ != nullptr) {
    // Length branch: length_norm scalar -> Dense(64) ReLU.
    nn::Tensor len(batch.batch, 1);
    for (int i = 0; i < batch.batch; ++i) {
      len.at(i, 0) = batch.length_norm[static_cast<size_t>(i)];
    }
    parts.push_back(length_dense_->Bind(g).Apply(g->Input(std::move(len))));
  }
  nn::Graph::Var concat =
      parts.size() == 1 ? parts[0] : g->ConcatCols(parts);

  // Head: Dense(32) ReLU -> BatchNorm -> Dense(2) (softmax applied by the
  // loss / by PredictProbs).
  nn::Graph::Var hidden = hidden_dense_->Bind(g).Apply(concat);
  nn::Graph::Var normed;
  if (training && bn_mean_out != nullptr) {
    normed =
        batch_norm_->ApplyTrainCaptured(g, hidden, bn_mean_out, bn_var_out);
  } else {
    normed = batch_norm_->Apply(g, hidden, training);
  }
  return output_dense_->Bind(g).Apply(normed);
}

void ErrorDetectionModel::UpdateBatchNorm(const nn::Tensor& batch_mean,
                                          const nn::Tensor& batch_var) {
  batch_norm_->UpdateRunningStats(batch_mean, batch_var);
}

void ErrorDetectionModel::ForwardHidden(
    const BatchInput& batch, nn::Tensor* hidden, InferenceScratch* scratch,
    const BucketedInferenceContext* bucketed) const {
  const int t_count = static_cast<int>(batch.char_steps.size());
  BIRNN_CHECK_GE(t_count, 1);
  BIRNN_CHECK_LE(t_count, config_.max_len);
  BIRNN_CHECK(t_count == config_.max_len || bucketed != nullptr);

  if (bucketed != nullptr) {
    // The level-0 projections come from the per-character tables, and the
    // sequence is completed to max_len exactly: the forward chain runs the
    // pad tail, the backward chain warm-starts from the pad-prefix state.
    value_rnn_->ApplyForwardIds(batch.char_steps.data(), t_count,
                                config_.max_len, bucketed->value_proj,
                                bucketed->value_traj, &scratch->features,
                                &scratch->value_rnn);
  } else {
    if (scratch->char_steps.size() < static_cast<size_t>(t_count)) {
      scratch->char_steps.resize(static_cast<size_t>(t_count));
    }
    for (int t = 0; t < t_count; ++t) {
      char_emb_->LookupForward(batch.char_steps[static_cast<size_t>(t)],
                               &scratch->char_steps[static_cast<size_t>(t)]);
    }
    value_rnn_->ApplyForward(scratch->char_steps.data(), t_count,
                             &scratch->features, &scratch->value_rnn);
  }

  const nn::Tensor* parts[3] = {&scratch->features};
  size_t n_parts = 1;
  if (attr_rnn_ != nullptr) {
    attr_emb_->LookupForward(batch.attr_ids, &scratch->attr_emb);
    attr_rnn_->ApplyForward(&scratch->attr_emb, 1, &scratch->attr_features,
                            &scratch->attr_rnn);
    parts[n_parts++] = &scratch->attr_features;
  }
  if (length_dense_ != nullptr) {
    scratch->len_in.ResizeForOverwrite(batch.batch, 1);
    for (int i = 0; i < batch.batch; ++i) {
      scratch->len_in.at(i, 0) = batch.length_norm[static_cast<size_t>(i)];
    }
    length_dense_->ApplyForward(scratch->len_in, &scratch->len_features,
                                &scratch->dense);
    parts[n_parts++] = &scratch->len_features;
  }
  if (n_parts == 1) {
    hidden_dense_->ApplyForward(scratch->features, hidden, &scratch->dense);
  } else {
    nn::ConcatCols(std::span<const nn::Tensor* const>(parts, n_parts),
                   &scratch->concat);
    hidden_dense_->ApplyForward(scratch->concat, hidden, &scratch->dense);
  }
}

void ErrorDetectionModel::PredictProbs(const BatchInput& batch,
                                       std::vector<float>* p_error) const {
  InferenceScratch scratch;
  PredictProbs(batch, p_error, &scratch);
}

void ErrorDetectionModel::PrepareBucketedInference(
    BucketedInferenceContext* ctx) const {
  const nn::Tensor& table = char_emb_->table().value;
  value_rnn_->ProjectInputTable(table, &ctx->value_proj);
  nn::Tensor pad_step;
  char_emb_->LookupForward(std::vector<int>{0}, &pad_step);
  value_rnn_->ComputeBackwardPadPrefix(pad_step, config_.max_len,
                                       &ctx->value_traj);
}

std::vector<const nn::Parameter*> ErrorDetectionModel::ConstParams() const {
  // Params() is non-const because the trainer writes through it; this view
  // only drops the mutability for callers that inspect.
  std::vector<const nn::Parameter*> out;
  for (nn::Parameter* p : const_cast<ErrorDetectionModel*>(this)->Params()) {
    out.push_back(p);
  }
  return out;
}

void ErrorDetectionModel::PredictProbs(
    const BatchInput& batch, std::vector<float>* p_error,
    InferenceScratch* scratch,
    const BucketedInferenceContext* bucketed) const {
  ForwardHidden(batch, &scratch->hidden, scratch, bucketed);
  batch_norm_->ApplyForward(scratch->hidden, &scratch->normed);
  output_dense_->ApplyForward(scratch->normed, &scratch->logits,
                              &scratch->dense);
  nn::SoftmaxRows(scratch->logits, &scratch->probs);

  p_error->resize(static_cast<size_t>(batch.batch));
  for (int i = 0; i < batch.batch; ++i) {
    (*p_error)[static_cast<size_t>(i)] = scratch->probs.at(i, 1);
  }
}

void ErrorDetectionModel::CalibrateBatchNorm(const data::EncodedDataset& ds,
                                             int batch_size) {
  if (ds.num_cells() == 0) return;
  const int features = config_.hidden_dense_dim;
  std::vector<double> sum(static_cast<size_t>(features), 0.0);
  std::vector<double> sum_sq(static_cast<size_t>(features), 0.0);
  int64_t count = 0;

  std::vector<int64_t> indices;
  nn::Tensor hidden;
  InferenceScratch scratch;
  BatchInput batch;
  for (int64_t start = 0; start < ds.num_cells(); start += batch_size) {
    const int64_t end = std::min<int64_t>(start + batch_size, ds.num_cells());
    indices.clear();
    for (int64_t i = start; i < end; ++i) indices.push_back(i);
    MakeBatchInto(ds, indices, ds.max_len, &batch);
    ForwardHidden(batch, &hidden, &scratch);
    for (int i = 0; i < hidden.rows(); ++i) {
      for (int j = 0; j < features; ++j) {
        const double v = hidden.at(i, j);
        sum[static_cast<size_t>(j)] += v;
        sum_sq[static_cast<size_t>(j)] += v * v;
      }
    }
    count += hidden.rows();
  }

  nn::Tensor mean(std::vector<int>{features});
  nn::Tensor var(std::vector<int>{features});
  for (int j = 0; j < features; ++j) {
    const size_t sj = static_cast<size_t>(j);
    const double m = sum[sj] / static_cast<double>(count);
    mean[sj] = static_cast<float>(m);
    var[sj] = static_cast<float>(
        std::max(0.0, sum_sq[sj] / static_cast<double>(count) - m * m));
  }
  batch_norm_->SetRunningStats(std::move(mean), std::move(var));
}

void ErrorDetectionModel::SetBatchNormStats(nn::Tensor mean, nn::Tensor var) {
  batch_norm_->SetRunningStats(std::move(mean), std::move(var));
}

void ErrorDetectionModel::Predict(const BatchInput& batch,
                                  std::vector<uint8_t>* labels) const {
  std::vector<float> p;
  PredictProbs(batch, &p);
  labels->resize(p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    (*labels)[i] = p[i] > 0.5f ? 1 : 0;
  }
}

std::vector<nn::Parameter*> ErrorDetectionModel::Params() {
  std::vector<nn::Parameter*> out;
  auto append = [&out](std::vector<nn::Parameter*> ps) {
    out.insert(out.end(), ps.begin(), ps.end());
  };
  append(char_emb_->Params());
  append(value_rnn_->Params());
  if (attr_emb_ != nullptr) append(attr_emb_->Params());
  if (attr_rnn_ != nullptr) append(attr_rnn_->Params());
  if (length_dense_ != nullptr) append(length_dense_->Params());
  append(hidden_dense_->Params());
  append(batch_norm_->Params());
  append(output_dense_->Params());
  return out;
}

ModelSnapshot ErrorDetectionModel::Snapshot() const {
  // Params() is non-const only because it hands out mutable Parameter
  // pointers; snapshotting just copies their values (ConstParams idiom).
  ModelSnapshot s;
  s.params = nn::SnapshotParams(
      const_cast<ErrorDetectionModel*>(this)->Params());
  s.bn_mean = batch_norm_->running_mean();
  s.bn_var = batch_norm_->running_var();
  return s;
}

void ErrorDetectionModel::Restore(const ModelSnapshot& snapshot) {
  nn::RestoreParams(snapshot.params, Params());
  batch_norm_->SetRunningStats(snapshot.bn_mean, snapshot.bn_var);
}

size_t ErrorDetectionModel::NumWeights() {
  return nn::CountWeights(Params());
}

}  // namespace birnn::core
