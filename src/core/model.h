#ifndef BIRNN_CORE_MODEL_H_
#define BIRNN_CORE_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/encoding.h"
#include "nn/graph.h"
#include "nn/layers.h"
#include "nn/recurrent.h"
#include "util/status.h"
#include "util/threadpool.h"

namespace birnn::core {

/// Hyper-parameters of the paper's architectures (Fig. 5). The defaults are
/// the paper's settings; ablation benches vary them.
struct ModelConfig {
  // --- data-derived (required) ---
  int vocab = 0;     ///< character vocabulary size (pad + chars + unk).
  int max_len = 0;   ///< padded sequence length.
  int n_attrs = 0;   ///< number of attributes (ETSB metadata branch).

  // --- value branch (both models) ---
  int char_emb_dim = 32;     ///< character embedding width.
  int units = 64;            ///< RNN units (paper: 64).
  int stacks = 2;            ///< stacked RNN levels (paper: two-stacked).
  bool bidirectional = true; ///< forward + backward chains (paper: yes).
  /// Recurrent cell family. The paper uses plain tanh RNNs and argues (§2)
  /// they train faster than LSTM/GRU; bench_paper's cell-type ablation
  /// measures it.
  nn::CellType cell_type = nn::CellType::kVanilla;

  // --- enrichment (ETSB-RNN only) ---
  bool enriched = false;        ///< false = TSB-RNN, true = ETSB-RNN.
  bool use_attr_branch = true;  ///< attribute-metadata branch on/off.
  bool use_length_branch = true;///< length_norm branch on/off.
  int attr_emb_dim = 8;         ///< attribute embedding width.
  int attr_units = 8;           ///< attribute BiRNN units (paper: 8).
  int length_dense_dim = 64;    ///< length branch dense width (paper: 64).

  // --- head (both models) ---
  int hidden_dense_dim = 32;    ///< pre-batchnorm dense width (paper: 32).

  uint64_t seed = 1;            ///< weight initialization seed.

  /// Validates data-derived fields.
  Status Validate() const;
};

/// A mini-batch in the layout the models consume: per-time-step character
/// id columns plus the enrichment inputs.
struct BatchInput {
  int batch = 0;
  /// char_steps[t][i] = character id of cell i at time step t.
  std::vector<std::vector<int>> char_steps;
  std::vector<int> attr_ids;        ///< attribute id per cell.
  std::vector<float> length_norm;   ///< length_norm per cell.
  std::vector<int> labels;          ///< 0/1 per cell (training only).
};

/// Assembles a BatchInput from dataset cells `indices`.
BatchInput MakeBatch(const data::EncodedDataset& ds,
                     const std::vector<int64_t>& indices);

/// Assembles a BatchInput into caller-owned storage, padding the character
/// sequences to `padded_len` time steps instead of the dataset's global
/// `max_len` (`padded_len` must cover the effective length of every listed
/// cell). Reuses `out`'s heap buffers across calls — the zero-allocation
/// batch builder of the inference engine's sweep loop.
void MakeBatchInto(const data::EncodedDataset& ds,
                   const std::vector<int64_t>& indices, int padded_len,
                   BatchInput* out);

/// Reusable per-thread intermediates for the forward-only inference path.
/// All tensors retain capacity across batches, so a sweep allocates only on
/// its first batch (mirrors the trainer's tape-arena reuse).
struct InferenceScratch {
  std::vector<nn::Tensor> char_steps;
  nn::StackedBiRecurrent::ForwardScratch value_rnn;
  nn::StackedBiRecurrent::ForwardScratch attr_rnn;
  nn::Tensor attr_emb;
  nn::Tensor len_in;
  nn::Dense::ForwardScratch dense;
  nn::Tensor features;
  nn::Tensor attr_features;
  nn::Tensor len_features;
  nn::Tensor concat;
  nn::Tensor hidden;
  nn::Tensor normed;
  nn::Tensor logits;
  nn::Tensor probs;
};

/// Cell-independent precomputation for the inference engine, under one set
/// of weights: per direction, the value RNN's level-0 input projection of
/// every character (the embedding table times that direction's level-0
/// Wx), and the backward value-chain's state trajectory over an all-pad
/// prefix. Compute once per model with PrepareBucketedInference; safe to
/// share read-only across threads.
struct BucketedInferenceContext {
  std::vector<nn::Tensor> value_proj;  ///< [direction]: vocab x gates*units.
  nn::PadPrefixTrajectory value_traj;
};

/// Weight snapshot including batch-norm running statistics — what the
/// best-train-loss checkpoint callback captures.
struct ModelSnapshot {
  std::vector<nn::Tensor> params;
  nn::Tensor bn_mean;
  nn::Tensor bn_var;
};

/// The paper's error-detection network. With `config.enriched == false`
/// this is TSB-RNN (value branch only); with `true` it is ETSB-RNN (value
/// branch + attribute-metadata branch + length_norm branch). See Fig. 5.
class ErrorDetectionModel {
 public:
  explicit ErrorDetectionModel(const ModelConfig& config);

  ErrorDetectionModel(const ErrorDetectionModel&) = delete;
  ErrorDetectionModel& operator=(const ErrorDetectionModel&) = delete;

  /// Training-mode forward pass on an autograd graph; returns the logits
  /// Var (batch, 2). Pair with Graph::SoftmaxCrossEntropy.
  ///
  /// When `bn_mean_out`/`bn_var_out` are non-null (training only), the
  /// batch-norm batch statistics are captured there and the running
  /// estimates are left untouched; the caller applies the EMA update later
  /// with `UpdateBatchNorm` (data-parallel shards do this in fixed shard
  /// order for determinism).
  ///
  /// With a `pool`, the value RNN runs on the calling thread and the pool's
  /// workers (StackedBiRecurrent::Apply); the one-step attribute RNN stays
  /// on the calling thread. The results do not change.
  nn::Graph::Var Forward(nn::Graph* g, const BatchInput& batch, bool training,
                         nn::Tensor* bn_mean_out = nullptr,
                         nn::Tensor* bn_var_out = nullptr,
                         ThreadPool* pool = nullptr);

  /// Applies one batch-norm EMA step with captured batch statistics.
  void UpdateBatchNorm(const nn::Tensor& batch_mean,
                       const nn::Tensor& batch_var);

  /// Forward-only inference: probability that each cell is erroneous
  /// (class 1). No tape overhead; uses batch-norm running statistics.
  void PredictProbs(const BatchInput& batch, std::vector<float>* p_error) const;

  /// Forward-only inference with caller-owned scratch (bit-identical to the
  /// scratch-free overload). With `bucketed`, the value RNN reads its
  /// level-0 projections from the context's tables instead of embedding
  /// the characters and projecting them, and `batch.char_steps` may hold
  /// fewer than `max_len` steps: the value RNN completes the sequence to
  /// `max_len` exactly — pad tail run for the forward chain, precomputed
  /// pad prefix for the backward chain (see
  /// StackedBiRecurrent::ApplyForwardIds). Without it (the scratch-free
  /// overload, CalibrateBatchNorm, the dense engine) the batch must be
  /// `max_len` steps and the embedding + GEMM path runs: the reference the
  /// context path is tested against.
  void PredictProbs(const BatchInput& batch, std::vector<float>* p_error,
                    InferenceScratch* scratch,
                    const BucketedInferenceContext* bucketed = nullptr) const;

  /// Forward-only pipeline up to the pre-batch-norm hidden activations,
  /// with caller-owned scratch. Same short-sequence contract as the scratch
  /// PredictProbs. Exposed for the inference engine's memoized batch-norm
  /// calibration.
  void ForwardHidden(const BatchInput& batch, nn::Tensor* hidden,
                     InferenceScratch* scratch,
                     const BucketedInferenceContext* bucketed = nullptr) const;

  /// Fills `ctx` — the value RNN's level-0 projection tables and its
  /// pad-prefix trajectory — under the current weights. Recompute after any
  /// weight update.
  void PrepareBucketedInference(BucketedInferenceContext* ctx) const;

  /// Replaces the batch-norm running statistics with the exact mean and
  /// variance of the pre-normalization activations over `ds`, computed with
  /// the current weights. Run after restoring a checkpoint: the momentum-EMA
  /// estimates trail the rapidly moving activations of a small trainset and
  /// can wreck inference (see DESIGN.md, "BatchNorm calibration").
  void CalibrateBatchNorm(const data::EncodedDataset& ds, int batch_size = 256);

  /// Overwrites the batch-norm running statistics directly. Used by the
  /// inference engine's memoized calibration (core/inference.h), which
  /// computes the same trainset statistics as CalibrateBatchNorm but visits
  /// each distinct cell content only once.
  void SetBatchNormStats(nn::Tensor mean, nn::Tensor var);

  /// Thresholded predictions (p_error > 0.5 -> 1).
  void Predict(const BatchInput& batch, std::vector<uint8_t>* labels) const;

  std::vector<nn::Parameter*> Params();
  /// Read-only view of Params() for inspection (names, shapes, sizes).
  std::vector<const nn::Parameter*> ConstParams() const;

  /// Checkpointing of weights + batch-norm running stats.
  ModelSnapshot Snapshot() const;
  void Restore(const ModelSnapshot& snapshot);

  const ModelConfig& config() const { return config_; }
  const std::string& name() const { return name_; }
  size_t NumWeights();

  /// The number of floats in Params() of a model built from `config`,
  /// computed without building it, in double so that no config overflows
  /// it. Lets a loader refuse a config its weights file cannot back.
  static double ParameterCount(const ModelConfig& config);

 private:
  int ConcatDim() const;

  ModelConfig config_;
  std::string name_;

  std::unique_ptr<nn::Embedding> char_emb_;
  std::unique_ptr<nn::StackedBiRecurrent> value_rnn_;
  std::unique_ptr<nn::Embedding> attr_emb_;            // enriched only
  std::unique_ptr<nn::StackedBiRecurrent> attr_rnn_;   // enriched only
  std::unique_ptr<nn::Dense> length_dense_;    // enriched only
  std::unique_ptr<nn::Dense> hidden_dense_;
  std::unique_ptr<nn::BatchNorm1d> batch_norm_;
  std::unique_ptr<nn::Dense> output_dense_;
};

}  // namespace birnn::core

#endif  // BIRNN_CORE_MODEL_H_
