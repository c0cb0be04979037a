#ifndef BIRNN_CORE_TRAINER_H_
#define BIRNN_CORE_TRAINER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/model.h"
#include "data/encoding.h"
#include "util/threadpool.h"

namespace birnn::core {

/// Training setup of the paper's §5.2: 120 epochs, RMSprop, binary
/// cross-entropy, batch size = a quarter of the trainset, checkpointing the
/// weights whenever the epoch's train loss improves.
struct TrainerOptions {
  int epochs = 120;
  /// First epoch index to run (exclusive upper bound stays `epochs`). A
  /// warm-start resume sets this to the epoch count already completed: Fit
  /// burns that many shuffle rounds before the loop so the minibatch order
  /// stream continues exactly where the interrupted run left off.
  int start_epoch = 0;
  float learning_rate = 1e-3f;
  float rmsprop_rho = 0.9f;
  /// Batch size as a fraction of the trainset (paper: 1/4).
  double batch_fraction = 0.25;
  bool shuffle = true;
  uint64_t seed = 99;

  /// After restoring the best checkpoint, replace the batch-norm running
  /// statistics with the exact trainset statistics under those weights.
  /// The EMA estimates trail the fast-moving activations of a 220-cell
  /// trainset badly enough to flip inference wholesale; calibration removes
  /// that failure mode (documented in DESIGN.md).
  bool calibrate_batchnorm = true;

  /// Restore the best-train-loss checkpoint at the end of Fit (the paper's
  /// callback behaviour). Off leaves the final-epoch weights in place —
  /// what a mid-run checkpoint/resume split needs for bit-identity, and
  /// what the adapt fine-tune uses (its gate judges the candidate as-is).
  bool restore_best = true;

  /// Record test accuracy per epoch (Fig. 6/7). Costs one inference sweep
  /// per epoch over up to `test_eval_max_cells` test cells. The per-epoch
  /// sweep intentionally uses the *uncalibrated* running stats — that is
  /// what produces the wavy test-accuracy curves with "gaps" the paper
  /// describes in §5.4.
  bool track_test_accuracy = false;
  /// Subsample size for the per-epoch test sweep; 0 = use all test cells.
  int64_t test_eval_max_cells = 2000;
  /// Inference batch size.
  int eval_batch = 256;

  /// Worker threads for training (0 = everything inline on the calling
  /// thread), capped at HardwareConcurrency() - 1 (TrainPoolThreads). Each
  /// minibatch is split into fixed shards; every shard runs forward/backward
  /// on its own tape into a private gradient buffer, and the buffers are
  /// reduced in shard order. The calling thread and the workers claim the
  /// shards. In a one-shard minibatch — the paper's scale — the calling
  /// thread hands the pool to the value RNN, which runs its recurrence and
  /// its parameter gradients on every lane (StackedBiRecurrent::Apply).
  /// Because the shard
  /// partition depends only on the batch size and `grad_shard_cells` —
  /// never on the thread count — training results are bit-identical for
  /// every value of `train_threads`.
  int train_threads = 0;
  /// Target shard size (cells) for data-parallel gradient accumulation.
  /// Must stay fixed across runs that should be comparable: changing it
  /// changes the batch-norm shard statistics and FP summation order.
  int grad_shard_cells = 128;
};

/// Per-epoch measurements.
struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  bool has_test = false;
};

/// Outcome of one training run.
struct TrainHistory {
  std::vector<EpochStats> epochs;
  int best_epoch = -1;          ///< epoch with the lowest train loss.
  double best_train_loss = 0.0;
  double train_seconds = 0.0;   ///< wall-clock time of Fit().
};

/// Optimizer + checkpoint state that outlives one Fit call. Exported when a
/// run is interrupted and imported by the resuming Fit so that
/// (Fit epochs [0,k) → save → load → Fit epochs [k,E)) produces weights
/// bit-identical to one uninterrupted Fit over [0,E) — proven in
/// trainer_test. The RNG itself is not stored: the resuming Fit replays
/// `start_epoch` shuffle rounds, which reproduces both the generator state
/// and the in-place permutation of the minibatch order.
struct TrainState {
  /// RMSprop squared-gradient cache, in `model->Params()` order.
  std::vector<nn::Tensor> rms_cache;
  /// Best-train-loss checkpoint tracking (for `restore_best`).
  double best_loss = std::numeric_limits<double>::infinity();
  int best_epoch = -1;
  ModelSnapshot best;  ///< valid when `best_epoch >= 0`.
};

/// The workers Trainer::Fit starts for `train_threads`: at most
/// HardwareConcurrency() - 1, since the calling thread runs a shard too; a
/// one-core host trains inline.
int TrainPoolThreads(int train_threads);

/// Trains an ErrorDetectionModel on an encoded trainset.
class Trainer {
 public:
  explicit Trainer(TrainerOptions options = {});

  /// Runs the full training loop. If `test` is non-null and
  /// `track_test_accuracy` is set, records test accuracy every epoch. On
  /// return the model holds the best-train-loss weights (checkpoint
  /// restore), matching the paper's callback behaviour.
  ///
  /// `state` (optional, in/out) warm-starts the optimizer and checkpoint
  /// tracking from a previous Fit segment and receives the end-of-run
  /// state back; pair it with `options.start_epoch` for an exact resume.
  TrainHistory Fit(ErrorDetectionModel* model,
                   const data::EncodedDataset& train,
                   const data::EncodedDataset* test = nullptr,
                   TrainState* state = nullptr);

 private:
  TrainerOptions options_;
};

/// Fraction of cells of `ds` (restricted to `indices`, or all cells if
/// empty) whose thresholded prediction matches the label. Runs a memoized
/// InferenceEngine sweep; when `pool` is non-null the batches are sharded
/// across it with results identical to the sequential path.
double DatasetAccuracy(const ErrorDetectionModel& model,
                       const data::EncodedDataset& ds, int eval_batch,
                       const std::vector<int64_t>& indices,
                       ThreadPool* pool = nullptr);

}  // namespace birnn::core

#endif  // BIRNN_CORE_TRAINER_H_
