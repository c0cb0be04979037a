#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/inference.h"
#include "nn/optimizer.h"
#include "obs/obs.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace birnn::core {

Trainer::Trainer(TrainerOptions options) : options_(options) {}

int TrainPoolThreads(int train_threads) {
  return std::clamp(train_threads, 0, HardwareConcurrency() - 1);
}

double DatasetAccuracy(const ErrorDetectionModel& model,
                       const data::EncodedDataset& ds, int eval_batch,
                       const std::vector<int64_t>& indices, ThreadPool* pool) {
  InferenceOptions opts;
  opts.eval_batch = eval_batch;
  InferenceEngine engine(model, opts, pool);
  return engine.Accuracy(ds, indices);
}

TrainHistory Trainer::Fit(ErrorDetectionModel* model,
                          const data::EncodedDataset& train,
                          const data::EncodedDataset* test,
                          TrainState* state) {
  BIRNN_CHECK_GT(train.num_cells(), 0);
  BIRNN_CHECK(options_.start_epoch >= 0 &&
              options_.start_epoch <= options_.epochs);
  OBS_SPAN("trainer/fit");
  Stopwatch timer;
  Rng rng(options_.seed ^ 0x7124139ULL);

  const int64_t n = train.num_cells();
  const int batch_size = std::max<int>(
      1, static_cast<int>(std::lround(options_.batch_fraction *
                                      static_cast<double>(n))));

  std::vector<nn::Parameter*> params = model->Params();
  nn::RmsProp optimizer(options_.learning_rate, options_.rmsprop_rho);
  if (state != nullptr && !state->rms_cache.empty()) {
    optimizer.ImportState(params, state->rms_cache);
  }

  // Fixed subsample of test cells for the per-epoch accuracy curve.
  std::vector<int64_t> test_indices;
  if (test != nullptr && options_.track_test_accuracy &&
      test->num_cells() > 0) {
    if (options_.test_eval_max_cells > 0 &&
        test->num_cells() > options_.test_eval_max_cells) {
      const auto picks = rng.SampleWithoutReplacement(
          static_cast<size_t>(test->num_cells()),
          static_cast<size_t>(options_.test_eval_max_cells));
      for (size_t p : picks) test_indices.push_back(static_cast<int64_t>(p));
    } else {
      for (int64_t i = 0; i < test->num_cells(); ++i) test_indices.push_back(i);
    }
  }

  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;

  TrainHistory history;
  ModelSnapshot best = model->Snapshot();
  double best_loss = std::numeric_limits<double>::infinity();
  int best_epoch = -1;
  if (state != nullptr && state->best_epoch >= 0) {
    best = state->best;
    best_loss = state->best_loss;
    best_epoch = state->best_epoch;
  }

  // Resume: replay the shuffle rounds of the epochs already completed so
  // the RNG state and the in-place `order` permutation match where the
  // interrupted run's would have been at this point.
  if (options_.shuffle) {
    for (int e = 0; e < options_.start_epoch; ++e) rng.Shuffle(&order);
  }

  // Data-parallel minibatch sharding. The shard partition is a pure
  // function of the batch size and `grad_shard_cells` — NEVER of the thread
  // count — and the per-shard gradient buffers are reduced in shard-index
  // order, so every value of `train_threads` (including 0) produces
  // bit-identical weights. Shard workspaces persist across batches so the
  // per-shard tape arenas stop allocating after the first step.
  ThreadPool pool(TrainPoolThreads(options_.train_threads));
  const int shard_cells = std::max(1, options_.grad_shard_cells);
  struct ShardWorkspace {
    nn::Graph graph;
    nn::ParamGradMap grads;
    nn::Tensor bn_mean;
    nn::Tensor bn_var;
    double loss = 0.0;
    int64_t correct = 0;
    int64_t rows = 0;
  };
  std::vector<std::unique_ptr<ShardWorkspace>> workspaces;

  // Forward/backward of one shard. `lane` is the pool its recurrent stacks
  // may run their lanes on; only a shard on the calling thread gets one, so
  // no worker ever waits on its own pool.
  auto run_shard = [&order, &train, model](ShardWorkspace* ws,
                                           int64_t s_begin, int64_t s_end,
                                           int64_t batch_rows,
                                           ThreadPool* lane) {
    OBS_SPAN("trainer/grad_shard");
    const std::vector<int64_t> shard_indices(order.begin() + s_begin,
                                             order.begin() + s_end);
    const BatchInput batch = MakeBatch(train, shard_indices);
    ws->rows = s_end - s_begin;

    ws->graph.Reset();
    nn::ZeroParamGradMap(&ws->grads);
    const nn::Graph::Var logits =
        model->Forward(&ws->graph, batch, /*training=*/true, &ws->bn_mean,
                       &ws->bn_var, lane);
    const nn::Graph::Var loss =
        ws->graph.SoftmaxCrossEntropy(logits, batch.labels);
    // Seed with the shard's weight so the summed shard gradients equal the
    // gradient of the full-batch mean cross-entropy.
    const float weight =
        static_cast<float>(ws->rows) / static_cast<float>(batch_rows);
    ws->graph.Backward(loss, weight, &ws->grads);

    ws->loss = ws->graph.value(loss).scalar();
    ws->correct = 0;
    const nn::Tensor& probs = ws->graph.Probs(loss);
    for (int i = 0; i < batch.batch; ++i) {
      const int pred = probs.at(i, 1) > probs.at(i, 0) ? 1 : 0;
      if (pred == batch.labels[static_cast<size_t>(i)]) ++ws->correct;
    }
  };

  for (int epoch = options_.start_epoch; epoch < options_.epochs; ++epoch) {
    OBS_SPAN("trainer/epoch");
    Stopwatch epoch_timer;
    if (options_.shuffle) rng.Shuffle(&order);

    double loss_sum = 0.0;
    int64_t correct = 0;
    int64_t seen = 0;
    int batches = 0;
    for (int64_t start = 0; start < n; start += batch_size) {
      const int64_t end = std::min<int64_t>(start + batch_size, n);
      const int64_t batch_rows = end - start;
      const int64_t num_shards = (batch_rows + shard_cells - 1) / shard_cells;
      while (workspaces.size() < static_cast<size_t>(num_shards)) {
        workspaces.push_back(std::make_unique<ShardWorkspace>());
      }

      // The calling thread and up to `num_shards - 1` workers claim shards
      // until none is left; the pool has one worker fewer than the
      // hardware for that reason. Each shard writes only its own
      // workspace, so the claim order never reaches the bits. A lone shard
      // runs on the calling thread, which hands the pool to its recurrent
      // stacks as their lanes.
      ParallelFor(&pool, num_shards, [&](int64_t s) {
        const int64_t s_begin = start + s * shard_cells;
        const int64_t s_end = std::min<int64_t>(s_begin + shard_cells, end);
        run_shard(workspaces[static_cast<size_t>(s)].get(), s_begin, s_end,
                  batch_rows, num_shards == 1 ? &pool : nullptr);
      });

      // Fixed-order reduction: shared gradients, batch-norm EMA updates and
      // the loss/accuracy tallies all walk shards in index order.
      nn::ZeroGrads(params);
      double batch_loss = 0.0;
      for (int64_t s = 0; s < num_shards; ++s) {
        ShardWorkspace* ws = workspaces[static_cast<size_t>(s)].get();
        for (nn::Parameter* p : params) {
          auto it = ws->grads.find(p);
          if (it == ws->grads.end()) continue;
          p->grad.Add(it->second);
        }
        model->UpdateBatchNorm(ws->bn_mean, ws->bn_var);
        batch_loss += static_cast<double>(ws->rows) /
                      static_cast<double>(batch_rows) * ws->loss;
        correct += ws->correct;
        seen += ws->rows;
      }
      optimizer.Step(params);

      loss_sum += batch_loss;
      ++batches;
      OBS_COUNTER_ADD("trainer/batches", 1);
      OBS_COUNTER_ADD("trainer/cells", batch_rows);
      OBS_COUNTER_ADD("trainer/grad_shards", num_shards);
    }
    OBS_COUNTER_ADD("trainer/epochs", 1);
    OBS_HISTOGRAM_RECORD("trainer/epoch_seconds", epoch_timer.ElapsedSeconds());

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = loss_sum / std::max(1, batches);
    stats.train_accuracy =
        seen == 0 ? 0.0
                  : static_cast<double>(correct) / static_cast<double>(seen);
    if (!test_indices.empty()) {
      stats.test_accuracy = DatasetAccuracy(
          *model, *test, options_.eval_batch, test_indices, &pool);
      stats.has_test = true;
    }
    history.epochs.push_back(stats);

    // Checkpoint callback: keep the weights with the lowest train loss.
    if (stats.train_loss < best_loss) {
      best_loss = stats.train_loss;
      best_epoch = epoch;
      best = model->Snapshot();
    }
  }

  if (state != nullptr) {
    state->rms_cache = optimizer.ExportState(params);
    state->best = best;
    state->best_loss = best_loss;
    state->best_epoch = best_epoch;
  }

  if (options_.restore_best && best_epoch >= 0) model->Restore(best);
  if (options_.calibrate_batchnorm) {
    CalibrateBatchNormMemoized(model, train, {}, &pool);
  }
  history.best_epoch = best_epoch;
  history.best_train_loss = best_loss;
  history.train_seconds = timer.ElapsedSeconds();
  return history;
}

}  // namespace birnn::core
