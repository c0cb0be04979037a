// Determinism and correctness of the data-parallel trainer: the shard
// partition is a function of batch size and grad_shard_cells only, so every
// value of train_threads must produce bit-identical weights and history.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/model.h"
#include "core/trainer.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "datagen/datasets.h"
#include "util/threadpool.h"

namespace birnn::core {
namespace {

struct FitResult {
  ModelSnapshot snapshot;
  TrainHistory history;
};

void MakeHospitalData(data::EncodedDataset* train, data::EncodedDataset* test,
                      ModelConfig* config) {
  datagen::GenOptions gen;
  gen.scale = 0.03;
  gen.seed = 11;
  const datagen::DatasetPair pair = datagen::MakeHospital(gen);
  auto frame = data::PrepareData(pair.dirty, pair.clean);
  ASSERT_TRUE(frame.ok());
  const data::CharIndex chars = data::CharIndex::Build(*frame);
  const data::EncodedDataset all = data::EncodeCells(*frame, chars);
  std::vector<int64_t> train_ids;
  for (int64_t i = 0; i < 6; ++i) train_ids.push_back(i);
  data::SplitByRowIds(all, train_ids, train, test);
  ASSERT_GT(train->num_cells(), 0);
  ASSERT_GT(test->num_cells(), 0);

  *config = ModelConfig();
  config->vocab = all.vocab;
  config->max_len = all.max_len;
  config->n_attrs = all.n_attrs;
  config->char_emb_dim = 6;
  config->units = 10;
  config->enriched = true;
  config->attr_emb_dim = 4;
  config->attr_units = 4;
  config->length_dense_dim = 6;
  config->hidden_dense_dim = 8;
  config->seed = 21;
}

// Small shards so even the tiny test batches split into several; the
// partition is identical for every thread count.
constexpr int kSmallShards = 16;
// Shards larger than any minibatch: every minibatch is one shard, which
// runs on the calling thread while the value RNN splits its recurrence and
// its parameter gradients across the pool's workers.
constexpr int kOneShard = 1 << 20;

FitResult FitWithThreads(const data::EncodedDataset& train,
                         const data::EncodedDataset& test,
                         const ModelConfig& config, int train_threads,
                         int grad_shard_cells = kSmallShards) {
  ErrorDetectionModel model(config);
  TrainerOptions options;
  options.epochs = 3;
  options.seed = 17;
  options.train_threads = train_threads;
  options.grad_shard_cells = grad_shard_cells;
  options.track_test_accuracy = true;
  options.eval_batch = 32;
  Trainer trainer(options);
  FitResult result;
  result.history = trainer.Fit(&model, train, &test);
  result.snapshot = model.Snapshot();
  return result;
}

bool BitIdentical(const nn::Tensor& a, const nn::Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void ExpectSameRun(const FitResult& a, const FitResult& b) {
  // Weights + batch-norm running statistics, bit for bit.
  ASSERT_EQ(a.snapshot.params.size(), b.snapshot.params.size());
  for (size_t i = 0; i < a.snapshot.params.size(); ++i) {
    EXPECT_TRUE(BitIdentical(a.snapshot.params[i], b.snapshot.params[i]))
        << "parameter " << i << " differs";
  }
  EXPECT_TRUE(BitIdentical(a.snapshot.bn_mean, b.snapshot.bn_mean));
  EXPECT_TRUE(BitIdentical(a.snapshot.bn_var, b.snapshot.bn_var));

  // History, excluding wall-clock time.
  EXPECT_EQ(a.history.best_epoch, b.history.best_epoch);
  EXPECT_EQ(a.history.best_train_loss, b.history.best_train_loss);
  ASSERT_EQ(a.history.epochs.size(), b.history.epochs.size());
  for (size_t e = 0; e < a.history.epochs.size(); ++e) {
    EXPECT_EQ(a.history.epochs[e].train_loss, b.history.epochs[e].train_loss);
    EXPECT_EQ(a.history.epochs[e].train_accuracy,
              b.history.epochs[e].train_accuracy);
    EXPECT_EQ(a.history.epochs[e].test_accuracy,
              b.history.epochs[e].test_accuracy);
    EXPECT_EQ(a.history.epochs[e].has_test, b.history.epochs[e].has_test);
  }
}

TEST(ParallelTrainerTest, TrainThreadsAreBitIdentical) {
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeHospitalData(&train, &test, &config);

  // Several shards per minibatch, claimed by the calling thread and the
  // workers in whatever order they get to them.
  const FitResult inline_run = FitWithThreads(train, test, config, 0);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    ExpectSameRun(inline_run, FitWithThreads(train, test, config, threads));
  }

  // One shard per minibatch: the value RNN runs on every lane of the pool,
  // one to four (capped at the hardware's threads).
  ASSERT_LE(static_cast<double>(train.num_cells()) * 0.25, kOneShard);
  const FitResult one_shard = FitWithThreads(train, test, config, 0, kOneShard);
  for (int threads : {1, 2, 3}) {
    SCOPED_TRACE(threads);
    ExpectSameRun(one_shard,
                  FitWithThreads(train, test, config, threads, kOneShard));
  }
}

TEST(ParallelTrainerTest, PoolIsCappedBelowHardwareThreads) {
  const int hw = HardwareConcurrency();
  EXPECT_EQ(TrainPoolThreads(0), 0);
  EXPECT_EQ(TrainPoolThreads(-3), 0);
  EXPECT_EQ(TrainPoolThreads(1), std::min(1, hw - 1));
  EXPECT_EQ(TrainPoolThreads(hw), hw - 1);
  EXPECT_EQ(TrainPoolThreads(1000), hw - 1);
}

TEST(ParallelTrainerTest, FitIsRepeatable) {
  // Same options twice -> same bits (guards against hidden global state).
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeHospitalData(&train, &test, &config);

  const FitResult first = FitWithThreads(train, test, config, 2);
  const FitResult second = FitWithThreads(train, test, config, 2);
  ExpectSameRun(first, second);
}

TEST(ParallelTrainerTest, TrainingMakesProgress) {
  // The sharded loss path still reports a decreasing weighted batch loss.
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeHospitalData(&train, &test, &config);

  ErrorDetectionModel model(config);
  TrainerOptions options;
  options.epochs = 8;
  options.seed = 17;
  options.train_threads = 2;
  options.grad_shard_cells = 16;
  Trainer trainer(options);
  const TrainHistory history = trainer.Fit(&model, train, &test);
  ASSERT_EQ(history.epochs.size(), 8u);
  EXPECT_LT(history.epochs.back().train_loss,
            history.epochs.front().train_loss);
}

TEST(ParallelTrainerTest, DatasetAccuracyPoolMatchesSerial) {
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeHospitalData(&train, &test, &config);
  ErrorDetectionModel model(config);

  const double serial = DatasetAccuracy(model, test, 7, {});
  ThreadPool pool(3);
  const double pooled = DatasetAccuracy(model, test, 7, {}, &pool);
  EXPECT_EQ(serial, pooled);

  ThreadPool inline_pool(0);
  const double inline_pooled = DatasetAccuracy(model, test, 7, {}, &inline_pool);
  EXPECT_EQ(serial, inline_pooled);
}

}  // namespace
}  // namespace birnn::core
