#include <gtest/gtest.h>

#include "core/model.h"
#include "core/trainer.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "datagen/datasets.h"

namespace birnn::core {
namespace {

/// Tiny learnable dataset: values ending in 'x' are errors.
void MakeToyData(int n_rows, data::EncodedDataset* train,
                 data::EncodedDataset* test, ModelConfig* config) {
  data::Table dirty(std::vector<std::string>{"a", "b"});
  data::Table clean(std::vector<std::string>{"a", "b"});
  Rng rng(123);
  for (int i = 0; i < n_rows; ++i) {
    const bool bad_a = rng.Bernoulli(0.3);
    const bool bad_b = rng.Bernoulli(0.3);
    const std::string va = "val" + std::to_string(i % 7);
    const std::string vb = std::to_string(100 + i % 13);
    EXPECT_TRUE(dirty.AppendRow({bad_a ? va + "x" : va,
                                 bad_b ? vb + "x" : vb}).ok());
    EXPECT_TRUE(clean.AppendRow({va, vb}).ok());
  }
  auto frame = data::PrepareData(dirty, clean);
  ASSERT_TRUE(frame.ok());
  data::CharIndex chars = data::CharIndex::Build(*frame);
  data::EncodedDataset all = data::EncodeCells(*frame, chars);
  std::vector<int64_t> train_ids;
  for (int64_t i = 0; i < n_rows / 3; ++i) train_ids.push_back(i);
  data::SplitByRowIds(all, train_ids, train, test);

  *config = ModelConfig();
  config->vocab = all.vocab;
  config->max_len = all.max_len;
  config->n_attrs = all.n_attrs;
  config->char_emb_dim = 8;
  config->units = 12;
  config->enriched = true;
  config->attr_emb_dim = 4;
  config->attr_units = 4;
  config->length_dense_dim = 8;
  config->hidden_dense_dim = 8;
  config->seed = 3;
}

TEST(TrainerTest, LossDecreasesAndBestEpochTracked) {
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeToyData(60, &train, &test, &config);
  ErrorDetectionModel model(config);

  TrainerOptions options;
  options.epochs = 25;
  options.seed = 5;
  Trainer trainer(options);
  const TrainHistory history = trainer.Fit(&model, train, &test);

  ASSERT_EQ(history.epochs.size(), 25u);
  EXPECT_GE(history.best_epoch, 0);
  EXPECT_LT(history.best_epoch, 25);
  // Best train loss is the minimum over the recorded epochs.
  double min_loss = history.epochs[0].train_loss;
  for (const auto& e : history.epochs) {
    min_loss = std::min(min_loss, e.train_loss);
  }
  EXPECT_DOUBLE_EQ(history.best_train_loss, min_loss);
  // Training made progress.
  EXPECT_LT(history.epochs.back().train_loss,
            history.epochs.front().train_loss);
  EXPECT_GT(history.train_seconds, 0.0);
}

TEST(TrainerTest, RestoresBestWeights) {
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeToyData(45, &train, &test, &config);
  ErrorDetectionModel model(config);

  TrainerOptions options;
  options.epochs = 15;
  options.seed = 6;
  Trainer trainer(options);
  const TrainHistory history = trainer.Fit(&model, train, &test);

  // Recompute the train loss with the restored weights in inference mode:
  // it should be near the recorded best loss, definitely not the last
  // epoch's if that was worse.
  const double acc = DatasetAccuracy(model, train, 64, {});
  EXPECT_GT(acc, 0.5);
  EXPECT_GE(history.best_epoch, 0);
}

TEST(TrainerTest, TracksTestAccuracyWhenEnabled) {
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeToyData(45, &train, &test, &config);
  ErrorDetectionModel model(config);

  TrainerOptions options;
  options.epochs = 5;
  options.track_test_accuracy = true;
  options.test_eval_max_cells = 40;
  Trainer trainer(options);
  const TrainHistory history = trainer.Fit(&model, train, &test);
  for (const auto& e : history.epochs) {
    EXPECT_TRUE(e.has_test);
    EXPECT_GE(e.test_accuracy, 0.0);
    EXPECT_LE(e.test_accuracy, 1.0);
  }
}

TEST(TrainerTest, NoTestTrackingByDefault) {
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeToyData(30, &train, &test, &config);
  ErrorDetectionModel model(config);
  TrainerOptions options;
  options.epochs = 3;
  Trainer trainer(options);
  const TrainHistory history = trainer.Fit(&model, train, &test);
  for (const auto& e : history.epochs) EXPECT_FALSE(e.has_test);
}

TEST(TrainerTest, LearnsTheToyRule) {
  // End-to-end: the 'ends with x' rule must be learnable to high accuracy.
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeToyData(90, &train, &test, &config);
  ErrorDetectionModel model(config);
  TrainerOptions options;
  options.epochs = 40;
  options.seed = 8;
  Trainer trainer(options);
  trainer.Fit(&model, train, &test);
  const double acc = DatasetAccuracy(model, test, 128, {});
  EXPECT_GT(acc, 0.9) << "test accuracy " << acc;
}

// Every weight and batch-norm running statistic, flattened for bit-exact
// comparison.
std::vector<float> FlattenSnapshot(const ModelSnapshot& s) {
  std::vector<float> out;
  for (const nn::Tensor& t : s.params) {
    out.insert(out.end(), t.data(), t.data() + t.size());
  }
  out.insert(out.end(), s.bn_mean.data(), s.bn_mean.data() + s.bn_mean.size());
  out.insert(out.end(), s.bn_var.data(), s.bn_var.data() + s.bn_var.size());
  return out;
}

TEST(TrainerTest, TestSplitIsUnreadWithoutAccuracyTracking) {
  // The offline detector hands Fit no test split unless it tracks test
  // accuracy; without tracking the split must not change a weight bit.
  data::EncodedDataset train;
  data::EncodedDataset test;
  ModelConfig config;
  MakeToyData(45, &train, &test, &config);
  ASSERT_GT(test.num_cells(), 0);

  TrainerOptions options;
  options.epochs = 6;
  options.seed = 21;
  // Below the test split's size: subsampling it would draw from the
  // shuffle's generator and move every later minibatch.
  options.test_eval_max_cells = 10;
  ASSERT_FALSE(options.track_test_accuracy);
  ErrorDetectionModel with_test(config);
  Trainer(options).Fit(&with_test, train, &test);
  ErrorDetectionModel without_test(config);
  Trainer(options).Fit(&without_test, train, nullptr);

  EXPECT_EQ(FlattenSnapshot(with_test.Snapshot()),
            FlattenSnapshot(without_test.Snapshot()));
}

}  // namespace
}  // namespace birnn::core
