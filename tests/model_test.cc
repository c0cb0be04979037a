#include <gtest/gtest.h>

#include <cmath>

#include "core/model.h"
#include "nn/ops.h"
#include "util/rng.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "nn/optimizer.h"

namespace birnn::core {
namespace {

ModelConfig SmallConfig(bool enriched) {
  ModelConfig config;
  config.vocab = 12;
  config.max_len = 6;
  config.n_attrs = 3;
  config.char_emb_dim = 5;
  config.units = 7;
  config.stacks = 2;
  config.bidirectional = true;
  config.enriched = enriched;
  config.attr_emb_dim = 4;
  config.attr_units = 3;
  config.length_dense_dim = 8;
  config.hidden_dense_dim = 6;
  config.seed = 17;
  return config;
}

BatchInput SmallBatch(const ModelConfig& config, int batch, uint64_t seed) {
  Rng rng(seed);
  BatchInput b;
  b.batch = batch;
  b.char_steps.assign(static_cast<size_t>(config.max_len),
                      std::vector<int>(static_cast<size_t>(batch)));
  for (auto& step : b.char_steps) {
    for (auto& id : step) {
      id = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(config.vocab)));
    }
  }
  for (int i = 0; i < batch; ++i) {
    b.attr_ids.push_back(
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(config.n_attrs))));
    b.length_norm.push_back(rng.UniformFloat(0.0f, 1.0f));
    b.labels.push_back(static_cast<int>(rng.UniformInt(2)));
  }
  return b;
}

TEST(ModelConfigTest, Validation) {
  ModelConfig config = SmallConfig(false);
  EXPECT_TRUE(config.Validate().ok());
  config.vocab = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallConfig(true);
  config.n_attrs = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.use_attr_branch = false;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ModelTest, NamesFollowArchitecture) {
  ErrorDetectionModel tsb(SmallConfig(false));
  ErrorDetectionModel etsb(SmallConfig(true));
  EXPECT_EQ(tsb.name(), "TSB-RNN");
  EXPECT_EQ(etsb.name(), "ETSB-RNN");
}

TEST(ModelTest, EnrichedHasMoreWeights) {
  ErrorDetectionModel tsb(SmallConfig(false));
  ErrorDetectionModel etsb(SmallConfig(true));
  EXPECT_GT(etsb.NumWeights(), tsb.NumWeights());
  EXPECT_GT(etsb.Params().size(), tsb.Params().size());
}

TEST(ModelTest, ParameterCountMatchesTheBuiltModel) {
  for (const nn::CellType type :
       {nn::CellType::kVanilla, nn::CellType::kGru, nn::CellType::kLstm}) {
    for (const bool enriched : {false, true}) {
      for (const int stacks : {1, 3}) {
        for (const int branches : {0, 1, 2}) {
          ModelConfig config = SmallConfig(enriched);
          config.cell_type = type;
          config.stacks = stacks;
          config.bidirectional = stacks == 1;
          config.use_attr_branch = branches != 1;
          config.use_length_branch = branches != 2;
          ErrorDetectionModel model(config);
          EXPECT_EQ(ErrorDetectionModel::ParameterCount(config),
                    static_cast<double>(model.NumWeights()))
              << nn::CellTypeName(type) << " enriched " << enriched
              << " stacks " << stacks << " branches " << branches;
        }
      }
    }
  }
  ModelConfig zero_width = SmallConfig(true);
  zero_width.hidden_dense_dim = 0;
  EXPECT_FALSE(zero_width.Validate().ok());
}

class ModelForwardTest : public ::testing::TestWithParam<bool> {};

TEST_P(ModelForwardTest, LogitsShapeAndProbRange) {
  const ModelConfig config = SmallConfig(GetParam());
  ErrorDetectionModel model(config);
  const BatchInput batch = SmallBatch(config, 4, 3);

  nn::Graph g;
  nn::Graph::Var logits = model.Forward(&g, batch, /*training=*/true);
  EXPECT_EQ(g.value(logits).rows(), 4);
  EXPECT_EQ(g.value(logits).cols(), 2);

  std::vector<float> probs;
  model.PredictProbs(batch, &probs);
  ASSERT_EQ(probs.size(), 4u);
  for (float p : probs) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST_P(ModelForwardTest, InferenceGraphMatchesForwardOnly) {
  // The tape-based forward in eval mode (BatchNormInfer) and the forward-
  // only Predict path must agree — they are two implementations of the
  // same network.
  const ModelConfig config = SmallConfig(GetParam());
  ErrorDetectionModel model(config);
  const BatchInput batch = SmallBatch(config, 3, 5);

  nn::Graph g;
  nn::Graph::Var logits = model.Forward(&g, batch, /*training=*/false);
  nn::Tensor graph_probs;
  nn::SoftmaxRows(g.value(logits), &graph_probs);

  std::vector<float> direct_probs;
  model.PredictProbs(batch, &direct_probs);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(graph_probs.at(i, 1), direct_probs[static_cast<size_t>(i)],
                1e-4f);
  }
}

TEST_P(ModelForwardTest, TrainingStepReducesLossOnFixedBatch) {
  const ModelConfig config = SmallConfig(GetParam());
  ErrorDetectionModel model(config);
  BatchInput batch = SmallBatch(config, 8, 7);
  // Learnable labels: label = most frequent char id parity.
  for (int i = 0; i < batch.batch; ++i) {
    batch.labels[static_cast<size_t>(i)] =
        batch.char_steps[0][static_cast<size_t>(i)] % 2;
  }

  std::vector<nn::Parameter*> params = model.Params();
  nn::RmsProp opt(0.005f);
  float first_loss = 0;
  float last_loss = 0;
  for (int it = 0; it < 60; ++it) {
    nn::Graph g;
    nn::Graph::Var logits = model.Forward(&g, batch, true);
    nn::Graph::Var loss = g.SoftmaxCrossEntropy(logits, batch.labels);
    nn::ZeroGrads(params);
    g.Backward(loss);
    opt.Step(params);
    if (it == 0) first_loss = g.value(loss).scalar();
    last_loss = g.value(loss).scalar();
  }
  EXPECT_LT(last_loss, first_loss * 0.7f);
}

INSTANTIATE_TEST_SUITE_P(Architectures, ModelForwardTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ETSB" : "TSB";
                         });

TEST(ModelTest, SnapshotRestoreRoundtrip) {
  const ModelConfig config = SmallConfig(true);
  ErrorDetectionModel model(config);
  const BatchInput batch = SmallBatch(config, 4, 9);

  const ModelSnapshot snapshot = model.Snapshot();
  std::vector<float> before;
  model.PredictProbs(batch, &before);

  // Perturb weights by training on random labels.
  std::vector<nn::Parameter*> params = model.Params();
  nn::RmsProp opt(0.05f);
  for (int it = 0; it < 5; ++it) {
    nn::Graph g;
    nn::Graph::Var logits = model.Forward(&g, batch, true);
    nn::Graph::Var loss = g.SoftmaxCrossEntropy(logits, batch.labels);
    nn::ZeroGrads(params);
    g.Backward(loss);
    opt.Step(params);
  }
  std::vector<float> perturbed;
  model.PredictProbs(batch, &perturbed);
  bool changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    if (std::fabs(before[i] - perturbed[i]) > 1e-6f) changed = true;
  }
  EXPECT_TRUE(changed);

  model.Restore(snapshot);
  std::vector<float> restored;
  model.PredictProbs(batch, &restored);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i], restored[i], 1e-6f);
  }
}

TEST(ModelTest, CalibratedInferenceMatchesFullBatchTrainMode) {
  // CalibrateBatchNorm sets the running statistics to the exact dataset
  // statistics, so inference on the whole dataset must agree with a
  // training-mode forward over the whole dataset as one batch (where batch
  // stats == dataset stats).
  data::Table dirty(std::vector<std::string>{"a", "b"});
  data::Table clean(std::vector<std::string>{"a", "b"});
  Rng rng(31);
  for (int i = 0; i < 24; ++i) {
    const std::string v1 = "v" + std::to_string(i % 9);
    const std::string v2 = std::to_string(100 + 7 * i);
    ASSERT_TRUE(dirty.AppendRow({rng.Bernoulli(0.3) ? v1 + "x" : v1, v2}).ok());
    ASSERT_TRUE(clean.AppendRow({v1, v2}).ok());
  }
  auto frame = data::PrepareData(dirty, clean);
  ASSERT_TRUE(frame.ok());
  const data::CharIndex chars = data::CharIndex::Build(*frame);
  const data::EncodedDataset ds = data::EncodeCells(*frame, chars);

  ModelConfig config = SmallConfig(true);
  config.vocab = ds.vocab;
  config.max_len = ds.max_len;
  config.n_attrs = ds.n_attrs;
  ErrorDetectionModel model(config);

  std::vector<int64_t> all_indices;
  for (int64_t i = 0; i < ds.num_cells(); ++i) all_indices.push_back(i);
  const BatchInput full_batch = MakeBatch(ds, all_indices);

  // Training-mode forward over the full dataset (batch statistics).
  nn::Graph g;
  nn::Graph::Var logits = model.Forward(&g, full_batch, /*training=*/true);
  nn::Tensor train_probs;
  nn::SoftmaxRows(g.value(logits), &train_probs);

  model.CalibrateBatchNorm(ds);
  std::vector<float> calibrated;
  model.PredictProbs(full_batch, &calibrated);
  for (int i = 0; i < full_batch.batch; ++i) {
    EXPECT_NEAR(train_probs.at(i, 1), calibrated[static_cast<size_t>(i)],
                2e-3f)
        << "cell " << i;
  }
}

TEST(ModelTest, CalibrationIsIdempotent) {
  const ModelConfig config = SmallConfig(false);
  ErrorDetectionModel model(config);
  const BatchInput batch = SmallBatch(config, 6, 17);

  // Build a tiny dataset from the batch to calibrate on.
  data::EncodedDataset ds;
  ds.max_len = config.max_len;
  ds.vocab = config.vocab;
  ds.n_attrs = config.n_attrs;
  for (int i = 0; i < batch.batch; ++i) {
    for (int t = 0; t < config.max_len; ++t) {
      ds.seqs.push_back(batch.char_steps[static_cast<size_t>(t)][static_cast<size_t>(i)]);
    }
    ds.attrs.push_back(batch.attr_ids[static_cast<size_t>(i)]);
    ds.length_norm.push_back(batch.length_norm[static_cast<size_t>(i)]);
    ds.labels.push_back(batch.labels[static_cast<size_t>(i)]);
    ds.row_ids.push_back(i);
  }

  model.CalibrateBatchNorm(ds);
  std::vector<float> first;
  model.PredictProbs(batch, &first);
  model.CalibrateBatchNorm(ds);
  std::vector<float> second;
  model.PredictProbs(batch, &second);
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_FLOAT_EQ(first[i], second[i]);
  }
}

TEST(ModelTest, AblationBranchesChangeConcatWidth) {
  ModelConfig config = SmallConfig(true);
  ErrorDetectionModel full(config);
  config.use_attr_branch = false;
  ErrorDetectionModel no_attr(config);
  config.use_length_branch = false;
  ErrorDetectionModel value_only(config);
  EXPECT_GT(full.NumWeights(), no_attr.NumWeights());
  EXPECT_GT(no_attr.NumWeights(), value_only.NumWeights());
}

TEST(MakeBatchTest, ColumnMajorLayout) {
  data::Table dirty(std::vector<std::string>{"a", "b"});
  ASSERT_TRUE(dirty.AppendRow({"xy", "z"}).ok());
  ASSERT_TRUE(dirty.AppendRow({"q", ""}).ok());
  data::Table clean = dirty;
  auto frame = data::PrepareData(dirty, clean);
  ASSERT_TRUE(frame.ok());
  data::CharIndex chars = data::CharIndex::Build(*frame);
  data::EncodedDataset ds = data::EncodeCells(*frame, chars);

  const BatchInput batch = MakeBatch(ds, {0, 1, 2});
  EXPECT_EQ(batch.batch, 3);
  ASSERT_EQ(batch.char_steps.size(), static_cast<size_t>(ds.max_len));
  // Cell 0 is "xy": step 0 holds 'x' id, step 1 holds 'y' id.
  EXPECT_EQ(batch.char_steps[0][0], chars.IndexOf('x'));
  EXPECT_EQ(batch.char_steps[1][0], chars.IndexOf('y'));
  // Cell 1 is "z": step 1 is padding.
  EXPECT_EQ(batch.char_steps[0][1], chars.IndexOf('z'));
  EXPECT_EQ(batch.char_steps[1][1], 0);
  EXPECT_EQ(batch.attr_ids[1], 1);
  EXPECT_EQ(batch.attr_ids[2], 0);
}

}  // namespace
}  // namespace birnn::core
