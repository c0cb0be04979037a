#include "core/inference.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/model.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "nn/graph.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace birnn::core {
namespace {

/// A small table with heavy value repetition (11 distinct values over 60
/// rows) and varying cell lengths — the workload the memoizing, length-sorting
/// engine is built for.
data::EncodedDataset DuplicateHeavyDataset() {
  data::Table dirty(std::vector<std::string>{"a", "b", "c"});
  data::Table clean(std::vector<std::string>{"a", "b", "c"});
  Rng rng(41);
  for (int i = 0; i < 60; ++i) {
    const std::string v = "value" + std::to_string(i % 11);
    const std::string w(static_cast<size_t>(1 + i % 7), 'x');
    EXPECT_TRUE(dirty
                    .AppendRow({rng.Bernoulli(0.4) ? v + "!" : v, w,
                                "fixed-content"})
                    .ok());
    EXPECT_TRUE(clean.AppendRow({v, w, "fixed-content"}).ok());
  }
  auto frame = data::PrepareData(dirty, clean);
  EXPECT_TRUE(frame.ok());
  const data::CharIndex chars = data::CharIndex::Build(*frame);
  return data::EncodeCells(*frame, chars);
}

ModelConfig SmallConfig(const data::EncodedDataset& ds) {
  ModelConfig config;
  config.vocab = ds.vocab;
  config.max_len = ds.max_len;
  config.n_attrs = ds.n_attrs;
  config.char_emb_dim = 6;
  config.units = 9;  // odd on purpose: exercises non-multiple-of-16 shapes
  config.stacks = 2;
  config.bidirectional = true;
  config.enriched = true;
  config.attr_emb_dim = 4;
  config.attr_units = 3;
  config.length_dense_dim = 8;
  config.hidden_dense_dim = 6;
  config.seed = 17;
  return config;
}

std::vector<int64_t> AllIndices(const data::EncodedDataset& ds) {
  std::vector<int64_t> indices(static_cast<size_t>(ds.num_cells()));
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    indices[static_cast<size_t>(i)] = i;
  }
  return indices;
}

TEST(InferenceScratchTest, PredictProbsScratchMatchesScratchFree) {
  const data::EncodedDataset ds = DuplicateHeavyDataset();
  ErrorDetectionModel model(SmallConfig(ds));

  const BatchInput batch = MakeBatch(ds, AllIndices(ds));
  std::vector<float> plain;
  model.PredictProbs(batch, &plain);

  InferenceScratch scratch;
  std::vector<float> scratched;
  model.PredictProbs(batch, &scratched, &scratch);
  ASSERT_EQ(plain.size(), scratched.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], scratched[i]) << "cell " << i;  // bit-identical
  }

  // Reusing the same scratch for a second, different batch must not leak
  // state from the first.
  std::vector<int64_t> subset;
  for (int64_t i = 3; i < ds.num_cells(); i += 7) subset.push_back(i);
  const BatchInput batch2 = MakeBatch(ds, subset);
  std::vector<float> plain2;
  model.PredictProbs(batch2, &plain2);
  std::vector<float> scratched2;
  model.PredictProbs(batch2, &scratched2, &scratch);
  ASSERT_EQ(plain2.size(), scratched2.size());
  for (size_t i = 0; i < plain2.size(); ++i) {
    EXPECT_EQ(plain2[i], scratched2[i]) << "cell " << i;
  }
}

TEST(InferenceParityTest, ForwardOnlyMatchesTrainingGraphSoftmax) {
  // The forward-only path (running batch-norm stats) must agree with the
  // autodiff graph run in eval mode + explicit softmax.
  const data::EncodedDataset ds = DuplicateHeavyDataset();
  ErrorDetectionModel model(SmallConfig(ds));
  model.CalibrateBatchNorm(ds);

  const BatchInput batch = MakeBatch(ds, AllIndices(ds));
  nn::Graph g;
  const nn::Graph::Var logits = model.Forward(&g, batch, /*training=*/false);
  nn::Tensor graph_probs;
  nn::SoftmaxRows(g.value(logits), &graph_probs);

  std::vector<float> fast;
  model.PredictProbs(batch, &fast);
  ASSERT_EQ(static_cast<size_t>(graph_probs.rows()), fast.size());
  for (int i = 0; i < graph_probs.rows(); ++i) {
    EXPECT_NEAR(graph_probs.at(i, 1), fast[static_cast<size_t>(i)], 1e-5f)
        << "cell " << i;
  }
}

TEST(InferenceEngineTest, SmallRequestIsOneExactForwardPass) {
  // A stream or serve micro-batch of up to eval_batch unique cells of mixed
  // lengths is one forward pass padded to its longest cell, and each cell's
  // bits equal the dense sweep's — from a lone length-1 cell (max_len - 1
  // warm-started pad steps) to a batch whose longest cell fills max_len.
  const data::EncodedDataset ds = DuplicateHeavyDataset();
  ErrorDetectionModel model(SmallConfig(ds));
  model.CalibrateBatchNorm(ds);

  // Twelve distinct contents in table order, the shortest and the longest
  // first: lengths then interleave (1, max_len, 6, 2, 7, ...).
  std::vector<int64_t> picked;
  for (const int want : {1, ds.max_len}) {
    for (int64_t c = 0; c < ds.num_cells(); ++c) {
      if (ds.effective_len(c) == want) {
        picked.push_back(c);
        break;
      }
    }
  }
  ASSERT_EQ(picked.size(), 2u) << "no cell of length 1 or max_len";
  for (int64_t c = 0; c < ds.num_cells() && picked.size() < 12; ++c) {
    bool seen = false;
    for (const int64_t p : picked) seen = seen || ds.CellContentEquals(p, c);
    if (!seen) picked.push_back(c);
  }
  ASSERT_EQ(picked.size(), 12u);

  InferenceOptions dense;
  dense.bucketed = false;
  for (size_t n = 1; n <= picked.size(); ++n) {
    const std::vector<int64_t> cells(picked.begin(),
                                     picked.begin() + static_cast<long>(n));
    InferenceEngine sorted(model);
    InferenceEngine reference(model, dense);
    std::vector<float> got;
    std::vector<float> expected;
    sorted.PredictProbs(ds, cells, &got);
    reference.PredictProbs(ds, cells, &expected);
    EXPECT_EQ(sorted.stats().batches, 1) << n << " cells";
    ASSERT_EQ(got.size(), n);
    for (size_t k = 0; k < n; ++k) {
      EXPECT_EQ(got[k], expected[k]) << n << " cells, cell " << cells[k];
    }
  }
}

TEST(InferenceEngineTest, IndexSubsetAndStats) {
  const data::EncodedDataset ds = DuplicateHeavyDataset();
  ErrorDetectionModel model(SmallConfig(ds));
  model.CalibrateBatchNorm(ds);

  InferenceEngine full(model);
  std::vector<float> p_all;
  full.PredictProbs(ds, {}, &p_all);
  EXPECT_EQ(full.stats().cells, ds.num_cells());
  EXPECT_EQ(full.stats().rnn_steps_dense,
            ds.num_cells() * ds.max_len * 2);  // bidirectional
  EXPECT_GT(full.stats().batches, 0);

  // Cells 0/1/2 are the three attributes of row 0 — distinct content by
  // attribute id even when the strings repeat.
  std::vector<int64_t> subset = {0, 1, 2, 1, 0};
  InferenceEngine part(model);
  std::vector<float> p_sub;
  part.PredictProbs(ds, subset, &p_sub);
  ASSERT_EQ(p_sub.size(), subset.size());
  for (size_t k = 0; k < subset.size(); ++k) {
    EXPECT_EQ(p_sub[k], p_all[static_cast<size_t>(subset[k])]);
  }
  EXPECT_EQ(part.stats().cells, 5);
  EXPECT_EQ(part.stats().unique_cells, 3);
}

TEST(InferenceEngineTest, CalibrateMemoizedMatchesReference) {
  const data::EncodedDataset ds = DuplicateHeavyDataset();
  const ModelConfig config = SmallConfig(ds);

  ErrorDetectionModel reference(config);
  reference.CalibrateBatchNorm(ds);
  ErrorDetectionModel memoized(config);  // same seed -> same weights
  CalibrateBatchNormMemoized(&memoized, ds);

  const BatchInput batch = MakeBatch(ds, AllIndices(ds));
  std::vector<float> p_ref;
  reference.PredictProbs(batch, &p_ref);
  std::vector<float> p_memo;
  memoized.PredictProbs(batch, &p_memo);
  ASSERT_EQ(p_ref.size(), p_memo.size());
  for (size_t i = 0; i < p_ref.size(); ++i) {
    EXPECT_NEAR(p_ref[i], p_memo[i], 1e-5f) << "cell " << i;
  }
}

/// A cell's probability is a pure function of its content: bit-identical
/// to its solo (batch-of-1) value at every batch size 1..64 and every
/// position in the batch — through the raw model and through the engine
/// (no memoization, so every cell really runs in a batch of that size) —
/// for every cell family.
TEST(BatchInvarianceTest, ProbsMatchSoloAtEveryBatchSize) {
  const data::EncodedDataset ds = DuplicateHeavyDataset();
  const int64_t n_cells = ds.num_cells();
  for (const nn::CellType cell :
       {nn::CellType::kVanilla, nn::CellType::kGru, nn::CellType::kLstm}) {
    ModelConfig config = SmallConfig(ds);
    config.cell_type = cell;
    ErrorDetectionModel model(config);
    model.CalibrateBatchNorm(ds);
    const std::string tag = nn::CellTypeName(cell);
    InferenceScratch scratch;
    std::vector<float> solo(static_cast<size_t>(n_cells));
    for (int64_t c = 0; c < n_cells; ++c) {
      std::vector<float> p;
      model.PredictProbs(MakeBatch(ds, {c}), &p, &scratch);
      solo[static_cast<size_t>(c)] = p[0];
    }

    for (int b = 1; b <= 64; ++b) {
      // Raw model: a window of b consecutive cells starting at a
      // size-dependent offset, so each cell lands at varied positions.
      std::vector<int64_t> window(static_cast<size_t>(b));
      for (int k = 0; k < b; ++k) {
        window[static_cast<size_t>(k)] = (13 * b + k) % n_cells;
      }
      std::vector<float> raw;
      model.PredictProbs(MakeBatch(ds, window), &raw, &scratch);
      for (int k = 0; k < b; ++k) {
        const int64_t c = window[static_cast<size_t>(k)];
        ASSERT_EQ(raw[static_cast<size_t>(k)], solo[static_cast<size_t>(c)])
            << tag << " raw batch " << b << " position " << k;
      }

      // Engine: every cell of the table, in batches of b plus a tail
      // batch of n_cells % b.
      InferenceOptions options;
      options.eval_batch = b;
      options.memoize = false;
      InferenceEngine engine(model, options);
      std::vector<float> swept;
      engine.PredictProbs(ds, {}, &swept);
      for (int64_t c = 0; c < n_cells; ++c) {
        ASSERT_EQ(swept[static_cast<size_t>(c)], solo[static_cast<size_t>(c)])
            << tag << " engine batch " << b << " cell " << c;
      }
    }
  }
}

}  // namespace
}  // namespace birnn::core
