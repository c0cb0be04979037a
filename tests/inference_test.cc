#include "core/inference.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

/// `n` cells of random characters (ids 1..vocab-1, the last id included)
/// over 3 attributes, 0-padded to `max_len`: cell n-1 is `longest`
/// characters long, the others 1 to `longest`.
data::EncodedDataset RandomCells(int n, int longest, int max_len, int vocab,
                                 Rng* rng) {
  data::EncodedDataset ds;
  ds.max_len = max_len;
  ds.vocab = vocab;
  ds.n_attrs = 3;
  ds.seqs.assign(static_cast<size_t>(n) * max_len, 0);
  const auto draw = [rng](int k) {  // uniform in 1..k
    return 1 + static_cast<int>(rng->UniformInt(static_cast<uint64_t>(k)));
  };
  for (int i = 0; i < n; ++i) {
    const int len = i == n - 1 ? longest : draw(longest);
    for (int t = 0; t < len; ++t) {
      ds.seqs[static_cast<size_t>(i) * max_len + t] =
          i == 0 && t == 0 ? vocab - 1 : draw(vocab - 1);
    }
    ds.attrs.push_back(static_cast<int32_t>(rng->UniformInt(3)));
    ds.length_norm.push_back(static_cast<float>(len) / max_len);
    ds.labels.push_back(0);
    ds.row_ids.push_back(i);
  }
  return ds;
}

::testing::AssertionResult SameBits(const std::vector<float>& got,
                                    const std::vector<float>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << got.size() << " results, want "
                                         << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<uint32_t>(got[i]) != std::bit_cast<uint32_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "cell " << i << ": " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The context path — the value RNN's level-0 projections gathered from the
/// per-character tables, the forward chain's pad tail of id 0 and the
/// backward chain warm-started from the pad prefix — gives the bits of the
/// scratch-free embedding + GEMM path over max_len steps: for every cell
/// family, one and two directions, batches of 1 to 64 cells, padded to one
/// step, a middle length or max_len. Through the model with a context and
/// through the engine (one batch of the sorted plan).
TEST(ContextPathTest, MatchesEmbeddingGemmPathBitwise) {
  constexpr int kMaxLen = 12;
  constexpr int kVocab = 23;
  for (const nn::CellType cell :
       {nn::CellType::kVanilla, nn::CellType::kGru, nn::CellType::kLstm}) {
    for (const bool bidirectional : {false, true}) {
      ModelConfig config;
      config.vocab = kVocab;
      config.max_len = kMaxLen;
      config.n_attrs = 3;
      config.char_emb_dim = 6;
      config.units = 9;
      config.stacks = 2;
      config.bidirectional = bidirectional;
      config.cell_type = cell;
      config.enriched = true;
      config.attr_emb_dim = 4;
      config.attr_units = 3;
      config.length_dense_dim = 8;
      config.hidden_dense_dim = 6;
      config.seed = 23;
      const ErrorDetectionModel model(config);
      BucketedInferenceContext ctx;
      model.PrepareBucketedInference(&ctx);
      InferenceScratch scratch;
      Rng rng(5);
      for (const int batch : {1, 3, 5, 64}) {
        for (const int len : {1, kMaxLen / 2, kMaxLen}) {
          const std::string tag = std::string(nn::CellTypeName(cell)) +
                                  (bidirectional ? " bi" : " uni") +
                                  " batch " + std::to_string(batch) +
                                  " length " + std::to_string(len);
          const data::EncodedDataset ds =
              RandomCells(batch, len, kMaxLen, kVocab, &rng);
          const std::vector<int64_t> cells = AllIndices(ds);
          std::vector<float> want;
          model.PredictProbs(MakeBatch(ds, cells), &want);

          BatchInput padded;
          MakeBatchInto(ds, cells, len, &padded);
          std::vector<float> got;
          model.PredictProbs(padded, &got, &scratch, &ctx);
          EXPECT_TRUE(SameBits(got, want)) << tag << ", model with context";

          InferenceOptions options;
          options.eval_batch = batch;
          options.memoize = false;
          InferenceEngine engine(model, options);
          std::vector<float> swept;
          engine.PredictProbs(ds, cells, &swept);
          EXPECT_EQ(engine.stats().batches, 1) << tag;
          EXPECT_TRUE(SameBits(swept, want)) << tag << ", engine";
        }
      }
    }
  }
}

/// The ids come from a loaded bundle's dictionary: an id outside the
/// vocabulary aborts in the gather instead of reading past the table.
TEST(ContextPathDeathTest, OutOfRangeIdAborts) {
  const data::EncodedDataset ds = DuplicateHeavyDataset();
  const ErrorDetectionModel model(SmallConfig(ds));
  BucketedInferenceContext ctx;
  model.PrepareBucketedInference(&ctx);
  for (const int id : {ds.vocab, -1}) {
    BatchInput batch;
    batch.batch = 1;
    batch.char_steps = {{1}, {id}};
    batch.attr_ids = {0};
    batch.length_norm = {0.5f};
    InferenceScratch scratch;
    std::vector<float> p;
    EXPECT_DEATH(model.PredictProbs(batch, &p, &scratch, &ctx),
                 "Check failed: \\(id\\)")
        << "id " << id;
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
