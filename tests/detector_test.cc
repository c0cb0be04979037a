#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/detector.h"
#include "datagen/datasets.h"
#include "eval/metrics.h"

namespace birnn::core {
namespace {

DetectorOptions FastOptions(const std::string& model) {
  DetectorOptions options;
  options.model = model;
  options.sampler = "diverset";
  options.n_label_tuples = 15;
  options.units = 16;
  options.char_emb_dim = 8;
  options.trainer.epochs = 30;
  options.seed = 11;
  return options;
}

TEST(ErrorDetectorTest, EndToEndOnHospitalStyleData) {
  // Hospital is the paper's easiest dataset (errors marked with 'x').
  datagen::GenOptions gen;
  gen.scale = 0.12;
  gen.seed = 3;
  const datagen::DatasetPair pair = datagen::MakeHospital(gen);

  ErrorDetector detector(FastOptions("etsb"));
  auto report = detector.Run(pair.dirty, pair.clean);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->labeled_tuples.size(), 15u);
  EXPECT_EQ(report->predicted.size(),
            static_cast<size_t>(pair.dirty.num_rows()) *
                pair.dirty.num_columns());
  EXPECT_EQ(report->train_cells, 15 * pair.dirty.num_columns());
  EXPECT_EQ(report->test_cells,
            static_cast<int64_t>(pair.dirty.num_rows() - 15) *
                pair.dirty.num_columns());
  EXPECT_GT(report->test_metrics.f1, 0.5)
      << "F1=" << report->test_metrics.f1;
  EXPECT_FALSE(report->history.epochs.empty());
}

TEST(ErrorDetectorTest, TsbModelAlsoWorks) {
  datagen::GenOptions gen;
  gen.scale = 0.08;
  const datagen::DatasetPair pair = datagen::MakeHospital(gen);
  ErrorDetector detector(FastOptions("tsb"));
  auto report = detector.Run(pair.dirty, pair.clean);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->test_metrics.f1, 0.4);
}

TEST(ErrorDetectorTest, InvalidModelNameFails) {
  datagen::GenOptions gen;
  gen.scale = 0.03;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  DetectorOptions options = FastOptions("gru");
  ErrorDetector detector(options);
  auto report = detector.Run(pair.dirty, pair.clean);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorDetectorTest, InvalidSamplerNameFails) {
  datagen::GenOptions gen;
  gen.scale = 0.03;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  DetectorOptions options = FastOptions("etsb");
  options.sampler = "bogus";
  ErrorDetector detector(options);
  EXPECT_FALSE(detector.Run(pair.dirty, pair.clean).ok());
}

TEST(ErrorDetectorTest, OracleModeNeedsNoCleanTable) {
  // Deployment mode: oracle flags values containing 'x'.
  datagen::GenOptions gen;
  gen.scale = 0.06;
  const datagen::DatasetPair pair = datagen::MakeHospital(gen);
  DetectorOptions options = FastOptions("etsb");
  options.trainer.epochs = 10;
  ErrorDetector detector(options);

  LabelOracle oracle = [&pair](int64_t row, int attr) {
    return pair.dirty.cell(static_cast<int>(row), attr) !=
                   pair.clean.cell(static_cast<int>(row), attr)
               ? 1
               : 0;
  };
  auto report = detector.RunWithOracle(pair.dirty, oracle);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->truth.empty());
  EXPECT_EQ(report->predicted.size(),
            static_cast<size_t>(pair.dirty.num_rows()) *
                pair.dirty.num_columns());
}

TEST(ErrorDetectorTest, DeterministicForSameSeed) {
  datagen::GenOptions gen;
  gen.scale = 0.05;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  DetectorOptions options = FastOptions("etsb");
  options.trainer.epochs = 5;
  ErrorDetector a(options);
  ErrorDetector b(options);
  auto ra = a.Run(pair.dirty, pair.clean);
  auto rb = b.Run(pair.dirty, pair.clean);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->predicted, rb->predicted);
  EXPECT_EQ(ra->labeled_tuples, rb->labeled_tuples);
}

TEST(BuildModelConfigTest, MapsOptions) {
  DetectorOptions options;
  options.model = "etsb";
  options.units = 32;
  options.stacks = 1;
  options.bidirectional = false;
  const ModelConfig config = BuildModelConfig(options, 50, 20, 7);
  EXPECT_EQ(config.vocab, 50);
  EXPECT_EQ(config.max_len, 20);
  EXPECT_EQ(config.n_attrs, 7);
  EXPECT_EQ(config.units, 32);
  EXPECT_EQ(config.stacks, 1);
  EXPECT_FALSE(config.bidirectional);
  EXPECT_TRUE(config.enriched);
  EXPECT_FALSE(BuildModelConfig(DetectorOptions{.model = "tsb"}, 5, 5, 5)
                   .enriched);
}

}  // namespace
}  // namespace birnn::core
