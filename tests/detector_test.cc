#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "core/detector.h"
#include "datagen/datasets.h"
#include "eval/metrics.h"
#include "serve/bundle.h"

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

// Every file of a bundle directory, by file name.
std::map<std::string, std::string> ReadBundleFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  return files;
}

TEST(ErrorDetectorTest, ThreadedEvalMatchesSequential) {
  // The default sweep (pooled, length-bucketed) against the reference
  // sweep (calling thread, dense): same report, byte-identical bundle.
  ASSERT_GT(DetectorOptions().eval_threads, 1);
  ASSERT_TRUE(DetectorOptions().bucketed_inference);
  datagen::GenOptions gen;
  gen.scale = 0.04;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  DetectorOptions options = FastOptions("etsb");
  options.trainer.epochs = 5;
  DetectorOptions reference = options;
  reference.eval_threads = 0;
  reference.bucketed_inference = false;

  TrainedDetector seq_trained;
  auto seq_report =
      ErrorDetector(reference).Run(pair.dirty, pair.clean, &seq_trained);
  ASSERT_TRUE(seq_report.ok());
  TrainedDetector def_trained;
  auto def_report =
      ErrorDetector(options).Run(pair.dirty, pair.clean, &def_trained);
  ASSERT_TRUE(def_report.ok());

  EXPECT_EQ(seq_report->predicted, def_report->predicted);
  EXPECT_EQ(seq_report->train_cells, def_report->train_cells);
  EXPECT_EQ(seq_report->test_cells, def_report->test_cells);
  EXPECT_EQ(def_report->test_cells, def_report->test_confusion.total());
  EXPECT_EQ(seq_report->test_confusion.tp, def_report->test_confusion.tp);
  EXPECT_EQ(seq_report->test_confusion.fp, def_report->test_confusion.fp);
  EXPECT_EQ(seq_report->test_confusion.fn, def_report->test_confusion.fn);
  EXPECT_EQ(seq_report->test_confusion.tn, def_report->test_confusion.tn);
  // Bucketing really ran: the default sweep skipped pad steps.
  EXPECT_LT(def_report->inference.rnn_steps, seq_report->inference.rnn_steps);

  const auto temp = std::filesystem::temp_directory_path();
  const std::string seq_dir = (temp / "detector_test_bundle_ref").string();
  const std::string def_dir = (temp / "detector_test_bundle_def").string();
  std::filesystem::remove_all(seq_dir);
  std::filesystem::remove_all(def_dir);
  ASSERT_TRUE(serve::SaveDetectorBundle(seq_trained, seq_dir).ok());
  ASSERT_TRUE(serve::SaveDetectorBundle(def_trained, def_dir).ok());
  const auto seq_files = ReadBundleFiles(seq_dir);
  EXPECT_FALSE(seq_files.empty());
  EXPECT_TRUE(seq_files == ReadBundleFiles(def_dir));
  std::filesystem::remove_all(seq_dir);
  std::filesystem::remove_all(def_dir);
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
