// End-to-end integration tests: the full pipeline from CSV bytes through
// data preparation, sampling, training, detection, and reporting —
// crossing every module boundary the way the example binaries do.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "core/detector.h"
#include "core/inference.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/csv.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "datagen/datasets.h"
#include "eval/scheduler.h"
#include "nn/serialize.h"
#include "raha/detector.h"
#include "rotom/baseline.h"
#include "sampling/sampler.h"

namespace birnn {
namespace {

TEST(IntegrationTest, CsvRoundtripThroughDetector) {
  // Generate -> write CSV -> read CSV -> detect. Exercises the same path a
  // user takes with their own files.
  datagen::GenOptions gen;
  gen.scale = 0.06;
  gen.seed = 77;
  const datagen::DatasetPair pair = datagen::MakeHospital(gen);

  std::ostringstream dirty_csv;
  std::ostringstream clean_csv;
  ASSERT_TRUE(data::WriteCsv(pair.dirty, dirty_csv).ok());
  ASSERT_TRUE(data::WriteCsv(pair.clean, clean_csv).ok());

  std::istringstream dirty_in(dirty_csv.str());
  std::istringstream clean_in(clean_csv.str());
  auto dirty = data::ReadCsv(dirty_in);
  auto clean = data::ReadCsv(clean_in);
  ASSERT_TRUE(dirty.ok());
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(dirty->Equals(pair.dirty));
  EXPECT_TRUE(clean->Equals(pair.clean));

  core::DetectorOptions options;
  options.n_label_tuples = 12;
  options.units = 16;
  options.trainer.epochs = 20;
  core::ErrorDetector detector(options);
  auto report = detector.Run(*dirty, *clean);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->test_metrics.f1, 0.3);
}

TEST(IntegrationTest, EverySamplerDrivesTheFullPipeline) {
  datagen::GenOptions gen;
  gen.scale = 0.05;
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  for (const char* sampler : {"randomset", "rahaset", "diverset"}) {
    core::DetectorOptions options;
    options.sampler = sampler;
    options.n_label_tuples = 10;
    options.units = 12;
    options.trainer.epochs = 10;
    core::ErrorDetector detector(options);
    auto report = detector.Run(pair.dirty, pair.clean);
    ASSERT_TRUE(report.ok()) << sampler;
    EXPECT_EQ(report->labeled_tuples.size(), 10u) << sampler;
    EXPECT_EQ(report->predicted.size(),
              static_cast<size_t>(pair.dirty.num_rows()) *
                  pair.dirty.num_columns());
  }
}

TEST(IntegrationTest, ModelCheckpointToDiskAndBack) {
  // Train a model, save its parameters, load into a freshly constructed
  // model, and verify identical predictions (modulo batch-norm running
  // stats, which we transfer explicitly).
  datagen::GenOptions gen;
  gen.scale = 0.04;
  const datagen::DatasetPair pair = datagen::MakeHospital(gen);
  auto frame = data::PrepareData(pair.dirty, pair.clean);
  ASSERT_TRUE(frame.ok());
  const data::CharIndex chars = data::CharIndex::Build(*frame);
  data::EncodedDataset all = data::EncodeCells(*frame, chars);

  core::ModelConfig config;
  config.vocab = all.vocab;
  config.max_len = all.max_len;
  config.n_attrs = all.n_attrs;
  config.units = 12;
  config.char_emb_dim = 8;
  config.enriched = true;
  config.seed = 5;

  core::ErrorDetectionModel model(config);
  core::TrainerOptions trainer_options;
  trainer_options.epochs = 8;
  core::Trainer trainer(trainer_options);
  trainer.Fit(&model, all, nullptr);

  const std::string path =
      (std::filesystem::temp_directory_path() / "birnn_integration_ckpt.bin")
          .string();
  ASSERT_TRUE(nn::SaveParameters(model.Params(), path).ok());

  core::ErrorDetectionModel reloaded(config);
  ASSERT_TRUE(nn::LoadParameters(path, reloaded.Params()).ok());
  // Batch-norm running stats ride along via the snapshot API.
  const core::ModelSnapshot snapshot = model.Snapshot();
  reloaded.Restore(snapshot);

  std::vector<uint8_t> original;
  std::vector<uint8_t> restored;
  core::InferenceEngine(model).Predict(all, &original);
  core::InferenceEngine(reloaded).Predict(all, &restored);
  EXPECT_EQ(original, restored);
  std::remove(path.c_str());
}

TEST(IntegrationTest, RunnerAggregatesAcrossRepetitions) {
  datagen::GenOptions gen;
  gen.scale = 0.04;
  const datagen::DatasetPair pair = datagen::MakeHospital(gen);
  eval::RunnerOptions options;
  options.repetitions = 2;
  options.detector.n_label_tuples = 10;
  options.detector.units = 12;
  options.detector.trainer.epochs = 8;
  options.detector.trainer.track_test_accuracy = true;
  options.detector.trainer.test_eval_max_cells = 200;

  eval::Scheduler scheduler;
  const eval::Scheduler::ExperimentId id =
      scheduler.SubmitDetector(pair, options);
  scheduler.RunAll();
  const eval::RepeatedResult result = scheduler.Take(id);
  EXPECT_EQ(result.runs.size(), 2u);
  EXPECT_EQ(result.histories.size(), 2u);
  EXPECT_EQ(result.f1.n, 2u);
  EXPECT_EQ(result.system, "ETSB-RNN");
  const auto curve = eval::AverageTestAccuracyCurve(result);
  EXPECT_EQ(curve.size(), 8u);
}

TEST(IntegrationTest, AllThreeSystemsProduceComparableMasks) {
  // Raha, Rotom and the RNN detector must each return one verdict per cell
  // on the same dataset — the contract the comparison harness relies on.
  datagen::GenOptions gen;
  gen.scale = 0.05;
  const datagen::DatasetPair pair = datagen::MakeRayyan(gen);
  const size_t n_cells = static_cast<size_t>(pair.dirty.num_rows()) *
                         pair.dirty.num_columns();

  Rng rng(1);
  raha::RahaDetector raha_detector;
  const raha::DetectionMask raha_mask =
      raha_detector.DetectErrors(pair.dirty, pair.clean, &rng);
  EXPECT_EQ(raha_mask.size(), n_cells);

  rotom::RotomBaseline rotom_baseline;
  auto rotom_result = rotom_baseline.Detect(pair.dirty, pair.clean);
  ASSERT_TRUE(rotom_result.ok());
  EXPECT_EQ(rotom_result->predicted.size(), n_cells);

  core::DetectorOptions options;
  options.n_label_tuples = 10;
  options.units = 12;
  options.trainer.epochs = 6;
  core::ErrorDetector rnn(options);
  auto rnn_report = rnn.Run(pair.dirty, pair.clean);
  ASSERT_TRUE(rnn_report.ok());
  EXPECT_EQ(rnn_report->predicted.size(), n_cells);
}

TEST(IntegrationTest, TrainsetSizeMatchesPaperFormula) {
  // §5.2: "for the dataset Beers we got a trainset of size 220, i.e. 20
  // tuples x 11 attributes, and a testset of size 26,290".
  datagen::GenOptions gen;
  gen.scale = 0.1;  // 241 rows
  const datagen::DatasetPair pair = datagen::MakeBeers(gen);
  core::DetectorOptions options;
  options.n_label_tuples = 20;
  options.units = 8;
  options.trainer.epochs = 2;
  core::ErrorDetector detector(options);
  auto report = detector.Run(pair.dirty, pair.clean);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->train_cells, 20 * 11);
  EXPECT_EQ(report->test_cells,
            static_cast<int64_t>(pair.dirty.num_rows() - 20) * 11);
}

}  // namespace
}  // namespace birnn
