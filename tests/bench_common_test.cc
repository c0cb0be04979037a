#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "bench_common.h"
#include "paper_grid.h"

namespace birnn::bench {
namespace {

TEST(BenchCommonTest, DefaultsAreFastMode) {
  FlagSet flags;
  AddCommonFlags(&flags);
  const char* argv[] = {"prog"};
  const BenchConfig config =
      ParseCommonFlags(&flags, 1, const_cast<char**>(argv), "prog");
  EXPECT_EQ(config.reps, 3);
  EXPECT_EQ(config.epochs, 80);
  EXPECT_EQ(config.n_label_tuples, 20);
  EXPECT_DOUBLE_EQ(config.scale, 0.0);
  EXPECT_FALSE(config.paper_fidelity);
  EXPECT_TRUE(config.datasets.empty());
}

TEST(BenchCommonTest, PaperFidelityOverrides) {
  FlagSet flags;
  AddCommonFlags(&flags);
  const char* argv[] = {"prog", "--paper-fidelity", "--reps=2"};
  const BenchConfig config =
      ParseCommonFlags(&flags, 3, const_cast<char**>(argv), "prog");
  EXPECT_EQ(config.reps, 10);
  EXPECT_EQ(config.epochs, 120);
  EXPECT_DOUBLE_EQ(config.scale, 1.0);
}

TEST(BenchCommonTest, DatasetListParsing) {
  FlagSet flags;
  AddCommonFlags(&flags);
  const char* argv[] = {"prog", "--datasets=Beers, tax"};
  const BenchConfig config =
      ParseCommonFlags(&flags, 2, const_cast<char**>(argv), "prog");
  ASSERT_EQ(config.datasets.size(), 2u);
  EXPECT_EQ(config.datasets[0], "beers");
  EXPECT_EQ(config.datasets[1], "tax");
  EXPECT_EQ(DatasetList(config), config.datasets);
}

/// Parses `args` as bench flags; a rejected setting exits the process.
BenchConfig ParseArgs(std::vector<const char*> args) {
  FlagSet flags;
  AddCommonFlags(&flags);
  args.insert(args.begin(), "prog");
  return ParseCommonFlags(&flags, static_cast<int>(args.size()),
                          const_cast<char**>(args.data()), "prog");
}

TEST(BenchCommonDeathTest, InvalidSettingsPrintUsageAndExit2) {
  const std::pair<const char*, const char*> cases[] = {
      {"--reps=0", "--reps must be at least 1"},
      {"--epochs=0", "--epochs must be at least 1"},
      {"--tuples=-3", "--tuples must be at least 1"},
      {"--scale=-0.5", "--scale must not be negative"},
      {"--seed=-1", "--seed must not be negative"},
      {"--datasets=beers,nope", "unknown dataset 'nope'"},
  };
  for (const auto& [arg, why] : cases) {
    SCOPED_TRACE(arg);
    EXPECT_EXIT(ParseArgs({arg}), ::testing::ExitedWithCode(2),
                std::string(why) + "(.|\n)*Usage: prog");
  }
}

TEST(BenchCommonTest, ValidBoundarySettingsParse) {
  const BenchConfig config =
      ParseArgs({"--reps=1", "--epochs=1", "--tuples=1", "--seed=0"});
  EXPECT_EQ(config.reps, 1);
  EXPECT_EQ(config.epochs, 1);
  EXPECT_EQ(config.n_label_tuples, 1);
  EXPECT_EQ(config.seed, 0u);
}

TEST(BenchCommonTest, DefaultScaleTargets300Rows) {
  BenchConfig config;
  // tax: 300 / 200000
  EXPECT_NEAR(DefaultScale("tax", config), 300.0 / 200000, 1e-9);
  EXPECT_NEAR(DefaultScale("hospital", config), 0.3, 1e-9);
  // Explicit scale wins.
  config.scale = 0.5;
  EXPECT_DOUBLE_EQ(DefaultScale("tax", config), 0.5);
}

TEST(BenchCommonTest, MakePairHonorsScale) {
  BenchConfig config;
  config.scale = 0.05;
  const datagen::DatasetPair pair = MakePair("hospital", config);
  EXPECT_EQ(pair.dirty.num_rows(), 50);
  EXPECT_EQ(pair.name, "hospital");
}

TEST(BenchCommonTest, RunnerOptionsMapping) {
  BenchConfig config;
  config.reps = 7;
  config.epochs = 33;
  config.n_label_tuples = 11;
  config.seed = 42;
  const eval::RunnerOptions options =
      MakeRunnerOptions(config, "tsb", "randomset");
  EXPECT_EQ(options.repetitions, 7);
  EXPECT_EQ(options.base_seed, 42u);
  EXPECT_EQ(options.detector.model, "tsb");
  EXPECT_EQ(options.detector.sampler, "randomset");
  EXPECT_EQ(options.detector.n_label_tuples, 11);
  EXPECT_EQ(options.detector.trainer.epochs, 33);
}

TEST(BenchCommonTest, AllDatasetsByDefault) {
  BenchConfig config;
  const auto list = DatasetList(config);
  ASSERT_EQ(list.size(), 6u);
  EXPECT_EQ(list.front(), "beers");
  EXPECT_EQ(list.back(), "tax");
}

TEST(BenchCommonTest, HarnessFlagDefaultsAndOverrides) {
  FlagSet flags;
  AddCommonFlags(&flags, "out.json");
  const char* argv[] = {"prog", "--harness-threads=4", "--cache=false",
                        "--cache-dir=/tmp/c"};
  const BenchConfig config =
      ParseCommonFlags(&flags, 4, const_cast<char**>(argv), "prog");
  EXPECT_EQ(config.harness_threads, 4);
  EXPECT_FALSE(config.cache_enabled);
  EXPECT_EQ(config.cache_dir, "/tmp/c");
  EXPECT_EQ(config.json_path, "out.json");  // default_json passes through.
  EXPECT_EQ(MakeCache(config), nullptr);    // disabled cache -> null.
}

TEST(BenchCommonTest, SchedulerOptionsMapping) {
  BenchConfig config;
  config.harness_threads = 3;
  eval::ArtifactCache cache("/tmp/unused");
  const eval::SchedulerOptions options = MakeSchedulerOptions(config, &cache);
  EXPECT_EQ(options.threads, 3);
  EXPECT_EQ(options.cache, &cache);
}

TEST(JsonWriterTest, CommasEscapingAndNesting) {
  std::ostringstream out;
  JsonWriter json(out);
  json.BeginObject();
  json.Key("name").String("a \"b\"\n\\c");
  json.Key("n").Int(-3);
  json.Key("x").Number(0.5);
  json.Key("ok").Bool(true);
  json.Key("list").BeginArray();
  json.Int(1);
  json.Int(2);
  json.BeginObject();
  json.Key("y").Number(1.25);
  json.EndObject();
  json.EndArray();
  json.EndObject();
  EXPECT_EQ(out.str(),
            "{\"name\":\"a \\\"b\\\"\\n\\\\c\",\"n\":-3,\"x\":0.5,"
            "\"ok\":true,\"list\":[1,2,{\"y\":1.25}]}");
}

TEST(BenchCommonTest, BestEpochPicksLowestTrainLoss) {
  std::vector<core::EpochStats> history(4);
  history[0].train_loss = 0.9f;
  history[1].train_loss = 0.3f;
  history[2].train_loss = 0.5f;
  history[3].train_loss = 0.3f;  // ties keep the earliest.
  EXPECT_EQ(BestEpoch(history), 1);
}

TEST(PaperGridTest, TwoDatasetGridSharesEveryRepeatedExperiment) {
  BenchConfig config;
  config.reps = 2;
  config.epochs = 6;
  config.datasets = {"beers", "hospital"};
  const PaperGrid grid = BuildPaperGrid(config, /*skip_baselines=*/false);

  std::set<std::string> keys;
  size_t detectors = 0;
  for (const GridExperiment& e : grid.experiments) {
    EXPECT_TRUE(keys.insert(ExperimentKey(e)).second)
        << "submitted twice: " << ExperimentKey(e);
    if (e.system == GridSystem::kDetector) ++detectors;
  }
  // Per dataset: TSB and ETSB, their tracked twins, two more samplers,
  // four more truncation lengths, six more architecture variants and two
  // more cell types; plus Raha, Rotom and Rotom+SSL.
  EXPECT_EQ(detectors, 36u);
  EXPECT_EQ(grid.experiments.size(), 42u);

  for (const auto& [name, cells] : grid.Sections()) {
    EXPECT_FALSE(cells->empty()) << name;
    for (const GridCell& cell : *cells) {
      ASSERT_LT(cell.experiment, grid.experiments.size())
          << name << " " << cell.dataset << " " << cell.label;
      EXPECT_EQ(grid.experiments[cell.experiment].dataset, cell.dataset)
          << name << " " << cell.label;
    }
  }
  EXPECT_EQ(grid.table3.size(), 10u);
  EXPECT_EQ(grid.table5.size(), 4u);
  EXPECT_EQ(grid.fig6.size(), 4u);
  EXPECT_EQ(grid.fig7.size(), 2u);
  EXPECT_EQ(grid.samplers.size(), 6u);
  EXPECT_EQ(grid.truncation.size(), 10u);
  EXPECT_EQ(grid.architecture.size(), 16u);
  EXPECT_EQ(grid.cell_type.size(), 6u);
  EXPECT_EQ(grid.error_analysis.size(), 2u);

  // Each arm runs the options its label names.
  for (const GridCell& cell : grid.samplers) {
    EXPECT_EQ(grid.experiments[cell.experiment].options.detector.sampler,
              cell.label);
  }
  for (const GridCell& cell : grid.truncation) {
    EXPECT_EQ(std::to_string(grid.experiments[cell.experiment]
                                 .options.detector.prepare.max_value_len),
              cell.label);
  }
  for (const GridCell& cell : grid.cell_type) {
    EXPECT_EQ(grid.experiments[cell.experiment].options.detector.cell_type,
              cell.label);
  }
  for (const GridCell& cell : grid.fig6) {
    EXPECT_TRUE(grid.experiments[cell.experiment]
                    .options.detector.trainer.track_test_accuracy);
  }

  // The paper-settings arms are Table 3's ETSB-RNN experiment; Fig. 7 is
  // Fig. 6's tracked ETSB-RNN; the "tsb" variant is Table 3's TSB-RNN.
  const auto table3_id = [&grid](const std::string& dataset,
                                 const std::string& system) {
    for (const GridCell& cell : grid.table3) {
      if (cell.dataset == dataset && cell.label == system) {
        return cell.experiment;
      }
    }
    ADD_FAILURE() << "no Table 3 cell " << dataset << "/" << system;
    return grid.experiments.size();
  };
  const auto find = [](const std::vector<GridCell>& cells,
                       const std::string& dataset, const std::string& label) {
    for (const GridCell& cell : cells) {
      if (cell.dataset == dataset && cell.label == label) {
        return cell.experiment;
      }
    }
    ADD_FAILURE() << "no cell " << dataset << "/" << label;
    return size_t{0};
  };
  for (const std::string& dataset : config.datasets) {
    const size_t etsb = table3_id(dataset, "ETSB-RNN");
    EXPECT_EQ(find(grid.table5, dataset, "ETSB-RNN"), etsb);
    EXPECT_EQ(find(grid.error_analysis, dataset, "ETSB-RNN"), etsb);
    EXPECT_EQ(find(grid.samplers, dataset, "diverset"), etsb);
    EXPECT_EQ(find(grid.truncation, dataset, "128"), etsb);
    EXPECT_EQ(find(grid.architecture, dataset, "paper (etsb,64u,2s,bi)"),
              etsb);
    EXPECT_EQ(find(grid.cell_type, dataset, "rnn"), etsb);
    EXPECT_EQ(find(grid.architecture, dataset, "tsb (no enrichment)"),
              table3_id(dataset, "TSB-RNN"));
    EXPECT_EQ(find(grid.fig7, dataset, "ETSB-RNN"),
              find(grid.fig6, dataset, "ETSB-RNN"));
  }
}

TEST(PaperGridTest, AblationsDefaultToThePapersDatasets) {
  const PaperGrid grid = BuildPaperGrid(BenchConfig{}, /*skip_baselines=*/true);
  EXPECT_EQ(grid.table3.size(), 12u);  // TSB and ETSB on all six.
  ASSERT_EQ(grid.truncation.size(), 10u);
  EXPECT_EQ(grid.truncation.front().dataset, "movies");
  EXPECT_EQ(grid.truncation.back().dataset, "rayyan");
  ASSERT_FALSE(grid.architecture.empty());
  EXPECT_EQ(grid.architecture.front().dataset, "hospital");
  EXPECT_EQ(grid.architecture.back().dataset, "beers");
  EXPECT_EQ(grid.cell_type.front().dataset, "hospital");
}

TEST(BenchCommonTest, F1MapAggregation) {
  eval::RepeatedResult result;
  result.system = "TSB-RNN";
  result.dataset = "beers";
  eval::Metrics m;
  m.f1 = 0.5;
  result.runs.push_back(m);
  m.f1 = 0.7;
  result.runs.push_back(m);
  F1Map map;
  AddRunsToF1Map(&map, result);
  ASSERT_EQ(map["TSB-RNN"]["beers"].size(), 2u);
  std::ostringstream out;
  PrintAggregateF1Table(map, out);
  EXPECT_NE(out.str().find("TSB-RNN"), std::string::npos);
  EXPECT_NE(out.str().find("0.60"), std::string::npos);  // mean of .5/.7
}

}  // namespace
}  // namespace birnn::bench
