// The paper's §5 evaluation from one binary: Tables 2-5, Figs. 6-7, the
// four ablations (trainset samplers, value truncation, Fig. 5 architecture
// choices, recurrent cell family) and the §5.5 error analysis.
//
// The whole grid (paper_grid.h) runs on one eval::Scheduler over the
// artifact cache: every distinct (dataset, job config, repetition) trains
// once, the jobs fan out over every core, and a warm re-run is served from
// the cache. One BENCH_paper.json records the settings, the SIMD width this
// binary was compiled for, the hardware threads, the scheduler's accounting
// and every result. Exits 1 when any job failed.
//
// Train times are measured inside each job, so they mean the same whether
// the harness runs serial or parallel; cached repetitions replay their
// recorded times, so pass --cache=false when timing is the point.

#include <fstream>
#include <iostream>
#include <iterator>
#include <map>

#include "bench_common.h"
#include "core/model.h"
#include "datagen/stats.h"
#include "eval/report.h"
#include "paper_grid.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/threadpool.h"

namespace birnn::bench {
namespace {

#if defined(__AVX512F__)
constexpr const char* kSimd = "avx512";
#elif defined(__AVX2__)
constexpr const char* kSimd = "avx2";
#else
constexpr const char* kSimd = "sse2";
#endif

using Results = std::vector<eval::RepeatedResult>;

void PrintTable2(const BenchConfig& config,
                 const std::map<std::string, datagen::DatasetPair>& pairs) {
  std::cout << "=== Table 2: Overview of datasets with error types ===\n";
  std::cout << "(paper reference vs. this repo's synthetic reproduction; "
               "rows scale with --scale)\n\n";
  eval::TableWriter writer({"Name", "Size (paper)", "Size (generated)",
                            "Error Rate (paper)", "Error Rate (gen)",
                            "Diff. Chars (paper)", "Diff. Chars (gen)",
                            "Error Types"});
  for (const std::string& name : DatasetList(config)) {
    const datagen::DatasetSpec spec = *datagen::FindDatasetSpec(name);
    const datagen::DatasetStats stats = datagen::ComputeStats(pairs.at(name));
    writer.AddRow({spec.name,
                   std::to_string(spec.paper_rows) + "x" +
                       std::to_string(spec.paper_cols),
                   std::to_string(stats.rows) + "x" +
                       std::to_string(stats.cols),
                   FormatFixed(spec.paper_error_rate, 2),
                   FormatFixed(stats.error_rate, 2),
                   std::to_string(spec.paper_distinct_chars),
                   std::to_string(stats.distinct_chars), stats.error_types});
  }
  writer.Print(std::cout);
}

/// Tables 3 and 4; returns Table 4's F1 map for the JSON artifact.
F1Map PrintTables3And4(const BenchConfig& config, const PaperGrid& grid,
                       const Results& results) {
  std::cout << "\n=== Table 3: Comparison between the different models ("
            << config.n_label_tuples << " labeled tuples, " << config.reps
            << " repetitions, " << config.epochs << " epochs) ===\n\n";
  eval::TableWriter writer({"System", "Dataset", "P", "R", "F1"});
  F1Map f1_map;
  for (const GridCell& cell : grid.table3) {
    eval::AppendTable3Rows(results[cell.experiment], &writer);
    AddRunsToF1Map(&f1_map, results[cell.experiment]);
  }
  writer.Print(std::cout);

  std::cout << "\n=== Table 4: Average F1-score (AVG) and Standard "
               "Deviation (S.D.) across datasets ===\n\n";
  PrintAggregateF1Table(f1_map, std::cout);
  return f1_map;
}

void PrintTable5(const BenchConfig& config, const PaperGrid& grid,
                 const Results& results) {
  std::cout << "\n=== Table 5: Training time [sec] for the different "
               "datasets using TSB-RNN and ETSB-RNN ===\n"
            << "(" << config.reps << " repetitions, " << config.epochs
            << " epochs; CPU wall-clock on this machine)\n\n";
  eval::TableWriter writer({"Name", "TSB AVG", "TSB S.D.", "ETSB AVG",
                            "ETSB S.D.", "ETSB/TSB"});
  double tsb_total = 0.0;
  double etsb_total = 0.0;
  for (size_t i = 0; i + 1 < grid.table5.size(); i += 2) {
    const Summary& tsb = results[grid.table5[i].experiment].train_seconds;
    const Summary& etsb = results[grid.table5[i + 1].experiment].train_seconds;
    writer.AddRow({grid.table5[i].dataset, FormatFixed(tsb.mean, 2),
                   FormatFixed(tsb.stddev, 2), FormatFixed(etsb.mean, 2),
                   FormatFixed(etsb.stddev, 2),
                   FormatFixed(tsb.mean > 0 ? etsb.mean / tsb.mean : 0.0, 2)});
    tsb_total += tsb.mean;
    etsb_total += etsb.mean;
  }
  if (!grid.table5.empty()) {
    const double n = static_cast<double>(grid.table5.size() / 2);
    writer.AddRow({"AVG", FormatFixed(tsb_total / n, 2), "",
                   FormatFixed(etsb_total / n, 2), "",
                   FormatFixed(tsb_total > 0 ? etsb_total / tsb_total : 0.0,
                               2)});
  }
  writer.Print(std::cout);
}

void PrintFig6(const BenchConfig& config, const PaperGrid& grid,
               const Results& results) {
  std::cout << "\n=== Figure 6: average test-accuracy during training ("
            << config.reps << " repetitions, CI95) ===\n\n";
  for (const GridCell& cell : grid.fig6) {
    const eval::RepeatedResult& result = results[cell.experiment];
    eval::PrintCurve(
        "Fig6 " + result.dataset + " " + result.system + " test-accuracy",
        eval::AverageTestAccuracyCurve(result), std::cout);
    std::cout << "# selected epochs (best train loss per repetition): ";
    for (size_t rep = 0; rep < result.histories.size(); ++rep) {
      const int best = BestEpoch(result.histories[rep]);
      std::cout << (rep > 0 ? ", " : "") << best << " (acc="
                << FormatFixed(result.histories[rep][static_cast<size_t>(best)]
                                   .test_accuracy,
                               3)
                << ")";
    }
    std::cout << "\n\n";
  }
}

void PrintFig7(const BenchConfig& config, const PaperGrid& grid,
               const Results& results) {
  std::cout << "=== Figure 7: ETSB-RNN train- vs test-accuracy per epoch ("
            << config.reps << " repetitions, CI95) ===\n\n";
  for (const GridCell& cell : grid.fig7) {
    const eval::RepeatedResult& result = results[cell.experiment];
    const auto train_curve = eval::AverageTrainAccuracyCurve(result);
    const auto test_curve = eval::AverageTestAccuracyCurve(result);
    eval::PrintCurve("Fig7 " + result.dataset + " ETSB-RNN train-accuracy",
                     train_curve, std::cout);
    eval::PrintCurve("Fig7 " + result.dataset + " ETSB-RNN test-accuracy",
                     test_curve, std::cout);
    std::cout << "# best-train-loss epochs (train acc / test acc): ";
    for (size_t rep = 0; rep < result.histories.size(); ++rep) {
      const auto& history = result.histories[rep];
      const int best = BestEpoch(history);
      const auto& stats = history[static_cast<size_t>(best)];
      std::cout << (rep > 0 ? ", " : "") << best << " ("
                << FormatFixed(stats.train_accuracy, 3) << "/"
                << FormatFixed(stats.test_accuracy, 3) << ")";
    }
    std::cout << "\n";
    // Overfitting verdict, as §5.4 reads the figure.
    if (!train_curve.empty() && !test_curve.empty()) {
      const double gap = train_curve.back().mean - test_curve.back().mean;
      std::cout << "# final train/test gap: " << FormatFixed(gap, 3)
                << (gap > 0.15 ? "  (large gap — model struggles here, like "
                                 "Flights in the paper)"
                               : "  (no critical overfitting)")
                << "\n\n";
    }
  }
}

void PrintSamplers(const BenchConfig& config, const PaperGrid& grid,
                   const Results& results) {
  std::cout << "=== Ablation: trainset-selection algorithms (ETSB-RNN, "
            << config.n_label_tuples << " tuples, " << config.reps
            << " reps) ===\n\n";
  eval::TableWriter writer({"Dataset", "RandomSet F1", "S.D.", "RahaSet F1",
                            "S.D.", "DiverSet F1", "S.D."});
  constexpr size_t kArms = std::size(kSamplers);
  std::vector<std::vector<double>> f1_by_sampler(kArms);
  for (size_t i = 0; i + kArms <= grid.samplers.size(); i += kArms) {
    std::vector<std::string> row{grid.samplers[i].dataset};
    for (size_t arm = 0; arm < kArms; ++arm) {
      const Summary& f1 = results[grid.samplers[i + arm].experiment].f1;
      row.push_back(eval::Fmt2(f1.mean));
      row.push_back(eval::Fmt2(f1.stddev));
      f1_by_sampler[arm].push_back(f1.mean);
    }
    writer.AddRow(std::move(row));
  }
  std::vector<std::string> avg_row{"AVG"};
  for (const std::vector<double>& f1s : f1_by_sampler) {
    avg_row.push_back(eval::Fmt2(Mean(f1s)));
    avg_row.push_back(eval::Fmt2(SampleStdDev(f1s)));
  }
  writer.AddRow(std::move(avg_row));
  writer.Print(std::cout);
}

void PrintTruncation(const BenchConfig& config, const PaperGrid& grid,
                     const Results& results) {
  std::cout << "\n=== Ablation: value truncation length (ETSB-RNN, "
            << config.reps << " reps) ===\n\n";
  eval::TableWriter writer(
      {"Dataset", "max_len", "F1", "F1 S.D.", "train time [s]"});
  for (const GridCell& cell : grid.truncation) {
    const eval::RepeatedResult& result = results[cell.experiment];
    writer.AddRow({cell.dataset, cell.label, eval::Fmt2(result.f1.mean),
                   eval::Fmt2(result.f1.stddev),
                   FormatFixed(result.train_seconds.mean, 2)});
  }
  writer.Print(std::cout);
}

void PrintArchitecture(const BenchConfig& config, const PaperGrid& grid,
                       const Results& results) {
  std::cout << "\n=== Ablation: architecture choices of Fig. 5 ("
            << config.reps << " reps, " << config.epochs << " epochs) ===\n\n";
  eval::TableWriter writer({"Dataset", "Variant", "P", "R", "F1", "F1 S.D."});
  for (const GridCell& cell : grid.architecture) {
    const eval::RepeatedResult& result = results[cell.experiment];
    writer.AddRow({cell.dataset, cell.label,
                   eval::Fmt2(result.precision.mean),
                   eval::Fmt2(result.recall.mean), eval::Fmt2(result.f1.mean),
                   eval::Fmt2(result.f1.stddev)});
  }
  writer.Print(std::cout);
}

void PrintCellType(const BenchConfig& config, const PaperGrid& grid,
                   const Results& results,
                   const std::map<std::string, datagen::DatasetPair>& pairs) {
  std::cout << "\n=== Ablation: recurrent cell family (ETSB architecture, "
            << config.reps << " reps, " << config.epochs << " epochs) ===\n\n";
  eval::TableWriter writer({"Dataset", "Cell", "Weights", "F1", "F1 S.D.",
                            "train time [s]", "vs rnn"});
  double rnn_time = 0.0;
  for (const GridCell& cell : grid.cell_type) {
    const eval::RepeatedResult& result = results[cell.experiment];
    if (cell.label == "rnn") rnn_time = result.train_seconds.mean;
    // Weight count from a throwaway model with this dataset's dims.
    core::ErrorDetectionModel probe(core::BuildModelConfig(
        grid.experiments[cell.experiment].options.detector, 80, 32,
        pairs.at(cell.dataset).dirty.num_columns()));
    writer.AddRow(
        {cell.dataset, cell.label, std::to_string(probe.NumWeights()),
         eval::Fmt2(result.f1.mean), eval::Fmt2(result.f1.stddev),
         FormatFixed(result.train_seconds.mean, 2),
         rnn_time > 0
             ? FormatFixed(result.train_seconds.mean / rnn_time, 2) + "x"
             : "-"});
  }
  writer.Print(std::cout);
}

void PrintErrorAnalysis(const BenchConfig& config, const PaperGrid& grid,
                        const Results& results) {
  std::cout << "\n=== Error analysis (§5.5): ETSB-RNN recall per error type "
            << "(" << config.reps << " reps, " << config.epochs
            << " epochs) ===\n\n";
  eval::TableWriter writer({"Dataset", "Type", "Errors", "Detected", "Recall"});
  for (const GridCell& cell : grid.error_analysis) {
    for (const auto& [type, count] : results[cell.experiment].error_types) {
      writer.AddRow(
          {cell.dataset, datagen::ErrorTypeCode(type),
           std::to_string(count.errors), std::to_string(count.detected),
           eval::Fmt2(count.errors == 0
                          ? 0.0
                          : static_cast<double>(count.detected) /
                                static_cast<double>(count.errors))});
    }
  }
  writer.Print(std::cout);
}

void WriteCurveJson(JsonWriter* json, const char* name,
                    const std::vector<eval::CurvePoint>& curve) {
  json->Key(name).BeginArray();
  for (const eval::CurvePoint& pt : curve) {
    json->BeginObject();
    json->Key("epoch").Int(pt.epoch);
    json->Key("mean").Number(pt.mean);
    json->Key("ci95").Number(pt.ci95);
    json->EndObject();
  }
  json->EndArray();
}

/// One experiment: summary stats, timing and raw per-repetition metrics,
/// plus the Fig. 6/7 curves and selected epochs when it tracked them, plus
/// the error analysis counts of detector experiments.
void WriteExperimentJson(JsonWriter* json,
                         const eval::RepeatedResult& result) {
  json->BeginObject();
  json->Key("dataset").String(result.dataset);
  json->Key("system").String(result.system);
  const auto summary = [json](const char* name, const Summary& s) {
    json->Key(name).BeginObject();
    json->Key("mean").Number(s.mean);
    json->Key("stddev").Number(s.stddev);
    json->Key("ci95").Number(s.ci95);
    json->Key("n").Int(static_cast<int64_t>(s.n));
    json->EndObject();
  };
  summary("precision", result.precision);
  summary("recall", result.recall);
  summary("f1", result.f1);
  summary("train_seconds", result.train_seconds);
  summary("train_cpu_seconds", result.train_cpu_seconds);
  json->Key("cache_hits").Int(result.cache_hits);
  json->Key("runs").BeginArray();
  for (const eval::Metrics& m : result.runs) {
    json->BeginObject();
    json->Key("precision").Number(m.precision);
    json->Key("recall").Number(m.recall);
    json->Key("f1").Number(m.f1);
    json->Key("accuracy").Number(m.accuracy);
    json->EndObject();
  }
  json->EndArray();
  const std::vector<eval::CurvePoint> test_curve =
      eval::AverageTestAccuracyCurve(result);
  if (!test_curve.empty()) {
    WriteCurveJson(json, "train_accuracy",
                   eval::AverageTrainAccuracyCurve(result));
    WriteCurveJson(json, "test_accuracy", test_curve);
    json->Key("selected_epochs").BeginArray();
    for (const auto& history : result.histories) {
      const int best = BestEpoch(history);
      const auto& stats = history[static_cast<size_t>(best)];
      json->BeginObject();
      json->Key("epoch").Int(best);
      json->Key("train_accuracy").Number(stats.train_accuracy);
      json->Key("test_accuracy").Number(stats.test_accuracy);
      json->EndObject();
    }
    json->EndArray();
  }
  if (!result.error_types.empty()) {
    json->Key("error_types").BeginArray();
    for (const auto& [type, count] : result.error_types) {
      json->BeginObject();
      json->Key("type").String(datagen::ErrorTypeCode(type));
      json->Key("errors").Int(count.errors);
      json->Key("detected").Int(count.detected);
      json->EndObject();
    }
    json->EndArray();
  }
  json->EndObject();
}

void WriteArtifact(const BenchConfig& config, bool skip_baselines,
                   const PaperGrid& grid, const Results& results,
                   const F1Map& f1_map,
                   const std::map<std::string, datagen::DatasetPair>& pairs,
                   const eval::SchedulerStats& stats) {
  std::ofstream out(config.json_path);
  JsonWriter json(out);
  json.BeginObject();
  json.Key("bench").String("paper");
  json.Key("settings").BeginObject();
  json.Key("reps").Int(config.reps);
  json.Key("epochs").Int(config.epochs);
  json.Key("tuples").Int(config.n_label_tuples);
  json.Key("scale").Number(config.scale);
  json.Key("seed").Int(static_cast<int64_t>(config.seed));
  json.Key("paper_fidelity").Bool(config.paper_fidelity);
  json.Key("skip_baselines").Bool(skip_baselines);
  json.Key("rotom_cells").Int(kRotomCells);
  json.Key("eval_cells").Int(kEvalCells);
  json.Key("datasets").BeginArray();
  for (const std::string& name : DatasetList(config)) json.String(name);
  json.EndArray();
  json.EndObject();
  json.Key("simd").String(kSimd);
  json.Key("hardware_threads").Int(HardwareConcurrency());
  json.Key("scheduler").BeginObject();
  json.Key("jobs").Int(stats.jobs);
  json.Key("computed").Int(stats.computed);
  json.Key("cache_hits").Int(stats.cache_hits);
  json.Key("failures").Int(stats.failures);
  json.Key("outer_threads").Int(stats.outer_threads);
  json.Key("inner_threads").Int(stats.inner_threads);
  json.Key("wall_seconds").Number(stats.wall_seconds);
  json.EndObject();

  json.Key("table2").BeginArray();
  for (const std::string& name : DatasetList(config)) {
    const datagen::DatasetSpec spec = *datagen::FindDatasetSpec(name);
    const datagen::DatasetStats ds = datagen::ComputeStats(pairs.at(name));
    json.BeginObject();
    json.Key("name").String(spec.name);
    json.Key("paper_rows").Int(spec.paper_rows);
    json.Key("paper_cols").Int(spec.paper_cols);
    json.Key("generated_rows").Int(ds.rows);
    json.Key("generated_cols").Int(ds.cols);
    json.Key("paper_error_rate").Number(spec.paper_error_rate);
    json.Key("generated_error_rate").Number(ds.error_rate);
    json.Key("paper_distinct_chars").Int(spec.paper_distinct_chars);
    json.Key("generated_distinct_chars").Int(ds.distinct_chars);
    json.Key("error_types").String(ds.error_types);
    json.EndObject();
  }
  json.EndArray();

  json.Key("table4").BeginArray();
  for (const AggregateF1Row& row : AggregateF1(f1_map)) {
    json.BeginObject();
    json.Key("system").String(row.system);
    json.Key("datasets").BeginObject();
    for (const auto& [dataset, mean_f1] : row.mean_f1) {
      json.Key(dataset).Number(mean_f1);
    }
    json.EndObject();
    json.Key("avg_without_flights").Number(row.avg_without_flights);
    json.Key("sd_without_flights").Number(row.sd_without_flights);
    json.Key("avg_with_flights").Number(row.avg_with_flights);
    json.Key("sd_with_flights").Number(row.sd_with_flights);
    json.EndObject();
  }
  json.EndArray();

  json.Key("experiments").BeginArray();
  for (const eval::RepeatedResult& result : results) {
    WriteExperimentJson(&json, result);
  }
  json.EndArray();

  // Each table row / figure series / ablation arm names its experiment.
  json.Key("sections").BeginObject();
  for (const auto& [name, cells] : grid.Sections()) {
    json.Key(name).BeginArray();
    for (const GridCell& cell : *cells) {
      json.BeginObject();
      json.Key("dataset").String(cell.dataset);
      json.Key("label").String(cell.label);
      json.Key("experiment").Int(static_cast<int64_t>(cell.experiment));
      json.EndObject();
    }
    json.EndArray();
  }
  json.EndObject();
  json.EndObject();
  out << "\n";
  std::cout << "JSON written to " << config.json_path << "\n";
}

int Run(int argc, char** argv) {
  FlagSet flags;
  AddCommonFlags(&flags, "BENCH_paper.json");
  flags.AddBool("skip-baselines", false,
                "run only TSB-RNN and ETSB-RNN in Tables 3 and 4 (faster)");
  const BenchConfig config =
      ParseCommonFlags(&flags, argc, argv, "bench_paper");
  const bool skip_baselines = flags.GetBool("skip-baselines");

  const PaperGrid grid = BuildPaperGrid(config, skip_baselines);
  const std::map<std::string, datagen::DatasetPair> pairs =
      MakeAllPairs(config);

  std::unique_ptr<eval::ArtifactCache> cache = MakeCache(config);
  eval::Scheduler scheduler(MakeSchedulerOptions(config, cache.get()));
  SubmitPaperGrid(grid, pairs, &scheduler);
  scheduler.RunAll();
  Results results;
  results.reserve(grid.experiments.size());
  for (size_t i = 0; i < grid.experiments.size(); ++i) {
    results.push_back(scheduler.Take(i));
  }

  PrintTable2(config, pairs);
  const F1Map f1_map = PrintTables3And4(config, grid, results);
  PrintTable5(config, grid, results);
  PrintFig6(config, grid, results);
  PrintFig7(config, grid, results);
  PrintSamplers(config, grid, results);
  PrintTruncation(config, grid, results);
  PrintArchitecture(config, grid, results);
  PrintCellType(config, grid, results, pairs);
  PrintErrorAnalysis(config, grid, results);
  PrintSchedulerSummary(scheduler, std::cout);

  if (!config.json_path.empty()) {
    WriteArtifact(config, skip_baselines, grid, results, f1_map, pairs,
                  scheduler.stats());
  }
  WriteObsArtifacts(config);
  if (scheduler.stats().failures > 0) {
    std::cerr << scheduler.stats().failures
              << " job(s) failed; their repetitions are missing from the "
                 "tables above\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace birnn::bench

int main(int argc, char** argv) { return birnn::bench::Run(argc, argv); }
