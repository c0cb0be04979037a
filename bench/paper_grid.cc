#include "paper_grid.h"

#include "util/logging.h"

namespace birnn::bench {

namespace {

/// One Fig. 5 architecture variant: an edit of the ETSB-RNN options.
struct Variant {
  const char* name;
  void (*apply)(core::DetectorOptions*);
};

constexpr Variant kVariants[] = {
    {"paper (etsb,64u,2s,bi)", [](core::DetectorOptions*) {}},
    {"units=16", [](core::DetectorOptions* o) { o->units = 16; }},
    {"units=32", [](core::DetectorOptions* o) { o->units = 32; }},
    {"stacks=1", [](core::DetectorOptions* o) { o->stacks = 1; }},
    {"unidirectional",
     [](core::DetectorOptions* o) { o->bidirectional = false; }},
    {"no attr branch",
     [](core::DetectorOptions* o) { o->use_attr_branch = false; }},
    {"no length branch",
     [](core::DetectorOptions* o) { o->use_length_branch = false; }},
    {"tsb (no enrichment)",
     [](core::DetectorOptions* o) { o->model = "tsb"; }},
};

}  // namespace

std::string ExperimentKey(const GridExperiment& e) {
  const eval::RunnerOptions& o = e.options;
  std::string config;
  switch (e.system) {
    case GridSystem::kDetector:
      config = eval::DetectorJobConfig(o.detector);
      break;
    case GridSystem::kRaha:
      config = eval::RahaJobConfig(o.detector.n_label_tuples, o.base_seed);
      break;
    case GridSystem::kRotom:
    case GridSystem::kRotomSsl:
      config = eval::RotomJobConfig(
          kRotomCells, e.system == GridSystem::kRotomSsl, o.base_seed);
      break;
  }
  return e.dataset + "|reps=" + std::to_string(o.repetitions) +
         "|base_seed=" + std::to_string(o.base_seed) + "|" + config;
}

std::vector<std::pair<const char*, const std::vector<GridCell>*>>
PaperGrid::Sections() const {
  return {{"table3", &table3},
          {"table5", &table5},
          {"fig6", &fig6},
          {"fig7", &fig7},
          {"ablation_samplers", &samplers},
          {"ablation_truncation", &truncation},
          {"ablation_architecture", &architecture},
          {"ablation_cell_type", &cell_type},
          {"error_analysis", &error_analysis}};
}

PaperGrid BuildPaperGrid(const BenchConfig& config, bool skip_baselines) {
  PaperGrid grid;
  // Each distinct key becomes one experiment; a repeat returns its index.
  std::map<std::string, size_t> index;
  const auto add = [&grid, &index](const std::string& dataset,
                                   GridSystem system,
                                   const eval::RunnerOptions& options) {
    GridExperiment experiment{dataset, system, options};
    const auto [it, inserted] =
        index.emplace(ExperimentKey(experiment), grid.experiments.size());
    if (inserted) grid.experiments.push_back(std::move(experiment));
    return it->second;
  };
  const auto detector = [&add](const std::string& dataset,
                               const eval::RunnerOptions& options) {
    return add(dataset, GridSystem::kDetector, options);
  };
  const auto tracked = [&config](const char* model) {
    eval::RunnerOptions options = MakeRunnerOptions(config, model);
    options.detector.trainer.track_test_accuracy = true;
    options.detector.trainer.test_eval_max_cells = kEvalCells;
    return options;
  };

  for (const std::string& dataset : DatasetList(config)) {
    if (!skip_baselines) {
      const eval::RunnerOptions options = MakeRunnerOptions(config, "etsb");
      grid.table3.push_back(
          {dataset, "Raha", add(dataset, GridSystem::kRaha, options)});
      grid.table3.push_back(
          {dataset, "Rotom", add(dataset, GridSystem::kRotom, options)});
      grid.table3.push_back({dataset, "Rotom+SSL",
                             add(dataset, GridSystem::kRotomSsl, options)});
    }
    const size_t tsb = detector(dataset, MakeRunnerOptions(config, "tsb"));
    const size_t etsb = detector(dataset, MakeRunnerOptions(config, "etsb"));
    grid.table3.push_back({dataset, "TSB-RNN", tsb});
    grid.table3.push_back({dataset, "ETSB-RNN", etsb});
    grid.table5.push_back({dataset, "TSB-RNN", tsb});
    grid.table5.push_back({dataset, "ETSB-RNN", etsb});
    grid.error_analysis.push_back({dataset, "ETSB-RNN", etsb});

    grid.fig6.push_back(
        {dataset, "TSB-RNN", detector(dataset, tracked("tsb"))});
    const size_t tracked_etsb = detector(dataset, tracked("etsb"));
    grid.fig6.push_back({dataset, "ETSB-RNN", tracked_etsb});
    grid.fig7.push_back({dataset, "ETSB-RNN", tracked_etsb});

    for (const char* sampler : kSamplers) {
      grid.samplers.push_back(
          {dataset, sampler,
           detector(dataset, MakeRunnerOptions(config, "etsb", sampler))});
    }
  }

  // The ablations default to the datasets their sections of the paper name.
  const auto ablation_datasets =
      [&config](std::vector<std::string> defaults) {
        return config.datasets.empty() ? defaults : config.datasets;
      };
  for (const std::string& dataset : ablation_datasets({"movies", "rayyan"})) {
    for (const int max_len : kTruncationLengths) {
      eval::RunnerOptions options = MakeRunnerOptions(config, "etsb");
      options.detector.prepare.max_value_len = max_len;
      grid.truncation.push_back(
          {dataset, std::to_string(max_len), detector(dataset, options)});
    }
  }
  for (const std::string& dataset :
       ablation_datasets({"hospital", "beers"})) {
    for (const Variant& variant : kVariants) {
      eval::RunnerOptions options = MakeRunnerOptions(config, "etsb");
      variant.apply(&options.detector);
      grid.architecture.push_back(
          {dataset, variant.name, detector(dataset, options)});
    }
    for (const char* cell : {"rnn", "gru", "lstm"}) {
      eval::RunnerOptions options = MakeRunnerOptions(config, "etsb");
      options.detector.cell_type = cell;
      grid.cell_type.push_back({dataset, cell, detector(dataset, options)});
    }
  }
  return grid;
}

void SubmitPaperGrid(const PaperGrid& grid,
                     const std::map<std::string, datagen::DatasetPair>& pairs,
                     eval::Scheduler* scheduler) {
  for (size_t i = 0; i < grid.experiments.size(); ++i) {
    const GridExperiment& e = grid.experiments[i];
    const datagen::DatasetPair& pair = pairs.at(e.dataset);
    const eval::RunnerOptions& o = e.options;
    eval::Scheduler::ExperimentId id = 0;
    switch (e.system) {
      case GridSystem::kDetector:
        id = scheduler->SubmitDetector(pair, o);
        break;
      case GridSystem::kRaha:
        id = scheduler->SubmitRaha(pair, o.repetitions,
                                   o.detector.n_label_tuples, o.base_seed);
        break;
      case GridSystem::kRotom:
      case GridSystem::kRotomSsl:
        id = scheduler->SubmitRotom(pair, o.repetitions, kRotomCells,
                                    e.system == GridSystem::kRotomSsl,
                                    o.base_seed);
        break;
    }
    BIRNN_CHECK_EQ(id, i) << "submit the grid to a fresh scheduler";
  }
}

}  // namespace birnn::bench
