#include "core/detector.h"

#include <algorithm>
#include <unordered_set>

#include "core/content_index.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "sampling/sampler.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace birnn::core {

void FreezeColumnStats(const std::vector<int64_t>& cells,
                       const std::vector<int64_t>& empties,
                       const std::vector<int64_t>& errors,
                       TrainedDetector* trained) {
  trained->attr_empty_rate.assign(cells.size(), 0.0f);
  trained->attr_error_rate.assign(cells.size(), 0.0f);
  for (size_t a = 0; a < cells.size(); ++a) {
    if (cells[a] == 0) continue;
    trained->attr_empty_rate[a] =
        static_cast<float>(empties[a]) / static_cast<float>(cells[a]);
    trained->attr_error_rate[a] =
        static_cast<float>(errors[a]) / static_cast<float>(cells[a]);
  }
  trained->has_frozen_stats = true;
}

ErrorDetector::ErrorDetector(DetectorOptions options)
    : options_(std::move(options)) {}

ModelConfig BuildModelConfig(const DetectorOptions& options, int vocab,
                             int max_len, int n_attrs) {
  ModelConfig config;
  config.vocab = vocab;
  config.max_len = max_len;
  config.n_attrs = n_attrs;
  config.char_emb_dim = options.char_emb_dim;
  config.units = options.units;
  config.stacks = options.stacks;
  config.bidirectional = options.bidirectional;
  auto cell = nn::ParseCellType(options.cell_type);
  config.cell_type = cell.ok() ? *cell : nn::CellType::kVanilla;
  config.enriched = ToLower(options.model) == "etsb";
  config.use_attr_branch = options.use_attr_branch;
  config.use_length_branch = options.use_length_branch;
  config.seed = options.seed;
  return config;
}

StatusOr<DetectionReport> ErrorDetector::Run(const data::Table& dirty,
                                             const data::Table& clean,
                                             TrainedDetector* trained) {
  // Ground-truth oracle: the user "labels" by consulting the clean table.
  LabelOracle oracle = [&dirty, &clean](int64_t row, int attr) {
    return TrimLeft(dirty.cell(static_cast<int>(row), attr)) !=
                   TrimLeft(clean.cell(static_cast<int>(row), attr))
               ? 1
               : 0;
  };
  return RunInternal(dirty, &clean, oracle, trained);
}

StatusOr<DetectionReport> ErrorDetector::RunWithOracle(
    const data::Table& dirty, const LabelOracle& oracle,
    TrainedDetector* trained) {
  return RunInternal(dirty, nullptr, oracle, trained);
}

StatusOr<DetectionReport> ErrorDetector::RunInternal(
    const data::Table& dirty, const data::Table* clean,
    const LabelOracle& oracle, TrainedDetector* trained) {
  const std::string model_name = ToLower(options_.model);
  if (model_name != "tsb" && model_name != "etsb") {
    return Status::InvalidArgument("unknown model: " + options_.model);
  }
  if (!nn::ParseCellType(options_.cell_type).ok()) {
    return Status::InvalidArgument("unknown cell type: " + options_.cell_type);
  }

  // 1. Data preparation (§4.1).
  data::CellFrame frame;
  if (clean != nullptr) {
    BIRNN_ASSIGN_OR_RETURN(frame,
                           data::PrepareData(dirty, *clean, options_.prepare));
  } else {
    BIRNN_ASSIGN_OR_RETURN(frame,
                           data::PrepareDirtyOnly(dirty, options_.prepare));
  }
  const data::CharIndex chars = data::CharIndex::Build(frame);
  data::EncodedDataset all = data::EncodeCells(frame, chars);

  // 2. Trainset selection (§4.2).
  BIRNN_ASSIGN_OR_RETURN(auto sampler,
                         sampling::MakeSampler(options_.sampler));
  Rng rng(options_.seed);
  BIRNN_ASSIGN_OR_RETURN(
      std::vector<int64_t> train_ids,
      sampler->Select(frame, options_.n_label_tuples, &rng));

  // 3. User labeling: overwrite the labels of the sampled tuples with the
  // oracle's answers (in experiment mode these equal the prepared labels;
  // in deployment mode they are the only labels we have).
  std::unordered_set<int64_t> train_id_set(train_ids.begin(), train_ids.end());
  for (int64_t i = 0; i < all.num_cells(); ++i) {
    const int64_t row = all.row_ids[static_cast<size_t>(i)];
    if (train_id_set.count(row) > 0) {
      all.labels[static_cast<size_t>(i)] =
          oracle(row, all.attrs[static_cast<size_t>(i)]);
    }
  }

  // The test split is built only for the per-epoch accuracy curve, its one
  // reader; otherwise it would be a near-copy of `all` alive through
  // training and the sweep.
  data::EncodedDataset train;
  data::EncodedDataset test;
  data::EncodedDataset* test_split =
      options_.trainer.track_test_accuracy ? &test : nullptr;
  data::SplitByRowIds(all, train_ids, &train, test_split);
  if (train.num_cells() == 0) {
    return Status::FailedPrecondition("sampler selected no tuples");
  }

  // 4. Training.
  ModelConfig config = BuildModelConfig(options_, all.vocab, all.max_len,
                                        all.n_attrs);
  auto model_ptr = std::make_unique<ErrorDetectionModel>(config);
  ErrorDetectionModel& model = *model_ptr;
  TrainerOptions trainer_options = options_.trainer;
  trainer_options.seed = options_.seed ^ 0x5EEDULL;
  trainer_options.train_threads = options_.train_threads;
  Trainer trainer(trainer_options);

  DetectionReport report;
  report.history = trainer.Fit(&model, train, test_split);
  report.labeled_tuples = train_ids;
  report.train_cells = train.num_cells();
  report.test_cells = all.num_cells() - train.num_cells();

  // 5. Detection over every cell of the frame through the inference
  // engine: distinct cell contents are predicted once and broadcast to
  // their duplicates, sorted by length and run on `eval_threads` lanes by
  // default (see core/inference.h).
  InferenceOptions inference_options;
  inference_options.eval_batch = options_.trainer.eval_batch;
  inference_options.threads = options_.eval_threads;
  inference_options.bucketed = options_.bucketed_inference;
  InferenceEngine engine(model, inference_options);
  engine.Predict(all, &report.predicted);
  report.inference = engine.stats();

  // Export the trained artifacts *after* the detection sweep: the model is
  // in exactly the state (best-checkpoint weights, calibrated batch norm)
  // that produced report.predicted, so a detector served from these
  // artifacts answers bit-identically to this run.
  if (trained != nullptr) {
    trained->config = config;
    trained->chars = chars;
    trained->attr_names = frame.attr_names();
    trained->attr_max_value_len.assign(
        static_cast<size_t>(frame.num_attrs()), 0);
    for (const auto& cell : frame.cells()) {
      int32_t& mx = trained->attr_max_value_len[static_cast<size_t>(cell.attr)];
      mx = std::max(mx, static_cast<int32_t>(cell.value.size()));
    }
    trained->prepare = options_.prepare;
    trained->options = options_;
    // Frozen column statistics for streaming drift baselines: empty rates
    // from the prepared frame, error rates from the sweep's predictions —
    // both per attribute over the whole table.
    const size_t n_attrs = static_cast<size_t>(frame.num_attrs());
    std::vector<int64_t> attr_cells(n_attrs, 0);
    std::vector<int64_t> attr_empties(n_attrs, 0);
    std::vector<int64_t> attr_errors(n_attrs, 0);
    const auto& cells = frame.cells();
    for (size_t i = 0; i < cells.size(); ++i) {
      const size_t a = static_cast<size_t>(cells[i].attr);
      ++attr_cells[a];
      if (cells[i].empty) ++attr_empties[a];
      if (report.predicted[i] != 0) ++attr_errors[a];
    }
    FreezeColumnStats(attr_cells, attr_empties, attr_errors, trained);
    // Memo pre-size hint + provenance: the sweep already counted the
    // distinct contents, the fingerprint is one extra hash pass.
    trained->train_unique_cells = report.inference.unique_cells;
    trained->content_fingerprint = DatasetContentFingerprint(all);
    trained->model = std::move(model_ptr);
  }

  // 6. Evaluation on the test cells (experiment mode only).
  if (clean != nullptr) {
    report.truth.reserve(frame.cells().size());
    for (const auto& cell : frame.cells()) report.truth.push_back(cell.label);
    eval::Confusion confusion;
    for (int64_t i = 0; i < all.num_cells(); ++i) {
      const int64_t row = all.row_ids[static_cast<size_t>(i)];
      if (train_id_set.count(row) > 0) continue;  // test cells only
      confusion.Add(report.predicted[static_cast<size_t>(i)],
                    report.truth[static_cast<size_t>(i)]);
    }
    report.test_confusion = confusion;
    report.test_metrics = eval::Metrics::From(confusion);
  }
  return report;
}

}  // namespace birnn::core
