// offline_tax: table -> DetectionReport + saved bundle, at paper defaults.
#include <filesystem>
#include <unordered_set>

#include "common.h"
#include "core/content_index.h"
#include "core/detector.h"
#include "core/inference.h"
#include "core/trainer.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "inputs.h"
#include "sampling/sampler.h"
#include "serve/bundle.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = birnn::core;
namespace data = birnn::data;
namespace fs = std::filesystem;

core::DetectorOptions PaperOptions(uint64_t seed, bool smoke) {
  core::DetectorOptions options;  // ETSB, DiverSet, 20 tuples, 120 epochs
  options.seed = seed;
  if (smoke) options.trainer.epochs = 3;
  return options;
}

struct ComposedJob {
  std::vector<uint8_t> predicted;
  double total_s = 0.0;
  double stage_sum_s = 0.0;
  int epochs = 0;
  core::InferenceStats sweep;
  bool ok = false;
};

// ErrorDetector::Run's stages (core/detector.cc), composed from their public
// entry points with a span around each, then SaveDetectorBundle. The
// predictions must equal Run's byte for byte.
ComposedJob RunComposed(const birnn::datagen::DatasetPair& table,
                        const core::DetectorOptions& options,
                        const std::string& bundle_dir, Tracer* tracer) {
  ComposedJob job;
  const Clock::time_point start = Clock::now();
  const int root = tracer->Begin("offline.job");

  int span = tracer->Begin("data.prepare", root);
  auto frame_or = data::PrepareData(table.dirty, table.clean, options.prepare);
  if (!frame_or.ok()) return job;
  const data::CellFrame frame = std::move(*frame_or);
  const data::CharIndex chars = data::CharIndex::Build(frame);
  data::EncodedDataset all = data::EncodeCells(frame, chars);
  tracer->End(span);

  span = tracer->Begin("sampling.select", root);
  auto sampler = birnn::sampling::MakeSampler(options.sampler);
  if (!sampler.ok()) return job;
  birnn::Rng rng(options.seed);
  auto train_ids_or = (*sampler)->Select(frame, options.n_label_tuples, &rng);
  if (!train_ids_or.ok()) return job;
  const std::vector<int64_t> train_ids = std::move(*train_ids_or);
  tracer->End(span);

  // Labeling by the clean-table oracle, and the train/test split.
  const std::unordered_set<int64_t> train_set(train_ids.begin(),
                                              train_ids.end());
  for (int64_t i = 0; i < all.num_cells(); ++i) {
    const int64_t row = all.row_ids[static_cast<size_t>(i)];
    if (train_set.count(row) == 0) continue;
    const int attr = all.attrs[static_cast<size_t>(i)];
    all.labels[static_cast<size_t>(i)] =
        birnn::TrimLeft(table.dirty.cell(static_cast<int>(row), attr)) !=
                birnn::TrimLeft(table.clean.cell(static_cast<int>(row), attr))
            ? 1
            : 0;
  }
  data::EncodedDataset train;
  data::EncodedDataset test;
  data::SplitByRowIds(all, train_ids, &train, &test);

  span = tracer->Begin("core.train", root);
  core::ModelConfig config =
      core::BuildModelConfig(options, all.vocab, all.max_len, all.n_attrs);
  auto model = std::make_unique<core::ErrorDetectionModel>(config);
  core::TrainerOptions trainer_options = options.trainer;
  trainer_options.seed = options.seed ^ 0x5EEDULL;
  trainer_options.train_threads = options.train_threads;
  const core::TrainHistory history =
      core::Trainer(trainer_options).Fit(model.get(), train, &test);
  job.epochs = static_cast<int>(history.epochs.size());
  tracer->End(span);

  span = tracer->Begin("core.sweep", root);
  core::InferenceOptions inference_options;
  inference_options.eval_batch = options.trainer.eval_batch;
  inference_options.threads = options.eval_threads;
  inference_options.bucketed = options.bucketed_inference;
  core::InferenceEngine engine(*model, inference_options);
  engine.Predict(all, &job.predicted);
  job.sweep = engine.stats();
  tracer->End(span);

  // The serving export ErrorDetector::Run fills in after its sweep.
  core::TrainedDetector trained;
  trained.config = config;
  trained.chars = chars;
  trained.attr_names = frame.attr_names();
  const size_t n_attrs = static_cast<size_t>(frame.num_attrs());
  trained.attr_max_value_len.assign(n_attrs, 0);
  std::vector<int64_t> attr_cells(n_attrs, 0);
  std::vector<int64_t> attr_empties(n_attrs, 0);
  std::vector<int64_t> attr_errors(n_attrs, 0);
  for (size_t i = 0; i < frame.cells().size(); ++i) {
    const data::CellRecord& cell = frame.cells()[i];
    const size_t a = static_cast<size_t>(cell.attr);
    trained.attr_max_value_len[a] = std::max(
        trained.attr_max_value_len[a], static_cast<int32_t>(cell.value.size()));
    ++attr_cells[a];
    if (cell.empty) ++attr_empties[a];
    if (job.predicted[i] != 0) ++attr_errors[a];
  }
  trained.attr_empty_rate.assign(n_attrs, 0.0f);
  trained.attr_error_rate.assign(n_attrs, 0.0f);
  for (size_t a = 0; a < n_attrs; ++a) {
    if (attr_cells[a] == 0) continue;
    trained.attr_empty_rate[a] = static_cast<float>(attr_empties[a]) /
                                 static_cast<float>(attr_cells[a]);
    trained.attr_error_rate[a] = static_cast<float>(attr_errors[a]) /
                                 static_cast<float>(attr_cells[a]);
  }
  trained.has_frozen_stats = true;
  trained.prepare = options.prepare;
  trained.options = options;
  trained.train_unique_cells = job.sweep.unique_cells;
  trained.content_fingerprint = core::DatasetContentFingerprint(all);
  trained.model = std::move(model);

  span = tracer->Begin("serve.bundle_save", root);
  const bool saved = birnn::serve::SaveDetectorBundle(trained, bundle_dir).ok();
  tracer->End(span);
  tracer->End(root);

  job.total_s = SecondsBetween(start, Clock::now());
  for (const char* stage : {"data.prepare", "sampling.select", "core.train",
                            "core.sweep", "serve.bundle_save"}) {
    job.stage_sum_s += tracer->TotalSeconds(stage);
  }
  job.ok = saved;
  return job;
}

struct RunJob {
  core::DetectionReport report;
  double seconds = 0.0;
  bool ok = false;
};

// The user-visible job: ErrorDetector::Run, then SaveDetectorBundle.
RunJob RunDetector(const birnn::datagen::DatasetPair& table,
                   const core::DetectorOptions& options,
                   const std::string& bundle_dir) {
  RunJob job;
  const Clock::time_point start = Clock::now();
  core::ErrorDetector detector(options);
  core::TrainedDetector trained;
  auto report = detector.Run(table.dirty, table.clean, &trained);
  if (!report.ok()) return job;
  const bool saved = birnn::serve::SaveDetectorBundle(trained, bundle_dir).ok();
  job.seconds = SecondsBetween(start, Clock::now());
  job.report = std::move(*report);
  job.ok = saved;
  return job;
}

// The saved bundle reloads, and its verdicts on a stride of the table's
// cells — re-encoded from the raw dirty values — equal the report's.
bool BundleReloads(const std::string& dir, const birnn::data::Table& dirty,
                   const std::vector<uint8_t>& predicted) {
  auto loaded = birnn::serve::LoadDetectorBundle(dir);
  if (!loaded.ok()) return false;
  const int n_attrs = dirty.num_columns();
  const int64_t n_cells = static_cast<int64_t>(dirty.num_rows()) * n_attrs;
  const int64_t stride = std::max<int64_t>(1, n_cells / 4096);
  std::vector<birnn::serve::CellQuery> queries;
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < n_cells; i += stride) {
    birnn::serve::CellQuery q;
    q.attr = static_cast<int>(i % n_attrs);
    q.value = dirty.cell(static_cast<int>(i / n_attrs), q.attr);
    queries.push_back(std::move(q));
    ids.push_back(i);
  }
  auto encoded = loaded->EncodeQueries(queries);
  if (!encoded.ok()) return false;
  core::InferenceEngine engine(loaded->model());
  std::vector<float> p;
  engine.PredictProbs(*encoded, {}, &p);
  for (size_t k = 0; k < ids.size(); ++k) {
    if ((p[k] > 0.5f ? 1 : 0) != predicted[static_cast<size_t>(ids[k])]) {
      return false;
    }
  }
  return true;
}

}  // namespace

int RunOfflineTax(const Args& args) {
  Result result;
  const fs::path work = args.dir;
  fs::create_directories(work);

  // Set-up: generating the table, nine times (it takes tens of ms); the
  // median is reported.
  std::vector<double> setup;
  birnn::datagen::DatasetPair table;
  for (int i = 0; i < 9; ++i) {
    const Clock::time_point t0 = Clock::now();
    table = OfflineTable(args.smoke);
    setup.push_back(SecondsBetween(t0, Clock::now()));
  }
  const core::DetectorOptions options = PaperOptions(args.seed, args.smoke);
  const int64_t n_cells =
      static_cast<int64_t>(table.dirty.num_rows()) * table.dirty.num_columns();

  // Jobs until the measuring window closes (at least three). Every job must
  // reproduce the first one's predictions.
  std::vector<double> job_s;
  std::vector<uint8_t> first_predicted;
  const std::string bundle_dir = (work / "bundle").string();
  const Clock::time_point window = Clock::now();
  const int min_jobs = args.trace ? 1 : 3;
  while (static_cast<int>(job_s.size()) < min_jobs ||
         SecondsBetween(window, Clock::now()) < args.seconds) {
    RunJob job = RunDetector(table, options, bundle_dir);
    result.Check(job.ok, "ErrorDetector::Run + SaveDetectorBundle");
    if (!job.ok) break;
    job_s.push_back(job.seconds);
    if (first_predicted.empty()) {
      first_predicted = job.report.predicted;
    } else {
      result.Check(job.report.predicted == first_predicted,
                   "repeated job reproduces the first job's predictions");
    }
    if (args.trace) break;
  }
  const double peak_rss = PeakRssMib();
  result.Check(!first_predicted.empty() &&
                   BundleReloads(bundle_dir, table.dirty, first_predicted),
               "saved bundle reloads and reproduces the report's verdicts");

  if (!args.trace) {
    result.Metric("setup_s", Median(setup), "s");
    result.Metric("p50_ms", Median(job_s) * 1e3, "ms");
    result.Metric("p99_ms", Quantile(job_s, 0.99) * 1e3, "ms");
    result.Metric("ops_per_s",
                  job_s.empty() ? 0.0
                                : static_cast<double>(n_cells) / Median(job_s),
                  "1/s");
    result.Metric("peak_rss_mib", peak_rss, "MiB");
    result.Print();
    return 0;
  }

  // Traced run: the composed stages, with spans, against Run's output.
  Tracer tracer(true);
  const ComposedJob composed =
      RunComposed(table, options, (work / "bundle_composed").string(), &tracer);
  result.Check(composed.ok, "composed stages ran and saved");
  result.Check(!first_predicted.empty() &&
                   composed.predicted == first_predicted,
               "composed-stage predictions equal ErrorDetector::Run's");
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    result.Fail(1, "writing the trace");
  }
  const double train_s = tracer.TotalSeconds("core.train");
  const core::InferenceStats& sweep = composed.sweep;
  result.Metric("offline_tax.data.prepare_s",
                tracer.TotalSeconds("data.prepare"), "s");
  result.Metric("offline_tax.sampling.select_s",
                tracer.TotalSeconds("sampling.select"), "s");
  result.Metric("offline_tax.core.train_s", train_s, "s");
  result.Metric("offline_tax.core.train_epoch_ms",
                composed.epochs > 0 ? train_s * 1e3 / composed.epochs : 0.0,
                "ms");
  result.Metric("offline_tax.core.sweep_s", tracer.TotalSeconds("core.sweep"),
                "s");
  result.Metric("offline_tax.core.sweep_dedup", sweep.dedup_factor, "x");
  result.Metric("offline_tax.core.rnn_steps_ratio",
                sweep.rnn_steps_dense > 0
                    ? static_cast<double>(sweep.rnn_steps) /
                          static_cast<double>(sweep.rnn_steps_dense)
                    : 0.0,
                "x");
  result.Metric("offline_tax.serve.bundle_save_s",
                tracer.TotalSeconds("serve.bundle_save"), "s");
  result.Metric("offline_tax.offline.residual_s",
                composed.total_s - composed.stage_sum_s, "s");
  result.Metric("offline_tax.trace.overhead_pct",
                100.0 * tracer.overhead_s() / composed.total_s, "%");
  result.Print();
  return 0;
}

}  // namespace perfbench
