#include "adapt/controller.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "core/content_index.h"
#include "core/inference.h"
#include "core/trainer.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/threadpool.h"

namespace birnn::adapt {

const char* AdaptOutcomeName(AdaptOutcome outcome) {
  switch (outcome) {
    case AdaptOutcome::kPromoted:
      return "promoted";
    case AdaptOutcome::kRejected:
      return "rejected";
    case AdaptOutcome::kSkipped:
      return "skipped";
  }
  return "unknown";
}

Controller::Controller(std::shared_ptr<const serve::LoadedDetector> incumbent,
                       ControllerOptions options)
    : options_(std::move(options)), current_(std::move(incumbent)) {
  BIRNN_CHECK(current_ != nullptr);
}

bool Controller::ShouldAdapt(const stream::TableSession& session) const {
  return !session.drift_alarms().empty();
}

std::shared_ptr<const serve::LoadedDetector> Controller::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

int64_t Controller::attempts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempts_;
}

int64_t Controller::promotions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return promotions_;
}

int64_t Controller::rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejections_;
}

StatusOr<AdaptReport> Controller::MaybeAdapt(stream::TableSession* session,
                                             const LabelFn& labels,
                                             const LabelFn& gate_labels) {
  if (session == nullptr) {
    return Status::InvalidArgument("MaybeAdapt needs a session");
  }
  if (!ShouldAdapt(*session)) {
    std::lock_guard<std::mutex> lock(mu_);
    AdaptReport report;
    report.outcome = AdaptOutcome::kSkipped;
    report.reason = "no drift alarms latched";
    report.reservoir_rows = session->stats().reservoir_rows;
    report.generation = promotions_;
    return report;
  }
  return TriggerAdaptation(session, labels, gate_labels);
}

StatusOr<AdaptReport> Controller::TriggerAdaptation(
    stream::TableSession* session, const LabelFn& labels,
    const LabelFn& gate_labels) {
  if (session == nullptr) {
    return Status::InvalidArgument("TriggerAdaptation needs a session");
  }
  std::lock_guard<std::mutex> lock(mu_);
  return TriggerLocked(session, labels, gate_labels);
}

StatusOr<AdaptReport> Controller::TriggerLocked(stream::TableSession* session,
                                                const LabelFn& labels,
                                                const LabelFn& gate_labels) {
  OBS_SPAN("adapt.trigger");
  AdaptReport report;
  report.bn_only = options_.bn_only;
  report.generation = promotions_;
  report.drifted_attrs = session->DriftedAttrs();

  const std::vector<stream::ReservoirRow> reservoir =
      session->ReservoirSnapshot();
  report.reservoir_rows = static_cast<int64_t>(reservoir.size());
  const int64_t min_rows = std::max<int64_t>(2, options_.min_reservoir_rows);
  if (report.reservoir_rows < min_rows) {
    report.outcome = AdaptOutcome::kSkipped;
    report.reason = "reservoir holds " + std::to_string(report.reservoir_rows) +
                    " tuples, need " + std::to_string(min_rows);
    return report;
  }

  ++attempts_;
  OBS_COUNTER_ADD("adapt.attempts", 1);
  const serve::LoadedDetector& incumbent = *current_;
  const int n_attrs = incumbent.n_attrs();

  // Per-cell supervision: the oracle's 0/1 answer when it has one, the
  // reservoir's stored verdict otherwise.
  const auto label_of = [](const stream::ReservoirRow& row, int attr,
                           const LabelFn& oracle) -> int32_t {
    if (oracle) {
      const int l = oracle(row.row_id, attr);
      if (l == 0 || l == 1) return l;
    }
    return row.verdicts[static_cast<size_t>(attr)] != 0 ? 1 : 0;
  };
  const LabelFn& gate_oracle = gate_labels ? gate_labels : labels;

  // Held-back validation slice: a seeded shuffle of tuple positions, split
  // by tuple so no tuple feeds both the fine-tune and its own gate.
  std::vector<size_t> order(reservoir.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(options_.seed ^ 0xADA57ULL);
  rng.Shuffle(&order);
  const int64_t val_rows = std::min<int64_t>(
      report.reservoir_rows - 1,
      std::max<int64_t>(1, std::llround(options_.validation_fraction *
                                        static_cast<double>(
                                            report.reservoir_rows))));

  data::EncodedDataset val;
  incumbent.InitQueryDataset(&val);
  std::vector<int32_t> val_truth;
  for (int64_t i = 0; i < val_rows; ++i) {
    const stream::ReservoirRow& row = reservoir[order[static_cast<size_t>(i)]];
    for (int a = 0; a < n_attrs; ++a) {
      serve::EncodedCellInfo info;
      BIRNN_RETURN_IF_ERROR(incumbent.AppendQueryCell(
          a, row.values[static_cast<size_t>(a)], &val, &info));
      const int32_t truth = label_of(row, a, gate_oracle);
      val.labels.back() = truth;
      val_truth.push_back(truth);
    }
  }

  // Fine-tune sample, biased toward the drifted attributes: their cells
  // are replicated `drift_boost` times (deterministic replication — no
  // resampling noise), everything else appears once.
  const std::set<int> drifted(report.drifted_attrs.begin(),
                              report.drifted_attrs.end());
  const int boost = std::max(1, options_.drift_boost);
  data::EncodedDataset train;
  incumbent.InitQueryDataset(&train);
  for (int64_t i = val_rows; i < report.reservoir_rows; ++i) {
    const stream::ReservoirRow& row = reservoir[order[static_cast<size_t>(i)]];
    for (int a = 0; a < n_attrs; ++a) {
      const int32_t label = label_of(row, a, labels);
      const int copies = drifted.count(a) > 0 ? boost : 1;
      for (int c = 0; c < copies; ++c) {
        serve::EncodedCellInfo info;
        BIRNN_RETURN_IF_ERROR(incumbent.AppendQueryCell(
            a, row.values[static_cast<size_t>(a)], &train, &info));
        train.labels.back() = label;
      }
    }
  }
  report.train_cells = train.num_cells();
  report.validation_cells = val.num_cells();

  // Candidate = a clone of the incumbent's weights, warm fine-tuned. The
  // encoding stays frozen (same dictionary / length_norm denominators /
  // prepare transforms), so candidate and incumbent see identical inputs.
  auto model = std::make_unique<core::ErrorDetectionModel>(incumbent.config());
  model->Restore(incumbent.model().Snapshot());

  core::InferenceOptions eval_opts;
  eval_opts.eval_batch = options_.eval_batch;

  Stopwatch fine_tune_timer;
  if (options_.bn_only) {
    ThreadPool pool(core::TrainPoolThreads(options_.train_threads));
    core::CalibrateBatchNormMemoized(model.get(), train, eval_opts, &pool);
  } else {
    core::TrainerOptions t = options_.trainer;
    t.epochs = options_.fine_tune_epochs;
    t.start_epoch = 0;
    t.learning_rate = options_.learning_rate;
    t.seed = options_.seed;
    t.train_threads = options_.train_threads;
    t.eval_batch = options_.eval_batch;
    t.calibrate_batchnorm = true;
    t.track_test_accuracy = false;
    // The gate judges the candidate exactly as fine-tuned; restoring an
    // earlier epoch would make it judge weights nobody would serve.
    t.restore_best = false;
    core::Trainer(t).Fit(model.get(), train);
  }
  report.fine_tune_seconds = fine_tune_timer.ElapsedSeconds();

  // Promotion gate. The candidate sweep runs twice through independent
  // engines and must agree byte for byte — a non-reproducible evaluation
  // proves nothing about the candidate.
  std::vector<uint8_t> pred_incumbent;
  std::vector<uint8_t> pred_candidate;
  std::vector<uint8_t> pred_candidate_again;
  {
    core::InferenceEngine engine(incumbent.model(), eval_opts);
    engine.Predict(val, &pred_incumbent);
  }
  {
    core::InferenceEngine engine(*model, eval_opts);
    engine.Predict(val, &pred_candidate);
  }
  {
    core::InferenceEngine engine(*model, eval_opts);
    engine.Predict(val, &pred_candidate_again);
  }
  report.deterministic_eval = pred_candidate == pred_candidate_again;
  report.incumbent_f1 = eval::Evaluate(pred_incumbent, val_truth).F1();
  report.candidate_f1 = eval::Evaluate(pred_candidate, val_truth).F1();

  const bool gate_ok =
      report.deterministic_eval &&
      report.candidate_f1 + options_.f1_band >= report.incumbent_f1;
  if (!gate_ok) {
    ++rejections_;
    OBS_COUNTER_ADD("adapt.rejections", 1);
    report.outcome = AdaptOutcome::kRejected;
    if (!report.deterministic_eval) {
      report.reason = "candidate evaluation was not bit-reproducible";
    } else {
      report.reason = "candidate F1 " + std::to_string(report.candidate_f1) +
                      " below incumbent " +
                      std::to_string(report.incumbent_f1) + " - band " +
                      std::to_string(options_.f1_band);
    }
    return report;
  }

  // Refresh the frozen column statistics over the full (unreplicated)
  // reservoir under the candidate's weights — the next generation's drift
  // baselines, computed exactly like the offline detector export.
  data::EncodedDataset all;
  incumbent.InitQueryDataset(&all);
  std::vector<int64_t> attr_cells(static_cast<size_t>(n_attrs), 0);
  std::vector<int64_t> attr_empties(static_cast<size_t>(n_attrs), 0);
  for (const stream::ReservoirRow& row : reservoir) {
    for (int a = 0; a < n_attrs; ++a) {
      serve::EncodedCellInfo info;
      BIRNN_RETURN_IF_ERROR(incumbent.AppendQueryCell(
          a, row.values[static_cast<size_t>(a)], &all, &info));
      ++attr_cells[static_cast<size_t>(a)];
      if (info.empty) ++attr_empties[static_cast<size_t>(a)];
    }
  }
  std::vector<uint8_t> pred_all;
  core::InferenceEngine sweep(*model, eval_opts);
  sweep.Predict(all, &pred_all);
  std::vector<int64_t> attr_errors(static_cast<size_t>(n_attrs), 0);
  for (int64_t i = 0; i < all.num_cells(); ++i) {
    if (pred_all[static_cast<size_t>(i)] != 0) {
      ++attr_errors[static_cast<size_t>(all.attrs[static_cast<size_t>(i)])];
    }
  }

  core::TrainedDetector candidate;
  candidate.config = incumbent.config();
  candidate.chars = incumbent.chars();
  candidate.attr_names = incumbent.attr_names();
  candidate.attr_max_value_len = incumbent.attr_max_value_len();
  candidate.prepare = incumbent.prepare();
  candidate.train_unique_cells = sweep.stats().unique_cells;
  candidate.content_fingerprint = core::DatasetContentFingerprint(all);
  core::FreezeColumnStats(attr_cells, attr_empties, attr_errors, &candidate);
  candidate.model = std::move(model);

  if (!options_.candidate_dir.empty()) {
    BIRNN_RETURN_IF_ERROR(
        serve::SaveDetectorBundle(candidate, options_.candidate_dir));
    report.candidate_dir = options_.candidate_dir;
  }
  BIRNN_ASSIGN_OR_RETURN(serve::LoadedDetector loaded,
                         serve::MakeLoadedDetector(std::move(candidate)));
  current_ =
      std::make_shared<const serve::LoadedDetector>(std::move(loaded));

  ++promotions_;
  OBS_COUNTER_ADD("adapt.promotions", 1);
  OBS_GAUGE_SET("adapt.generation", promotions_);
  // Consume the trigger: the stream is judged fresh from here on.
  session->ResetDriftAlarms();
  report.outcome = AdaptOutcome::kPromoted;
  report.generation = promotions_;
  return report;
}

}  // namespace birnn::adapt
