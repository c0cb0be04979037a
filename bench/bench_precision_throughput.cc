// Low-precision inference A/B: throughput and accuracy of the fp32 and int8
// kernel sets on the paper generators, with a CI95 accuracy gate.
//
// Per dataset and repetition (seeds config.seed + r): train a detector with
// the paper protocol (ErrorDetector), then
//   (a) sweep the whole table at each precision through the inference
//       engine and score F1 on the test cells (the paper's evaluation
//       protocol, identical split per repetition across precisions);
//   (b) time an unmemoized sweep over the first --timing-cells cells at
//       each precision — pure forward throughput, undiluted by the
//       memoizer's hashing (which all precisions share equally).
// The fp32 sweep is additionally checked bit-for-bit against the
// DetectionReport's own predictions: the quantized path must not have
// perturbed the reference numerics.
//
// The accuracy gate treats fp32 repetition-to-repetition variance (training
// is seed-sensitive; the kernels are deterministic) as the noise floor: a
// precision passes when |mean F1(precision) - mean F1(fp32)| lies within
// 1.96 * sd(F1 fp32) — the 95% band of the fp32 run distribution. With
// --gate the binary exits nonzero on any band violation (the CI job).
// Needs --reps >= 2, otherwise the band is undefined and the gate fails.
//
// Writes BENCH_precision.json: per dataset and precision the per-rep F1
// values, mean/sd, timing cells/sec, speedup vs fp32, and recurrent-stack
// weight bytes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "core/detector.h"
#include "core/inference.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "datagen/datasets.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "nn/quant.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace birnn::bench {
namespace {

constexpr nn::Precision kPrecisions[] = {nn::Precision::kFp32,
                                         nn::Precision::kInt8};
constexpr int kNumPrecisions = static_cast<int>(std::size(kPrecisions));

struct PrecisionStats {
  std::vector<double> f1;            ///< one per repetition.
  std::vector<double> cells_per_sec; ///< one per (repetition x timing rep).
  int64_t weight_bytes = 0;          ///< recurrent-stack weights at this tier.
  bool fp32_match = true;            ///< fp32 only: sweep == report.predicted.
};

struct DatasetResult {
  std::string dataset;
  int64_t cells = 0;
  int64_t unique_cells = 0;
  int64_t train_cells = 0;
  PrecisionStats per_precision[kNumPrecisions];
};

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Sample standard deviation (n - 1); 0 when underdetermined.
double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = Mean(v);
  double s = 0.0;
  for (const double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size() - 1));
}

/// F1 on the test cells (cells of tuples the sampler did not label) — the
/// same protocol as ErrorDetector's own report.test_metrics.
double TestF1(const data::EncodedDataset& all,
              const std::vector<uint8_t>& predicted,
              const std::vector<int32_t>& truth,
              const std::unordered_set<int64_t>& labeled_rows) {
  eval::Confusion confusion;
  for (int64_t i = 0; i < all.num_cells(); ++i) {
    if (labeled_rows.count(all.row_ids[static_cast<size_t>(i)]) > 0) continue;
    confusion.Add(predicted[static_cast<size_t>(i)],
                  truth[static_cast<size_t>(i)]);
  }
  return eval::Metrics::From(confusion).f1;
}

/// Sum of the recurrent-stack weight bytes resident at each precision tier:
/// fp32 from the wx/wh parameters themselves, int8 from the exported
/// shadow entries (which include the per-row scales).
void WeightBytes(const core::ErrorDetectionModel& model, int64_t* fp32,
                 int64_t* int8) {
  *fp32 = *int8 = 0;
  for (const nn::Parameter* p : model.ConstParams()) {
    const std::string& n = p->name;
    if (n.find("rnn/") == std::string::npos) continue;
    const size_t slash = n.rfind('/');
    const std::string leaf = n.substr(slash + 1);
    if (leaf != "wx" && leaf != "wh") continue;
    *fp32 += static_cast<int64_t>(p->value.size()) * 4;
  }
  std::vector<nn::TypedEntry> extras;
  model.ExportQuantized(&extras);
  for (const nn::TypedEntry& e : extras) {
    *int8 += static_cast<int64_t>(e.bytes.size());
  }
}

int Run(int argc, char** argv) {
  FlagSet flags;
  AddCommonFlags(&flags, "BENCH_precision.json");
  flags.AddInt("eval-batch", 256, "cells per forward batch");
  flags.AddInt("timing-cells", 8192,
               "cells per unmemoized timing sweep (capped at the table)");
  flags.AddInt("timing-reps", 2, "timing sweeps per trained model");
  flags.AddBool("gate", false,
                "exit nonzero when a quantized F1 leaves the fp32 CI95 band");
  BenchConfig config =
      ParseCommonFlags(&flags, argc, argv, "bench_precision_throughput");
  const int eval_batch = flags.GetInt("eval-batch");
  const int timing_cells = std::max(1, flags.GetInt("timing-cells"));
  const int timing_reps = std::max(1, flags.GetInt("timing-reps"));
  const bool gate = flags.GetBool("gate");

  std::cout << "=== Precision A/B: fp32 vs int8 (reps=" << config.reps
            << ", timing_cells=" << timing_cells << ") ===\n\n";

  std::vector<DatasetResult> results;
  for (const std::string& dataset : DatasetList(config)) {
    const datagen::DatasetPair pair = MakePair(dataset, config);
    DatasetResult result;
    result.dataset = dataset;

    for (int rep = 0; rep < config.reps; ++rep) {
      core::DetectorOptions opts;
      opts.seed = config.seed + static_cast<uint64_t>(rep);
      opts.n_label_tuples = config.n_label_tuples;
      opts.trainer.epochs = config.epochs;
      opts.trainer.eval_batch = eval_batch;
      core::ErrorDetector detector(opts);
      core::TrainedDetector trained;
      auto report = detector.Run(pair.dirty, pair.clean, &trained);
      if (!report.ok()) {
        std::cerr << dataset << " rep " << rep
                  << ": detector failed: " << report.status().message()
                  << "\n";
        return 1;
      }

      // The detector's own frame, re-derived (PrepareData and the
      // dictionary are deterministic), so sweeps see the exact inputs that
      // produced report->predicted.
      auto frame = data::PrepareData(pair.dirty, pair.clean, opts.prepare);
      if (!frame.ok()) {
        std::cerr << dataset << ": PrepareData failed\n";
        return 1;
      }
      const data::CharIndex chars = data::CharIndex::Build(*frame);
      const data::EncodedDataset all = data::EncodeCells(*frame, chars);
      const std::unordered_set<int64_t> labeled_rows(
          report->labeled_tuples.begin(), report->labeled_tuples.end());
      result.cells = all.num_cells();
      result.train_cells = report->train_cells;

      const core::ErrorDetectionModel& model = *trained.model;
      for (int p = 0; p < kNumPrecisions; ++p) {
        PrecisionStats& stats = result.per_precision[p];

        // (a) Accuracy: full-table memoized sweep at this precision.
        core::InferenceOptions accuracy_options;
        accuracy_options.eval_batch = eval_batch;
        accuracy_options.precision = kPrecisions[p];
        core::InferenceEngine engine(model, accuracy_options);
        std::vector<uint8_t> labels;
        engine.Predict(all, &labels);
        result.unique_cells = engine.stats().unique_cells;
        stats.f1.push_back(TestF1(all, labels, report->truth, labeled_rows));
        if (kPrecisions[p] == nn::Precision::kFp32 &&
            labels != report->predicted) {
          stats.fp32_match = false;
        }

        // (b) Throughput: unmemoized sweeps over a fixed cell prefix.
        std::vector<int64_t> timing_ids(
            static_cast<size_t>(std::min<int64_t>(timing_cells, all.num_cells())));
        for (size_t i = 0; i < timing_ids.size(); ++i) {
          timing_ids[i] = static_cast<int64_t>(i);
        }
        core::InferenceOptions timing_options = accuracy_options;
        timing_options.memoize = false;
        core::InferenceEngine timer(model, timing_options);
        for (int t = 0; t < timing_reps; ++t) {
          std::vector<float> probs;
          timer.PredictProbs(all, timing_ids, &probs);
          const core::InferenceStats& s = timer.stats();
          stats.cells_per_sec.push_back(
              s.seconds > 0 ? static_cast<double>(s.cells) / s.seconds : 0.0);
        }
      }

      if (rep == 0) {
        WeightBytes(model, &result.per_precision[0].weight_bytes,
                    &result.per_precision[1].weight_bytes);
      }
      std::cerr << "[precision] " << dataset << " rep " << rep << " f1 fp32="
                << FormatFixed(result.per_precision[0].f1.back(), 4)
                << " int8="
                << FormatFixed(result.per_precision[1].f1.back(), 4) << "\n";
    }
    results.push_back(std::move(result));
  }

  // Report + gate. The fp32 CI95 band needs a spread estimate: sd over at
  // least two repetitions.
  eval::TableWriter writer({"Dataset", "Precision", "F1 mean", "F1 sd",
                            "dF1 vs fp32", "CI95 band", "Gate", "Cells/s",
                            "Speedup", "Weights"});
  int gate_failures = 0;
  const bool band_defined = config.reps >= 2;
  for (const DatasetResult& result : results) {
    const double f1_fp32 = Mean(result.per_precision[0].f1);
    const double band = 1.96 * StdDev(result.per_precision[0].f1);
    const double fp32_cps = Mean(result.per_precision[0].cells_per_sec);
    for (int p = 0; p < kNumPrecisions; ++p) {
      const PrecisionStats& stats = result.per_precision[p];
      const double f1 = Mean(stats.f1);
      const double delta = f1 - f1_fp32;
      const double cps = Mean(stats.cells_per_sec);
      const bool in_band =
          band_defined && std::fabs(delta) <= band + 1e-12;
      const bool gated = p != 0;  // fp32 is the reference, not gated.
      if (gated && !in_band) ++gate_failures;
      if (p == 0 && !stats.fp32_match) {
        std::cout << "WARNING: " << result.dataset
                  << ": fp32 sweep diverged from the detector report — "
                     "reference numerics perturbed\n";
        ++gate_failures;
      }
      writer.AddRow(
          {p == 0 ? result.dataset : "", nn::PrecisionName(kPrecisions[p]),
           FormatFixed(f1, 4), FormatFixed(StdDev(stats.f1), 4),
           gated ? FormatFixed(delta, 4) : "-",
           gated ? FormatFixed(band, 4) : "-",
           !gated ? "-" : (in_band ? "pass" : "FAIL"), FormatFixed(cps, 0),
           FormatFixed(fp32_cps > 0 ? cps / fp32_cps : 0.0, 2) + "x",
           std::to_string(stats.weight_bytes)});
    }
  }
  writer.Print(std::cout);
  if (!band_defined) {
    std::cout << "\nWARNING: --reps < 2, fp32 CI95 band undefined — every "
                 "gate fails\n";
  }

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    JsonWriter json(out);
    json.BeginObject();
    json.Key("reps").Int(config.reps);
    json.Key("epochs").Int(config.epochs);
    json.Key("scale").Number(config.scale);
    json.Key("seed").Int(static_cast<int64_t>(config.seed));
    json.Key("eval_batch").Int(eval_batch);
    json.Key("timing_cells").Int(timing_cells);
    json.Key("timing_reps").Int(timing_reps);
    json.Key("datasets").BeginArray();
    for (const DatasetResult& result : results) {
      const double f1_fp32 = Mean(result.per_precision[0].f1);
      const double band = 1.96 * StdDev(result.per_precision[0].f1);
      const double fp32_cps = Mean(result.per_precision[0].cells_per_sec);
      json.BeginObject();
      json.Key("dataset").String(result.dataset);
      json.Key("cells").Int(result.cells);
      json.Key("unique_cells").Int(result.unique_cells);
      json.Key("train_cells").Int(result.train_cells);
      json.Key("fp32_ci95_band").Number(band);
      json.Key("precisions").BeginArray();
      for (int p = 0; p < kNumPrecisions; ++p) {
        const PrecisionStats& stats = result.per_precision[p];
        const double f1 = Mean(stats.f1);
        const double cps = Mean(stats.cells_per_sec);
        json.BeginObject();
        json.Key("precision").String(nn::PrecisionName(kPrecisions[p]));
        json.Key("f1_runs").BeginArray();
        for (const double v : stats.f1) json.Number(v);
        json.EndArray();
        json.Key("f1_mean").Number(f1);
        json.Key("f1_sd").Number(StdDev(stats.f1));
        json.Key("f1_delta_vs_fp32").Number(f1 - f1_fp32);
        json.Key("within_ci95").Bool(band_defined &&
                                     std::fabs(f1 - f1_fp32) <= band + 1e-12);
        json.Key("cells_per_sec").Number(cps);
        json.Key("speedup_vs_fp32").Number(fp32_cps > 0 ? cps / fp32_cps
                                                        : 0.0);
        json.Key("weight_bytes").Int(stats.weight_bytes);
        if (p == 0) json.Key("matches_report").Bool(stats.fp32_match);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    out << "\n";
    std::cout << "\nwrote " << config.json_path << "\n";
  }

  if (gate && gate_failures > 0) {
    std::cout << "\nprecision gate: " << gate_failures << " failure(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace birnn::bench

int main(int argc, char** argv) { return birnn::bench::Run(argc, argv); }
