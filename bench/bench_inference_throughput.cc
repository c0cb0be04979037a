// Whole-table inference throughput: cells/second for the forward-only
// sweep on each paper generator, comparing
//   naive     — the pre-engine path: allocate a fresh full-length batch per
//               chunk and run the scratch-free model forward,
//   memoized  — InferenceEngine at its defaults: duplicate-cell memoization
//               and the length-sorted plan (backward pad-prefix reuse).
// Writes a machine-readable summary to --json (default BENCH_inference.json;
// see run_inference_throughput.sh).
//
// The engine produces probabilities bit-identical to the naive sweep
// (every forward kernel is row-independent and batch-size invariant, so the
// naive arm's chunks compute the same bits); the harness verifies this per
// dataset and refuses to report a speedup otherwise. Speedups come from
// work removal (dedup factor, skipped RNN steps) and allocation reuse, not
// threads — run with --threads for the multi-lane sweep.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/inference.h"
#include "core/model.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "datagen/datasets.h"
#include "datagen/synthetic.h"
#include "eval/report.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace birnn::bench {
namespace {

struct ModeResult {
  double seconds = 0.0;
  double cells_per_sec = 0.0;
  std::vector<float> probs;
};

struct DatasetRow {
  std::string dataset;
  int64_t cells = 0;
  int64_t unique_cells = 0;
  double dedup_factor = 1.0;
  double step_fraction = 1.0;  // memo rnn_steps / dense rnn_steps.
  ModeResult naive;
  ModeResult memo;
  bool probs_match = false;
};

// The pre-engine sweep: for each eval_batch chunk, build a fresh
// full-length BatchInput and run the scratch-free forward. This is what
// Trainer::PredictDataset did before the engine existed.
void NaiveSweep(const core::ErrorDetectionModel& model,
                const data::EncodedDataset& ds, int eval_batch,
                ModeResult* out) {
  const int64_t n = ds.num_cells();
  out->probs.assign(static_cast<size_t>(n), 0.0f);
  Stopwatch timer;
  for (int64_t begin = 0; begin < n; begin += eval_batch) {
    const int64_t end = std::min<int64_t>(begin + eval_batch, n);
    std::vector<int64_t> ids;
    ids.reserve(static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) ids.push_back(i);
    const core::BatchInput batch = core::MakeBatch(ds, ids);
    std::vector<float> probs;
    model.PredictProbs(batch, &probs);
    std::copy(probs.begin(), probs.end(),
              out->probs.begin() + static_cast<size_t>(begin));
  }
  out->seconds = timer.ElapsedSeconds();
  out->cells_per_sec =
      out->seconds > 0 ? static_cast<double>(n) / out->seconds : 0.0;
}

void EngineSweep(const core::ErrorDetectionModel& model,
                 const data::EncodedDataset& ds,
                 const core::InferenceOptions& options, ModeResult* out,
                 core::InferenceStats* stats) {
  core::InferenceEngine engine(model, options);
  engine.PredictProbs(ds, {}, &out->probs);
  *stats = engine.stats();
  out->seconds = stats->seconds;
  out->cells_per_sec = out->seconds > 0
                           ? static_cast<double>(ds.num_cells()) / out->seconds
                           : 0.0;
}

int Run(int argc, char** argv) {
  FlagSet flags;
  AddCommonFlags(&flags, "BENCH_inference.json");
  flags.AddInt("eval-batch", 256, "cells per forward batch");
  flags.AddInt("threads", 0, "worker threads for the engine sweeps");
  flags.AddInt("synthetic-rows", 0,
               "also sweep a synthetic duplicate-heavy table with this many "
               "rows (0 = off; the table is materialized, so keep total "
               "cells moderate here — bench_memo_footprint streams)");
  flags.AddInt("synthetic-cols", 2, "synthetic table columns");
  flags.AddInt("synthetic-uniques", 20000,
               "distinct cell contents per synthetic column");
  flags.AddInt("synthetic-naive-cells", 20000,
               "naive-arm sample size on the synthetic table (extrapolated)");
  BenchConfig config =
      ParseCommonFlags(&flags, argc, argv, "bench_inference_throughput");
  const int eval_batch = flags.GetInt("eval-batch");
  const int threads = flags.GetInt("threads");
  const int64_t synthetic_rows = flags.GetInt("synthetic-rows");

  std::cout << "=== Inference throughput (eval_batch=" << eval_batch
            << ", threads=" << threads << ") ===\n\n";

  std::vector<DatasetRow> rows;
  eval::TableWriter writer({"Dataset", "Cells", "Dedup", "Naive c/s",
                            "Memo c/s", "Speedup", "Steps", "Match"});
  for (const std::string& dataset : DatasetList(config)) {
    const datagen::DatasetPair pair = MakePair(dataset, config);
    auto frame = data::PrepareData(pair.dirty, pair.clean);
    if (!frame.ok()) {
      std::cerr << dataset << ": PrepareData failed: "
                << frame.status().message() << "\n";
      return 1;
    }
    const data::CharIndex chars = data::CharIndex::Build(*frame);
    const data::EncodedDataset all = data::EncodeCells(*frame, chars);

    core::ModelConfig model_config;
    model_config.vocab = all.vocab;
    model_config.max_len = all.max_len;
    model_config.n_attrs = all.n_attrs;
    model_config.enriched = true;
    model_config.seed = config.seed;
    core::ErrorDetectionModel model(model_config);
    model.CalibrateBatchNorm(all, eval_batch);

    DatasetRow row;
    row.dataset = dataset;
    row.cells = all.num_cells();

    NaiveSweep(model, all, eval_batch, &row.naive);

    core::InferenceOptions memo_options;
    memo_options.eval_batch = eval_batch;
    memo_options.threads = threads;
    core::InferenceStats memo_stats;
    EngineSweep(model, all, memo_options, &row.memo, &memo_stats);
    row.unique_cells = memo_stats.unique_cells;
    row.dedup_factor = memo_stats.dedup_factor;
    row.step_fraction =
        memo_stats.rnn_steps_dense > 0
            ? static_cast<double>(memo_stats.rnn_steps) /
                  static_cast<double>(memo_stats.rnn_steps_dense)
            : 1.0;

    row.probs_match = row.memo.probs == row.naive.probs;
    rows.push_back(row);

    const double memo_speedup = row.naive.seconds > 0 && row.memo.seconds > 0
                                    ? row.naive.seconds / row.memo.seconds
                                    : 0.0;
    writer.AddRow({dataset, std::to_string(row.cells),
                   FormatFixed(row.dedup_factor, 1) + "x",
                   FormatFixed(row.naive.cells_per_sec, 0),
                   FormatFixed(row.memo.cells_per_sec, 0),
                   FormatFixed(memo_speedup, 1) + "x",
                   FormatFixed(100.0 * row.step_fraction, 0) + "%",
                   row.probs_match ? "yes" : "NO"});
    std::cerr << "[inference] " << dataset << " naive="
              << FormatFixed(row.naive.seconds, 2) << "s memo="
              << FormatFixed(row.memo.seconds, 2) << "s\n";
  }

  // Optional duplicate-heavy synthetic table (warehouse-scale shape at
  // bench-scale row counts). The naive arm runs on a prefix sample and is
  // extrapolated — at these duplication factors the full naive sweep would
  // dominate the bench by hours without adding information.
  if (synthetic_rows > 0) {
    datagen::SyntheticSpec spec;
    spec.rows = synthetic_rows;
    spec.cols = flags.GetInt("synthetic-cols");
    spec.uniques_per_col = flags.GetInt("synthetic-uniques");
    spec.seed = config.seed;
    const datagen::SyntheticDataGen gen(spec);
    data::EncodedDataset all;
    gen.FillChunk(0, spec.rows, &all);

    core::ModelConfig model_config;
    model_config.vocab = all.vocab;
    model_config.max_len = all.max_len;
    model_config.n_attrs = all.n_attrs;
    model_config.units = 16;
    model_config.stacks = 1;
    model_config.enriched = true;
    model_config.seed = config.seed;
    core::ErrorDetectionModel model(model_config);
    model.CalibrateBatchNorm(all, eval_batch);

    DatasetRow row;
    row.dataset = "synthetic";
    row.cells = all.num_cells();

    const int64_t sample = std::min<int64_t>(
        all.num_cells(),
        std::max<int64_t>(flags.GetInt("synthetic-naive-cells"), eval_batch));
    {
      std::vector<int64_t> ids(static_cast<size_t>(sample));
      for (int64_t i = 0; i < sample; ++i) ids[static_cast<size_t>(i)] = i;
      const data::EncodedDataset head = data::TakeCells(all, ids);
      NaiveSweep(model, head, eval_batch, &row.naive);
    }

    core::InferenceOptions memo_options;
    memo_options.eval_batch = eval_batch;
    memo_options.threads = threads;
    core::InferenceStats memo_stats;
    EngineSweep(model, all, memo_options, &row.memo, &memo_stats);
    row.unique_cells = memo_stats.unique_cells;
    row.dedup_factor = memo_stats.dedup_factor;
    row.step_fraction =
        memo_stats.rnn_steps_dense > 0
            ? static_cast<double>(memo_stats.rnn_steps) /
                  static_cast<double>(memo_stats.rnn_steps_dense)
            : 1.0;

    // Naive covered only the sample prefix: compare it bit-exactly with
    // the engine's prefix.
    row.probs_match = std::equal(row.naive.probs.begin(),
                                 row.naive.probs.end(), row.memo.probs.begin());
    // Extrapolate the naive arm to the full cell count for the speedup
    // columns (cells/sec is measured, seconds is scaled).
    if (row.naive.cells_per_sec > 0) {
      row.naive.seconds =
          static_cast<double>(row.cells) / row.naive.cells_per_sec;
    }
    rows.push_back(row);

    const double memo_speedup = row.naive.seconds > 0 && row.memo.seconds > 0
                                    ? row.naive.seconds / row.memo.seconds
                                    : 0.0;
    writer.AddRow({row.dataset, std::to_string(row.cells),
                   FormatFixed(row.dedup_factor, 1) + "x",
                   FormatFixed(row.naive.cells_per_sec, 0) + "*",
                   FormatFixed(row.memo.cells_per_sec, 0),
                   FormatFixed(memo_speedup, 1) + "x",
                   FormatFixed(100.0 * row.step_fraction, 0) + "%",
                   row.probs_match ? "yes" : "NO"});
    std::cerr << "[inference] synthetic rows=" << spec.rows << " cols="
              << spec.cols << " uniques/col=" << spec.uniques_per_col
              << " memo=" << FormatFixed(row.memo.seconds, 2)
              << "s (naive extrapolated from " << sample << " cells)\n";
  }
  writer.Print(std::cout);

  int mismatches = 0;
  for (const DatasetRow& row : rows) {
    if (!row.probs_match) ++mismatches;
  }
  if (mismatches > 0) {
    std::cout << "\nWARNING: " << mismatches
              << " dataset(s) with prediction mismatch — speedups invalid\n";
  }

  const std::string& json_path = config.json_path;
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    // JsonWriter emits doubles with %.17g, so the recorded throughputs and
    // speedups round-trip exactly (ostream's default 6 digits does not).
    JsonWriter json(out);
    json.BeginObject();
    json.Key("eval_batch").Int(eval_batch);
    json.Key("threads").Int(threads);
    json.Key("datasets").BeginArray();
    for (const DatasetRow& row : rows) {
      const double memo_speedup =
          row.memo.seconds > 0 ? row.naive.seconds / row.memo.seconds : 0.0;
      json.BeginObject();
      json.Key("dataset").String(row.dataset);
      json.Key("cells").Int(row.cells);
      json.Key("unique_cells").Int(row.unique_cells);
      json.Key("dedup_factor").Number(row.dedup_factor);
      json.Key("naive_cells_per_sec").Number(row.naive.cells_per_sec);
      json.Key("memo_cells_per_sec").Number(row.memo.cells_per_sec);
      json.Key("memo_speedup").Number(memo_speedup);
      json.Key("memo_step_fraction").Number(row.step_fraction);
      json.Key("predictions_match").Bool(row.probs_match);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    out << "\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  return mismatches > 0 ? 1 : 0;
}

}  // namespace
}  // namespace birnn::bench

int main(int argc, char** argv) { return birnn::bench::Run(argc, argv); }
