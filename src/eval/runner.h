#ifndef BIRNN_EVAL_RUNNER_H_
#define BIRNN_EVAL_RUNNER_H_

#include <string>
#include <vector>

#include "core/detector.h"
#include "datagen/datasets.h"
#include "eval/cache.h"
#include "eval/metrics.h"
#include "util/stats.h"

namespace birnn::eval {

/// Aggregated outcome of repeating one experiment `n` times with different
/// seeds (the paper repeats 10 times and reports AVG and S.D.).
struct RepeatedResult {
  std::string dataset;
  std::string system;  ///< "TSB-RNN", "ETSB-RNN", "Raha", ...
  Summary precision;
  Summary recall;
  Summary f1;
  /// Per-repetition train/detect time, measured *inside* each job on its
  /// own thread — meaningful even when repetitions overlap (Table 5).
  Summary train_seconds;
  /// Per-repetition CPU time of the job thread (excludes inner pool
  /// workers); immune to contention inflation under concurrency.
  Summary train_cpu_seconds;
  /// Wall clock of the harness run that produced this result (covers every
  /// experiment scheduled together, not just this one). Report this — never
  /// the sum of train_seconds — as "how long the harness took".
  double harness_wall_seconds = 0.0;
  /// Repetitions answered from the artifact cache instead of recomputed.
  int64_t cache_hits = 0;
  /// Raw per-repetition metrics, for downstream aggregation.
  std::vector<Metrics> runs;
  /// Per-epoch accuracy curves per repetition (empty unless tracked).
  std::vector<std::vector<core::EpochStats>> histories;
  /// Injected errors per class outside each repetition's labeled tuples
  /// and how many the reports flagged, summed over the successful
  /// repetitions (detector experiments only; §5.5).
  ErrorTypeCounts error_types;
};

/// One experiment submitted to eval::Scheduler::SubmitDetector: the
/// paper's neural detector repeated `repetitions` times, seeds
/// `base_seed + rep`.
struct RunnerOptions {
  int repetitions = 10;
  uint64_t base_seed = 1000;
  core::DetectorOptions detector;
};

/// Mean epoch curve across repetitions: element e is the average of
/// `histories[*][e].test_accuracy` (or train_accuracy), together with its
/// 95% confidence half-width.
struct CurvePoint {
  int epoch = 0;
  double mean = 0.0;
  double ci95 = 0.0;
};
std::vector<CurvePoint> AverageTestAccuracyCurve(const RepeatedResult& result);
std::vector<CurvePoint> AverageTrainAccuracyCurve(const RepeatedResult& result);

}  // namespace birnn::eval

#endif  // BIRNN_EVAL_RUNNER_H_
