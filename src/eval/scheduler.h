#ifndef BIRNN_EVAL_SCHEDULER_H_
#define BIRNN_EVAL_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "datagen/injector.h"
#include "eval/cache.h"
#include "eval/runner.h"

namespace birnn::eval {

/// How the scheduler splits the machine between the outer experiment
/// fan-out and each job's inner `train_threads`/`eval_threads` pools.
struct ThreadBudget {
  int outer = 0;  ///< jobs in flight (0 = run jobs inline on the caller).
  int inner = 0;  ///< worker threads *per job* for nested pools.
};

/// Budget rule: outer = min(requested, n_jobs); each in-flight job owns an
/// equal share of the hardware threads and spends (share - 1) on inner
/// workers (the job thread itself is the first member of its share), so
/// outer * (1 + inner) never exceeds the hardware. Thread counts never
/// change results (DESIGN.md §6/§7), so the budget is a pure performance
/// decision.
ThreadBudget ComputeThreadBudget(int hardware_threads, int requested_outer,
                                 int n_jobs);

/// Scheduler configuration.
struct SchedulerOptions {
  /// Outer workers for the job fan-out. 0 = serial (every job runs inline
  /// on the calling thread, in submission order, with its submitter's
  /// inner thread settings). -1 = one worker per hardware thread. When
  /// scheduled, every job's `train_threads`/`eval_threads`/`feature_threads`
  /// come from ComputeThreadBudget.
  int threads = 0;
  /// Borrowed result cache; null disables caching.
  ArtifactCache* cache = nullptr;
};

/// Harness-level accounting for one RunAll().
struct SchedulerStats {
  int64_t jobs = 0;        ///< jobs submitted.
  int64_t computed = 0;    ///< jobs that actually ran (cache miss).
  int64_t cache_hits = 0;  ///< jobs answered from the cache.
  int64_t failures = 0;    ///< jobs whose run failed (skipped in aggregates).
  double wall_seconds = 0.0;  ///< wall clock of RunAll().
  int outer_threads = 0;
  int inner_threads = 0;  ///< -1 when jobs kept their submitters' settings.
};

/// Job-graph executor for the experiment harness. The unit of work is one
/// (dataset, system, repetition) run; an *experiment* is the aggregate over
/// its repetitions, returned by Take() as one `RepeatedResult`.
///
/// Determinism contract: job seeds derive from `base_seed + repetition`
/// (identical to the serial harness), every job writes its outcome into its
/// own repetition slot, and aggregation reads the slots in repetition order
/// after all jobs finish. Aggregated metrics are therefore bit-identical to
/// the serial path for every thread count and completion order. Inner
/// thread counts are excluded from cache keys for the same reason: they are
/// proven not to change the bits.
///
/// Usage: submit every experiment first, then RunAll() once, then Take()
/// the aggregated results. Submitted `DatasetPair`s are borrowed and must
/// outlive RunAll().
class Scheduler {
 public:
  using ExperimentId = size_t;

  explicit Scheduler(SchedulerOptions options = {});

  /// The paper's neural detector, repeated `options.repetitions` times
  /// (seeds base_seed + rep). Each job also counts, per error class, the
  /// pair's injected errors its report flags (RepeatedResult::error_types).
  ExperimentId SubmitDetector(const datagen::DatasetPair& pair,
                              const RunnerOptions& options);

  /// The Raha baseline, repeated with sampling seeds base_seed + rep.
  ExperimentId SubmitRaha(const datagen::DatasetPair& pair, int repetitions,
                          int n_label_tuples, uint64_t base_seed);

  /// The Rotom-style baseline (ssl selects Rotom+SSL).
  ExperimentId SubmitRotom(const datagen::DatasetPair& pair, int repetitions,
                           int n_label_cells, bool ssl, uint64_t base_seed);

  /// Executes every pending job (cache lookups first), blocking until all
  /// finish. Call exactly once, after all submissions.
  void RunAll();

  /// Aggregated result of one experiment; valid after RunAll().
  RepeatedResult Take(ExperimentId id);

  const SchedulerStats& stats() const { return stats_; }

 private:
  struct Job {
    uint64_t cache_key = 0;
    /// Runs the repetition; `inner_threads` < 0 keeps submitter settings.
    std::function<JobOutcome(int inner_threads)> compute;
    JobOutcome outcome;
  };
  struct Experiment {
    std::string dataset;
    std::string system;
    std::vector<Job> jobs;  ///< index = repetition.
  };

  Experiment& NewExperiment(const datagen::DatasetPair& pair,
                            std::string system, int repetitions);

  SchedulerOptions options_;
  std::vector<Experiment> experiments_;
  SchedulerStats stats_;
  bool ran_ = false;
};

/// Canonical config strings hashed into cache keys (exposed for tests).
/// They cover every option that can change a run's bits and exclude the
/// thread counts, which cannot.
std::string DetectorJobConfig(const core::DetectorOptions& options);
std::string RahaJobConfig(int n_label_tuples, uint64_t seed);
std::string RotomJobConfig(int n_label_cells, bool ssl, uint64_t seed);

}  // namespace birnn::eval

#endif  // BIRNN_EVAL_SCHEDULER_H_
