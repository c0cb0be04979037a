#ifndef BIRNN_BENCH_BENCH_COMMON_H_
#define BIRNN_BENCH_BENCH_COMMON_H_

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "datagen/datasets.h"
#include "eval/scheduler.h"
#include "util/flags.h"

namespace birnn::bench {

/// Settings shared by every experiment binary. Defaults are sized for a
/// 1-core machine; `--paper-fidelity` switches to the paper's full setup
/// (10 repetitions, 120 epochs, unscaled datasets). EXPERIMENTS.md records
/// which configuration produced the committed outputs.
struct BenchConfig {
  int reps = 3;
  int epochs = 80;
  int n_label_tuples = 20;
  double scale = 0.0;  ///< 0 = per-dataset default targeting ~300 rows.
  uint64_t seed = 1000;
  bool paper_fidelity = false;
  std::vector<std::string> datasets;  ///< empty = all six.

  /// Outer experiment-scheduler workers: -1 = one per hardware thread
  /// (default), 0 = serial, in submission order. Aggregates are
  /// bit-identical for every value (DESIGN.md §8).
  int harness_threads = -1;
  /// Artifact cache for (dataset, system, repetition) results; warm
  /// re-runs skip completed cells. `--cache=false` disables.
  bool cache_enabled = true;
  /// Cache directory; empty = $BIRNN_CACHE_DIR, then ".birnn-cache".
  std::string cache_dir;
  /// Machine-readable output next to the text tables; empty = skip.
  std::string json_path;
  /// Chrome trace_event JSON of the run's obs spans; empty = skip.
  std::string trace_path;
  /// Prometheus-style text snapshot of the obs registry; empty = skip.
  std::string metrics_path;
};

/// Registers the shared flags on `flags`. `default_json` is the bench's
/// JSON output path (empty = bench has no JSON output).
void AddCommonFlags(FlagSet* flags, const std::string& default_json = "");

/// Reads the shared flags back; exits with usage on --help (status 0), on
/// a parse error or on an invalid setting (status 2): `reps`, `epochs` or
/// `tuples` below 1, a negative `scale` or `seed`, or an unknown dataset.
BenchConfig ParseCommonFlags(FlagSet* flags, int argc, char** argv,
                             const char* program);

/// Default generation scale for a dataset so benches finish on one core
/// (~300 rows each); 1.0 under paper fidelity.
double DefaultScale(const std::string& dataset, const BenchConfig& config);

/// Generates one dataset pair under the bench configuration.
datagen::DatasetPair MakePair(const std::string& dataset,
                              const BenchConfig& config);

/// The dataset list this run covers (config.datasets or all six).
std::vector<std::string> DatasetList(const BenchConfig& config);

/// Generates every pair of DatasetList(config), keyed by dataset name.
/// Scheduler jobs borrow the pairs, so keep the map alive across RunAll().
std::map<std::string, datagen::DatasetPair> MakeAllPairs(
    const BenchConfig& config);

/// Builds detector-based runner options with the bench configuration
/// applied (model "tsb"/"etsb", sampler name).
eval::RunnerOptions MakeRunnerOptions(const BenchConfig& config,
                                      const std::string& model,
                                      const std::string& sampler = "diverset");

/// The bench's artifact cache per config (null when disabled).
std::unique_ptr<eval::ArtifactCache> MakeCache(const BenchConfig& config);

/// Scheduler options per config (`cache` borrowed, may be null).
eval::SchedulerOptions MakeSchedulerOptions(const BenchConfig& config,
                                            eval::ArtifactCache* cache);

/// One-line harness accounting ("6 jobs, 4 computed, 2 cached, 8 workers,
/// 12.3 s wall") printed by every scheduled bench.
void PrintSchedulerSummary(const eval::Scheduler& scheduler,
                           std::ostream& out);

/// Epoch with the lowest train loss of one repetition's history (the
/// paper's checkpoint-selection rule; Fig. 6/7 markers).
int BestEpoch(const std::vector<core::EpochStats>& history);

/// system -> dataset -> per-repetition F1 values; the shape both Table 4
/// paths aggregate.
using F1Map = std::map<std::string, std::map<std::string, std::vector<double>>>;

/// Appends `result.runs` F1 values under (result.system, result.dataset).
void AddRunsToF1Map(F1Map* map, const eval::RepeatedResult& result);

/// One row of the paper's Table 4: a system's mean F1 per dataset and
/// their average and S.D. across datasets, without and with Flights.
struct AggregateF1Row {
  std::string system;
  std::map<std::string, double> mean_f1;  ///< dataset -> mean F1.
  double avg_without_flights = 0.0;
  double sd_without_flights = 0.0;
  double avg_with_flights = 0.0;
  double sd_with_flights = 0.0;
};

/// Table 4's rows, one per system of `map`, in system-name order.
std::vector<AggregateF1Row> AggregateF1(const F1Map& map);

/// Renders AggregateF1(map) as the paper's Table 4.
void PrintAggregateF1Table(const F1Map& map, std::ostream& out);

/// Minimal streaming JSON writer (comma/escape handling only — no
/// formatting options). Used by the benches' machine-readable outputs.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(const std::string& name);
  JsonWriter& String(const std::string& value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);

 private:
  void BeforeValue();

  std::ostream& out_;
  /// One entry per open container: number of elements written so far;
  /// -1 flags "a key was just written, next value needs no comma".
  std::vector<int64_t> counts_;
};

/// Writes the current obs registry snapshot as one JSON object:
/// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,p50,p95,
/// p99,max}}}. The writer must be positioned for a value.
void WriteObsJson(JsonWriter* json);

/// Honors --trace / --metrics: dumps the Chrome trace and the text
/// exposition of everything recorded so far to the configured paths
/// (each skipped when empty). Prints where the artifacts went.
void WriteObsArtifacts(const BenchConfig& config);

}  // namespace birnn::bench

#endif  // BIRNN_BENCH_BENCH_COMMON_H_
