#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "eval/report.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace birnn::bench {

void AddCommonFlags(FlagSet* flags, const std::string& default_json) {
  flags->AddInt("reps", 3, "repetitions per experiment (paper: 10)");
  flags->AddInt("epochs", 80, "training epochs (paper: 120)");
  flags->AddInt("tuples", 20, "labeled tuples for training (paper: 20)");
  flags->AddDouble("scale", 0.0,
                   "dataset row-count scale; 0 = fast per-dataset default");
  flags->AddInt("seed", 1000, "base seed");
  flags->AddBool("paper-fidelity", false,
                 "use the paper's full settings (reps=10, epochs=120, "
                 "scale=1). Slow on one core.");
  flags->AddString("datasets", "",
                   "comma-separated subset (beers,flights,hospital,movies,"
                   "rayyan,tax); empty = all");
  flags->AddInt("harness-threads", -1,
                "experiment-scheduler workers: -1 = hardware threads, "
                "0 = serial (results are identical either way)");
  flags->AddBool("cache", true,
                 "reuse cached (dataset, system, repetition) results and "
                 "store new ones (--cache=false disables)");
  flags->AddString("cache-dir", "",
                   "artifact cache directory; empty = $BIRNN_CACHE_DIR, "
                   "then .birnn-cache");
  flags->AddString("json", default_json,
                   "machine-readable output path (empty = skip)");
  flags->AddString("trace", "",
                   "Chrome trace_event JSON output path (load in "
                   "chrome://tracing; empty = skip)");
  flags->AddString("metrics", "",
                   "text metrics-snapshot output path (Prometheus "
                   "exposition; empty = skip)");
}

BenchConfig ParseCommonFlags(FlagSet* flags, int argc, char** argv,
                             const char* program) {
  Status st = flags->Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags->Usage(program).c_str());
    std::exit(2);
  }
  if (flags->help_requested()) {
    std::printf("%s", flags->Usage(program).c_str());
    std::exit(0);
  }
  const auto reject = [flags, program](const std::string& why) {
    std::fprintf(stderr, "%s\n%s", why.c_str(),
                 flags->Usage(program).c_str());
    std::exit(2);
  };
  BenchConfig config;
  config.reps = flags->GetInt("reps");
  config.epochs = flags->GetInt("epochs");
  config.n_label_tuples = flags->GetInt("tuples");
  config.scale = flags->GetDouble("scale");
  const int seed = flags->GetInt("seed");
  if (config.reps < 1) reject("--reps must be at least 1");
  if (config.epochs < 1) reject("--epochs must be at least 1");
  if (config.n_label_tuples < 1) reject("--tuples must be at least 1");
  if (config.scale < 0.0) reject("--scale must not be negative");
  if (seed < 0) reject("--seed must not be negative");
  config.seed = static_cast<uint64_t>(seed);
  config.paper_fidelity = flags->GetBool("paper-fidelity");
  if (config.paper_fidelity) {
    config.reps = 10;
    config.epochs = 120;
    config.scale = 1.0;
  }
  const std::string list = flags->GetString("datasets");
  if (!list.empty()) {
    for (const std::string& name : Split(list, ',')) {
      const std::string dataset = ToLower(Trim(name));
      if (dataset.empty()) continue;
      if (!datagen::FindDatasetSpec(dataset).ok()) {
        reject("--datasets: unknown dataset '" + dataset + "'");
      }
      config.datasets.push_back(dataset);
    }
  }
  config.harness_threads = flags->GetInt("harness-threads");
  config.cache_enabled = flags->GetBool("cache");
  config.cache_dir = flags->GetString("cache-dir");
  config.json_path = flags->GetString("json");
  config.trace_path = flags->GetString("trace");
  config.metrics_path = flags->GetString("metrics");
  return config;
}

double DefaultScale(const std::string& dataset, const BenchConfig& config) {
  if (config.scale > 0.0) return config.scale;
  auto spec = datagen::FindDatasetSpec(dataset);
  BIRNN_CHECK(spec.ok()) << spec.status().ToString();
  return 300.0 / spec->paper_rows;
}

datagen::DatasetPair MakePair(const std::string& dataset,
                              const BenchConfig& config) {
  datagen::GenOptions options;
  options.scale = DefaultScale(dataset, config);
  options.seed = config.seed ^ 0xDA7AULL;
  auto pair = datagen::MakeDataset(dataset, options);
  BIRNN_CHECK(pair.ok()) << pair.status().ToString();
  return std::move(*pair);
}

std::vector<std::string> DatasetList(const BenchConfig& config) {
  if (!config.datasets.empty()) return config.datasets;
  std::vector<std::string> out;
  for (const auto& spec : datagen::AllDatasetSpecs()) out.push_back(spec.name);
  return out;
}

std::map<std::string, datagen::DatasetPair> MakeAllPairs(
    const BenchConfig& config) {
  std::map<std::string, datagen::DatasetPair> pairs;
  for (const std::string& name : DatasetList(config)) {
    std::fprintf(stderr, "[datagen] %s...\n", name.c_str());
    pairs.emplace(name, MakePair(name, config));
  }
  return pairs;
}

eval::RunnerOptions MakeRunnerOptions(const BenchConfig& config,
                                      const std::string& model,
                                      const std::string& sampler) {
  eval::RunnerOptions options;
  options.repetitions = config.reps;
  options.base_seed = config.seed;
  options.detector.model = model;
  options.detector.sampler = sampler;
  options.detector.n_label_tuples = config.n_label_tuples;
  options.detector.trainer.epochs = config.epochs;
  return options;
}

std::unique_ptr<eval::ArtifactCache> MakeCache(const BenchConfig& config) {
  if (!config.cache_enabled) return nullptr;
  return std::make_unique<eval::ArtifactCache>(config.cache_dir);
}

eval::SchedulerOptions MakeSchedulerOptions(const BenchConfig& config,
                                            eval::ArtifactCache* cache) {
  eval::SchedulerOptions options;
  options.threads = config.harness_threads;
  options.cache = cache;
  return options;
}

void PrintSchedulerSummary(const eval::Scheduler& scheduler,
                           std::ostream& out) {
  const eval::SchedulerStats& stats = scheduler.stats();
  out << "\nHarness: " << stats.jobs << " jobs (" << stats.computed
      << " computed, " << stats.cache_hits << " cached, " << stats.failures
      << " failed), " << stats.outer_threads << " outer x "
      << (stats.inner_threads < 0 ? 0 : stats.inner_threads)
      << " inner workers, wall-clock "
      << FormatFixed(stats.wall_seconds, 1) << " s\n";
}

int BestEpoch(const std::vector<core::EpochStats>& history) {
  int best = 0;
  for (size_t e = 1; e < history.size(); ++e) {
    if (history[e].train_loss < history[static_cast<size_t>(best)].train_loss) {
      best = static_cast<int>(e);
    }
  }
  return best;
}

void AddRunsToF1Map(F1Map* map, const eval::RepeatedResult& result) {
  for (const eval::Metrics& m : result.runs) {
    (*map)[result.system][result.dataset].push_back(m.f1);
  }
}

std::vector<AggregateF1Row> AggregateF1(const F1Map& map) {
  std::vector<AggregateF1Row> rows;
  for (const auto& [system, datasets] : map) {
    AggregateF1Row row;
    row.system = system;
    std::vector<double> without_flights;
    std::vector<double> with_flights;
    for (const auto& [dataset, f1s] : datasets) {
      const double mean_f1 = Mean(f1s);
      row.mean_f1[dataset] = mean_f1;
      with_flights.push_back(mean_f1);
      if (dataset != "flights") without_flights.push_back(mean_f1);
    }
    row.avg_without_flights = Mean(without_flights);
    row.sd_without_flights = SampleStdDev(without_flights);
    row.avg_with_flights = Mean(with_flights);
    row.sd_with_flights = SampleStdDev(with_flights);
    rows.push_back(std::move(row));
  }
  return rows;
}

void PrintAggregateF1Table(const F1Map& map, std::ostream& out) {
  eval::TableWriter writer({"Name", "AVG w/o Flights", "S.D. w/o Flights",
                            "AVG with Flights", "S.D. with Flights"});
  for (const AggregateF1Row& row : AggregateF1(map)) {
    writer.AddRow({row.system, eval::Fmt2(row.avg_without_flights),
                   eval::Fmt2(row.sd_without_flights),
                   eval::Fmt2(row.avg_with_flights),
                   eval::Fmt2(row.sd_with_flights)});
  }
  writer.Print(out);
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ << "{";
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  counts_.pop_back();
  out_ << "}";
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ << "[";
  counts_.push_back(0);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  counts_.pop_back();
  out_ << "]";
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& name) {
  if (!counts_.empty() && counts_.back() > 0) out_ << ",";
  if (!counts_.empty()) counts_.back() = -1;  // String() below: no comma.
  String(name);
  out_ << ":";
  if (!counts_.empty()) counts_.back() = -1;  // next value: no comma.
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  out_ << '"';
  for (const char c : value) {
    switch (c) {
      case '"': out_ << "\\\""; break;
      case '\\': out_ << "\\\\"; break;
      case '\n': out_ << "\\n"; break;
      case '\r': out_ << "\\r"; break;
      case '\t': out_ << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ << buf;
        } else {
          out_ << c;
        }
    }
  }
  out_ << '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ << buf;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ << value;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ << (value ? "true" : "false");
  return *this;
}

void JsonWriter::BeforeValue() {
  if (counts_.empty()) return;
  if (counts_.back() > 0) out_ << ",";
  if (counts_.back() < 0) counts_.back() = 0;  // value after a key.
  ++counts_.back();
}

void WriteObsJson(JsonWriter* json) {
  const std::vector<obs::MetricSnapshot> snapshot =
      obs::Registry::Get().Snapshot();
  json->BeginObject();
  json->Key("counters").BeginObject();
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.type != obs::Metric::Type::kCounter) continue;
    json->Key(m.name).Int(m.counter);
  }
  json->EndObject();
  json->Key("gauges").BeginObject();
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.type != obs::Metric::Type::kGauge) continue;
    json->Key(m.name).Number(m.gauge);
  }
  json->EndObject();
  json->Key("histograms").BeginObject();
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.type != obs::Metric::Type::kHistogram) continue;
    json->Key(m.name).BeginObject();
    json->Key("count").Int(m.histogram.count);
    json->Key("sum").Number(m.histogram.sum);
    json->Key("p50").Number(m.histogram.Quantile(0.5));
    json->Key("p95").Number(m.histogram.Quantile(0.95));
    json->Key("p99").Number(m.histogram.Quantile(0.99));
    json->Key("max").Number(m.histogram.max);
    json->EndObject();
  }
  json->EndObject();
  json->EndObject();
}

void WriteObsArtifacts(const BenchConfig& config) {
  if (!config.trace_path.empty()) {
    const Status st = obs::Tracing::Get().WriteChromeTrace(config.trace_path);
    if (st.ok()) {
      std::printf("trace written to %s (open in chrome://tracing)\n",
                  config.trace_path.c_str());
    } else {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
    }
  }
  if (!config.metrics_path.empty()) {
    std::ofstream out(config.metrics_path, std::ios::trunc);
    if (out) out << obs::Registry::Get().TextExposition();
    if (out) {
      std::printf("metrics snapshot written to %s\n",
                  config.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   config.metrics_path.c_str());
    }
  }
}

}  // namespace birnn::bench
