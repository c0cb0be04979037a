// Shared plumbing of the benchmark workloads: flags, timing, quantiles,
// the in-memory span tracer, registry deltas and the result line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command line of one workload process: `--name=value` or `--name value`.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Bundle directory (serve_zipf, stream_fresh) or output directory
  /// (preamble, offline_tax).
  std::string dir;
  /// Where the traced run writes its Chrome trace (empty = nowhere).
  std::string trace_out;
  /// Smoke mode: reduced table scales and schedules, for the tests.
  bool smoke = false;
};

/// Parses argv[2..]; exits with a usage message on anything unknown.
Args ParseArgs(int argc, char** argv);

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// Peak resident set of this process so far, MiB.
double PeakRssMib();

/// Spans recorded by the benchmark around calls into the program's layers.
/// Kept in memory; written out as Chrome trace_event JSON at the end.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span and returns its index (-1 when disabled). `parent` is the
  /// index of the enclosing span, or -1.
  int Begin(const std::string& name, int parent = -1);
  void End(int span);
  /// Records an already-timed interval.
  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end, int parent = -1);

  /// Summed duration of every span called `name`, seconds.
  double TotalSeconds(const std::string& name) const;

  /// Time spent recording spans, plus whatever callers Charge() for
  /// trace-only bookkeeping: the tracing overhead inside a measured window.
  double overhead_s() const { return overhead_s_; }
  void Charge(Clock::time_point since) {
    overhead_s_ += SecondsBetween(since, Clock::now());
  }

  /// Writes the spans as Chrome trace_event JSON; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  double overhead_s_ = 0.0;
  std::vector<Span> spans_;
};

/// A snapshot of the process metrics registry, keyed by metric name, so a
/// phase can be accounted as the difference of two snapshots.
class RegistryView {
 public:
  static RegistryView Take();
  int64_t Counter(const std::string& name) const;
  birnn::obs::HistogramData Histogram(const std::string& name) const;

 private:
  std::map<std::string, birnn::obs::MetricSnapshot> metrics_;
};

/// Counter difference `after - before`.
int64_t CounterDelta(const RegistryView& before, const RegistryView& after,
                     const std::string& name);
/// Histogram (count, sum) difference `after - before`.
void HistogramDelta(const RegistryView& before, const RegistryView& after,
                    const std::string& name, int64_t* count, double* sum);

/// The workload's result: correctness accounting plus named metrics. Print
/// emits the one JSON line run.py reads.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Counts one checked operation; `ok` false counts it as failed and
  /// records `what` on stderr.
  void Check(bool ok, const std::string& what);
  void Attempt(int64_t n) { attempted_ += n; }
  void Fail(int64_t n, const std::string& what);
  void Print() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::pair<std::string, Entry>> metrics_;
};

/// Escapes `s` as the body of a JSON string literal.
std::string JsonEscape(const std::string& s);

[[noreturn]] void Die(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
