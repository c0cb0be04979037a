#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace perfbench {

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <preamble|offline_tax|serve_zipf|stream_fresh|"
               "inputs> --seed=N [--seconds=S] [--trace=0|1] [--dir=PATH]\n"
               "       [--trace-out=PATH] [--workload=NAME] [--smoke=0|1]\n",
               argv0);
  std::exit(2);
}

}  // namespace

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage(argv[0]);
  Args args;
  args.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage(argv[0]);
    std::string name = arg.substr(2);
    std::string value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(argv[0]);
    }
    if (name == "seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (name == "trace") {
      args.trace = value == "1";
    } else if (name == "dir") {
      args.dir = value;
    } else if (name == "trace-out") {
      args.trace_out = value;
    } else if (name == "smoke") {
      args.smoke = value == "1";
    } else if (name == "workload") {
      args.workload = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (!(args.seconds > 0.0)) Usage(argv[0]);
  return args;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Tracer::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  const Clock::time_point now = Clock::now();
  spans_.push_back(Span{name, Ns(now), -1, parent});
  Charge(now);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  if (span < 0) return;
  const Clock::time_point now = Clock::now();
  spans_[static_cast<size_t>(span)].end_ns = Ns(now);
  Charge(now);
}

void Tracer::Add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, int parent) {
  if (!enabled_) return;
  const Clock::time_point now = Clock::now();
  spans_.push_back(Span{name, Ns(start), Ns(end), parent});
  Charge(now);
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << (i ? "," : "") << "\n{\"name\":\"" << JsonEscape(s.name) << "\","
        << buf << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

RegistryView RegistryView::Take() {
  RegistryView view;
  for (auto& m : birnn::obs::Registry::Get().Snapshot()) {
    std::string name = m.name;
    view.metrics_[name] = std::move(m);
  }
  return view;
}

int64_t RegistryView::Counter(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.counter;
}

birnn::obs::HistogramData RegistryView::Histogram(
    const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? birnn::obs::HistogramData{}
                              : it->second.histogram;
}

int64_t CounterDelta(const RegistryView& before, const RegistryView& after,
                     const std::string& name) {
  return after.Counter(name) - before.Counter(name);
}

void HistogramDelta(const RegistryView& before, const RegistryView& after,
                    const std::string& name, int64_t* count, double* sum) {
  const birnn::obs::HistogramData a = after.Histogram(name);
  const birnn::obs::HistogramData b = before.Histogram(name);
  *count = a.count - b.count;
  *sum = a.sum - b.sum;
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(name, Entry{value, unit});
}

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) Fail(1, what);
}

void Result::Fail(int64_t n, const std::string& what) {
  failed_ += n;
  std::cerr << "perfbench: FAILED: " << what << "\n";
}

void Result::Print() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char buf[64];
    const double v = metrics_[i].second.value;
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out.append(i ? ",\"" : "\"");
    out.append(JsonEscape(metrics_[i].first));
    out.append("\":{\"value\":");
    out.append(buf);
    out.append(",\"unit\":\"");
    out.append(JsonEscape(metrics_[i].second.unit));
    out.append("\"}");
  }
  out += "}}";
  std::cout << out << std::endl;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

void Die(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  std::exit(1);
}

}  // namespace perfbench
