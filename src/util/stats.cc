#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace birnn {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

namespace {
double SumSquaredDeviations(const std::vector<double>& xs, double mean) {
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - mean;
    ss += d * d;
  }
  return ss;
}
}  // namespace

double SampleStdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  return std::sqrt(SumSquaredDeviations(xs, m) /
                   static_cast<double>(xs.size() - 1));
}

double ConfidenceInterval95(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  return 1.96 * SampleStdDev(xs) / std::sqrt(static_cast<double>(xs.size()));
}

double Min(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

Summary Summarize(const std::vector<double>& xs) {
  Summary s;
  s.n = xs.size();
  s.mean = Mean(xs);
  s.stddev = SampleStdDev(xs);
  s.ci95 = ConfidenceInterval95(xs);
  s.min = Min(xs);
  s.max = Max(xs);
  return s;
}

}  // namespace birnn
