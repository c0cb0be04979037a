#ifndef BIRNN_UTIL_STATS_H_
#define BIRNN_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace birnn {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator); 0 for n < 2.
double SampleStdDev(const std::vector<double>& xs);

/// Half-width of the 95% normal-approximation confidence interval for the
/// mean: 1.96 * s / sqrt(n). 0 for n < 2.
double ConfidenceInterval95(const std::vector<double>& xs);

/// Minimum / maximum; 0 for empty input.
double Min(const std::vector<double>& xs);
double Max(const std::vector<double>& xs);

/// Summary of a repeated measurement.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;  // sample std-dev
  double ci95 = 0.0;
  double min = 0.0;
  double max = 0.0;
  size_t n = 0;
};

/// Computes all summary statistics in one pass over `xs`.
Summary Summarize(const std::vector<double>& xs);

}  // namespace birnn

#endif  // BIRNN_UTIL_STATS_H_
