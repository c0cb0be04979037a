#include "eval/runner.h"

#include <algorithm>

namespace birnn::eval {

namespace {
std::vector<CurvePoint> AverageCurve(const RepeatedResult& result,
                                     bool use_test) {
  std::vector<CurvePoint> out;
  if (result.histories.empty()) return out;
  size_t epochs = 0;
  for (const auto& h : result.histories) epochs = std::max(epochs, h.size());
  for (size_t e = 0; e < epochs; ++e) {
    std::vector<double> values;
    for (const auto& h : result.histories) {
      if (e >= h.size()) continue;
      if (use_test) {
        if (h[e].has_test) values.push_back(h[e].test_accuracy);
      } else {
        values.push_back(h[e].train_accuracy);
      }
    }
    if (values.empty()) continue;
    CurvePoint p;
    p.epoch = static_cast<int>(e);
    p.mean = Mean(values);
    p.ci95 = ConfidenceInterval95(values);
    out.push_back(p);
  }
  return out;
}
}  // namespace

std::vector<CurvePoint> AverageTestAccuracyCurve(const RepeatedResult& result) {
  return AverageCurve(result, /*use_test=*/true);
}

std::vector<CurvePoint> AverageTrainAccuracyCurve(
    const RepeatedResult& result) {
  return AverageCurve(result, /*use_test=*/false);
}

}  // namespace birnn::eval
