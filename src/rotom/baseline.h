#ifndef BIRNN_ROTOM_BASELINE_H_
#define BIRNN_ROTOM_BASELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/prepare.h"
#include "data/table.h"
#include "eval/metrics.h"
#include "rotom/augment.h"
#include "util/status.h"

namespace birnn::rotom {

/// Configuration of the Rotom-style augmentation baseline.
struct RotomOptions {
  /// Labeled-cell budget. Rotom reports results with 200 labeled cells on
  /// the cleaning benchmarks, which is what Table 3 compares against.
  int n_label_cells = 200;
  /// Self-training variant (Rotom+SSL): add confident pseudo-labels from
  /// the unlabeled pool and retrain.
  bool ssl = false;
  uint64_t seed = 5;
};

/// Outcome of one Rotom-style run.
struct RotomResult {
  std::vector<uint8_t> predicted;     ///< per cell, frame order.
  std::vector<int64_t> labeled_cells; ///< cell indices used for training.
  std::string chosen_policy;          ///< winning augmentation policy.
  eval::Metrics test_metrics;         ///< on cells outside the label set.
  eval::Confusion test_confusion;
};

/// Meta-learned-augmentation baseline, CPU-sized: hashed n-gram logistic
/// cell classifier + operator-policy search scored on a held-out quarter of
/// the labeled cells (standing in for Rotom's meta-learning; DESIGN.md
/// documents the substitution). Policies are evaluated in two modes:
/// label-preserving augmentation of labeled examples, and error synthesis
/// (corrupting clean examples into new positives).
class RotomBaseline {
 public:
  explicit RotomBaseline(RotomOptions options = {});

  /// Full pipeline against ground truth (experiment mode).
  StatusOr<RotomResult> Detect(const data::Table& dirty,
                               const data::Table& clean);

 private:
  RotomOptions options_;
};

}  // namespace birnn::rotom

#endif  // BIRNN_ROTOM_BASELINE_H_
