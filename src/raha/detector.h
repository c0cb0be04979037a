#ifndef BIRNN_RAHA_DETECTOR_H_
#define BIRNN_RAHA_DETECTOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "data/table.h"
#include "raha/cluster.h"
#include "raha/features.h"
#include "raha/strategy.h"
#include "util/rng.h"

namespace birnn::raha {

/// Configuration of the Raha-style detector.
struct RahaOptions {
  /// Label budget in tuples (the paper and Raha both use 20).
  /// Each column is clustered into this many clusters, Raha's setting
  /// (one expected label per cluster).
  int n_label_tuples = 20;

  /// Worker threads for the strategy featurization in Analyze() (0 = run
  /// every strategy inline). The feature matrix is bit-identical for every
  /// value — each strategy writes disjoint slots (see BuildFeatures).
  int feature_threads = 0;
};

/// Answers "is cell (row, col) erroneous?" for tuples a user labeled. In
/// experiments this is backed by ground truth; in deployment by a human.
using LabelOracle = std::function<int(int64_t row, int col)>;

/// Reimplementation of Raha's pipeline (configuration-free error
/// detection): run a strategy zoo, build per-cell feature vectors, cluster
/// cells per column, sample informative tuples for labeling, propagate
/// labels through clusters, and classify the remaining cells.
///
/// Used two ways in this repo: as the `RahaSet` trainset sampler
/// (Algorithm 2) and as the comparison baseline of Tables 3/4.
class RahaDetector {
 public:
  explicit RahaDetector(RahaOptions options = {});

  /// Phase 1 — runs the strategies and clusters every column.
  /// Must be called before SampleTuples/Propagate.
  void Analyze(const data::Table& dirty);

  /// Phase 2 — iteratively samples `n` tuples, preferring tuples whose
  /// cells fall into clusters not yet covered by a sampled tuple (maximum
  /// expected label information).
  std::vector<int64_t> SampleTuples(int n, Rng* rng);

  /// Phase 3 — propagates the oracle's labels for `labeled_rows` through
  /// the clusters; cells in unlabeled clusters fall back to a
  /// nearest-labeled-feature-vector classifier, then to strategy votes.
  /// Returns the per-cell prediction mask.
  DetectionMask Propagate(const std::vector<int64_t>& labeled_rows,
                          const LabelOracle& oracle) const;

  /// Convenience: full pipeline against a ground-truth clean table.
  DetectionMask DetectErrors(const data::Table& dirty,
                             const data::Table& clean, Rng* rng,
                             std::vector<int64_t>* labeled_rows_out = nullptr);

  const FeatureMatrix& features() const { return features_; }
  const std::vector<ColumnClustering>& clusterings() const {
    return clusterings_;
  }

 private:
  RahaOptions options_;
  std::vector<std::unique_ptr<Strategy>> strategies_;
  FeatureMatrix features_;
  std::vector<ColumnClustering> clusterings_;
  int n_rows_ = 0;
  int n_cols_ = 0;
  bool analyzed_ = false;
};

}  // namespace birnn::raha

#endif  // BIRNN_RAHA_DETECTOR_H_
