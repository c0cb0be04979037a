#include "raha/detector.h"

#include <algorithm>
#include <unordered_set>

#include "util/logging.h"

namespace birnn::raha {

namespace {

/// Fallback vote threshold for columns with no label signal: a cell
/// flagged by at least this many strategies is predicted dirty.
constexpr int kFallbackVotes = 2;

}  // namespace

RahaDetector::RahaDetector(RahaOptions options)
    : options_(options), strategies_(DefaultStrategies()) {}

void RahaDetector::Analyze(const data::Table& dirty) {
  n_rows_ = dirty.num_rows();
  n_cols_ = dirty.num_columns();
  if (options_.feature_threads > 0) {
    ThreadPool pool(options_.feature_threads);
    features_ = BuildFeatures(dirty, strategies_, &pool);
  } else {
    features_ = BuildFeatures(dirty, strategies_);
  }
  clusterings_ = ClusterAllColumns(features_, options_.n_label_tuples);
  analyzed_ = true;
}

std::vector<int64_t> RahaDetector::SampleTuples(int n, Rng* rng) {
  BIRNN_CHECK(analyzed_) << "call Analyze() before SampleTuples()";
  n = std::min(n, n_rows_);

  // covered[col][cluster] = a sampled tuple already hits this cluster.
  std::vector<std::vector<uint8_t>> covered(static_cast<size_t>(n_cols_));
  for (int c = 0; c < n_cols_; ++c) {
    covered[static_cast<size_t>(c)].assign(
        static_cast<size_t>(clusterings_[static_cast<size_t>(c)].n_clusters),
        0);
  }

  std::vector<uint8_t> sampled(static_cast<size_t>(n_rows_), 0);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(n));
  for (int pick = 0; pick < n; ++pick) {
    // Score = number of yet-uncovered clusters this tuple's cells touch.
    int best_score = -1;
    std::vector<int> best_rows;
    for (int r = 0; r < n_rows_; ++r) {
      if (sampled[static_cast<size_t>(r)]) continue;
      int score = 0;
      for (int c = 0; c < n_cols_; ++c) {
        const int cl =
            clusterings_[static_cast<size_t>(c)].cell_cluster[static_cast<size_t>(r)];
        if (!covered[static_cast<size_t>(c)][static_cast<size_t>(cl)]) ++score;
      }
      if (score > best_score) {
        best_score = score;
        best_rows.clear();
        best_rows.push_back(r);
      } else if (score == best_score) {
        best_rows.push_back(r);
      }
    }
    if (best_rows.empty()) break;
    const int chosen = best_rows[rng->UniformInt(best_rows.size())];
    sampled[static_cast<size_t>(chosen)] = 1;
    out.push_back(chosen);
    for (int c = 0; c < n_cols_; ++c) {
      const int cl = clusterings_[static_cast<size_t>(c)]
                         .cell_cluster[static_cast<size_t>(chosen)];
      covered[static_cast<size_t>(c)][static_cast<size_t>(cl)] = 1;
    }
  }
  return out;
}

DetectionMask RahaDetector::Propagate(const std::vector<int64_t>& labeled_rows,
                                      const LabelOracle& oracle) const {
  BIRNN_CHECK(analyzed_) << "call Analyze() before Propagate()";
  DetectionMask predicted(static_cast<size_t>(n_rows_) * n_cols_, 0);

  for (int c = 0; c < n_cols_; ++c) {
    const ColumnClustering& clustering = clusterings_[static_cast<size_t>(c)];
    // Tally labels per cluster and remember labeled feature vectors for the
    // nearest-neighbour fallback.
    std::vector<int> cluster_pos(static_cast<size_t>(clustering.n_clusters), 0);
    std::vector<int> cluster_neg(static_cast<size_t>(clustering.n_clusters), 0);
    std::vector<std::pair<const uint8_t*, int>> labeled_features;
    for (int64_t r : labeled_rows) {
      const int label = oracle(r, c);
      const int cl = clustering.cell_cluster[static_cast<size_t>(r)];
      if (label == 1) {
        cluster_pos[static_cast<size_t>(cl)]++;
      } else {
        cluster_neg[static_cast<size_t>(cl)]++;
      }
      labeled_features.emplace_back(features_.cell(static_cast<int>(r), c),
                                    label);
    }

    for (int r = 0; r < n_rows_; ++r) {
      const int cl = clustering.cell_cluster[static_cast<size_t>(r)];
      const int pos = cluster_pos[static_cast<size_t>(cl)];
      const int neg = cluster_neg[static_cast<size_t>(cl)];
      int label;
      if (pos + neg > 0) {
        // Label propagation within the cluster (majority).
        label = pos > neg ? 1 : 0;
      } else if (!labeled_features.empty()) {
        // Nearest labeled feature vector in this column.
        const uint8_t* f = features_.cell(r, c);
        int best_d = features_.n_strategies + 1;
        int pos_votes = 0;
        int neg_votes = 0;
        for (const auto& [lf, ll] : labeled_features) {
          const int d = HammingDistance(f, lf, features_.n_strategies);
          if (d < best_d) {
            best_d = d;
            pos_votes = 0;
            neg_votes = 0;
          }
          if (d == best_d) {
            if (ll == 1) {
              ++pos_votes;
            } else {
              ++neg_votes;
            }
          }
        }
        label = pos_votes > neg_votes ? 1 : 0;
      } else {
        // No labels in this column at all: strategy-vote fallback.
        label = features_.VoteCount(r, c) >= kFallbackVotes ? 1 : 0;
      }
      predicted[static_cast<size_t>(r) * n_cols_ + static_cast<size_t>(c)] =
          static_cast<uint8_t>(label);
    }
  }
  return predicted;
}

DetectionMask RahaDetector::DetectErrors(
    const data::Table& dirty, const data::Table& clean, Rng* rng,
    std::vector<int64_t>* labeled_rows_out) {
  Analyze(dirty);
  const std::vector<int64_t> labeled =
      SampleTuples(options_.n_label_tuples, rng);
  if (labeled_rows_out != nullptr) *labeled_rows_out = labeled;
  LabelOracle oracle = [&dirty, &clean](int64_t row, int col) {
    return dirty.cell(static_cast<int>(row), col) !=
                   clean.cell(static_cast<int>(row), col)
               ? 1
               : 0;
  };
  return Propagate(labeled, oracle);
}

}  // namespace birnn::raha
