#include "rotom/baseline.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/logging.h"
#include "util/rng.h"

namespace birnn::rotom {

namespace {

/// Augmented copies generated per labeled example under the chosen policy.
constexpr int kAugmentsPerExample = 3;
/// Rotom+SSL: at most this many pseudo-labels, each at least this
/// confident.
constexpr int kSslPseudoLabels = 1000;
constexpr float kSslConfidence = 0.9f;
/// Hashed character n-gram feature dimension of the cell classifier and
/// its training schedule.
constexpr int kFeatureDim = 512;
constexpr int kTrainIterations = 250;
constexpr float kLearningRate = 0.5f;

/// FNV-1a hash for feature bucketing.
uint32_t Fnv1a(const char* data, size_t len, uint32_t seed) {
  uint32_t h = 2166136261u ^ seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 16777619u;
  }
  return h;
}

/// Sparse hashed char 1-/2-gram features of "attr<sep>value", plus a
/// length bucket. Returned as bucket indices (with repeats = counts).
void Featurize(int attr, const std::string& value, int dim,
               std::vector<int>* buckets) {
  buckets->clear();
  const std::string tagged = std::to_string(attr) + '\x1F' + value;
  for (size_t i = 0; i < tagged.size(); ++i) {
    buckets->push_back(static_cast<int>(
        Fnv1a(tagged.data() + i, 1, 0x1u) % static_cast<uint32_t>(dim)));
    if (i + 1 < tagged.size()) {
      buckets->push_back(static_cast<int>(
          Fnv1a(tagged.data() + i, 2, 0x2u) % static_cast<uint32_t>(dim)));
    }
  }
  // Length bucket (log scale) and attribute id bucket.
  const int len_bucket = static_cast<int>(
      std::min(15.0, std::log2(static_cast<double>(value.size()) + 1.0)));
  const std::string len_key = "L" + std::to_string(len_bucket);
  buckets->push_back(static_cast<int>(
      Fnv1a(len_key.data(), len_key.size(), 0x3u) %
      static_cast<uint32_t>(dim)));
}

/// L2-regularized logistic regression on hashed features, trained with
/// full-batch gradient descent and class weighting (errors are rare).
class LogisticModel {
 public:
  explicit LogisticModel(int dim) : w_(static_cast<size_t>(dim) + 1, 0.0f) {}

  struct Example {
    std::vector<int> buckets;
    int label = 0;
    float weight = 1.0f;
  };

  void Train(const std::vector<Example>& examples, int iterations, float lr) {
    if (examples.empty()) return;
    std::vector<float> grad(w_.size());
    for (int it = 0; it < iterations; ++it) {
      std::fill(grad.begin(), grad.end(), 0.0f);
      for (const Example& ex : examples) {
        const float p = Predict(ex.buckets);
        const float err = (p - static_cast<float>(ex.label)) * ex.weight;
        for (int b : ex.buckets) grad[static_cast<size_t>(b)] += err;
        grad[w_.size() - 1] += err;  // bias
      }
      const float scale = lr / static_cast<float>(examples.size());
      const float decay = 1e-4f * lr;
      for (size_t i = 0; i < w_.size(); ++i) {
        w_[i] -= scale * grad[i] + decay * w_[i];
      }
    }
  }

  float Predict(const std::vector<int>& buckets) const {
    float z = w_[w_.size() - 1];
    for (int b : buckets) z += w_[static_cast<size_t>(b)];
    return 1.0f / (1.0f + std::exp(-z));
  }

 private:
  std::vector<float> w_;
};

enum class AugmentMode { kPreserve, kSynthesize };

struct PolicyCandidate {
  AugmentPolicy policy;
  AugmentMode mode = AugmentMode::kPreserve;
};

}  // namespace

RotomBaseline::RotomBaseline(RotomOptions options) : options_(options) {}

StatusOr<RotomResult> RotomBaseline::Detect(const data::Table& dirty,
                                            const data::Table& clean) {
  BIRNN_ASSIGN_OR_RETURN(data::CellFrame frame,
                         data::PrepareData(dirty, clean));
  const int64_t n_cells = frame.num_cells();
  if (n_cells == 0) return Status::InvalidArgument("empty dataset");

  Rng rng(options_.seed);
  const int n_label = static_cast<int>(
      std::min<int64_t>(options_.n_label_cells, n_cells));

  // Sample labeled cells uniformly (Rotom labels cells, not tuples).
  std::vector<size_t> picks = rng.SampleWithoutReplacement(
      static_cast<size_t>(n_cells), static_cast<size_t>(n_label));
  std::unordered_set<int64_t> labeled_set(picks.begin(), picks.end());

  // Featurize everything once.
  std::vector<std::vector<int>> features(static_cast<size_t>(n_cells));
  for (int64_t i = 0; i < n_cells; ++i) {
    const data::CellRecord& cell = frame.cells()[static_cast<size_t>(i)];
    Featurize(cell.attr, cell.value, kFeatureDim,
              &features[static_cast<size_t>(i)]);
  }

  // Split labeled cells 75/25 into policy-train and policy-validation.
  std::vector<int64_t> labeled(picks.begin(), picks.end());
  rng.Shuffle(&labeled);
  const size_t val_start = labeled.size() - labeled.size() / 4;
  std::vector<int64_t> train_cells(labeled.begin(),
                                   labeled.begin() + static_cast<std::ptrdiff_t>(val_start));
  std::vector<int64_t> val_cells(labeled.begin() + static_cast<std::ptrdiff_t>(val_start),
                                 labeled.end());

  const double error_rate = std::max(0.01, frame.ErrorRate());
  const float pos_weight = static_cast<float>(
      std::min(20.0, (1.0 - error_rate) / error_rate));

  auto build_examples = [&](const std::vector<int64_t>& cells,
                            const PolicyCandidate* candidate,
                            Rng* aug_rng) {
    std::vector<LogisticModel::Example> examples;
    for (int64_t i : cells) {
      const data::CellRecord& cell = frame.cells()[static_cast<size_t>(i)];
      LogisticModel::Example ex;
      ex.buckets = features[static_cast<size_t>(i)];
      ex.label = cell.label;
      ex.weight = cell.label == 1 ? pos_weight : 1.0f;
      examples.push_back(std::move(ex));
      if (candidate == nullptr) continue;
      for (int a = 0; a < kAugmentsPerExample; ++a) {
        if (candidate->mode == AugmentMode::kPreserve) {
          // Label-preserving: jitter the value, keep the label.
          const std::string aug =
              ApplyPolicy(candidate->policy, cell.value, aug_rng);
          LogisticModel::Example aex;
          Featurize(cell.attr, aug, kFeatureDim, &aex.buckets);
          aex.label = cell.label;
          aex.weight = ex.weight * 0.5f;
          examples.push_back(std::move(aex));
        } else if (cell.label == 0) {
          // Error synthesis: corrupt a clean value into a new positive.
          const std::string aug =
              ApplyPolicy(candidate->policy, cell.value, aug_rng);
          if (aug == cell.value) continue;
          LogisticModel::Example aex;
          Featurize(cell.attr, aug, kFeatureDim, &aex.buckets);
          aex.label = 1;
          aex.weight = pos_weight * 0.5f;
          examples.push_back(std::move(aex));
        }
      }
    }
    return examples;
  };

  auto validation_f1 = [&](const LogisticModel& model) {
    eval::Confusion confusion;
    for (int64_t i : val_cells) {
      const int pred =
          model.Predict(features[static_cast<size_t>(i)]) > 0.5f ? 1 : 0;
      confusion.Add(pred, frame.cells()[static_cast<size_t>(i)].label);
    }
    // F1 when positives exist in validation; accuracy otherwise.
    return (confusion.tp + confusion.fn) > 0 ? confusion.F1()
                                             : confusion.Accuracy();
  };

  // Policy search: identity + every candidate in both modes, scored on the
  // held-out labeled quarter.
  PolicyCandidate best_candidate;  // identity/preserve == "no augmentation"
  best_candidate.policy = {};
  double best_score = -1.0;
  {
    Rng aug_rng(options_.seed ^ 0xA06ULL);
    LogisticModel model(kFeatureDim);
    model.Train(build_examples(train_cells, nullptr, &aug_rng),
                kTrainIterations, kLearningRate);
    best_score = validation_f1(model);
  }
  for (const AugmentPolicy& policy : CandidatePolicies()) {
    for (AugmentMode mode : {AugmentMode::kPreserve, AugmentMode::kSynthesize}) {
      PolicyCandidate candidate{policy, mode};
      Rng aug_rng(options_.seed ^ 0xA06ULL);
      LogisticModel model(kFeatureDim);
      model.Train(build_examples(train_cells, &candidate, &aug_rng),
                  kTrainIterations, kLearningRate);
      const double score = validation_f1(model);
      if (score > best_score) {
        best_score = score;
        best_candidate = candidate;
      }
    }
  }

  // Final model: all labeled cells + augmentation under the winning policy.
  Rng aug_rng(options_.seed ^ 0xF17A1ULL);
  LogisticModel final_model(kFeatureDim);
  const PolicyCandidate* chosen =
      best_candidate.policy.empty() ? nullptr : &best_candidate;
  std::vector<LogisticModel::Example> final_examples =
      build_examples(labeled, chosen, &aug_rng);
  final_model.Train(final_examples, kTrainIterations, kLearningRate);

  // Optional self-training round (Rotom+SSL).
  if (options_.ssl) {
    struct Pseudo {
      int64_t cell;
      float confidence;
      int label;
    };
    std::vector<Pseudo> pseudo;
    for (int64_t i = 0; i < n_cells; ++i) {
      if (labeled_set.count(i) > 0) continue;
      const float p = final_model.Predict(features[static_cast<size_t>(i)]);
      const int label = p > 0.5f ? 1 : 0;
      const float confidence = label == 1 ? p : 1.0f - p;
      if (confidence >= kSslConfidence) {
        pseudo.push_back({i, confidence, label});
      }
    }
    std::sort(pseudo.begin(), pseudo.end(),
              [](const Pseudo& a, const Pseudo& b) {
                return a.confidence > b.confidence;
              });
    if (pseudo.size() > static_cast<size_t>(kSslPseudoLabels)) {
      pseudo.resize(static_cast<size_t>(kSslPseudoLabels));
    }
    for (const Pseudo& p : pseudo) {
      LogisticModel::Example ex;
      ex.buckets = features[static_cast<size_t>(p.cell)];
      ex.label = p.label;
      ex.weight = (p.label == 1 ? pos_weight : 1.0f) * 0.3f;
      final_examples.push_back(std::move(ex));
    }
    final_model = LogisticModel(kFeatureDim);
    final_model.Train(final_examples, kTrainIterations, kLearningRate);
  }

  // Predict every cell; evaluate on the unlabeled ones.
  RotomResult result;
  result.chosen_policy =
      PolicyName(best_candidate.policy) +
      (best_candidate.policy.empty()
           ? ""
           : (best_candidate.mode == AugmentMode::kPreserve ? "/preserve"
                                                            : "/synthesize"));
  result.labeled_cells = labeled;
  result.predicted.resize(static_cast<size_t>(n_cells));
  eval::Confusion confusion;
  for (int64_t i = 0; i < n_cells; ++i) {
    const int pred =
        final_model.Predict(features[static_cast<size_t>(i)]) > 0.5f ? 1 : 0;
    result.predicted[static_cast<size_t>(i)] = static_cast<uint8_t>(pred);
    if (labeled_set.count(i) == 0) {
      confusion.Add(pred, frame.cells()[static_cast<size_t>(i)].label);
    }
  }
  result.test_confusion = confusion;
  result.test_metrics = eval::Metrics::From(confusion);
  return result;
}

}  // namespace birnn::rotom
