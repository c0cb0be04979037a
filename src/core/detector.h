#ifndef BIRNN_CORE_DETECTOR_H_
#define BIRNN_CORE_DETECTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/inference.h"
#include "core/model.h"
#include "core/trainer.h"
#include "data/dictionary.h"
#include "data/prepare.h"
#include "data/table.h"
#include "eval/metrics.h"
#include "util/status.h"

namespace birnn::core {

/// Answers "is cell (row_id, attr) erroneous?" for the tuples the sampler
/// proposed — the human-in-the-loop labeling step. Experiments back it
/// with ground truth; deployments with an actual user.
using LabelOracle = std::function<int(int64_t row_id, int attr)>;

/// End-to-end configuration: "The user gives our system a dataset and
/// chooses the number of tuples for training" (§1, System in action).
struct DetectorOptions {
  /// "tsb" (value branch only) or "etsb" (enriched).
  std::string model = "etsb";
  /// "randomset" | "rahaset" | "diverset" (paper default: DiverSet).
  std::string sampler = "diverset";
  /// Labeled-tuple budget (paper: 20).
  int n_label_tuples = 20;

  data::PrepareOptions prepare;
  TrainerOptions trainer;

  /// Architecture overrides (defaults are the paper's).
  int units = 64;
  int stacks = 2;
  bool bidirectional = true;
  /// "rnn" (paper), "gru", or "lstm".
  std::string cell_type = "rnn";
  int char_emb_dim = 32;
  bool use_attr_branch = true;
  bool use_length_branch = true;

  /// Worker threads for the final whole-table inference sweep (0 = run on
  /// the calling thread; capped at the hardware's thread count). The
  /// sweep's batch plan never depends on the thread count, so predictions
  /// are bit-identical for every value.
  int eval_threads = 4;

  /// Run the final inference sweep on the length-sorted plan, so the
  /// backward value chain skips its all-pad prefix (precomputed once and
  /// warm-started per batch). Bit-identical predictions, fewer RNN steps on
  /// tables whose value lengths vary; see InferenceOptions::bucketed. False
  /// runs the dense reference sweep.
  bool bucketed_inference = true;

  /// Worker threads for training (0 = inline), capped at the hardware's
  /// threads minus one. Copied into `trainer.train_threads`; results are
  /// bit-identical for every thread count (see TrainerOptions). The default
  /// gives a 4-thread host four lanes: the calling thread and three workers
  /// split the value RNN's recurrence into (direction, row block) lanes,
  /// then its parameter gradients into chains.
  int train_threads = 3;

  uint64_t seed = 42;
};

/// Everything a detection run produces.
struct DetectionReport {
  /// Per-cell prediction over the *whole* frame, tuple-major
  /// (row_id * n_attrs + attr).
  std::vector<uint8_t> predicted;
  /// Ground-truth labels in the same layout (empty in deployment mode).
  std::vector<int32_t> truth;
  /// Tuples the sampler selected for labeling.
  std::vector<int64_t> labeled_tuples;
  /// Metrics over the test cells only (cells of non-labeled tuples),
  /// matching the paper's evaluation protocol.
  eval::Metrics test_metrics;
  eval::Confusion test_confusion;
  /// Training curve + best-epoch bookkeeping.
  TrainHistory history;
  /// Accounting of the final whole-table inference sweep (dedup factor,
  /// batches, RNN steps, wall clock).
  InferenceStats inference;
  /// Sizes, for reporting ("trainset of size 220, testset of size 26,290").
  int64_t train_cells = 0;
  int64_t test_cells = 0;
};

/// Everything needed to reconstruct a trained detector without retraining —
/// the unit serve::SaveDetectorBundle persists. The model holds the
/// best-checkpoint weights with calibrated batch-norm statistics: exactly
/// the state that produced the accompanying DetectionReport's predictions,
/// so a served detector answers bit-identically to the offline run. The
/// encoding state (dictionary, attribute names, per-attribute length_norm
/// denominators) lets serving-time cells be encoded exactly as the training
/// frame's cells were.
struct TrainedDetector {
  ModelConfig config;
  std::unique_ptr<ErrorDetectionModel> model;
  data::CharIndex chars;
  std::vector<std::string> attr_names;
  /// Longest value_x length per attribute over the training frame — the
  /// denominator of data::CellRecord::length_norm.
  std::vector<int32_t> attr_max_value_len;
  data::PrepareOptions prepare;
  /// Provenance: the options the detector was trained with.
  DetectorOptions options;
  /// Distinct cell contents in the training table's whole-frame sweep (0
  /// when unknown). Persisted in the bundle manifest so a serving process
  /// can pre-size its verdict memo for the table it was trained on instead
  /// of growing through rehashes on the first sweep.
  int64_t train_unique_cells = 0;
  /// core::DatasetContentFingerprint of the encoded training frame (0 when
  /// unknown) — lets operators recognize which table a bundle came from.
  uint64_t content_fingerprint = 0;
  /// Frozen train-time column statistics: per-attribute empty-value rate
  /// over the prepared frame and per-attribute predicted-error rate of the
  /// whole-table sweep, both sized n_attrs. Streaming sessions diff their
  /// live ingest statistics against these to raise drift alarms without
  /// ever rescanning the training table.
  std::vector<float> attr_empty_rate;
  std::vector<float> attr_error_rate;
  /// Must be true: saving or serving a detector without the statistics
  /// above fails with InvalidArgument.
  bool has_frozen_stats = false;
};

/// Sets `trained`'s frozen column statistics from per-attribute counts of
/// cells, empty cells and predicted errors (rates stay 0 for an attribute
/// without cells) and marks them present.
void FreezeColumnStats(const std::vector<int64_t>& cells,
                       const std::vector<int64_t>& empties,
                       const std::vector<int64_t>& errors,
                       TrainedDetector* trained);

/// The paper's end-to-end system: data preparation -> trainset selection ->
/// user labeling -> training -> per-cell error detection.
class ErrorDetector {
 public:
  explicit ErrorDetector(DetectorOptions options = {});

  /// Experiment mode: the clean table provides both the oracle labels for
  /// the sampled tuples and the ground truth for evaluation. When `trained`
  /// is non-null it receives the trained model and encoding state for
  /// serving (see TrainedDetector).
  StatusOr<DetectionReport> Run(const data::Table& dirty,
                                const data::Table& clean,
                                TrainedDetector* trained = nullptr);

  /// Deployment mode: no clean table; `oracle` labels the sampled tuples
  /// (e.g. by asking a human). The report's truth vector and test metrics
  /// are empty/zero.
  StatusOr<DetectionReport> RunWithOracle(const data::Table& dirty,
                                          const LabelOracle& oracle,
                                          TrainedDetector* trained = nullptr);

  const DetectorOptions& options() const { return options_; }

 private:
  StatusOr<DetectionReport> RunInternal(const data::Table& dirty,
                                        const data::Table* clean,
                                        const LabelOracle& oracle,
                                        TrainedDetector* trained);

  DetectorOptions options_;
};

/// Builds a ModelConfig from detector options + encoded data properties.
ModelConfig BuildModelConfig(const DetectorOptions& options, int vocab,
                             int max_len, int n_attrs);

}  // namespace birnn::core

#endif  // BIRNN_CORE_DETECTOR_H_
