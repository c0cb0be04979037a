#ifndef BIRNN_ADAPT_CONTROLLER_H_
#define BIRNN_ADAPT_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "serve/bundle.h"
#include "stream/session.h"
#include "util/status.h"

namespace birnn::adapt {

/// Supervision oracle for adaptation: the caller's label (0 = clean,
/// 1 = error) for a reservoir cell, or a negative value when the caller
/// has no opinion — the controller then falls back to the cell's own
/// stored verdict (self-training pseudo-label).
using LabelFn = std::function<int(int64_t row_id, int attr)>;

struct ControllerOptions {
  /// Fewest reservoir tuples worth fine-tuning on; below this the trigger
  /// is skipped (never rejected — nothing was attempted).
  int64_t min_reservoir_rows = 16;

  /// Fraction of reservoir tuples held back as the promotion-gate
  /// validation slice. The split is by tuple (never by cell) so no tuple
  /// contributes to both sides, and the slice is chosen by a seeded
  /// shuffle — deterministic for a given reservoir + seed.
  double validation_fraction = 0.25;

  /// Replication factor for training cells of drifted attributes (the
  /// session's latched alarms say which). 1 disables the bias. The
  /// validation slice is never replicated.
  int drift_boost = 3;

  /// Warm fine-tune schedule: a short Fit from the incumbent's weights at
  /// a reduced learning rate (offline training defaults are 120 epochs at
  /// 1e-3).
  int fine_tune_epochs = 8;
  float learning_rate = 5e-4f;

  /// Skip gradient steps entirely and only recalibrate the batch-norm
  /// running statistics on the fine-tune sample
  /// (core::CalibrateBatchNormMemoized) — the cheapest adaptation tier.
  bool bn_only = false;

  /// Promotion gate: the candidate's F1 on the validation slice must be
  /// at least `incumbent_f1 - f1_band`. 0 demands beat-or-match exactly.
  double f1_band = 0.02;

  uint64_t seed = 99;
  /// Fine-tune worker threads (0 = inline), capped at the hardware's
  /// threads minus one; the candidate is bit-identical for every value
  /// (see core::TrainerOptions). Same default as DetectorOptions.
  int train_threads = 3;
  int eval_batch = 256;

  /// When non-empty, a promoted candidate is also saved here as a full
  /// detector bundle (fp32 weights, frozen statistics) — the directory the
  /// serve plane hands to its hot-reload path.
  std::string candidate_dir;

  /// Template for the remaining Trainer knobs (batch fraction, rho,
  /// gradient sharding...). epochs / learning_rate / seed / threads /
  /// restore_best are overridden by the fields above.
  core::TrainerOptions trainer;
};

enum class AdaptOutcome {
  kPromoted = 0,  ///< candidate passed the gate and is now current.
  kRejected = 1,  ///< candidate failed the gate; incumbent untouched.
  kSkipped = 2,   ///< nothing attempted (no alarm / reservoir too small).
};

const char* AdaptOutcomeName(AdaptOutcome outcome);

/// What one adaptation attempt did — returned to the caller and mirrored
/// into obs counters / serve `stats`.
struct AdaptReport {
  AdaptOutcome outcome = AdaptOutcome::kSkipped;
  std::string reason;               ///< human-readable skip/reject cause.
  std::vector<int> drifted_attrs;   ///< attrs with latched alarms.
  int64_t reservoir_rows = 0;
  int64_t train_cells = 0;          ///< incl. drift-boost replicas.
  int64_t validation_cells = 0;
  double incumbent_f1 = 0.0;        ///< on the validation slice.
  double candidate_f1 = 0.0;
  bool bn_only = false;
  /// The candidate's validation sweep was run twice through fresh engines
  /// and produced byte-identical verdicts (a gate requirement: a
  /// non-reproducible evaluation proves nothing).
  bool deterministic_eval = false;
  double fine_tune_seconds = 0.0;
  int64_t generation = 0;           ///< promotions so far (lineage).
  std::string candidate_dir;        ///< bundle location when saved.
};

/// Turns drift alarms into safely-promoted model updates. The controller
/// holds the incumbent detector; on trigger it snapshots the session's
/// reservoir, biases the fine-tune sample toward the drifted attributes,
/// warm fine-tunes a clone of the incumbent (frozen encoding: same
/// dictionary, length_norm denominators and prepare transforms, so
/// encodings stay comparable across generations), and only promotes the
/// candidate if it beats-or-matches the incumbent on a held-back
/// validation slice under a bit-exact-reproducible evaluation. A rejected
/// candidate is discarded — the incumbent keeps serving untouched.
///
/// Thread-safe; concurrent triggers serialize.
class Controller {
 public:
  explicit Controller(std::shared_ptr<const serve::LoadedDetector> incumbent,
                      ControllerOptions options = {});

  /// True when the session has at least one latched drift alarm.
  bool ShouldAdapt(const stream::TableSession& session) const;

  /// Runs one adaptation attempt against the session's reservoir.
  /// `labels` supervises the fine-tune sample; `gate_labels` (when set)
  /// supervises only the validation slice — a trusted label source that
  /// lets the gate reject a candidate fine-tuned on poisoned or weak
  /// supervision. Unset oracles fall back per cell to the reservoir's
  /// stored verdicts. On kPromoted the candidate replaces `current()`,
  /// the session's drift alarms are reset (the trigger is consumed and
  /// the live windows re-arm), and the bundle is saved to
  /// `options.candidate_dir` when configured. Statuses are reserved for
  /// infrastructure failures (bundle IO); a gate failure is a normal
  /// kRejected report.
  StatusOr<AdaptReport> TriggerAdaptation(stream::TableSession* session,
                                          const LabelFn& labels = nullptr,
                                          const LabelFn& gate_labels = nullptr);

  /// TriggerAdaptation if ShouldAdapt; a kSkipped report otherwise.
  StatusOr<AdaptReport> MaybeAdapt(stream::TableSession* session,
                                   const LabelFn& labels = nullptr,
                                   const LabelFn& gate_labels = nullptr);

  /// The detector to serve with: the most recently promoted candidate, or
  /// the construction-time incumbent while no promotion happened yet.
  std::shared_ptr<const serve::LoadedDetector> current() const;

  /// Lineage counters (also exported as obs counters `adapt.*`).
  int64_t attempts() const;
  int64_t promotions() const;
  int64_t rejections() const;

  const ControllerOptions& options() const { return options_; }

 private:
  StatusOr<AdaptReport> TriggerLocked(stream::TableSession* session,
                                      const LabelFn& labels,
                                      const LabelFn& gate_labels);

  ControllerOptions options_;

  mutable std::mutex mu_;
  std::shared_ptr<const serve::LoadedDetector> current_;
  int64_t attempts_ = 0;
  int64_t promotions_ = 0;
  int64_t rejections_ = 0;
};

}  // namespace birnn::adapt

#endif  // BIRNN_ADAPT_CONTROLLER_H_
