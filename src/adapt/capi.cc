/// extern "C" shim for the birnn_adapt_* surface of include/birnn_c.h:
/// one-shot drift-triggered adaptation driven from an embedded host
/// (database UDF, FFI binding) — see adapt/adapt.h for the policy.

#include <memory>
#include <string>
#include <utility>

#include "adapt/adapt.h"
#include "birnn_c.h"
#include "stream/capi_internal.h"

using birnn::capi::Fail;
using birnn::capi::FromStatus;
using birnn::capi::Guarded;

namespace {

birnn::adapt::LabelFn WrapLabelFn(birnn_adapt_label_fn fn, void* ctx) {
  if (fn == nullptr) return nullptr;
  return [fn, ctx](int64_t row_id, int attr) -> int {
    return static_cast<int>(fn(ctx, row_id, static_cast<int32_t>(attr)));
  };
}

}  // namespace

extern "C" {

void birnn_adapt_options_init(birnn_adapt_options* options) {
  if (options == nullptr) return;
  const birnn::adapt::AdaptOptions defaults;
  options->min_reservoir_rows = defaults.min_reservoir_rows;
  options->validation_fraction = defaults.validation_fraction;
  options->drift_boost = defaults.drift_boost;
  options->fine_tune_epochs = defaults.fine_tune_epochs;
  options->learning_rate = defaults.learning_rate;
  options->bn_only = defaults.bn_only ? 1 : 0;
  options->f1_band = defaults.f1_band;
  options->seed = defaults.seed;
  options->train_threads = defaults.train_threads;
  options->candidate_dir = nullptr;
}

birnn_status birnn_adapt_run(const birnn_detector* incumbent,
                             birnn_session* session,
                             const birnn_adapt_options* options,
                             birnn_adapt_label_fn labels, void* labels_ctx,
                             birnn_adapt_label_fn gate_labels,
                             void* gate_labels_ctx,
                             birnn_adapt_result* result,
                             birnn_detector** promoted) {
  return Guarded([&]() -> birnn_status {
    if (promoted != nullptr) *promoted = nullptr;
    if (result != nullptr) *result = birnn_adapt_result{};
    if (incumbent == nullptr || incumbent->impl == nullptr) {
      return Fail(BIRNN_INVALID_ARGUMENT, "incumbent is NULL");
    }
    if (session == nullptr || session->impl == nullptr) {
      return Fail(BIRNN_INVALID_ARGUMENT, "session is NULL");
    }
    birnn::adapt::AdaptOptions opts;
    if (options != nullptr) {
      opts.min_reservoir_rows = options->min_reservoir_rows;
      opts.validation_fraction = options->validation_fraction;
      opts.drift_boost = options->drift_boost;
      opts.fine_tune_epochs = options->fine_tune_epochs;
      opts.learning_rate = options->learning_rate;
      opts.bn_only = options->bn_only != 0;
      opts.f1_band = options->f1_band;
      opts.seed = options->seed;
      opts.train_threads = options->train_threads;
      if (options->candidate_dir != nullptr) {
        opts.candidate_dir = options->candidate_dir;
      }
    }
    auto report = birnn::adapt::Adapt(
        *incumbent->impl, session->impl.get(), opts,
        WrapLabelFn(labels, labels_ctx),
        WrapLabelFn(gate_labels, gate_labels_ctx));
    if (!report.ok()) return FromStatus(report.status());
    if (result != nullptr) {
      result->outcome = static_cast<int32_t>(report->outcome);
      result->incumbent_f1 = report->incumbent_f1;
      result->candidate_f1 = report->candidate_f1;
      result->reservoir_rows = report->reservoir_rows;
      result->train_cells = report->train_cells;
      result->validation_cells = report->validation_cells;
      result->deterministic_eval = report->deterministic_eval ? 1 : 0;
    }
    if (report->outcome == birnn::adapt::AdaptOutcome::kPromoted &&
        promoted != nullptr) {
      auto* handle = new birnn_detector;
      handle->impl = std::move(report->candidate);
      *promoted = handle;
    }
    return BIRNN_OK;
  });
}

}  // extern "C"
