#ifndef BIRNN_CORE_INFERENCE_H_
#define BIRNN_CORE_INFERENCE_H_

#include <cstdint>
#include <vector>

#include "core/model.h"
#include "data/encoding.h"
#include "util/threadpool.h"

namespace birnn::core {

class ContentMemo;

/// Configuration of the forward-only inference engine.
struct InferenceOptions {
  /// Cells per forward batch.
  int eval_batch = 256;

  /// Worker threads for the sweep (0 = run on the calling thread), capped
  /// at HardwareConcurrency(). Used only when no external ThreadPool is
  /// handed to the engine. Results are bit-identical for
  /// every thread count: the batch plan is a pure function of the data and
  /// options, threads only execute it.
  int threads = 0;

  /// Predict each distinct cell content once and broadcast the result to
  /// its duplicates. Exact: a cell's prediction is a pure function of its
  /// (attribute id, character sequence, length_norm) key, every kernel on
  /// the forward path is row-independent, and the activation sweeps are
  /// batch-size invariant (nn/vecmath.h), so no value ever depends on its
  /// batch or its position in it. Real tables repeat values heavily (a
  /// `state` column holds ~50 distinct strings across thousands of rows),
  /// so this alone removes most of the sweep's work —
  /// `InferenceStats::dedup_factor` reports how much.
  bool memoize = true;

  /// Run the length-sorted plan: the unique cells are stably sorted by
  /// effective length, cut into batches of `eval_batch`, and each batch is
  /// padded only to its longest cell. The *backward* value chain skips its
  /// all-pad prefix: that prefix is cell-independent — identical pad inputs
  /// evolving the zero initial state — so it is precomputed once per engine
  /// and every batch warm-starts from it. Every batch (full-length ones
  /// too) also reads the value RNN's level-0 input projections from
  /// per-character tables built with it. The forward chain still runs its
  /// pad tail: the (trained) pad embedding keeps moving per-cell state, so
  /// those steps cannot be skipped (they are not absorbing under the
  /// tanh/GRU/LSTM cell equations — naive truncation wrecks accuracy). A
  /// cell's result is therefore bit-identical at any padded length >= its
  /// effective length, verified on all six paper generators in
  /// oracle_test, and a request of <= `eval_batch` unique cells is one
  /// forward pass. On by default on every path (offline sweep, serve
  /// batcher, stream sessions, adapt, calibration); false pads every batch
  /// to max_len in table order — the dense reference arm of the tests.
  bool bucketed = true;
};

/// What one sweep did — throughput accounting for the bench and reports.
struct InferenceStats {
  int64_t cells = 0;          ///< cells requested.
  int64_t unique_cells = 0;   ///< distinct cell contents actually predicted.
  double dedup_factor = 1.0;  ///< cells / unique_cells.
  int64_t batches = 0;        ///< forward batches run.
  /// Per-direction RNN time steps executed, summed over the batches' rows.
  /// The forward chain always runs to max_len; the length-sorted plan
  /// shortens only the backward chain.
  int64_t rnn_steps = 0;
  /// `cells * max_len * directions` — the unoptimized sweep's step count.
  int64_t rnn_steps_dense = 0;
  double seconds = 0.0;         ///< wall clock of the last sweep.
};

/// Reusable forward-only executor for whole-table detection sweeps: the
/// serving-side counterpart of the data-parallel trainer. Memoizes
/// duplicate cells, sorts the unique ones by length, reuses per-lane
/// scratch (BatchInput columns and every intermediate tensor), and lets
/// the calling thread and a ThreadPool's workers claim batches, with
/// deterministic output order.
///
/// Determinism contract: for fixed data, the sweep's output is a pure
/// function of the model weights — bit-identical across thread counts,
/// memoize on/off, and bucketed on/off.
class InferenceEngine {
 public:
  /// `model` must outlive the engine. `pool` (optional, not owned) is used
  /// for the sweep when non-null: its workers and the calling thread, which
  /// must not be one of them, claim the batches. Otherwise the engine runs
  /// inline unless `options.threads > 1`, in which case each sweep that has
  /// more than one batch runs on that many lanes (at most the hardware's
  /// thread count): the calling thread and a pool of `lanes - 1` workers
  /// built for the sweep.
  explicit InferenceEngine(const ErrorDetectionModel& model,
                           InferenceOptions options = {},
                           ThreadPool* pool = nullptr);

  /// Per-cell error probability for the cells listed in `indices` (all
  /// cells of `ds` when empty), in listed order.
  void PredictProbs(const data::EncodedDataset& ds,
                    const std::vector<int64_t>& indices,
                    std::vector<float>* p_error);

  /// Whole-dataset probability sweep through a *cross-sweep* content memo
  /// (content_index.h): memo hits are answered without touching the model,
  /// only the miss subset is swept (and inserted), and `p_error` is
  /// bit-identical to `PredictProbs(ds, {}, ...)` — a memoized verdict is
  /// the same pure function of the cell's content key. Returns the memo
  /// hit count; `stats()` afterwards describes the miss sweep (zeroed, with
  /// `cells` set, when every cell hit). A null or disabled memo degrades to
  /// a plain sweep.
  int64_t PredictProbsMemoized(const data::EncodedDataset& ds,
                               ContentMemo* memo,
                               std::vector<float>* p_error);

  /// Thresholded per-cell predictions (p_error > 0.5) over every cell.
  void Predict(const data::EncodedDataset& ds, std::vector<uint8_t>* labels);

  /// Fraction of cells (restricted to `indices`, or all when empty) whose
  /// thresholded prediction matches the dataset label.
  double Accuracy(const data::EncodedDataset& ds,
                  const std::vector<int64_t>& indices);

  /// Accounting of the most recent sweep.
  const InferenceStats& stats() const { return stats_; }

  const InferenceOptions& options() const { return options_; }

 private:
  friend void CalibrateBatchNormMemoized(ErrorDetectionModel* model,
                                         const data::EncodedDataset& ds,
                                         const InferenceOptions& options,
                                         ThreadPool* pool);

  /// One forward batch of the sweep plan: unique-cell positions
  /// [begin, end) of `SweepPlan::order`, padded to `padded_len` steps (the
  /// last, longest cell's effective length, or max_len when dense).
  struct PlanBatch {
    int64_t begin = 0;
    int64_t end = 0;
    int padded_len = 0;
  };

  /// The deterministic decomposition of a sweep. Built once per call from
  /// (dataset, indices, options) — never from the thread count.
  struct SweepPlan {
    std::vector<int64_t> unique_cells;   ///< representative cell ids.
    std::vector<int32_t> cell_to_unique; ///< per position of `indices`.
    std::vector<int32_t> order;          ///< unique indices in sweep order.
    std::vector<PlanBatch> batches;
  };

  /// BuildPlan's working space: the dedup table and the length sort.
  struct PlanTables {
    std::vector<uint64_t> slot_hash;   ///< content hash per slot.
    std::vector<int32_t> slot_unique;  ///< unique index per slot, or -1.
    std::vector<int> len;              ///< effective length per unique.
    std::vector<int64_t> first;        ///< counting-sort offsets.
  };

  /// One lane's buffers: the batch's cell ids and BatchInput columns,
  /// every forward tensor and the batch's results. The engine keeps them
  /// across sweeps, so each holds the capacity of the largest batch its
  /// lane has run and a warm sweep allocates nothing in RunPlan.
  struct LaneScratch {
    InferenceScratch forward;
    BatchInput batch;
    std::vector<int64_t> cells;
    std::vector<float> probs;
    nn::Tensor hidden;
  };

  /// Builds `plan` in `tables`, kept by the caller so that a reused plan
  /// builds without allocating, or, when `tables` is null, in temporaries
  /// freed before the sweep runs (a whole-table dedup table is megabytes).
  void BuildPlan(const data::EncodedDataset& ds,
                 const std::vector<int64_t>& indices, PlanTables* tables,
                 SweepPlan* plan) const;

  /// Runs the planned batches (claimed by the calling thread and the
  /// pool's workers when there is a pool), calling the model once per
  /// batch. `want_hidden` selects the pre-batch-norm hidden sweep (rows
  /// into `hidden_unique`) instead of the probability sweep (values into
  /// `p_unique`).
  void RunPlan(const data::EncodedDataset& ds, const SweepPlan& plan,
               bool want_hidden, std::vector<float>* p_unique,
               nn::Tensor* hidden_unique);

  void SweepUnique(const data::EncodedDataset& ds,
                   const std::vector<int64_t>& indices, bool want_hidden,
                   PlanTables* tables, SweepPlan* plan,
                   std::vector<float>* p_unique, nn::Tensor* hidden_unique);

  /// PredictProbs over a non-empty `indices`, with the plan (built as
  /// BuildPlan says) and the per-unique results in caller-owned buffers.
  void PredictIndices(const data::EncodedDataset& ds,
                      const std::vector<int64_t>& indices, PlanTables* tables,
                      SweepPlan* plan, std::vector<float>* p_unique,
                      std::vector<float>* p_error);

  const ErrorDetectionModel& model_;
  InferenceOptions options_;
  ThreadPool* external_pool_;
  InferenceStats stats_;
  /// The length-sorted plan's shared context — level-0 projection tables
  /// and pad-prefix trajectory — computed lazily on its first sweep
  /// (weights are fixed for the engine's lifetime).
  BucketedInferenceContext bucketed_ctx_;
  bool bucketed_ctx_ready_ = false;
  /// Per-lane scratch, indexed by the ParallelFor slot; grows to the
  /// most lanes a sweep has used.
  std::vector<LaneScratch> lanes_;
  /// PredictProbsMemoized's buffers, kept across calls so that a warm call
  /// allocates nothing here: the per-cell memo-hit mask, the misses' cell
  /// ids (an index view of the query, which is not copied), their sweep
  /// plan with its working space, and their probabilities.
  std::vector<uint8_t> hit_;
  std::vector<int64_t> miss_;
  PlanTables miss_tables_;
  SweepPlan miss_plan_;
  std::vector<float> miss_p_unique_;
  std::vector<float> miss_p_;
};

/// Replaces the model's batch-norm running statistics with the exact
/// trainset statistics under the current weights (what
/// `ErrorDetectionModel::CalibrateBatchNorm` computes), but through the
/// engine: the pre-normalization activations are computed once per distinct
/// cell and accumulated per duplicate in original cell order — the same
/// double-precision summation sequence as the unmemoized reference. Runs the
/// plan `options.bucketed` selects: a cell's activations are the same bits
/// at any padded length, so the statistics are too.
void CalibrateBatchNormMemoized(ErrorDetectionModel* model,
                                const data::EncodedDataset& ds,
                                const InferenceOptions& options = {},
                                ThreadPool* pool = nullptr);

}  // namespace birnn::core

#endif  // BIRNN_CORE_INFERENCE_H_
