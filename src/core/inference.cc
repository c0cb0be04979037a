#include "core/inference.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>

#include "core/content_index.h"
#include "obs/obs.h"
#include "util/stopwatch.h"

namespace birnn::core {

InferenceEngine::InferenceEngine(const ErrorDetectionModel& model,
                                 InferenceOptions options, ThreadPool* pool)
    : model_(model), options_(options), external_pool_(pool) {
  options_.eval_batch = std::max(1, options_.eval_batch);
}

void InferenceEngine::BuildPlan(const data::EncodedDataset& ds,
                                const std::vector<int64_t>& indices,
                                PlanTables* tables, SweepPlan* plan) const {
  PlanTables temporary;
  PlanTables& t = tables != nullptr ? *tables : temporary;
  const int64_t n = static_cast<int64_t>(indices.size());
  plan->unique_cells.clear();
  plan->cell_to_unique.resize(static_cast<size_t>(n));

  if (options_.memoize) {
    // Dedup on (attr id, encoded chars, length_norm), first occurrence
    // wins; the hash narrows, content equality confirms. Open-addressing
    // flat table in two parallel arrays (no per-entry heap allocation,
    // contiguous probes) sized up front for the worst case — every cell
    // unique — at <= 0.75 load, so it never rehashes mid-plan. Distinct
    // contents sharing a 64-bit hash simply occupy separate slots; the
    // content-equality confirm keeps the dedup exact either way.
    uint64_t slots = 64;
    const uint64_t want =
        static_cast<uint64_t>(n) + static_cast<uint64_t>(n) / 3 + 1;
    while (slots < want) slots <<= 1;
    const uint64_t mask = slots - 1;
    std::vector<uint64_t>& slot_hash = t.slot_hash;
    std::vector<int32_t>& slot_unique = t.slot_unique;
    slot_hash.assign(slots, 0);
    slot_unique.assign(slots, -1);
    for (int64_t k = 0; k < n; ++k) {
      const int64_t cell = indices[static_cast<size_t>(k)];
      const uint64_t h = ds.CellContentHash(cell);
      uint64_t s = h & mask;
      int32_t unique = -1;
      while (slot_unique[s] >= 0) {
        if (slot_hash[s] == h &&
            ds.CellContentEquals(
                plan->unique_cells[static_cast<size_t>(slot_unique[s])],
                cell)) {
          unique = slot_unique[s];
          break;
        }
        s = (s + 1) & mask;
      }
      if (unique < 0) {
        unique = static_cast<int32_t>(plan->unique_cells.size());
        plan->unique_cells.push_back(cell);
        slot_hash[s] = h;
        slot_unique[s] = unique;
      }
      plan->cell_to_unique[static_cast<size_t>(k)] = unique;
    }
  } else {
    plan->unique_cells.assign(indices.begin(), indices.end());
    for (int64_t k = 0; k < n; ++k) {
      plan->cell_to_unique[static_cast<size_t>(k)] = static_cast<int32_t>(k);
    }
  }

  // The plan rule: stably sort the unique cells by effective length (a
  // counting sort over 1..max_len), cut a batch every eval_batch cells, and
  // pad each batch to its last, longest cell. Exact, because a cell's
  // result is the same bits at any padded length >= its effective length.
  // The dense reference keeps table order and pads every batch to max_len.
  const int64_t n_unique = static_cast<int64_t>(plan->unique_cells.size());
  plan->order.resize(static_cast<size_t>(n_unique));
  std::vector<int>& len = t.len;
  if (options_.bucketed) {
    len.resize(static_cast<size_t>(n_unique));
    std::vector<int64_t>& first = t.first;
    first.assign(static_cast<size_t>(std::max(ds.max_len, 1)) + 2, 0);
    for (int64_t u = 0; u < n_unique; ++u) {
      const int l = std::max(
          1, ds.effective_len(plan->unique_cells[static_cast<size_t>(u)]));
      len[static_cast<size_t>(u)] = l;
      ++first[static_cast<size_t>(l) + 1];
    }
    for (size_t l = 1; l < first.size(); ++l) first[l] += first[l - 1];
    for (int64_t u = 0; u < n_unique; ++u) {
      plan->order[static_cast<size_t>(
          first[static_cast<size_t>(len[static_cast<size_t>(u)])]++)] =
          static_cast<int32_t>(u);
    }
  } else {
    std::iota(plan->order.begin(), plan->order.end(), 0);
  }

  plan->batches.clear();
  for (int64_t begin = 0; begin < n_unique; begin += options_.eval_batch) {
    const int64_t end =
        std::min<int64_t>(begin + options_.eval_batch, n_unique);
    const int32_t longest = plan->order[static_cast<size_t>(end - 1)];
    const int padded_len =
        options_.bucketed ? len[static_cast<size_t>(longest)] : ds.max_len;
    plan->batches.push_back(PlanBatch{begin, end, padded_len});
  }
}

void InferenceEngine::RunPlan(const data::EncodedDataset& ds,
                              const SweepPlan& plan, bool want_hidden,
                              std::vector<float>* p_unique,
                              nn::Tensor* hidden_unique) {
  const int64_t n_unique = static_cast<int64_t>(plan.unique_cells.size());
  if (want_hidden) {
    hidden_unique->ResizeForOverwrite(
        static_cast<int>(n_unique), model_.config().hidden_dense_dim);
  } else {
    p_unique->resize(static_cast<size_t>(n_unique));
  }
  if (n_unique == 0) return;

  // Each lane is a slot that claims the next batch index from a shared
  // counter until none is left, so a lane that drew short batches takes
  // more of them. Every batch's inputs and output slots are fixed by the
  // plan, so which lane runs a batch (and the lane count) cannot change any
  // result bit.
  const int64_t n_batches = static_cast<int64_t>(plan.batches.size());

  // Lanes: the calling thread plus the pool's workers. The engine's own
  // pool is built only when more than one batch will run, and never with
  // more lanes than the hardware has threads: each lane holds its own
  // scratch.
  ThreadPool* pool = external_pool_;
  int64_t lanes = pool != nullptr ? pool->num_threads() + 1
                                  : std::max(1, options_.threads);
  if (pool == nullptr) lanes = std::min<int64_t>(lanes, HardwareConcurrency());
  lanes = std::min(lanes, n_batches);
  if (lanes_.size() < static_cast<size_t>(lanes)) {
    lanes_.resize(static_cast<size_t>(lanes));
  }

  std::atomic<int64_t> next{0};
  auto run_slot = [&](int64_t slot) {
    // The slot's scratch persists across this lane's batches and across
    // sweeps. ParallelFor runs each slot once, so no two lanes share it.
    LaneScratch& lane = lanes_[static_cast<size_t>(slot)];
    InferenceScratch& scratch = lane.forward;
    BatchInput& batch = lane.batch;
    std::vector<int64_t>& cells = lane.cells;
    std::vector<float>& probs = lane.probs;
    nn::Tensor& hidden = lane.hidden;
    for (int64_t b; (b = next.fetch_add(1, std::memory_order_relaxed)) <
                    n_batches;) {
      OBS_SPAN("inference/batch");
      const PlanBatch& pb = plan.batches[static_cast<size_t>(b)];
      cells.clear();
      for (int64_t i = pb.begin; i < pb.end; ++i) {
        cells.push_back(plan.unique_cells[static_cast<size_t>(
            plan.order[static_cast<size_t>(i)])]);
      }
      MakeBatchInto(ds, cells, pb.padded_len, &batch);
      const BucketedInferenceContext* ctx =
          options_.bucketed ? &bucketed_ctx_ : nullptr;
      if (want_hidden) {
        model_.ForwardHidden(batch, &hidden, &scratch, ctx);
        for (int64_t r = 0; r < pb.end - pb.begin; ++r) {
          const int32_t u = plan.order[static_cast<size_t>(pb.begin + r)];
          for (int j = 0; j < hidden.cols(); ++j) {
            hidden_unique->at(u, j) = hidden.at(static_cast<int>(r), j);
          }
        }
      } else {
        model_.PredictProbs(batch, &probs, &scratch, ctx);
        for (int64_t r = 0; r < pb.end - pb.begin; ++r) {
          const int32_t u = plan.order[static_cast<size_t>(pb.begin + r)];
          (*p_unique)[static_cast<size_t>(u)] =
              probs[static_cast<size_t>(r)];
        }
      }
    }
  };

  if (lanes == 1) {
    run_slot(0);  // called directly: a std::function of it would allocate.
    return;
  }
  std::unique_ptr<ThreadPool> own_pool;
  if (pool == nullptr) {
    own_pool = std::make_unique<ThreadPool>(static_cast<int>(lanes - 1));
    pool = own_pool.get();
  }
  ParallelFor(pool, lanes, run_slot);
}

void InferenceEngine::SweepUnique(const data::EncodedDataset& ds,
                                  const std::vector<int64_t>& indices,
                                  bool want_hidden, PlanTables* tables,
                                  SweepPlan* plan,
                                  std::vector<float>* p_unique,
                                  nn::Tensor* hidden_unique) {
  OBS_SPAN("inference/sweep");
  Stopwatch timer;
  BuildPlan(ds, indices, tables, plan);

  // The context (projection tables and pad-prefix trajectory) is built
  // serially here, before RunPlan fans out: the pool's task submission
  // gives every lane a happens-before edge on it.
  if (options_.bucketed && !bucketed_ctx_ready_) {
    model_.PrepareBucketedInference(&bucketed_ctx_);
    bucketed_ctx_ready_ = true;
  }

  stats_ = InferenceStats{};
  stats_.cells = static_cast<int64_t>(indices.size());
  stats_.unique_cells = static_cast<int64_t>(plan->unique_cells.size());
  stats_.dedup_factor =
      stats_.unique_cells > 0
          ? static_cast<double>(stats_.cells) /
                static_cast<double>(stats_.unique_cells)
          : 1.0;
  stats_.batches = static_cast<int64_t>(plan->batches.size());
  const int dirs = model_.config().bidirectional ? 2 : 1;
  stats_.rnn_steps_dense = stats_.cells * ds.max_len * dirs;
  for (const PlanBatch& pb : plan->batches) {
    // The forward chain always runs to max_len; the sorted plan shortens
    // only the backward chain (its pad prefix is warm-started, not re-run).
    stats_.rnn_steps += (pb.end - pb.begin) *
                        (ds.max_len + (dirs == 2 ? pb.padded_len : 0));
  }
  OBS_COUNTER_ADD("inference/cells", stats_.cells);
  OBS_COUNTER_ADD("inference/unique_cells", stats_.unique_cells);
  OBS_COUNTER_ADD("inference/memo_hits", stats_.cells - stats_.unique_cells);
  OBS_COUNTER_ADD("inference/batches", stats_.batches);
  OBS_COUNTER_ADD("inference/rnn_steps", stats_.rnn_steps);
  OBS_COUNTER_ADD("inference/rnn_steps_dense", stats_.rnn_steps_dense);

  RunPlan(ds, *plan, want_hidden, p_unique, hidden_unique);
  stats_.seconds = timer.ElapsedSeconds();
  OBS_HISTOGRAM_RECORD("inference/sweep_seconds", stats_.seconds);
}

void InferenceEngine::PredictProbs(const data::EncodedDataset& ds,
                                   const std::vector<int64_t>& indices,
                                   std::vector<float>* p_error) {
  std::vector<int64_t> all;
  const std::vector<int64_t>* use = &indices;
  if (indices.empty()) {
    all.resize(static_cast<size_t>(ds.num_cells()));
    for (int64_t i = 0; i < ds.num_cells(); ++i) {
      all[static_cast<size_t>(i)] = i;
    }
    use = &all;
  }
  SweepPlan plan;
  std::vector<float> p_unique;
  PredictIndices(ds, *use, /*tables=*/nullptr, &plan, &p_unique, p_error);
}

void InferenceEngine::PredictIndices(const data::EncodedDataset& ds,
                                     const std::vector<int64_t>& indices,
                                     PlanTables* tables, SweepPlan* plan,
                                     std::vector<float>* p_unique,
                                     std::vector<float>* p_error) {
  SweepUnique(ds, indices, /*want_hidden=*/false, tables, plan, p_unique,
              nullptr);
  p_error->resize(indices.size());
  for (size_t k = 0; k < indices.size(); ++k) {
    (*p_error)[k] = (*p_unique)[static_cast<size_t>(plan->cell_to_unique[k])];
  }
}

int64_t InferenceEngine::PredictProbsMemoized(const data::EncodedDataset& ds,
                                              ContentMemo* memo,
                                              std::vector<float>* p_error) {
  const int64_t n = ds.num_cells();
  p_error->assign(static_cast<size_t>(n), 0.0f);
  if (memo == nullptr || !memo->enabled()) {
    if (n > 0) PredictProbs(ds, {}, p_error);
    return 0;
  }
  hit_.assign(static_cast<size_t>(n), 0);
  const int64_t hits = memo->Lookup(ds, p_error, &hit_);
  if (hits >= n) {
    // Fully memo-served: no model work. Report an empty (zero-second)
    // sweep so callers can sum stats().seconds unconditionally.
    stats_ = InferenceStats{};
    stats_.cells = n;
    return hits;
  }
  // The misses are swept as an index view of `ds`: the same batches, and
  // so the same bits, as a sweep of a copy holding only them.
  miss_.clear();
  for (int64_t i = 0; i < n; ++i) {
    if (!hit_[static_cast<size_t>(i)]) miss_.push_back(i);
  }
  PredictIndices(ds, miss_, &miss_tables_, &miss_plan_, &miss_p_unique_,
                 &miss_p_);
  for (size_t k = 0; k < miss_.size(); ++k) {
    (*p_error)[static_cast<size_t>(miss_[k])] = miss_p_[k];
    memo->Insert(ds, miss_[k], miss_p_[k]);
  }
  return hits;
}

void InferenceEngine::Predict(const data::EncodedDataset& ds,
                              std::vector<uint8_t>* labels) {
  std::vector<float> p;
  PredictProbs(ds, {}, &p);
  labels->resize(p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    (*labels)[i] = p[i] > 0.5f ? 1 : 0;
  }
}

double InferenceEngine::Accuracy(const data::EncodedDataset& ds,
                                 const std::vector<int64_t>& indices) {
  std::vector<float> p;
  PredictProbs(ds, indices, &p);
  if (p.empty()) return 0.0;
  int64_t correct = 0;
  for (size_t k = 0; k < p.size(); ++k) {
    const int64_t cell =
        indices.empty() ? static_cast<int64_t>(k) : indices[k];
    const int pred = p[k] > 0.5f ? 1 : 0;
    if (pred == ds.labels[static_cast<size_t>(cell)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(p.size());
}

void CalibrateBatchNormMemoized(ErrorDetectionModel* model,
                                const data::EncodedDataset& ds,
                                const InferenceOptions& options,
                                ThreadPool* pool) {
  if (ds.num_cells() == 0) return;
  InferenceEngine engine(*model, options, pool);

  std::vector<int64_t> all(static_cast<size_t>(ds.num_cells()));
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    all[static_cast<size_t>(i)] = i;
  }
  InferenceEngine::SweepPlan plan;
  nn::Tensor hidden_unique;
  engine.SweepUnique(ds, all, /*want_hidden=*/true, /*tables=*/nullptr, &plan,
                     nullptr, &hidden_unique);

  // Accumulate per original cell (not per unique cell) in dataset order —
  // the same double-precision summation sequence as the unmemoized
  // reference in ErrorDetectionModel::CalibrateBatchNorm.
  const int features = model->config().hidden_dense_dim;
  std::vector<double> sum(static_cast<size_t>(features), 0.0);
  std::vector<double> sum_sq(static_cast<size_t>(features), 0.0);
  for (int64_t i = 0; i < ds.num_cells(); ++i) {
    const int32_t u = plan.cell_to_unique[static_cast<size_t>(i)];
    for (int j = 0; j < features; ++j) {
      const double v = hidden_unique.at(u, j);
      sum[static_cast<size_t>(j)] += v;
      sum_sq[static_cast<size_t>(j)] += v * v;
    }
  }
  const double count = static_cast<double>(ds.num_cells());
  nn::Tensor mean(std::vector<int>{features});
  nn::Tensor var(std::vector<int>{features});
  for (int j = 0; j < features; ++j) {
    const size_t sj = static_cast<size_t>(j);
    const double m = sum[sj] / count;
    mean[sj] = static_cast<float>(m);
    var[sj] =
        static_cast<float>(std::max(0.0, sum_sq[sj] / count - m * m));
  }
  model->SetBatchNormStats(std::move(mean), std::move(var));
}

}  // namespace birnn::core
