#include "serve/batcher.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.h"

namespace birnn::serve {

namespace {

core::InferenceOptions MakeEngineOptions(const BatcherOptions& options) {
  core::InferenceOptions engine_options;
  engine_options.eval_batch = std::max(1, options.max_batch);
  engine_options.threads = 0;  // the dispatcher thread runs the sweep
  engine_options.memoize = true;
  return engine_options;
}

core::ContentMemoOptions MakeMemoOptions(const LoadedDetector& detector,
                                         const BatcherOptions& options) {
  core::ContentMemoOptions memo_options;
  memo_options.capacity = std::max<int64_t>(0, options.memo_capacity);
  // Pre-size from the bundle's training-table unique-cell count (when the
  // manifest carries it): serving the table the detector was trained on is
  // the common case, and starting at that population means the first sweep
  // never grows the tables through rehashes.
  memo_options.expected_entries = detector.expected_unique_cells();
  return memo_options;
}

}  // namespace

MicroBatcher::MicroBatcher(const LoadedDetector& detector,
                           BatcherOptions options)
    : detector_(detector),
      options_(options),
      memo_(MakeMemoOptions(detector, options)) {
  options_.max_batch = std::max(1, options_.max_batch);
  options_.max_delay_us = std::max(0, options_.max_delay_us);
  options_.queue_capacity = std::max(1, options_.queue_capacity);
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Submit(const std::vector<CellQuery>& cells,
                          ResultCallback callback) {
  if (cells.empty()) {
    callback(Status::OK(), {});
    return;
  }
  StatusOr<data::EncodedDataset> encoded = detector_.EncodeQueries(cells);
  if (!encoded.ok()) {
    rejected_requests_.Add(1);
    callback(encoded.status(), {});
    return;
  }
  const int64_t n = encoded->num_cells();

  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) {
    lock.unlock();
    rejected_requests_.Add(1);
    callback(Status::FailedPrecondition("batcher stopped"), {});
    return;
  }
  if (pending_cells_ + n > options_.queue_capacity) {
    lock.unlock();
    shed_requests_.Add(1);
    shed_cells_.Add(n);
    callback(Status::Overloaded("admission queue full"), {});
    return;
  }
  // Count the admission before unlocking: once the dispatcher can see the
  // request, a client that receives its verdict and immediately asks for
  // stats must see it counted.
  requests_.Add(1);
  cells_.Add(n);
  queue_cells_.Add(static_cast<double>(n));
  pending_.push_back(Pending{std::move(*encoded), std::move(callback),
                             std::chrono::steady_clock::now()});
  pending_cells_ += n;
  lock.unlock();
  wake_dispatcher_.notify_all();
}

void MicroBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_dispatcher_.notify_all();
  std::lock_guard<std::mutex> join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

BatcherStats MicroBatcher::stats() const {
  BatcherStats stats;
  stats.requests = requests_.Value();
  stats.cells = cells_.Value();
  stats.shed_requests = shed_requests_.Value();
  stats.shed_cells = shed_cells_.Value();
  stats.rejected_requests = rejected_requests_.Value();
  const obs::HistogramData batch_cells = batch_cells_.Snapshot();
  stats.batches = batch_cells.count;
  stats.max_batch_cells = static_cast<int64_t>(std::llround(batch_cells.max));
  stats.batch_seconds = batch_seconds_.Snapshot().sum;
  stats.memo_hits = memo_hits_.Value();
  const core::ContentMemoStats memo = memo_.stats();
  stats.memo_entries = memo.entries;
  stats.memo_bytes = memo.bytes;
  stats.memo_bloom_fp = memo.bloom_fps;
  stats.memo_evictions = memo.evictions;
  return stats;
}

void MicroBatcher::DispatchLoop() {
  // The dispatcher owns the engine (scratch and stats) over the detector's
  // const weights.
  core::InferenceEngine engine(detector_.model(), MakeEngineOptions(options_));

  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_dispatcher_.wait(lock,
                          [this] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stopping_) return;  // drained
      continue;
    }

    // The batching window: wait for a full batch, the oldest request's
    // deadline, or shutdown — whichever comes first. During a drain there
    // is no window; everything admitted flushes immediately.
    if (!stopping_ && pending_cells_ < options_.max_batch) {
      const auto deadline =
          pending_.front().arrival +
          std::chrono::microseconds(options_.max_delay_us);
      wake_dispatcher_.wait_until(lock, deadline, [this] {
        return stopping_ || pending_cells_ >= options_.max_batch;
      });
    }

    // Coalesce whole requests up to max_batch cells. The first request is
    // always taken, so an oversized request still gets served (in one big
    // batch) rather than starving.
    std::vector<Pending> taken;
    int64_t batch_cells = 0;
    while (!pending_.empty()) {
      const int64_t n = pending_.front().encoded.num_cells();
      if (!taken.empty() && batch_cells + n > options_.max_batch) break;
      batch_cells += n;
      taken.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    pending_cells_ -= batch_cells;
    lock.unlock();
    queue_cells_.Add(static_cast<double>(-batch_cells));

    // One forward batch for everything taken. The engine memoizes duplicate
    // cell contents within the batch and its kernels are batch-size
    // invariant, so each cell's verdict is independent of its batch-mates.
    data::EncodedDataset* batch = &taken.front().encoded;
    data::EncodedDataset merged;
    if (taken.size() > 1) {
      merged = taken.front().encoded;
      for (size_t i = 1; i < taken.size(); ++i) {
        AppendDataset(taken[i].encoded, &merged);
      }
      batch = &merged;
    }

    // The memo answers cells the service has predicted before (any earlier
    // batch); only the leftovers touch the engine —
    // the lookup / miss-subset-sweep / insert cycle lives in
    // InferenceEngine::PredictProbsMemoized now, on top of the succinct
    // content index. Exact: per-cell outputs are batch-composition
    // independent, so serving the miss subset alone changes nothing.
    std::vector<float> probs;
    int64_t hits;
    double batch_seconds;
    {
      OBS_SPAN("serve/batch");
      hits = engine.PredictProbsMemoized(*batch, &memo_, &probs);
      // Zero when the batch was fully memo-served (no model work ran).
      batch_seconds = engine.stats().seconds;
    }
    if (hits > 0) memo_hits_.Add(hits);

    // Account the batch before delivering responses, so a client that
    // receives its verdict and immediately asks for stats sees it counted.
    batch_cells_.Record(static_cast<double>(batch_cells));
    batch_seconds_.Record(batch_seconds);

    size_t offset = 0;
    for (Pending& p : taken) {
      const size_t n = static_cast<size_t>(p.encoded.num_cells());
      std::vector<CellVerdict> verdicts(n);
      for (size_t i = 0; i < n; ++i) {
        const float prob = probs[offset + i];
        verdicts[i] = CellVerdict{prob, prob > 0.5f};
      }
      offset += n;
      request_seconds_.Record(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        p.arrival)
              .count());
      p.callback(Status::OK(), verdicts);
    }

    lock.lock();
  }
}

}  // namespace birnn::serve
