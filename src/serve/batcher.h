#ifndef BIRNN_SERVE_BATCHER_H_
#define BIRNN_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/content_index.h"
#include "core/inference.h"
#include "obs/registry.h"
#include "serve/bundle.h"
#include "util/status.h"

namespace birnn::serve {

/// Dynamic micro-batching policy.
struct BatcherOptions {
  /// Dispatch as soon as this many cells are pending...
  int max_batch = 64;
  /// ...or once the oldest pending request has waited this long.
  int max_delay_us = 2000;
  /// Admission bound (in cells) on the pending queue. A request that would
  /// push the queue past this is shed immediately with OVERLOADED instead
  /// of queuing without bound; a request larger than the capacity can never
  /// be admitted.
  int queue_capacity = 1024;
  /// Entry bound of the cross-request verdict memo (a core::ContentMemo);
  /// 0 disables it. Exact — cached verdicts are a pure function of cell
  /// content under fixed weights.
  int64_t memo_capacity = 1 << 18;
};

/// Verdict for one queried cell.
struct CellVerdict {
  float p_error = 0.0f;
  bool is_error = false;
};

/// Snapshot of one batcher's lifetime accounting. Backed by obs metrics
/// owned by the batcher (`serve/batcher/*` on the global registry), so a
/// registry scrape sees the process-wide aggregate while stats() stays
/// exact per instance.
struct BatcherStats {
  int64_t requests = 0;        ///< admitted requests.
  int64_t cells = 0;           ///< admitted cells.
  int64_t shed_requests = 0;   ///< refused with OVERLOADED.
  int64_t shed_cells = 0;
  int64_t rejected_requests = 0;  ///< invalid (bad attribute) or post-stop.
  int64_t batches = 0;         ///< forward batches dispatched.
  int64_t max_batch_cells = 0; ///< largest coalesced batch.
  double batch_seconds = 0.0;  ///< wall clock inside the inference engine.
  int64_t memo_hits = 0;       ///< cells answered from the shared memo.
  int64_t memo_entries = 0;    ///< current shared-memo population.
  int64_t memo_bytes = 0;      ///< resident memo bytes (tables+arena+bloom).
  int64_t memo_bloom_fp = 0;   ///< bloom false positives (wasted probes).
  int64_t memo_evictions = 0;  ///< shard drops at the capacity bound.
};

/// Coalesces concurrent detection requests into batches through one
/// core::InferenceEngine. One dispatcher thread owns the engine and pulls
/// coalesced batches from the admission queue; callers enqueue encoded
/// cells and are answered via callback once their batch completes. A
/// core::ContentMemo answers repeated cell contents across requests without
/// touching the engine. The memo lives and dies with the batcher, so it
/// never outlives a weight change: a hot bundle reload builds a fresh
/// batcher.
///
/// Because the engine's forward path is batch-composition independent
/// (row-independent kernels, batch-size-invariant activation sweeps,
/// content-keyed memoization — see core/inference.h), the verdicts are
/// bit-identical to running each request alone, no matter how requests
/// interleave or what max_batch / max_delay_us window is configured. The
/// batching changes throughput, never answers.
///
/// Backpressure: the pending queue is bounded by `queue_capacity` cells;
/// requests beyond it are refused immediately with Status::Overloaded (the
/// callback runs inline on the submitting thread). Stop() admits nothing
/// new but answers every already-admitted request before returning.
class MicroBatcher {
 public:
  /// Answers one request: `verdicts` has one entry per submitted cell when
  /// `status` is OK, and is empty otherwise. Runs on the dispatcher thread
  /// (or inline on the submitting thread for shed/rejected requests); keep
  /// it cheap and never call back into the batcher from it.
  using ResultCallback =
      std::function<void(const Status& status,
                         const std::vector<CellVerdict>& verdicts)>;

  /// `detector` must outlive the batcher.
  MicroBatcher(const LoadedDetector& detector, BatcherOptions options = {});
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Encodes and enqueues one request. The callback always fires exactly
  /// once: OK with per-cell verdicts, InvalidArgument for an unresolvable
  /// attribute, Overloaded when shed, FailedPrecondition after Stop().
  void Submit(const std::vector<CellQuery>& cells, ResultCallback callback);

  /// Graceful drain: stops admitting, answers every admitted request, then
  /// joins the dispatcher. Idempotent; also run by the destructor.
  void Stop();

  BatcherStats stats() const;
  const BatcherOptions& options() const { return options_; }

 private:
  struct Pending {
    data::EncodedDataset encoded;
    ResultCallback callback;
    std::chrono::steady_clock::time_point arrival;
  };

  void DispatchLoop();

  const LoadedDetector& detector_;
  BatcherOptions options_;
  core::ContentMemo memo_;

  mutable std::mutex mutex_;
  std::condition_variable wake_dispatcher_;
  std::deque<Pending> pending_;
  int64_t pending_cells_ = 0;
  bool stopping_ = false;

  // Per-instance metrics (also aggregated on registry scrapes). The
  // batch_cells_ histogram doubles as the batches/max_batch_cells source;
  // request_seconds_ is admission-to-response latency.
  obs::Counter requests_{"serve/batcher/requests"};
  obs::Counter cells_{"serve/batcher/cells"};
  obs::Counter shed_requests_{"serve/batcher/shed_requests"};
  obs::Counter shed_cells_{"serve/batcher/shed_cells"};
  obs::Counter rejected_requests_{"serve/batcher/rejected_requests"};
  obs::Histogram batch_cells_{"serve/batcher/batch_cells"};
  obs::Histogram batch_seconds_{"serve/batcher/batch_seconds"};
  obs::Histogram request_seconds_{"serve/batcher/request_seconds"};
  obs::Gauge queue_cells_{"serve/batcher/queue_cells"};
  obs::Counter memo_hits_{"serve/batcher/memo_hits"};

  std::mutex join_mutex_;  ///< serializes concurrent Stop() calls.
  std::thread dispatcher_;
};

}  // namespace birnn::serve

#endif  // BIRNN_SERVE_BATCHER_H_
