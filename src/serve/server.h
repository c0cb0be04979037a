#ifndef BIRNN_SERVE_SERVER_H_
#define BIRNN_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "adapt/controller.h"
#include "serve/batcher.h"
#include "serve/protocol.h"
#include "serve/reactor.h"
#include "serve/registry.h"
#include "stream/session.h"
#include "util/status.h"

namespace birnn::serve {

struct ServerOptions {
  /// Bind address. Loopback by default — the service has no auth layer, so
  /// exposing it wider is an explicit decision.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one from port() after
  /// Start() (the tests and the CI smoke job rely on this).
  int port = 0;
  /// Event-loop threads.
  int reactor_threads = 2;
  /// Admission cap on concurrently open connections. Above it new sockets
  /// get a typed OVERLOADED line and an immediate close.
  int max_connections = 10000;
  /// Per-connection pending-output bound; above it the reactor stops
  /// reading that connection until the backlog flushes (writable-queue
  /// backpressure).
  size_t max_output_backlog = 4u << 20;
  /// Bound on the graceful drain in Shutdown().
  int drain_timeout_ms = 5000;
  /// Listen backlog for not-yet-accepted connections.
  int backlog = 64;
  /// A request line longer than this is answered with a typed error and
  /// kills its connection (bounds per-connection memory against hostile
  /// input).
  int max_line_bytes = 1 << 20;
  /// Micro-batching policy, applied to every hosted model: one engine per
  /// model behind a verdict memo.
  BatcherOptions batcher;
  /// Streaming ("delta" op) policy, applied to every per-model table
  /// session. Sessions are created lazily on the first delta and reset by
  /// reload/rollback (a swapped-in bundle starts from an empty table).
  stream::SessionOptions stream_session;
  /// Adaptation ("adapt" op) policy: fine-tune schedule, reservoir
  /// thresholds and the promotion gate band. `adapt.candidate_dir` is
  /// ignored — the server derives a per-promotion directory from
  /// `adapt_bundle_dir` instead.
  adapt::ControllerOptions adapt;
  /// Where promoted candidate bundles are written (one subdirectory per
  /// promotion). Empty = a per-promotion directory under the system temp
  /// dir.
  std::string adapt_bundle_dir;
};

/// TCP server speaking the newline-delimited JSON protocol in
/// serve/protocol.h over an epoll reactor (serve/reactor.h): a few
/// event-loop threads multiplex nonblocking connections, and detect
/// requests flow through the micro-batcher asynchronously. Each hosted
/// model is served by a MicroBatcher (one engine + verdict memo), so
/// concurrent connections coalesce into shared forward batches.
///
/// Hot reload: ReloadModel() loads a new bundle, atomically swaps it in
/// (new requests go to the new model), drains the old one — every request
/// that acquired the old model gets its response handed to the transport —
/// then stops the old batcher. Zero in-flight requests are dropped.
/// RollbackModel() swaps back to the previously-served weights the same
/// way. Both are also reachable over the wire ("reload" / "rollback" ops).
///
/// Shutdown() drains gracefully: stop accepting, stop reading, answer and
/// flush everything already admitted, then stop the batchers. No admitted
/// request is dropped.
class Server : public Reactor::Handler {
 public:
  /// `registry` must outlive the server. Models present at Start() get a
  /// serving entry each; models added to the registry later are not served
  /// until the server is restarted (but ReloadModel updates both the
  /// serving entry and the registry).
  Server(ModelRegistry* registry, ServerOptions options = {});
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the transport. Fails on bind errors or an
  /// empty registry.
  Status Start();

  /// The bound port (resolves option port 0), or 0 before Start().
  int port() const { return port_; }

  /// Graceful drain, idempotent; also run by the destructor.
  void Shutdown();

  /// Loads the bundle at `dir` and hot-swaps it in under `name`: new
  /// requests see the new model immediately, in-flight requests finish on
  /// the old one, the old batcher is drained and stopped. Serialized per
  /// model; concurrent requests are never dropped.
  Status ReloadModel(const std::string& name, const std::string& dir);

  /// Swaps back to the weights served before the last ReloadModel /
  /// RollbackModel, with the same drain guarantees. FailedPrecondition if
  /// nothing was ever replaced.
  Status RollbackModel(const std::string& name);

  /// Bundle generation currently served under `name` (1 at Start(),
  /// incremented by every successful reload/rollback); 0 for unknown names.
  int64_t ModelGeneration(const std::string& name) const;

  /// Aggregated stats for one hosted model; NotFound for unknown names.
  StatusOr<BatcherStats> ModelStats(const std::string& name) const;

  /// Reactor::Handler — one framed request line. Public as an override;
  /// not part of the server's own API.
  void OnLine(const Reactor::ConnRef& conn, uint64_t seq,
              std::string line) override;

 private:
  /// One model's live serving state. Requests acquire the current
  /// ServingModel, use its batcher, and release it; a reload swaps
  /// `current` and waits for the old model's active count to hit zero
  /// before stopping its batcher — that wait is what makes reload
  /// drop-free.
  struct ServingModel {
    std::shared_ptr<const LoadedDetector> detector;
    std::unique_ptr<MicroBatcher> batcher;
    /// Lazily-created streaming table session for "delta" ops (requires a
    /// stream-capable bundle). Lives and dies with this ServingModel, so a
    /// reload/rollback swap implicitly resets the streamed table.
    std::mutex session_mu;  ///< guards session creation.
    std::unique_ptr<stream::TableSession> session;
    std::atomic<int64_t> active{0};
    std::mutex drain_mu;
    std::condition_variable drain_cv;
  };

  struct ModelEntry {
    std::string name;
    mutable std::mutex mu;  ///< guards current/previous/generation.
    std::shared_ptr<ServingModel> current;
    /// Weights served before the last swap; rollback target.
    std::shared_ptr<const LoadedDetector> previous;
    int64_t generation = 1;
    /// Adaptation lineage, mirrored into the `stats` response.
    AdaptLineage adapt;
    /// Serializes reload/rollback/shutdown-stop (held across load + swap +
    /// drain, so admin ops on one model never interleave).
    std::mutex admin_mu;
  };

  /// Answers one already-parsed request synchronously and returns the
  /// response line (without newline). OnLine runs it for every op except
  /// "detect" (which goes through the batcher asynchronously) and "quit".
  std::string HandleRequest(const Request& request);
  /// Applies a delta batch to the model's table session (creating it on
  /// first use) and renders the response line.
  std::string HandleDelta(const Request& request,
                          const std::shared_ptr<ServingModel>& sm);
  /// Runs one drift-adaptation attempt on the model's table session and,
  /// on a promoted candidate, hot-swaps the saved bundle in through the
  /// same drain path as reload (zero dropped in-flight requests).
  std::string HandleAdapt(const Request& request);
  ModelEntry* ResolveEntry(const std::string& model, std::string* resolved);
  std::shared_ptr<ServingModel> AcquireModel(const std::string& model,
                                             std::string* resolved);
  static void ReleaseModel(const std::shared_ptr<ServingModel>& sm);
  Status SwapIn(ModelEntry* entry, std::shared_ptr<ServingModel> next);

  ModelRegistry* registry_;
  ServerOptions options_;

  /// Key set fixed at Start() (lock-free lookups); entries are internally
  /// mutable for hot reload.
  std::map<std::string, std::unique_ptr<ModelEntry>> models_;

  int listen_fd_ = -1;
  int port_ = 0;

  std::unique_ptr<Reactor> reactor_;

  mutable std::mutex mutex_;
  std::mutex shutdown_mutex_;  ///< serializes concurrent Shutdown() calls.
  bool shutting_down_ = false;
  bool started_ = false;
};

}  // namespace birnn::serve

#endif  // BIRNN_SERVE_SERVER_H_
