#ifndef BIRNN_SERVE_REACTOR_H_
#define BIRNN_SERVE_REACTOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/registry.h"
#include "util/status.h"

namespace birnn::serve {

/// Reactor tuning. The reactor itself is protocol-agnostic: it frames
/// newline-delimited request lines in and sequenced response lines out;
/// everything protocol-shaped (what an overload or oversize reply looks
/// like) is injected as pre-rendered lines.
struct ReactorOptions {
  /// Event-loop threads. Each runs its own epoll instance; the listening
  /// socket is registered in every loop with EPOLLEXCLUSIVE, so the kernel
  /// spreads accepts without a dedicated acceptor or thundering herds.
  int threads = 2;
  /// Admission cap on concurrently open connections (across all loops).
  /// Above it, an accepted socket gets `overload_line` written best-effort
  /// and is closed immediately — a typed refusal, not a hung SYN queue.
  int max_connections = 10000;
  /// A connection whose buffered input exceeds this without containing a
  /// newline is answered with `oversize_line` and closed (bounds per-
  /// connection memory against hostile input).
  int max_line_bytes = 1 << 20;
  /// Per-connection pending-output bound. Above it the reactor stops
  /// *reading* from that connection (its requests are what create output),
  /// resuming below half — classic writable-queue backpressure, so one
  /// slow-reading client can neither balloon memory nor stall the loop.
  size_t max_output_backlog = 4u << 20;
  /// On Shutdown(): how long to keep flushing responses for requests that
  /// were admitted before the drain began. Connections still unflushed at
  /// the deadline (peer stopped reading) are closed forcibly. Also bounds
  /// a server-initiated close (oversize line, quit): after the last
  /// response flushes, the write side is shut down and input is discarded
  /// until the peer's EOF or this deadline, so unread request bytes never
  /// turn the close into a connection reset.
  int drain_timeout_ms = 5000;
  /// Pre-rendered response line (no newline) for over-cap accepts.
  std::string overload_line;
  /// Pre-rendered response line (no newline) for oversized request lines.
  std::string oversize_line;
};

/// Epoll-based multi-loop TCP reactor for the serve plane. Nonblocking
/// `accept4`/`read`/`write` on `threads` event loops; per-connection input
/// buffers with in-place line framing (no per-request allocation beyond the
/// line itself); a per-connection write queue flushed opportunistically and
/// by EPOLLOUT when the socket pushes back.
///
/// Responses are *sequenced*: each extracted line is assigned a
/// per-connection sequence number and handed to the Handler, which may
/// answer synchronously or from any other thread (the micro-batcher's
/// dispatcher); the reactor delivers responses strictly in request order
/// per connection, so pipelined clients see responses in the order they
/// sent requests no matter how batches complete.
///
/// Thread model: every Connection is owned by exactly one loop thread; all
/// of its state is touched only there. Cross-thread Respond() goes through
/// the owning loop's mailbox (mutex + eventfd wake). Handler::OnLine runs
/// on the loop thread — keep it cheap (parse + enqueue); model compute
/// belongs in the batcher.
class Reactor {
 public:
  class Connection;
  /// Shared handle; callbacks hold weak refs, so a connection that dies
  /// mid-request simply drops its late responses.
  using ConnRef = std::shared_ptr<Connection>;

  class Handler {
   public:
    virtual ~Handler() = default;
    /// One complete request line (newline stripped, CR trimmed, never
    /// empty). Must eventually cause exactly one Respond(conn, seq, ...)
    /// — from this thread or any other.
    virtual void OnLine(const ConnRef& conn, uint64_t seq,
                        std::string line) = 0;
  };

  Reactor(Handler* handler, ReactorOptions options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Takes ownership of a bound, listening socket and starts the loops.
  Status Start(int listen_fd);

  /// Graceful drain: stop accepting, stop reading, flush every response
  /// for already-admitted requests (bounded by drain_timeout_ms), close
  /// everything, join the loops. Idempotent.
  void Shutdown();

  /// Queues `line` (newline appended by the reactor) as the response for
  /// request `seq` on `conn`. Thread-safe. An empty line sends no bytes
  /// but still advances the sequence (the protocol's "quit" answers
  /// nothing). `close_after` closes the connection once this and every
  /// earlier response has flushed.
  void Respond(const ConnRef& conn, uint64_t seq, std::string line,
               bool close_after = false);

  /// Currently open connections (tests / stats).
  int open_connections() const {
    return total_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct Loop;

  void RunLoop(Loop* loop);
  void HandleAccept(Loop* loop);
  void HandleReadable(Loop* loop, Connection* conn);
  void HandleWritable(Loop* loop, Connection* conn);
  void ExtractLines(Loop* loop, Connection* conn);
  void DeliverReady(Loop* loop, Connection* conn);
  void FlushOut(Loop* loop, Connection* conn);
  void BeginLinger(Loop* loop, Connection* conn);
  void DiscardInput(Loop* loop, Connection* conn);
  void CloseExpiredLingers(Loop* loop);
  void UpdateInterest(Loop* loop, Connection* conn);
  void DestroyConnection(Loop* loop, Connection* conn);
  void DrainMailbox(Loop* loop);
  void WakeLoop(Loop* loop);

  Handler* handler_;
  ReactorOptions options_;

  std::vector<std::unique_ptr<Loop>> loops_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<int> total_connections_{0};
  bool started_ = false;
  std::mutex shutdown_mutex_;

  obs::Gauge connections_gauge_{"serve/reactor/connections"};
  obs::Counter accepted_{"serve/reactor/accepted"};
  obs::Counter overflow_closed_{"serve/reactor/overflow_closed"};
  obs::Counter oversize_closed_{"serve/reactor/oversize_closed"};
  obs::Counter read_paused_{"serve/reactor/read_paused"};
  obs::Counter forced_closes_{"serve/reactor/forced_closes"};
  obs::Counter bytes_in_{"serve/reactor/bytes_in"};
  obs::Counter bytes_out_{"serve/reactor/bytes_out"};
};

}  // namespace birnn::serve

#endif  // BIRNN_SERVE_REACTOR_H_
