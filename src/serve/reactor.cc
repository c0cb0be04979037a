#include "serve/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/logging.h"

namespace birnn::serve {

namespace {

// epoll_event.data tags: the listener and the mailbox eventfd get small
// integer tags; connections carry their own pointer (heap addresses are
// never 0 or 1).
constexpr uint64_t kTagListen = 0;
constexpr uint64_t kTagEventFd = 1;

}  // namespace

/// All state of one connection. Owned by exactly one event loop and only
/// ever touched on that loop's thread (cross-thread responses detour
/// through the loop mailbox), so none of it needs atomics — except `fd`'s
/// lifetime, which ends strictly before the owning ConnRef leaves the
/// loop's tables.
class Reactor::Connection {
 public:
  /// One sequenced response waiting for its turn.
  struct Slot {
    std::string data;         ///< response line, no newline; may be empty.
    bool close_after = false;
  };

  int fd = -1;
  int loop_index = 0;

  std::string in;        ///< unframed input bytes.
  std::string out;       ///< flushed front-to-back from `out_off`.
  size_t out_off = 0;

  uint64_t next_assign = 0;   ///< seq handed to the next extracted line.
  uint64_t next_deliver = 0;  ///< seq whose response goes out next.
  std::map<uint64_t, Slot> ready;  ///< out-of-order completions parked here.

  uint32_t interest = 0;      ///< currently-armed epoll event mask.
  bool want_write = false;    ///< EPOLLOUT armed (short write pending).
  bool paused = false;        ///< EPOLLIN disarmed (backpressure/EOF/close).
  bool peer_eof = false;      ///< read() returned 0; still flushing answers.
  bool close_pending = false; ///< close once delivered + flushed.
  bool lingering = false;     ///< write side shut; discarding until EOF.
  std::chrono::steady_clock::time_point linger_deadline;
  bool dead = false;          ///< destroyed; parked in the loop graveyard.

  /// Requests extracted but not yet answered into `out`.
  uint64_t outstanding() const { return next_assign - next_deliver; }
  size_t pending_out() const { return out.size() - out_off; }
  bool drained() const {
    return outstanding() == 0 && ready.empty() && pending_out() == 0;
  }
};

struct Reactor::Loop {
  int index = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  std::thread thread;

  /// Strong refs keyed by raw pointer — the pointer is what epoll hands
  /// back. Mutated only on the loop thread.
  std::unordered_map<Connection*, ConnRef> conns;
  /// Connections destroyed mid-batch; memory released at batch end so raw
  /// pointers inside the current epoll_event array stay valid.
  std::vector<ConnRef> graveyard;

  struct Mail {
    std::weak_ptr<Connection> conn;
    uint64_t seq = 0;
    std::string line;
    bool close_after = false;
  };
  std::mutex mail_mu;
  std::vector<Mail> mailbox;

  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline;
  int lingering = 0;  ///< connections in BeginLinger's discard phase.
};

Reactor::Reactor(Handler* handler, ReactorOptions options)
    : handler_(handler), options_(std::move(options)) {
  options_.threads = std::max(1, options_.threads);
  options_.max_connections = std::max(1, options_.max_connections);
  options_.max_line_bytes = std::max(1024, options_.max_line_bytes);
  options_.max_output_backlog =
      std::max<size_t>(4096, options_.max_output_backlog);
  options_.drain_timeout_ms = std::max(0, options_.drain_timeout_ms);
}

Reactor::~Reactor() {
  Shutdown();
  for (auto& loop : loops_) {
    if (loop == nullptr) continue;
    if (loop->event_fd >= 0) ::close(loop->event_fd);
    if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
  }
}

Status Reactor::Start(int listen_fd) {
  if (started_) return Status::FailedPrecondition("reactor already started");
  listen_fd_ = listen_fd;
  const int fl = ::fcntl(listen_fd_, F_GETFL, 0);
  if (fl < 0 || ::fcntl(listen_fd_, F_SETFL, fl | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl(listener): ") +
                            std::strerror(errno));
  }

  for (int i = 0; i < options_.threads; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->index = i;
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->event_fd < 0) {
      return Status::Internal(std::string("epoll/eventfd: ") +
                              std::strerror(errno));
    }
    epoll_event wake{};
    wake.events = EPOLLIN;
    wake.data.u64 = kTagEventFd;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &wake) <
        0) {
      return Status::Internal(std::string("epoll_ctl(eventfd): ") +
                              std::strerror(errno));
    }
    epoll_event acc{};
    acc.events = EPOLLIN | EPOLLEXCLUSIVE;
    acc.data.u64 = kTagListen;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &acc) < 0) {
      // Pre-4.5 kernels: fall back to plain shared level-triggered wakeups
      // (thundering herd on accept, correctness unchanged).
      acc.events = EPOLLIN;
      if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &acc) < 0) {
        return Status::Internal(std::string("epoll_ctl(listener): ") +
                                std::strerror(errno));
      }
    }
    loops_.push_back(std::move(loop));
  }

  started_ = true;
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    raw->thread = std::thread([this, raw] { RunLoop(raw); });
  }
  return Status::OK();
}

void Reactor::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& loop : loops_) WakeLoop(loop.get());
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
}

void Reactor::Respond(const ConnRef& conn, uint64_t seq, std::string line,
                      bool close_after) {
  if (conn == nullptr) return;
  Loop* loop = loops_[static_cast<size_t>(conn->loop_index)].get();
  {
    std::lock_guard<std::mutex> lock(loop->mail_mu);
    loop->mailbox.push_back(
        Loop::Mail{conn, seq, std::move(line), close_after});
  }
  WakeLoop(loop);
}

void Reactor::WakeLoop(Loop* loop) {
  const uint64_t one = 1;
  // The eventfd is nonblocking; a full counter still wakes the loop.
  [[maybe_unused]] const ssize_t n =
      ::write(loop->event_fd, &one, sizeof(one));
}

void Reactor::RunLoop(Loop* loop) {
  epoll_event events[128];
  for (;;) {
    // Entering drain: stop accepting, stop reading; what remains is
    // answering everything already admitted and flushing it out.
    if (!loop->draining && stopping_.load(std::memory_order_acquire)) {
      loop->draining = true;
      loop->drain_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(options_.drain_timeout_ms);
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      for (auto& [ptr, ref] : loop->conns) {
        ptr->paused = true;
        UpdateInterest(loop, ptr);
      }
    }
    if (loop->draining) {
      std::vector<Connection*> done;
      for (auto& [ptr, ref] : loop->conns) {
        if (ptr->drained()) done.push_back(ptr);
      }
      const bool expired =
          std::chrono::steady_clock::now() >= loop->drain_deadline;
      if (expired) {
        for (auto& [ptr, ref] : loop->conns) {
          if (std::find(done.begin(), done.end(), ptr) == done.end()) {
            forced_closes_.Add(1);
          }
        }
        done.clear();
        for (auto& [ptr, ref] : loop->conns) done.push_back(ptr);
      }
      for (Connection* conn : done) DestroyConnection(loop, conn);
      loop->graveyard.clear();
      if (loop->conns.empty()) return;
    }

    int timeout_ms = loop->draining ? 20 : -1;
    if (!loop->draining && loop->lingering > 0) {
      // Wake for the earliest linger deadline (none is further out than
      // one drain_timeout_ms from now).
      const auto now = std::chrono::steady_clock::now();
      auto next = now + std::chrono::milliseconds(options_.drain_timeout_ms);
      for (auto& [ptr, ref] : loop->conns) {
        if (ptr->lingering) next = std::min(next, ptr->linger_deadline);
      }
      const auto wait =
          std::chrono::duration_cast<std::chrono::milliseconds>(next - now);
      timeout_ms = static_cast<int>(std::max<int64_t>(0, wait.count() + 1));
    }
    const int n = ::epoll_wait(loop->epoll_fd, events, 128, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      BIRNN_LOG(Warning) << "reactor: epoll_wait: " << std::strerror(errno);
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kTagEventFd) {
        uint64_t count = 0;
        while (::read(loop->event_fd, &count, sizeof(count)) > 0) {
        }
        continue;
      }
      if (tag == kTagListen) {
        HandleAccept(loop);
        continue;
      }
      Connection* conn = static_cast<Connection*>(events[i].data.ptr);
      if (conn->dead) continue;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        DestroyConnection(loop, conn);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        HandleWritable(loop, conn);
        if (conn->dead) continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(loop, conn);
    }
    DrainMailbox(loop);
    if (loop->lingering > 0) CloseExpiredLingers(loop);
    loop->graveyard.clear();
  }
}

void Reactor::HandleAccept(Loop* loop) {
  if (stopping_.load(std::memory_order_acquire)) return;
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // Transient per-connection failures (the peer aborted between SYN
      // and accept) must not kill the acceptor; fd exhaustion backs off
      // until a connection closes (level-triggered epoll re-reports the
      // pending queue).
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      return;  // EAGAIN (a sibling loop won the race), EMFILE/ENFILE, ...
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const int now = total_connections_.fetch_add(1, std::memory_order_relaxed)
                    + 1;
    if (now > options_.max_connections) {
      total_connections_.fetch_sub(1, std::memory_order_relaxed);
      overflow_closed_.Add(1);
      if (!options_.overload_line.empty()) {
        // Best-effort typed refusal; a full socket buffer just drops it.
        const std::string line = options_.overload_line + "\n";
        [[maybe_unused]] const ssize_t sent =
            ::write(fd, line.data(), line.size());
      }
      ::close(fd);
      continue;
    }

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->loop_index = loop->index;
    conn->interest = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      total_connections_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    accepted_.Add(1);
    connections_gauge_.Add(1);
    loop->conns.emplace(conn.get(), std::move(conn));
  }
}

void Reactor::HandleReadable(Loop* loop, Connection* conn) {
  if (conn->lingering) {
    DiscardInput(loop, conn);
    return;
  }
  char chunk[65536];
  // Bounded per event so one firehose connection cannot starve the loop;
  // level-triggered epoll re-reports leftovers immediately.
  size_t budget = 1 << 18;
  while (budget > 0 && !conn->paused && !conn->close_pending) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n > 0) {
      bytes_in_.Add(n);
      budget -= std::min<size_t>(budget, static_cast<size_t>(n));
      conn->in.append(chunk, static_cast<size_t>(n));
      ExtractLines(loop, conn);
      if (conn->dead) return;
      continue;
    }
    if (n == 0) {
      // Peer half-closed its write side. No further requests can arrive;
      // finish answering what is in flight, then close (a client that
      // pipelines everything and shutdown(SHUT_WR)s still gets every
      // response).
      conn->peer_eof = true;
      conn->paused = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    DestroyConnection(loop, conn);
    return;
  }
  if (conn->peer_eof && conn->drained()) {
    DestroyConnection(loop, conn);
    return;
  }
  UpdateInterest(loop, conn);
}

void Reactor::ExtractLines(Loop* loop, Connection* conn) {
  const ConnRef self = loop->conns.at(conn);
  size_t start = 0;
  for (;;) {
    const size_t nl = conn->in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = conn->in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // blank keep-alive lines are fine
    const uint64_t seq = conn->next_assign++;
    handler_->OnLine(self, seq, std::move(line));
  }
  conn->in.erase(0, start);

  if (conn->in.size() > static_cast<size_t>(options_.max_line_bytes)) {
    // Answer the poison line with a typed error and close, bounding
    // per-connection memory.
    oversize_closed_.Add(1);
    conn->in.clear();
    conn->in.shrink_to_fit();
    conn->paused = true;
    const uint64_t seq = conn->next_assign++;
    conn->ready[seq] = Connection::Slot{options_.oversize_line, true};
    DeliverReady(loop, conn);
    FlushOut(loop, conn);
  }
}

void Reactor::DeliverReady(Loop* loop, Connection* conn) {
  (void)loop;
  while (!conn->ready.empty() &&
         conn->ready.begin()->first == conn->next_deliver) {
    Connection::Slot slot = std::move(conn->ready.begin()->second);
    conn->ready.erase(conn->ready.begin());
    ++conn->next_deliver;
    if (!slot.data.empty()) {
      conn->out.append(slot.data);
      conn->out.push_back('\n');
    }
    if (slot.close_after) {
      conn->close_pending = true;
      conn->paused = true;
    }
  }
  if (!conn->paused && conn->pending_out() > options_.max_output_backlog) {
    // The client is not reading its responses; stop reading its requests
    // until the backlog flushes below half.
    conn->paused = true;
    read_paused_.Add(1);
  }
}

void Reactor::FlushOut(Loop* loop, Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_off,
                              conn->out.size() - conn->out_off);
    if (n >= 0) {
      bytes_out_.Add(n);
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      conn->want_write = true;
      UpdateInterest(loop, conn);
      return;
    }
    DestroyConnection(loop, conn);
    return;
  }
  conn->out.clear();
  conn->out_off = 0;
  conn->want_write = false;

  if (conn->close_pending && conn->ready.empty() &&
      conn->outstanding() == 0) {
    BeginLinger(loop, conn);
    return;
  }
  if (conn->peer_eof && conn->drained()) {
    DestroyConnection(loop, conn);
    return;
  }
  if (conn->paused && !conn->close_pending && !conn->peer_eof &&
      !loop->draining &&
      conn->pending_out() < options_.max_output_backlog / 2) {
    conn->paused = false;
  }
  UpdateInterest(loop, conn);
}

void Reactor::HandleWritable(Loop* loop, Connection* conn) {
  FlushOut(loop, conn);
}

void Reactor::BeginLinger(Loop* loop, Connection* conn) {
  if (conn->lingering) return;
  // Closing with request bytes still unread would make the kernel answer
  // with a reset, which can overtake the response just written. Send our
  // FIN instead, then read and drop input until the peer's EOF.
  if (conn->peer_eof || ::shutdown(conn->fd, SHUT_WR) != 0) {
    DestroyConnection(loop, conn);
    return;
  }
  conn->lingering = true;
  conn->linger_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.drain_timeout_ms);
  ++loop->lingering;
  conn->paused = false;
  UpdateInterest(loop, conn);
}

void Reactor::DiscardInput(Loop* loop, Connection* conn) {
  char chunk[65536];
  // Bounded like HandleReadable; level-triggered epoll re-reports leftovers.
  size_t budget = 1 << 18;
  while (budget > 0) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n > 0) {
      budget -= std::min<size_t>(budget, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    DestroyConnection(loop, conn);  // peer EOF or a socket error
    return;
  }
}

void Reactor::CloseExpiredLingers(Loop* loop) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<Connection*> expired;
  for (auto& [ptr, ref] : loop->conns) {
    if (ptr->lingering && now >= ptr->linger_deadline) expired.push_back(ptr);
  }
  for (Connection* conn : expired) DestroyConnection(loop, conn);
}

void Reactor::UpdateInterest(Loop* loop, Connection* conn) {
  if (conn->dead) return;
  const uint32_t events = (conn->paused ? 0u : static_cast<uint32_t>(EPOLLIN))
                          | (conn->want_write
                                 ? static_cast<uint32_t>(EPOLLOUT)
                                 : 0u);
  if (events == conn->interest) return;
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = conn;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->interest = events;
  }
}

void Reactor::DestroyConnection(Loop* loop, Connection* conn) {
  if (conn->dead) return;
  conn->dead = true;
  if (conn->lingering) --loop->lingering;
  if (conn->fd >= 0) {
    ::close(conn->fd);  // also removes it from the epoll interest list
    conn->fd = -1;
  }
  const auto it = loop->conns.find(conn);
  if (it != loop->conns.end()) {
    // Park the strong ref until the current event batch finishes — raw
    // pointers in the in-flight epoll_event array must stay valid.
    loop->graveyard.push_back(std::move(it->second));
    loop->conns.erase(it);
  }
  connections_gauge_.Add(-1);
  total_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void Reactor::DrainMailbox(Loop* loop) {
  std::vector<Loop::Mail> mails;
  {
    std::lock_guard<std::mutex> lock(loop->mail_mu);
    mails.swap(loop->mailbox);
  }
  for (Loop::Mail& mail : mails) {
    const ConnRef conn = mail.conn.lock();
    if (conn == nullptr || conn->dead) continue;
    conn->ready[mail.seq] =
        Connection::Slot{std::move(mail.line), mail.close_after};
    DeliverReady(loop, conn.get());
    FlushOut(loop, conn.get());
    if (!conn->dead) UpdateInterest(loop, conn.get());
  }
}

}  // namespace birnn::serve
