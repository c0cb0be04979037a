// serve_zipf: request -> response over loopback TCP against an in-process
// serve::Server at its default transport (2 reactor loops, 1 replica).
// One client thread drives it on kConnections connections: first an open
// loop at a fixed offered rate (latency timed from each request's due
// time), then a saturation phase holding a fixed number of requests
// outstanding (capacity).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>

#include "core/inference.h"
#include "inputs.h"
#include "serve/bundle.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace sv = birnn::serve;

constexpr int kConnections = 4;
/// Requests held outstanding in the saturation phase (across connections).
constexpr int kSaturationWindow = 64;
/// Cells per warm-pass request.
constexpr int kWarmCells = 16;
/// Both phases are cut into this many equal windows; the reported figures
/// are medians over windows, so one stall of the shared host moves one
/// window, not the result. At the default 20 s run an open-loop window
/// holds ~1200 requests, so its p99 has 12 samples beyond it.
constexpr int kWindows = 4;
/// Validity limits of the open loop: how late the generator may run on
/// average within a window, and how many requests may still be outstanding
/// when it finishes. A window past the lateness limit is invalid and left
/// out; a phase with fewer than half its windows valid is invalid as a
/// whole, and so is one that ends with a larger backlog.
constexpr double kMaxLateMeanMs = 5.0;
constexpr int64_t kMaxFinalBacklog = 256;

const char kModel[] = "m";

/// Interns (attr, value) cells into dense ids, so every served verdict can
/// be checked against a reference computed once per distinct cell.
class CellIds {
 public:
  int32_t Id(const Cell& cell) {
    auto [it, added] = ids_.try_emplace(
        std::to_string(cell.attr) + '\x1f' + cell.value,
        static_cast<int32_t>(cells_.size()));
    if (added) {
      cells_.push_back(cell);
      observed_.push_back(kUnseen);
    }
    return it->second;
  }
  const std::vector<Cell>& cells() const { return cells_; }
  /// Records a served p_error; false when it differs from an earlier one.
  bool Observe(int32_t id, float p) {
    uint32_t bits;
    std::memcpy(&bits, &p, sizeof bits);
    uint64_t& slot = observed_[static_cast<size_t>(id)];
    if (slot == kUnseen) {
      slot = bits;
      return true;
    }
    return slot == bits;
  }
  bool observed(int32_t id, float* p) const {
    const uint64_t slot = observed_[static_cast<size_t>(id)];
    if (slot == kUnseen) return false;
    const uint32_t bits = static_cast<uint32_t>(slot);
    std::memcpy(p, &bits, sizeof bits);
    return true;
  }

 private:
  static constexpr uint64_t kUnseen = ~0ULL;
  std::unordered_map<std::string, int32_t> ids_;
  std::vector<Cell> cells_;
  std::vector<uint64_t> observed_;
};

struct Outstanding {
  uint64_t id = 0;
  Clock::time_point due;
  Clock::time_point sent;
  std::vector<int32_t> cells;
};

/// One answered request: when it was due, and how long after that its
/// response arrived, seconds.
struct Answered {
  Clock::time_point due;
  double latency = 0.0;
};

struct Conn {
  int fd = -1;
  std::string out;   // bytes not yet written
  std::string in;    // bytes not yet parsed
  std::deque<Outstanding> waiting;
};

/// One client thread multiplexing kConnections pipelined connections.
class Client {
 public:
  Client(CellIds* ids, Result* result, Tracer* tracer = nullptr)
      : ids_(ids), result_(result), tracer_(tracer) {}
  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port, int n) {
    for (int i = 0; i < n; ++i) {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        close(fd);
        return false;
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      conns_.push_back(Conn{fd, {}, {}, {}});
    }
    return true;
  }

  /// Queues one detect request on the next connection (round robin).
  void Send(const std::vector<Cell>& cells, Clock::time_point due) {
    Conn& c = conns_[next_conn_++ % conns_.size()];
    Outstanding o;
    o.id = next_id_++;
    o.due = due;
    std::string& line = c.out;
    line += "{\"id\":\"" + std::to_string(o.id) +
            "\",\"op\":\"detect\",\"model\":\"m\",\"cells\":[";
    for (size_t i = 0; i < cells.size(); ++i) {
      line += (i ? ",{\"attr\":" : "{\"attr\":") +
              std::to_string(cells[i].attr) + ",\"value\":\"" +
              JsonEscape(cells[i].value) + "\"}";
      o.cells.push_back(ids_->Id(cells[i]));
    }
    line += "]}\n";
    o.sent = Clock::now();
    c.waiting.push_back(std::move(o));
    ++outstanding_;
    Flush(&c);
  }

  /// Waits for socket events until `deadline` and handles every complete
  /// response line. Returns false on a broken connection.
  bool Pump(Clock::time_point deadline) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      const short events = c.out.empty() ? POLLIN : (POLLIN | POLLOUT);
      fds.push_back(pollfd{c.fd, events, 0});
    }
    const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
        deadline - Clock::now());
    timespec ts{};
    if (wait.count() > 0) {
      ts.tv_sec = static_cast<time_t>(wait.count() / 1000000000);
      ts.tv_nsec = static_cast<long>(wait.count() % 1000000000);
    }
    const int n = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n < 0) return errno == EINTR;
    for (size_t i = 0; i < fds.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Flush(&c);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[65536];
        const ssize_t got = recv(c.fd, buf, sizeof buf, 0);
        if (got <= 0) {
          if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          return false;
        }
        const Clock::time_point now = Clock::now();
        c.in.append(buf, static_cast<size_t>(got));
        size_t start = 0;
        for (size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          HandleLine(&c, c.in.substr(start, nl - start), now);
        }
        c.in.erase(0, start);
      }
    }
    return true;
  }

  int64_t outstanding() const { return outstanding_; }
  int64_t completed() const { return completed_; }
  /// Answered requests (latency from due time) and their round trips from
  /// send, seconds, since the last TakeAnswered().
  std::vector<Answered> TakeAnswered() { return std::move(answered_); }
  std::vector<double> TakeRtt() { return std::move(rtt_); }
  int64_t sent() const { return static_cast<int64_t>(next_id_); }

 private:
  void Flush(Conn* c) {
    while (!c->out.empty()) {
      const ssize_t n = send(c->fd, c->out.data(), c->out.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n <= 0) return;  // EAGAIN: POLLOUT resumes it
      c->out.erase(0, static_cast<size_t>(n));
    }
  }

  void HandleLine(Conn* c, const std::string& line, Clock::time_point now) {
    if (c->waiting.empty()) {
      result_->Fail(1, "response without a request: " + line.substr(0, 80));
      return;
    }
    Outstanding o = std::move(c->waiting.front());
    c->waiting.pop_front();
    --outstanding_;
    ++completed_;
    result_->Attempt(1);
    const std::string id_field = "\"id\":\"" + std::to_string(o.id) + "\"";
    if (line.find(id_field) == std::string::npos ||
        line.find("\"status\":\"OK\"") == std::string::npos) {
      result_->Fail(1, "request " + std::to_string(o.id) +
                           " not answered OK: " + line.substr(0, 120));
      return;
    }
    size_t pos = 0;
    for (int32_t cell : o.cells) {
      pos = line.find("\"p_error\":", pos);
      if (pos == std::string::npos) {
        result_->Fail(1, "short response: " + line.substr(0, 120));
        return;
      }
      pos += 10;
      const float p = std::strtof(line.c_str() + pos, nullptr);
      const size_t err = line.find("\"error\":", pos);
      const bool is_error = err != std::string::npos &&
                            line.compare(err + 8, 4, "true") == 0;
      if (is_error != (p > 0.5f) || !ids_->Observe(cell, p)) {
        result_->Fail(1, "inconsistent verdict in: " + line.substr(0, 120));
        return;
      }
    }
    if (tracer_ != nullptr) tracer_->Add("serve.request", o.sent, now);
    answered_.push_back(Answered{o.due, SecondsBetween(o.due, now)});
    rtt_.push_back(SecondsBetween(o.sent, now));
  }

  CellIds* ids_;
  Result* result_;
  Tracer* tracer_;
  std::vector<Conn> conns_;
  size_t next_conn_ = 0;
  uint64_t next_id_ = 0;
  int64_t outstanding_ = 0;
  int64_t completed_ = 0;
  std::vector<Answered> answered_;
  std::vector<double> rtt_;
};

/// A started server over a freshly loaded bundle. The server is declared
/// last so it is destroyed before the registry it serves from.
struct Service {
  std::unique_ptr<sv::ModelRegistry> registry;
  std::unique_ptr<sv::Server> server;
};

/// Drains every outstanding response, up to `limit` seconds.
bool Drain(Client* client, double limit) {
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(limit));
  while (client->outstanding() > 0 && Clock::now() < end) {
    const auto tick = Clock::now() + std::chrono::milliseconds(50);
    if (!client->Pump(std::min(end, tick))) {
      return false;
    }
  }
  return client->outstanding() == 0;
}

struct Setup {
  double load_s = 0.0;
  double warm_s = 0.0;
  double total_s = 0.0;
};

/// Bundle load + server start + one warm pass over the table's distinct
/// cells, so the verdict memo is full before timing.
Setup StartService(const std::string& bundle, const RequestStream& requests,
                   CellIds* ids, Result* result, Service* service) {
  Setup s;
  const Clock::time_point t0 = Clock::now();
  auto detector = sv::LoadDetectorBundle(bundle);
  if (!detector.ok()) {
    Die("bundle load failed: " + detector.status().ToString());
  }
  service->registry = std::make_unique<sv::ModelRegistry>();
  if (!service->registry->Add(kModel, std::move(*detector)).ok()) {
    Die("registering the model failed");
  }
  s.load_s = SecondsBetween(t0, Clock::now());
  service->server = std::make_unique<sv::Server>(service->registry.get());
  const birnn::Status started = service->server->Start();
  if (!started.ok()) Die("server start failed: " + started.ToString());

  const Clock::time_point t1 = Clock::now();
  Client client(ids, result);
  if (!client.Connect(service->server->port(), 1)) Die("connect failed");
  const std::vector<Cell>& corpus = requests.distinct();
  for (size_t i = 0; i < corpus.size(); i += kWarmCells) {
    const std::vector<Cell> chunk(
        corpus.begin() + static_cast<std::ptrdiff_t>(i),
        corpus.begin() + static_cast<std::ptrdiff_t>(
                             std::min(corpus.size(), i + kWarmCells)));
    client.Send(chunk, Clock::now());
    while (client.outstanding() >= 16) {
      if (!client.Pump(Clock::now() + std::chrono::milliseconds(50))) {
        Die("warm pass connection broke");
      }
    }
  }
  if (!Drain(&client, 30.0)) Die("warm pass did not complete");
  s.warm_s = SecondsBetween(t1, Clock::now());
  s.total_s = SecondsBetween(t0, Clock::now());
  return s;
}

struct PhaseAccounting {
  int64_t request_count = 0, batch_count = 0, batches_cells = 0;
  double request_sum = 0.0, batch_sum = 0.0, batch_cells_sum = 0.0;
  int64_t cells = 0, memo_hits = 0, pad_rows = 0, swept = 0;
};

PhaseAccounting Account(const RegistryView& a, const RegistryView& b) {
  PhaseAccounting p;
  HistogramDelta(a, b, "serve/batcher/request_seconds", &p.request_count,
                 &p.request_sum);
  HistogramDelta(a, b, "serve/batcher/batch_seconds", &p.batch_count,
                 &p.batch_sum);
  HistogramDelta(a, b, "serve/batcher/batch_cells", &p.batches_cells,
                 &p.batch_cells_sum);
  p.cells = CounterDelta(a, b, "serve/batcher/cells");
  p.memo_hits = CounterDelta(a, b, "serve/batcher/memo_hits");
  p.pad_rows = CounterDelta(a, b, "inference/pad_rows");
  p.swept = CounterDelta(a, b, "inference/unique_cells");
  return p;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Every served verdict must equal an unmemoized fp32 sweep of the same
/// bundle over that cell.
void CheckAgainstReference(const std::string& bundle, const CellIds& ids,
                           Result* result) {
  auto detector = sv::LoadDetectorBundle(bundle);
  if (!detector.ok()) {
    result->Fail(1, "reference bundle load");
    return;
  }
  std::vector<sv::CellQuery> queries;
  for (const Cell& c : ids.cells()) {
    sv::CellQuery q;
    q.attr = c.attr;
    q.value = c.value;
    queries.push_back(std::move(q));
  }
  auto encoded = detector->EncodeQueries(queries);
  if (!encoded.ok()) {
    result->Fail(1, "reference encode");
    return;
  }
  birnn::core::InferenceOptions options;
  options.memoize = false;
  birnn::core::InferenceEngine engine(detector->model(), options);
  std::vector<float> reference;
  engine.PredictProbs(*encoded, {}, &reference);
  int64_t mismatches = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    float served;
    if (!ids.observed(static_cast<int32_t>(i), &served)) continue;
    if (std::memcmp(&served, &reference[i], sizeof served) != 0) ++mismatches;
  }
  result->Check(mismatches == 0,
                std::to_string(mismatches) +
                    " served verdicts differ from the unmemoized reference");
}

}  // namespace

int RunServeZipf(const Args& args) {
  Result result;
  const birnn::datagen::DatasetPair table = ServeTable(args.smoke);
  RequestStream requests(args.seed, table.dirty, kServeFreshShare);
  CellIds ids;
  for (const Cell& c : requests.distinct()) ids.Id(c);

  // Set-up three times (fresh server and memo each time; once in the
  // traced run); the last service stays up for the measured phases.
  std::vector<double> setup_s, load_s, warm_s;
  Service service;
  for (int i = 0; i < (args.trace ? 1 : 3); ++i) {
    service.server.reset();  // stops the previous server before its registry
    service.registry.reset();
    const Setup s = StartService(args.dir, requests, &ids, &result, &service);
    setup_s.push_back(s.total_s);
    load_s.push_back(s.load_s);
    warm_s.push_back(s.warm_s);
  }

  Tracer tracer(args.trace);
  Client client(&ids, &result, &tracer);
  if (!client.Connect(service.server->port(), kConnections)) {
    Die("connect failed");
  }
  std::vector<Cell> cells;
  std::vector<bool> fresh;

  // Phase 1: open loop at the fixed offered rate.
  const double open_s = args.seconds * 0.6;
  const std::vector<double> due =
      PoissonSchedule(args.seed, kServeRate, open_s);
  const RegistryView open_before = RegistryView::Take();
  const int open_span = tracer.Begin("serve.open_loop");
  std::vector<double> late;
  late.reserve(due.size());
  const Clock::time_point open_start = Clock::now();
  size_t next = 0;
  while (next < due.size()) {
    const Clock::time_point now = Clock::now();
    const Clock::time_point when =
        open_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due[next]));
    if (when <= now) {
      requests.Next(&cells, &fresh);
      client.Send(cells, when);
      late.push_back(SecondsBetween(when, now));
      ++next;
      continue;
    }
    if (!client.Pump(when)) Die("connection broke in the open loop");
  }
  const int64_t final_backlog = client.outstanding();
  if (!Drain(&client, 10.0)) {
    result.Fail(client.outstanding(), "open-loop responses lost");
  }
  tracer.End(open_span);
  const Clock::time_point open_end = Clock::now();
  const double open_overhead_s = tracer.overhead_s();
  const RegistryView open_after = RegistryView::Take();
  const std::vector<Answered> answered = client.TakeAnswered();
  const std::vector<double> open_rtt = client.TakeRtt();

  // Per-window latency quantiles and generator lateness.
  const double window_s = open_s / kWindows;
  std::vector<std::vector<double>> window_latency(kWindows);
  std::vector<std::vector<double>> window_late(kWindows);
  for (size_t i = 0; i < late.size(); ++i) {
    const int w = std::min(kWindows - 1, static_cast<int>(due[i] / window_s));
    window_late[static_cast<size_t>(w)].push_back(late[i]);
  }
  std::vector<double> all_latency;
  for (const Answered& a : answered) {
    const double offset = SecondsBetween(open_start, a.due);
    const int w = std::min(kWindows - 1, static_cast<int>(offset / window_s));
    window_latency[static_cast<size_t>(w)].push_back(a.latency);
    all_latency.push_back(a.latency);
  }
  std::vector<double> p50s, p99s;
  for (int w = 0; w < kWindows; ++w) {
    const auto& lat = window_latency[static_cast<size_t>(w)];
    if (Mean(window_late[static_cast<size_t>(w)]) * 1e3 > kMaxLateMeanMs ||
        lat.empty()) {
      continue;  // the generator fell behind: not a measurement
    }
    p50s.push_back(Quantile(lat, 0.5));
    p99s.push_back(Quantile(lat, 0.99));
  }
  const int invalid_windows = kWindows - static_cast<int>(p50s.size());
  if (2 * invalid_windows > kWindows || final_backlog > kMaxFinalBacklog) {
    Die("open-loop phase invalid: " + std::to_string(invalid_windows) +
        " of " + std::to_string(kWindows) +
        " windows had the generator late by more than " +
        std::to_string(kMaxLateMeanMs) + " ms on average; backlog at end " +
        std::to_string(final_backlog) + " (limit " +
        std::to_string(kMaxFinalBacklog) + ")");
  }

  // Phase 2: saturation with a fixed number of requests outstanding.
  const double sat_s = args.seconds - open_s;
  const int sat_span = tracer.Begin("serve.saturation");
  const Clock::time_point sat_start = Clock::now();
  const Clock::time_point sat_end =
      sat_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(sat_s));
  std::vector<double> window_ops;
  for (int w = 1; w <= kWindows; ++w) {
    const Clock::time_point window_end =
        sat_start + (sat_end - sat_start) * w / kWindows;
    const Clock::time_point window_start = Clock::now();
    const int64_t completed_before = client.completed();
    while (Clock::now() < window_end) {
      while (client.outstanding() < kSaturationWindow) {
        requests.Next(&cells, &fresh);
        client.Send(cells, Clock::now());
      }
      if (!client.Pump(window_end)) {
        Die("connection broke in the saturation phase");
      }
    }
    const double done =
        static_cast<double>(client.completed() - completed_before);
    window_ops.push_back(done / SecondsBetween(window_start, Clock::now()));
  }
  if (!Drain(&client, 10.0)) {
    result.Fail(client.outstanding(), "saturation responses lost");
  }
  tracer.End(sat_span);
  const double peak_rss = PeakRssMib();

  auto stats = service.server->ModelStats(kModel);
  const int64_t shed =
      stats.ok() ? stats->shed_requests + stats->rejected_requests : 0;
  result.Check(shed == 0, std::to_string(shed) + " requests shed or rejected");
  service.server->Shutdown();
  CheckAgainstReference(args.dir, ids, &result);

  if (!args.trace) {
    result.Metric("setup_s", Median(setup_s), "s");
    result.Metric("p50_ms", Median(p50s) * 1e3, "ms");
    result.Metric("p99_ms", Median(p99s) * 1e3, "ms");
    result.Metric("ops_per_s", Median(window_ops), "1/s");
    result.Metric("peak_rss_mib", peak_rss, "MiB");
    result.Print();
    return 0;
  }

  const PhaseAccounting p = Account(open_before, open_after);
  const double request_ms = Ratio(p.request_sum, p.request_count) * 1e3;
  const double engine_ms = Ratio(p.batch_sum, p.batch_count) * 1e3;
  const double rtt_ms = Mean(open_rtt) * 1e3;
  const double late_ms = Mean(late) * 1e3;
  const std::string w = "serve_zipf.";
  result.Metric(w + "serve.bundle_load_s", Median(load_s), "s");
  result.Metric(w + "serve.warm_s", Median(warm_s), "s");
  result.Metric(w + "serve.client.late_p99_ms", Quantile(late, 0.99) * 1e3,
                "ms");
  result.Metric(w + "serve.client.invalid_windows", invalid_windows, "count");
  result.Metric(w + "serve.client.late_ms", late_ms, "ms");
  result.Metric(w + "serve.transport_ms", rtt_ms - request_ms, "ms");
  result.Metric(w + "serve.batcher.wait_ms", request_ms - engine_ms, "ms");
  result.Metric(w + "serve.batcher.engine_ms", engine_ms, "ms");
  result.Metric(w + "serve.batcher.batch_cells",
                Ratio(p.batch_cells_sum, p.batches_cells), "count");
  result.Metric(w + "serve.residual_ms",
                Mean(all_latency) * 1e3 - late_ms - rtt_ms, "ms");
  result.Metric(w + "core.memo.hit_ratio",
                Ratio(static_cast<double>(p.memo_hits),
                      static_cast<double>(p.cells)),
                "ratio");
  result.Metric(w + "core.engine.pad_ratio",
                Ratio(static_cast<double>(p.pad_rows),
                      static_cast<double>(p.swept)),
                "ratio");
  result.Metric(w + "serve.shed_ratio",
                Ratio(static_cast<double>(shed),
                      static_cast<double>(client.sent())),
                "ratio");
  result.Metric(w + "trace.overhead_pct",
                100.0 * open_overhead_s / SecondsBetween(open_start, open_end),
                "%");
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    result.Fail(1, "writing the trace");
  }
  result.Print();
  return 0;
}

}  // namespace perfbench
