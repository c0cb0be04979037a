// Open-loop soak of the epoll reactor serve plane.
//
// Train one detector and bundle it. A socket-free oracle — a standalone
// MicroBatcher over a separately loaded copy of the bundle, fed each corpus
// line through ParseRequest -> Detect -> OkDetectResponse — defines the
// expected response bytes for every request; the reactor hosts the same
// bundle. Then drive the reactor with an *open-loop* load generator —
// thousands of concurrent connections, requests fired on a fixed schedule
// regardless of when responses come back, latency measured from the
// intended fire time (no coordinated omission) — followed by an overload
// burst that pipelines far more work than the admission queue can hold.
//
// Gates (process exits nonzero when violated):
//   (a) every reactor response is byte-identical to the oracle's;
//   (b) every request fired is answered — zero lost or hung requests,
//       including across the overload burst;
//   (c) the overload burst produces typed OVERLOADED sheds (backpressure
//       engages; it does not queue without bound or fall over);
//   (d) steady-state p999 stays under --p999-cap-ms.
//
// Writes BENCH_serve_soak.json (p50/p99/p999, rates, shed accounting).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/detector.h"
#include "datagen/datasets.h"
#include "eval/report.h"
#include "serve/batcher.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace birnn::bench {
namespace {

using Clock = std::chrono::steady_clock;

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Raises RLIMIT_NOFILE toward `want` fds (best effort, capped at the hard
// limit); returns the resulting soft limit.
int64_t RaiseFdLimit(int64_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return -1;
  if (static_cast<int64_t>(lim.rlim_cur) < want) {
    rlimit raised = lim;
    raised.rlim_cur = static_cast<rlim_t>(
        std::min<int64_t>(want, static_cast<int64_t>(lim.rlim_max)));
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) lim = raised;
  }
  return static_cast<int64_t>(lim.rlim_cur);
}

/// Pre-rendered request corpus: table cells chunked into detect requests,
/// each with a stable id == its corpus index (the byte-compare key).
struct Corpus {
  std::vector<std::string> lines;
  std::vector<std::string> expected;  ///< the oracle's response bytes.
};

Corpus BuildCorpus(const data::Table& dirty, int request_cells,
                   size_t max_requests) {
  Corpus corpus;
  const int n_attrs = dirty.num_columns();
  const int64_t n_rows = dirty.num_rows();
  std::string line;
  int in_request = 0;
  for (int64_t r = 0; r < n_rows && corpus.lines.size() < max_requests; ++r) {
    for (int a = 0; a < n_attrs; ++a) {
      if (in_request == 0) {
        line = R"({"id":")" + std::to_string(corpus.lines.size()) +
               R"(","op":"detect","cells":[)";
      } else {
        line += ',';
      }
      line += R"({"attr":)" + std::to_string(a) + R"(,"value":)";
      serve::AppendJsonString(dirty.cell(static_cast<int>(r), a), &line);
      line += '}';
      if (++in_request == request_cells) {
        line += "]}";
        corpus.lines.push_back(std::move(line));
        in_request = 0;
        if (corpus.lines.size() >= max_requests) break;
      }
    }
  }
  if (in_request > 0) {
    line += "]}";
    corpus.lines.push_back(std::move(line));
  }
  return corpus;
}

// The typed shed line the batcher produces for corpus request `index`
// (admission-queue overflow keeps the request id).
bool IsTypedShed(const std::string& response, size_t index) {
  return response.find("\"status\":\"OVERLOADED\"") != std::string::npos &&
         response.find("{\"id\":\"" + std::to_string(index) + "\"") == 0;
}

struct PhaseResult {
  std::string phase;
  int connections = 0;
  int64_t fired = 0;
  int64_t answered = 0;
  int64_t matched = 0;
  int64_t shed = 0;
  int64_t mismatched = 0;
  int64_t lost = 0;  ///< fired - answered after the drain deadline.
  double seconds = 0.0;
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
};

void FillQuantiles(std::vector<double>* latencies, PhaseResult* result) {
  if (latencies->empty()) return;
  std::sort(latencies->begin(), latencies->end());
  const auto at = [&](double q) {
    const size_t i = std::min(latencies->size() - 1,
                              static_cast<size_t>(q * latencies->size()));
    return (*latencies)[i];
  };
  result->p50_ms = at(0.50);
  result->p99_ms = at(0.99);
  result->p999_ms = at(0.999);
  result->max_ms = latencies->back();
}

/// One open-loop phase against the server on `port`.
///
/// `rps` > 0: fire `total` requests on the schedule t0 + i/rps, round-robin
/// across `n_conns` connections, latency from the *intended* fire time.
/// `rps` == 0: the overload shape — every request's intended time is t0
/// (fire as fast as the sockets accept), pipelining `total` requests across
/// the connections instantly.
PhaseResult RunOpenLoop(int port, const Corpus& corpus, const char* name,
                        int n_conns, int64_t total, double rps,
                        double drain_timeout_s) {
  PhaseResult result;
  result.phase = name;
  result.connections = n_conns;

  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    std::deque<std::pair<size_t, Clock::time_point>> pending;
    bool want_write = false;
  };
  std::vector<Conn> conns(static_cast<size_t>(n_conns));
  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  for (size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = ConnectTo(port);
    if (conns[c].fd < 0) {
      std::cerr << "[soak] connect " << c << " failed: "
                << std::strerror(errno) << "\n";
      result.lost = total;
      return result;
    }
    ::fcntl(conns[c].fd, F_SETFL,
            ::fcntl(conns[c].fd, F_GETFL, 0) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }

  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(total));
  const Clock::time_point t0 = Clock::now();
  const auto intended = [&](int64_t i) {
    if (rps <= 0.0) return t0;
    return t0 + std::chrono::microseconds(
                    static_cast<int64_t>(1e6 * static_cast<double>(i) / rps));
  };

  const auto update_interest = [&](size_t c) {
    epoll_event ev{};
    ev.events = EPOLLIN | (conns[c].want_write ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, conns[c].fd, &ev);
  };
  const auto try_flush = [&](size_t c) {
    Conn& conn = conns[c];
    while (conn.out_off < conn.out.size()) {
      const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn.want_write) {
          conn.want_write = true;
          update_interest(c);
        }
        return;
      }
      return;  // broken pipe — pending entries will count as lost
    }
    conn.out.clear();
    conn.out_off = 0;
    if (conn.want_write) {
      conn.want_write = false;
      update_interest(c);
    }
  };

  int64_t fired = 0;
  const Clock::time_point hard_deadline =
      t0 + std::chrono::microseconds(static_cast<int64_t>(
               1e6 * ((rps > 0 ? static_cast<double>(total) / rps : 0.0) +
                      drain_timeout_s)));
  epoll_event events[256];
  while (result.answered < total && Clock::now() < hard_deadline) {
    // Fire everything whose intended time has come.
    while (fired < total && intended(fired) <= Clock::now()) {
      const size_t c = static_cast<size_t>(fired % n_conns);
      const size_t index =
          static_cast<size_t>(fired) % corpus.lines.size();
      conns[c].pending.emplace_back(index, intended(fired));
      conns[c].out += corpus.lines[index];
      conns[c].out += '\n';
      ++fired;
      try_flush(c);
    }
    // Sleep until the next fire or the next socket event.
    int timeout_ms = 100;
    if (fired < total) {
      const auto until = intended(fired) - Clock::now();
      timeout_ms = static_cast<int>(std::max<int64_t>(
          0, std::chrono::duration_cast<std::chrono::milliseconds>(until)
                 .count()));
      timeout_ms = std::min(timeout_ms, 100);
    }
    const int n = ::epoll_wait(epfd, events, 256, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const size_t c = events[i].data.u64;
      Conn& conn = conns[c];
      if (events[i].events & EPOLLOUT) try_flush(c);
      if (!(events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      char chunk[65536];
      for (;;) {
        const ssize_t r = ::read(conn.fd, chunk, sizeof(chunk));
        if (r > 0) {
          conn.in.append(chunk, static_cast<size_t>(r));
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        break;  // EAGAIN or EOF; EOF with pending -> counted lost at the end
      }
      size_t start = 0;
      for (;;) {
        const size_t nl = conn.in.find('\n', start);
        if (nl == std::string::npos) break;
        const std::string response = conn.in.substr(start, nl - start);
        start = nl + 1;
        if (conn.pending.empty()) continue;  // never happens when matched
        const auto [index, fire_time] = conn.pending.front();
        conn.pending.pop_front();
        ++result.answered;
        latencies.push_back(
            std::chrono::duration<double>(Clock::now() - fire_time).count() *
            1e3);
        if (response == corpus.expected[index]) {
          ++result.matched;
        } else if (IsTypedShed(response, index)) {
          ++result.shed;
        } else {
          if (++result.mismatched <= 3) {
            std::cerr << "[soak] MISMATCH req " << index << ":\n  want "
                      << corpus.expected[index] << "\n  got  " << response
                      << "\n";
          }
        }
      }
      conn.in.erase(0, start);
    }
  }
  result.fired = fired;
  result.lost = fired - result.answered;
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  result.requests_per_sec =
      result.seconds > 0
          ? static_cast<double>(result.answered) / result.seconds
          : 0.0;
  FillQuantiles(&latencies, &result);
  for (Conn& conn : conns) ::close(conn.fd);
  ::close(epfd);
  return result;
}

int Run(int argc, char** argv) {
  FlagSet flags;
  AddCommonFlags(&flags, "BENCH_serve_soak.json");
  flags.AddInt("connections", 2000, "concurrent open-loop connections");
  flags.AddInt("requests", 20000, "steady-state requests to fire");
  flags.AddDouble("rps", 4000.0, "steady-state open-loop request rate");
  flags.AddInt("request-cells", 3, "cells per detect request");
  flags.AddInt("corpus", 512, "distinct request lines in the corpus");
  flags.AddInt("overload-burst", 8,
               "pipelined requests per connection in the overload phase "
               "(0 skips the phase)");
  flags.AddInt("max-batch", 64, "micro-batcher max batch (cells)");
  flags.AddInt("max-delay-us", 2000, "micro-batcher window (microseconds)");
  flags.AddInt("queue-capacity", 4096, "admission queue bound (cells)");
  flags.AddInt("replicas", 2, "engine replicas for the served model");
  flags.AddInt("reactor-threads", 2, "reactor event loops");
  flags.AddDouble("p999-cap-ms", 2000.0,
                  "steady-state p999 gate (exceeding it fails the run)");
  flags.AddDouble("drain-timeout-s", 30.0,
                  "grace period for late responses before counting lost");
  BenchConfig config = ParseCommonFlags(&flags, argc, argv,
                                        "bench_serve_soak");
  const int n_conns = std::max(1, flags.GetInt("connections"));
  const int64_t n_requests = std::max(1, flags.GetInt("requests"));
  const int overload_burst = std::max(0, flags.GetInt("overload-burst"));
  const std::string dataset = DatasetList(config).front();

  const int64_t fd_limit = RaiseFdLimit(2 * n_conns + 256);
  if (fd_limit >= 0 && fd_limit < n_conns + 64) {
    std::cerr << "RLIMIT_NOFILE " << fd_limit << " too low for " << n_conns
              << " connections\n";
    return 1;
  }

  std::cout << "=== Serve soak (" << dataset << ", " << n_conns
            << " connections, " << n_requests << " req @ "
            << flags.GetDouble("rps") << "/s, replicas="
            << flags.GetInt("replicas") << ") ===\n\n";

  // ---- Train + bundle once.
  const datagen::DatasetPair pair = MakePair(dataset, config);
  core::DetectorOptions options;
  options.model = "etsb";
  options.n_label_tuples = config.n_label_tuples;
  options.trainer.epochs = config.epochs;
  options.seed = config.seed;
  core::ErrorDetector detector(options);
  core::TrainedDetector trained;
  auto report = detector.Run(pair.dirty, pair.clean, &trained);
  if (!report.ok()) {
    std::cerr << "training failed: " << report.status().message() << "\n";
    return 1;
  }
  const std::string bundle_dir = ".birnn-serve-soak-" + dataset;
  if (Status st = serve::SaveDetectorBundle(trained, bundle_dir); !st.ok()) {
    std::cerr << "bundle save failed: " << st.message() << "\n";
    return 1;
  }

  Corpus corpus = BuildCorpus(
      pair.dirty, std::max(1, flags.GetInt("request-cells")),
      static_cast<size_t>(std::max(1, flags.GetInt("corpus"))));

  serve::ServerOptions server_options;
  server_options.batcher.max_batch = flags.GetInt("max-batch");
  server_options.batcher.max_delay_us = flags.GetInt("max-delay-us");
  server_options.batcher.queue_capacity = flags.GetInt("queue-capacity");
  server_options.batcher.replicas = flags.GetInt("replicas");

  // ---- The socket-free oracle defines the expected bytes per corpus line:
  // each line runs ParseRequest -> Detect -> OkDetectResponse on a
  // standalone batcher over its own copy of the bundle, so neither the
  // measured server nor its memo can vouch for itself.
  {
    StatusOr<serve::LoadedDetector> oracle_detector =
        serve::LoadDetectorBundle(bundle_dir);
    if (!oracle_detector.ok()) {
      std::cerr << "bundle load failed: "
                << oracle_detector.status().message() << "\n";
      return 1;
    }
    serve::MicroBatcher oracle(*oracle_detector, server_options.batcher);
    for (const std::string& line : corpus.lines) {
      StatusOr<serve::Request> request = serve::ParseRequest(line);
      if (!request.ok()) {
        corpus.expected.push_back(serve::ErrorResponse("", request.status()));
        continue;
      }
      std::vector<serve::CellVerdict> verdicts;
      const Status status = oracle.Detect(request->cells, &verdicts);
      corpus.expected.push_back(
          status.ok() ? serve::OkDetectResponse(request->id, verdicts)
                      : serve::ErrorResponse(request->id, status));
    }
  }

  // ---- The reactor under soak.
  serve::ModelRegistry registry;
  if (Status st = registry.LoadBundle(dataset, bundle_dir); !st.ok()) {
    std::cerr << "bundle load failed: " << st.message() << "\n";
    return 1;
  }
  serve::ServerOptions reactor_options = server_options;
  reactor_options.reactor_threads = flags.GetInt("reactor-threads");
  reactor_options.max_connections = 2 * n_conns + 16;
  serve::Server server(&registry, reactor_options);
  if (Status st = server.Start(); !st.ok()) {
    std::cerr << "reactor start failed: " << st.message() << "\n";
    return 1;
  }

  // Warmup: one sequential pass over the corpus, unmeasured. Populates the
  // replicas' shared verdict memo so the steady phase measures the serving
  // plane, not first-touch model latency — and double-checks the reactor's
  // bytes against the oracle before any load is applied.
  {
    const int fd = ConnectTo(server.port());
    std::string buffer;
    for (size_t i = 0; i < corpus.lines.size(); ++i) {
      std::string framed = corpus.lines[i] + "\n";
      if (::write(fd, framed.data(), framed.size()) !=
          static_cast<ssize_t>(framed.size())) {
        std::cerr << "warmup write failed\n";
        return 1;
      }
      std::string response;
      for (;;) {
        const size_t nl = buffer.find('\n');
        if (nl != std::string::npos) {
          response.assign(buffer, 0, nl);
          buffer.erase(0, nl + 1);
          break;
        }
        char chunk[4096];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n <= 0) {
          std::cerr << "warmup read failed\n";
          return 1;
        }
        buffer.append(chunk, static_cast<size_t>(n));
      }
      if (response != corpus.expected[i]) {
        std::cerr << "warmup MISMATCH req " << i << ":\n  want "
                  << corpus.expected[i] << "\n  got  " << response << "\n";
        return 1;
      }
    }
    ::close(fd);
  }

  std::vector<PhaseResult> phases;
  phases.push_back(RunOpenLoop(server.port(), corpus, "steady", n_conns,
                               n_requests, flags.GetDouble("rps"),
                               flags.GetDouble("drain-timeout-s")));
  if (overload_burst > 0) {
    phases.push_back(RunOpenLoop(
        server.port(), corpus, "overload", n_conns,
        static_cast<int64_t>(n_conns) * overload_burst, /*rps=*/0.0,
        flags.GetDouble("drain-timeout-s")));
  }
  server.Shutdown();
  std::filesystem::remove_all(bundle_dir);

  eval::TableWriter writer({"Phase", "Conns", "Fired", "Answered", "Shed",
                            "Lost", "Mismatch", "Req/s", "p50 ms", "p99 ms",
                            "p999 ms"});
  for (const PhaseResult& phase : phases) {
    writer.AddRow({phase.phase, std::to_string(phase.connections),
                   std::to_string(phase.fired),
                   std::to_string(phase.answered),
                   std::to_string(phase.shed), std::to_string(phase.lost),
                   std::to_string(phase.mismatched),
                   FormatFixed(phase.requests_per_sec, 0),
                   FormatFixed(phase.p50_ms, 2), FormatFixed(phase.p99_ms, 2),
                   FormatFixed(phase.p999_ms, 2)});
  }
  writer.Print(std::cout);

  // ---- Gates.
  int failures = 0;
  const PhaseResult& steady = phases.front();
  if (steady.mismatched > 0 || steady.shed > 0) {
    std::cout << "FAIL: steady phase had " << steady.mismatched
              << " mismatched / " << steady.shed << " shed responses\n";
    ++failures;
  }
  if (steady.p999_ms > flags.GetDouble("p999-cap-ms")) {
    std::cout << "FAIL: steady p999 " << FormatFixed(steady.p999_ms, 2)
              << " ms exceeds cap " << flags.GetDouble("p999-cap-ms")
              << " ms\n";
    ++failures;
  }
  for (const PhaseResult& phase : phases) {
    if (phase.lost > 0) {
      std::cout << "FAIL: " << phase.phase << " phase lost " << phase.lost
                << " request(s)\n";
      ++failures;
    }
    if (phase.mismatched > 0 && phase.phase != "steady") {
      std::cout << "FAIL: " << phase.phase << " phase had "
                << phase.mismatched << " mismatched response(s)\n";
      ++failures;
    }
  }
  if (phases.size() > 1 && phases.back().shed == 0) {
    std::cout << "FAIL: overload phase shed nothing — backpressure never "
                 "engaged (raise --overload-burst?)\n";
    ++failures;
  }
  std::cout << (failures == 0 ? "\nall gates passed\n"
                              : "\n" + std::to_string(failures) +
                                    " gate failure(s)\n");

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    JsonWriter json(out);
    json.BeginObject();
    json.Key("dataset").String(dataset);
    json.Key("connections").Int(n_conns);
    json.Key("rps").Number(flags.GetDouble("rps"));
    json.Key("request_cells").Int(flags.GetInt("request-cells"));
    json.Key("replicas").Int(flags.GetInt("replicas"));
    json.Key("reactor_threads").Int(flags.GetInt("reactor-threads"));
    json.Key("queue_capacity").Int(flags.GetInt("queue-capacity"));
    json.Key("gates_passed").Bool(failures == 0);
    json.Key("phases").BeginArray();
    for (const PhaseResult& phase : phases) {
      json.BeginObject();
      json.Key("phase").String(phase.phase);
      json.Key("connections").Int(phase.connections);
      json.Key("fired").Int(phase.fired);
      json.Key("answered").Int(phase.answered);
      json.Key("matched").Int(phase.matched);
      json.Key("shed").Int(phase.shed);
      json.Key("mismatched").Int(phase.mismatched);
      json.Key("lost").Int(phase.lost);
      json.Key("seconds").Number(phase.seconds);
      json.Key("requests_per_sec").Number(phase.requests_per_sec);
      json.Key("p50_ms").Number(phase.p50_ms);
      json.Key("p99_ms").Number(phase.p99_ms);
      json.Key("p999_ms").Number(phase.p999_ms);
      json.Key("max_ms").Number(phase.max_ms);
      json.EndObject();
    }
    json.EndArray();
    json.Key("obs");
    WriteObsJson(&json);
    json.EndObject();
    out << "\n";
    std::cout << "wrote " << config.json_path << "\n";
  }
  WriteObsArtifacts(config);
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace birnn::bench

int main(int argc, char** argv) { return birnn::bench::Run(argc, argv); }
