// Online-serving throughput: a load generator against serve::Server.
//
// Per dataset: train a detector offline (ErrorDetector), persist it as a
// bundle, host it in a serve::Server, and drive the newline-JSON protocol
// over real TCP connections at client concurrency 1 / 2 / 4 / 8. Requests
// are small (--request-cells each, the realistic online shape), so the
// single-connection run pays full padding + dispatch overhead per request
// while concurrent connections coalesce in the micro-batcher into wide
// SIMD-efficient batches — that coalescing is the speedup being measured.
//
// The harness verifies on every run that
//   (a) served verdicts match the offline DetectionReport bit for bit, and
//   (b) each concurrency level returns byte-identical responses,
// and refuses to report a speedup otherwise. Writes BENCH_serve.json
// (cells/sec, p50/p99 request latency, shed rate per concurrency level).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/detector.h"
#include "datagen/datasets.h"
#include "eval/report.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace birnn::bench {
namespace {

struct LoadResult {
  int concurrency = 0;
  int64_t requests = 0;
  int64_t cells = 0;
  int64_t shed_requests = 0;
  int64_t error_requests = 0;
  double seconds = 0.0;
  double cells_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Concatenated response lines in request order — byte-compared across
  /// concurrency levels to prove batching composition never changes answers.
  std::vector<std::string> responses;
};

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

bool SendLine(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::write(fd, framed.data() + sent, framed.size() - sent);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool ReadLine(int fd, std::string* line, std::string* buffer) {
  for (;;) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      line->assign(*buffer, 0, newline);
      buffer->erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

/// The request corpus: every cell of the dirty table chunked into
/// `request_cells`-cell detect requests, pre-rendered as protocol lines.
struct Workload {
  std::vector<std::string> lines;
  std::vector<int> cells_per_request;
  int64_t total_cells = 0;
};

Workload BuildWorkload(const data::Table& dirty, int request_cells) {
  Workload w;
  const int n_attrs = dirty.num_columns();
  const int64_t n_rows = dirty.num_rows();
  std::string line;
  int in_request = 0;
  for (int64_t r = 0; r < n_rows; ++r) {
    for (int a = 0; a < n_attrs; ++a) {
      if (in_request == 0) {
        line = R"({"op":"detect","cells":[)";
      } else {
        line += ',';
      }
      line += R"({"attr":)" + std::to_string(a) + R"(,"value":)";
      serve::AppendJsonString(dirty.cell(static_cast<int>(r), a), &line);
      line += '}';
      ++in_request;
      ++w.total_cells;
      if (in_request == request_cells) {
        line += "]}";
        w.lines.push_back(std::move(line));
        w.cells_per_request.push_back(in_request);
        in_request = 0;
      }
    }
  }
  if (in_request > 0) {
    line += "]}";
    w.lines.push_back(std::move(line));
    w.cells_per_request.push_back(in_request);
  }
  return w;
}

/// Drives `concurrency` synchronous client connections over the workload
/// (request i goes to client i % concurrency, preserving per-client order).
LoadResult RunLoad(int port, const Workload& workload, int concurrency) {
  LoadResult result;
  result.concurrency = concurrency;
  result.requests = static_cast<int64_t>(workload.lines.size());
  result.cells = workload.total_cells;
  result.responses.assign(workload.lines.size(), "");
  std::vector<double> latencies_ms(workload.lines.size(), 0.0);
  std::vector<int64_t> shed(static_cast<size_t>(concurrency), 0);
  std::vector<int64_t> errors(static_cast<size_t>(concurrency), 0);

  Stopwatch wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      const int fd = ConnectTo(port);
      if (fd < 0) {
        errors[static_cast<size_t>(c)] = -1;
        return;
      }
      std::string buffer;
      std::string response;
      for (size_t i = static_cast<size_t>(c); i < workload.lines.size();
           i += static_cast<size_t>(concurrency)) {
        Stopwatch rt;
        if (!SendLine(fd, workload.lines[i]) ||
            !ReadLine(fd, &response, &buffer)) {
          ++errors[static_cast<size_t>(c)];
          break;
        }
        latencies_ms[i] = rt.ElapsedSeconds() * 1e3;
        if (response.find("\"status\":\"OK\"") == std::string::npos) {
          if (response.find("\"OVERLOADED\"") != std::string::npos) {
            ++shed[static_cast<size_t>(c)];
          } else {
            ++errors[static_cast<size_t>(c)];
          }
        }
        result.responses[i] = std::move(response);
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  result.seconds = wall.ElapsedSeconds();
  for (const int64_t s : shed) result.shed_requests += s;
  for (const int64_t e : errors) result.error_requests += e;
  result.cells_per_sec =
      result.seconds > 0
          ? static_cast<double>(result.cells) / result.seconds
          : 0.0;

  std::vector<double> sorted = latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty()) {
    result.p50_ms = sorted[sorted.size() / 2];
    result.p99_ms = sorted[std::min(sorted.size() - 1,
                                    sorted.size() * 99 / 100)];
  }
  return result;
}

/// Checks every served verdict of `run` against the offline report's
/// predictions (requests cover the frame cell by cell, tuple-major).
bool MatchesOfflineReport(const LoadResult& run, const Workload& workload,
                          const std::vector<uint8_t>& predicted) {
  size_t cell = 0;
  for (size_t i = 0; i < run.responses.size(); ++i) {
    auto doc = serve::JsonValue::Parse(run.responses[i]);
    if (!doc.ok() || doc->GetString("status") != "OK") return false;
    const serve::JsonValue* results = doc->Find("results");
    if (results == nullptr || !results->is_array() ||
        static_cast<int>(results->items().size()) !=
            workload.cells_per_request[i]) {
      return false;
    }
    for (const serve::JsonValue& item : results->items()) {
      const serve::JsonValue* error = item.Find("error");
      if (error == nullptr || cell >= predicted.size() ||
          error->as_bool() != (predicted[cell] != 0)) {
        return false;
      }
      ++cell;
    }
  }
  return cell == predicted.size();
}

int Run(int argc, char** argv) {
  FlagSet flags;
  AddCommonFlags(&flags, "BENCH_serve.json");
  flags.AddInt("request-cells", 4, "cells per detect request");
  flags.AddInt("max-batch", 64, "micro-batcher max batch (cells)");
  flags.AddInt("max-delay-us", 2000, "micro-batcher window (microseconds)");
  flags.AddInt("queue-capacity", 4096, "admission queue bound (cells)");
  flags.AddInt("max-concurrency", 8, "highest client concurrency level");
  flags.AddInt("replicas", 1, "engine replicas per served model");
  BenchConfig config =
      ParseCommonFlags(&flags, argc, argv, "bench_serve_throughput");
  const int request_cells = std::max(1, flags.GetInt("request-cells"));
  const int max_concurrency = std::max(1, flags.GetInt("max-concurrency"));

  std::cout << "=== Serving throughput (replicas=" << flags.GetInt("replicas")
            << ", request_cells=" << request_cells
            << ", max_batch=" << flags.GetInt("max-batch")
            << ", window=" << flags.GetInt("max-delay-us") << "us) ===\n\n";

  struct DatasetResult {
    std::string dataset;
    int64_t cells = 0;
    double train_seconds = 0.0;
    std::vector<LoadResult> levels;
    bool match_offline = false;
    bool levels_identical = false;
  };
  std::vector<DatasetResult> all;

  eval::TableWriter writer({"Dataset", "Conc", "Req", "Cells/s", "p50 ms",
                            "p99 ms", "Shed", "Speedup", "Match"});
  for (const std::string& dataset : DatasetList(config)) {
    const datagen::DatasetPair pair = MakePair(dataset, config);

    core::DetectorOptions options;
    options.model = "etsb";
    options.n_label_tuples = config.n_label_tuples;
    options.trainer.epochs = config.epochs;
    options.seed = config.seed;
    core::ErrorDetector detector(options);
    core::TrainedDetector trained;
    Stopwatch train_timer;
    auto report = detector.Run(pair.dirty, pair.clean, &trained);
    if (!report.ok()) {
      std::cerr << dataset << ": training failed: "
                << report.status().message() << "\n";
      return 1;
    }
    DatasetResult dr;
    dr.dataset = dataset;
    dr.train_seconds = train_timer.ElapsedSeconds();

    const std::string bundle_dir = ".birnn-serve-bench-" + dataset;
    if (Status st = serve::SaveDetectorBundle(trained, bundle_dir);
        !st.ok()) {
      std::cerr << dataset << ": bundle save failed: " << st.message() << "\n";
      return 1;
    }
    serve::ModelRegistry registry;
    if (Status st = registry.LoadBundle(dataset, bundle_dir); !st.ok()) {
      std::cerr << dataset << ": bundle load failed: " << st.message() << "\n";
      return 1;
    }

    serve::ServerOptions server_options;
    server_options.batcher.max_batch = flags.GetInt("max-batch");
    server_options.batcher.max_delay_us = flags.GetInt("max-delay-us");
    server_options.batcher.queue_capacity = flags.GetInt("queue-capacity");
    server_options.batcher.replicas = flags.GetInt("replicas");
    serve::Server server(&registry, server_options);
    if (Status st = server.Start(); !st.ok()) {
      std::cerr << dataset << ": server start failed: " << st.message()
                << "\n";
      return 1;
    }

    const Workload workload = BuildWorkload(pair.dirty, request_cells);
    dr.cells = workload.total_cells;

    // Warmup pass (populates allocator pools and the page cache) then the
    // measured ladder.
    (void)RunLoad(server.port(), workload, 1);
    for (int concurrency = 1; concurrency <= max_concurrency;
         concurrency *= 2) {
      dr.levels.push_back(RunLoad(server.port(), workload, concurrency));
    }
    server.Shutdown();
    std::filesystem::remove_all(bundle_dir);

    dr.match_offline =
        MatchesOfflineReport(dr.levels.front(), workload, report->predicted);
    dr.levels_identical = true;
    for (const LoadResult& level : dr.levels) {
      if (level.responses != dr.levels.front().responses) {
        dr.levels_identical = false;
      }
    }

    const double base = dr.levels.front().cells_per_sec;
    for (const LoadResult& level : dr.levels) {
      const double speedup = base > 0 ? level.cells_per_sec / base : 0.0;
      writer.AddRow({dataset, std::to_string(level.concurrency),
                     std::to_string(level.requests),
                     FormatFixed(level.cells_per_sec, 0),
                     FormatFixed(level.p50_ms, 2), FormatFixed(level.p99_ms, 2),
                     std::to_string(level.shed_requests),
                     FormatFixed(speedup, 1) + "x",
                     dr.match_offline && dr.levels_identical ? "yes" : "NO"});
    }
    std::cerr << "[serve] " << dataset << " cells=" << dr.cells
              << " train=" << FormatFixed(dr.train_seconds, 1) << "s"
              << (dr.match_offline ? "" : " OFFLINE-MISMATCH")
              << (dr.levels_identical ? "" : " LEVEL-MISMATCH") << "\n";
    all.push_back(std::move(dr));
  }
  writer.Print(std::cout);

  int failures = 0;
  for (const DatasetResult& dr : all) {
    if (!dr.match_offline || !dr.levels_identical) ++failures;
    for (const LoadResult& level : dr.levels) {
      if (level.error_requests != 0) ++failures;
    }
  }
  if (failures > 0) {
    std::cout << "\nWARNING: " << failures
              << " verification failure(s) — speedups invalid\n";
  }

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    JsonWriter json(out);
    json.BeginObject();
    json.Key("replicas").Int(flags.GetInt("replicas"));
    json.Key("request_cells").Int(request_cells);
    json.Key("max_batch").Int(flags.GetInt("max-batch"));
    json.Key("max_delay_us").Int(flags.GetInt("max-delay-us"));
    json.Key("queue_capacity").Int(flags.GetInt("queue-capacity"));
    json.Key("epochs").Int(config.epochs);
    json.Key("scale").Number(config.scale);
    json.Key("datasets").BeginArray();
    for (const DatasetResult& dr : all) {
      const double base = dr.levels.front().cells_per_sec;
      json.BeginObject();
      json.Key("dataset").String(dr.dataset);
      json.Key("cells").Int(dr.cells);
      json.Key("train_seconds").Number(dr.train_seconds);
      json.Key("served_matches_offline").Bool(dr.match_offline);
      json.Key("levels_bit_identical").Bool(dr.levels_identical);
      json.Key("levels").BeginArray();
      for (const LoadResult& level : dr.levels) {
        json.BeginObject();
        json.Key("concurrency").Int(level.concurrency);
        json.Key("requests").Int(level.requests);
        json.Key("cells").Int(level.cells);
        json.Key("seconds").Number(level.seconds);
        json.Key("cells_per_sec").Number(level.cells_per_sec);
        json.Key("p50_ms").Number(level.p50_ms);
        json.Key("p99_ms").Number(level.p99_ms);
        json.Key("shed_requests").Int(level.shed_requests);
        json.Key("shed_rate")
            .Number(level.requests > 0
                        ? static_cast<double>(level.shed_requests) /
                              static_cast<double>(level.requests)
                        : 0.0);
        json.Key("speedup_vs_1")
            .Number(base > 0 ? level.cells_per_sec / base : 0.0);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
    json.Key("obs");
    WriteObsJson(&json);
    json.EndObject();
    out << "\n";
    std::cout << "\nwrote " << config.json_path << "\n";
  }
  WriteObsArtifacts(config);
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace birnn::bench

int main(int argc, char** argv) { return birnn::bench::Run(argc, argv); }
