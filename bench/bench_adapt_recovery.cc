// Drift-triggered adaptation recovery, measured end to end through the
// serve plane (the full ISSUE-10 loop: stream -> drift -> adapt -> gate ->
// promote -> serve).
//
// Per dataset: train an incumbent detector, host it behind the serve
// plane's epoll reactor, and hold back ~30% of the rows as an evaluation
// slice the session never sees. The incumbent's pre-drift F1 on that
// slice, with a bootstrap CI95 band, is the recovery target. Then the feed drifts: every
// in-dictionary character is remapped through a rank bijection (dictionary
// rank k -> k+1 mod N) and an out-of-vocabulary marker byte is appended —
// an information-preserving transform (errors stay exactly as separable as
// before), so a fine-tune *can* recover, while the frozen incumbent reads
// scrambled text and degrades. Truth labels carry over unchanged.
//
// Phases, all over the wire:
//   1. baseline  — detect the held-back slice, bootstrap the CI95 F1 band.
//   2. degrade   — detect the drifted slice against the frozen incumbent;
//                  its F1 must fall below the band (else there is no drift
//                  worth adapting to and the run fails).
//   3. stream    — the remaining rows arrive drifted as "delta" inserts;
//                  the session's OOV-rate alarms must latch.
//   4. promote   — an "adapt" with truthful labels while client threads
//                  keep firing detect requests: every request fired must be
//                  answered well-formed (zero dropped across the live
//                  swap), and the candidate must be promoted. The adapt op
//                  runs synchronously on its reactor loop, so probes whose
//                  connections share that loop stall until it returns:
//                  they are answered late, not dropped.
//   5. recover   — detect the drifted held-back slice (never streamed,
//                  never fine-tuned on) against the promoted generation;
//                  its F1 must climb back into the pre-drift band.
//   6. poison    — the drifted feed re-streams into the promoted
//                  generation's fresh session, then an "adapt" with
//                  *inverted* labels but truthful gate_labels: the
//                  candidate fine-tunes on lies, the gate scores it on
//                  truth against the (now well-adapted) incumbent, and
//                  promotion must be REJECTED with detect responses
//                  byte-identical across the attempt. (Poisoning the
//                  adapted generation, not the degraded one, makes the
//                  rejection structural: the incumbent's gate F1 is high,
//                  so no amount of luck lets the sabotaged candidate past.)
//   7. rollback  — swap the pre-adaptation incumbent back; the pinned
//                  detect request must again answer byte-identically to
//                  the pre-adaptation bytes.
//
// Structural gates (poison rejection, byte identity, zero drops, promotion
// accounting) always fail the run; the two statistical F1-band gates and
// the floor on probes fired during the adapt step are enforced under --gate
// (they depend on dataset scale). Writes
// BENCH_adapt.json.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/detector.h"
#include "data/dictionary.h"
#include "datagen/datasets.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace birnn::bench {
namespace {

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

/// One synchronous request/response exchange; "" on any transport failure
/// (short write, EOF before the newline).
std::string RoundTrip(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  if (::write(fd, framed.data(), framed.size()) !=
      static_cast<ssize_t>(framed.size())) {
    return "";
  }
  std::string response;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return response;
    response.push_back(c);
  }
  return "";
}

/// The drift transform: a bijection over the incumbent's dictionary
/// (rank k -> rank k+1 mod N, identity outside it) plus one appended
/// marker byte chosen to be out-of-vocabulary. Bijective per character and
/// constant-suffix, so two values differ after the transform iff they
/// differed before — the error/clean separation the labels encode is
/// untouched while the surface distribution walks completely away.
struct DriftTransform {
  std::array<char, 256> map{};
  char oov_marker = '\x01';

  std::string Apply(const std::string& value) const {
    if (value.empty()) return value;  // NULLs stay NULLs under pipe drift.
    std::string out;
    out.reserve(value.size() + 1);
    for (const char c : value) {
      out.push_back(map[static_cast<unsigned char>(c)]);
    }
    out.push_back(oov_marker);
    return out;
  }
};

DriftTransform MakeDriftTransform(const data::CharIndex& chars) {
  DriftTransform t;
  const std::array<int, 256>& table = chars.index_table();
  const int n = chars.num_chars();
  std::vector<unsigned char> by_rank(static_cast<size_t>(n) + 1, 0);
  for (int c = 0; c < 256; ++c) {
    if (table[static_cast<size_t>(c)] > 0) {
      by_rank[static_cast<size_t>(table[static_cast<size_t>(c)])] =
          static_cast<unsigned char>(c);
    }
  }
  for (int c = 0; c < 256; ++c) {
    const int rank = table[static_cast<size_t>(c)];
    t.map[static_cast<size_t>(c)] =
        (rank > 0 && n > 1)
            ? static_cast<char>(by_rank[static_cast<size_t>(rank % n) + 1])
            : static_cast<char>(c);
  }
  for (int c = 0x21; c < 0x7f; ++c) {
    if (table[static_cast<size_t>(c)] == 0) {
      t.oov_marker = static_cast<char>(c);
      break;
    }
  }
  return t;
}

std::string DetectRequest(const std::string& id,
                          const std::vector<std::string>& values) {
  std::string line = "{\"id\":";
  serve::AppendJsonString(id, &line);
  line += ",\"op\":\"detect\",\"cells\":[";
  for (size_t a = 0; a < values.size(); ++a) {
    if (a > 0) line.push_back(',');
    line += "{\"attr\":" + std::to_string(a) + ",\"value\":";
    serve::AppendJsonString(values[a], &line);
    line.push_back('}');
  }
  line += "]}";
  return line;
}

std::vector<std::string> RowValues(const data::Table& dirty, int64_t row,
                                   const DriftTransform* drift) {
  std::vector<std::string> values;
  const int n_attrs = dirty.num_columns();
  values.reserve(static_cast<size_t>(n_attrs));
  for (int a = 0; a < n_attrs; ++a) {
    std::string v = dirty.cell(static_cast<int>(row), a);
    values.push_back(drift != nullptr ? drift->Apply(v) : std::move(v));
  }
  return values;
}

/// Scores `rows` of the dirty table (optionally drifted) through wire
/// detect requests; appends per-cell predictions and the matching truth
/// labels. Returns false (with `*error` set) on any non-OK response.
bool DetectRows(int fd, const data::Table& dirty,
                const std::vector<int64_t>& rows, const DriftTransform* drift,
                const std::vector<int32_t>& truth_all,
                std::vector<uint8_t>* pred, std::vector<int32_t>* truth,
                std::string* error) {
  const int n_attrs = dirty.num_columns();
  for (const int64_t row : rows) {
    const std::string response = RoundTrip(
        fd, DetectRequest("e" + std::to_string(row), RowValues(dirty, row, drift)));
    auto parsed = serve::JsonValue::Parse(response);
    if (!parsed.ok() || parsed->GetString("status") != "OK") {
      *error = "detect row " + std::to_string(row) + ": " +
               (response.empty() ? "no response" : response);
      return false;
    }
    const serve::JsonValue* results = parsed->Find("results");
    if (results == nullptr ||
        results->items().size() != static_cast<size_t>(n_attrs)) {
      *error = "detect row " + std::to_string(row) + ": malformed results";
      return false;
    }
    for (int a = 0; a < n_attrs; ++a) {
      const serve::JsonValue* flag =
          results->items()[static_cast<size_t>(a)].Find("error");
      pred->push_back(flag != nullptr && flag->as_bool() ? 1 : 0);
      truth->push_back(truth_all[static_cast<size_t>(row) *
                                     static_cast<size_t>(n_attrs) +
                                 static_cast<size_t>(a)]);
    }
  }
  return true;
}

double F1Of(const std::vector<uint8_t>& pred,
            const std::vector<int32_t>& truth) {
  return eval::Evaluate(pred, truth).F1();
}

/// Percentile bootstrap of the F1 over the (prediction, truth) cells:
/// the incumbent's sampling noise on this slice, i.e. the band "as good as
/// before drift" means.
void BootstrapBand(const std::vector<uint8_t>& pred,
                   const std::vector<int32_t>& truth, uint64_t seed, int reps,
                   double* lo, double* hi) {
  std::vector<double> f1s;
  f1s.reserve(static_cast<size_t>(reps));
  Rng rng(seed);
  const size_t n = pred.size();
  for (int rep = 0; rep < reps; ++rep) {
    eval::Confusion c;
    for (size_t i = 0; i < n; ++i) {
      const size_t j = static_cast<size_t>(rng.UniformInt(n));
      c.Add(pred[j], truth[j]);
    }
    f1s.push_back(c.F1());
  }
  std::sort(f1s.begin(), f1s.end());
  *lo = f1s[static_cast<size_t>(0.025 * reps)];
  *hi = f1s[std::min(static_cast<size_t>(reps) - 1,
                     static_cast<size_t>(0.975 * reps))];
}

/// Labels for the streamed rows as the adapt op's wire array; the
/// injector's ground truth, optionally inverted (the poison phase).
std::string LabelsJson(const std::vector<int64_t>& rows, int n_attrs,
                       const std::vector<int32_t>& truth_all, bool invert) {
  std::string out = "[";
  bool first = true;
  for (const int64_t row : rows) {
    for (int a = 0; a < n_attrs; ++a) {
      const int32_t label = truth_all[static_cast<size_t>(row) *
                                          static_cast<size_t>(n_attrs) +
                                      static_cast<size_t>(a)];
      if (!first) out.push_back(',');
      first = false;
      out += "{\"row\":" + std::to_string(row) +
             ",\"attr\":" + std::to_string(a) +
             ",\"label\":" + std::to_string(invert ? 1 - label : label) + "}";
    }
  }
  out.push_back(']');
  return out;
}

struct ProbeTally {
  int64_t fired = 0;
  int64_t answered = 0;
  int64_t malformed = 0;  ///< answered but not a well-formed OK line.
};

// Under --gate, the fewest probes that must be fired before the adapt
// response arrives. Probes are a paced trickle that only runs while the
// adapt step does, so a fast enough adapt would otherwise pass the
// zero-drop check on a handful of requests. Fixed before any run; never
// lower it to make a run pass.
constexpr int64_t kMinProbesDuringAdapt = 64;

struct DatasetResult {
  std::string dataset;
  int64_t rows = 0;
  int n_attrs = 0;
  int64_t stream_rows = 0;
  int64_t eval_rows = 0;
  double train_seconds = 0.0;

  double pre_drift_f1 = 0.0;
  double band_lo = 0.0;
  double band_hi = 0.0;
  double frozen_drift_f1 = 0.0;
  double adapted_f1 = 0.0;
  bool degraded = false;
  bool recovered = false;

  int64_t drift_alarms = 0;
  std::string poison_outcome;
  bool poison_bytes_identical = false;
  std::string adapt_outcome;
  bool deterministic_eval = false;
  double incumbent_gate_f1 = 0.0;
  double candidate_gate_f1 = 0.0;
  int64_t train_cells = 0;
  int64_t validation_cells = 0;
  int64_t generation = 0;
  double adapt_seconds = 0.0;

  ProbeTally probes;
  int64_t probes_before_adapt_response = 0;
  bool rollback_bytes_identical = false;
  int64_t adapt_attempts = 0;
  int64_t adapt_promotions = 0;
  int64_t adapt_rejections = 0;

  std::vector<std::string> failures;
};

int Run(int argc, char** argv) {
  FlagSet flags;
  AddCommonFlags(&flags, "BENCH_adapt.json");
  flags.AddDouble("eval-frac", 0.3,
                  "fraction of rows held back as the never-streamed "
                  "recovery-evaluation slice");
  flags.AddInt("bootstrap", 200, "bootstrap resamples for the CI95 F1 band");
  flags.AddInt("adapt-epochs", 64, "fine-tune epochs per adaptation attempt");
  flags.AddDouble("adapt-lr", 2e-3, "fine-tune learning rate");
  flags.AddDouble("validation-frac", 0.15,
                  "reservoir fraction held back for the promotion gate "
                  "(the rest feeds the fine-tune)");
  flags.AddInt("clients", 4,
               "detect-spamming client threads during the live promotion");
  flags.AddInt("probe-interval-ms", 25,
               "pause between probe detects per client (a paced trickle "
               "spans the swap without starving the fine-tune of CPU)");
  flags.AddDouble("min-band-width", 0.06,
                  "minimum distance below the pre-drift F1 the band floor "
                  "may sit at. The cell-resampling bootstrap collapses to "
                  "a near-zero band when the incumbent scores the slice "
                  "perfectly, which would demand the adapted model beat "
                  "the seed-to-seed noise of full retraining itself; the "
                  "default matches the widest measured cross-seed fp32 "
                  "CI95 half-width (hospital, 0.0596; EXPERIMENTS.md, "
                  "\"Precision\" section)");
  flags.AddBool("gate", false,
                "also enforce the statistical F1-band gates (frozen "
                "degrades below the band, adapted recovers into it)");
  BenchConfig config =
      ParseCommonFlags(&flags, argc, argv, "bench_adapt_recovery");
  const double eval_frac =
      std::min(0.9, std::max(0.05, flags.GetDouble("eval-frac")));
  const int bootstrap = std::max(10, flags.GetInt("bootstrap"));
  const int adapt_epochs = std::max(1, flags.GetInt("adapt-epochs"));
  const double adapt_lr = flags.GetDouble("adapt-lr");
  const double validation_frac =
      std::min(0.5, std::max(0.05, flags.GetDouble("validation-frac")));
  const int n_clients = std::max(1, flags.GetInt("clients"));
  const int probe_interval_ms = std::max(0, flags.GetInt("probe-interval-ms"));
  const double min_band_width = flags.GetDouble("min-band-width");
  const bool gate = flags.GetBool("gate");

  std::cout << "=== Adaptation recovery (adapt_epochs=" << adapt_epochs
            << ", eval_frac=" << FormatFixed(eval_frac, 2)
            << ", clients=" << n_clients << ") ===\n\n";

  std::vector<DatasetResult> all;
  eval::TableWriter writer({"Dataset", "Rows", "Pre F1", "Band lo", "Frozen",
                            "Adapted", "Poison", "Probes", "Drops", "Roll"});

  uint64_t dataset_index = 0;
  for (const std::string& dataset : DatasetList(config)) {
    ++dataset_index;
    const datagen::DatasetPair pair = MakePair(dataset, config);
    DatasetResult dr;
    dr.dataset = dataset;
    dr.rows = pair.dirty.num_rows();
    dr.n_attrs = pair.dirty.num_columns();

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
    dr.train_seconds = train_timer.ElapsedSeconds();
    const std::vector<int32_t> truth = report->truth;

    auto loaded = serve::MakeLoadedDetector(std::move(trained));
    if (!loaded.ok()) {
      std::cerr << dataset << ": " << loaded.status().message() << "\n";
      return 1;
    }
    serve::ModelRegistry registry;
    if (Status st = registry.Add(dataset, std::move(loaded).value());
        !st.ok()) {
      std::cerr << dataset << ": " << st.message() << "\n";
      return 1;
    }
    const DriftTransform drift =
        MakeDriftTransform(registry.Get(dataset)->chars());

    // Row split: the tail of the table is the held-back evaluation slice
    // (never streamed, never fine-tuned on), the head is the CDC feed.
    const int64_t n_eval = std::max<int64_t>(
        8, static_cast<int64_t>(static_cast<double>(dr.rows) * eval_frac));
    dr.eval_rows = std::min(n_eval, dr.rows - 2);
    dr.stream_rows = dr.rows - dr.eval_rows;
    std::vector<int64_t> stream_rows, eval_rows;
    for (int64_t r = 0; r < dr.stream_rows; ++r) stream_rows.push_back(r);
    for (int64_t r = dr.stream_rows; r < dr.rows; ++r) eval_rows.push_back(r);

    const std::string candidate_dir =
        (std::filesystem::temp_directory_path() /
         ("birnn_bench_adapt_" + dataset + "_" +
          std::to_string(::getpid())))
            .string();
    serve::ServerOptions server_options;
    server_options.stream_session.drift.min_cells =
        std::max<int64_t>(4, std::min<int64_t>(16, dr.stream_rows / 2));
    server_options.stream_session.reservoir_capacity = dr.rows + 16;
    server_options.adapt.fine_tune_epochs = adapt_epochs;
    server_options.adapt.learning_rate = static_cast<float>(adapt_lr);
    server_options.adapt.validation_fraction = validation_frac;
    server_options.adapt.min_reservoir_rows = 2;
    server_options.adapt.seed = config.seed;
    server_options.adapt_bundle_dir = candidate_dir;
    serve::Server server(&registry, server_options);
    if (Status st = server.Start(); !st.ok()) {
      std::cerr << dataset << ": server start failed: " << st.message()
                << "\n";
      return 1;
    }
    const int fd = ConnectTo(server.port());
    if (fd < 0) {
      std::cerr << dataset << ": connect failed\n";
      return 1;
    }

    std::cerr << "[adapt] " << dataset << ": incumbent trained ("
              << FormatFixed(dr.train_seconds, 1) << "s), measuring\n";
    // Phase 1: pre-drift baseline F1 + bootstrap CI95 band on the
    // held-back slice. The band floor keeps a degenerate all-correct slice
    // (zero bootstrap spread) from demanding exact perfection back.
    std::string error;
    {
      std::vector<uint8_t> pred;
      std::vector<int32_t> t;
      if (!DetectRows(fd, pair.dirty, eval_rows, nullptr, truth, &pred, &t,
                      &error)) {
        std::cerr << dataset << ": " << error << "\n";
        return 1;
      }
      dr.pre_drift_f1 = F1Of(pred, t);
      BootstrapBand(pred, t, config.seed + dataset_index, bootstrap,
                    &dr.band_lo, &dr.band_hi);
      dr.band_lo = std::min(dr.band_lo, dr.pre_drift_f1 - min_band_width);
    }

    // Phase 2: the frozen incumbent reads the drifted slice.
    {
      std::vector<uint8_t> pred;
      std::vector<int32_t> t;
      if (!DetectRows(fd, pair.dirty, eval_rows, &drift, truth, &pred, &t,
                      &error)) {
        std::cerr << dataset << ": " << error << "\n";
        return 1;
      }
      dr.frozen_drift_f1 = F1Of(pred, t);
    }
    dr.degraded = dr.frozen_drift_f1 < dr.band_lo;
    if (gate && !dr.degraded) {
      dr.failures.push_back(
          "frozen F1 " + FormatFixed(dr.frozen_drift_f1, 4) +
          " did not degrade below the band floor " +
          FormatFixed(dr.band_lo, 4));
    }

    std::cerr << "[adapt] " << dataset << ": pre="
              << FormatFixed(dr.pre_drift_f1, 3) << " band_lo="
              << FormatFixed(dr.band_lo, 3) << " frozen="
              << FormatFixed(dr.frozen_drift_f1, 3) << ", streaming\n";
    // Phase 3: the drifted feed streams in as wire deltas. (Reused in
    // phase 6: the promoted generation's session starts empty, so the
    // poison attempt needs the feed replayed into it.)
    const auto stream_feed = [&]() -> bool {
      for (size_t i = 0; i < stream_rows.size();) {
        std::string line = "{\"id\":\"d\",\"op\":\"delta\",\"deltas\":[";
        for (int k = 0; k < 32 && i < stream_rows.size(); ++k, ++i) {
          if (k > 0) line.push_back(',');
          line += "{\"kind\":\"insert\",\"row\":" +
                  std::to_string(stream_rows[i]) + ",\"values\":[";
          const std::vector<std::string> values =
              RowValues(pair.dirty, stream_rows[i], &drift);
          for (size_t a = 0; a < values.size(); ++a) {
            if (a > 0) line.push_back(',');
            serve::AppendJsonString(values[a], &line);
          }
          line += "]}";
        }
        line += "]}";
        const std::string response = RoundTrip(fd, line);
        if (response.find("\"status\":\"OK\"") == std::string::npos) {
          std::cerr << dataset << ": delta failed: " << response << "\n";
          return false;
        }
      }
      return true;
    };
    if (!stream_feed()) return 1;
    {
      auto stats = serve::JsonValue::Parse(
          RoundTrip(fd, "{\"id\":\"s\",\"op\":\"stats\"}"));
      if (stats.ok()) {
        dr.drift_alarms =
            static_cast<int64_t>(stats->GetNumber("drift_alarms"));
      }
      if (dr.drift_alarms < 1) {
        dr.failures.push_back("no drift alarm latched after the drifted "
                              "feed (OOV marker should have fired)");
      }
    }

    // The pinned request: one drifted evaluation row whose response bytes
    // must survive a rejected candidate and a rollback unchanged.
    const std::string pinned =
        DetectRequest("pin", RowValues(pair.dirty, eval_rows[0], &drift));
    const std::string before = RoundTrip(fd, pinned);

    std::cerr << "[adapt] " << dataset << ": feed streamed, adapting\n";
    // Phase 4: live promotion under fire. Client threads spam detect on
    // their own connections for the whole adapt call; every request fired
    // must come back as a well-formed OK line (probes on the adapt
    // connection's reactor loop wait out the adapt, then are answered).
    {
      std::atomic<bool> stop{false};
      std::atomic<int64_t> fired_total{0};
      std::vector<ProbeTally> tallies(static_cast<size_t>(n_clients));
      std::vector<std::thread> clients;
      for (int c = 0; c < n_clients; ++c) {
        clients.emplace_back([&, c] {
          const int probe_fd = ConnectTo(server.port());
          if (probe_fd < 0) return;
          const std::string probe = DetectRequest(
              "p" + std::to_string(c),
              RowValues(pair.dirty,
                        eval_rows[static_cast<size_t>(c) % eval_rows.size()],
                        &drift));
          ProbeTally& tally = tallies[static_cast<size_t>(c)];
          while (!stop.load(std::memory_order_relaxed)) {
            ++tally.fired;
            fired_total.fetch_add(1, std::memory_order_relaxed);
            const std::string response = RoundTrip(probe_fd, probe);
            if (response.empty()) continue;  // lost: fired - answered.
            ++tally.answered;
            if (response.rfind("{\"id\":", 0) != 0 ||
                response.find("\"status\":\"OK\"") == std::string::npos) {
              ++tally.malformed;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(probe_interval_ms));
          }
          ::close(probe_fd);
        });
      }
      const std::string request =
          "{\"id\":\"adapt\",\"op\":\"adapt\",\"labels\":" +
          LabelsJson(stream_rows, dr.n_attrs, truth, /*invert=*/false) + "}";
      Stopwatch adapt_timer;
      auto response = serve::JsonValue::Parse(RoundTrip(fd, request));
      dr.adapt_seconds = adapt_timer.ElapsedSeconds();
      dr.probes_before_adapt_response = fired_total.load();
      stop.store(true);
      for (std::thread& t : clients) t.join();
      for (const ProbeTally& tally : tallies) {
        dr.probes.fired += tally.fired;
        dr.probes.answered += tally.answered;
        dr.probes.malformed += tally.malformed;
      }
      if (!response.ok()) {
        std::cerr << dataset << ": adapt unparseable\n";
        return 1;
      }
      dr.adapt_outcome = response->GetString("outcome");
      const serve::JsonValue* det = response->Find("deterministic_eval");
      dr.deterministic_eval = det != nullptr && det->as_bool();
      dr.incumbent_gate_f1 = response->GetNumber("incumbent_f1");
      dr.candidate_gate_f1 = response->GetNumber("candidate_f1");
      dr.train_cells = static_cast<int64_t>(response->GetNumber("train_cells"));
      dr.validation_cells =
          static_cast<int64_t>(response->GetNumber("validation_cells"));
      dr.generation = static_cast<int64_t>(response->GetNumber("generation"));
      if (dr.adapt_outcome != "promoted") {
        dr.failures.push_back("truthful candidate was not promoted (got \"" +
                              dr.adapt_outcome +
                              "\": " + response->GetString("reason") + ")");
      }
      if (!dr.deterministic_eval) {
        dr.failures.push_back("candidate evaluation was not bit-reproducible");
      }
      if (dr.probes.fired != dr.probes.answered) {
        dr.failures.push_back(
            std::to_string(dr.probes.fired - dr.probes.answered) +
            " detect request(s) dropped across the live promotion");
      }
      if (dr.probes.malformed != 0) {
        dr.failures.push_back(std::to_string(dr.probes.malformed) +
                              " malformed detect response(s) during the "
                              "live promotion");
      }
      if (gate && dr.probes_before_adapt_response < kMinProbesDuringAdapt) {
        dr.failures.push_back(
            "only " + std::to_string(dr.probes_before_adapt_response) +
            " probe(s) fired before the adapt response, below the floor of " +
            std::to_string(kMinProbesDuringAdapt));
      }
    }

    // Phase 5: recovery on the never-streamed drifted slice, served by the
    // promoted generation.
    if (dr.adapt_outcome == "promoted") {
      std::vector<uint8_t> pred;
      std::vector<int32_t> t;
      if (!DetectRows(fd, pair.dirty, eval_rows, &drift, truth, &pred, &t,
                      &error)) {
        std::cerr << dataset << ": " << error << "\n";
        return 1;
      }
      dr.adapted_f1 = F1Of(pred, t);
      dr.recovered = dr.adapted_f1 >= dr.band_lo;
      if (gate && !dr.recovered) {
        dr.failures.push_back("adapted F1 " + FormatFixed(dr.adapted_f1, 4) +
                              " below the band floor " +
                              FormatFixed(dr.band_lo, 4));
      }
    }

    std::cerr << "[adapt] " << dataset << ": " << dr.adapt_outcome
              << " in " << FormatFixed(dr.adapt_seconds, 1)
              << "s, adapted=" << FormatFixed(dr.adapted_f1, 3)
              << ", poisoning\n";
    // Phase 6: poisoned candidate against the adapted incumbent. The
    // promoted generation's session starts empty (new baselines), so the
    // feed replays first; then the fine-tune labels are inverted truth
    // while the gate oracle keeps the truth. The adapted incumbent scores
    // high on the drifted validation slice, so the sabotaged candidate
    // cannot sneak past the band — rejection is structural. Serving must
    // be bit-for-bit undisturbed across the attempt.
    if (dr.adapt_outcome == "promoted") {
      if (!stream_feed()) return 1;
      const std::string pinned_now = RoundTrip(fd, pinned);
      const std::string request =
          "{\"id\":\"poison\",\"op\":\"adapt\",\"labels\":" +
          LabelsJson(stream_rows, dr.n_attrs, truth, /*invert=*/true) +
          ",\"gate_labels\":" +
          LabelsJson(stream_rows, dr.n_attrs, truth, /*invert=*/false) + "}";
      auto response = serve::JsonValue::Parse(RoundTrip(fd, request));
      if (!response.ok()) {
        std::cerr << dataset << ": poison adapt unparseable\n";
        return 1;
      }
      dr.poison_outcome = response->GetString("outcome");
      if (dr.poison_outcome != "rejected") {
        dr.failures.push_back("poisoned candidate was not rejected (got \"" +
                              dr.poison_outcome + "\")");
      }
      dr.poison_bytes_identical = RoundTrip(fd, pinned) == pinned_now;
      if (!dr.poison_bytes_identical) {
        dr.failures.push_back(
            "detect bytes changed across the rejected candidate");
      }
    }

    // Phase 7: rollback restores the incumbent bit for bit.
    {
      const std::string response =
          RoundTrip(fd, "{\"id\":\"rb\",\"op\":\"rollback\"}");
      if (response.find("\"status\":\"OK\"") == std::string::npos) {
        dr.failures.push_back("rollback failed: " + response);
      }
      dr.rollback_bytes_identical = RoundTrip(fd, pinned) == before;
      if (!dr.rollback_bytes_identical) {
        dr.failures.push_back("detect bytes differ after rollback");
      }
      auto stats = serve::JsonValue::Parse(
          RoundTrip(fd, "{\"id\":\"s2\",\"op\":\"stats\"}"));
      if (stats.ok()) {
        dr.adapt_attempts =
            static_cast<int64_t>(stats->GetNumber("adapt_attempts"));
        dr.adapt_promotions =
            static_cast<int64_t>(stats->GetNumber("adapt_promotions"));
        dr.adapt_rejections =
            static_cast<int64_t>(stats->GetNumber("adapt_rejections"));
      }
      if (dr.adapt_attempts != 2 || dr.adapt_promotions != 1 ||
          dr.adapt_rejections != 1) {
        dr.failures.push_back(
            "adapt lineage accounting off: attempts=" +
            std::to_string(dr.adapt_attempts) +
            " promotions=" + std::to_string(dr.adapt_promotions) +
            " rejections=" + std::to_string(dr.adapt_rejections));
      }
    }

    ::close(fd);
    server.Shutdown();
    std::error_code ec;
    std::filesystem::remove_all(candidate_dir, ec);

    writer.AddRow({dataset, std::to_string(dr.rows),
                   FormatFixed(dr.pre_drift_f1, 3),
                   FormatFixed(dr.band_lo, 3),
                   FormatFixed(dr.frozen_drift_f1, 3),
                   FormatFixed(dr.adapted_f1, 3), dr.poison_outcome,
                   std::to_string(dr.probes.fired),
                   std::to_string(dr.probes.fired - dr.probes.answered),
                   dr.rollback_bytes_identical ? "byte-id" : "DIFF"});
    std::cerr << "[adapt] " << dataset << " rows=" << dr.rows
              << " train=" << FormatFixed(dr.train_seconds, 1) << "s"
              << " adapt=" << FormatFixed(dr.adapt_seconds, 1) << "s"
              << " pre=" << FormatFixed(dr.pre_drift_f1, 3)
              << " frozen=" << FormatFixed(dr.frozen_drift_f1, 3)
              << " adapted=" << FormatFixed(dr.adapted_f1, 3)
              << (dr.failures.empty() ? "" : " FAIL") << "\n";
    all.push_back(std::move(dr));
  }
  writer.Print(std::cout);

  int failures = 0;
  for (const DatasetResult& dr : all) {
    for (const std::string& f : dr.failures) {
      std::cout << "FAIL " << dr.dataset << ": " << f << "\n";
      ++failures;
    }
  }
  std::cout << (failures == 0 ? "\nall adaptation checks passed\n"
                              : "\n" + std::to_string(failures) +
                                    " adaptation check failure(s)\n");

  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path);
    JsonWriter json(out);
    json.BeginObject();
    json.Key("epochs").Int(config.epochs);
    json.Key("scale").Number(config.scale);
    json.Key("adapt_epochs").Int(adapt_epochs);
    json.Key("adapt_lr").Number(adapt_lr);
    json.Key("eval_frac").Number(eval_frac);
    json.Key("bootstrap").Int(bootstrap);
    json.Key("clients").Int(n_clients);
    json.Key("min_band_width").Number(min_band_width);
    json.Key("gates_passed").Bool(failures == 0);
    json.Key("datasets").BeginArray();
    for (const DatasetResult& dr : all) {
      json.BeginObject();
      json.Key("dataset").String(dr.dataset);
      json.Key("rows").Int(dr.rows);
      json.Key("n_attrs").Int(dr.n_attrs);
      json.Key("stream_rows").Int(dr.stream_rows);
      json.Key("eval_rows").Int(dr.eval_rows);
      json.Key("train_seconds").Number(dr.train_seconds);
      json.Key("pre_drift_f1").Number(dr.pre_drift_f1);
      json.Key("band_lo").Number(dr.band_lo);
      json.Key("band_hi").Number(dr.band_hi);
      json.Key("frozen_drift_f1").Number(dr.frozen_drift_f1);
      json.Key("adapted_f1").Number(dr.adapted_f1);
      json.Key("degraded").Bool(dr.degraded);
      json.Key("recovered").Bool(dr.recovered);
      json.Key("drift_alarms").Int(dr.drift_alarms);
      json.Key("poison_outcome").String(dr.poison_outcome);
      json.Key("poison_bytes_identical").Bool(dr.poison_bytes_identical);
      json.Key("adapt_outcome").String(dr.adapt_outcome);
      json.Key("deterministic_eval").Bool(dr.deterministic_eval);
      json.Key("incumbent_gate_f1").Number(dr.incumbent_gate_f1);
      json.Key("candidate_gate_f1").Number(dr.candidate_gate_f1);
      json.Key("train_cells").Int(dr.train_cells);
      json.Key("validation_cells").Int(dr.validation_cells);
      json.Key("generation").Int(dr.generation);
      json.Key("adapt_seconds").Number(dr.adapt_seconds);
      json.Key("probe_requests_fired").Int(dr.probes.fired);
      json.Key("probe_requests_answered").Int(dr.probes.answered);
      json.Key("probe_requests_malformed").Int(dr.probes.malformed);
      json.Key("probe_requests_fired_before_adapt_response")
          .Int(dr.probes_before_adapt_response);
      json.Key("probe_floor").Int(kMinProbesDuringAdapt);
      json.Key("rollback_bytes_identical").Bool(dr.rollback_bytes_identical);
      json.Key("adapt_attempts").Int(dr.adapt_attempts);
      json.Key("adapt_promotions").Int(dr.adapt_promotions);
      json.Key("adapt_rejections").Int(dr.adapt_rejections);
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
