// stream subsystem tests: frozen-statistics bundle round trips, the CDC table
// session (replay-as-inserts equivalence against the offline report,
// incremental re-scoring minimality, versioned verdicts, drift alarms,
// concurrency under TSAN), the serve-plane "delta" op end to end over real
// sockets, and the embeddable C API driven from a plain-C translation unit.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "core/inference.h"
#include "core/model.h"
#include "datagen/datasets.h"
#include "obs/registry.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/session.h"
#include "util/rng.h"

extern "C" int birnn_capi_smoke(const char* bundle_dir);

namespace birnn::stream {
namespace {

// A hand-built detector with frozen column statistics: streaming-capable
// without paying for a training run.
core::TrainedDetector MakeTinyTrained(bool frozen_stats = true) {
  core::TrainedDetector trained;
  trained.chars = data::CharIndex::BuildFromStrings(
      {"abcdefghijklmnopqrstuvwxyz0123456789 .-"});
  core::ModelConfig config;
  config.vocab = trained.chars.vocab_size();
  config.max_len = 12;
  config.n_attrs = 3;
  config.char_emb_dim = 8;
  config.units = 8;
  config.stacks = 1;
  config.enriched = true;
  config.attr_emb_dim = 4;
  config.attr_units = 4;
  config.length_dense_dim = 8;
  config.hidden_dense_dim = 8;
  config.seed = 99;
  trained.config = config;
  trained.model = std::make_unique<core::ErrorDetectionModel>(config);
  trained.attr_names = {"id", "name", "score"};
  trained.attr_max_value_len = {8, 12, 6};
  if (frozen_stats) {
    trained.attr_empty_rate = {0.0f, 0.0f, 0.0f};
    trained.attr_error_rate = {0.0f, 0.0f, 0.0f};
    trained.has_frozen_stats = true;
  }
  return trained;
}

std::shared_ptr<const serve::LoadedDetector> MakeTinyShared() {
  auto loaded = serve::MakeLoadedDetector(MakeTinyTrained());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::make_shared<const serve::LoadedDetector>(
      std::move(loaded).value());
}

std::string TempDir(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------------- Bundle manifest v3

TEST(BundleV3Test, FrozenStatsSurviveSaveLoad) {
  core::TrainedDetector trained = MakeTinyTrained();
  trained.attr_empty_rate = {0.125f, 0.0f, 0.75f};
  trained.attr_error_rate = {0.03125f, 0.5f, 0.0f};
  const uint64_t fingerprint = trained.chars.Fingerprint();

  const std::string dir = TempDir("birnn_stream_v3_roundtrip");
  ASSERT_TRUE(serve::SaveDetectorBundle(trained, dir).ok());

  // The manifest advertises version 5 and carries the frozen stats.
  std::ifstream in(dir + "/manifest.txt");
  std::string manifest((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("birnn-detector-bundle 5"), std::string::npos);
  EXPECT_NE(manifest.find("char_fingerprint"), std::string::npos);
  EXPECT_NE(manifest.find("attr_stats"), std::string::npos);

  auto loaded = serve::LoadDetectorBundle(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->char_fingerprint(), fingerprint);
  ASSERT_EQ(loaded->attr_empty_rate().size(), 3u);
  EXPECT_EQ(loaded->attr_empty_rate()[0], 0.125f);
  EXPECT_EQ(loaded->attr_empty_rate()[2], 0.75f);
  EXPECT_EQ(loaded->attr_error_rate()[1], 0.5f);
  std::filesystem::remove_all(dir);
}

TEST(BundleV3Test, TamperedDictionaryIsRejectedByFingerprint) {
  const core::TrainedDetector trained = MakeTinyTrained();
  const std::string dir = TempDir("birnn_stream_v3_tamper");
  ASSERT_TRUE(serve::SaveDetectorBundle(trained, dir).ok());

  // Flip the stored fingerprint; the reconstructed dictionary no longer
  // matches and the load must fail instead of desyncing the encoder.
  std::ifstream in(dir + "/manifest.txt");
  std::string manifest((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  const std::string key = "char_fingerprint ";
  const size_t pos = manifest.find(key);
  ASSERT_NE(pos, std::string::npos);
  manifest[pos + key.size()] =
      manifest[pos + key.size()] == '1' ? '2' : '1';
  std::ofstream out(dir + "/manifest.txt");
  out << manifest;
  out.close();

  EXPECT_FALSE(serve::LoadDetectorBundle(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(BundleV3Test, DetectorsWithoutFrozenStatsAreRejected) {
  // Every bundle carries frozen column statistics: a detector without them
  // can be neither saved nor served.
  const std::string dir = TempDir("birnn_stream_no_frozen_stats");
  const Status saved = serve::SaveDetectorBundle(MakeTinyTrained(false), dir);
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument) << saved.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir + "/manifest.txt"));
  const auto loaded = serve::MakeLoadedDetector(MakeTinyTrained(false));
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ TableSession

TEST(TableSessionTest, AppliesDeltasWithVersionedVerdicts) {
  auto session = TableSession::Create(MakeTinyShared());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  TableSession& s = **session;

  std::vector<std::pair<int, CellVerdict>> affected;
  ASSERT_TRUE(s.Insert(5, {"abc", "name x", "12"}, &affected).ok());
  ASSERT_EQ(affected.size(), 3u);
  for (const auto& [attr, verdict] : affected) {
    EXPECT_GE(attr, 0);
    EXPECT_LE(verdict.p_error, 1.0f);
    EXPECT_GE(verdict.p_error, 0.0f);
    EXPECT_EQ(verdict.version, 1u);
  }

  // An update bumps only its cell's version.
  ASSERT_TRUE(s.Update(5, 1, "name y").ok());
  auto updated = s.GetVerdict(5, 1);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->version, 2u);
  auto untouched = s.GetVerdict(5, 0);
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(untouched->version, 1u);

  // Typed failures, no state change.
  EXPECT_EQ(s.Insert(5, {"a", "b", "c"}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.Update(99, 0, "x").code(), StatusCode::kNotFound);
  EXPECT_EQ(s.Update(5, 7, "x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Insert(6, {"too", "few"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Delete(99).code(), StatusCode::kNotFound);

  ASSERT_TRUE(s.Delete(5).ok());
  EXPECT_EQ(s.GetVerdict(5, 0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(s.stats().rows, 0);
  EXPECT_EQ(s.stats().deltas, 3);
}

TEST(TableSessionTest, RescoresOnlyAffectedCells) {
  auto session = TableSession::Create(MakeTinyShared());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  TableSession& s = **session;
  const int n = s.n_attrs();

  ASSERT_TRUE(s.Insert(0, {"aaa", "bbb", "cc"}).ok());
  EXPECT_EQ(s.stats().cells_scored, n);

  // Update re-scores exactly one cell, not the tuple or the table.
  ASSERT_TRUE(s.Update(0, 2, "dd").ok());
  EXPECT_EQ(s.stats().cells_scored, n + 1);

  // Delete re-scores nothing.
  ASSERT_TRUE(s.Insert(1, {"x", "y", "z"}).ok());
  ASSERT_TRUE(s.Delete(0).ok());
  EXPECT_EQ(s.stats().cells_scored, 2 * n + 1);

  // Re-inserting previously-seen content is answered by the memo: the
  // probe counter moves, the scored counter still advances per cell.
  ASSERT_TRUE(s.Insert(2, {"x", "y", "z"}).ok());
  EXPECT_EQ(s.stats().cells_scored, 3 * n + 1);
  EXPECT_GE(s.stats().memo_hits, n);
}

int64_t MemoEvictionsCounter() {
  for (const obs::MetricSnapshot& m : obs::Registry::Get().Snapshot()) {
    if (m.name == "inference/memo_evictions") return m.counter;
  }
  return 0;
}

TEST(TableSessionTest, IncrementalVerdictsMatchBatchDetectAll) {
  // The second session's 16-entry memo evicts throughout: evicted content
  // recomputes to the same bits, so its verdicts must match too.
  SessionOptions evicting;
  evicting.memo.capacity = 16;
  for (const SessionOptions& options : {SessionOptions{}, evicting}) {
    const int64_t evictions_before = MemoEvictionsCounter();
    auto session = TableSession::Create(MakeTinyShared(), options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    TableSession& s = **session;

    const char* words[] = {"ale", "ipa 9", "", "stout.x", "42", "porter-1"};
    for (int r = 0; r < 12; ++r) {
      ASSERT_TRUE(s.Insert(r, {words[r % 6], words[(r + 1) % 6],
                               words[(r * 5 + 2) % 6]})
                      .ok());
    }
    for (int r = 0; r < 12; r += 3) {
      ASSERT_TRUE(s.Update(r, r % 3, "rev 2").ok());
    }
    for (int r = 1; r < 12; r += 4) ASSERT_TRUE(s.Delete(r).ok());

    const std::vector<uint8_t> incremental = s.MaterializedVerdicts();
    auto batch = s.DetectAll();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(incremental.size(), batch->size());
    for (size_t i = 0; i < incremental.size(); ++i) {
      ASSERT_EQ(incremental[i], (*batch)[i])
          << "cell " << i << ", memo capacity " << options.memo.capacity;
    }
    if (options.memo.capacity == evicting.memo.capacity) {
      EXPECT_GT(MemoEvictionsCounter(), evictions_before)
          << "the bounded memo never evicted";
    }
  }
}

TEST(TableSessionTest, DriftAlarmsLatchAgainstFrozenBaselines) {
  SessionOptions options;
  options.drift.min_cells = 4;
  options.drift.max_len_growth = 1.25f;
  options.drift.oov_rate_threshold = 0.05f;
  options.drift.empty_rate_delta = 0.5f;
  // The untrained tiny model's verdicts are arbitrary; keep the error-rate
  // dimension quiet so this test isolates the length and OOV alarms.
  options.drift.error_rate_delta = 1.1f;
  auto session = TableSession::Create(MakeTinyShared(), options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  TableSession& s = **session;

  // In-distribution rows: no alarms.
  for (int r = 0; r < 6; ++r) {
    ASSERT_TRUE(s.Insert(r, {"abc", "name", "12"}).ok());
  }
  EXPECT_EQ(s.stats().drift_alarms, 0);

  // Attribute 0 (frozen max length 8) starts receiving 12-char values and
  // characters outside the train dictionary ('#' was never seen).
  for (int r = 100; r < 108; ++r) {
    ASSERT_TRUE(s.Update(0, 0, "####toolong#").ok());
  }
  const std::vector<DriftAlarm> alarms = s.drift_alarms();
  ASSERT_GE(alarms.size(), 2u);
  bool saw_len = false;
  bool saw_oov = false;
  for (const DriftAlarm& alarm : alarms) {
    EXPECT_EQ(alarm.attr, 0);
    if (alarm.kind == DriftKind::kMaxLen) saw_len = true;
    if (alarm.kind == DriftKind::kOovRate) saw_oov = true;
  }
  EXPECT_TRUE(saw_len);
  EXPECT_TRUE(saw_oov);
  EXPECT_STREQ(DriftKindName(DriftKind::kOovRate), "oov_rate");

  // Latching: the same drift firing again adds no duplicate alarms.
  const int64_t latched = s.stats().drift_alarms;
  ASSERT_TRUE(s.Update(0, 0, "####stilltoolong#").ok());
  EXPECT_EQ(s.stats().drift_alarms, latched);

  // Live stats expose the raw ingredients.
  const LiveAttrStats live = s.live_attr_stats(0);
  EXPECT_GT(live.oov_chars, 0);
  EXPECT_GT(live.max_prepared_len, 8);
}

TEST(TableSessionTest, ConcurrentSessionsAndSharedSessionAreRaceFree) {
  // One shared detector, one shared session + one private session per
  // thread: the TSAN leg proves delta application, verdict reads and stats
  // snapshots are data-race free.
  auto detector = MakeTinyShared();
  auto shared = TableSession::Create(detector);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  TableSession& s = **shared;

  static constexpr int kThreads = 4;
  static constexpr int kRowsPerThread = 24;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s, &detector, t] {
      auto mine = TableSession::Create(detector);
      ASSERT_TRUE(mine.ok());
      for (int r = 0; r < kRowsPerThread; ++r) {
        const int64_t row = t * 1000 + r;
        const std::string v = "v" + std::to_string(r % 7);
        ASSERT_TRUE(s.Insert(row, {v, v + " x", "9"}).ok());
        ASSERT_TRUE((*mine)->Insert(r, {v, v, v}).ok());
        if (r % 3 == 0) {
          ASSERT_TRUE(s.Update(row, 1, "w" + std::to_string(r)).ok());
        }
        if (r % 5 == 4) {
          ASSERT_TRUE(s.Delete(row).ok());
        }
        (void)s.GetVerdict(row, 0);
        (void)s.stats();
        (void)s.drift_alarms();
      }
      ASSERT_EQ((*mine)->stats().rows, kRowsPerThread);
    });
  }
  for (std::thread& t : threads) t.join();

  const SessionStats stats = s.stats();
  EXPECT_EQ(stats.deltas, stats.inserts + stats.updates + stats.deletes);
  EXPECT_EQ(stats.inserts, kThreads * kRowsPerThread);
  EXPECT_EQ(stats.version, static_cast<uint64_t>(stats.deltas));

  // The interleaved end state still matches a from-scratch batch sweep.
  const std::vector<uint8_t> incremental = s.MaterializedVerdicts();
  auto batch = s.DetectAll();
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(incremental, *batch);
}

// --------------------------------------- Replay equivalence (paper tables)

// Train a small detector offline, then replay the whole dirty table into a
// fresh session as inserts: the stored verdicts must reproduce the offline
// DetectionReport bit for bit, on every paper generator. This is the
// streaming acceptance invariant — same pure function, different arrival
// order. A seeded churn then follows on the same session: Zipf-hot updates
// with values resampled from the same column, plus fresh inserts. The
// incremental verdicts must still equal a whole-table batch re-detection.
// On beers, one attribute then drifts to overlong values outside the
// dictionary, and exactly its max-length and OOV alarms must latch.
class ReplayEquivalenceTest : public ::testing::TestWithParam<const char*> {};

// The attribute of each latched max-length or OOV alarm.
std::vector<int> LengthAndOovAlarmAttrs(const TableSession& s) {
  std::vector<int> attrs;
  for (const DriftAlarm& alarm : s.drift_alarms()) {
    if (alarm.kind == DriftKind::kMaxLen || alarm.kind == DriftKind::kOovRate) {
      attrs.push_back(alarm.attr);
    }
  }
  return attrs;
}

TEST_P(ReplayEquivalenceTest, ReplayedInsertsMatchOfflineReport) {
  datagen::GenOptions gen;
  gen.scale = 0.04;
  gen.seed = 5;
  auto pair = datagen::MakeDataset(GetParam(), gen);
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();

  core::DetectorOptions options;
  options.model = "etsb";
  options.n_label_tuples = 10;
  options.units = 12;
  options.char_emb_dim = 8;
  options.trainer.epochs = 6;
  options.seed = 11;
  core::ErrorDetector detector(options);
  core::TrainedDetector trained;
  auto report = detector.Run(pair->dirty, pair->clean, &trained);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(trained.has_frozen_stats);

  auto loaded = serve::MakeLoadedDetector(std::move(trained));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto shared = std::make_shared<const serve::LoadedDetector>(
      std::move(loaded).value());
  const int n_attrs = pair->dirty.num_columns();
  const int n_rows = static_cast<int>(pair->dirty.num_rows());
  SessionOptions session_options;
  // Arm drift detection on these small tables.
  session_options.drift.min_cells = std::min(128, n_rows);
  auto session = TableSession::Create(shared, session_options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  TableSession& s = **session;

  for (int r = 0; r < n_rows; ++r) {
    std::vector<std::string> tuple;
    tuple.reserve(static_cast<size_t>(n_attrs));
    for (int a = 0; a < n_attrs; ++a) tuple.push_back(pair->dirty.cell(r, a));
    ASSERT_TRUE(s.Insert(r, std::move(tuple)).ok());
  }

  const std::vector<uint8_t> streamed = s.MaterializedVerdicts();
  ASSERT_EQ(streamed.size(), report->predicted.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_EQ(streamed[i] != 0, report->predicted[i] != 0)
        << GetParam() << " cell " << i;
  }

  // Churn: 80% updates on Zipf(1.1)-hot rows (rank 0 is an arbitrary row),
  // 20% inserts of fresh tuples; every value is resampled from its column.
  Rng rng(17);
  std::vector<int64_t> live(static_cast<size_t>(n_rows));
  for (int r = 0; r < n_rows; ++r) live[static_cast<size_t>(r)] = r;
  rng.Shuffle(&live);
  std::vector<double> zipf_cdf;
  const auto hot_row = [&] {
    while (zipf_cdf.size() < live.size()) {
      zipf_cdf.push_back((zipf_cdf.empty() ? 0.0 : zipf_cdf.back()) +
                         std::pow(static_cast<double>(zipf_cdf.size() + 1),
                                  -1.1));
    }
    const auto end =
        zipf_cdf.begin() + static_cast<std::ptrdiff_t>(live.size());
    const double u = rng.UniformDouble() * *(end - 1);
    return live[static_cast<size_t>(
        std::lower_bound(zipf_cdf.begin(), end, u) - zipf_cdf.begin())];
  };
  const auto resample = [&](int attr) {
    return pair->dirty.cell(
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n_rows))), attr);
  };
  constexpr int kChurn = 400;
  for (int i = 0; i < kChurn; ++i) {
    if (rng.Bernoulli(0.8)) {
      const int attr =
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n_attrs)));
      ASSERT_TRUE(s.Update(hot_row(), attr, resample(attr)).ok());
    } else {
      std::vector<std::string> tuple;
      for (int a = 0; a < n_attrs; ++a) tuple.push_back(resample(a));
      live.push_back(n_rows + i);
      ASSERT_TRUE(s.Insert(live.back(), std::move(tuple)).ok());
    }
  }
  auto batch = s.DetectAll();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const std::vector<uint8_t> churned = s.MaterializedVerdicts();
  ASSERT_EQ(churned.size(), batch->size());
  for (size_t i = 0; i < churned.size(); ++i) {
    ASSERT_EQ(churned[i], (*batch)[i]) << GetParam() << " cell " << i
                                       << " after churn";
  }

  // In-distribution values never raise a length or OOV alarm.
  EXPECT_TRUE(LengthAndOovAlarmAttrs(s).empty()) << GetParam();
  if (std::string(GetParam()) != "beers") return;

  // Drift: the shortest-valued attribute (so that twice its frozen maximum
  // survives the preparation-time truncation) receives values of that
  // length made of characters the dictionary has never indexed.
  const std::vector<int32_t>& max_len = shared->attr_max_value_len();
  int polluted = -1;
  for (int a = 0; a < n_attrs; ++a) {
    const int32_t mx = max_len[static_cast<size_t>(a)];
    if (mx > 0 &&
        (polluted < 0 || mx < max_len[static_cast<size_t>(polluted)])) {
      polluted = a;
    }
  }
  ASSERT_GE(polluted, 0);
  const std::string junk(
      std::max<size_t>(
          4, 2 * static_cast<size_t>(max_len[static_cast<size_t>(polluted)])),
      '\x01');
  for (int i = 0; i < 96; ++i) {
    ASSERT_TRUE(s.Update(hot_row(), polluted, junk).ok());
  }
  EXPECT_EQ(LengthAndOovAlarmAttrs(s), std::vector<int>({polluted, polluted}));
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, ReplayEquivalenceTest,
                         ::testing::Values("beers", "flights", "hospital",
                                           "movies", "rayyan", "tax"));

// A replay scores each row's fresh cells as one small length-sorted forward
// pass; every stored probability must equal the dense engine's (every batch
// padded to max_len, table order) bit for bit.
TEST(DenseReplayTest, BeersSessionProbsEqualDenseEngine) {
  ASSERT_TRUE(core::InferenceOptions{}.bucketed);
  datagen::GenOptions gen;
  gen.scale = 0.04;
  gen.seed = 5;
  auto pair = datagen::MakeDataset("beers", gen);
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();

  core::DetectorOptions options;
  options.model = "etsb";
  options.n_label_tuples = 10;
  options.units = 12;
  options.char_emb_dim = 8;
  options.trainer.epochs = 2;
  options.seed = 11;
  core::ErrorDetector detector(options);
  core::TrainedDetector trained;
  auto report = detector.Run(pair->dirty, pair->clean, &trained);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto loaded = serve::MakeLoadedDetector(std::move(trained));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const auto shared = std::make_shared<const serve::LoadedDetector>(
      std::move(loaded).value());
  auto session = TableSession::Create(shared);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  TableSession& s = **session;

  const int n_attrs = pair->dirty.num_columns();
  const int n_rows = static_cast<int>(pair->dirty.num_rows());
  std::vector<serve::CellQuery> queries;
  for (int r = 0; r < n_rows; ++r) {
    std::vector<std::string> tuple;
    for (int a = 0; a < n_attrs; ++a) {
      tuple.push_back(pair->dirty.cell(r, a));
      serve::CellQuery q;
      q.attr = a;
      q.value = pair->dirty.cell(r, a);
      queries.push_back(std::move(q));
    }
    ASSERT_TRUE(s.Insert(r, std::move(tuple)).ok());
  }

  auto ds = shared->EncodeQueries(queries);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  core::InferenceOptions dense;
  dense.bucketed = false;
  core::InferenceEngine engine(shared->model(), dense);
  std::vector<float> expected;
  engine.PredictProbs(*ds, {}, &expected);
  ASSERT_EQ(expected.size(), queries.size());
  for (int r = 0; r < n_rows; ++r) {
    for (int a = 0; a < n_attrs; ++a) {
      auto verdict = s.GetVerdict(r, a);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      ASSERT_EQ(verdict->p_error,
                expected[static_cast<size_t>(r * n_attrs + a)])
          << "row " << r << " attr " << a;
    }
  }
}

// ------------------------------------------------------- Serve-plane delta

TEST(ProtocolDeltaTest, ParsesDeltaRequest) {
  auto req = serve::ParseRequest(
      R"({"id":"d1","op":"delta","model":"m","deltas":[)"
      R"({"kind":"insert","row":41,"values":["a","b","c"]},)"
      R"({"kind":"update","row":41,"attr":1,"value":"bb"},)"
      R"({"kind":"delete","row":40}]})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->op, "delta");
  ASSERT_EQ(req->deltas.size(), 3u);
  EXPECT_EQ(req->deltas[0].kind, DeltaKind::kInsert);
  EXPECT_EQ(req->deltas[0].row_id, 41);
  ASSERT_EQ(req->deltas[0].values.size(), 3u);
  EXPECT_EQ(req->deltas[1].kind, DeltaKind::kUpdate);
  EXPECT_EQ(req->deltas[1].attr, 1);
  EXPECT_EQ(req->deltas[1].value, "bb");
  EXPECT_EQ(req->deltas[2].kind, DeltaKind::kDelete);
  EXPECT_EQ(req->deltas[2].row_id, 40);
}

TEST(ProtocolDeltaTest, RejectsMalformedDeltaRequests) {
  using serve::ParseRequest;
  EXPECT_FALSE(ParseRequest(R"({"op":"delta"})").ok());  // no deltas
  EXPECT_FALSE(
      ParseRequest(R"({"op":"delta","deltas":[{"kind":"merge","row":1}]})")
          .ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op":"delta","deltas":[{"kind":"insert"}]})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op":"delta","deltas":[)"
                            R"({"kind":"update","row":1,"value":"x"}]})")
                   .ok());  // no attr
  EXPECT_FALSE(ParseRequest(R"({"op":"delta","deltas":[)"
                            R"({"kind":"update","row":1,"attr":"name",)"
                            R"("value":"x"}]})")
                   .ok());  // delta attrs are numeric
  EXPECT_FALSE(ParseRequest(R"({"op":"delta","deltas":[)"
                            R"({"kind":"insert","row":1.5,"values":[]}]})")
                   .ok());  // non-integer row
}

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  return fd;
}

std::string RoundTrip(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  EXPECT_EQ(static_cast<ssize_t>(framed.size()),
            ::write(fd, framed.data(), framed.size()));
  std::string response;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') break;
    response.push_back(c);
  }
  return response;
}

TEST(DeltaOverSocketsTest, DeltasFlowIntoSessionAndStats) {
  serve::ModelRegistry registry;
  {
    auto loaded = serve::MakeLoadedDetector(MakeTinyTrained());
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(registry.Add("tiny", std::move(loaded).value()).ok());
  }
  serve::Server server(&registry);
  ASSERT_TRUE(server.Start().ok());
  const int fd = ConnectTo(server.port());

  auto response = serve::JsonValue::Parse(RoundTrip(
      fd,
      R"({"id":"d1","op":"delta","deltas":[)"
      R"({"kind":"insert","row":1,"values":["abc","name x","12"]},)"
      R"({"kind":"update","row":1,"attr":2,"value":"34"}]})"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status"), "OK");
  const serve::JsonValue* applied = response->Find("applied");
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(applied->as_number(), 2.0);
  const serve::JsonValue* verdicts = response->Find("verdicts");
  ASSERT_NE(verdicts, nullptr);
  ASSERT_TRUE(verdicts->is_array());
  // 3 cells for the insert + 1 for the update.
  EXPECT_EQ(verdicts->items().size(), 4u);

  // A failing delta reports a typed error (the earlier ones stay applied).
  auto bad = serve::JsonValue::Parse(RoundTrip(
      fd, R"({"id":"d2","op":"delta","deltas":[)"
          R"({"kind":"delete","row":777}]})"));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->GetString("status"), "NOT_FOUND");

  // The stats op reports the session counters.
  auto stats =
      serve::JsonValue::Parse(RoundTrip(fd, R"({"id":"s","op":"stats"})"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const serve::JsonValue* deltas = stats->Find("deltas");
  ASSERT_NE(deltas, nullptr);
  EXPECT_EQ(deltas->as_number(), 2.0);
  const serve::JsonValue* scored = stats->Find("delta_cells_scored");
  ASSERT_NE(scored, nullptr);
  EXPECT_EQ(scored->as_number(), 4.0);
  ASSERT_NE(stats->Find("stream_rows"), nullptr);
  EXPECT_EQ(stats->Find("stream_rows")->as_number(), 1.0);

  ::close(fd);
  server.Shutdown();
}

// ------------------------------------------------------------------- C API

TEST(CApiTest, RoundTripFromPlainC) {
  const core::TrainedDetector trained = MakeTinyTrained();
  const std::string dir = TempDir("birnn_stream_capi");
  ASSERT_TRUE(serve::SaveDetectorBundle(trained, dir).ok());
  EXPECT_EQ(birnn_capi_smoke(dir.c_str()), 0);
  std::filesystem::remove_all(dir);
}

TEST(CApiTest, LoadFailureSetsLastError) {
  EXPECT_EQ(birnn_capi_smoke("/nonexistent/bundle/dir"), 1);
}

}  // namespace
}  // namespace birnn::stream
