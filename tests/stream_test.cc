// stream subsystem tests: frozen-statistics bundle round trips, the CDC table
// session (incremental re-scoring minimality, versioned verdicts, drift
// alarms, concurrency under TSAN), the serve-plane "delta" op end to end
// over real sockets, and the embeddable C API driven from a plain-C
// translation unit. That a replayed and churned session answers with the
// offline report's bits, under the default and an evicting memo, is
// oracle_test's.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/session.h"
#include "test_support.h"

extern "C" int birnn_capi_smoke(const char* bundle_dir);

namespace birnn::stream {
namespace {

using test::ConnectTo;
using test::MakeTinyShared;
using test::MakeTinyTrained;
using test::RoundTrip;
using test::TempDir;

// ------------------------------------------------------- Bundle manifest v3

TEST(BundleV3Test, FrozenStatsSurviveSaveLoad) {
  core::TrainedDetector trained = MakeTinyTrained();
  trained.attr_empty_rate = {0.125f, 0.0f, 0.75f};
  trained.attr_error_rate = {0.03125f, 0.5f, 0.0f};
  const uint64_t fingerprint = trained.chars.Fingerprint();

  const std::string dir = TempDir("birnn_stream_v3_roundtrip");
  ASSERT_TRUE(serve::SaveDetectorBundle(trained, dir).ok());

  // The manifest advertises version 5 and carries the frozen stats.
  const std::string manifest = test::ReadFile(dir + "/manifest.txt");
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
  std::string manifest = test::ReadFile(dir + "/manifest.txt");
  const std::string key = "char_fingerprint ";
  const size_t pos = manifest.find(key);
  ASSERT_NE(pos, std::string::npos);
  manifest[pos + key.size()] =
      manifest[pos + key.size()] == '1' ? '2' : '1';
  test::WriteFile(dir + "/manifest.txt", manifest);

  EXPECT_FALSE(serve::LoadDetectorBundle(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(BundleV3Test, DetectorsWithoutFrozenStatsAreRejected) {
  // Every bundle carries frozen column statistics: a detector without them
  // can be neither saved nor served.
  const auto without_stats = [] {
    core::TrainedDetector trained = MakeTinyTrained();
    trained.attr_empty_rate.clear();
    trained.attr_error_rate.clear();
    trained.has_frozen_stats = false;
    return trained;
  };
  const std::string dir = TempDir("birnn_stream_no_frozen_stats");
  const Status saved = serve::SaveDetectorBundle(without_stats(), dir);
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument) << saved.ToString();
  EXPECT_FALSE(std::filesystem::exists(dir + "/manifest.txt"));
  const auto loaded = serve::MakeLoadedDetector(without_stats());
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
