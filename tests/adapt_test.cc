// adapt subsystem tests: the session's LRU reservoir and drift-alarm
// reset/re-arm, the adapt::Controller (skip / promote / reject outcomes,
// deterministic reports, bit-identical candidates across fine-tune thread
// counts, tuple-level train/gate split, candidate bundle round trip), the
// serve-plane "adapt" op end to end over a live socket (promotion bumps
// the generation, rollback restores byte-identical serving), concurrency
// under TSAN, and the birnn_adapt_* C API driven from a plain-C
// translation unit.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "adapt/controller.h"
#include "core/model.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/session.h"
#include "test_support.h"

extern "C" int birnn_capi_adapt_smoke(const char* bundle_dir,
                                      const char* candidate_dir);

namespace birnn::adapt {
namespace {

using test::ConnectTo;
using test::MakeTinyShared;
using test::MakeTinyTrained;
using test::RoundTrip;
using test::TempDir;

// Drift thresholds that the '#'-flood below reliably trips (see the
// matching stream_test.cc case); the error-rate dimension stays quiet
// because the untrained tiny model's verdicts are arbitrary.
stream::SessionOptions DriftySessionOptions() {
  stream::SessionOptions options;
  options.drift.min_cells = 4;
  options.drift.max_len_growth = 1.25f;
  options.drift.oov_rate_threshold = 0.05f;
  options.drift.empty_rate_delta = 0.5f;
  options.drift.error_rate_delta = 1.1f;
  return options;
}

void InsertInDistributionRows(stream::TableSession* s, int64_t first_row,
                              int n_rows) {
  for (int64_t r = first_row; r < first_row + n_rows; ++r) {
    ASSERT_TRUE(s->Insert(r, {"abc", "name", "12"}).ok());
  }
}

// Floods attribute 0 with long out-of-dictionary values until the length
// and OOV alarms latch.
void InduceDriftOnAttr0(stream::TableSession* s) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(s->Update(0, 0, "####toolong#").ok());
  }
  ASSERT_GT(s->stats().drift_alarms, 0);
}

// --------------------------------------------------------------- Reservoir

TEST(ReservoirTest, KeepsMostRecentlyTouchedTuples) {
  stream::SessionOptions options;
  options.reservoir_capacity = 3;
  auto session = stream::TableSession::Create(MakeTinyShared(), options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  stream::TableSession& s = **session;

  InsertInDistributionRows(&s, 0, 5);
  EXPECT_EQ(s.stats().reservoir_rows, 3);
  std::vector<stream::ReservoirRow> snapshot = s.ReservoirSnapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].row_id, 2);
  EXPECT_EQ(snapshot[1].row_id, 3);
  EXPECT_EQ(snapshot[2].row_id, 4);
  EXPECT_EQ(snapshot[0].values.size(), 3u);
  EXPECT_EQ(snapshot[0].verdicts.size(), 3u);

  // An update refreshes the captured values and re-touches the tuple.
  ASSERT_TRUE(s.Update(2, 0, "zz").ok());
  snapshot = s.ReservoirSnapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].row_id, 3);
  EXPECT_EQ(snapshot[2].row_id, 2);
  EXPECT_EQ(snapshot[2].values[0], "zz");

  // Eviction drops the least recently touched tuple (row 3 after the
  // touch above).
  ASSERT_TRUE(s.Insert(5, {"abc", "name", "12"}).ok());
  snapshot = s.ReservoirSnapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].row_id, 4);
  EXPECT_EQ(snapshot[1].row_id, 2);
  EXPECT_EQ(snapshot[2].row_id, 5);

  // A delete removes the tuple from the reservoir too.
  ASSERT_TRUE(s.Delete(2).ok());
  EXPECT_EQ(s.stats().reservoir_rows, 2);
  snapshot = s.ReservoirSnapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].row_id, 4);
  EXPECT_EQ(snapshot[1].row_id, 5);
}

TEST(ReservoirTest, ZeroCapacityDisablesTheReservoir) {
  stream::SessionOptions options;
  options.reservoir_capacity = 0;
  auto session = stream::TableSession::Create(MakeTinyShared(), options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  InsertInDistributionRows(session->get(), 0, 4);
  EXPECT_EQ((*session)->stats().reservoir_rows, 0);
  EXPECT_TRUE((*session)->ReservoirSnapshot().empty());
}

// A reference reservoir that copies each touched tuple, keeps the copies
// in LRU order and drops one on delete. The session keeps row ids and reads
// the tuples back at snapshot time; both must agree after every delta.
class CopyingReservoir {
 public:
  explicit CopyingReservoir(int64_t capacity) : capacity_(capacity) {}

  void Touch(const stream::ReservoirRow& snap) {
    if (capacity_ <= 0) return;
    Drop(snap.row_id);
    rows_.push_back(snap);
    while (static_cast<int64_t>(rows_.size()) > capacity_) {
      rows_.erase(rows_.begin());
    }
  }

  void Drop(int64_t row_id) {
    for (auto it = rows_.begin(); it != rows_.end(); ++it) {
      if (it->row_id == row_id) {
        rows_.erase(it);
        return;
      }
    }
  }

  const std::vector<stream::ReservoirRow>& rows() const { return rows_; }

 private:
  int64_t capacity_;
  std::vector<stream::ReservoirRow> rows_;
};

TEST(ReservoirTest, MatchesACopyingReferenceOnRandomDeltaStreams) {
  const char* const words[] = {"abc", "name", "12", "zz", "", " q.1",
                               "longer value", "x-9", "#oov"};
  constexpr int kWords = sizeof(words) / sizeof(words[0]);
  for (const int64_t capacity : {int64_t{0}, int64_t{3}, int64_t{4096}}) {
    stream::SessionOptions options;
    options.reservoir_capacity = capacity;
    auto session = stream::TableSession::Create(MakeTinyShared(), options);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    stream::TableSession& s = **session;

    CopyingReservoir ref(capacity);
    // The reference's view of each live tuple, for its touch snapshots.
    std::map<int64_t, stream::ReservoirRow> live;
    std::set<int64_t> deleted;
    std::mt19937 rng(static_cast<uint32_t>(17 + capacity));
    const auto word = [&] { return std::string(words[rng() % kWords]); };
    const auto pick = [&](const auto& ids) {
      auto it = ids.begin();
      std::advance(it, static_cast<long>(rng() % ids.size()));
      return *it;
    };
    std::vector<std::pair<int, stream::CellVerdict>> affected;
    int64_t next_id = 0;
    for (int step = 0; step < 400; ++step) {
      const uint32_t roll = rng() % 10;
      if (roll < 4 || live.empty()) {
        // Insert a new id, or re-insert a deleted one.
        int64_t id = next_id;
        if (!deleted.empty() && roll % 2 == 1) {
          id = pick(deleted);
        } else {
          ++next_id;
        }
        stream::ReservoirRow row;
        row.row_id = id;
        row.values = {word(), word(), word()};
        ASSERT_TRUE(s.Insert(id, row.values, &affected).ok());
        row.verdicts.assign(3, 0);
        for (const auto& [attr, v] : affected) {
          row.verdicts[static_cast<size_t>(attr)] = v.is_error ? 1 : 0;
        }
        deleted.erase(id);
        live[id] = row;
        ref.Touch(row);
      } else if (roll < 8) {
        const int64_t id = pick(live).first;
        const int attr = static_cast<int>(rng() % 3);
        const std::string value = word();
        ASSERT_TRUE(s.Update(id, attr, value, &affected).ok());
        ASSERT_EQ(affected.size(), 1u);
        stream::ReservoirRow& row = live[id];
        row.values[static_cast<size_t>(attr)] = value;
        row.verdicts[static_cast<size_t>(attr)] =
            affected[0].second.is_error ? 1 : 0;
        ref.Touch(row);
      } else if (roll < 9) {
        const int64_t id = pick(live).first;
        ASSERT_TRUE(s.Delete(id).ok());
        live.erase(id);
        deleted.insert(id);
        ref.Drop(id);
      } else {
        // Rejected deltas touch nothing.
        EXPECT_FALSE(s.Insert(pick(live).first, {"a", "b", "c"}).ok());
        EXPECT_FALSE(s.Update(next_id + 7, 0, "a").ok());
        EXPECT_FALSE(s.Update(pick(live).first, 5, "a").ok());
      }

      const std::vector<stream::ReservoirRow> got = s.ReservoirSnapshot();
      const std::vector<stream::ReservoirRow>& want = ref.rows();
      ASSERT_EQ(got.size(), want.size())
          << "capacity " << capacity << " step " << step;
      ASSERT_EQ(s.stats().reservoir_rows, static_cast<int64_t>(want.size()));
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].row_id, want[i].row_id)
            << "capacity " << capacity << " step " << step << " slot " << i;
        ASSERT_EQ(got[i].values, want[i].values) << "row " << want[i].row_id;
        ASSERT_EQ(got[i].verdicts, want[i].verdicts)
            << "row " << want[i].row_id;
      }
    }
  }
}

// -------------------------------------------------------- Drift re-arming

TEST(DriftResetTest, ResetClearsAlarmsAndReArmsAgainstFreshWindows) {
  auto session =
      stream::TableSession::Create(MakeTinyShared(), DriftySessionOptions());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  stream::TableSession& s = **session;

  InsertInDistributionRows(&s, 0, 6);
  EXPECT_EQ(s.stats().drift_alarms, 0);
  EXPECT_TRUE(s.DriftedAttrs().empty());
  InduceDriftOnAttr0(&s);
  EXPECT_EQ(s.DriftedAttrs(), std::vector<int>{0});

  const int64_t cleared = s.ResetDriftAlarms();
  EXPECT_GT(cleared, 0);
  EXPECT_EQ(s.stats().drift_alarms, 0);
  EXPECT_EQ(s.stats().drift_resets, 1);
  EXPECT_TRUE(s.drift_alarms().empty());
  EXPECT_TRUE(s.DriftedAttrs().empty());

  // The live windows restarted: the same drift pattern latches again.
  InduceDriftOnAttr0(&s);
  EXPECT_EQ(s.DriftedAttrs(), std::vector<int>{0});
  EXPECT_EQ(s.ResetDriftAlarms(), cleared);
  EXPECT_EQ(s.stats().drift_resets, 2);
}

// -------------------------------------------------------------- Controller

ControllerOptions FastPromoteOptions() {
  ControllerOptions options;
  options.min_reservoir_rows = 2;
  options.bn_only = true;  // no gradient steps: fast and deterministic
  options.f1_band = 1.0;   // F1 <= 1, so the gate always passes
  return options;
}

TEST(ControllerTest, SkipsWhenTheReservoirIsTooSmall) {
  auto session = stream::TableSession::Create(MakeTinyShared());
  ASSERT_TRUE(session.ok());
  InsertInDistributionRows(session->get(), 0, 3);

  Controller controller(MakeTinyShared());  // default min_reservoir_rows=16
  auto report = controller.TriggerAdaptation(session->get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, AdaptOutcome::kSkipped);
  EXPECT_NE(report->reason.find("reservoir"), std::string::npos);
  EXPECT_EQ(report->reservoir_rows, 3);
  // Nothing was attempted: a skip never counts against the lineage.
  EXPECT_EQ(controller.attempts(), 0);
}

TEST(ControllerTest, MaybeAdaptSkipsWithoutLatchedAlarms) {
  auto session = stream::TableSession::Create(MakeTinyShared());
  ASSERT_TRUE(session.ok());
  InsertInDistributionRows(session->get(), 0, 20);

  Controller controller(MakeTinyShared(), FastPromoteOptions());
  EXPECT_FALSE(controller.ShouldAdapt(**session));
  auto report = controller.MaybeAdapt(session->get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->outcome, AdaptOutcome::kSkipped);
  EXPECT_NE(report->reason.find("no drift alarms"), std::string::npos);
  EXPECT_EQ(controller.attempts(), 0);
}

TEST(ControllerTest, PromotesWithinBandResetsAlarmsAndSavesTheBundle) {
  auto session =
      stream::TableSession::Create(MakeTinyShared(), DriftySessionOptions());
  ASSERT_TRUE(session.ok());
  stream::TableSession& s = **session;
  InsertInDistributionRows(&s, 0, 12);
  InduceDriftOnAttr0(&s);

  ControllerOptions options = FastPromoteOptions();
  options.candidate_dir = TempDir("birnn_adapt_candidate");
  auto incumbent = MakeTinyShared();
  Controller controller(incumbent, options);
  EXPECT_TRUE(controller.ShouldAdapt(s));

  auto report = controller.TriggerAdaptation(session->get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, AdaptOutcome::kPromoted);
  EXPECT_TRUE(report->deterministic_eval);
  EXPECT_EQ(report->generation, 1);
  EXPECT_EQ(report->reservoir_rows, 12);
  EXPECT_GT(report->train_cells, 0);
  EXPECT_GT(report->validation_cells, 0);
  ASSERT_EQ(report->drifted_attrs.size(), 1u);
  EXPECT_EQ(report->drifted_attrs[0], 0);
  EXPECT_EQ(controller.attempts(), 1);
  EXPECT_EQ(controller.promotions(), 1);
  EXPECT_EQ(controller.rejections(), 0);

  // The candidate replaced the incumbent and the trigger was consumed.
  EXPECT_NE(controller.current().get(), incumbent.get());
  EXPECT_EQ(s.stats().drift_alarms, 0);
  EXPECT_EQ(s.stats().drift_resets, 1);

  // The saved candidate is a full bundle with the incumbent's frozen
  // encoding and freshly recomputed column statistics.
  EXPECT_EQ(report->candidate_dir, options.candidate_dir);
  auto loaded = serve::LoadDetectorBundle(options.candidate_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->n_attrs(), 3);
  EXPECT_EQ(loaded->char_fingerprint(), incumbent->char_fingerprint());
  std::filesystem::remove_all(options.candidate_dir);
}

TEST(ControllerTest, RejectsWhenTheGateFailsAndKeepsTheIncumbent) {
  auto session =
      stream::TableSession::Create(MakeTinyShared(), DriftySessionOptions());
  ASSERT_TRUE(session.ok());
  stream::TableSession& s = **session;
  InsertInDistributionRows(&s, 0, 12);
  InduceDriftOnAttr0(&s);
  const int64_t alarms_before = s.stats().drift_alarms;

  ControllerOptions options = FastPromoteOptions();
  options.f1_band = -2.0;  // candidate_f1 - 2 >= incumbent_f1 is impossible
  auto incumbent = MakeTinyShared();
  Controller controller(incumbent, options);
  auto report = controller.TriggerAdaptation(session->get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, AdaptOutcome::kRejected);
  EXPECT_NE(report->reason.find("below incumbent"), std::string::npos);
  EXPECT_EQ(controller.attempts(), 1);
  EXPECT_EQ(controller.rejections(), 1);
  EXPECT_EQ(controller.promotions(), 0);

  // Rejection leaves everything untouched: same incumbent, alarms still
  // latched (the trigger was not consumed), no bundle written.
  EXPECT_EQ(controller.current().get(), incumbent.get());
  EXPECT_EQ(s.stats().drift_alarms, alarms_before);
  EXPECT_EQ(s.stats().drift_resets, 0);
  EXPECT_TRUE(report->candidate_dir.empty());
}

TEST(ControllerTest, ReportsAreDeterministicAcrossIdenticalRuns) {
  auto make_session = [] {
    auto session = stream::TableSession::Create(MakeTinyShared());
    EXPECT_TRUE(session.ok());
    for (int64_t r = 0; r < 10; ++r) {
      EXPECT_TRUE((*session)
                      ->Insert(r, {"abc" + std::to_string(r % 3), "name",
                                   std::to_string(10 + r)})
                      .ok());
    }
    return std::move(*session);
  };
  auto a = make_session();
  auto b = make_session();
  Controller ca(MakeTinyShared(), FastPromoteOptions());
  Controller cb(MakeTinyShared(), FastPromoteOptions());
  auto ra = ca.TriggerAdaptation(a.get());
  auto rb = cb.TriggerAdaptation(b.get());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->outcome, rb->outcome);
  EXPECT_EQ(ra->incumbent_f1, rb->incumbent_f1);  // bit-exact
  EXPECT_EQ(ra->candidate_f1, rb->candidate_f1);
  EXPECT_EQ(ra->train_cells, rb->train_cells);
  EXPECT_EQ(ra->validation_cells, rb->validation_cells);
}

// The fine-tune's bits never depend on its thread count: the same reservoir
// and seed promote byte-identical candidate bundles inline and on a pool,
// both when a minibatch splits into shards and when its one shard hands the
// pool to the value RNN's lanes.
TEST(ControllerTest, CandidateBundleIsIdenticalAcrossTrainThreads) {
  for (const int shard_cells : {8, 128}) {
    std::string bundles[2];
    const int threads[2] = {0, 3};
    for (int k = 0; k < 2; ++k) {
      auto session = stream::TableSession::Create(MakeTinyShared(),
                                                  DriftySessionOptions());
      ASSERT_TRUE(session.ok());
      stream::TableSession& s = **session;
      for (int64_t r = 0; r < 24; ++r) {
        ASSERT_TRUE(s.Insert(r, {"abc" + std::to_string(r % 5),
                                 "name" + std::to_string(r % 7),
                                 std::to_string(10 + r)})
                        .ok());
      }
      InduceDriftOnAttr0(&s);

      ControllerOptions options;
      options.min_reservoir_rows = 2;
      options.fine_tune_epochs = 3;
      options.f1_band = 1.0;
      options.train_threads = threads[k];
      options.trainer.grad_shard_cells = shard_cells;
      options.candidate_dir = TempDir("birnn_adapt_threads_candidate");
      Controller controller(MakeTinyShared(), options);
      auto report = controller.TriggerAdaptation(&s);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_EQ(report->outcome, AdaptOutcome::kPromoted);
      bundles[k] = test::ReadFile(options.candidate_dir + "/weights.ckpt") +
                   test::ReadFile(options.candidate_dir + "/manifest.txt");
      std::filesystem::remove_all(options.candidate_dir);
    }
    EXPECT_FALSE(bundles[0].empty());
    EXPECT_TRUE(bundles[0] == bundles[1])
        << "grad_shard_cells " << shard_cells;
  }
}

TEST(ControllerTest, GateAndFineTuneOraclesSeeDisjointTuples) {
  auto session = stream::TableSession::Create(MakeTinyShared());
  ASSERT_TRUE(session.ok());
  InsertInDistributionRows(session->get(), 0, 12);

  ControllerOptions options = FastPromoteOptions();
  options.drift_boost = 1;  // no replication: train_cells == oracle calls
  auto label_rows = std::make_shared<std::set<int64_t>>();
  auto gate_rows = std::make_shared<std::set<int64_t>>();
  auto label_calls = std::make_shared<int64_t>(0);
  auto gate_calls = std::make_shared<int64_t>(0);
  const LabelFn labels = [=](int64_t row_id, int) {
    label_rows->insert(row_id);
    ++*label_calls;
    return -1;  // defer to the stored verdicts
  };
  const LabelFn gate = [=](int64_t row_id, int) {
    gate_rows->insert(row_id);
    ++*gate_calls;
    return -1;
  };
  Controller controller(MakeTinyShared(), options);
  auto report = controller.TriggerAdaptation(session->get(), labels, gate);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->outcome, AdaptOutcome::kPromoted);

  // The gate oracle judged exactly the validation slice, the fine-tune
  // oracle exactly the training sample, and no tuple fed both.
  EXPECT_EQ(*gate_calls, report->validation_cells);
  EXPECT_EQ(*label_calls, report->train_cells);
  for (const int64_t row : *gate_rows) {
    EXPECT_EQ(label_rows->count(row), 0u) << "tuple " << row << " leaked";
  }
  EXPECT_EQ(static_cast<int64_t>(label_rows->size() + gate_rows->size()),
            report->reservoir_rows);
}

TEST(ControllerTest, ConcurrentDeltasDuringAdaptationAreRaceFree) {
  auto session =
      stream::TableSession::Create(MakeTinyShared(), DriftySessionOptions());
  ASSERT_TRUE(session.ok());
  stream::TableSession& s = **session;
  InsertInDistributionRows(&s, 0, 16);
  InduceDriftOnAttr0(&s);

  std::thread writer([&s] {
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(s.Update(i % 16, 1, "name" + std::to_string(i)).ok());
      (void)s.stats();
    }
  });
  Controller controller(MakeTinyShared(), FastPromoteOptions());
  auto report = controller.TriggerAdaptation(session->get());
  writer.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->outcome, AdaptOutcome::kSkipped);
}

// ------------------------------------------------------ Serve-plane adapt

TEST(ProtocolAdaptTest, ParsesAdaptRequest) {
  auto req = serve::ParseRequest(
      R"({"id":"a1","op":"adapt","model":"m",)"
      R"("labels":[{"row":41,"attr":0,"label":1},{"row":7,"attr":2,"label":0}],)"
      R"("gate_labels":[{"row":3,"attr":1,"label":1}],"bn_only":true})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->op, "adapt");
  ASSERT_EQ(req->labels.size(), 2u);
  EXPECT_EQ(req->labels[0].row_id, 41);
  EXPECT_EQ(req->labels[0].attr, 0);
  EXPECT_EQ(req->labels[0].label, 1);
  EXPECT_TRUE(req->has_gate_labels);
  ASSERT_EQ(req->gate_labels.size(), 1u);
  EXPECT_EQ(req->gate_labels[0].row_id, 3);
  EXPECT_EQ(req->adapt_bn_only, 1);

  // Omitted keys keep server defaults.
  auto bare = serve::ParseRequest(R"({"op":"adapt"})");
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->labels.empty());
  EXPECT_FALSE(bare->has_gate_labels);
  EXPECT_EQ(bare->adapt_bn_only, -1);

  EXPECT_FALSE(
      serve::ParseRequest(R"({"op":"adapt","labels":[{"attr":0}]})").ok());
  EXPECT_FALSE(
      serve::ParseRequest(
          R"({"op":"adapt","labels":[{"row":1,"attr":0,"label":7}]})")
          .ok());
}

TEST(AdaptOverSocketsTest, PromotionBumpsGenerationAndRollbackRestores) {
  const std::string bundle_dir = TempDir("birnn_adapt_serve_bundle");
  ASSERT_TRUE(serve::SaveDetectorBundle(MakeTinyTrained(), bundle_dir).ok());
  serve::ModelRegistry registry;
  {
    auto loaded = serve::MakeLoadedDetector(MakeTinyTrained());
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(registry.Add("tiny", std::move(loaded).value()).ok());
  }
  serve::ServerOptions options;
  options.adapt.min_reservoir_rows = 2;
  options.adapt.bn_only = true;
  options.adapt.f1_band = 1.0;
  options.adapt_bundle_dir = TempDir("birnn_adapt_serve_candidates");
  serve::Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());
  const int fd = ConnectTo(server.port());

  // Adapting before any delta is a typed precondition failure.
  auto early = serve::JsonValue::Parse(RoundTrip(fd, R"({"op":"adapt"})"));
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->GetString("status"), "FAILED_PRECONDITION");

  for (int r = 0; r < 8; ++r) {
    auto d = serve::JsonValue::Parse(RoundTrip(
        fd, R"({"op":"delta","deltas":[{"kind":"insert","row":)" +
                std::to_string(r) + R"(,"values":["abc","name","12"]}]})"));
    ASSERT_TRUE(d.ok());
    ASSERT_EQ(d->GetString("status"), "OK");
  }
  const std::string detect_request =
      R"({"id":"q","op":"detect","cells":[{"attr":0,"value":"abc"},)"
      R"({"attr":1,"value":"name"}]})";
  const std::string before = RoundTrip(fd, detect_request);

  auto adapted =
      serve::JsonValue::Parse(RoundTrip(fd, R"({"id":"a","op":"adapt"})"));
  ASSERT_TRUE(adapted.ok()) << adapted.status().ToString();
  ASSERT_EQ(adapted->GetString("status"), "OK");
  EXPECT_EQ(adapted->GetString("outcome"), "promoted");
  ASSERT_NE(adapted->Find("promoted"), nullptr);
  EXPECT_TRUE(adapted->Find("promoted")->as_bool());
  ASSERT_NE(adapted->Find("generation"), nullptr);
  EXPECT_EQ(adapted->Find("generation")->as_number(), 2.0);
  ASSERT_NE(adapted->Find("deterministic_eval"), nullptr);
  EXPECT_TRUE(adapted->Find("deterministic_eval")->as_bool());

  // Lineage counters surface in stats; the swapped-in model starts with a
  // fresh (absent) table session.
  auto stats =
      serve::JsonValue::Parse(RoundTrip(fd, R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok());
  ASSERT_NE(stats->Find("adapt_attempts"), nullptr);
  EXPECT_EQ(stats->Find("adapt_attempts")->as_number(), 1.0);
  EXPECT_EQ(stats->Find("adapt_promotions")->as_number(), 1.0);
  EXPECT_EQ(stats->Find("adapt_rejections")->as_number(), 0.0);
  EXPECT_EQ(stats->Find("generation")->as_number(), 2.0);
  EXPECT_EQ(stats->Find("stream_rows"), nullptr);

  // Detection keeps working on the adapted generation, and rollback
  // restores the incumbent's serving byte for byte.
  const std::string after = RoundTrip(fd, detect_request);
  EXPECT_FALSE(after.empty());
  auto rolled =
      serve::JsonValue::Parse(RoundTrip(fd, R"({"op":"rollback"})"));
  ASSERT_TRUE(rolled.ok());
  ASSERT_EQ(rolled->GetString("status"), "OK");
  EXPECT_EQ(RoundTrip(fd, detect_request), before);

  ::close(fd);
  server.Shutdown();
  std::filesystem::remove_all(bundle_dir);
  std::filesystem::remove_all(options.adapt_bundle_dir);
}

TEST(ServeAdaptTest, TooSmallReservoirReportsSkippedWithoutLineage) {
  serve::ModelRegistry registry;
  {
    auto loaded = serve::MakeLoadedDetector(MakeTinyTrained());
    ASSERT_TRUE(loaded.ok());
    ASSERT_TRUE(registry.Add("tiny", std::move(loaded).value()).ok());
  }
  serve::Server server(&registry);  // default min_reservoir_rows = 16
  ASSERT_TRUE(server.Start().ok());
  const int fd = ConnectTo(server.port());
  for (int r = 0; r < 2; ++r) {
    RoundTrip(fd, R"({"op":"delta","deltas":[{"kind":"insert","row":)" +
                      std::to_string(r) +
                      R"(,"values":["abc","name","12"]}]})");
  }
  auto response =
      serve::JsonValue::Parse(RoundTrip(fd, R"({"op":"adapt"})"));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->GetString("status"), "OK");
  EXPECT_EQ(response->GetString("outcome"), "skipped");
  EXPECT_FALSE(response->Find("promoted")->as_bool());
  EXPECT_EQ(response->Find("generation")->as_number(), 1.0);
  auto stats = serve::JsonValue::Parse(RoundTrip(fd, R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("adapt_attempts")->as_number(), 0.0);
  ::close(fd);
  server.Shutdown();
}

// ------------------------------------------------------------------- C API

TEST(CApiAdaptTest, RoundTripFromPlainC) {
  const std::string bundle_dir = TempDir("birnn_adapt_capi_bundle");
  const std::string candidate_dir = TempDir("birnn_adapt_capi_candidate");
  ASSERT_TRUE(serve::SaveDetectorBundle(MakeTinyTrained(), bundle_dir).ok());
  EXPECT_EQ(birnn_capi_adapt_smoke(bundle_dir.c_str(), candidate_dir.c_str()),
            0);
  // The C-driven promotion saved a loadable candidate bundle.
  auto loaded = serve::LoadDetectorBundle(candidate_dir);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::filesystem::remove_all(bundle_dir);
  std::filesystem::remove_all(candidate_dir);
}

}  // namespace
}  // namespace birnn::adapt
