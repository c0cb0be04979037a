// The cross-path differential oracle. A cell's verdict is a pure function of
// its content (its characters, its attribute and its length), so every path
// that answers for a cell must return the same bits. For each paper
// generator this suite trains one small detector, takes the naive sweep
// (MakeBatch + the scratch-free model forward, every cell padded to
// max_len) as the reference, and requires bit-equal p_error — and is_error
// equal to the offline DetectionReport — from:
//   - ErrorDetector::Run at default and at reference options (with
//     byte-identical bundles);
//   - InferenceEngine over memoize x plan x lanes x eval_batch;
//   - a saved and reloaded bundle behind a MicroBatcher, and behind a
//     reactor Server over a socket;
//   - a TableSession replay plus a seeded churn, with the default memo and
//     with an evicting one;
//   - a C-ABI session on the same bundle.
// Beers and tax also run at ModelConfig's default (paper) widths. A second
// case reuses one engine and one session across sweeps of changing shape,
// so that stale scratch would show.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "birnn_c.h"
#include "core/detector.h"
#include "core/inference.h"
#include "data/dictionary.h"
#include "data/encoding.h"
#include "data/prepare.h"
#include "datagen/datasets.h"
#include "obs/registry.h"
#include "serve/batcher.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "stream/session.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace birnn {
namespace {

/// Small widths for a fast training run: ETSB-RNN, 10 labelled tuples,
/// 12 units, 8-wide character embeddings, 6 epochs, seed 11. Everything
/// else is DetectorOptions' default.
core::DetectorOptions SmallDetectorOptions() {
  core::DetectorOptions options;
  options.model = "etsb";
  options.n_label_tuples = 10;
  options.units = 12;
  options.char_emb_dim = 8;
  options.trainer.epochs = 6;
  options.seed = 11;
  return options;
}

/// One paper generator's table and a detector trained on it.
struct TrainedTable {
  datagen::DatasetPair pair;
  core::DetectionReport report;
  core::TrainedDetector trained;
  /// The dirty table prepared and encoded as ErrorDetector::Run encodes it.
  data::EncodedDataset encoded;
};

/// Generates `name` at `scale`/`seed`, runs ErrorDetector with `options`
/// and re-encodes the table the way the run did. A fatal failure on any
/// error (wrap the call in ASSERT_NO_FATAL_FAILURE).
void TrainOnGenerator(const std::string& name, double scale, uint64_t seed,
                      const core::DetectorOptions& options, TrainedTable* out) {
  datagen::GenOptions gen;
  gen.scale = scale;
  gen.seed = seed;
  auto pair = datagen::MakeDataset(name, gen);
  ASSERT_TRUE(pair.ok()) << name << ": " << pair.status().ToString();
  out->pair = std::move(pair).value();
  auto report = core::ErrorDetector(options).Run(
      out->pair.dirty, out->pair.clean, &out->trained);
  ASSERT_TRUE(report.ok()) << name << ": " << report.status().ToString();
  out->report = std::move(report).value();
  auto frame =
      data::PrepareData(out->pair.dirty, out->pair.clean, options.prepare);
  ASSERT_TRUE(frame.ok()) << name << ": " << frame.status().ToString();
  const data::CharIndex chars = data::CharIndex::Build(*frame);
  ASSERT_EQ(chars.Fingerprint(), out->trained.chars.Fingerprint()) << name;
  out->encoded = data::EncodeCells(*frame, chars);
}

/// The naive sweep: MakeBatch and the scratch-free model forward over
/// consecutive 256-cell chunks of every cell, each padded to max_len — no
/// memo, no plan, no scratch, no engine. Every path must equal it bit for
/// bit. The chunks are dealt round-robin to 4 std::threads; a chunk's bits
/// do not depend on the thread that runs it. On one thread the sweep of
/// tax's 240,000 cells takes 1.3 s and the suite 9.7-10.7 s, against
/// 7.5-8.7 s on four and 8.8 s for the pairwise tests the suite replaced
/// (Release, native, shared 4-vCPU VM). The reference must stay on the
/// model's no-context path — embedding lookups and the level-0 GEMM over
/// max_len steps — which no engine sweep takes: every sorted-plan batch
/// gathers its level-0 projections from the context's tables instead.
std::vector<float> NaiveSweep(const core::ErrorDetectionModel& model,
                              const data::EncodedDataset& ds) {
  constexpr int64_t kChunk = 256;
  constexpr int kThreads = 4;
  const int64_t n = ds.num_cells();
  std::vector<float> out(static_cast<size_t>(n));
  const auto sweep = [&](int lane) {
    std::vector<int64_t> ids;
    std::vector<float> probs;
    for (int64_t begin = lane * kChunk; begin < n;
         begin += kThreads * kChunk) {
      ids.clear();
      for (int64_t i = begin; i < std::min(begin + kChunk, n); ++i) {
        ids.push_back(i);
      }
      model.PredictProbs(core::MakeBatch(ds, ids), &probs);
      std::copy(probs.begin(), probs.end(),
                out.begin() + static_cast<std::ptrdiff_t>(begin));
    }
  };
  std::vector<std::thread> lanes;
  for (int lane = 0; lane < kThreads; ++lane) lanes.emplace_back(sweep, lane);
  for (std::thread& t : lanes) t.join();
  return out;
}

/// The number of distinct model inputs (attribute id, length_norm bits,
/// character ids) among `cells` — what an exact memo predicts once each.
int64_t DistinctContents(const data::EncodedDataset& ds,
                         const std::vector<int64_t>& cells) {
  std::set<std::tuple<int32_t, uint32_t, std::vector<int32_t>>> seen;
  for (const int64_t c : cells) {
    const auto seq =
        ds.seqs.begin() + static_cast<std::ptrdiff_t>(c) * ds.max_len;
    const size_t k = static_cast<size_t>(c);
    seen.emplace(ds.attrs[k], std::bit_cast<uint32_t>(ds.length_norm[k]),
                 std::vector<int32_t>(seq, seq + ds.max_len));
  }
  return static_cast<int64_t>(seen.size());
}

/// Every file of a directory, by file name.
std::map<std::string, std::string> ReadDirFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] =
        test::ReadFile(entry.path().string());
  }
  return files;
}

/// The first position where `got` differs from `want` in bits (or in
/// length), or -1 when every value is the same float.
int64_t FirstBitMismatch(const std::vector<float>& want,
                         const std::vector<float>& got) {
  if (want.size() != got.size()) return static_cast<int64_t>(got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<uint32_t>(want[i]) != std::bit_cast<uint32_t>(got[i])) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

/// Rows the batcher, socket and C-ABI arms ask about: the top of the table.
/// Their per-cell work (encoding, transport, marshalling) does not change
/// with the table's size; the session replay covers every row.
constexpr int kServedRows = 500;
/// Cells per detect request on the batcher and socket arms: at least the
/// batcher's max_batch, so a request dispatches without waiting its window.
constexpr int kRequestCells = 256;
/// Cells the engine grid sweeps: the table's first cells.
constexpr int64_t kGridCells = 192;
/// Rows the evicting-memo session replays before its churn.
constexpr int kEvictingRows = 64;
/// Seeded churn deltas after each replay.
constexpr int kChurn = 400;

struct OracleCase {
  const char* name;
  double scale;
  uint64_t seed;
  bool paper_widths;
};

std::string CaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  return info.param.name;
}

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.name << (c.paper_widths ? " at paper widths" : "");
}

class OracleTest : public ::testing::TestWithParam<OracleCase> {
 protected:
  void SetUp() override {
    const OracleCase& c = GetParam();
    options_ = SmallDetectorOptions();
    if (c.paper_widths) {
      options_ = core::DetectorOptions{};  // ModelConfig's default widths
      options_.trainer.epochs = 3;
      options_.seed = c.seed;
    }
    ASSERT_NO_FATAL_FAILURE(
        TrainOnGenerator(c.name, c.scale, c.seed, options_, &t_));
    n_attrs_ = t_.pair.dirty.num_columns();
    n_rows_ = static_cast<int>(t_.pair.dirty.num_rows());
    served_rows_ = std::min(n_rows_, kServedRows);
    naive_ = NaiveSweep(*t_.trained.model, t_.encoded);
    ASSERT_EQ(naive_.size(), t_.report.predicted.size());
    bundle_dir_ = test::TempDir(std::string("birnn_oracle_") + c.name);
    ASSERT_TRUE(serve::SaveDetectorBundle(t_.trained, bundle_dir_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(bundle_dir_); }

  /// Whether a path's verdict for cell `i` is the reference's: the naive
  /// sweep's p_error bits and the offline report's is_error.
  ::testing::AssertionResult IsReference(int64_t i, float p_error,
                                         bool is_error) const {
    const size_t k = static_cast<size_t>(i);
    if (std::bit_cast<uint32_t>(p_error) !=
        std::bit_cast<uint32_t>(naive_[k])) {
      return ::testing::AssertionFailure()
             << "p_error of cell " << i << " is " << p_error
             << ", the naive sweep's " << naive_[k];
    }
    if (is_error != (t_.report.predicted[k] != 0)) {
      return ::testing::AssertionFailure() << "is_error of cell " << i;
    }
    return ::testing::AssertionSuccess();
  }

  /// The cell queries of rows [first, first + count).
  std::vector<serve::CellQuery> RowQueries(int first, int count) const {
    std::vector<serve::CellQuery> queries;
    for (int r = first; r < first + count; ++r) {
      for (int a = 0; a < n_attrs_; ++a) {
        serve::CellQuery q;
        q.attr = a;
        q.value = t_.pair.dirty.cell(r, a);
        queries.push_back(std::move(q));
      }
    }
    return queries;
  }

  /// Rows per detect request.
  int RequestRows() const { return std::max(1, kRequestCells / n_attrs_); }

  void CheckOfflineRuns();
  void CheckEngineGrid();
  void CheckBatcher(const serve::LoadedDetector& loaded);
  void CheckSocket();
  void CheckCApi();
  void ReplayAndChurn(
      const std::shared_ptr<const serve::LoadedDetector>& shared,
      const stream::SessionOptions& options, int rows,
      std::unique_ptr<stream::TableSession>* out);
  void CheckDriftLatchesOnOneAttr(
      const std::shared_ptr<const serve::LoadedDetector>& shared,
      stream::TableSession* s);

  core::DetectorOptions options_;
  TrainedTable t_;
  int n_attrs_ = 0;
  int n_rows_ = 0;
  int served_rows_ = 0;
  std::vector<float> naive_;
  std::string bundle_dir_;
};

// The report thresholds the reference; the reference-option run (dense
// sweep on the calling thread) reports and bundles the same bytes.
void OracleTest::CheckOfflineRuns() {
  for (size_t i = 0; i < naive_.size(); ++i) {
    ASSERT_EQ(naive_[i] > 0.5f, t_.report.predicted[i] != 0)
        << "offline report, cell " << i;
  }
  ASSERT_GT(options_.eval_threads, 1);
  ASSERT_TRUE(options_.bucketed_inference);
  core::DetectorOptions reference = options_;
  reference.eval_threads = 0;
  reference.bucketed_inference = false;
  core::TrainedDetector ref_trained;
  auto ref = core::ErrorDetector(reference)
                 .Run(t_.pair.dirty, t_.pair.clean, &ref_trained);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->predicted, t_.report.predicted);
  EXPECT_EQ(ref->train_cells, t_.report.train_cells);
  EXPECT_EQ(ref->test_cells, t_.report.test_cells);
  EXPECT_EQ(t_.report.test_cells, t_.report.test_confusion.total());
  EXPECT_EQ(ref->test_confusion.tp, t_.report.test_confusion.tp);
  EXPECT_EQ(ref->test_confusion.fp, t_.report.test_confusion.fp);
  EXPECT_EQ(ref->test_confusion.fn, t_.report.test_confusion.fn);
  EXPECT_EQ(ref->test_confusion.tn, t_.report.test_confusion.tn);
  // The default sweep really skipped pad steps.
  EXPECT_LT(t_.report.inference.rnn_steps, ref->inference.rnn_steps);

  const std::string ref_dir = bundle_dir_ + "_reference";
  ASSERT_TRUE(serve::SaveDetectorBundle(ref_trained, ref_dir).ok());
  const auto bundle = ReadDirFiles(bundle_dir_);
  EXPECT_FALSE(bundle.empty());
  EXPECT_TRUE(bundle == ReadDirFiles(ref_dir))
      << "the reference run's bundle differs from the default run's";
  std::filesystem::remove_all(ref_dir);
}

// Three whole-table sweeps (the default length-sorted plan inline and on
// four lanes, and the dense plan inline), then every combination of
// memoize, plan, lanes and eval_batch over the table's first cells.
void OracleTest::CheckEngineGrid() {
  const core::ErrorDetectionModel& model = *t_.trained.model;
  const data::EncodedDataset& ds = t_.encoded;
  std::vector<int64_t> all(static_cast<size_t>(ds.num_cells()));
  for (int64_t c = 0; c < ds.num_cells(); ++c) all[static_cast<size_t>(c)] = c;
  // The memo must predict each distinct content exactly once; the table
  // repeats contents, so a memo that misses duplicates shows.
  const int64_t distinct_all = DistinctContents(ds, all);
  ASSERT_LT(distinct_all, ds.num_cells());
  struct Whole {
    bool sorted;
    int threads;
  };
  for (const Whole whole : {Whole{true, 0}, Whole{true, 4}, Whole{false, 0}}) {
    core::InferenceOptions options;
    options.bucketed = whole.sorted;
    options.threads = whole.threads;
    core::InferenceEngine engine(model, options);
    std::vector<float> got;
    engine.PredictProbs(ds, {}, &got);
    EXPECT_EQ(FirstBitMismatch(naive_, got), -1)
        << "whole table, sorted " << whole.sorted << " threads "
        << whole.threads;
    EXPECT_EQ(engine.stats().unique_cells, distinct_all)
        << "whole table, sorted " << whole.sorted << " threads "
        << whole.threads;
    if (whole.sorted) {
      // The plan cuts by count alone: every batch but the last is full.
      const int64_t unique = engine.stats().unique_cells;
      EXPECT_EQ(engine.stats().batches,
                (unique + options.eval_batch - 1) / options.eval_batch);
    }
  }

  std::vector<int64_t> cells;
  for (int64_t c = 0; c < std::min<int64_t>(kGridCells, ds.num_cells());
       ++c) {
    cells.push_back(c);
  }
  std::vector<float> want;
  for (const int64_t c : cells) want.push_back(naive_[static_cast<size_t>(c)]);
  const int64_t distinct = DistinctContents(ds, cells);
  ASSERT_LT(distinct, static_cast<int64_t>(cells.size()));

  // threads > 0 without a pool, or an external pool of `pool` workers.
  struct Lanes {
    int threads;
    int pool;
  };
  const Lanes kLanes[] = {{0, -1}, {1, -1}, {4, -1}, {64, -1}, {0, 0}, {0, 3}};
  for (const bool memoize : {true, false}) {
    for (const bool sorted : {true, false}) {
      for (const Lanes lanes : kLanes) {
        for (const int eval_batch : {7, 256}) {
          core::InferenceOptions options;
          options.memoize = memoize;
          options.bucketed = sorted;
          options.threads = lanes.threads;
          options.eval_batch = eval_batch;
          std::unique_ptr<ThreadPool> pool;
          if (lanes.pool >= 0) pool = std::make_unique<ThreadPool>(lanes.pool);
          core::InferenceEngine engine(model, options, pool.get());
          std::vector<float> got;
          engine.PredictProbs(ds, cells, &got);
          const std::string arm =
              "memo " + std::to_string(memoize) + " sorted " +
              std::to_string(sorted) + " threads " +
              std::to_string(lanes.threads) + " pool " +
              std::to_string(lanes.pool) + " eval_batch " +
              std::to_string(eval_batch);
          ASSERT_EQ(FirstBitMismatch(want, got), -1) << arm;
          const core::InferenceStats& stats = engine.stats();
          EXPECT_EQ(stats.unique_cells, memoize ? distinct : stats.cells)
              << arm;
          if (sorted && eval_batch == 7) {
            EXPECT_LT(stats.rnn_steps, stats.rnn_steps_dense) << arm;
          }
        }
      }
    }
  }
}

void OracleTest::CheckBatcher(const serve::LoadedDetector& loaded) {
  serve::MicroBatcher batcher(loaded);
  const int step = RequestRows();
  for (int r = 0; r < served_rows_; r += step) {
    const int rows = std::min(step, served_rows_ - r);
    std::vector<serve::CellVerdict> verdicts;
    ASSERT_TRUE(test::Detect(&batcher, RowQueries(r, rows), &verdicts).ok());
    ASSERT_EQ(verdicts.size(), static_cast<size_t>(rows * n_attrs_));
    for (size_t k = 0; k < verdicts.size(); ++k) {
      ASSERT_TRUE(IsReference(static_cast<int64_t>(r) * n_attrs_ +
                                  static_cast<int64_t>(k),
                              verdicts[k].p_error, verdicts[k].is_error));
    }
  }
}

void OracleTest::CheckSocket() {
  auto loaded = serve::LoadDetectorBundle(bundle_dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Add("oracle", std::move(loaded).value()).ok());
  serve::Server server(&registry);
  ASSERT_TRUE(server.Start().ok());
  const int fd = test::ConnectTo(server.port());
  const int step = RequestRows();
  for (int r = 0; r < served_rows_; r += step) {
    const int rows = std::min(step, served_rows_ - r);
    std::string line = R"({"id":"r)" + std::to_string(r) + R"(","cells":[)";
    for (const serve::CellQuery& q : RowQueries(r, rows)) {
      if (line.back() != '[') line.push_back(',');
      line += R"({"attr":)" + std::to_string(q.attr) + R"(,"value":)";
      serve::AppendJsonString(q.value, &line);
      line.push_back('}');
    }
    line += "]}";
    const std::string got = test::RoundTrip(fd, line);
    auto response = serve::JsonValue::Parse(got);
    ASSERT_TRUE(response.ok()) << "rows from " << r << ": '" << got << "'";
    ASSERT_EQ(response->GetString("status"), "OK") << got;
    const serve::JsonValue* results = response->Find("results");
    ASSERT_NE(results, nullptr) << got;
    ASSERT_EQ(results->items().size(), static_cast<size_t>(rows * n_attrs_));
    for (size_t k = 0; k < results->items().size(); ++k) {
      const serve::JsonValue& v = results->items()[k];
      const serve::JsonValue* p = v.Find("p_error");
      const serve::JsonValue* e = v.Find("error");
      ASSERT_TRUE(p != nullptr && e != nullptr) << got;
      ASSERT_TRUE(IsReference(
          static_cast<int64_t>(r) * n_attrs_ + static_cast<int64_t>(k),
          static_cast<float>(p->as_number()), e->as_bool()));
    }
  }
  ::close(fd);
  server.Shutdown();
}

void OracleTest::CheckCApi() {
  birnn_detector* detector = nullptr;
  ASSERT_EQ(birnn_detector_load(bundle_dir_.c_str(), &detector), BIRNN_OK)
      << birnn_last_error();
  ASSERT_EQ(birnn_detector_n_attrs(detector), n_attrs_);
  birnn_session* session = nullptr;
  ASSERT_EQ(birnn_session_create(detector, &session), BIRNN_OK)
      << birnn_last_error();
  std::vector<const char*> values(static_cast<size_t>(n_attrs_));
  for (int r = 0; r < served_rows_; ++r) {
    for (int a = 0; a < n_attrs_; ++a) {
      values[static_cast<size_t>(a)] = t_.pair.dirty.cell(r, a).c_str();
    }
    ASSERT_EQ(birnn_session_insert(session, r, values.data(), n_attrs_),
              BIRNN_OK)
        << birnn_last_error();
  }
  for (int r = 0; r < served_rows_; ++r) {
    for (int a = 0; a < n_attrs_; ++a) {
      birnn_verdict v{};
      ASSERT_EQ(birnn_session_verdict(session, r, a, &v), BIRNN_OK);
      ASSERT_TRUE(IsReference(static_cast<int64_t>(r) * n_attrs_ + a,
                              v.p_error, v.is_error != 0));
    }
  }
  birnn_session_free(session);
  birnn_detector_free(detector);
}

// The attribute of each latched max-length or OOV alarm.
std::vector<int> LengthAndOovAlarmAttrs(const stream::TableSession& s) {
  std::vector<int> attrs;
  for (const stream::DriftAlarm& alarm : s.drift_alarms()) {
    if (alarm.kind == stream::DriftKind::kMaxLen ||
        alarm.kind == stream::DriftKind::kOovRate) {
      attrs.push_back(alarm.attr);
    }
  }
  return attrs;
}

// Replays rows [0, rows) as inserts (each stored verdict must be the
// reference's), then churns: 80% updates on Zipf(1.1)-hot rows (rank 0 is
// an arbitrary row), 20% inserts of fresh tuples, every value resampled
// from its column; then deletes the inserted tuples again. The incremental
// verdicts must still equal a whole-table re-detection, and
// in-distribution values raise no length or OOV alarm.
void OracleTest::ReplayAndChurn(
    const std::shared_ptr<const serve::LoadedDetector>& shared,
    const stream::SessionOptions& options, int rows,
    std::unique_ptr<stream::TableSession>* out) {
  auto created = stream::TableSession::Create(shared, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  *out = std::move(created).value();
  stream::TableSession& s = **out;
  const data::Table& dirty = t_.pair.dirty;
  for (int r = 0; r < rows; ++r) {
    std::vector<std::string> tuple;
    for (int a = 0; a < n_attrs_; ++a) tuple.push_back(dirty.cell(r, a));
    ASSERT_TRUE(s.Insert(r, std::move(tuple)).ok());
  }
  for (int r = 0; r < rows; ++r) {
    for (int a = 0; a < n_attrs_; ++a) {
      auto v = s.GetVerdict(r, a);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      ASSERT_TRUE(IsReference(static_cast<int64_t>(r) * n_attrs_ + a,
                              v->p_error, v->is_error));
    }
  }

  Rng rng(17);
  std::vector<int64_t> live(static_cast<size_t>(rows));
  for (int r = 0; r < rows; ++r) live[static_cast<size_t>(r)] = r;
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
    return dirty.cell(
        static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n_rows_))),
        attr);
  };
  for (int i = 0; i < kChurn; ++i) {
    if (rng.Bernoulli(0.8)) {
      const int attr =
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n_attrs_)));
      ASSERT_TRUE(s.Update(hot_row(), attr, resample(attr)).ok());
    } else {
      std::vector<std::string> tuple;
      for (int a = 0; a < n_attrs_; ++a) tuple.push_back(resample(a));
      live.push_back(n_rows_ + i);
      ASSERT_TRUE(s.Insert(live.back(), std::move(tuple)).ok());
    }
  }
  for (const int64_t row : live) {
    if (row >= n_rows_) {
      ASSERT_TRUE(s.Delete(row).ok());
    }
  }
  auto batch = s.DetectAll();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(s.MaterializedVerdicts(), *batch)
      << "incremental verdicts after the churn differ from a whole-table "
         "re-detection";
  EXPECT_TRUE(LengthAndOovAlarmAttrs(s).empty());
}

// Drift: the shortest-valued attribute (so that twice its frozen maximum
// survives the preparation-time truncation) receives values of that length
// made of characters the dictionary has never indexed; exactly its
// max-length and OOV alarms must latch.
void OracleTest::CheckDriftLatchesOnOneAttr(
    const std::shared_ptr<const serve::LoadedDetector>& shared,
    stream::TableSession* s) {
  const std::vector<int32_t>& max_len = shared->attr_max_value_len();
  int polluted = -1;
  for (int a = 0; a < n_attrs_; ++a) {
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
    ASSERT_TRUE(s->Update(i % n_rows_, polluted, junk).ok());
  }
  EXPECT_EQ(LengthAndOovAlarmAttrs(*s),
            std::vector<int>({polluted, polluted}));
}

int64_t MemoEvictionsCounter() {
  for (const obs::MetricSnapshot& m : obs::Registry::Get().Snapshot()) {
    if (m.name == "inference/memo_evictions") return m.counter;
  }
  return 0;
}

TEST_P(OracleTest, EveryPathReturnsTheNaiveSweepsBits) {
  ASSERT_NO_FATAL_FAILURE(CheckOfflineRuns());
  ASSERT_NO_FATAL_FAILURE(CheckEngineGrid());
  auto loaded = serve::LoadDetectorBundle(bundle_dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NO_FATAL_FAILURE(CheckBatcher(*loaded));
  ASSERT_NO_FATAL_FAILURE(CheckSocket());
  ASSERT_NO_FATAL_FAILURE(CheckCApi());
  const auto shared =
      std::make_shared<const serve::LoadedDetector>(std::move(loaded).value());

  stream::SessionOptions options;
  // Arm drift detection on these small tables.
  options.drift.min_cells = std::min(128, n_rows_);
  std::unique_ptr<stream::TableSession> session;
  ASSERT_NO_FATAL_FAILURE(ReplayAndChurn(shared, options, n_rows_, &session));
  if (std::string(GetParam().name) == "beers" && !GetParam().paper_widths) {
    ASSERT_NO_FATAL_FAILURE(CheckDriftLatchesOnOneAttr(shared, session.get()));
  }

  stream::SessionOptions evicting;
  evicting.memo.capacity = 16;
  const int64_t evictions_before = MemoEvictionsCounter();
  ASSERT_NO_FATAL_FAILURE(ReplayAndChurn(
      shared, evicting, std::min(kEvictingRows, n_rows_), &session));
  EXPECT_GT(MemoEvictionsCounter(), evictions_before)
      << "the bounded memo never evicted";
}

// The engine-parity data: every generator at scale 0.08, seed 7.
INSTANTIATE_TEST_SUITE_P(
    Generators, OracleTest,
    ::testing::Values(OracleCase{"beers", 0.08, 7, false},
                      OracleCase{"flights", 0.08, 7, false},
                      OracleCase{"hospital", 0.08, 7, false},
                      OracleCase{"movies", 0.08, 7, false},
                      OracleCase{"rayyan", 0.08, 7, false},
                      OracleCase{"tax", 0.08, 7, false}),
    CaseName);

// ModelConfig's default widths (char_emb_dim 32, two stacked BiRNNs of 64
// units) on 482 beers rows and 300 tax rows.
INSTANTIATE_TEST_SUITE_P(
    PaperWidths, OracleTest,
    ::testing::Values(OracleCase{"beers", 0.2, 1000, true},
                      OracleCase{"tax", 300.0 / 200000, 1000, true}),
    CaseName);

// Stale scratch: one long-lived engine and one session run sweeps whose
// shape keeps changing, so every lane's kept buffers, the plan and the miss
// buffers hold what an earlier, larger or longer sweep left in them. Every
// result must still be the naive sweep's bits.
class StaleScratchTest : public OracleTest {
 protected:
  /// Up to `count` cells with pairwise distinct contents, taken in order
  /// from `from` on and wrapping around the table.
  std::vector<int64_t> DistinctCells(int64_t from, int64_t count) const {
    const data::EncodedDataset& ds = t_.encoded;
    std::set<uint64_t> hashes;
    std::vector<int64_t> cells;
    for (int64_t k = 0; k < ds.num_cells() &&
                        static_cast<int64_t>(cells.size()) < count;
         ++k) {
      const int64_t c = (from + k) % ds.num_cells();
      bool fresh = hashes.insert(ds.CellContentHash(c)).second;
      for (const int64_t d : cells) {
        fresh = fresh && !ds.CellContentEquals(c, d);
      }
      if (fresh) cells.push_back(c);
    }
    return cells;
  }

  /// Sweeps `cells` on `engine` and requires the naive bits and `batches`
  /// forward batches.
  void ExpectSweep(core::InferenceEngine* engine,
                   const std::vector<int64_t>& cells, int64_t batches,
                   const std::string& what) {
    std::vector<float> got;
    engine->PredictProbs(t_.encoded, cells, &got);
    std::vector<float> want;
    for (const int64_t c : cells) {
      want.push_back(naive_[static_cast<size_t>(c)]);
    }
    EXPECT_EQ(FirstBitMismatch(want, got), -1) << what;
    EXPECT_EQ(engine->stats().batches, batches) << what;
  }

  void CheckEngine();
  void CheckSessionMisses();
};

// With 64-cell batches and a pool of 3 workers, a sweep of more than one
// batch runs on four lanes and a one-batch sweep runs inline on lane 0.
void StaleScratchTest::CheckEngine() {
  const data::EncodedDataset& ds = t_.encoded;
  ThreadPool pool(3);
  core::InferenceOptions options;
  options.eval_batch = 64;
  core::InferenceEngine engine(*t_.trained.model, options, &pool);

  // Cells by effective length; full-length cells run the model's dense
  // path (no pad prefix to warm-start from).
  std::vector<int64_t> full;
  int64_t shortest = 0;
  int64_t longest = 0;
  for (int64_t c = 0; c < ds.num_cells(); ++c) {
    const int len = ds.effective_len(c);
    if (len == ds.max_len && full.size() < 256) full.push_back(c);
    if (len < ds.effective_len(shortest)) shortest = c;
    if (len > ds.effective_len(longest)) longest = c;
  }
  ASSERT_FALSE(full.empty());
  int64_t middle = 0;
  const int half = (ds.effective_len(longest) + 1) / 2;
  while (middle + 1 < ds.num_cells() && ds.effective_len(middle) < half) {
    ++middle;
  }
  const std::vector<int64_t> head = DistinctCells(0, 256);
  const std::vector<int64_t> tail = DistinctCells(ds.num_cells() / 2, 256);
  ASSERT_EQ(head.size(), 256u);
  ASSERT_EQ(tail.size(), 256u);

  ExpectSweep(&engine, head, 4, "256 cells, length-sorted, 4 lanes");
  const int64_t full_unique = DistinctContents(ds, full);
  ExpectSweep(&engine, full, (full_unique + 63) / 64,
              "full-length cells, dense path");
  ExpectSweep(&engine, {shortest}, 1, "1 cell");
  ExpectSweep(&engine, {middle, longest, shortest}, 1, "3 cells");
  ExpectSweep(&engine, tail, 4, "256 other cells, 4 lanes");
  ExpectSweep(&engine, DistinctCells(ds.num_cells() / 3, 40), 1,
              "40 cells inline");
}

// A fresh session whose deltas alternate between the longest and the
// shortest values not yet streamed: one-cell update misses of changing
// length, with an insert of a whole tuple (a multi-cell miss batch) every
// eighth delta. A value from cell (r, a) streamed into attribute a has the
// content of that cell, so its verdict is that cell's reference.
void StaleScratchTest::CheckSessionMisses() {
  auto loaded = serve::LoadDetectorBundle(bundle_dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto created = stream::TableSession::Create(
      std::make_shared<const serve::LoadedDetector>(std::move(loaded).value()),
      stream::SessionOptions{});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  stream::TableSession& s = **created;
  const data::Table& dirty = t_.pair.dirty;
  const data::EncodedDataset& ds = t_.encoded;

  const int rows = std::min(n_rows_, 64);
  std::vector<int64_t> by_len;
  for (int64_t c = 0; c < static_cast<int64_t>(rows) * n_attrs_; ++c) {
    by_len.push_back(c);
  }
  std::stable_sort(by_len.begin(), by_len.end(), [&](int64_t a, int64_t b) {
    return ds.effective_len(a) < ds.effective_len(b);
  });
  std::vector<int64_t> order;
  for (size_t lo = 0, hi = by_len.size(); lo < hi;) {
    order.push_back(by_len[--hi]);
    if (lo < hi) order.push_back(by_len[lo++]);
  }

  std::vector<std::string> tuple;
  for (int a = 0; a < n_attrs_; ++a) tuple.push_back(dirty.cell(0, a));
  ASSERT_TRUE(s.Insert(0, tuple).ok());
  std::vector<std::pair<int, stream::CellVerdict>> affected;
  for (size_t k = 0; k < order.size(); ++k) {
    const int r = static_cast<int>(order[k] / n_attrs_);
    const int a = static_cast<int>(order[k] % n_attrs_);
    affected.clear();
    if (k % 8 == 7) {
      tuple.clear();
      for (int b = 0; b < n_attrs_; ++b) tuple.push_back(dirty.cell(r, b));
      ASSERT_TRUE(s.Insert(n_rows_ + static_cast<int64_t>(k), tuple,
                           &affected)
                      .ok());
      ASSERT_EQ(affected.size(), static_cast<size_t>(n_attrs_));
      for (const auto& [b, v] : affected) {
        ASSERT_TRUE(IsReference(static_cast<int64_t>(r) * n_attrs_ + b,
                                v.p_error, v.is_error))
            << "insert of row " << r << ", delta " << k;
      }
    } else {
      ASSERT_TRUE(s.Update(0, a, dirty.cell(r, a), &affected).ok());
      ASSERT_EQ(affected.size(), 1u);
      ASSERT_TRUE(IsReference(order[k], affected[0].second.p_error,
                              affected[0].second.is_error))
          << "update from cell " << order[k] << ", delta " << k;
    }
  }
  const stream::SessionStats stats = s.stats();
  EXPECT_GT(stats.cells_scored - stats.memo_hits,
            static_cast<int64_t>(order.size()) / 4)
      << "too few of the deltas were memo misses";
}

TEST_P(StaleScratchTest, ReusedEngineAndSessionReturnTheNaiveSweepsBits) {
  ASSERT_NO_FATAL_FAILURE(CheckEngine());
  ASSERT_NO_FATAL_FAILURE(CheckSessionMisses());
}

// Small widths, and the paper's, whose GEMMs run the register tiles.
INSTANTIATE_TEST_SUITE_P(
    Cases, StaleScratchTest,
    ::testing::Values(OracleCase{"rayyan", 0.08, 7, false},
                      OracleCase{"tax", 300.0 / 200000, 1000, true}),
    CaseName);

}  // namespace
}  // namespace birnn
