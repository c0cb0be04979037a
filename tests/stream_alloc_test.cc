// Heap-allocation budget of the streaming delta path. This binary replaces
// the global operator new with a counting one (kept out of every other
// suite), replays a table into a TableSession, warms it up, and then
// asserts that a memo-hit update whose new value fits the old value's
// capacity, and a verdict read, make no heap allocation at all: the
// session reuses its per-delta buffers and the reservoir keeps row ids.
// A memo-miss update allocates only when the memo's arena grows, and a
// warm batch-1 forward pass allocates nothing: the engine keeps its sweep
// scratch and tensors reuse their shape and data buffers.
//
// Sanitizer builds intercept operator new themselves, so there the
// replacement is compiled out and the test skips.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/detector.h"
#include "core/model.h"
#include "obs/trace.h"
#include "serve/bundle.h"
#include "stream/session.h"
#include "test_support.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define BIRNN_COUNTING_NEW 0
#else
#define BIRNN_COUNTING_NEW 1
#endif

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};

}  // namespace

#if BIRNN_COUNTING_NEW

namespace {

void* CountedAlloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n);
  } else if (::posix_memalign(&p, align, n) != 0) {
    p = nullptr;
  }
  return p;
}

void* CountedAllocOrThrow(std::size_t n, std::size_t align) {
  void* p = CountedAlloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAllocOrThrow(n, 0); }
void* operator new[](std::size_t n) { return CountedAllocOrThrow(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // BIRNN_COUNTING_NEW

namespace birnn::stream {
namespace {

/// Heap allocations made while `fn` runs.
template <typename Fn>
int64_t CountAllocations(Fn&& fn) {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

using test::MakeTinyShared;

// Short (in-string) and long (heap) values, with leading whitespace and
// characters outside the dictionary so trim, truncation and OOV counting
// all run on the measured path.
const char* const kWords[] = {
    "ale",  "  ipa 9",           "stout.x", "42",
    "",     "porter-1 and more", "\tnan",   "a much longer value here",
    "#x#",  "lager lager lager", "NaN",     "weissbier-weissbier"};
constexpr int kNumWords = sizeof(kWords) / sizeof(kWords[0]);
constexpr int kRows = 64;

std::string Word(int i) { return kWords[i % kNumWords]; }

TEST(StreamAllocTest, MemoHitUpdateAndVerdictReadAllocateNothing) {
#if !BIRNN_COUNTING_NEW
  GTEST_SKIP() << "sanitizer builds replace operator new themselves";
#endif
  SessionOptions options;
  // Thresholds no stream here can reach: a latching alarm records itself
  // once (one allocation), which is not the per-delta cost measured here.
  options.drift.max_len_growth = 1e9f;
  options.drift.oov_rate_threshold = 2.0f;
  options.drift.empty_rate_delta = 2.0f;
  options.drift.error_rate_delta = 2.0f;
  auto created = TableSession::Create(MakeTinyShared(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TableSession& s = **created;

  for (int r = 0; r < kRows; ++r) {
    ASSERT_TRUE(s.Insert(r, {Word(r), Word(r + 1), Word(r + 2)}).ok());
  }

  // One pass of updates moves every cell through every word of its
  // attribute's cycle; all of them were replayed above, so each is a memo
  // hit. The warm-up grows each stored value to its longest word, and it
  // runs until the thread's trace ring is full (it grows to
  // TraceRing::kCapacity events once, then overwrites in place).
  std::vector<Delta> updates;
  for (int k = 0; k < kNumWords; ++k) {
    for (int r = 0; r < kRows; ++r) {
      for (int a = 0; a < 3; ++a) {
        Delta d;
        d.kind = DeltaKind::kUpdate;
        d.row_id = r;
        d.attr = a;
        d.value = Word(r + a + k);
        updates.push_back(std::move(d));
      }
    }
  }
  for (size_t warm = 0; warm <= obs::TraceRing::kCapacity;
       warm += updates.size()) {
    for (const Delta& d : updates) ASSERT_TRUE(s.Apply(d).ok());
  }
  for (int r = 0; r < kRows; ++r) ASSERT_TRUE(s.GetVerdict(r, 1).ok());

  const SessionStats before = s.stats();
  bool all_ok = true;
  const int64_t apply_allocs = CountAllocations([&] {
    for (const Delta& d : updates) all_ok &= s.Apply(d).ok();
  });
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(apply_allocs, 0) << "over " << updates.size() << " updates";
  const SessionStats after = s.stats();
  const int64_t n_updates = static_cast<int64_t>(updates.size());
  EXPECT_EQ(after.updates - before.updates, n_updates);
  EXPECT_EQ(after.memo_hits - before.memo_hits, n_updates)
      << "every measured update must be a memo hit";

  // Update() moves its value into the delta: no copy either.
  std::vector<std::string> values;
  for (const Delta& d : updates) values.push_back(d.value);
  const int64_t update_allocs = CountAllocations([&] {
    for (size_t i = 0; i < updates.size(); ++i) {
      all_ok &= s.Update(updates[i].row_id, updates[i].attr,
                         std::move(values[i]))
                    .ok();
    }
  });
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(update_allocs, 0);

  const int64_t read_allocs = CountAllocations([&] {
    for (int r = 0; r < kRows; ++r) {
      for (int a = 0; a < 3; ++a) all_ok &= s.GetVerdict(r, a).ok();
    }
  });
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(read_allocs, 0);

  // A memo-hit insert of three short values allocates its argument vector,
  // the row's verdicts, its map node and its reservoir node. The tuple
  // itself moves into the session without a copy.
  EXPECT_EQ(CountAllocations([&] {
              all_ok &= s.Insert(kRows, {Word(0), Word(1), Word(2)}).ok();
            }),
            4);
  EXPECT_TRUE(all_ok);

  auto batch = s.DetectAll();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(s.MaterializedVerdicts(), *batch);
}

// A fresh value for the "name" attribute: a distinct content per `i`, so
// its update is a memo miss. Five characters, so it stays in the string's
// in-place buffer.
std::string FreshName(int i) {
  std::string v = "v";
  for (int k = 0; k < 4; ++k) {
    v.push_back(static_cast<char>('a' + i % 26));
    i /= 26;
  }
  return v;
}

TEST(StreamAllocTest, MemoMissUpdateAllocatesPinnedCount) {
#if !BIRNN_COUNTING_NEW
  GTEST_SKIP() << "sanitizer builds replace operator new themselves";
#endif
  SessionOptions options;
  options.drift.max_len_growth = 1e9f;
  options.drift.oov_rate_threshold = 2.0f;
  options.drift.empty_rate_delta = 2.0f;
  options.drift.error_rate_delta = 2.0f;
  auto created = TableSession::Create(MakeTinyShared(), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TableSession& s = **created;
  for (int r = 0; r < kRows; ++r) {
    ASSERT_TRUE(s.Insert(r, {Word(r), Word(r + 1), Word(r + 2)}).ok());
  }

  // Warm-up: fresh one-cell updates until the trace ring is full. The
  // engine's lane scratch and miss buffers, the session's per-delta
  // buffers and the memo's tables have then all reached their size.
  int fresh = 0;
  for (size_t k = 0; k < obs::TraceRing::kCapacity; ++k, ++fresh) {
    ASSERT_TRUE(s.Update(fresh % kRows, 1, FreshName(fresh)).ok());
  }

  // Each measured update is one fresh cell: a miss, swept at batch 1 and
  // inserted into the memo.
  constexpr int kMeasured = 64;
  std::vector<std::string> values;
  for (int k = 0; k < kMeasured; ++k) values.push_back(FreshName(fresh + k));
  const SessionStats before = s.stats();
  bool all_ok = true;
  int64_t total = 0;
  int64_t most = 0;
  for (int k = 0; k < kMeasured; ++k) {
    const int64_t n = CountAllocations([&] {
      all_ok &=
          s.Update(k % kRows, 1, std::move(values[static_cast<size_t>(k)]))
              .ok();
    });
    total += n;
    most = std::max(most, n);
  }
  EXPECT_TRUE(all_ok);
  const SessionStats after = s.stats();
  EXPECT_EQ(after.cells_scored - before.cells_scored, kMeasured);
  EXPECT_EQ(after.memo_hits - before.memo_hits, 0)
      << "every measured update must be a memo miss";
  // The encode, the sweep and the forward pass allocate nothing. The one
  // allocation left is the memo arena's amortized growth: a shard's arena
  // grows by an eighth (at least 4 KiB) when a record does not fit, which
  // this fixed sequence of values meets exactly five times.
  EXPECT_EQ(most, 1);
  EXPECT_EQ(total, 5) << "over " << kMeasured << " one-cell misses";
}

// A batch-1 forward pass at the paper's widths, full length and bucketed,
// on the engine's context path (level-0 projections gathered from the
// context's tables, built before the warm phase), reuses its scratch and
// allocates nothing once warm.
TEST(StreamAllocTest, WarmBatchOnePredictProbsAllocatesNothing) {
#if !BIRNN_COUNTING_NEW
  GTEST_SKIP() << "sanitizer builds replace operator new themselves";
#endif
  core::ModelConfig config;
  config.vocab = 40;
  config.max_len = 30;
  config.n_attrs = 11;
  config.enriched = true;
  const core::ErrorDetectionModel model(config);
  core::BucketedInferenceContext ctx;
  model.PrepareBucketedInference(&ctx);

  for (const int steps : {config.max_len, 5}) {
    core::BatchInput batch;
    batch.batch = 1;
    for (int t = 0; t < steps; ++t) batch.char_steps.push_back({1 + t % 30});
    batch.attr_ids = {3};
    batch.length_norm = {0.25f};
    core::InferenceScratch scratch;
    std::vector<float> p;
    model.PredictProbs(batch, &p, &scratch, &ctx);
    const std::vector<float> want = p;
    EXPECT_EQ(CountAllocations([&] {
                model.PredictProbs(batch, &p, &scratch, &ctx);
              }),
              0)
        << steps << " steps";
    EXPECT_EQ(p, want);
  }
}

}  // namespace
}  // namespace birnn::stream
