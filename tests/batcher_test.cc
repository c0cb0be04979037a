// MicroBatcher contract tests: batching never changes answers, the bounded
// queue sheds with OVERLOADED, and Stop() drains every admitted request.
// This suite also runs under TSAN in CI — it is the concurrency coverage
// for the serve subsystem.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "serve/batcher.h"
#include "serve/bundle.h"
#include "test_support.h"

namespace birnn::serve {
namespace {

// Random weights are fine: these tests assert consistency between serving
// paths, not accuracy.
using test::MakeTinyDetector;

std::vector<CellQuery> MakeQueries(int n, int salt) {
  std::vector<CellQuery> queries;
  queries.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    CellQuery q;
    q.attr = (i + salt) % 3;
    q.value = "v" + std::to_string((i * 7 + salt) % 23) + std::string(i % 5, 'x');
    queries.push_back(std::move(q));
  }
  return queries;
}

bool BitIdentical(const std::vector<CellVerdict>& a,
                  const std::vector<CellVerdict>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].p_error, &b[i].p_error, sizeof(float)) != 0) {
      return false;
    }
    if (a[i].is_error != b[i].is_error) return false;
  }
  return true;
}

TEST(MicroBatcherTest, BatchedMatchesOneAtATimeBitExact) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  const std::vector<CellQuery> queries = MakeQueries(48, 0);

  // Baseline: every cell alone through a window-less batcher.
  std::vector<CellVerdict> solo;
  {
    BatcherOptions opts;
    opts.max_batch = 1;
    opts.max_delay_us = 0;
    MicroBatcher batcher(detector, opts);
    for (const CellQuery& q : queries) {
      std::vector<CellVerdict> one;
      ASSERT_TRUE(test::Detect(&batcher, {q}, &one).ok());
      ASSERT_EQ(one.size(), 1u);
      solo.push_back(one[0]);
    }
  }

  // Concurrent: 8 threads hammer a batcher with an aggressive window so
  // requests genuinely coalesce; every verdict must be bit-identical to the
  // solo run regardless of batch composition.
  BatcherOptions opts;
  opts.max_batch = 32;
  opts.max_delay_us = 3000;
  MicroBatcher batcher(detector, opts);
  const int kThreads = 8;
  const int kRounds = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Each thread asks for a different contiguous slice each round.
        const size_t begin = static_cast<size_t>((t * 11 + round * 17) % 40);
        const size_t end = std::min(queries.size(), begin + 8);
        const std::vector<CellQuery> slice(queries.begin() + begin,
                                           queries.begin() + end);
        const std::vector<CellVerdict> expected(solo.begin() + begin,
                                                solo.begin() + end);
        std::vector<CellVerdict> got;
        if (!test::Detect(&batcher, slice, &got).ok() ||
            !BitIdentical(got, expected)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);

  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kThreads * kRounds);
  EXPECT_EQ(stats.shed_requests, 0);
  EXPECT_GE(stats.batches, 1);
}

TEST(MicroBatcherTest, QueueFullShedsOverloadedAndStopDrains) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  BatcherOptions opts;
  opts.max_batch = 1024;        // never fills...
  opts.max_delay_us = 1000000;  // ...and the window is effectively forever,
  opts.queue_capacity = 4;      // so admitted requests sit in the queue.
  MicroBatcher batcher(detector, opts);

  std::atomic<int> ok{0};
  std::atomic<int> overloaded{0};
  // Fills the queue exactly.
  batcher.Submit(MakeQueries(4, 1),
                 [&](const Status& s, const std::vector<CellVerdict>& v) {
                   if (s.ok() && v.size() == 4) ok.fetch_add(1);
                 });
  // Queue is full: must be shed inline with OVERLOADED.
  batcher.Submit(MakeQueries(1, 2),
                 [&](const Status& s, const std::vector<CellVerdict>&) {
                   if (s.code() == StatusCode::kOverloaded) {
                     overloaded.fetch_add(1);
                   }
                 });
  EXPECT_EQ(overloaded.load(), 1);

  // Stop() drains: the admitted 4-cell request is answered OK.
  batcher.Stop();
  EXPECT_EQ(ok.load(), 1);

  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.cells, 4);
  EXPECT_EQ(stats.shed_requests, 1);
  EXPECT_EQ(stats.shed_cells, 1);
}

TEST(MicroBatcherTest, RequestLargerThanCapacityIsAlwaysShed) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  BatcherOptions opts;
  opts.queue_capacity = 2;
  MicroBatcher batcher(detector, opts);
  // Even on an idle batcher a 3-cell request can never be admitted — the
  // deterministic forced-shed case the CI smoke job exercises.
  std::vector<CellVerdict> verdicts;
  const Status st = test::Detect(&batcher, MakeQueries(3, 0), &verdicts);
  EXPECT_EQ(st.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(verdicts.empty());
}

TEST(MicroBatcherTest, StopAnswersEveryAdmittedRequest) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  BatcherOptions opts;
  opts.max_batch = 16;
  opts.max_delay_us = 500;
  MicroBatcher batcher(detector, opts);

  const int kRequests = 24;
  std::atomic<int> answered{0};
  std::atomic<int> answered_ok{0};
  for (int i = 0; i < kRequests; ++i) {
    batcher.Submit(MakeQueries(2 + i % 3, i),
                   [&](const Status& s, const std::vector<CellVerdict>&) {
                     answered.fetch_add(1);
                     if (s.ok()) answered_ok.fetch_add(1);
                   });
  }
  batcher.Stop();
  // Every admitted request was answered (with OK — nothing here sheds)
  // before Stop returned.
  EXPECT_EQ(answered.load(), kRequests);
  EXPECT_EQ(answered_ok.load(), kRequests);

  // After Stop, submits are refused with FailedPrecondition, not dropped.
  Status post;
  batcher.Submit(MakeQueries(1, 0),
                 [&](const Status& s, const std::vector<CellVerdict>&) {
                   post = s;
                 });
  EXPECT_EQ(post.code(), StatusCode::kFailedPrecondition);
}

TEST(MicroBatcherTest, ConcurrentClientsAnswerBitIdenticallyToSoloRun) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  const std::vector<CellQuery> queries = MakeQueries(48, 0);

  // Baseline: no memo, one cell at a time.
  std::vector<CellVerdict> solo;
  {
    BatcherOptions opts;
    opts.max_batch = 1;
    opts.max_delay_us = 0;
    opts.memo_capacity = 0;
    MicroBatcher batcher(detector, opts);
    for (const CellQuery& q : queries) {
      std::vector<CellVerdict> one;
      ASSERT_TRUE(test::Detect(&batcher, {q}, &one).ok());
      solo.push_back(one[0]);
    }
  }

  // 8 client threads coalescing into shared batches through the memo:
  // bit-identical.
  BatcherOptions opts;
  opts.max_batch = 16;
  opts.max_delay_us = 1000;
  MicroBatcher batcher(detector, opts);
  const int kThreads = 8;
  const int kRounds = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t begin = static_cast<size_t>((t * 13 + round * 7) % 40);
        const size_t end = std::min(queries.size(), begin + 8);
        const std::vector<CellQuery> slice(queries.begin() + begin,
                                           queries.begin() + end);
        const std::vector<CellVerdict> expected(solo.begin() + begin,
                                                solo.begin() + end);
        std::vector<CellVerdict> got;
        if (!test::Detect(&batcher, slice, &got).ok() ||
            !BitIdentical(got, expected)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, kThreads * kRounds);
  // The workload repeats the same 48 cell contents across 8x6 requests, so
  // the memo must have been doing real work.
  EXPECT_GT(stats.memo_hits, 0);
  EXPECT_GT(stats.memo_entries, 0);
  EXPECT_LE(stats.memo_entries, 48);
}

TEST(MicroBatcherTest, MemoHitsAreBitExactAndBounded) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  BatcherOptions opts;
  opts.max_batch = 8;
  opts.max_delay_us = 0;
  opts.memo_capacity = 16;  // tiny: forces evictions on a 48-content stream
  MicroBatcher batcher(detector, opts);

  const std::vector<CellQuery> queries = MakeQueries(48, 3);
  std::vector<CellVerdict> first;
  ASSERT_TRUE(test::Detect(&batcher, queries, &first).ok());
  // Re-asking the exact same cells must reproduce the same floats whether
  // each answer comes from the memo or a fresh engine run.
  for (int round = 0; round < 3; ++round) {
    std::vector<CellVerdict> again;
    ASSERT_TRUE(test::Detect(&batcher, queries, &again).ok());
    EXPECT_TRUE(BitIdentical(first, again)) << "round " << round;
  }
  EXPECT_LE(batcher.stats().memo_entries, 16 + 48);  // bounded, not exact LRU
}

TEST(MicroBatcherTest, MemoDisabledStillServes) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  BatcherOptions opts;
  opts.memo_capacity = 0;
  MicroBatcher batcher(detector, opts);
  std::vector<CellVerdict> a, b;
  ASSERT_TRUE(test::Detect(&batcher, MakeQueries(6, 1), &a).ok());
  ASSERT_TRUE(test::Detect(&batcher, MakeQueries(6, 1), &b).ok());
  EXPECT_TRUE(BitIdentical(a, b));
  EXPECT_EQ(batcher.stats().memo_hits, 0);
  EXPECT_EQ(batcher.stats().memo_entries, 0);
}

TEST(MicroBatcherTest, ConcurrentStopIsSafe) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  MicroBatcher batcher(detector);
  std::vector<CellVerdict> verdicts;
  ASSERT_TRUE(test::Detect(&batcher, MakeQueries(3, 0), &verdicts).ok());
  std::thread a([&] { batcher.Stop(); });
  std::thread b([&] { batcher.Stop(); });
  a.join();
  b.join();
}

TEST(MicroBatcherTest, EmptyRequestAnswersInline) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  MicroBatcher batcher(detector);
  std::vector<CellVerdict> verdicts = {CellVerdict{0.5f, false}};
  ASSERT_TRUE(test::Detect(&batcher, {}, &verdicts).ok());
  EXPECT_TRUE(verdicts.empty());
}

TEST(MicroBatcherTest, UnknownAttributeIsRejectedNotShed) {
  const LoadedDetector detector = MakeTinyDetector(1234);
  MicroBatcher batcher(detector);
  CellQuery bad;
  bad.attr_name = "no_such_attribute";
  bad.value = "v";
  std::vector<CellVerdict> verdicts;
  const Status st = test::Detect(&batcher, {bad}, &verdicts);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.rejected_requests, 1);
  EXPECT_EQ(stats.shed_requests, 0);
}

}  // namespace
}  // namespace birnn::serve
