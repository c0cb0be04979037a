#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "util/threadpool.h"

namespace birnn {
namespace {

TEST(ThreadPoolTest, InlineModeRunsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  int counter = 0;
  pool.Submit([&counter] { ++counter; });
  EXPECT_EQ(counter, 1);  // ran synchronously
  pool.Wait();
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, SubmitBulkRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 128; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.SubmitBulk(std::move(tasks));
  pool.Wait();
  EXPECT_EQ(counter.load(), 128);
}

TEST(ThreadPoolTest, SubmitBulkInlineModeRunsInSubmissionOrder) {
  ThreadPool pool(0);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([&order, i] { order.push_back(i); });
  }
  pool.SubmitBulk(std::move(tasks));
  ASSERT_EQ(order.size(), 10u);  // ran synchronously
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  pool.Wait();
}

TEST(ThreadPoolTest, SubmitBulkEmptyIsNoOp) {
  ThreadPool pool(2);
  pool.SubmitBulk({});
  pool.Wait();
}

TEST(ThreadPoolTest, SubmitBulkMixesWithSubmit) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 5; ++i) {
    tasks.push_back([&counter] { counter.fetch_add(1); });
  }
  pool.SubmitBulk(std::move(tasks));
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 7);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  for (int n : {0, 1, 2, 3, 4, 5, 64, 257}) {
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    ParallelFor(&pool, n, [&hits](int64_t i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << n << " " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForInline) {
  // An inline pool and no pool both run the calls in order.
  ThreadPool pool(0);
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    std::vector<int64_t> order;
    ParallelFor(p, 4, [&order](int64_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3}));
  }
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 0, [&called](int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForCallerWorksToo) {
  // A task that waits for another task to start cannot finish unless two
  // threads claim: with one worker, the caller must be the second.
  ThreadPool pool(1);
  std::atomic<int> started{0};
  ParallelFor(&pool, 2, [&started](int64_t) {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor must wait
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace birnn
