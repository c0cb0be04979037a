#include "util/threadpool.h"

#include <algorithm>
#include <atomic>

#include "util/logging.h"

namespace birnn {

int HardwareConcurrency() {
  // Queried once per process: each query costs system calls.
  static const int n = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return n;
}

ThreadPool::ThreadPool(int threads) {
  BIRNN_CHECK_GE(threads, 0);
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();  // inline mode
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  task_available_.notify_one();
}

void ThreadPool::SubmitBulk(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (workers_.empty()) {
    for (auto& task : tasks) task();  // inline mode, in submission order
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& task : tasks) queue_.push_back(std::move(task));
  }
  if (tasks.size() == 1) {
    task_available_.notify_one();
  } else {
    task_available_.notify_all();
  }
}

void ThreadPool::Wait() {
  if (workers_.empty()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn) {
  const int64_t helpers =
      pool == nullptr ? 0 : std::min<int64_t>(n - 1, pool->num_threads());
  if (helpers <= 0) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int64_t> next{0};
  const auto claim = [&] {
    for (int64_t i; (i = next.fetch_add(1)) < n;) fn(i);
  };
  pool->SubmitBulk(
      std::vector<std::function<void()>>(static_cast<size_t>(helpers), claim));
  claim();
  pool->Wait();
}

}  // namespace birnn
