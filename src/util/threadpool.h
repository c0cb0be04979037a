#ifndef BIRNN_UTIL_THREADPOOL_H_
#define BIRNN_UTIL_THREADPOOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace birnn {

/// Number of hardware threads, with a floor of 1 (hardware_concurrency()
/// may report 0), queried once per process. The experiment scheduler
/// budgets its outer/inner parallelism against this, and the trainer and
/// the inference engine cap their pools with it.
int HardwareConcurrency();

/// Fixed-size worker pool for embarrassingly parallel work (batch
/// inference, per-dataset experiment fan-out). Tasks are plain
/// `std::function<void()>`; `Wait()` blocks until the queue drains and all
/// workers are idle. Destruction waits for outstanding tasks.
///
/// With `threads == 0` the pool runs tasks inline on the calling thread
/// (deterministic, zero overhead) — the default on single-core machines.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Enqueues a batch of tasks with a single lock acquisition and one
  /// broadcast wakeup, instead of one mutex round-trip per task. In inline
  /// mode (`threads == 0`) the tasks run immediately, in order.
  void SubmitBulk(std::vector<std::function<void()>> tasks);

  /// Blocks until every submitted task has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_idle_;
  int active_ = 0;
  bool shutdown_ = false;
};

/// Runs `fn(i)` for every i in [0, n) and returns when all have finished.
/// With a pool that has workers, the calling thread and up to `n - 1` of
/// them each claim the next index from a shared counter until none is
/// left, so the first indices start first. Without one (`pool` null or
/// inline) the calls run on the calling thread, in order. The caller must
/// not be one of the pool's workers, and `fn` must be safe to call
/// concurrently for distinct i.
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn);

}  // namespace birnn

#endif  // BIRNN_UTIL_THREADPOOL_H_
