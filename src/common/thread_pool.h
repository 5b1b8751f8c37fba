#ifndef HMMM_COMMON_THREAD_POOL_H_
#define HMMM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hmmm {

/// Point-in-time usage snapshot of a ThreadPool (the pool stays below the
/// observability library in the dependency order, so it only keeps cheap
/// internal atomics).
struct ThreadPoolStats {
  uint64_t tasks_executed = 0;   // tasks completed since construction
  uint64_t task_exceptions = 0;  // fire-and-forget tasks that threw
  double busy_ms = 0.0;          // summed wall time workers spent in tasks
  size_t queue_depth = 0;        // tasks currently waiting
  int workers = 0;
};

/// A fixed-size pool of worker threads over a shared FIFO task queue.
/// Workers start in the constructor and are joined in the destructor
/// (after draining any queued tasks).
///
/// Tasks may throw. An exception never kills a worker or the pool:
///  - Submit (fire-and-forget) catches the exception, counts it in
///    stats().task_exceptions and logs it — there is no submitter-side
///    handle to deliver it to.
///  - SubmitWithFuture delivers the exception to the submitter through
///    the returned future (std::future::get rethrows it).
class ThreadPool {
 public:
  /// `num_threads` <= 0 resolves to the hardware concurrency (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one fire-and-forget task. A throwing task is swallowed
  /// (counted + logged), keeping the worker alive.
  void Submit(std::function<void()> task);

  /// Enqueues one task whose completion — and any exception it throws —
  /// is observable through the returned future.
  std::future<void> SubmitWithFuture(std::function<void()> task);

  /// <= 0 -> hardware concurrency (at least 1); otherwise `requested`.
  static int ResolveThreadCount(int requested);

  /// Usage counters. Safe to call concurrently with task execution; the
  /// snapshot is approximate while tasks run.
  ThreadPoolStats stats() const;

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> task_exceptions_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

}  // namespace hmmm

#endif  // HMMM_COMMON_THREAD_POOL_H_
