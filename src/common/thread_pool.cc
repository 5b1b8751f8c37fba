#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>

#include "common/fault_injector.h"
#include "common/logging.h"

namespace hmmm {

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

ThreadPool::ThreadPool(int num_threads) {
  const int resolved = ResolveThreadCount(num_threads);
  workers_.reserve(static_cast<size_t>(resolved));
  for (int i = 0; i < resolved; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  HMMM_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HMMM_CHECK(!stopping_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

std::future<void> ThreadPool::SubmitWithFuture(std::function<void()> task) {
  HMMM_CHECK(task != nullptr);
  // packaged_task routes anything the callable throws into the future;
  // the worker-loop catch never sees it, so it is not counted as a
  // dropped exception.
  auto packaged = std::make_shared<std::packaged_task<void()>>(
      [task = std::move(task)] {
        if (HMMM_FAULT_FIRED("threadpool.task")) {
          throw std::runtime_error("injected fault: threadpool.task");
        }
        task();
      });
  std::future<void> future = packaged->get_future();
  Submit([packaged] { (*packaged)(); });
  return future;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto start = std::chrono::steady_clock::now();
    // A fire-and-forget task has no one to deliver an exception to; the
    // worker must survive it regardless (a dead worker would silently
    // shrink the pool for the rest of the process).
    try {
      task();
    } catch (const std::exception& e) {
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
      HMMM_LOG(Error) << "thread-pool task threw: " << e.what();
    } catch (...) {
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
      HMMM_LOG(Error) << "thread-pool task threw a non-std exception";
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    busy_ns_.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        std::memory_order_relaxed);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats stats;
  stats.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  stats.task_exceptions = task_exceptions_.load(std::memory_order_relaxed);
  stats.busy_ms =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) / 1e6;
  stats.workers = size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.queue_depth = queue_.size();
  }
  return stats;
}

}  // namespace hmmm
