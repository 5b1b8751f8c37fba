#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hmmm {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(4), 4);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(-3), 1);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  constexpr int kTasks = 64;
  std::mutex mutex;
  std::condition_variable done;
  int completed = 0;
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] {
        std::lock_guard<std::mutex> lock(mutex);
        if (++completed == kTasks) done.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return completed == kTasks; });
  }
  EXPECT_EQ(completed, kTasks);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&completed] { ++completed; });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(completed.load(), 32);
}

TEST(ThreadPoolTest, ThrowingTaskDoesNotKillThePool) {
  ThreadPool pool(2);
  for (int i = 0; i < 4; ++i) {
    pool.Submit([] { throw std::runtime_error("fire-and-forget boom"); });
  }
  // Every worker must still be alive: 64 follow-up tasks all complete.
  std::mutex mutex;
  std::condition_variable done;
  int completed = 0;
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mutex);
      if (++completed == kTasks) done.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    done.wait(lock, [&] { return completed == kTasks; });
  }
  EXPECT_EQ(completed, kTasks);
  // Workers bump their counters after the task body returns, so the wakeup
  // from the last completing task can arrive before the final increments;
  // wait for the counters to settle rather than read them once. Hanging
  // here (ctest timeout) would itself be the failure this test guards.
  while (pool.stats().task_exceptions < 4u ||
         pool.stats().tasks_executed < static_cast<uint64_t>(kTasks + 4)) {
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.stats().task_exceptions, 4u);
}

TEST(ThreadPoolTest, SubmitWithFutureDeliversResultAndException) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto ok = pool.SubmitWithFuture([&ran] { ran = true; });
  EXPECT_NO_THROW(ok.get());
  EXPECT_TRUE(ran.load());

  auto bad = pool.SubmitWithFuture(
      [] { throw std::invalid_argument("typed boom"); });
  try {
    bad.get();
    FAIL() << "expected the task's exception through the future";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "typed boom");
  }
  // A future-delivered exception is not a dropped one.
  EXPECT_EQ(pool.stats().task_exceptions, 0u);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<size_t> visited{0};
    std::vector<std::future<void>> done;
    for (int task = 0; task < 25; ++task) {
      done.push_back(pool.SubmitWithFuture([&visited] { visited += 4; }));
    }
    for (std::future<void>& f : done) f.get();
    EXPECT_EQ(visited.load(), 100u);
  }
}

}  // namespace
}  // namespace hmmm
