#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/context.hpp"

namespace aic::runtime {
namespace {

TEST(ThreadPool, RunsPostedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.post([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PostAfterShutdownThrows) {
  ThreadPool pool(1);
  pool.shutdown();
  EXPECT_THROW(pool.post([] {}), std::runtime_error);
}

TEST(ThreadPool, ShutdownDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.post([&counter] { counter.fetch_add(1); });
    }
    // Destructor performs shutdown and must run the entire queue.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ManyConcurrentSubmitters) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  futures.reserve(200);
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([i] { return i; }));
  }
  long long total = 0;
  for (auto& f : futures) total += f.get();
  EXPECT_EQ(total, 199 * 200 / 2);
}

TEST(ThreadPool, ProcessPoolIsStableAcrossDefaultContexts) {
  // The process-wide pool is reached through Context now; every
  // process-default context observes the same instance.
  EXPECT_EQ(&Context::process_default().pool(),
            &Context::process_default().pool());
  EXPECT_GE(Context::process_default().pool().size(), 1u);
}

TEST(ThreadPool, InWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.in_worker_thread());
  auto inside = pool.submit([&pool] { return pool.in_worker_thread(); });
  EXPECT_TRUE(inside.get());
}

TEST(ThreadPool, WorkerOfOtherPoolIsNotDetected) {
  ThreadPool a(1);
  ThreadPool b(1);
  auto from_b = b.submit([&a] { return a.in_worker_thread(); });
  EXPECT_FALSE(from_b.get());
}

TEST(ThreadPool, WorkerIndexIsDistinctPerWorker) {
  constexpr std::size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  // Each task waits until all kWorkers are running at once, which forces
  // them onto kWorkers distinct workers (a worker runs one task at a time).
  std::atomic<std::size_t> arrived{0};
  std::vector<std::future<std::size_t>> indices;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    indices.push_back(pool.submit([&pool, &arrived] {
      arrived.fetch_add(1);
      while (arrived.load() < kWorkers) std::this_thread::yield();
      return pool.worker_index();
    }));
  }
  std::set<std::size_t> seen;
  for (auto& index : indices) {
    const std::size_t got = index.get();
    EXPECT_LT(got, kWorkers);
    seen.insert(got);
  }
  EXPECT_EQ(seen.size(), kWorkers);
}

TEST(ThreadPool, WorkerIndexIsSizeOffThePool) {
  ThreadPool a(3);
  ThreadPool b(2);
  EXPECT_EQ(a.worker_index(), a.size());
  std::size_t from_thread = 0;
  std::thread([&a, &from_thread] { from_thread = a.worker_index(); }).join();
  EXPECT_EQ(from_thread, a.size());
  auto from_b = b.submit([&a] { return a.worker_index(); });
  EXPECT_EQ(from_b.get(), a.size());
}

TEST(ThreadPool, ReentrantSubmitRunsInlineOnSizeOnePool) {
  // Before the re-entry guard this deadlocked: the sole worker blocked on
  // a future whose task sat behind it in the queue.
  ThreadPool pool(1);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 21; });
    return 2 * inner.get();
  });
  EXPECT_EQ(outer.get(), 42);
}

TEST(ThreadPool, ReentrantSubmitNestsDeeply) {
  ThreadPool pool(1);
  std::function<int(int)> countdown = [&](int depth) -> int {
    if (depth == 0) return 0;
    return 1 + pool.submit([&, depth] { return countdown(depth - 1); }).get();
  };
  auto result = pool.submit([&] { return countdown(16); });
  EXPECT_EQ(result.get(), 16);
}

TEST(ThreadPool, StatsCountExecutedAndInlinedTasks) {
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) pool.submit([] {}).wait();
  auto nested = pool.submit([&pool] { pool.submit([] {}).wait(); });
  nested.wait();
  pool.wait_idle();
  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 11u);
  EXPECT_EQ(stats.tasks_inlined, 1u);
  EXPECT_GE(stats.peak_queue_depth, 1u);
}

TEST(ThreadPool, ResetStatsZeroesCounters) {
  ThreadPool pool(1);
  pool.submit([] {}).wait();
  pool.wait_idle();
  pool.reset_stats();
  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.tasks_inlined, 0u);
  EXPECT_EQ(stats.peak_queue_depth, 0u);
}

}  // namespace
}  // namespace aic::runtime
