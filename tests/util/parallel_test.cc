#include "util/parallel.h"

#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace moche {
namespace {

TEST(ResolveThreadCountTest, ZeroMeansHardware) {
  EXPECT_EQ(ResolveThreadCount(0), HardwareConcurrency());
  EXPECT_GE(HardwareConcurrency(), 1u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    const size_t count = 1000;
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    ThreadPool pool(threads);
    pool.ParallelFor(count, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                   << " threads";
    }
  }
}

TEST(ParallelForTest, ZeroAndOneTaskCounts) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&calls](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, SlotWritesMergeInInputOrder) {
  // The deterministic task->index mapping: each task writes its own slot,
  // so the merged output is identical to the sequential loop.
  const size_t count = 257;
  std::vector<size_t> out(count, 0);
  ThreadPool pool(8);
  pool.ParallelFor(count, [&out](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(100, [&total](size_t i) {
      total.fetch_add(static_cast<int64_t>(i));
    });
  }
  EXPECT_EQ(total.load(), 50 * (99 * 100 / 2));
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<size_t> order;
  // With one thread the loop runs on the caller in index order.
  pool.ParallelFor(10, [&order](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, MoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(3, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForWorkerTest, WorkerIndicesAreInRangeAndExclusive) {
  ThreadPool pool(4);
  const size_t count = 512;
  // Per-worker counters written WITHOUT synchronization: the contract says
  // two tasks with the same worker index never run concurrently, so plain
  // increments must survive (TSan covers the claim in the sanitizer job).
  std::vector<size_t> per_worker(pool.num_threads(), 0);
  std::vector<std::atomic<int>> hits(count);
  for (auto& h : hits) h.store(0);
  pool.ParallelForWorker(count, [&](size_t worker, size_t i) {
    ASSERT_LT(worker, pool.num_threads());
    ++per_worker[worker];
    hits[i].fetch_add(1);
  });
  size_t total = 0;
  for (size_t c : per_worker) total += c;
  EXPECT_EQ(total, count);
  for (size_t i = 0; i < count; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelForWorkerTest, InlinePathsUseWorkerZero) {
  // Single-thread pool: everything runs on the caller as worker 0.
  ThreadPool pool(1);
  std::vector<size_t> workers;
  pool.ParallelForWorker(5, [&workers](size_t worker, size_t i) {
    (void)i;
    workers.push_back(worker);
  });
  EXPECT_EQ(workers, std::vector<size_t>(5, 0));

  // count == 1 short-circuits inline even on a multi-thread pool.
  ThreadPool wide(4);
  size_t seen_worker = 99;
  wide.ParallelForWorker(1, [&](size_t worker, size_t i) {
    (void)i;
    seen_worker = worker;
  });
  EXPECT_EQ(seen_worker, 0u);
}

TEST(ThreadPoolTest, UnevenTaskDurationsStillCoverAllIndices) {
  ThreadPool pool(4);
  const size_t count = 64;
  std::vector<std::atomic<int>> hits(count);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(count, [&hits](size_t i) {
    // Busy-work proportional to the index: stresses the work-stealing
    // counter with heavily skewed task costs.
    volatile double sink = 0.0;
    for (size_t k = 0; k < i * 1000; ++k) sink = sink + 1.0;
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < count; ++i) ASSERT_EQ(hits[i].load(), 1);
}

}  // namespace
}  // namespace moche
