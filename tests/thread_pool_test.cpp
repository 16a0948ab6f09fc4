#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace dpr::util {
namespace {

TEST(ThreadPool, ResolveMapsZeroToHardwareConcurrency) {
  EXPECT_GE(ThreadPool::resolve(0), 1u);
  EXPECT_EQ(ThreadPool::resolve(1), 1u);
  EXPECT_EQ(ThreadPool::resolve(6), 6u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelChunksDecompositionIsContiguousAndComplete) {
  ThreadPool pool(3);
  std::vector<int> covered(101, 0);
  std::atomic<std::size_t> chunks_seen{0};
  pool.parallel_chunks(101, 7,
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                         chunks_seen.fetch_add(1);
                         for (std::size_t i = begin; i < end; ++i) {
                           covered[i] += 1;
                         }
                       });
  EXPECT_EQ(chunks_seen.load(), 7u);
  EXPECT_EQ(std::accumulate(covered.begin(), covered.end(), 0), 101);
}

TEST(ThreadPool, ChunkBoundariesIndependentOfWorkerCount) {
  // The deterministic-replay contract: chunk c covers the same index
  // range no matter how many workers execute the loop.
  auto boundaries = [](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<std::pair<std::size_t, std::size_t>> out(5);
    std::mutex mutex;
    pool.parallel_chunks(
        97, 5, [&](std::size_t c, std::size_t begin, std::size_t end) {
          std::lock_guard<std::mutex> lock(mutex);
          out[c] = {begin, end};
        });
    return out;
  };
  EXPECT_EQ(boundaries(1), boundaries(4));
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&sum](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Outer iterations run on pool workers and issue their own loops on the
  // same pool; caller participation guarantees forward progress.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&total](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, WorkStealingDrainsSkewedLoad) {
  // One chunk is far heavier than the rest; the loop still completes and
  // covers everything (idle workers steal the queued helpers' shares).
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(64, [&sum](std::size_t i) {
    long local = 0;
    const long spins = i == 0 ? 200000 : 100;
    for (long k = 0; k < spins; ++k) local += k % 7;
    sum.fetch_add(local > 0 ? 1 : 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 64);
}

TEST(ThreadPool, ConstructSubmitDestroyNeverLosesAWakeup) {
  // Destroying a pool right after construction or a submit races the
  // workers' first trip into their sleep wait. A stop or queue signal
  // published outside the sleep mutex can fall between a worker's
  // predicate check and its wait, and join() then hangs; ctest's TIMEOUT
  // turns such a hang into a failure.
  std::atomic<int> ran{0};
  for (int cycle = 0; cycle < 20000; ++cycle) {
    ThreadPool pool(2);
    if (cycle % 2 == 0) pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 10000);
}

}  // namespace
}  // namespace dpr::util
