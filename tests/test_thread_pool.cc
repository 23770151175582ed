// Copyright (c) the pdexplore authors.
// ThreadPool: ParallelFor correctness at several shapes, exception
// propagation, the nested-use guard and the global pool configuration.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pdx {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    for (size_t n : {0u, 1u, 5u, 64u, 1000u}) {
      for (size_t chunk : {0u, 1u, 3u, 1024u}) {
        std::vector<std::atomic<uint32_t>> hits(n);
        pool.ParallelFor(0, n, chunk, [&](size_t begin, size_t end) {
          ASSERT_LE(begin, end);
          ASSERT_LE(end, n);
          for (size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[i].load(), 1u) << "index " << i << " with " << threads
                                        << " threads, chunk " << chunk;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, NonZeroBeginAndChunkBoundaries) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(10, 110, 7, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  uint64_t expected = 0;
  for (size_t i = 10; i < 110; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { ran = true; });
  pool.ParallelFor(7, 3, 1, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](size_t begin, size_t) {
                         if (begin == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<uint32_t> count{0};
  pool.ParallelFor(0, 50, 1, [&](size_t begin, size_t end) {
    count.fetch_add(static_cast<uint32_t>(end - begin));
  });
  EXPECT_EQ(count.load(), 50u);
}

TEST(ThreadPoolTest, ExceptionCancelsRemainingChunks) {
  ThreadPool pool(2);
  std::atomic<uint32_t> executed{0};
  try {
    pool.ParallelFor(0, 100000, 1, [&](size_t, size_t) {
      executed.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("stop");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  // Cancellation is best-effort: far fewer than all chunks should run
  // (each thread can have at most one chunk in flight past the cancel).
  EXPECT_LT(executed.load(), 100000u);
}

TEST(ThreadPoolTest, NestedParallelForRunsSeriallyWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<uint64_t> total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t, size_t) {
    EXPECT_TRUE(ThreadPool::InWorker() || !ThreadPool::InWorker());
    // Inner loop must complete inline even though all workers are busy.
    pool.ParallelFor(0, 10, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        total.fetch_add(i, std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(total.load(), 8u * 45u);
}

TEST(ThreadPoolTest, InWorkerIsFalseOnMainThread) {
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(ThreadPoolTest, SequentialJobsReuseWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<uint32_t> count{0};
    pool.ParallelFor(0, 16, 1, [&](size_t begin, size_t end) {
      count.fetch_add(static_cast<uint32_t>(end - begin));
    });
    ASSERT_EQ(count.load(), 16u);
  }
}

TEST(ThreadPoolTest, GlobalPoolRespectsSetThreadCount) {
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadCount(), 3u);
  EXPECT_EQ(GlobalThreadPool().num_threads(), 3u);
  SetGlobalThreadCount(1);
  EXPECT_EQ(GlobalThreadPool().num_threads(), 1u);
  // 0 = hardware concurrency (or PDX_THREADS); at least one thread.
  SetGlobalThreadCount(0);
  EXPECT_GE(GlobalThreadCount(), 1u);
}

TEST(ParseThreadCountTest, AcceptsOnlyWholeIntegersInRange) {
  EXPECT_EQ(ParseThreadCount("1"), 1u);
  EXPECT_EQ(ParseThreadCount("8"), 8u);
  EXPECT_EQ(ParseThreadCount("256"), kMaxThreadCount);
  for (const char* bad :
       {"", "0", "257", "100000", "12abc", "abc", "-1", "+4", " 4", "4 ",
        "4294967297", "18446744073709551616"}) {
    EXPECT_FALSE(ParseThreadCount(bad).has_value()) << "'" << bad << "'";
  }
}

// An out-of-range PDX_THREADS is ignored like a non-positive one: the
// configured size falls back to the hardware count. GlobalThreadCount
// only resolves the size; no pool is built here.
TEST(ParseThreadCountTest, OutOfRangeEnvironmentValueIsIgnored) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const char* prior = std::getenv("PDX_THREADS");
  const std::string saved = prior != nullptr ? prior : "";
  SetGlobalThreadCount(0);
  for (const char* bad : {"100000", "12abc", "0"}) {
    ASSERT_EQ(setenv("PDX_THREADS", bad, 1), 0);
    EXPECT_EQ(GlobalThreadCount(), hw) << bad;
  }
  if (prior != nullptr) {
    ASSERT_EQ(setenv("PDX_THREADS", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("PDX_THREADS"), 0);
  }
}

TEST(AtomicAddDoubleTest, AccumulatesAcrossThreads) {
  ThreadPool pool(4);
  std::atomic<double> sum{0.0};
  pool.ParallelFor(0, 1000, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) AtomicAddDouble(&sum, 0.5);
  });
  EXPECT_DOUBLE_EQ(sum.load(), 500.0);
}

}  // namespace
}  // namespace pdx
