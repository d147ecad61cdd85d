#include "common/thread_pool.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace granula {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr uint64_t kCount = 10000;
  std::vector<std::atomic<uint32_t>> hits(kCount);
  pool.ParallelFor(0, kCount, 97, [&](uint64_t, uint64_t lo, uint64_t hi) {
    for (uint64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << i;
  }
}

TEST(ThreadPoolTest, ChunkBoundsMatchGrainArithmetic) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::array<uint64_t, 3>> seen;
  pool.ParallelFor(100, 175, 30, [&](uint64_t c, uint64_t lo, uint64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back({c, lo, hi});
  });
  ASSERT_EQ(seen.size(), 3u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen[0], (std::array<uint64_t, 3>{0, 100, 130}));
  EXPECT_EQ(seen[1], (std::array<uint64_t, 3>{1, 130, 160}));
  EXPECT_EQ(seen[2], (std::array<uint64_t, 3>{2, 160, 175}));
}

TEST(ThreadPoolTest, DecompositionIndependentOfThreadCount) {
  // The determinism contract: chunk (index, begin, end) triples depend only
  // on (range, grain), never on how many threads execute them.
  auto decompose = [](ThreadPool& pool) {
    std::mutex mu;
    std::vector<std::array<uint64_t, 3>> chunks;
    pool.ParallelFor(7, 5000, 311, [&](uint64_t c, uint64_t lo, uint64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.push_back({c, lo, hi});
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  ThreadPool single(1);
  ThreadPool wide(8);
  EXPECT_EQ(decompose(single), decompose(wide));
}

TEST(ThreadPoolTest, ResizeSweepsThreadCounts) {
  ThreadPool pool(1);
  for (int n : {1, 4, 2, 8}) {
    pool.Resize(n);
    EXPECT_EQ(pool.num_threads(), n);
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(0, 1000, 10, [&](uint64_t, uint64_t lo, uint64_t hi) {
      uint64_t local = 0;
      for (uint64_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2);
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<uint64_t> inner_total{0};
  pool.ParallelFor(0, 8, 1, [&](uint64_t, uint64_t, uint64_t) {
    // A reentrant call must not deadlock waiting for the (busy) workers;
    // it runs all chunks on the calling thread.
    pool.ParallelFor(0, 16, 4, [&](uint64_t, uint64_t lo, uint64_t hi) {
      inner_total.fetch_add(hi - lo);
    });
  });
  EXPECT_EQ(inner_total.load(), 8u * 16u);
}

TEST(ThreadPoolTest, OutsideCallerRunsInlineWhileAnotherJobHoldsThePool) {
  // Thread A's job holds the pool (as one HTTP handler's repository scan
  // or a fleet finalizer's save can while another runs); a second,
  // non-pool thread calling ParallelFor must neither overwrite A's job
  // nor wait for it.
  ThreadPool pool(4);
  std::atomic<bool> release{false};
  std::atomic<uint64_t> held_started{0};
  std::vector<uint64_t> held_sums(4, 0);
  std::thread holder([&] {
    pool.ParallelFor(0, 400, 100, [&](uint64_t c, uint64_t lo, uint64_t hi) {
      held_started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      for (uint64_t i = lo; i < hi; ++i) held_sums[c] += i;
    });
  });
  while (held_started.load() == 0) std::this_thread::yield();

  std::vector<uint64_t> chunk_sums(100, 0);
  std::vector<std::array<uint64_t, 3>> chunks;
  pool.ParallelFor(0, 1000, 10, [&](uint64_t c, uint64_t lo, uint64_t hi) {
    chunks.push_back({c, lo, hi});
    for (uint64_t i = lo; i < hi; ++i) chunk_sums[c] += i;
  });
  // Ran to completion on this thread, in order, while A still holds the
  // pool, with the same decomposition a pooled run uses.
  EXPECT_FALSE(release.load());
  ASSERT_EQ(chunks.size(), 100u);
  for (uint64_t c = 0; c < 100; ++c) {
    EXPECT_EQ(chunks[c], (std::array<uint64_t, 3>{c, 10 * c, 10 * c + 10}));
    EXPECT_EQ(chunk_sums[c], 100 * c + 45);
  }

  release.store(true);
  holder.join();
  uint64_t held_total = 0;
  for (uint64_t sum : held_sums) held_total += sum;
  EXPECT_EQ(held_total, 400u * 399u / 2);

  // The slot is free again: a fresh job runs on the pool as usual.
  std::atomic<uint64_t> count{0};
  pool.ParallelFor(0, 64, 1, [&](uint64_t, uint64_t lo, uint64_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesFn) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, 1, [&](uint64_t, uint64_t, uint64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 64, 1,
                       [&](uint64_t c, uint64_t, uint64_t) {
                         if (c == 13) throw std::runtime_error("chunk 13");
                       }),
      std::runtime_error);
  // The pool stays usable after a failed job.
  std::atomic<uint64_t> count{0};
  pool.ParallelFor(0, 64, 1, [&](uint64_t, uint64_t lo, uint64_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPoolTest, NumChunksEdgeCases) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 10), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(1, 10), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(10, 10), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(11, 10), 2u);
  EXPECT_EQ(ThreadPool::NumChunks(7, 0), 7u);  // grain 0 treated as 1
}

TEST(ThreadPoolTest, ChunkedGrainBoundsChunkCount) {
  // Small counts stay at the minimum grain (one chunk).
  EXPECT_EQ(ChunkedGrain(100), 256u);
  // Large counts split into at most max_chunks chunks.
  uint64_t grain = ChunkedGrain(1'000'000);
  EXPECT_LE(ThreadPool::NumChunks(1'000'000, grain), 64u);
  EXPECT_GE(grain, 256u);
  // Depends only on the inputs: same value every call.
  EXPECT_EQ(ChunkedGrain(1'000'000), grain);
}

}  // namespace
}  // namespace granula
