#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace dmfsgd::common {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 5u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    // Ranges around block-partition edge cases: empty, fewer items than
    // threads, exact multiples, remainders.
    for (const std::size_t n : {0u, 1u, 2u, 7u, 100u, 1001u}) {
      std::vector<int> counts(n, 0);
      pool.ParallelFor(0, n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          ++counts[i];  // index-owned write, no synchronization needed
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(counts[i], 1) << "threads " << threads << " n " << n;
      }
    }
  }
}

TEST(ThreadPool, HonorsSubranges) {
  ThreadPool pool(3);
  std::vector<int> counts(20, 0);
  pool.ParallelFor(5, 15, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      ++counts[i];
    }
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], i >= 5 && i < 15 ? 1 : 0);
  }
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  std::vector<std::size_t> values(64, 0);
  for (int job = 0; job < 100; ++job) {
    pool.ParallelFor(0, values.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        ++values[i];
      }
    });
  }
  EXPECT_EQ(std::accumulate(values.begin(), values.end(), std::size_t{0}),
            64u * 100u);
}

TEST(ThreadPool, RethrowsTheFirstBlockException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [&](std::size_t lo, std::size_t) {
                         if (lo == 0) {
                           throw std::runtime_error("block failed");
                         }
                       }),
      std::runtime_error);

  // The pool must stay usable after a failed job.
  std::atomic<int> done{0};
  pool.ParallelFor(0, 10, [&](std::size_t lo, std::size_t hi) {
    done += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  // One block spanning the whole range, executed on the calling thread.
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  pool.ParallelFor(0, 17, [&](std::size_t lo, std::size_t hi) {
    blocks.emplace_back(lo, hi);
  });
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (std::pair<std::size_t, std::size_t>{0, 17}));
}

TEST(ThreadPool, ForEachChunkRunsEveryChunkExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 5u, 16u}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {0u, 1u, 2u, 7u, 1000u}) {
      std::vector<int> counts(n, 0);
      pool.ForEachChunk(n, [&](std::size_t chunk) {
        ++counts[chunk];  // chunk-owned write, no synchronization needed
      });
      for (std::size_t c = 0; c < n; ++c) {
        EXPECT_EQ(counts[c], 1) << "threads " << threads << " n " << n;
      }
    }
  }
}

TEST(ThreadPool, ForEachChunkInterleavesWithParallelFor) {
  // A worker may still be looking for chunks of a finished job when the
  // next job starts; it must neither claim a chunk of the new job under
  // the old one nor miss a block of a ParallelFor.
  ThreadPool pool(4);
  std::vector<std::size_t> blocks(64, 0);
  std::vector<std::size_t> chunks(64, 0);
  std::size_t expected_chunks = 0;
  for (std::size_t job = 0; job < 500; ++job) {
    pool.ForEachChunk(chunks.size(), [&](std::size_t c) { ++chunks[c]; });
    pool.ParallelFor(0, blocks.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        ++blocks[i];
      }
    });
    pool.ForEachChunk(job % 3, [&](std::size_t c) { ++chunks[c]; });
    expected_chunks += chunks.size() + job % 3;
  }
  EXPECT_EQ(std::accumulate(blocks.begin(), blocks.end(), std::size_t{0}), 64u * 500u);
  EXPECT_EQ(std::accumulate(chunks.begin(), chunks.end(), std::size_t{0}), expected_chunks);
}

TEST(ThreadPool, ForEachChunkRethrowsAfterEveryChunkRan) {
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    std::atomic<int> ran{0};
    const auto fail_chunk_7 = [&](std::size_t c) {
      ++ran;
      if (c == 7) {
        throw std::runtime_error("chunk failed");
      }
    };
    EXPECT_THROW(pool.ForEachChunk(50, fail_chunk_7), std::runtime_error);
    EXPECT_EQ(ran.load(), 50);  // a failed chunk does not cancel the others

    // The pool must stay usable after a failed job.
    std::atomic<int> done{0};
    pool.ForEachChunk(10, [&](std::size_t) { ++done; });
    EXPECT_EQ(done.load(), 10);
  }
}

TEST(ThreadPool, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

}  // namespace
}  // namespace dmfsgd::common
