#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/histogram.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace clktune::util {
namespace {

TEST(SplitMix64Test, DeterministicForSameSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(SplitMix64Test, UniformDoublesInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SplitMix64Test, NormalMomentsAreStandard) {
  SplitMix64 rng(11);
  OnlineStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.next_normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(CounterRngTest, PureFunctionOfCounter) {
  CounterRng rng(99);
  EXPECT_EQ(rng.uniform(5, 7), rng.uniform(5, 7));
  EXPECT_NE(rng.uniform(5, 7), rng.uniform(5, 8));
  EXPECT_EQ(rng.normal(3, 4), rng.normal(3, 4));
}

TEST(CounterRngTest, NormalMomentsAreStandard) {
  CounterRng rng(123);
  OnlineStats stats;
  for (std::uint64_t i = 0; i < 200000; ++i) stats.add(rng.normal(i, 1));
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(CounterRngTest, DistinctStreamsAreUncorrelated) {
  CounterRng rng(5);
  OnlineCorrelation corr;
  for (std::uint64_t i = 0; i < 50000; ++i)
    corr.add(rng.normal(i, 0), rng.normal(i, 1));
  EXPECT_NEAR(corr.correlation(), 0.0, 0.03);
}

TEST(OnlineStatsTest, MatchesClosedForm) {
  OnlineStats s;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_NEAR(s.variance(), 12.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(OnlineCorrelationTest, PerfectPositiveAndNegative) {
  OnlineCorrelation pos, neg;
  for (int i = 0; i < 50; ++i) {
    pos.add(i, 2.0 * i + 1.0);
    neg.add(i, -0.5 * i + 3.0);
  }
  EXPECT_NEAR(pos.correlation(), 1.0, 1e-9);
  EXPECT_NEAR(neg.correlation(), -1.0, 1e-9);
}

TEST(OnlineCorrelationTest, ConstantSeriesYieldsZero) {
  OnlineCorrelation c;
  for (int i = 0; i < 10; ++i) c.add(5.0, i);
  EXPECT_EQ(c.correlation(), 0.0);
}

TEST(IntHistogramTest, WindowCounting) {
  IntHistogram h;
  h.add(-2, 3);
  h.add(0, 10);
  h.add(1, 5);
  h.add(7, 1);
  EXPECT_EQ(h.count_in_window(-2, 1), 18u);
  EXPECT_EQ(h.count_in_window(0, 0), 10u);
  EXPECT_EQ(h.count_in_window(2, 6), 0u);
  EXPECT_EQ(h.total(), 19u);
}

TEST(IntHistogramTest, BestWindowCoversDenseMass) {
  IntHistogram h;
  h.add(0, 100);
  h.add(1, 80);
  h.add(2, 60);
  h.add(10, 5);
  const int lo = h.best_window_lower_bound(2);
  EXPECT_EQ(lo, 0);  // [0, 2] captures 240 of 245
}

TEST(IntHistogramTest, BestWindowPrefersZeroCoverOnTies) {
  IntHistogram h;
  h.add(0, 5);
  h.add(5, 5);
  // Window width 0: both keys tie at 5; 0-covering window must win.
  EXPECT_EQ(h.best_window_lower_bound(0), 0);
}

TEST(IntHistogramTest, EmptyHistogramCentersOnZero) {
  IntHistogram h;
  EXPECT_EQ(h.best_window_lower_bound(10), -5);
}

TEST(IntHistogramTest, NegativeKeysAndMean) {
  IntHistogram h;
  h.add(-4, 1);
  h.add(4, 1);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min_key(), -4);
  EXPECT_EQ(h.max_key(), 4);
  h.add(4, 2);
  EXPECT_NEAR(h.mean(), 2.0, 1e-12);
}

TEST(IntHistogramTest, MergeAccumulates) {
  IntHistogram a, b;
  a.add(1, 2);
  b.add(1, 3);
  b.add(-1, 1);
  a.merge(b);
  EXPECT_EQ(a.count(1), 5u);
  EXPECT_EQ(a.count(-1), 1u);
}

TEST(ParallelChunksTest, CoversAllIndicesExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);
  parallel_chunks(n, 4, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(ParallelChunksTest, WorksWithMoreWorkersThanItems) {
  std::vector<int> hits(3, 0);
  parallel_chunks(3, 16, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_EQ(hits[0] + hits[1] + hits[2], 3);
}

TEST(ParallelChunksTest, ZeroItemsIsANoop) {
  parallel_chunks(0, 4, [&](std::size_t, std::size_t begin, std::size_t end) {
    EXPECT_EQ(begin, end);
  });
}

using ChunkLoop = void (*)(
    std::size_t, std::size_t,
    const std::function<void(std::size_t, std::size_t, std::size_t)>&);

/// Per-chunk digest of the indices each chunk visited, in visiting order:
/// any change of a chunk's range changes its digest.
std::vector<std::uint64_t> chunk_digests(ChunkLoop loop, std::size_t n,
                                         std::size_t workers) {
  std::vector<std::uint64_t> digest(workers, 0);
  loop(n, workers, [&](std::size_t w, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      digest[w] = digest[w] * 1000003 + i + 1;
  });
  return digest;
}

/// The same digests for parallel_strided, whose task w takes the indices
/// w, w + workers, ...
std::vector<std::uint64_t> strided_digests(std::size_t n, std::size_t workers,
                                           bool parallel) {
  std::vector<std::uint64_t> digest(workers, 0);
  const auto visit = [&](std::size_t w, std::size_t i) {
    digest[w] = digest[w] * 1000003 + i + 1;
  };
  if (parallel) {
    parallel_strided(n, workers, visit);
  } else {
    const std::size_t tasks = std::max<std::size_t>(1, std::min(workers, n));
    for (std::size_t w = 0; w < tasks; ++w)
      for (std::size_t i = w; i < n; i += tasks) visit(w, i);
  }
  return digest;
}

TEST(ComputePoolTest, RegionsStartNoThreadAfterWarmUp) {
  parallel_chunks(2, 2, [](std::size_t, std::size_t, std::size_t) {});
  const std::size_t started = pool_threads_started();
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(started, hw == 0 ? 0u : hw - 1u);

  std::atomic<std::size_t> visited{0};
  for (const std::size_t chunks : {1, 4, 64}) {
    for (int region = 0; region < 1000; ++region) {
      parallel_chunks(chunks, chunks,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        visited += end - begin;
                      });
      parallel_strided(chunks, chunks,
                       [&](std::size_t, std::size_t) { ++visited; });
    }
  }
  EXPECT_EQ(visited.load(), 2u * 1000u * (1u + 4u + 64u));
  EXPECT_EQ(pool_threads_started(), started);
}

TEST(ComputePoolTest, ConcurrentCallersAndNestedRegionsMatchSerialChunks) {
  std::atomic<int> mismatches{0};
  const auto caller = [&](std::size_t seed) {
    for (std::size_t region = 0; region < 200; ++region) {
      const std::size_t n = (seed * 131 + region * 17) % 300;
      const std::size_t workers = std::size_t{1} << ((seed + region) % 7);
      if (chunk_digests(parallel_chunks, n, workers) !=
          chunk_digests(serial_chunks, n, workers))
        ++mismatches;
      if (strided_digests(n, workers, true) !=
          strided_digests(n, workers, false))
        ++mismatches;
    }
  };
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 4; ++t) callers.emplace_back(caller, t);

  // A region nested in each chunk of an outer region, alongside them.
  std::vector<std::vector<std::uint64_t>> inner(4);
  parallel_chunks(4, 4, [&](std::size_t w, std::size_t, std::size_t) {
    inner[w] = chunk_digests(parallel_chunks, 100 + w, 8);
  });
  for (std::thread& t : callers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  for (std::size_t w = 0; w < 4; ++w)
    EXPECT_EQ(inner[w], chunk_digests(serial_chunks, 100 + w, 8)) << w;
}

TEST(ComputePoolTest, LowestFailedChunkReachesTheCallerAfterEveryChunkRan) {
  for (int round = 0; round < 20; ++round) {
    std::vector<int> ran(8, 0);
    try {
      parallel_chunks(8, 8, [&](std::size_t w, std::size_t, std::size_t) {
        ran[w] = 1;
        if (w == 3 || w == 6)
          throw std::runtime_error("chunk " + std::to_string(w));
      });
      ADD_FAILURE() << "parallel_chunks swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 3");
    }
    EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 8);

    std::vector<int> visited(40, 0);
    try {
      parallel_strided(40, 4, [&](std::size_t w, std::size_t i) {
        visited[i] = 1;
        if (i == 37 || (w == 2 && i == 2))
          throw std::runtime_error("index " + std::to_string(i));
      });
      ADD_FAILURE() << "parallel_strided swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 37");  // task 1 is the lowest that threw
    }
    // Task 2 stops at its first index, skipping its 9 others; the other
    // tasks run to their end.
    EXPECT_EQ(std::count(visited.begin(), visited.end(), 1), 40 - 9);
  }

  // The pool still runs regions afterwards.
  std::vector<int> hits(1000, 0);
  parallel_chunks(hits.size(), 4,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) ++hits[i];
                  });
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 1000);
}

TEST(YieldCiTest, ShrinksWithSamples) {
  EXPECT_GT(yield_ci95(0.5, 100), yield_ci95(0.5, 10000));
  EXPECT_EQ(yield_ci95(0.5, 0), 1.0);
}

}  // namespace
}  // namespace clktune::util
