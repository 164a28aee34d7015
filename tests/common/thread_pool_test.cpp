#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pulphd {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), 8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ShardsAreContiguousAndOrderedWithinShard) {
  ThreadPool pool(2);
  std::vector<std::size_t> out(100, 0);
  pool.parallel_for(out.size(), 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = i;  // disjoint writes
  });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, 4, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MoreShardsThanItemsClampsToItems) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(3, 16, [&](std::size_t begin, std::size_t end) {
    calls.fetch_add(1);
    covered.fetch_add(end - begin);
  });
  EXPECT_LE(calls.load(), 3);
  EXPECT_EQ(covered.load(), 3u);
}

TEST(ThreadPool, SingleShardRunsInlineOnCaller) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(10, 1, [&](std::size_t, std::size_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, ZeroWorkerPoolStillCompletes) {
  ThreadPool pool(0);
  std::size_t sum = 0;
  pool.parallel_for(10, 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45u);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100, 8,
                        [&](std::size_t begin, std::size_t) {
                          if (begin >= 50) throw std::runtime_error("shard failed");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed batch.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for(10, 4, [&](std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 10u);
}

TEST(ThreadPool, RejectsEmptyFunction) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(4, 2, std::function<void(std::size_t, std::size_t)>{}),
               std::invalid_argument);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  pool.parallel_for(4, 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      pool.parallel_for(8, 4, [&](std::size_t b, std::size_t e) {
        inner_total.fetch_add(e - b);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 32u);
}

TEST(ThreadPool, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ResolveThreads, ZeroMeansHardwareThreads) {
  EXPECT_EQ(resolve_threads(0), ThreadPool::hardware_threads());
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ParallelShards, SerialPathRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  std::size_t begin_seen = 99, end_seen = 0;
  parallel_shards(1, 17, [&](std::size_t begin, std::size_t end) {
    seen = std::this_thread::get_id();
    begin_seen = begin;
    end_seen = end;
  });
  EXPECT_EQ(seen, caller);
  EXPECT_EQ(begin_seen, 0u);
  EXPECT_EQ(end_seen, 17u);
}

TEST(ParallelShards, CoversRangeForAnyThreadCount) {
  for (const std::size_t threads : {0ul, 1ul, 2ul, 4ul, 8ul}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_shards(threads, hits.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads;
  }
}

// TSan-friendly stress: several caller threads issue overlapping batches on
// the shared pool; every batch must cover exactly its own range.
TEST(ThreadPool, ConcurrentCallersOnSharedPool) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kItems = 123;
  std::vector<std::thread> callers;
  std::vector<std::size_t> totals(kCallers, 0);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &totals] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::atomic<std::size_t> covered{0};
        ThreadPool::shared().parallel_for(kItems, 4,
                                          [&](std::size_t begin, std::size_t end) {
                                            covered.fetch_add(end - begin);
                                          });
        totals[c] += covered.load();
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const std::size_t total : totals) EXPECT_EQ(total, kRounds * kItems);
}

}  // namespace
}  // namespace pulphd
