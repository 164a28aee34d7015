#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pulphd {
namespace {

// The threads a call runs on, as parallel_shards documents it.
std::size_t cap(std::size_t threads, std::size_t n) {
  return std::min({resolve_threads(threads), n, hardware_threads()});
}

TEST(ParallelShards, HardwareThreadsIsAtLeastOne) { EXPECT_GE(hardware_threads(), 1u); }

TEST(ResolveThreads, ZeroMeansHardwareThreads) {
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ParallelShards, SerialPathRunsInline) {
  struct Case {
    std::size_t threads;
    std::size_t n;
  };
  const std::thread::id caller = std::this_thread::get_id();
  for (const Case c : {Case{1, 17}, Case{1, 1}, Case{0, 1}, Case{2, 1}, Case{8, 1}}) {
    std::size_t calls = 0;
    std::thread::id seen;
    std::size_t begin_seen = 99, end_seen = 0;
    parallel_shards(c.threads, c.n, [&](std::size_t begin, std::size_t end) {
      ++calls;
      seen = std::this_thread::get_id();
      begin_seen = begin;
      end_seen = end;
    });
    EXPECT_EQ(calls, 1u) << "threads=" << c.threads << " n=" << c.n;
    EXPECT_EQ(seen, caller) << "threads=" << c.threads << " n=" << c.n;
    EXPECT_EQ(begin_seen, 0u);
    EXPECT_EQ(end_seen, c.n);
  }
}

TEST(ParallelShards, CoversRangeForAnyThreadCount) {
  for (const std::size_t threads : {0ul, 1ul, 2ul, 4ul, 8ul}) {
    for (const std::size_t n : {0ul, 1ul, 3ul, 129ul}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<std::size_t> calls{0};
      parallel_shards(threads, n, [&](std::size_t begin, std::size_t end) {
        calls.fetch_add(1);
        for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "threads=" << threads << " n=" << n;
      // Forked calls claim one index at a time; a serial call is one fn(0, n).
      const std::size_t want = n == 0 ? 0 : cap(threads, n) > 1 ? n : 1;
      EXPECT_EQ(calls.load(), want) << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(ParallelShards, PeakConcurrencyIsCapped) {
  for (const std::size_t threads : {0ul, 2ul, 4ul, 8ul}) {
    for (const std::size_t n : {1ul, 3ul, 129ul}) {
      std::atomic<std::size_t> running{0};
      std::atomic<std::size_t> peak{0};
      parallel_shards(threads, n, [&](std::size_t, std::size_t) {
        const std::size_t now = running.fetch_add(1) + 1;
        std::size_t seen = peak.load();
        while (seen < now && !peak.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        running.fetch_sub(1);
      });
      EXPECT_GE(peak.load(), 1u);
      EXPECT_LE(peak.load(), cap(threads, n)) << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(ParallelShards, PropagatesFirstException) {
  constexpr std::size_t kItems = 1000;
  constexpr std::size_t kThrowAt = 10;
  std::atomic<std::size_t> calls{0};
  EXPECT_THROW(parallel_shards(4, kItems,
                               [&](std::size_t begin, std::size_t end) {
                                 calls.fetch_add(1);
                                 if (begin <= kThrowAt && kThrowAt < end) {
                                   throw std::runtime_error("index failed");
                                 }
                                 std::this_thread::sleep_for(std::chrono::microseconds(100));
                               }),
               std::runtime_error);
  // The throw stops further claims: the other threads finish the index
  // they hold and claim no more.
  EXPECT_LT(calls.load(), kItems / 2);
  // A failed call leaves nothing behind: the next one covers its range.
  std::atomic<std::size_t> covered{0};
  parallel_shards(4, 10, [&](std::size_t begin, std::size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 10u);
}

TEST(ParallelShards, NestedCallsComplete) {
  std::atomic<std::size_t> inner_total{0};
  parallel_shards(2, 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      parallel_shards(2, 8, [&](std::size_t b, std::size_t e) { inner_total.fetch_add(e - b); });
    }
  });
  EXPECT_EQ(inner_total.load(), 32u);
}

// TSan-friendly stress: several caller threads fork overlapping calls at
// once; every call must cover exactly its own range.
TEST(ParallelShards, ConcurrentCallersCoverTheirOwnRange) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kItems = 123;
  std::vector<std::thread> callers;
  std::vector<std::size_t> totals(kCallers, 0);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &totals] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        std::atomic<std::size_t> covered{0};
        parallel_shards(4, kItems, [&](std::size_t begin, std::size_t end) {
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
