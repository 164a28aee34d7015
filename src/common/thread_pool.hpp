// Host-side fork-join thread pool.
//
// The paper's speedups come from mapping the HD kernels onto a parallel
// cluster; the host library mirrors that with a small fixed pool of worker
// threads sharding embarrassingly parallel loops (batch classification,
// batch encoding) over contiguous index ranges. Parallelism never changes
// results: every shard computes independent outputs into disjoint slots, so
// any thread count is bit-identical to the single-threaded loop.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace pulphd {

class ThreadPool {
 public:
  /// Starts `workers` worker threads (the calling thread of `parallel_for`
  /// also executes shards, so total concurrency is workers + 1).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const noexcept { return workers_.size(); }

  /// Splits [0, n) into at most `shards` near-equal contiguous chunks and
  /// runs fn(begin, end) for each, concurrently on the workers and the
  /// calling thread. Blocks until every chunk has finished; the first
  /// exception thrown by any chunk is rethrown on the caller. fn must write
  /// only state owned by its own [begin, end) range.
  void parallel_for(std::size_t n, std::size_t shards,
                    const std::function<void(std::size_t, std::size_t)>& fn)
      PULPHD_EXCLUDES(mutex_);

  /// Usable hardware concurrency (>= 1 even when the runtime reports 0).
  static std::size_t hardware_threads() noexcept;

  /// Lazily constructed process-wide pool with hardware_threads() - 1
  /// workers; the instance every library hot path shares.
  static ThreadPool& shared();

 private:
  void worker_loop() PULPHD_EXCLUDES(mutex_);

  /// Immutable after the constructor returns (only ever joined), so reads
  /// like workers() need no lock.
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar wake_;  ///< signalled on new tasks and on stop
  std::deque<std::function<void()>> tasks_ PULPHD_GUARDED_BY(mutex_);
  bool stop_ PULPHD_GUARDED_BY(mutex_) = false;
};

/// Resolves a user-facing `threads` knob: 0 means "one per hardware thread",
/// anything else is taken literally.
std::size_t resolve_threads(std::size_t threads) noexcept;

/// Shards [0, n) across `threads * shards_per_thread` chunks on the shared
/// pool. threads <= 1 (after resolving 0 = auto) runs fn(0, n) inline on
/// the caller with no pool interaction — the single-threaded path is
/// exactly the serial loop. shards_per_thread > 1 oversubscribes the shard
/// count so the pool's caller-helps scheduling load-balances uneven items
/// (e.g. trials of different lengths); shard boundaries never affect
/// results, every chunk writes only its own slots.
void parallel_shards(std::size_t threads, std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t shards_per_thread = 1);

}  // namespace pulphd
