#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <memory>

#include "common/status.hpp"
#include "common/sync.hpp"

namespace pulphd {

namespace {

/// Join state of one parallel_for call: shards left, first error seen.
struct Batch {
  Mutex mutex;
  CondVar done;
  std::size_t pending PULPHD_GUARDED_BY(mutex) = 0;
  std::exception_ptr error PULPHD_GUARDED_BY(mutex);
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && tasks_.empty()) wake_.wait(lock);
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t shards,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
  require(static_cast<bool>(fn), "ThreadPool::parallel_for: fn must not be empty");
  if (n == 0) return;
  shards = std::clamp<std::size_t>(shards, 1, n);
  const std::size_t base = n / shards;
  const std::size_t extra = n % shards;  // first `extra` shards get one more
  if (shards == 1) {
    fn(0, n);
    return;
  }
  if (workers_.empty()) {
    // No workers to hand shards to (e.g. a single-core host): run the same
    // shards sequentially so shard boundaries — and therefore results —
    // match the concurrent execution exactly.
    std::size_t begin = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t end = begin + base + (s < extra ? 1 : 0);
      fn(begin, end);
      begin = end;
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  {
    const MutexLock batch_lock(batch->mutex);
    batch->pending = shards;
  }
  {
    const MutexLock lock(mutex_);
    std::size_t begin = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t end = begin + base + (s < extra ? 1 : 0);
      tasks_.emplace_back([fn, batch, begin, end] {
        try {
          fn(begin, end);
        } catch (...) {
          const MutexLock batch_lock(batch->mutex);
          if (!batch->error) batch->error = std::current_exception();
        }
        {
          const MutexLock batch_lock(batch->mutex);
          --batch->pending;
        }
        batch->done.notify_all();
      });
      begin = end;
    }
  }
  wake_.notify_all();

  // The caller helps drain the queue instead of idling; this also makes
  // nested parallel_for calls from inside a shard deadlock-free (the nested
  // caller keeps executing tasks until its own batch completes). It stops
  // as soon as its own batch is done so a small batch never rides out a
  // large task that a concurrent caller enqueued; any of its shards still
  // running on workers are awaited below.
  for (;;) {
    {
      const MutexLock batch_lock(batch->mutex);
      if (batch->pending == 0) break;
    }
    std::function<void()> task;
    {
      const MutexLock lock(mutex_);
      if (tasks_.empty()) break;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }

  MutexLock lock(batch->mutex);
  while (batch->pending != 0) batch->done.wait(lock);
  if (batch->error) std::rethrow_exception(batch->error);
}

std::size_t ThreadPool::hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(hardware_threads() - 1);
  return pool;
}

std::size_t resolve_threads(std::size_t threads) noexcept {
  return threads == 0 ? ThreadPool::hardware_threads() : threads;
}

void parallel_shards(std::size_t threads, std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& fn,
                     std::size_t shards_per_thread) {
  threads = resolve_threads(threads);
  if (threads <= 1 || n <= 1) {
    if (n > 0) fn(0, n);
    return;
  }
  if (shards_per_thread < 1) shards_per_thread = 1;
  // parallel_for clamps the shard count to n, so oversubscription can never
  // produce empty shards.
  ThreadPool::shared().parallel_for(n, threads * shards_per_thread, fn);
}

}  // namespace pulphd
