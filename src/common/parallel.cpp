#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace pulphd {

namespace {

/// The first exception any thread of one parallel_shards call threw.
class FirstError {
 public:
  void keep(std::exception_ptr error) PULPHD_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (!error_) error_ = std::move(error);
  }

  void rethrow_if_any() PULPHD_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  Mutex mutex_;
  std::exception_ptr error_ PULPHD_GUARDED_BY(mutex_);
};

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t resolve_threads(std::size_t threads) noexcept {
  return threads == 0 ? hardware_threads() : threads;
}

void parallel_shards(std::size_t threads, std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t t = std::min({resolve_threads(threads), n, hardware_threads()});
  if (t <= 1) {
    if (n > 0) fn(0, n);
    return;
  }
  std::atomic<std::size_t> next{0};
  FirstError first_error;
  const auto claim_until_done = [&] {
    try {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i, i + 1);
    } catch (...) {
      next.store(n);  // no further claims
      first_error.keep(std::current_exception());
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(t - 1);
    try {
      for (std::size_t k = 1; k < t; ++k) helpers.emplace_back(claim_until_done);
    } catch (...) {
      next.store(n);  // the helpers already started stop, and join on unwind
      throw;
    }
    claim_until_done();
  }  // joins every helper
  first_error.rethrow_if_any();
}

}  // namespace pulphd
