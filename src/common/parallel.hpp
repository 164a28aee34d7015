// Host-side fork-join for offline batch loops.
//
// The paper's speedups come from splitting each kernel across a parallel
// cluster's cores. The host library mirrors that only where a whole batch
// runs at once (offline encode of many trials): each call starts its own
// helper threads, they claim indices from one counter, and the call joins
// them before it returns. There is no queue and no thread outlives a call.
// The serve daemon never forks a request; its shard threads are its
// parallelism. Every index writes only its own output slot, so any thread
// count is bit-identical to the serial loop.
#pragma once

#include <cstddef>
#include <functional>

namespace pulphd {

/// Usable hardware concurrency (>= 1 even when the runtime reports 0).
std::size_t hardware_threads() noexcept;

/// Resolves a user-facing `threads` knob: 0 means "one per hardware thread",
/// anything else is taken literally.
std::size_t resolve_threads(std::size_t threads) noexcept;

/// Runs fn over [0, n) on T = min(resolve_threads(threads), n,
/// hardware_threads()) threads. T <= 1 calls fn(0, n) once, inline on the
/// caller. Otherwise the caller and T - 1 helper threads each claim the next
/// index i from one counter and call fn(i, i + 1), so trials of uneven
/// length balance themselves. The first exception stops further claims and
/// is rethrown on the caller once every thread has joined; so is a failure
/// to start a helper. fn must write only state owned by its own indices.
void parallel_shards(std::size_t threads, std::size_t n,
                     const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace pulphd
