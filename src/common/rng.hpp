// Deterministic pseudo-random number generation for pulphd.
//
// Everything stochastic in this repository (item memories, synthetic
// datasets, SMO shuffling, fault injection) is driven by these generators so
// that every experiment is reproducible bit-for-bit from a single seed.
//
// Two generators are provided:
//  * SplitMix64 — a tiny stateless-stepping mixer, used for seeding.
//  * Xoshiro256StarStar — the workhorse generator (Blackman/Vigna), fast and
//    of high statistical quality; satisfies std::uniform_random_bit_generator
//    so it can drive <random> distributions when convenient.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string_view>

namespace pulphd {

/// SplitMix64: one 64-bit multiply-xorshift mixing step per output.
/// Primarily used to expand a user seed into the state of larger generators
/// and to derive independent stream seeds from (seed, stream-id) pairs.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent 64-bit seed for a named sub-stream.
/// Mixing in a label keeps logically distinct random streams (e.g. "im",
/// "cim", "dataset") decorrelated even when the top-level seed is shared.
std::uint64_t derive_seed(std::uint64_t root_seed, std::string_view stream_label) noexcept;

/// xoshiro256** 1.0 — 256 bits of state, period 2^256 - 1.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double next_double() noexcept;

  /// True with probability `p` (clamped to [0, 1]).
  bool next_bernoulli(double p) noexcept;

  /// Standard normal variate (Box–Muller; caches the second variate).
  double next_gaussian() noexcept;

  /// Uniform double in [lo, hi).
  double next_uniform(double lo, double hi) noexcept;

  /// 2^128 generator steps forward; use to partition one stream into
  /// non-overlapping substreams.
  void long_jump() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace pulphd
