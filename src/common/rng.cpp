#include "common/rng.hpp"

#include <bit>
#include <cmath>

namespace pulphd {

std::uint64_t derive_seed(std::uint64_t root_seed, std::string_view stream_label) noexcept {
  // FNV-1a over the label, then mix with the root seed through SplitMix64.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : stream_label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  SplitMix64 mixer(root_seed ^ h);
  (void)mixer.next();  // discard one output to decouple from raw xor
  return mixer.next();
}

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  SplitMix64 mixer(seed);
  for (auto& word : s_) word = mixer.next();
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // consecutive zeros, but guard anyway for belt-and-braces determinism.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Xoshiro256StarStar::next() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256StarStar::next_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Xoshiro256StarStar::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Xoshiro256StarStar::next_bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Xoshiro256StarStar::next_gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box–Muller transform; u1 is kept away from zero so log() is finite.
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * 3.14159265358979323846 * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Xoshiro256StarStar::next_uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * next_double();
}

void Xoshiro256StarStar::long_jump() noexcept {
  static constexpr std::uint64_t kJump[] = {0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL,
                                            0x77710069854ee241ULL, 0x39109bb02acbe635ULL};
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (1ULL << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      (void)next();
    }
  }
  s_ = {s0, s1, s2, s3};
}

}  // namespace pulphd
