#include "hd/item_memory.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "common/status.hpp"

namespace pulphd::hd {

ItemMemory::ItemMemory(std::size_t count, std::size_t dim, std::uint64_t seed) : dim_(dim) {
  require(count >= 1, "ItemMemory: count must be >= 1");
  require(dim >= 1, "ItemMemory: dim must be >= 1");
  Xoshiro256StarStar rng(seed);
  items_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) items_.push_back(Hypervector::random(dim, rng));
}

const Hypervector& ItemMemory::at(std::size_t index) const {
  require(index < items_.size(), "ItemMemory::at: index out of range");
  return items_[index];
}

std::size_t ItemMemory::footprint_bytes() const noexcept {
  return items_.size() * words_for_dim(dim_) * sizeof(Word);
}

ContinuousItemMemory::ContinuousItemMemory(std::size_t levels, std::size_t dim,
                                           double min_value, double max_value,
                                           std::uint64_t seed)
    : dim_(dim), min_value_(min_value), max_value_(max_value) {
  require(levels >= 2, "ContinuousItemMemory: levels must be >= 2");
  require(dim >= 2, "ContinuousItemMemory: dim must be >= 2");
  require(min_value < max_value, "ContinuousItemMemory: min_value must be < max_value");

  Xoshiro256StarStar rng(seed);
  items_.reserve(levels);
  items_.push_back(Hypervector::random(dim, rng));

  // Shuffle all component indices once; flipping disjoint consecutive slices
  // guarantees monotone linear growth of d(V_0, V_l).
  std::vector<std::uint32_t> order(dim);
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t i = dim - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_below(i + 1));
    std::swap(order[i], order[j]);
  }

  const std::size_t total_flips = dim / 2;  // endpoints end up orthogonal
  std::size_t flipped = 0;
  for (std::size_t l = 1; l < levels; ++l) {
    Hypervector next = items_.back();
    // Cumulative flip budget after level l, distributed as evenly as integer
    // arithmetic allows (Bresenham-style), so each level flips a near-equal
    // fresh slice.
    const std::size_t target = total_flips * l / (levels - 1);
    for (; flipped < target; ++flipped) next.flip_bit(order[flipped]);
    items_.push_back(std::move(next));
  }
  find_thresholds();
}

namespace {

// Floats ordered as unsigned keys: key(a) < key(b) iff a < b, for every
// non-NaN pair except -0 < +0, which quantize maps alike.
std::uint32_t float_key(float f) noexcept {
  const auto bits = std::bit_cast<std::uint32_t>(f);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

float key_float(std::uint32_t key) noexcept {
  return std::bit_cast<float>((key & 0x80000000u) != 0 ? key & 0x7fffffffu : ~key);
}

}  // namespace

void ContinuousItemMemory::find_thresholds() {
  // Bisection over the float order between -inf (level 0) and +inf (the
  // top level), against quantize itself, so the step points are exact by
  // construction rather than derived from the rounding formula.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  for (std::size_t level = 1; level < items_.size(); ++level) {
    std::uint32_t below = float_key(-kInf);  // quantize(below) < level
    std::uint32_t at = float_key(kInf);      // quantize(at) >= level
    while (at - below > 1) {
      const std::uint32_t mid = below + (at - below) / 2;
      (quantize(key_float(mid)) >= level ? at : below) = mid;
    }
    thresholds_.push_back(key_float(at));
  }
}

const Hypervector& ContinuousItemMemory::level(std::size_t index) const {
  require(index < items_.size(), "ContinuousItemMemory::level: index out of range");
  return items_[index];
}

std::size_t ContinuousItemMemory::footprint_bytes() const noexcept {
  return items_.size() * words_for_dim(dim_) * sizeof(Word);
}

}  // namespace pulphd::hd
