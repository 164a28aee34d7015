#include "hd/item_memory.hpp"

#include <algorithm>
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

ItemMemory::ItemMemory(std::vector<Hypervector> items) : dim_(0), items_(std::move(items)) {
  require(!items_.empty(), "ItemMemory: items must not be empty");
  dim_ = items_.front().dim();
  for (const auto& hv : items_) {
    require(hv.dim() == dim_, "ItemMemory: inconsistent dimensions");
  }
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
}

ContinuousItemMemory::ContinuousItemMemory(std::vector<Hypervector> levels, double min_value,
                                           double max_value)
    : dim_(0), min_value_(min_value), max_value_(max_value), items_(std::move(levels)) {
  require(items_.size() >= 2, "ContinuousItemMemory: needs >= 2 levels");
  require(min_value < max_value, "ContinuousItemMemory: min_value must be < max_value");
  dim_ = items_.front().dim();
  for (const auto& hv : items_) {
    require(hv.dim() == dim_, "ContinuousItemMemory: inconsistent dimensions");
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
