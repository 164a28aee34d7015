// Order statistics shared by the load generator's end-to-end and per-layer metrics.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a p99 needs 1000 samples and a p50 needs 20.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p < 1) among `n` samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly beyond the nearest-rank percentile `p`.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// Nearest-rank percentile of `sorted` (ascending). Throws when fewer than
/// kMinSamplesBeyond samples lie beyond it: such a percentile is one or two
/// outliers, not a property of the run.
inline double percentile(const std::vector<double>& sorted, double p) {
  if (samples_beyond(sorted.size(), p) < kMinSamplesBeyond) {
    throw std::runtime_error("percentile p" + std::to_string(p * 100) + " of " +
                             std::to_string(sorted.size()) + " samples has fewer than " +
                             std::to_string(kMinSamplesBeyond) + " samples beyond it");
  }
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

/// Median of an unsorted sample (the mean of the two middle values when
/// the count is even). Throws on an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace perfbench
