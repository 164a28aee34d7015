// Item memory (IM) and continuous item memory (CIM) — §2.1.1.
//
// The IM maps discrete symbols (channel names) to i.i.d. random seed
// hypervectors, mutually quasi-orthogonal. The CIM maps an analog value
// range onto a chain of hypervectors whose endpoints are exactly orthogonal
// (Hamming distance D/2) and whose intermediate levels interpolate linearly:
// level l differs from level 0 in l * (D/2) / (L-1) components. Both stay
// fixed after construction and "serve as seeds from which further
// representations are made".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hd/hypervector.hpp"

namespace pulphd::hd {

/// Item memory: `count` quasi-orthogonal random hypervectors.
class ItemMemory {
 public:
  /// Draws `count` random hypervectors of `dim` components from `seed`.
  ItemMemory(std::size_t count, std::size_t dim, std::uint64_t seed);

  std::size_t size() const noexcept { return items_.size(); }
  std::size_t dim() const noexcept { return dim_; }

  const Hypervector& at(std::size_t index) const;
  const std::vector<Hypervector>& items() const noexcept { return items_; }

  /// Total footprint of the packed matrix in bytes (paper §3 reports the
  /// IM of the EMG task as a 4x313 word matrix = 5 kB).
  std::size_t footprint_bytes() const noexcept;

 private:
  std::size_t dim_;
  std::vector<Hypervector> items_;
};

/// Continuous item memory over the closed value range [min_value, max_value]
/// discretized into `levels` linearly spaced quantization levels.
class ContinuousItemMemory {
 public:
  /// levels must be >= 2 and min_value < max_value.
  /// Construction: draw a random endpoint V_0, then flip a fresh slice of
  /// ceil((D/2)/(L-1)) randomly chosen positions per level so that
  /// d(V_0, V_l) grows linearly and d(V_0, V_{L-1}) ~= D/2 (orthogonal).
  ContinuousItemMemory(std::size_t levels, std::size_t dim, double min_value,
                       double max_value, std::uint64_t seed);

  std::size_t levels() const noexcept { return items_.size(); }
  std::size_t dim() const noexcept { return dim_; }
  double min_value() const noexcept { return min_value_; }
  double max_value() const noexcept { return max_value_; }

  /// Nearest-level quantization: "a simple quantization step in which every
  /// sample is rounded to the closest integer level" (§3), halves rounding
  /// up. Values outside the range saturate at the endpoints. NaN has no
  /// level: it maps to levels(), an index level() rejects.
  std::size_t quantize(double value) const noexcept {
    const std::size_t top = items_.size() - 1;
    if (value > min_value_ && value < max_value_) {
      const double unit = (value - min_value_) / (max_value_ - min_value_);
      const double scaled = unit * static_cast<double>(top);
      // Rounds half away from zero like std::lround, without the libm
      // call: scaled lies in [0, top], so the integer conversion is trunc
      // and scaled - trunc is exact.
      const auto whole = static_cast<std::int64_t>(scaled);
      return static_cast<std::size_t>(whole) +
             (scaled - static_cast<double>(whole) >= 0.5 ? 1 : 0);
    }
    if (value <= min_value_) return 0;
    return value >= max_value_ ? top : items_.size();  // NaN compares false
  }

  /// quantize() over float inputs as levels() - 1 step points: entry k is
  /// the least float f with quantize(f) >= k + 1, so a non-NaN float's
  /// level is the number of entries it is >= (Backend::encode_samples). Exact
  /// because quantize is non-decreasing in its input: every IEEE operation
  /// in it is monotone.
  std::span<const float> thresholds() const noexcept { return thresholds_; }

  const Hypervector& level(std::size_t index) const;
  /// quantize + lookup in one step.
  const Hypervector& encode(double value) const { return level(quantize(value)); }

  const std::vector<Hypervector>& items() const noexcept { return items_; }
  std::size_t footprint_bytes() const noexcept;

 private:
  std::size_t dim_;
  double min_value_;
  double max_value_;
  std::vector<Hypervector> items_;
  std::vector<float> thresholds_;

  /// Fills thresholds_ from quantize(); the constructor calls it last.
  void find_thresholds();
};

}  // namespace pulphd::hd
