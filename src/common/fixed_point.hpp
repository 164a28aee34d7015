// Minimal Q-format fixed-point arithmetic.
//
// The paper's SVM baseline runs in fixed point on the ARM Cortex-M4
// ("a fixed-point approach is used to avoid all the computation needed to be
// executed in the floating-point", §4.1, citing [13]). Q15 (1 sign bit,
// 15 fractional bits in an int16) is the conventional CMSIS-DSP format for
// that class of kernels, with int32/Q31 accumulators.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace pulphd {

/// Value stored as round(x * 2^15) in an int16, saturating at the rails.
class Q15 {
 public:
  static constexpr int kFracBits = 15;
  static constexpr std::int32_t kOne = 1 << kFracBits;

  constexpr Q15() noexcept = default;

  /// Converts from double with rounding and saturation.
  static constexpr Q15 from_double(double x) noexcept {
    const double scaled = x * static_cast<double>(kOne);
    const double rounded = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
    return Q15(saturate(static_cast<std::int64_t>(rounded)));
  }

  constexpr std::int16_t raw() const noexcept { return value_; }
  constexpr double to_double() const noexcept {
    return static_cast<double>(value_) / static_cast<double>(kOne);
  }

  friend constexpr Q15 operator+(Q15 a, Q15 b) noexcept {
    return Q15(saturate(static_cast<std::int32_t>(a.value_) + b.value_));
  }
  friend constexpr Q15 operator-(Q15 a, Q15 b) noexcept {
    return Q15(saturate(static_cast<std::int32_t>(a.value_) - b.value_));
  }
  /// Q15 × Q15 → Q15 with rounding (the SMULBB + rounding-shift idiom).
  friend constexpr Q15 operator*(Q15 a, Q15 b) noexcept {
    const std::int32_t prod = static_cast<std::int32_t>(a.value_) * b.value_;
    return Q15(saturate((prod + (1 << (kFracBits - 1))) >> kFracBits));
  }
  friend constexpr bool operator==(Q15 a, Q15 b) noexcept = default;
  friend constexpr auto operator<=>(Q15 a, Q15 b) noexcept = default;

 private:
  explicit constexpr Q15(std::int32_t v) noexcept : value_(static_cast<std::int16_t>(v)) {}

  static constexpr std::int32_t saturate(std::int64_t v) noexcept {
    return static_cast<std::int32_t>(
        std::clamp<std::int64_t>(v, std::numeric_limits<std::int16_t>::min(),
                                 std::numeric_limits<std::int16_t>::max()));
  }

  std::int16_t value_ = 0;
};

/// Wide multiply-accumulate: acc += a*b without intermediate Q15 rounding.
/// Matches the Cortex-M4 SMLABB pattern used by fixed-point dot products.
constexpr std::int64_t q15_mac(std::int64_t acc, Q15 a, Q15 b) noexcept {
  return acc + static_cast<std::int64_t>(a.raw()) * b.raw();
}

/// Converts a Q30 accumulator (sum of Q15×Q15 products) back to double.
constexpr double q30_to_double(std::int64_t acc) noexcept {
  return static_cast<double>(acc) / static_cast<double>(1LL << 30);
}

}  // namespace pulphd
