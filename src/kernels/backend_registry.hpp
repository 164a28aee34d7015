// Private registry glue between backend.cpp and the per-ISA backend
// translation units. Not installed; include only from src/kernels.
//
// The SIMD descriptors exist exactly when their TU is compiled (the CMake
// arch checks define PULPHD_HAVE_AVX2 / PULPHD_HAVE_NEON for the whole
// library). The *_word_scalar functions are the single scalar bodies the
// portable kernels and every SIMD backend's sub-vector tail share, so tail
// bits can never diverge from the reference.
#pragma once

#include "kernels/backend.hpp"

namespace pulphd::kernels::detail {

extern const Backend kPortableBackend;
#if defined(PULPHD_HAVE_AVX2)
extern const Backend kAvx2Backend;
#endif
#if defined(PULPHD_HAVE_NEON)
extern const Backend kNeonBackend;
#endif

/// Counter planes needed by the bit-sliced threshold kernels: enough for
/// any realistic row count (2^48 rows would exhaust memory long before).
inline constexpr unsigned kMaxThresholdPlanes = 48;

/// ceil(log2(num_rows + 1)), capped at kMaxThresholdPlanes.
constexpr unsigned threshold_planes(std::size_t num_rows) noexcept {
  unsigned planes = 1;
  while (planes < kMaxThresholdPlanes && (std::uint64_t{1} << planes) <= num_rows) ++planes;
  return planes;
}

/// Counter planes of a sum over `num_blocks` block counters of
/// `block_planes` planes each: enough for num_blocks * (2^block_planes - 1),
/// capped at kMaxThresholdPlanes.
constexpr unsigned block_sum_planes(std::size_t num_blocks, unsigned block_planes) noexcept {
  if (block_planes >= kMaxThresholdPlanes) return kMaxThresholdPlanes;
  const std::uint64_t block_max = (std::uint64_t{1} << block_planes) - 1;
  if (num_blocks > (std::uint64_t{1} << kMaxThresholdPlanes) / block_max) {
    return kMaxThresholdPlanes;
  }
  return threshold_planes(num_blocks * block_max);
}

/// The bitwise MSB-first comparator of every bit-sliced readout: bit b of
/// the result is set iff counter column b exceeds `threshold`; `eq` is left
/// with the columns that equal it exactly.
inline Word count_exceeds(const Word* counter, unsigned planes, std::size_t threshold,
                          Word& eq) noexcept {
  Word gt = 0;
  eq = ~Word{0};
  for (unsigned p = planes; p-- > 0;) {
    const Word tbit = (threshold >> p) & 1u ? ~Word{0} : Word{0};
    gt |= eq & counter[p] & ~tbit;
    eq &= ~(counter[p] ^ tbit);
  }
  return gt;
}

/// One output word of the bit-sliced threshold kernel: a vertical counter
/// of `planes` ripple-added planes over word `w` of every row, then
/// count_exceeds.
inline Word threshold_word_scalar(const Word* const* rows, std::size_t num_rows,
                                  std::size_t threshold, unsigned planes,
                                  std::size_t w) noexcept {
  Word counter[kMaxThresholdPlanes];
  for (unsigned p = 0; p < planes; ++p) counter[p] = 0;
  for (std::size_t r = 0; r < num_rows; ++r) {
    Word carry = rows[r][w];
    for (unsigned p = 0; p < planes && carry != 0; ++p) {
      const Word next_carry = counter[p] & carry;
      counter[p] ^= carry;
      carry = next_carry;
    }
  }
  Word eq = 0;
  return count_exceeds(counter, planes, threshold, eq);
}

/// One word column of Backend::add_to_counter: ripple the row bits through
/// every plane of the plane-major counter (plane stride = n words).
inline void add_to_counter_word_scalar(Word row_word, Word* planes, unsigned num_planes,
                                       std::size_t stride, std::size_t w) noexcept {
  Word carry = row_word;
  for (unsigned p = 0; p < num_planes; ++p) {
    Word& plane = planes[p * stride + w];
    const Word next_carry = plane & carry;
    plane ^= carry;
    carry = next_carry;
  }
}

/// One word column of Backend::blocks_to_majority: the full-adder sum of
/// every block's counter column into `sum_planes` planes, then
/// count_exceeds, with exact-tie columns taking the tie-break bits (pass 0
/// for "ties lose").
inline Word blocks_majority_word_scalar(const Word* blocks, std::size_t num_blocks,
                                        unsigned block_planes, unsigned sum_planes,
                                        std::size_t stride, std::size_t threshold,
                                        Word tie_break_word, std::size_t w) noexcept {
  Word sum[kMaxThresholdPlanes];
  for (unsigned p = 0; p < sum_planes; ++p) {
    sum[p] = p < block_planes ? blocks[p * stride + w] : Word{0};
  }
  for (std::size_t b = 1; b < num_blocks; ++b) {
    const Word* block = blocks + b * block_planes * stride;
    Word carry = 0;
    for (unsigned p = 0; p < sum_planes; ++p) {
      const Word x = p < block_planes ? block[p * stride + w] : Word{0};
      const Word half = sum[p] ^ x;
      const Word next_carry = (sum[p] & x) | (half & carry);
      sum[p] = half ^ carry;
      carry = next_carry;
    }
  }
  Word eq = 0;
  const Word gt = count_exceeds(sum, sum_planes, threshold, eq);
  return gt | (eq & tie_break_word);
}

/// The portable hop-block kernels, which the NEON backend also uses.
void add_to_counter_portable(const Word* row, Word* planes, unsigned num_planes,
                             std::size_t n) noexcept;
void blocks_to_majority_portable(const Word* blocks, std::size_t num_blocks,
                                 unsigned block_planes, std::size_t threshold,
                                 const Word* tie_break, Word* out, std::size_t n) noexcept;

}  // namespace pulphd::kernels::detail
