// Private registry glue between backend.cpp and the per-ISA backend
// translation units. Not installed; include only from src/kernels.
//
// The AVX2 descriptor exists exactly when its TU is compiled (the CMake
// x86 check defines PULPHD_HAVE_AVX2 for the whole library). The
// *_word_scalar functions are the single scalar bodies the portable kernels
// and the AVX2 backend's sub-vector tail share, so tail bits can never
// diverge from the reference.
#pragma once

#include <algorithm>

#include "kernels/backend.hpp"

namespace pulphd::kernels::detail {

extern const Backend kPortableBackend;
#if defined(PULPHD_HAVE_AVX2)
extern const Backend kAvx2Backend;
#endif

/// Counter planes needed by the bit-sliced counting kernels: enough for
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

/// Counter planes of kernels::majority_words over `num_rows` rows: enough
/// for the num_rows | 1 counted rows (an even count adds the tie row).
constexpr unsigned majority_planes(std::size_t num_rows) noexcept {
  return threshold_planes(num_rows | 1u);
}

/// One output word of the majority kernels (kernels::majority_words and
/// Backend::encode_samples): a vertical counter of `planes` ripple-added
/// planes over word `w` of the rows row(0) ... row(num_rows - 1), then
/// count_exceeds against num_rows / 2. An even row count adds §5.1's tie
/// row row(0) ^ row(1) too, folded into the first two rows' count as
/// r0 + r1 + (r0 ^ r1) == 2 * (r0 | r1): their OR enters at plane 1.
template <typename Row>
inline Word majority_word_scalar(const Row& row, std::size_t num_rows, unsigned planes,
                                 std::size_t w) noexcept {
  Word counter[kMaxThresholdPlanes];
  for (unsigned p = 0; p < planes; ++p) counter[p] = 0;
  const auto add = [&](Word carry, unsigned first_plane) {
    for (unsigned p = first_plane; p < planes && carry != 0; ++p) {
      const Word next_carry = counter[p] & carry;
      counter[p] ^= carry;
      carry = next_carry;
    }
  };
  const std::size_t first_row = num_rows % 2 == 0 ? 2 : 0;
  if (first_row != 0) add(row(0)[w] | row(1)[w], 1);
  for (std::size_t r = first_row; r < num_rows; ++r) add(row(r)[w], 0);
  Word eq = 0;
  return count_exceeds(counter, planes, num_rows / 2, eq);
}

/// One word column of Backend::count_rows: a vertical counter of
/// `num_planes` planes, zero or loaded from the plane-major counter (plane
/// stride = n words) when `accumulate`, ripple-adds word `w` of every row
/// and is stored back.
inline void count_rows_word_scalar(const Word* const* rows, std::size_t num_rows, Word* planes,
                                   unsigned num_planes, bool accumulate, std::size_t stride,
                                   std::size_t w) noexcept {
  Word counter[kMaxThresholdPlanes];
  for (unsigned p = 0; p < num_planes; ++p) counter[p] = accumulate ? planes[p * stride + w] : 0;
  for (std::size_t r = 0; r < num_rows; ++r) {
    Word carry = rows[r][w];
    for (unsigned p = 0; p < num_planes && carry != 0; ++p) {
      const Word next_carry = counter[p] & carry;
      counter[p] ^= carry;
      carry = next_carry;
    }
  }
  for (unsigned p = 0; p < num_planes; ++p) planes[p * stride + w] = counter[p];
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

/// Backend::ngram_rows over a one-row step: step(prev, old, row, gram)
/// writes the gram of `row` given the previous gram (the expiring row
/// itself, a zero row, before the stream's first gram) and the expiring
/// row; prev may be gram. The row expiring at row s is ring slot
/// (head + s) % n for s < n and the call's own row s - n after that, so
/// the ring is written once per call: its last min(num_rows, n) rows go
/// into the slots they will expire from.
template <typename Step>
std::size_t ngram_rows_by_step(NgramWindow& window, const Word* spatial, std::size_t num_rows,
                               Word* grams, std::size_t words, const Step& step) noexcept {
  const std::size_t n = window.n;
  std::size_t slot = window.head;
  std::size_t fill = window.fill;
  const Word* prev = window.prev;
  std::size_t done = 0;
  for (std::size_t s = 0; s < num_rows; ++s) {
    const Word* old = s < n ? window.ring + slot * words : spatial + (s - n) * words;
    if (s < n && ++slot == n) slot = 0;
    Word* gram = grams + done * words;
    step(fill == 0 ? old : prev, old, spatial + s * words, gram);
    prev = gram;
    if (fill < n) ++fill;
    if (fill == n) ++done;
  }
  window.fill = fill;
  window.prev = prev;
  const std::size_t first_kept = num_rows > n ? num_rows - n : 0;
  slot = (window.head + first_kept) % n;
  for (std::size_t s = first_kept; s < num_rows; ++s) {
    std::copy_n(spatial + s * words, words, window.ring + slot * words);
    if (++slot == n) slot = 0;
  }
  window.head = slot;
  return done;
}

}  // namespace pulphd::kernels::detail
