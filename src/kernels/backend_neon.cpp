// NEON backend: 128-bit lanes over the packed word matrices.
//
// Compiled only when the target architecture carries NEON (AArch64
// baseline, or ARMv7 with -mfpu=neon; see src/CMakeLists.txt) and entered
// through the dispatch after the getauxval/baseline feature check.
//
// Popcount strategy: `vcntq_u8` counts bits per byte in one instruction;
// the per-byte counts accumulate in u8 lanes for up to 31 vectors (4 words
// * 8 bits < 256 per byte lane), then one pairwise-widening chain
// (vpaddlq u8 -> u16 -> u32 -> u64) folds the block into the running u64
// accumulator.
#include <arm_neon.h>

#include "kernels/backend_registry.hpp"

#include "common/cpu_features.hpp"

namespace pulphd::kernels::detail {

namespace {

// 4 Words per 128-bit vector; byte-lane accumulators stay below 255 for 31
// vectors of at-most-8 set bits per byte.
constexpr std::size_t kWordsPerVec = 4;
constexpr std::size_t kBlockVecs = 31;

inline std::uint64_t horizontal_sum_u64(uint64x2_t v) noexcept {
  return vgetq_lane_u64(v, 0) + vgetq_lane_u64(v, 1);
}

std::uint64_t hamming_words_neon(const Word* a, const Word* b, std::size_t n) noexcept {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t w = 0;
  while (w + kWordsPerVec <= n) {
    const std::size_t vecs_left = (n - w) / kWordsPerVec;
    const std::size_t block = vecs_left < kBlockVecs ? vecs_left : kBlockVecs;
    uint8x16_t inner = vdupq_n_u8(0);
    for (std::size_t v = 0; v < block; ++v, w += kWordsPerVec) {
      const uint32x4_t va = vld1q_u32(a + w);
      const uint32x4_t vb = vld1q_u32(b + w);
      const uint8x16_t bits = vreinterpretq_u8_u32(veorq_u32(va, vb));
      inner = vaddq_u8(inner, vcntq_u8(bits));
    }
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(inner))));
  }
  std::uint64_t total = horizontal_sum_u64(acc);
  for (; w < n; ++w) {
    total += static_cast<std::uint64_t>(popcount(a[w] ^ b[w]));
  }
  return total;
}

void xor_words_neon(const Word* a, const Word* b, Word* out, std::size_t n) noexcept {
  std::size_t w = 0;
  for (; w + kWordsPerVec <= n; w += kWordsPerVec) {
    vst1q_u32(out + w, veorq_u32(vld1q_u32(a + w), vld1q_u32(b + w)));
  }
  for (; w < n; ++w) out[w] = a[w] ^ b[w];
}

void threshold_words_neon(const Word* const* rows, std::size_t num_rows,
                          std::size_t threshold, Word* out, std::size_t n) noexcept {
  // Bit-sliced vertical counter, four words per ripple (see the portable
  // kernel for the algorithm; planes live in 128-bit registers here).
  const unsigned planes = threshold_planes(num_rows);
  uint32x4_t counter[kMaxThresholdPlanes];
  std::size_t w = 0;
  for (; w + kWordsPerVec <= n; w += kWordsPerVec) {
    for (unsigned p = 0; p < planes; ++p) counter[p] = vdupq_n_u32(0);
    for (std::size_t r = 0; r < num_rows; ++r) {
      uint32x4_t carry = vld1q_u32(rows[r] + w);
      for (unsigned p = 0; p < planes; ++p) {
        const uint32x4_t next_carry = vandq_u32(counter[p], carry);
        counter[p] = veorq_u32(counter[p], carry);
        carry = next_carry;
      }
    }
    uint32x4_t gt = vdupq_n_u32(0);
    uint32x4_t eq = vdupq_n_u32(~0u);
    for (unsigned p = planes; p-- > 0;) {
      const uint32x4_t tbit = vdupq_n_u32((threshold >> p) & 1u ? ~0u : 0u);
      gt = vorrq_u32(gt, vbicq_u32(vandq_u32(eq, counter[p]), tbit));
      eq = vbicq_u32(eq, veorq_u32(counter[p], tbit));
    }
    vst1q_u32(out + w, gt);
  }
  // Sub-vector tail: the portable kernel's shared scalar per-word body.
  for (; w < n; ++w) {
    out[w] = threshold_word_scalar(rows, num_rows, threshold, planes, w);
  }
}

bool neon_supported() noexcept { return cpu_features().neon; }

}  // namespace

const Backend kNeonBackend = {
    .name = "neon",
    .vector_bits = 128,
    .supported = neon_supported,
    .hamming_words = hamming_words_neon,
    .xor_words = xor_words_neon,
    .threshold_words = threshold_words_neon,
    // The hop-block bundling kernels are the portable ones.
    .add_to_counter = add_to_counter_portable,
    .blocks_to_majority = blocks_to_majority_portable,
};

}  // namespace pulphd::kernels::detail
