// AVX2 backend: 256-bit lanes over the packed word matrices.
//
// This translation unit is compiled with -mavx2 (see src/CMakeLists.txt)
// and only ever entered through the dispatch after a runtime CPUID check,
// so the compiler is free to emit AVX2 everywhere here — including the
// scalar tails, whose std::popcount becomes a real POPCNT (AVX2-class CPUs
// all have it) and stays bit-identical to the portable SWAR tail.
//
// Popcount strategy: the vpshufb nibble-LUT — split each byte into two
// nibbles, look both up in a 16-entry bit-count table, add. Per-byte counts
// accumulate in a vector of u8 lanes for up to 31 iterations (8 words * 31
// < 256 per byte lane), then vpsadbw folds them into four u64 lanes. For
// the paper's 313/314-word rows this is one vpsadbw per row — the whole
// distance inner loop runs ~4 instructions per 32 bytes.
#include <immintrin.h>

#include <iterator>

#include "kernels/backend_registry.hpp"

#include "common/cpu_features.hpp"

namespace pulphd::kernels::detail {

namespace {

inline __m256i popcount_epi8(__m256i v) noexcept {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
                                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
}

inline std::uint64_t horizontal_sum_epi64(__m256i v) noexcept {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

// 8 Words per 256-bit vector; byte-lane accumulators stay below 255 for 31
// vectors of at-most-8 set bits per byte.
constexpr std::size_t kWordsPerVec = 8;
constexpr std::size_t kBlockVecs = 31;

std::uint64_t hamming_words_avx2(const Word* a, const Word* b, std::size_t n) noexcept {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  while (w + kWordsPerVec <= n) {
    const std::size_t vecs_left = (n - w) / kWordsPerVec;
    const std::size_t block = vecs_left < kBlockVecs ? vecs_left : kBlockVecs;
    __m256i inner = _mm256_setzero_si256();
    for (std::size_t v = 0; v < block; ++v, w += kWordsPerVec) {
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
      const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
      inner = _mm256_add_epi8(inner, popcount_epi8(_mm256_xor_si256(va, vb)));
    }
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(inner, _mm256_setzero_si256()));
  }
  std::uint64_t total = horizontal_sum_epi64(acc);
  for (; w < n; ++w) {
    total += static_cast<std::uint64_t>(popcount(a[w] ^ b[w]));
  }
  return total;
}

void xor_words_avx2(const Word* a, const Word* b, Word* out, std::size_t n) noexcept {
  std::size_t w = 0;
  for (; w + kWordsPerVec <= n; w += kWordsPerVec) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), _mm256_xor_si256(va, vb));
  }
  for (; w < n; ++w) out[w] = a[w] ^ b[w];
}

// Adds `carry` into the counter planes from plane `first` up with a
// ripple of half-adders.
inline void ripple_avx2(__m256i* counter, unsigned first, unsigned planes,
                        __m256i carry) noexcept {
  for (unsigned p = first; p < planes; ++p) {
    const __m256i next_carry = _mm256_and_si256(counter[p], carry);
    counter[p] = _mm256_xor_si256(counter[p], carry);
    carry = next_carry;
  }
}

// The MSB-first comparator of the bit-sliced readouts, 256 columns at a
// time (see count_exceeds in backend_registry.hpp): returns the columns
// whose count exceeds `threshold` and leaves the equal ones in `eq`.
inline __m256i count_exceeds_avx2(const __m256i* counter, unsigned planes,
                                  std::size_t threshold, __m256i& eq) noexcept {
  __m256i gt = _mm256_setzero_si256();
  eq = _mm256_set1_epi32(-1);
  for (unsigned p = planes; p-- > 0;) {
    const __m256i tbit = (threshold >> p) & 1u ? _mm256_set1_epi32(-1) : _mm256_setzero_si256();
    gt = _mm256_or_si256(gt, _mm256_andnot_si256(tbit, _mm256_and_si256(eq, counter[p])));
    eq = _mm256_andnot_si256(_mm256_xor_si256(counter[p], tbit), eq);
  }
  return gt;
}

// The vector body of threshold_words_avx2 over the first n / 8 * 8 words:
// the bit-sliced vertical counter of the portable kernel, eight words per
// pass, so one pass over the rows updates 256 output components at once.
// Rows are added two at a time: a full adder sums both with plane 0 and
// the carry ripples up from plane 1; an odd last row takes the plain
// half-adder ripple. Counts are exact either way, so the output matches
// the portable kernel bit for bit. kPlanes > 0 fixes the plane count at
// compile time, which keeps the counter in registers; kPlanes == 0 reads
// it from num_rows.
template <unsigned kPlanes>
void threshold_vectors_avx2(const Word* const* rows, std::size_t num_rows,
                            std::size_t threshold, Word* out, std::size_t n) noexcept {
  const unsigned planes = kPlanes != 0 ? kPlanes : threshold_planes(num_rows);
  __m256i counter[kPlanes != 0 ? kPlanes : kMaxThresholdPlanes];
  for (std::size_t w = 0; w + kWordsPerVec <= n; w += kWordsPerVec) {
    for (unsigned p = 0; p < planes; ++p) counter[p] = _mm256_setzero_si256();
    std::size_t r = 0;
    for (; r + 2 <= num_rows; r += 2) {
      const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + w));
      const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r + 1] + w));
      const __m256i a_xor_b = _mm256_xor_si256(a, b);
      const __m256i carry = _mm256_or_si256(_mm256_and_si256(a, b),
                                            _mm256_and_si256(counter[0], a_xor_b));
      counter[0] = _mm256_xor_si256(counter[0], a_xor_b);
      ripple_avx2(counter, 1, planes, carry);
    }
    if (r < num_rows) {
      ripple_avx2(counter, 0, planes,
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[r] + w)));
    }
    __m256i eq = _mm256_setzero_si256();
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w),
                        count_exceeds_avx2(counter, planes, threshold, eq));
  }
}

// threshold_vectors_avx2 by plane count: fixed counts cover up to 255
// rows (every spatial encode up to 254 channels); entry 0 takes the
// run-time count of larger bundles.
using ThresholdVectorsFn = void (*)(const Word* const*, std::size_t, std::size_t, Word*,
                                    std::size_t) noexcept;
constexpr ThresholdVectorsFn kThresholdVectors[] = {
    threshold_vectors_avx2<0>, threshold_vectors_avx2<1>, threshold_vectors_avx2<2>,
    threshold_vectors_avx2<3>, threshold_vectors_avx2<4>, threshold_vectors_avx2<5>,
    threshold_vectors_avx2<6>, threshold_vectors_avx2<7>, threshold_vectors_avx2<8>};

void threshold_words_avx2(const Word* const* rows, std::size_t num_rows,
                          std::size_t threshold, Word* out, std::size_t n) noexcept {
  const unsigned planes = threshold_planes(num_rows);
  const std::size_t entry = planes < std::size(kThresholdVectors) ? planes : 0;
  kThresholdVectors[entry](rows, num_rows, threshold, out, n);
  // Sub-vector tail: the portable kernel's shared scalar per-word body.
  for (std::size_t w = n - n % kWordsPerVec; w < n; ++w) {
    out[w] = threshold_word_scalar(rows, num_rows, threshold, planes, w);
  }
}

// The vector body of add_to_counter_avx2 over the first n / 8 * 8 words:
// the row ripples through every plane, 256 columns per pass, with no
// early exit — the plane count, not the data, sets the work, so the loop
// has no data-dependent branch. kPlanes > 0 fixes the plane count at
// compile time; kPlanes == 0 reads it from num_planes.
template <unsigned kPlanes>
void add_to_counter_vectors_avx2(const Word* row, Word* planes, unsigned num_planes,
                                 std::size_t n) noexcept {
  const unsigned count = kPlanes != 0 ? kPlanes : num_planes;
  for (std::size_t w = 0; w + kWordsPerVec <= n; w += kWordsPerVec) {
    __m256i carry = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w));
    for (unsigned p = 0; p < count; ++p) {
      Word* plane_w = planes + p * n + w;
      const __m256i plane = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane_w));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(plane_w), _mm256_xor_si256(plane, carry));
      carry = _mm256_and_si256(plane, carry);
    }
  }
}

// add_to_counter_vectors_avx2 by plane count: fixed counts cover blocks of
// up to 255 grams; entry 0 takes the run-time count of larger blocks.
using AddToCounterFn = void (*)(const Word*, Word*, unsigned, std::size_t) noexcept;
constexpr AddToCounterFn kAddToCounterVectors[] = {
    add_to_counter_vectors_avx2<0>, add_to_counter_vectors_avx2<1>,
    add_to_counter_vectors_avx2<2>, add_to_counter_vectors_avx2<3>,
    add_to_counter_vectors_avx2<4>, add_to_counter_vectors_avx2<5>,
    add_to_counter_vectors_avx2<6>, add_to_counter_vectors_avx2<7>,
    add_to_counter_vectors_avx2<8>};

void add_to_counter_avx2(const Word* row, Word* planes, unsigned num_planes,
                         std::size_t n) noexcept {
  const std::size_t entry = num_planes < std::size(kAddToCounterVectors) ? num_planes : 0;
  kAddToCounterVectors[entry](row, planes, num_planes, n);
  for (std::size_t w = n - n % kWordsPerVec; w < n; ++w) {
    add_to_counter_word_scalar(row[w], planes, num_planes, n, w);
  }
}

// The vector body of blocks_to_majority_avx2 over the first n / 8 * 8
// words: block 0's planes seed a kSumPlanes-deep sum in registers, every
// further block is added with a full adder per block plane (a half adder
// carries on above them), and the MSB-first comparator and tie-break row
// read the sum out in the same pass, 256 columns at a time. kSumPlanes > 0
// fixes the sum's plane count at compile time; kSumPlanes == 0 derives it
// from the block shape.
template <unsigned kSumPlanes>
void blocks_to_majority_vectors_avx2(const Word* blocks, std::size_t num_blocks,
                                     unsigned block_planes, std::size_t threshold,
                                     const Word* tie_break, Word* out, std::size_t n) noexcept {
  const unsigned planes =
      kSumPlanes != 0 ? kSumPlanes : block_sum_planes(num_blocks, block_planes);
  const std::size_t block_stride = block_planes * n;
  __m256i sum[kSumPlanes != 0 ? kSumPlanes : kMaxThresholdPlanes];
  for (std::size_t w = 0; w + kWordsPerVec <= n; w += kWordsPerVec) {
    for (unsigned p = 0; p < planes; ++p) {
      sum[p] = p < block_planes
                   ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(blocks + p * n + w))
                   : _mm256_setzero_si256();
    }
    for (std::size_t b = 1; b < num_blocks; ++b) {
      const Word* block = blocks + b * block_stride + w;
      __m256i carry = _mm256_setzero_si256();
      for (unsigned p = 0; p < planes; ++p) {
        if (p < block_planes) {
          const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + p * n));
          const __m256i half = _mm256_xor_si256(sum[p], x);
          const __m256i next_carry =
              _mm256_or_si256(_mm256_and_si256(sum[p], x), _mm256_and_si256(half, carry));
          sum[p] = _mm256_xor_si256(half, carry);
          carry = next_carry;
        } else {
          const __m256i next_carry = _mm256_and_si256(sum[p], carry);
          sum[p] = _mm256_xor_si256(sum[p], carry);
          carry = next_carry;
        }
      }
    }
    __m256i eq = _mm256_setzero_si256();
    __m256i gt = count_exceeds_avx2(sum, planes, threshold, eq);
    if (tie_break != nullptr) {
      const __m256i tie = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tie_break + w));
      gt = _mm256_or_si256(gt, _mm256_and_si256(eq, tie));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), gt);
  }
}

// blocks_to_majority_vectors_avx2 by the sum's plane count: fixed counts
// cover windows of up to 255 grams; entry 0 takes larger sums.
using BlocksToMajorityFn = void (*)(const Word*, std::size_t, unsigned, std::size_t,
                                    const Word*, Word*, std::size_t) noexcept;
constexpr BlocksToMajorityFn kBlocksToMajorityVectors[] = {
    blocks_to_majority_vectors_avx2<0>, blocks_to_majority_vectors_avx2<1>,
    blocks_to_majority_vectors_avx2<2>, blocks_to_majority_vectors_avx2<3>,
    blocks_to_majority_vectors_avx2<4>, blocks_to_majority_vectors_avx2<5>,
    blocks_to_majority_vectors_avx2<6>, blocks_to_majority_vectors_avx2<7>,
    blocks_to_majority_vectors_avx2<8>};

void blocks_to_majority_avx2(const Word* blocks, std::size_t num_blocks, unsigned block_planes,
                             std::size_t threshold, const Word* tie_break, Word* out,
                             std::size_t n) noexcept {
  const unsigned planes = block_sum_planes(num_blocks, block_planes);
  const std::size_t entry = planes < std::size(kBlocksToMajorityVectors) ? planes : 0;
  kBlocksToMajorityVectors[entry](blocks, num_blocks, block_planes, threshold, tie_break, out,
                                  n);
  for (std::size_t w = n - n % kWordsPerVec; w < n; ++w) {
    out[w] = blocks_majority_word_scalar(blocks, num_blocks, block_planes, planes, n, threshold,
                                         tie_break != nullptr ? tie_break[w] : Word{0}, w);
  }
}

bool avx2_supported() noexcept { return cpu_features().avx2; }

}  // namespace

const Backend kAvx2Backend = {
    .name = "avx2",
    .vector_bits = 256,
    .supported = avx2_supported,
    .hamming_words = hamming_words_avx2,
    .xor_words = xor_words_avx2,
    .threshold_words = threshold_words_avx2,
    .add_to_counter = add_to_counter_avx2,
    .blocks_to_majority = blocks_to_majority_avx2,
};

}  // namespace pulphd::kernels::detail
