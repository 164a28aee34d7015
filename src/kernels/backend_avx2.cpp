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
//
// The majority runs a bit-sliced vertical counter in registers, 256
// columns per pass. The spatial encode and the hop-block count run, up to
// 32 rows, a fully unrolled Harley–Seal carry-save adder network per row
// count with the threshold fixed at compile time, about five logic ops per
// row; the encode folds an even count's tie row into the first two rows
// (their OR enters at plane 1), and the count stores its planes where the
// majority has its comparator. A ring of up to 4 blocks of up to 8 planes
// is read out by a kernel unrolled on that shape.
//
// The spatial encode runs that network over bound-table rows addressed by
// offset, one kernel per channel count up to 32: it compares 8 float
// channel values per vector against each broadcast threshold, subtracts
// the all-ones compare masks from two alternating counters, turns the
// counts into row offsets in the vector and stores them once per sample.
// Past 8 channels each row address is formed at its load rather than
// hoisted out of the word loop and spilled.
//
// The N-gram step runs once per chunk. At D = 256 the gram stays in a
// register across the chunk, and a step is two lane-permute-plus-shift
// rotations and three XORs.
//
// Only the shapes the served workloads run have a vector kernel: the
// paper point (4 channels, a ring of 4 blocks of 3 planes) and the bulk
// trials (32 channels at D = 256, N = 3, one block of 5 planes). A spatial
// encode of more than 32 channels, a ring of more than 4 blocks or of
// blocks of more than 8 planes, and the N-gram step at any D but 256 call
// the portable backend's kernel.
#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

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

// The unrolled majority kernels below are built by compile-time recursion
// over a row count fixed by a template parameter, so every row load, adder
// and comparator step is straight-line code and the counter planes stay in
// registers. always_inline keeps the counter array from being passed
// through memory between the recursion's steps.

// Carry-save adder: acc + a + b == sum + 2 * carry in every column. Leaves
// the sum in `acc` and returns the carry.
[[gnu::always_inline]] inline __m256i csa_avx2(__m256i& acc, __m256i a, __m256i b) noexcept {
  const __m256i acc_xor_a = _mm256_xor_si256(acc, a);
  const __m256i carry = _mm256_or_si256(_mm256_and_si256(acc, a), _mm256_and_si256(acc_xor_a, b));
  acc = _mm256_xor_si256(acc_xor_a, b);
  return carry;
}

// Harley–Seal: adds the 2^kLevel rows load(kFirst) ... into counter planes
// 0 .. kLevel - 1 with a tree of carry-save adders, one per row but one,
// and returns the carry of weight 2^kLevel left over.
template <unsigned kLevel, std::size_t kFirst, typename Load>
[[gnu::always_inline]] inline __m256i harley_seal_avx2(__m256i* counter,
                                                       const Load& load) noexcept {
  if constexpr (kLevel == 1) {
    return csa_avx2(counter[0], load(kFirst), load(kFirst + 1));
  } else {
    constexpr std::size_t kHalf = std::size_t{1} << (kLevel - 1);
    const __m256i low = harley_seal_avx2<kLevel - 1, kFirst>(counter, load);
    const __m256i high = harley_seal_avx2<kLevel - 1, kFirst + kHalf>(counter, load);
    return csa_avx2(counter[kLevel - 1], low, high);
  }
}

// Adds `carry` into counter planes kPlane .. kPlanes - 1 with half adders.
template <unsigned kPlane, unsigned kPlanes>
[[gnu::always_inline]] inline void ripple_fixed_avx2(__m256i* counter, __m256i carry) noexcept {
  if constexpr (kPlane < kPlanes) {
    const __m256i next_carry = _mm256_and_si256(counter[kPlane], carry);
    counter[kPlane] = _mm256_xor_si256(counter[kPlane], carry);
    ripple_fixed_avx2<kPlane + 1, kPlanes>(counter, next_carry);
  }
}

// Adds the kCount (even) rows load(kFirst) ... to the counter: one
// Harley–Seal tree per set bit of kCount, largest first, each leftover
// carry rippled in at its own weight.
template <unsigned kPlanes, std::size_t kFirst, std::size_t kCount, typename Load>
[[gnu::always_inline]] inline void add_rows_avx2(__m256i* counter, const Load& load) noexcept {
  if constexpr (kCount != 0) {
    constexpr unsigned kLevel = std::bit_width(kCount) - 1;
    constexpr std::size_t kChunk = std::size_t{1} << kLevel;
    ripple_fixed_avx2<kLevel, kPlanes>(counter, harley_seal_avx2<kLevel, kFirst>(counter, load));
    add_rows_avx2<kPlanes, kFirst + kChunk, kCount - kChunk>(counter, load);
  }
}

// count_exceeds_avx2 over planes kPlanes - 1 .. 0 with the threshold fixed:
// the columns still equal to the threshold's higher bits are `eq`, and a
// zero threshold bit admits those of them with the plane set.
template <unsigned kPlanes, std::size_t kThreshold>
[[gnu::always_inline]] inline __m256i exceeds_fixed_avx2(const __m256i* counter,
                                                         __m256i eq) noexcept {
  if constexpr (kPlanes == 0) {
    return _mm256_setzero_si256();
  } else {
    constexpr unsigned kPlane = kPlanes - 1;
    const __m256i plane = counter[kPlane];
    if constexpr (((kThreshold >> kPlane) & 1u) != 0) {
      return exceeds_fixed_avx2<kPlane, kThreshold>(counter, _mm256_and_si256(eq, plane));
    } else {
      const __m256i lower =
          exceeds_fixed_avx2<kPlane, kThreshold>(counter, _mm256_andnot_si256(plane, eq));
      return _mm256_or_si256(_mm256_and_si256(eq, plane), lower);
    }
  }
}

// The unrolled majority network of kRows rows over one vector: an odd
// kRows's last row seeds plane 0, and an even kRows's first two rows enter
// as their OR at plane 1, which counts them with §5.1's tie row
// (r0 + r1 + (r0 ^ r1) == 2 * (r0 | r1)) for one row and one XOR less. The
// other rows go through add_rows_avx2, and the comparator reads
// count > kRows / 2 in the same pass.
template <std::size_t kRows, typename Load>
[[gnu::always_inline]] inline __m256i majority_vector_fixed_avx2(const Load& load) noexcept {
  constexpr unsigned kPlanes = majority_planes(kRows);
  __m256i counter[kPlanes] = {};
  if constexpr (kRows % 2 != 0) {
    counter[0] = load(kRows - 1);
    add_rows_avx2<kPlanes, 0, kRows - 1>(counter, load);
  } else {
    counter[1] = _mm256_or_si256(load(0), load(1));
    add_rows_avx2<kPlanes, 2, kRows - 2>(counter, load);
  }
  return exceeds_fixed_avx2<kPlanes, kRows / 2>(counter, _mm256_set1_epi32(-1));
}

// Row counts up to this take an unrolled counting and spatial encode
// kernel: every spatial encode of up to 32 channels.
constexpr std::size_t kMaxUnrolledRows = 32;

// Stores the kPlanes counter planes of 256 columns at `planes` (plane
// stride n), each plane once. From zero, planes kPlanes .. num_planes - 1
// are zeroed; to accumulate, the counter adds onto the stored counts, a
// full adder per counter plane and a half adder above them.
template <unsigned kPlanes>
[[gnu::always_inline]] inline void store_counter_avx2(const __m256i* counter, Word* planes,
                                                      unsigned num_planes, bool accumulate,
                                                      std::size_t n) noexcept {
  const auto plane = [&](unsigned p) { return reinterpret_cast<__m256i*>(planes + p * n); };
  if (accumulate) {
    __m256i carry = _mm256_setzero_si256();
    for (unsigned p = 0; p < kPlanes; ++p) {
      __m256i sum = _mm256_loadu_si256(plane(p));
      carry = csa_avx2(sum, counter[p], carry);
      _mm256_storeu_si256(plane(p), sum);
    }
    for (unsigned p = kPlanes; p < num_planes; ++p) {
      const __m256i stored = _mm256_loadu_si256(plane(p));
      _mm256_storeu_si256(plane(p), _mm256_xor_si256(stored, carry));
      carry = _mm256_and_si256(stored, carry);
    }
  } else {
    for (unsigned p = 0; p < kPlanes; ++p) _mm256_storeu_si256(plane(p), counter[p]);
    for (unsigned p = kPlanes; p < num_planes; ++p) {
      _mm256_storeu_si256(plane(p), _mm256_setzero_si256());
    }
  }
}

// The unrolled counting kernel of kRows rows over the first n / 8 * 8
// words: the majority kernels' Harley–Seal network counts the rows into
// bit_width(kRows) planes in registers (an odd last row seeds plane 0), and
// store_counter_avx2 writes them out where the comparator would read them.
template <std::size_t kRows>
void count_rows_unrolled_avx2(const Word* const* rows, Word* planes, unsigned num_planes,
                              bool accumulate, std::size_t n) noexcept {
  constexpr unsigned kPlanes = std::bit_width(kRows);
  std::array<const Word*, kRows> row;
  std::copy_n(rows, kRows, row.begin());
  for (std::size_t w = 0; w + kWordsPerVec <= n; w += kWordsPerVec) {
    const auto load = [&](std::size_t r) {
      return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row[r] + w));
    };
    __m256i counter[kPlanes] = {kRows % 2 != 0 ? load(kRows - 1) : _mm256_setzero_si256()};
    add_rows_avx2<kPlanes, 0, kRows & ~std::size_t{1}>(counter, load);
    store_counter_avx2<kPlanes>(counter, planes + w, num_planes, accumulate, n);
  }
}

using CountRowsFn = void (*)(const Word* const*, Word*, unsigned, bool, std::size_t) noexcept;

template <std::size_t... kIndex>
constexpr std::array<CountRowsFn, sizeof...(kIndex)> unrolled_count_table(
    std::index_sequence<kIndex...>) {
  return {count_rows_unrolled_avx2<kIndex + 1>...};
}

// Entry r - 1 is the unrolled counting kernel of r rows.
constexpr auto kCountRowsVectors =
    unrolled_count_table(std::make_index_sequence<kMaxUnrolledRows>());

void count_rows_avx2(const Word* const* rows, std::size_t num_rows, Word* planes,
                     unsigned num_planes, bool accumulate, std::size_t n) noexcept {
  // More rows than the unrolled kernels take go kMaxUnrolledRows at a time,
  // each group after the first onto the counts the one before stored.
  for (std::size_t first = 0; first < num_rows; first += kMaxUnrolledRows) {
    const std::size_t count = std::min(num_rows - first, kMaxUnrolledRows);
    kCountRowsVectors[count - 1](rows + first, planes, num_planes, accumulate || first > 0, n);
  }
  for (std::size_t w = n - n % kWordsPerVec; w < n; ++w) {
    count_rows_word_scalar(rows, num_rows, planes, num_planes, accumulate, n, w);
  }
}

// The hop-block readout over the first n / 8 * 8 words, for a ring shape
// fixed at compile time, kBlocks blocks of kBlockPlanes planes: block 0's
// planes seed the sum, every further block is added with a full adder per
// block plane (a half adder carries on above them), and the MSB-first
// comparator and tie-break row read the sum out in the same pass. Every
// block load, adder and ripple step is straight-line code and the sum stays
// in registers.
template <std::size_t kBlocks, unsigned kBlockPlanes>
void blocks_to_majority_unrolled_avx2(const Word* blocks, std::size_t threshold,
                                      const Word* tie_break, Word* out,
                                      std::size_t n) noexcept {
  constexpr unsigned kSumPlanes = block_sum_planes(kBlocks, kBlockPlanes);
  for (std::size_t w = 0; w + kWordsPerVec <= n; w += kWordsPerVec) {
    const auto load = [&](std::size_t b, unsigned p) {
      return _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(blocks + (b * kBlockPlanes + p) * n + w));
    };
    __m256i sum[kSumPlanes] = {};
    for (unsigned p = 0; p < kBlockPlanes; ++p) sum[p] = load(0, p);
    for (std::size_t b = 1; b < kBlocks; ++b) {
      __m256i carry = _mm256_setzero_si256();
      for (unsigned p = 0; p < kBlockPlanes; ++p) carry = csa_avx2(sum[p], load(b, p), carry);
      ripple_fixed_avx2<kBlockPlanes, kSumPlanes>(sum, carry);
    }
    __m256i eq = _mm256_setzero_si256();
    __m256i gt = count_exceeds_avx2(sum, kSumPlanes, threshold, eq);
    if (tie_break != nullptr) {
      const __m256i tie = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tie_break + w));
      gt = _mm256_or_si256(gt, _mm256_and_si256(eq, tie));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w), gt);
  }
}

// Ring shapes up to this many blocks of up to this many planes take an
// unrolled readout: the paper point's 4 x 3 ring and every one-block
// trial query of up to 255 grams.
constexpr std::size_t kMaxUnrolledBlocks = 4;
constexpr unsigned kMaxUnrolledBlockPlanes = 8;

using BlocksUnrolledFn = void (*)(const Word*, std::size_t, const Word*, Word*,
                                  std::size_t) noexcept;

template <std::size_t kBlocks, std::size_t... kIndex>
constexpr std::array<BlocksUnrolledFn, sizeof...(kIndex)> unrolled_blocks_row(
    std::index_sequence<kIndex...>) {
  return {blocks_to_majority_unrolled_avx2<kBlocks, kIndex + 1>...};
}

template <std::size_t... kIndex>
constexpr std::array<std::array<BlocksUnrolledFn, kMaxUnrolledBlockPlanes>, sizeof...(kIndex)>
unrolled_blocks_table(std::index_sequence<kIndex...>) {
  return {unrolled_blocks_row<kIndex + 1>(std::make_index_sequence<kMaxUnrolledBlockPlanes>())...};
}

// Entry [b - 1][p - 1] is the unrolled readout of b blocks of p planes.
constexpr auto kBlocksUnrolled =
    unrolled_blocks_table(std::make_index_sequence<kMaxUnrolledBlocks>());

void blocks_to_majority_avx2(const Word* blocks, std::size_t num_blocks, unsigned block_planes,
                             std::size_t threshold, const Word* tie_break, Word* out,
                             std::size_t n) noexcept {
  if (num_blocks > kMaxUnrolledBlocks || block_planes > kMaxUnrolledBlockPlanes) {
    kPortableBackend.blocks_to_majority(blocks, num_blocks, block_planes, threshold, tie_break,
                                        out, n);
    return;
  }
  kBlocksUnrolled[num_blocks - 1][block_planes - 1](blocks, threshold, tie_break, out, n);
  const unsigned planes = block_sum_planes(num_blocks, block_planes);
  for (std::size_t w = n - n % kWordsPerVec; w < n; ++w) {
    out[w] = blocks_majority_word_scalar(blocks, num_blocks, block_planes, planes, n, threshold,
                                         tie_break != nullptr ? tie_break[w] : Word{0}, w);
  }
}

// The compare-and-count of the level quantizer over one vector of channel
// values: each _CMP_GE_OQ compare is -1 in the lanes that reach the
// threshold, so subtracting it counts them. Even and odd thresholds go to
// two accumulators, halving the dependent chain.
inline __m256i count_vector_avx2(__m256 v, const float* thresholds,
                                 std::size_t num_thresholds) noexcept {
  __m256i even = _mm256_setzero_si256();
  __m256i odd = _mm256_setzero_si256();
  std::size_t k = 0;
  for (; k + 2 <= num_thresholds; k += 2) {
    const __m256 ge_even = _mm256_cmp_ps(v, _mm256_broadcast_ss(thresholds + k), _CMP_GE_OQ);
    const __m256 ge_odd = _mm256_cmp_ps(v, _mm256_broadcast_ss(thresholds + k + 1), _CMP_GE_OQ);
    even = _mm256_sub_epi32(even, _mm256_castps_si256(ge_even));
    odd = _mm256_sub_epi32(odd, _mm256_castps_si256(ge_odd));
  }
  if (k < num_thresholds) {
    const __m256 ge = _mm256_cmp_ps(v, _mm256_broadcast_ss(thresholds + k), _CMP_GE_OQ);
    even = _mm256_sub_epi32(even, _mm256_castps_si256(ge));
  }
  return _mm256_add_epi32(even, odd);
}

// Writes the bound-row offsets (c * levels + level) * n of the sample's
// `channels` values to offset[0, channels rounded up to 8) and returns its
// NaN lanes, as flagged by an unordered self-compare. Eight channels per
// vector: count_vector_avx2 counts each lane's level and the offset is
// formed in the vector. A tail of fewer channels takes a masked load (its
// inactive lanes read 0.0, which is not NaN); their offsets are stored but
// never read. The products fit 32 bits because the table holds fewer than
// 2^32 words.
[[gnu::always_inline]] inline __m256 row_offsets_avx2(const float* values, std::size_t channels,
                                                      const float* thresholds,
                                                      std::size_t num_thresholds, std::size_t n,
                                                      std::uint32_t* offset) noexcept {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i levels = _mm256_set1_epi32(static_cast<int>(num_thresholds + 1));
  const __m256i row_words = _mm256_set1_epi32(static_cast<int>(n));
  __m256 nan = _mm256_setzero_ps();
  for (std::size_t c = 0; c < channels; c += 8) {
    const __m256i channel = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(c)), lane);
    const __m256i active =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(channels)), channel);
    const __m256 v = channels - c >= 8 ? _mm256_loadu_ps(values + c)
                                       : _mm256_maskload_ps(values + c, active);
    nan = _mm256_or_ps(nan, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    const __m256i row = _mm256_add_epi32(_mm256_mullo_epi32(channel, levels),
                                         count_vector_avx2(v, thresholds, num_thresholds));
    _mm256_store_si256(reinterpret_cast<__m256i*>(offset + c), _mm256_mullo_epi32(row, row_words));
  }
  return nan;
}

// The spatial encode of kChannels channels, one sample at a time: the
// sample's row offsets, then the unrolled majority network over the table
// rows they pick, 256 columns per pass, and the shared scalar body over a
// sub-vector tail.
template <std::size_t kChannels>
bool encode_samples_unrolled_avx2(const float* const* samples, std::size_t num_samples,
                                  const float* thresholds, std::size_t num_thresholds,
                                  const Word* table, Word* const* out, std::size_t n) noexcept {
  alignas(32) std::uint32_t offset[(kChannels + 7) / 8 * 8];
  const auto row = [&](std::size_t c) { return table + offset[c]; };
  __m256 nan = _mm256_setzero_ps();
  for (std::size_t s = 0; s < num_samples; ++s) {
    nan = _mm256_or_ps(
        nan, row_offsets_avx2(samples[s], kChannels, thresholds, num_thresholds, n, offset));
    Word* dst = out[s];
    std::size_t w = 0;
    for (; w + kWordsPerVec <= n; w += kWordsPerVec) {
      // Up to 8 channels the row addresses the compiler hoists out of the
      // loop stay in registers. Past that they would be spilled to the
      // stack and reloaded, so each is formed at its load instead: the
      // empty asm hides that `pass_offset` is `offset` on every pass, and
      // the compiler reads the offsets where they are used.
      const std::uint32_t* pass_offset = offset;
      if constexpr (kChannels > 8) asm("" : "+r"(pass_offset));
      const auto load = [&](std::size_t c) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(table + w + pass_offset[c]));
      };
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                          majority_vector_fixed_avx2<kChannels>(load));
    }
    for (; w < n; ++w) {
      dst[w] = majority_word_scalar(row, kChannels, majority_planes(kChannels), w);
    }
  }
  return _mm256_movemask_ps(nan) != 0;
}

using EncodeSamplesFn = bool (*)(const float* const*, std::size_t, const float*, std::size_t,
                                 const Word*, Word* const*, std::size_t) noexcept;

template <std::size_t... kIndex>
constexpr std::array<EncodeSamplesFn, sizeof...(kIndex)> unrolled_encode_table(
    std::index_sequence<kIndex...>) {
  return {encode_samples_unrolled_avx2<kIndex + 1>...};
}

// Entry c - 1 is the unrolled spatial encode of c channels.
constexpr auto kEncodeSamples =
    unrolled_encode_table(std::make_index_sequence<kMaxUnrolledRows>());

bool encode_samples_avx2(const float* const* samples, std::size_t num_samples,
                         std::size_t channels, const float* thresholds,
                         std::size_t num_thresholds, const Word* table, Word* const* out,
                         std::size_t n) noexcept {
  if (channels > kMaxUnrolledRows) {
    return kPortableBackend.encode_samples(samples, num_samples, channels, thresholds,
                                           num_thresholds, table, out, n);
  }
  return kEncodeSamples[channels - 1](samples, num_samples, thresholds, num_thresholds, table,
                                      out, n);
}

// The N-gram step of a D = 256 stream, whose rows are one vector each:
// the gram stays in a register from one row to the next. rho^{-1} is a
// 256-bit rotation down by one bit (each lane shifted down one, bit 0 of
// the next lane on top, lane 0's bit 0 wrapping to lane 7), and
// rho^{n-1} a rotation up by k = 32q + r bits (lane w takes lane
// w - q shifted up r bits and the top bits of lane w - q - 1, lanes mod 8);
// each is a lane permute plus shifts, and the step is three XORs on top.
std::size_t ngram_rows_256_avx2(NgramWindow& window, const Word* spatial, std::size_t num_rows,
                                Word* grams) noexcept {
  const auto k = static_cast<int>((window.n - 1) % 256);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i seven = _mm256_set1_epi32(7);
  const __m256i next_lane = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  const __m256i up_lane =
      _mm256_and_si256(_mm256_sub_epi32(lane, _mm256_set1_epi32(k / 32)), seven);
  const __m256i up_low_lane =
      _mm256_and_si256(_mm256_sub_epi32(up_lane, _mm256_set1_epi32(1)), seven);
  const __m128i up_bits = _mm_cvtsi32_si128(k % 32);
  const __m128i down_bits = _mm_cvtsi32_si128(32 - k % 32);  // 32 shifts a lane out whole
  const auto load = [](const Word* row) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
  };
  // The previous gram is this register, not the row ngram_rows_by_step
  // passes; before the stream's first row it is zero.
  __m256i gram = window.fill == 0 ? _mm256_setzero_si256() : load(window.prev);
  const auto step = [&](const Word*, const Word* old, const Word* spatial_row, Word* out) {
    const __m256i row = load(spatial_row);
    const __m256i x = _mm256_xor_si256(gram, load(old));
    const __m256i down = _mm256_or_si256(
        _mm256_srli_epi32(x, 1), _mm256_slli_epi32(_mm256_permutevar8x32_epi32(x, next_lane), 31));
    const __m256i up =
        _mm256_or_si256(_mm256_sll_epi32(_mm256_permutevar8x32_epi32(row, up_lane), up_bits),
                        _mm256_srl_epi32(_mm256_permutevar8x32_epi32(row, up_low_lane), down_bits));
    gram = _mm256_xor_si256(down, up);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), gram);
  };
  return ngram_rows_by_step(window, spatial, num_rows, grams, kWordsPerVec, step);
}

// The N-gram step: a D = 256 gram in a register, any other D through the
// portable backend's scalar loop.
std::size_t ngram_rows_avx2(NgramWindow& window, const Word* spatial, std::size_t num_rows,
                            Word* grams, std::size_t dim) noexcept {
  if (dim == 256) return ngram_rows_256_avx2(window, spatial, num_rows, grams);
  return kPortableBackend.ngram_rows(window, spatial, num_rows, grams, dim);
}

bool avx2_supported() noexcept { return cpu_features().avx2; }

}  // namespace

const Backend kAvx2Backend = {
    .name = "avx2",
    .vector_bits = 256,
    .supported = avx2_supported,
    .hamming_words = hamming_words_avx2,
    .count_rows = count_rows_avx2,
    .blocks_to_majority = blocks_to_majority_avx2,
    .encode_samples = encode_samples_avx2,
    .ngram_rows = ngram_rows_avx2,
};

}  // namespace pulphd::kernels::detail
