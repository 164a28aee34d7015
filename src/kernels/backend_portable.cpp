// Portable SWAR backend: the always-available fallback and the bit-exact
// reference every SIMD backend is tested against. The Hamming kernel takes
// the packed words in 64-bit chunks — one popcount per two 32-bit words —
// which is the widest datapath ISO C++ guarantees; where the target lacks a
// popcount instruction the compiler's SWAR expansion costs the same either
// way. The majority kernel is a bit-sliced vertical counter over 64-bit
// word pairs the same way; the spatial encoder runs it over the bound-table
// rows its level offsets pick, and hd::majority over its inputs through
// kernels::majority_words. The AVX2 backend calls these kernels for the
// shapes it has no vector kernel for.
#include <bit>
#include <cstring>

#include "kernels/backend_registry.hpp"

namespace pulphd::kernels::detail {

namespace {

std::uint64_t hamming_words_portable(const Word* a, const Word* b, std::size_t n) noexcept {
  std::uint64_t d0 = 0, d1 = 0;
  std::size_t w = 0;
  // Two independent accumulators keep the popcount chains out of each
  // other's dependency path; the compiler vectorizes the 4-word body.
  for (; w + 4 <= n; w += 4) {
    std::uint64_t qa, qb, ra, rb;
    std::memcpy(&qa, a + w, sizeof(qa));
    std::memcpy(&ra, b + w, sizeof(ra));
    std::memcpy(&qb, a + w + 2, sizeof(qb));
    std::memcpy(&rb, b + w + 2, sizeof(rb));
    d0 += static_cast<std::uint64_t>(std::popcount(qa ^ ra));
    d1 += static_cast<std::uint64_t>(std::popcount(qb ^ rb));
  }
  for (; w < n; ++w) {
    d0 += static_cast<std::uint64_t>(popcount(a[w] ^ b[w]));
  }
  return d0 + d1;
}

// The majority of the rows row(0) ... row(num_rows - 1) over n words.
// Per pair of output words keep a 64-bit vertical counter of
// majority_planes(num_rows) planes, add each row's bits with a ripple of
// half-adders (an even row count's first two rows as their OR at plane 1,
// which counts §5.1's tie row with them), then evaluate count >
// num_rows / 2 with the bitwise MSB-first comparator. Columns are
// independent, so the pair packing only has to be the same on load and
// store (memcpy both ways). An odd last word takes the shared 32-bit scalar
// body in backend_registry.hpp. Kept out of line: inlined into
// encode_samples_portable's sample loop it ran about 10% slower.
template <typename Row>
[[gnu::noinline]] void majority_rows_portable(const Row& row, std::size_t num_rows, Word* out,
                                              std::size_t n) noexcept {
  const unsigned planes = majority_planes(num_rows);
  const std::size_t threshold = num_rows / 2;
  const std::size_t first_row = num_rows % 2 == 0 ? 2 : 0;
  std::size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    std::uint64_t counter[kMaxThresholdPlanes];
    for (unsigned p = 0; p < planes; ++p) counter[p] = 0;
    const auto load = [&](std::size_t r) {
      std::uint64_t pair;
      std::memcpy(&pair, row(r) + w, sizeof(pair));
      return pair;
    };
    const auto add = [&](std::uint64_t carry, unsigned first_plane) {
      for (unsigned p = first_plane; p < planes && carry != 0; ++p) {
        const std::uint64_t next_carry = counter[p] & carry;
        counter[p] ^= carry;
        carry = next_carry;
      }
    };
    if (first_row != 0) add(load(0) | load(1), 1);
    for (std::size_t r = first_row; r < num_rows; ++r) add(load(r), 0);
    std::uint64_t gt = 0;
    std::uint64_t eq = ~std::uint64_t{0};
    for (unsigned p = planes; p-- > 0;) {
      const std::uint64_t tbit = (threshold >> p) & 1u ? ~std::uint64_t{0} : 0;
      gt |= eq & counter[p] & ~tbit;
      eq &= ~(counter[p] ^ tbit);
    }
    std::memcpy(out + w, &gt, sizeof(gt));
  }
  if (w < n) out[w] = majority_word_scalar(row, num_rows, planes, w);
}

void count_rows_portable(const Word* const* rows, std::size_t num_rows, Word* planes,
                         unsigned num_planes, bool accumulate, std::size_t n) noexcept {
  // The vertical counter of majority_rows_portable over 64-bit word pairs,
  // started from zero or from the stored planes, with one store per plane.
  std::size_t w = 0;
  for (; w + 2 <= n; w += 2) {
    std::uint64_t counter[kMaxThresholdPlanes];
    for (unsigned p = 0; p < num_planes; ++p) {
      counter[p] = 0;
      if (accumulate) std::memcpy(&counter[p], planes + p * n + w, sizeof(counter[p]));
    }
    for (std::size_t r = 0; r < num_rows; ++r) {
      std::uint64_t carry;
      std::memcpy(&carry, rows[r] + w, sizeof(carry));
      for (unsigned p = 0; p < num_planes && carry != 0; ++p) {
        const std::uint64_t next_carry = counter[p] & carry;
        counter[p] ^= carry;
        carry = next_carry;
      }
    }
    for (unsigned p = 0; p < num_planes; ++p) {
      std::memcpy(planes + p * n + w, &counter[p], sizeof(counter[p]));
    }
  }
  if (w < n) count_rows_word_scalar(rows, num_rows, planes, num_planes, accumulate, n, w);
}

void blocks_to_majority_portable(const Word* blocks, std::size_t num_blocks,
                                 unsigned block_planes, std::size_t threshold,
                                 const Word* tie_break, Word* out, std::size_t n) noexcept {
  const unsigned sum_planes = block_sum_planes(num_blocks, block_planes);
  for (std::size_t w = 0; w < n; ++w) {
    out[w] = blocks_majority_word_scalar(blocks, num_blocks, block_planes, sum_planes, n,
                                         threshold,
                                         tie_break != nullptr ? tie_break[w] : Word{0}, w);
  }
}

// Writes each of the `channels` values' bound-row offset (c * levels +
// level) * n into offset[c], level being the number of thresholds the value
// reaches; returns true when a value is NaN. Four channels at a time,
// thresholds outside the channel loop: GCC turns the fixed four-lane
// compare-and-add into one baseline SSE2 compare per threshold with the
// counts in a register. The last channels % 4 count one at a time.
bool row_offsets_portable(const float* values, std::size_t channels, const float* thresholds,
                          std::size_t num_thresholds, std::size_t n,
                          std::uint32_t* offset) noexcept {
  constexpr std::size_t kLanes = 4;
  const std::size_t levels = num_thresholds + 1;
  bool nan = false;
  std::size_t i = 0;
  for (; i + kLanes <= channels; i += kLanes) {
    float value[kLanes];
    std::uint32_t count[kLanes] = {};
    for (std::size_t j = 0; j < kLanes; ++j) {
      value[j] = values[i + j];
      nan |= value[j] != value[j];
    }
    for (std::size_t k = 0; k < num_thresholds; ++k) {
      const float t = thresholds[k];
      for (std::size_t j = 0; j < kLanes; ++j) count[j] += value[j] >= t ? 1u : 0u;
    }
    for (std::size_t j = 0; j < kLanes; ++j) {
      offset[i + j] = static_cast<std::uint32_t>(((i + j) * levels + count[j]) * n);
    }
  }
  for (; i < channels; ++i) {
    const float value = values[i];
    nan |= value != value;
    std::uint32_t count = 0;
    for (std::size_t k = 0; k < num_thresholds; ++k) count += value >= thresholds[k] ? 1u : 0u;
    offset[i] = static_cast<std::uint32_t>((i * levels + count) * n);
  }
  return nan;
}

bool encode_samples_portable(const float* const* samples, std::size_t num_samples,
                             std::size_t channels, const float* thresholds,
                             std::size_t num_thresholds, const Word* table, Word* const* out,
                             std::size_t n) noexcept {
  std::uint32_t offset[kMaxEncodeChannels];
  bool nan = false;
  for (std::size_t s = 0; s < num_samples; ++s) {
    nan |= row_offsets_portable(samples[s], channels, thresholds, num_thresholds, n, offset);
    majority_rows_portable([&](std::size_t r) { return table + offset[r]; }, channels, out[s], n);
  }
  return nan;
}

// The sliding N-gram step
//   G_{t+1} = rho^{-1}(G_t ^ S_oldest) ^ rho^{n-1}(S_new)
// (rho^{-1} == rho^{dim-1}) in one pass over the words: XOR the expiring
// row out, shift the survivors down one component, and splice the newest
// row in at depth n-1. Word w of rho^{-1}(x) is x[w] >> 1 with bit 0 of
// x[w + 1] on top, and the last word takes bit 0 of x[0] at component
// dim - 1. Word w of rho^k(S_new), k = (n - 1) % dim = q words + r bits, is
// S_new moved up q words + r bits, OR-ed (an XOR: the two parts hold
// disjoint bits) with, below component k, the window of S_new at bit
// dim - k = a words + c bits. Padding bits the upward move brings in are
// cleared at the end. prev[w + 1] is read before gram[w] is written, so
// the two may be one row.
std::size_t ngram_rows_portable(NgramWindow& window, const Word* spatial, std::size_t num_rows,
                                Word* grams, std::size_t dim) noexcept {
  const std::size_t words = words_for_dim(dim);
  const std::size_t k = (window.n - 1) % dim;
  const std::size_t q = k / kWordBits;
  const auto r = static_cast<unsigned>(k % kWordBits);
  const std::size_t a = (dim - k) / kWordBits;
  const auto c = static_cast<unsigned>((dim - k) % kWordBits);
  const std::size_t down_words = words_for_dim(k);
  const auto top_bit = static_cast<unsigned>((dim - 1) % kWordBits);  // component dim - 1
  const auto used = static_cast<unsigned>(dim % kWordBits);
  const Word last_mask = used == 0 ? ~Word{0} : low_bits_mask(used);
  const auto step = [&](const Word* prev, const Word* old, const Word* row, Word* gram) {
    const auto window64 = [&](std::size_t i) {
      const std::uint64_t next = i + 1 < words ? row[i + 1] : 0;
      return (next << kWordBits) | row[i];
    };
    const Word wrap = (prev[0] ^ old[0]) & 1u;
    Word x = prev[0] ^ old[0];
    Word up_low = 0;  // row[w - q - 1], zero below word 0
    for (std::size_t w = 0; w < words; ++w) {
      const Word x_next = w + 1 < words ? prev[w + 1] ^ old[w + 1] : 0;
      Word g = (x >> 1) | (x_next << (kWordBits - 1));
      if (w >= q) {
        const Word up_high = row[w - q];
        g ^= static_cast<Word>(((std::uint64_t{up_high} << kWordBits) | up_low) >> (kWordBits - r));
        up_low = up_high;
      }
      if (w < down_words) g ^= static_cast<Word>(window64(a + w) >> c);
      gram[w] = g;
      x = x_next;
    }
    gram[words - 1] = (gram[words - 1] ^ (wrap << top_bit)) & last_mask;
  };
  return ngram_rows_by_step(window, spatial, num_rows, grams, words, step);
}

bool portable_supported() noexcept { return true; }

}  // namespace

const Backend kPortableBackend = {
    .name = "portable",
    .vector_bits = 64,
    .supported = portable_supported,
    .hamming_words = hamming_words_portable,
    .count_rows = count_rows_portable,
    .blocks_to_majority = blocks_to_majority_portable,
    .encode_samples = encode_samples_portable,
    .ngram_rows = ngram_rows_portable,
};

}  // namespace pulphd::kernels::detail

namespace pulphd::kernels {

void majority_words(const Word* const* rows, std::size_t num_rows, Word* out,
                    std::size_t n) noexcept {
  detail::majority_rows_portable([rows](std::size_t r) { return rows[r]; }, num_rows, out, n);
}

}  // namespace pulphd::kernels
