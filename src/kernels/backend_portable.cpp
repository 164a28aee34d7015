// Portable SWAR backend: the always-available fallback and the bit-exact
// reference every SIMD backend is tested against. The Hamming kernel takes
// the packed words in 64-bit chunks — one popcount per two 32-bit words —
// which is the widest datapath ISO C++ guarantees; where the target lacks a
// popcount instruction the compiler's SWAR expansion costs the same either
// way. The threshold kernel is the bit-sliced vertical counter formerly
// inlined in hd::majority.
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

void xor_words_portable(const Word* a, const Word* b, Word* out, std::size_t n) noexcept {
  for (std::size_t w = 0; w < n; ++w) out[w] = a[w] ^ b[w];
}

void threshold_words_portable(const Word* const* rows, std::size_t num_rows,
                              std::size_t threshold, Word* out, std::size_t n) noexcept {
  // Per output word keep a vertical counter of ceil(log2(num_rows + 1))
  // planes, add each row's bits with a ripple of half-adders, then evaluate
  // count > threshold with a bitwise MSB-first comparator (the shared
  // scalar body in backend_registry.hpp).
  const unsigned planes = threshold_planes(num_rows);
  for (std::size_t w = 0; w < n; ++w) {
    out[w] = threshold_word_scalar(rows, num_rows, threshold, planes, w);
  }
}

bool portable_supported() noexcept { return true; }

}  // namespace

void add_to_counter_portable(const Word* row, Word* planes, unsigned num_planes,
                             std::size_t n) noexcept {
  for (std::size_t w = 0; w < n; ++w) {
    add_to_counter_word_scalar(row[w], planes, num_planes, n, w);
  }
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

const Backend kPortableBackend = {
    .name = "portable",
    .vector_bits = 64,
    .supported = portable_supported,
    .hamming_words = hamming_words_portable,
    .xor_words = xor_words_portable,
    .threshold_words = threshold_words_portable,
    .add_to_counter = add_to_counter_portable,
    .blocks_to_majority = blocks_to_majority_portable,
};

}  // namespace pulphd::kernels::detail
