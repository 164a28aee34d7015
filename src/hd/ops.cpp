#include "hd/ops.hpp"

#include <bit>

#include "common/status.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {

Hypervector bind(const Hypervector& a, const Hypervector& b) { return a ^ b; }

Hypervector permute(const Hypervector& a, std::size_t k) { return a.rotated(k); }

namespace {

Hypervector majority_of(std::span<const Hypervector> inputs) {
  const std::size_t dim = inputs.front().dim();
  for (const auto& hv : inputs) {
    require(hv.dim() == dim, "majority: dimension mismatch among inputs");
  }
  // Bit-sliced thresholded count through the dispatched backend (vertical
  // counter planes; count > n/2 per component). Semantically identical to
  // per-bit counting — the simulated kernels implement the paper's per-bit
  // sequences and are tested bit-exact against this.
  const std::size_t n = inputs.size();
  std::vector<const Word*> rows(n);
  for (std::size_t r = 0; r < n; ++r) rows[r] = inputs[r].words().data();
  Hypervector out(dim);
  kernels::active_backend().threshold_words(rows.data(), n, n / 2,
                                            out.mutable_words().data(), out.word_count());
  return out;  // zero input padding counts stay <= n/2, so padding stays zero
}

}  // namespace

Hypervector majority(std::span<const Hypervector> inputs) {
  require(!inputs.empty(), "majority: needs at least one input");
  require(inputs.size() % 2 == 1,
          "majority: operand count must be odd (use majority_with_tiebreak)");
  return majority_of(inputs);
}

Hypervector majority_with_tiebreak(std::span<const Hypervector> inputs) {
  require(!inputs.empty(), "majority_with_tiebreak: needs at least one input");
  if (inputs.size() % 2 == 1) return majority_of(inputs);
  require(inputs.size() >= 2, "majority_with_tiebreak: even count must be >= 2");
  std::vector<Hypervector> extended(inputs.begin(), inputs.end());
  extended.push_back(inputs[0] ^ inputs[1]);  // §5.1's reproducible tie-breaker
  return majority_of(extended);
}

namespace {

// Per-thread rotation scratch for ngram: keeps the reduction allocation-free
// (beyond the returned hypervector) — rotate_into reuses this buffer for
// every rotated operand instead of materializing n-1 temporaries.
Hypervector& ngram_scratch(std::size_t dim) {
  static thread_local Hypervector scratch(1);
  if (scratch.dim() != dim) scratch = Hypervector(dim);
  return scratch;
}

}  // namespace

Hypervector ngram(std::span<const Hypervector> window) {
  require(!window.empty(), "ngram: window must not be empty");
  Hypervector out = window[0];
  if (window.size() == 1) return out;
  Hypervector& scratch = ngram_scratch(out.dim());
  for (std::size_t k = 1; k < window.size(); ++k) {
    require(window[k].dim() == out.dim(), "ngram: dimension mismatch in window");
    window[k].rotate_into(scratch, k);
    out ^= scratch;
  }
  return out;
}

BundleAccumulator::BundleAccumulator(std::size_t dim) : counts_(dim, 0u) {
  require(dim >= 1, "BundleAccumulator: dim must be >= 1");
}

void BundleAccumulator::add(const Hypervector& hv) { add_weighted(hv, 1); }

void BundleAccumulator::add_weighted(const Hypervector& hv, std::uint32_t weight) {
  require(hv.dim() == counts_.size(), "BundleAccumulator::add: dimension mismatch");
  require(weight >= 1, "BundleAccumulator::add_weighted: weight must be >= 1");
  // Word-wise walk (no per-component bounds checks): this runs once per
  // encoded N-gram during training, i.e. millions of component updates.
  const auto words = hv.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    Word word = words[w];
    const std::size_t base = w * kWordBits;
    while (word != 0) {
      const auto b = static_cast<unsigned>(std::countr_zero(word));
      counts_[base + b] += weight;
      word &= word - 1;  // clear lowest set bit
    }
  }
  count_ += weight;
}

Hypervector BundleAccumulator::finalize(const Hypervector& tie_break) const {
  check_invariant(count_ > 0, "BundleAccumulator::finalize: nothing accumulated");
  require(tie_break.dim() == counts_.size(), "BundleAccumulator::finalize: tie-break dim mismatch");
  Hypervector out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t doubled = 2ULL * counts_[i];
    if (doubled > count_) {
      out.set_bit(i, true);
    } else if (doubled == count_) {
      out.set_bit(i, tie_break.bit(i));
    }
  }
  return out;
}

Hypervector BundleAccumulator::finalize_seeded(std::uint64_t seed) const {
  Xoshiro256StarStar rng(seed);
  return finalize(Hypervector::random(counts_.size(), rng));
}

void BundleAccumulator::reset() noexcept {
  for (auto& c : counts_) c = 0;
  count_ = 0;
}

std::vector<std::size_t> hamming_to_all(const Hypervector& query,
                                        std::span<const Hypervector> book) {
  const kernels::Backend& backend = kernels::active_backend();
  const auto q = query.words();
  std::vector<std::size_t> out(book.size());
  for (std::size_t c = 0; c < book.size(); ++c) {
    require(book[c].dim() == query.dim(), "hamming_to_all: dimension mismatch");
    out[c] = static_cast<std::size_t>(
        backend.hamming_words(q.data(), book[c].words().data(), q.size()));
  }
  return out;
}

}  // namespace pulphd::hd
