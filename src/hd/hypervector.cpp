#include "hd/hypervector.hpp"

#include <algorithm>
#include <numeric>

#include "common/status.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {

Hypervector::Hypervector(std::size_t dim) : dim_(dim), words_(words_for_dim(dim), 0u) {
  require(dim >= 1, "Hypervector: dim must be >= 1");
}

Hypervector::Hypervector(std::size_t dim, std::vector<Word> words)
    : dim_(dim), words_(std::move(words)) {
  require(dim >= 1, "Hypervector: dim must be >= 1");
  require(words_.size() == words_for_dim(dim),
          "Hypervector: word count does not match dimension");
  clear_padding();
}

Hypervector Hypervector::random(std::size_t dim, Xoshiro256StarStar& rng) {
  Hypervector hv(dim);
  for (auto& w : hv.words_) {
    w = static_cast<Word>(rng.next() & 0xffffffffu);
  }
  hv.clear_padding();
  return hv;
}

Hypervector Hypervector::random_balanced(std::size_t dim, Xoshiro256StarStar& rng) {
  Hypervector hv(dim);
  // Fisher–Yates selection of exactly dim/2 positions to set.
  std::vector<std::uint32_t> indices(dim);
  std::iota(indices.begin(), indices.end(), 0u);
  const std::size_t ones = dim / 2;
  for (std::size_t i = 0; i < ones; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.next_below(dim - i));
    std::swap(indices[i], indices[j]);
    hv.set_bit(indices[i], true);
  }
  return hv;
}

bool Hypervector::bit(std::size_t i) const {
  require(i < dim_, "Hypervector::bit: index out of range");
  return extract_bit(words_[i / kWordBits], static_cast<unsigned>(i % kWordBits)) != 0;
}

void Hypervector::set_bit(std::size_t i, bool value) {
  require(i < dim_, "Hypervector::set_bit: index out of range");
  words_[i / kWordBits] = insert_bit(words_[i / kWordBits],
                                     static_cast<unsigned>(i % kWordBits),
                                     value ? 1u : 0u);
}

void Hypervector::flip_bit(std::size_t i) {
  require(i < dim_, "Hypervector::flip_bit: index out of range");
  words_[i / kWordBits] ^= (Word{1} << (i % kWordBits));
}

std::size_t Hypervector::popcount() const noexcept {
  std::size_t total = 0;
  for (const Word w : words_) total += static_cast<std::size_t>(pulphd::popcount(w));
  return total;
}

std::size_t Hypervector::hamming(const Hypervector& other) const {
  require(dim_ == other.dim_, "Hypervector::hamming: dimension mismatch");
  return static_cast<std::size_t>(kernels::active_backend().hamming_words(
      words_.data(), other.words_.data(), words_.size()));
}

double Hypervector::normalized_hamming(const Hypervector& other) const {
  return static_cast<double>(hamming(other)) / static_cast<double>(dim_);
}

Hypervector Hypervector::operator^(const Hypervector& other) const {
  Hypervector out = *this;
  out ^= other;
  return out;
}

Hypervector& Hypervector::operator^=(const Hypervector& other) {
  require(dim_ == other.dim_, "Hypervector::operator^=: dimension mismatch");
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
  return *this;  // XOR of zero-padded words keeps padding zero.
}

Hypervector Hypervector::operator~() const {
  Hypervector out = *this;
  for (auto& w : out.words_) w = ~w;
  out.clear_padding();
  return out;
}

Hypervector Hypervector::rotated(std::size_t k) const {
  Hypervector out(dim_);
  rotate_into(out, k);
  return out;
}

void Hypervector::rotate_into(Hypervector& dst, std::size_t k) const {
  require(dst.dim_ == dim_, "Hypervector::rotate_into: dimension mismatch");
  require(&dst != this, "Hypervector::rotate_into: dst must not alias the source");
  k %= dim_;
  // Component i of the output takes component (i + dim - k) % dim of the
  // input, i.e. every component moves k positions towards the MSB end —
  // a left rotation in component order. It is two range copies, each
  // written a destination word at a time from a two-word window of the
  // source (rotation sits under every N-gram encode):
  //  * out[k, dim) = in[0, dim - k), the input shifted up by k;
  //  * out[0, k) = in[dim - k, dim), the input shifted down by dim - k.
  const Word* in = words_.data();
  Word* out = dst.words_.data();
  const std::size_t n = words_.size();
  // Input words i and i + 1 as one 64-bit value: a shift of it by less
  // than 64 is a 32-bit window at any bit offset, 0 included, with no
  // branch.
  const auto pair = [in](std::size_t i) {
    return (std::uint64_t{in[i + 1]} << kWordBits) | in[i];
  };
  // Up by k = q words + r bits: out[w] takes in[w - q] << r plus the top r
  // bits of in[w - q - 1]. out[q]'s low r bits stay zero for the low part.
  const std::size_t q = k / kWordBits;
  const auto r = static_cast<unsigned>(k % kWordBits);
  out[q] = in[0] << r;
  for (std::size_t w = q + 1; w < n; ++w) {
    out[w] = static_cast<Word>(pair(w - q - 1) >> (kWordBits - r));
  }
  // Down by dim - k = a words + c bits: out[w] takes the window at bit c of
  // in[a + w]. The input's padding is zero, so every bit this brings in
  // above position k is zero; out[q], shared with the upper part when
  // r != 0, takes an OR. Since a + q <= n (and < n when r != 0), only the
  // last two windows can reach past the input, where they read zero.
  const std::size_t a = (dim_ - k) / kWordBits;
  const auto c = static_cast<unsigned>((dim_ - k) % kWordBits);
  const auto last_window = [&](std::size_t i) {
    const std::uint64_t next = i + 1 < n ? in[i + 1] : 0;
    return static_cast<Word>(((next << kWordBits) | in[i]) >> c);
  };
  for (std::size_t w = 0; w + 1 < q; ++w) out[w] = static_cast<Word>(pair(a + w) >> c);
  if (q != 0) out[q - 1] = last_window(a + q - 1);
  if (r != 0) out[q] |= last_window(a + q);
  dst.clear_padding();
}

void Hypervector::clear_padding() noexcept {
  const unsigned used = static_cast<unsigned>(dim_ % kWordBits);
  if (used != 0) words_.back() &= low_bits_mask(used);
}

std::string Hypervector::to_string(std::size_t max_bits) const {
  const std::size_t n = std::min(max_bits, dim_);
  std::string out;
  out.reserve(n + 3);
  for (std::size_t i = 0; i < n; ++i) out += bit(i) ? '1' : '0';
  if (n < dim_) out += "...";
  return out;
}

}  // namespace pulphd::hd
