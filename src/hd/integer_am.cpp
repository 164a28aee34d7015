#include "hd/integer_am.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.hpp"

namespace pulphd::hd {

IntegerAssociativeMemory::IntegerAssociativeMemory(std::size_t classes, std::size_t dim)
    : dim_(dim),
      counters_(classes, std::vector<std::int16_t>(dim, 0)),
      counts_(classes, 0) {
  require(classes >= 1, "IntegerAssociativeMemory: classes must be >= 1");
  require(dim >= 1, "IntegerAssociativeMemory: dim must be >= 1");
}

void IntegerAssociativeMemory::train(std::size_t label, const Hypervector& encoded) {
  require(label < counters_.size(), "IntegerAssociativeMemory::train: label out of range");
  require(encoded.dim() == dim_, "IntegerAssociativeMemory::train: dimension mismatch");
  auto& row = counters_[label];
  const auto words = encoded.words();
  for (std::size_t i = 0; i < dim_; ++i) {
    const bool bit = extract_bit(words[i / kWordBits],
                                 static_cast<unsigned>(i % kWordBits)) != 0;
    const int next = row[i] + (bit ? 1 : -1);
    row[i] = static_cast<std::int16_t>(
        std::clamp<int>(next, std::numeric_limits<std::int16_t>::min(),
                        std::numeric_limits<std::int16_t>::max()));
  }
  ++counts_[label];
}

bool IntegerAssociativeMemory::is_trained() const noexcept {
  return std::all_of(counts_.begin(), counts_.end(),
                     [](std::size_t c) { return c > 0; });
}

AmDecision IntegerAssociativeMemory::classify(const Hypervector& query) const {
  check_invariant(is_trained(), "IntegerAssociativeMemory::classify: untrained classes");
  require(query.dim() == dim_, "IntegerAssociativeMemory::classify: dimension mismatch");
  const auto words = query.words();
  AmDecision decision;
  double best_score = -std::numeric_limits<double>::infinity();
  std::vector<double> scores(counters_.size());
  for (std::size_t c = 0; c < counters_.size(); ++c) {
    const auto& row = counters_[c];
    std::int64_t dot = 0;
    std::int64_t norm2 = 0;
    for (std::size_t i = 0; i < dim_; ++i) {
      const bool bit = extract_bit(words[i / kWordBits],
                                   static_cast<unsigned>(i % kWordBits)) != 0;
      dot += bit ? row[i] : -row[i];
      norm2 += static_cast<std::int64_t>(row[i]) * row[i];
    }
    const double inv_norm = norm2 > 0 ? 1.0 / std::sqrt(static_cast<double>(norm2)) : 0.0;
    scores[c] = static_cast<double>(dot) * inv_norm;
    if (scores[c] > best_score) {
      best_score = scores[c];
      decision.label = c;
    }
  }
  // Re-expressed as pseudo-distances so AmDecision keeps its convention
  // (smaller is better): d = dim * (1 - score/sqrt(dim)) / 2, clamped.
  decision.distances.resize(counters_.size());
  const double sqrt_dim = std::sqrt(static_cast<double>(dim_));
  for (std::size_t c = 0; c < counters_.size(); ++c) {
    const double cosine = std::clamp(scores[c] / sqrt_dim, -1.0, 1.0);
    decision.distances[c] =
        static_cast<std::size_t>(std::lround((1.0 - cosine) / 2.0 *
                                             static_cast<double>(dim_)));
  }
  decision.distance = decision.distances[decision.label];
  return decision;
}

Hypervector IntegerAssociativeMemory::binarized_prototype(std::size_t label) const {
  require(label < counters_.size(),
          "IntegerAssociativeMemory::binarized_prototype: label out of range");
  Hypervector out(dim_);
  const auto& row = counters_[label];
  for (std::size_t i = 0; i < dim_; ++i) {
    if (row[i] > 0) out.set_bit(i, true);
  }
  return out;
}

std::size_t IntegerAssociativeMemory::examples(std::size_t label) const {
  require(label < counts_.size(), "IntegerAssociativeMemory::examples: label out of range");
  return counts_[label];
}

}  // namespace pulphd::hd
