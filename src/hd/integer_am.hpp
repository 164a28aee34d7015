// Integer (non-binarized) associative memory — a standard HD computing
// extension the paper's prototype thresholding leaves on the table.
//
// The binary AM thresholds each class accumulator into a single bit per
// component, discarding the vote counts. Keeping the integer accumulators
// and classifying by the best normalized dot-product against the bipolar
// query retains that information at the cost of wider memory (the
// trade-off quantified by bench_ablation_intam). Known in the literature
// as "non-binarized" or "integer" HD models; the AM footprint grows from
// D/8 to D*2 bytes per class (int16 saturating counters).
#pragma once

#include <cstdint>
#include <vector>

#include "hd/associative_memory.hpp"
#include "hd/hypervector.hpp"

namespace pulphd::hd {

class IntegerAssociativeMemory {
 public:
  IntegerAssociativeMemory(std::size_t classes, std::size_t dim);

  std::size_t classes() const noexcept { return counters_.size(); }
  std::size_t dim() const noexcept { return dim_; }

  /// Adds an encoded example: components vote +1 (bit set) or -1 into the
  /// class's bipolar counters, saturating at int16 rails.
  void train(std::size_t label, const Hypervector& encoded);

  bool is_trained() const noexcept;

  /// Classification score: sum over components of counter * (+-1 per query
  /// bit), normalized by the class's L2 norm so heavily-trained classes do
  /// not dominate. Highest score wins (ties -> lowest label).
  AmDecision classify(const Hypervector& query) const;

  /// Thresholds the counters into a plain binary AM prototype (sign bit) —
  /// for comparing both read-outs from identical training.
  Hypervector binarized_prototype(std::size_t label) const;

  std::size_t examples(std::size_t label) const;

  /// int16 counter matrix footprint (classes x dim x 2 bytes).
  std::size_t footprint_bytes() const noexcept {
    return counters_.size() * dim_ * sizeof(std::int16_t);
  }

 private:
  std::size_t dim_;
  std::vector<std::vector<std::int16_t>> counters_;
  std::vector<std::size_t> counts_;
};

}  // namespace pulphd::hd
