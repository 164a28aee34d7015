// The MAP operation set of HD computing (§2.1 of the paper):
//
//  * Multiplication — componentwise XOR; binds two hypervectors into a
//    dissimilar product, invertible (A ^ (A ^ B) == B).
//  * Addition — componentwise majority; bundles hypervectors into a vector
//    similar to each input; ties (even operand count) are broken by a
//    "random but reproducible" extra operand (§5.1).
//  * Permutation — rho^k, a k-position rotation; makes a pseudo-orthogonal
//    vector suitable for encoding sequence position, invertible.
//
// Plus the similarity primitive: Hamming distance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hd/hypervector.hpp"

namespace pulphd::hd {

/// Binding (HD multiplication): componentwise XOR.
Hypervector bind(const Hypervector& a, const Hypervector& b);

/// Permutation rho^k: left rotation by k component positions.
Hypervector permute(const Hypervector& a, std::size_t k);

/// Componentwise majority over an odd number of hypervectors.
/// Throws std::invalid_argument when `inputs` is empty, has an even size, or
/// the dimensions disagree. For even operand counts call
/// `majority_with_tiebreak`.
Hypervector majority(std::span<const Hypervector> inputs);

/// The paper's spatial-encoder bundling rule: when the number of operands is
/// even, one extra operand — the XOR of the first two inputs, "one random
/// but reproducible hypervector" (§5.1) — is appended before taking the
/// majority; odd counts reduce to plain `majority`.
Hypervector majority_with_tiebreak(std::span<const Hypervector> inputs);

/// N-gram temporal encoding (§2.1.1):
///   G = S_0 ^ rho^1(S_1) ^ rho^2(S_2) ^ ... ^ rho^(n-1)(S_{n-1})
/// where S_0 is the *oldest* sample in the window. A single-element window
/// returns the element itself (N = 1 means no temporal encoding).
Hypervector ngram(std::span<const Hypervector> window);

/// Incremental bundler for prototype training: accumulates per-component
/// counts of 1s and thresholds at half the number of additions.
///
/// With an even number of additions, a component seeing exactly half 1s is a
/// tie; `finalize` breaks ties with the supplied tie-break hypervector
/// (deterministic given its seed), matching "ties broken at random" (§2.1)
/// while preserving reproducibility.
class BundleAccumulator {
 public:
  explicit BundleAccumulator(std::size_t dim);

  void add(const Hypervector& hv);
  /// Adds with an integer weight (>= 1); used by weighted-bundling
  /// extensions and online-learning updates.
  void add_weighted(const Hypervector& hv, std::uint32_t weight);

  std::size_t count() const noexcept { return count_; }
  std::size_t dim() const noexcept { return counts_.size(); }
  std::span<const std::uint32_t> counts() const noexcept { return counts_; }

  /// Majority threshold. `tie_break` must have the same dim; a component
  /// with counts*2 == additions takes the tie-break component's value.
  /// Throws std::logic_error when nothing was added.
  Hypervector finalize(const Hypervector& tie_break) const;

  /// Convenience: deterministic tie-break hypervector derived from `seed`.
  Hypervector finalize_seeded(std::uint64_t seed) const;

  void reset() noexcept;

 private:
  std::vector<std::uint32_t> counts_;
  std::size_t count_ = 0;
};

/// Batch distance: Hamming distance from `query` to each row of `book`, each
/// taken straight from the active backend's `hamming_words` (resolved once
/// per call). Throws std::invalid_argument if a row's dimension differs from
/// the query's. The one nearest-prototype body behind every
/// AssociativeMemory decision.
std::vector<std::size_t> hamming_to_all(const Hypervector& query,
                                        std::span<const Hypervector> book);

}  // namespace pulphd::hd
