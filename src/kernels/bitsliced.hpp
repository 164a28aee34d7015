// Bit-sliced (vertical-counter) majority — a word-parallel alternative to
// the paper's per-bit Fig. 2 sequence, included as a beyond-the-paper
// optimization study (bench_ablation_bitsliced).
//
// Instead of extracting one bit at a time, keep a vertical counter of
// ceil(log2(n+1)) bit-planes per 32-component column; each operand is added
// with a ripple of half-adders (AND + XOR per plane), and the final
// count > n/2 comparison is evaluated bitwise MSB-first. The whole word is
// processed with plain logic ops — no p.extractu/p.insert needed — so it
// runs at word rather than bit granularity on *any* core, at the price of
// `planes` live registers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "sim/core.hpp"

namespace pulphd::kernels {

struct Backend;

/// Componentwise majority of an odd number of packed rows over [begin, end),
/// charged as the bit-sliced instruction sequence. Bit-exact with
/// majority_range_generic / hd::majority.
void majority_range_bitsliced(sim::CoreContext& ctx,
                              std::span<const std::span<const Word>> rows,
                              std::span<Word> out, std::size_t begin, std::size_t end);

/// Host-side saturating bit-sliced counter bundle — the per-window
/// accumulator of hd::StreamingEncoder. Rows stream in one at a time
/// through the dispatched Backend::accumulate_counters kernel into
/// plane-major vertical-counter storage; `majority()` reads the bundled
/// hypervector back out through Backend::counters_to_majority. Bit-exact
/// with hd::BundleAccumulator over the same rows (verified in tests), at
/// word rather than set-bit granularity and with O(planes * words) state
/// instead of O(dim) 32-bit counts.
class CounterBundle {
 public:
  /// Prepares (and zeroes) planes wide enough for up to `expected_adds`
  /// additions over rows of `words` packed words. Reuses the existing
  /// buffer when large enough, so a reset per trial is allocation-free
  /// after warmup.
  void reset(std::size_t words, std::size_t expected_adds);

  /// Accumulates one packed row of `words()` words. Adding more rows than
  /// `reset` provisioned saturates the affected columns and (because the
  /// readout threshold would no longer fit the planes) makes majority()
  /// throw — size reset() to the exact add count, as StreamingEncoder
  /// does.
  void add(const Backend& backend, const Word* row);

  std::size_t words() const noexcept { return words_; }
  unsigned planes() const noexcept { return num_planes_; }
  std::size_t adds() const noexcept { return adds_; }

  /// Majority readout over everything added: out bit = column count >
  /// adds()/2. With an even add count exact ties take the `tie_break` bit
  /// (must be non-null then); with an odd count ties are impossible and
  /// tie_break may be null. Requires adds() >= 1; out must hold words()
  /// words.
  void majority(const Backend& backend, const Word* tie_break, Word* out) const;

 private:
  std::vector<Word> planes_;
  std::size_t words_ = 0;
  unsigned num_planes_ = 0;
  std::size_t adds_ = 0;
};

}  // namespace pulphd::kernels
