// Associative memory (AM) — the classification stage.
//
// Holds one prototype hypervector per class ("the prototype hypervectors
// are stored in an associative memory as the learned patterns", §2.1.1).
// Classification returns the label whose prototype has minimum Hamming
// distance to the query. The AM "can be continuously updated for on-line
// learning" (§3): we keep the per-class bundling accumulators so prototypes
// can absorb new examples after deployment and be re-thresholded.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hd/ops.hpp"

namespace pulphd::hd {

/// Classification outcome: best label plus the full distance row (useful
/// for margin/confidence analyses and for tests).
struct AmDecision {
  std::size_t label = 0;
  std::size_t distance = 0;              // Hamming distance to the winner
  std::vector<std::size_t> distances;    // distance to every prototype

  /// Winner margin: runner-up distance minus winner distance, normalized by
  /// dimension. Larger is more confident; 0 means an exact tie.
  double margin(std::size_t dim) const;
};

class AssociativeMemory {
 public:
  /// Creates an AM for `classes` classes of `dim`-component prototypes.
  /// `tie_break_seed` controls the deterministic tie-break vector used when
  /// thresholding accumulators with an even number of additions.
  AssociativeMemory(std::size_t classes, std::size_t dim, std::uint64_t tie_break_seed);

  std::size_t classes() const noexcept { return accumulators_.size(); }
  std::size_t dim() const noexcept { return dim_; }

  /// Accumulates one encoded example (an N-gram/query hypervector) into the
  /// class accumulator and refreshes the stored prototype.
  void train(std::size_t label, const Hypervector& encoded);

  /// Bulk training; prototypes are re-thresholded once at the end.
  void train_batch(std::size_t label, std::span<const Hypervector> encoded);

  /// True once every class has at least one training example.
  bool is_trained() const noexcept;

  /// Nearest-prototype lookup (min Hamming distance; lowest label wins ties,
  /// which keeps results platform-independent). Throws std::logic_error if
  /// any class is still empty.
  AmDecision classify(const Hypervector& query) const;

  /// Batched nearest-prototype lookup: one decision per query, each from
  /// the same per-query body as `classify`. Throws std::invalid_argument if
  /// a query's dimension differs from dim().
  ///
  /// `threads` shards the queries across the shared host thread pool (each
  /// shard decides its own queries, so any thread count is bit-identical to
  /// the serial loop). 1 = serial on the caller, 0 = one shard per hardware
  /// thread.
  std::vector<AmDecision> classify_batch(std::span<const Hypervector> queries,
                                         std::size_t threads = 1) const;

  const Hypervector& prototype(std::size_t label) const;
  const std::vector<Hypervector>& prototypes() const noexcept { return prototypes_; }

  /// Number of examples accumulated into a class so far.
  std::size_t examples(std::size_t label) const;

  /// Replaces the stored prototypes directly (deserialization / transfer of
  /// an externally trained model). Accumulator state is reset to the given
  /// prototypes with weight 1.
  void load_prototypes(std::vector<Hypervector> prototypes);

  /// Packed matrix footprint in bytes (paper: 5x313 words ~ 7 kB with the
  /// alignment padding of the C implementation; we report the exact size).
  std::size_t footprint_bytes() const noexcept;

 private:
  void refresh_prototype(std::size_t label);

  std::size_t dim_;
  Hypervector tie_break_;
  std::vector<BundleAccumulator> accumulators_;
  std::vector<Hypervector> prototypes_;
};

}  // namespace pulphd::hd
