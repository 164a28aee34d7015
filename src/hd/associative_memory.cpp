#include "hd/associative_memory.hpp"

#include <algorithm>
#include <limits>

#include "common/status.hpp"
#include "common/thread_pool.hpp"

namespace pulphd::hd {

double AmDecision::margin(std::size_t dim) const {
  if (distances.size() < 2 || dim == 0) return 0.0;
  std::size_t best = distances[label];
  std::size_t runner_up = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < distances.size(); ++i) {
    if (i == label) continue;
    runner_up = std::min(runner_up, distances[i]);
  }
  return static_cast<double>(runner_up - best) / static_cast<double>(dim);
}

AssociativeMemory::AssociativeMemory(std::size_t classes, std::size_t dim,
                                     std::uint64_t tie_break_seed)
    : dim_(dim), tie_break_(dim) {
  require(classes >= 1, "AssociativeMemory: classes must be >= 1");
  require(dim >= 1, "AssociativeMemory: dim must be >= 1");
  Xoshiro256StarStar rng(tie_break_seed);
  tie_break_ = Hypervector::random(dim, rng);
  accumulators_.assign(classes, BundleAccumulator(dim));
  prototypes_.assign(classes, Hypervector(dim));
}

void AssociativeMemory::train(std::size_t label, const Hypervector& encoded) {
  require(label < accumulators_.size(), "AssociativeMemory::train: label out of range");
  require(encoded.dim() == dim_, "AssociativeMemory::train: dimension mismatch");
  accumulators_[label].add(encoded);
  refresh_prototype(label);
}

void AssociativeMemory::train_batch(std::size_t label, std::span<const Hypervector> encoded) {
  require(label < accumulators_.size(), "AssociativeMemory::train_batch: label out of range");
  for (const auto& hv : encoded) {
    require(hv.dim() == dim_, "AssociativeMemory::train_batch: dimension mismatch");
    accumulators_[label].add(hv);
  }
  if (!encoded.empty()) refresh_prototype(label);
}

bool AssociativeMemory::is_trained() const noexcept {
  return std::all_of(accumulators_.begin(), accumulators_.end(),
                     [](const BundleAccumulator& acc) { return acc.count() > 0; });
}

namespace {

// The one nearest-prototype body: the distance to every prototype, then the
// argmin (the lowest label wins ties).
AmDecision nearest(const Hypervector& query, std::span<const Hypervector> prototypes) {
  AmDecision decision;
  decision.distances = hamming_to_all(query, prototypes);
  const auto best = std::min_element(decision.distances.begin(), decision.distances.end());
  decision.label = static_cast<std::size_t>(best - decision.distances.begin());
  decision.distance = *best;
  return decision;
}

}  // namespace

AmDecision AssociativeMemory::classify(const Hypervector& query) const {
  check_invariant(is_trained(), "AssociativeMemory::classify: untrained classes present");
  require(query.dim() == dim_, "AssociativeMemory::classify: dimension mismatch");
  return nearest(query, prototypes_);
}

std::vector<AmDecision> AssociativeMemory::classify_batch(std::span<const Hypervector> queries,
                                                          std::size_t threads) const {
  check_invariant(is_trained(), "AssociativeMemory::classify_batch: untrained classes present");
  std::vector<AmDecision> decisions(queries.size());
  // Each shard decides only its own queries, so the result is bit-identical
  // for any thread count.
  parallel_shards(threads, queries.size(), [&](std::size_t q_begin, std::size_t q_end) {
    for (std::size_t q = q_begin; q < q_end; ++q) {
      require(queries[q].dim() == dim_,
              "AssociativeMemory::classify_batch: dimension mismatch");
      decisions[q] = nearest(queries[q], prototypes_);
    }
  });
  return decisions;
}

const Hypervector& AssociativeMemory::prototype(std::size_t label) const {
  require(label < prototypes_.size(), "AssociativeMemory::prototype: label out of range");
  return prototypes_[label];
}

std::size_t AssociativeMemory::examples(std::size_t label) const {
  require(label < accumulators_.size(), "AssociativeMemory::examples: label out of range");
  return accumulators_[label].count();
}

void AssociativeMemory::load_prototypes(std::vector<Hypervector> prototypes) {
  require(prototypes.size() == prototypes_.size(),
          "AssociativeMemory::load_prototypes: class count mismatch");
  for (std::size_t c = 0; c < prototypes.size(); ++c) {
    require(prototypes[c].dim() == dim_,
            "AssociativeMemory::load_prototypes: dimension mismatch");
    accumulators_[c].reset();
    accumulators_[c].add(prototypes[c]);
  }
  prototypes_ = std::move(prototypes);
}

std::size_t AssociativeMemory::footprint_bytes() const noexcept {
  return prototypes_.size() * words_for_dim(dim_) * sizeof(Word);
}

void AssociativeMemory::refresh_prototype(std::size_t label) {
  prototypes_[label] = accumulators_[label].finalize(tie_break_);
}

}  // namespace pulphd::hd
