// End-to-end HD classifier: CIM/IM mapping -> spatial encoder -> temporal
// encoder -> associative memory, exactly the processing chain of Fig. 1.
//
// This is the host-side golden model ("implement and validate ... on MATLAB
// to establish a golden model to follow", §4.1). The simulated PULP kernels
// in src/kernels reproduce its outputs bit-exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hd/associative_memory.hpp"
#include "hd/encoder.hpp"
#include "hd/item_memory.hpp"

namespace pulphd::hd {

/// One time-aligned multichannel sample (one physical value per channel).
using Sample = std::vector<float>;
/// A trial: consecutive samples of one labeled event (e.g. one 3 s gesture).
using Trial = std::vector<Sample>;

struct ClassifierConfig {
  std::size_t dim = 10000;       ///< hypervector dimensionality D
  std::size_t channels = 4;      ///< input channels (EMG electrodes)
  std::size_t levels = 22;       ///< CIM quantization levels (EMG: 0..21 mV)
  double min_value = 0.0;        ///< CIM range lower endpoint
  double max_value = 21.0;       ///< CIM range upper endpoint
  std::size_t ngram = 1;         ///< temporal window N (EMG: 1, EEG: up to 29)
  std::size_t classes = 5;       ///< output classes (4 gestures + rest)
  std::uint64_t seed = 0x9d1feed5ULL;  ///< master seed
  /// Host threads for the batch encode path, encode_trials (a runtime
  /// knob, not part of the model — never serialized). 1 = serial, 0 = one
  /// per hardware thread. Any value yields bit-identical results.
  std::size_t threads = 1;

  /// Validates ranges; throws std::invalid_argument on nonsense.
  void validate() const;
};

/// Aggregate memory footprint of the trained model matrices, in bytes —
/// the quantity plotted as the red line of Fig. 5.
struct ModelFootprint {
  std::size_t im_bytes = 0;
  std::size_t cim_bytes = 0;
  std::size_t am_bytes = 0;
  std::size_t spatial_buffer_bytes = 0;   // one hypervector (L1 scratch)
  std::size_t ngram_buffer_bytes = 0;     // N spatial HVs + 1 N-gram HV
  /// The host spatial encoder's bound-row table (channels x levels rows).
  /// A host-side speedup the paper's PULP layout does not have, so it is
  /// not part of total().
  std::size_t bound_table_bytes = 0;

  /// The paper's §3 model footprint: memories plus encoder buffers.
  std::size_t total() const noexcept {
    return im_bytes + cim_bytes + am_bytes + spatial_buffer_bytes + ngram_buffer_bytes;
  }
};

class HdClassifier {
 public:
  explicit HdClassifier(const ClassifierConfig& config);

  const ClassifierConfig& config() const noexcept { return config_; }

  /// Adjusts the host-thread knob after construction (e.g. for models
  /// rebuilt from a serialized stream, which never carries it).
  void set_threads(std::size_t threads) noexcept { config_.threads = threads; }
  const ItemMemory& im() const noexcept { return spatial_.im(); }
  const ContinuousItemMemory& cim() const noexcept { return spatial_.cim(); }
  const AssociativeMemory& am() const noexcept { return am_; }
  AssociativeMemory& mutable_am() noexcept { return am_; }
  const SpatialEncoder& spatial_encoder() const noexcept { return spatial_; }

  /// Encodes a trial into its sequence of N-gram hypervectors (one per
  /// complete window; empty when the trial is shorter than N).
  std::vector<Hypervector> encode_trial(const Trial& trial) const;

  /// Bundles a trial's N-gram hypervectors into a single query hypervector
  /// — how both prototypes and queries are formed "in an identical way"
  /// (§2.1.1). Throws when the trial is shorter than N samples.
  Hypervector encode_query(const Trial& trial) const;

  /// encode_query on the caller's encoder, without the copy: rebinds
  /// `encoder` (any classifier's make_streaming_encoder) to this model and
  /// returns a view of its storage, valid until that encoder's next push,
  /// configure or rebind. A warm encoder of this model's shape makes the
  /// call allocation-free.
  const Hypervector& encode_query(const Trial& trial, StreamingEncoder& encoder) const;

  /// Accumulates a labeled trial into the AM (each N-gram of the trial is
  /// added to the class accumulator, as in the paper's training).
  void train(const Trial& trial, std::size_t label);

  /// Classifies a trial via its bundled query hypervector.
  AmDecision predict(const Trial& trial) const;

  /// Classifies a single already-encoded query.
  AmDecision predict_encoded(const Hypervector& query) const { return am_.classify(query); }

  /// Encodes many trials to their query hypervectors, spread over
  /// `config().threads` host threads that this call starts and joins, each
  /// with an encoder of its own (encoding dominates the inference cost, and
  /// trials are independent). Result i matches encode_query(trials[i]);
  /// throws when any trial is shorter than N.
  std::vector<Hypervector> encode_trials(std::span<const Trial> trials) const;

  /// Batched classification of many trials: encode_trials, then a serial
  /// AssociativeMemory::classify_batch over the queries. Result i matches
  /// predict(trials[i]) for any thread count.
  std::vector<AmDecision> predict_batch(std::span<const Trial> trials) const;

  /// Batched classification of already-encoded queries, serially.
  std::vector<AmDecision> predict_encoded_batch(std::span<const Hypervector> queries) const {
    return am_.classify_batch(queries);
  }

  /// The seed-derived tie-break row used when bundling a query's N-grams
  /// (even gram counts only) — the one StreamingEncoder must share to stay
  /// bit-identical with encode_query.
  const Hypervector& query_tie_break() const noexcept { return query_tie_break_; }

  /// Builds a streaming session encoder bound to this model's spatial
  /// encoder, N-gram depth, and query tie-break. Its per-window queries are
  /// bit-identical to encode_query over the equivalent buffered slices, so
  /// predict_encoded on them matches predict_batch. The classifier must
  /// outlive the returned encoder (servers pin the model snapshot for the
  /// session's lifetime).
  StreamingEncoder make_streaming_encoder() const {
    return StreamingEncoder(spatial_, config_.ngram, query_tie_break_);
  }

  ModelFootprint footprint() const noexcept;

 private:
  ClassifierConfig config_;
  SpatialEncoder spatial_;  ///< owns the IM and CIM
  AssociativeMemory am_;
  Hypervector query_tie_break_;
};

}  // namespace pulphd::hd
