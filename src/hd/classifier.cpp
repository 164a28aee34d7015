#include "hd/classifier.hpp"

#include <optional>
#include <utility>

#include "common/status.hpp"
#include "common/thread_pool.hpp"

namespace pulphd::hd {

void ClassifierConfig::validate() const {
  require(dim >= 8, "ClassifierConfig: dim must be >= 8");
  require(channels >= 1, "ClassifierConfig: channels must be >= 1");
  require(levels >= 2, "ClassifierConfig: levels must be >= 2");
  require(min_value < max_value, "ClassifierConfig: min_value must be < max_value");
  require(ngram >= 1, "ClassifierConfig: ngram must be >= 1");
  require(classes >= 2, "ClassifierConfig: classes must be >= 2");
}

namespace {
ClassifierConfig validated(ClassifierConfig config) {
  config.validate();
  return config;
}
}  // namespace

HdClassifier::HdClassifier(const ClassifierConfig& config)
    : config_(validated(config)),
      im_(config_.channels, config_.dim, derive_seed(config_.seed, "item-memory")),
      cim_(config_.levels, config_.dim, config_.min_value, config_.max_value,
           derive_seed(config_.seed, "continuous-item-memory")),
      spatial_(im_, cim_, config_.channels),
      am_(config_.classes, config_.dim, derive_seed(config_.seed, "am-tie-break")),
      query_tie_break_(config_.dim) {
  Xoshiro256StarStar rng(derive_seed(config_.seed, "query-tie-break"));
  query_tie_break_ = Hypervector::random(config_.dim, rng);
}

// The copy/move special members rebind spatial_ onto the destination's own
// im_/cim_ (it is a non-owning view). A copy rebuilds
// the spatial encoder's bound-row table from the copied memories; a move
// carries the table over, since the moved memories hold the same items.

HdClassifier::HdClassifier(const HdClassifier& other)
    : config_(other.config_),
      im_(other.im_),
      cim_(other.cim_),
      spatial_(im_, cim_, config_.channels),
      am_(other.am_),
      query_tie_break_(other.query_tie_break_) {}

HdClassifier::HdClassifier(HdClassifier&& other) noexcept
    : config_(std::move(other.config_)),
      im_(std::move(other.im_)),
      cim_(std::move(other.cim_)),
      spatial_(std::move(other.spatial_), im_, cim_),
      am_(std::move(other.am_)),
      query_tie_break_(std::move(other.query_tie_break_)) {}

HdClassifier& HdClassifier::operator=(const HdClassifier& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  im_ = other.im_;
  cim_ = other.cim_;
  spatial_ = SpatialEncoder(im_, cim_, config_.channels);
  am_ = other.am_;
  query_tie_break_ = other.query_tie_break_;
  return *this;
}

HdClassifier& HdClassifier::operator=(HdClassifier&& other) noexcept {
  if (this == &other) return *this;
  config_ = std::move(other.config_);
  im_ = std::move(other.im_);
  cim_ = std::move(other.cim_);
  spatial_ = SpatialEncoder(std::move(other.spatial_), im_, cim_);
  am_ = std::move(other.am_);
  query_tie_break_ = std::move(other.query_tie_break_);
  return *this;
}

namespace {

// One trial encoder per thread, re-pointed at whichever classifier calls
// it. Its chunk, ring and counter buffers survive the re-point while the
// dimension and N-gram depth stay the same, so a steady-state trial encode
// (including every encode_trials shard) is allocation-free apart from its
// results. `emitted` keeps its capacity for the same reason.
struct TrialEncoder {
  std::optional<StreamingEncoder> encoder;
  std::vector<Hypervector> emitted;
};

TrialEncoder& trial_encoder(const SpatialEncoder& spatial, std::size_t n,
                            const Hypervector& tie_break) {
  static thread_local TrialEncoder trial;
  if (trial.encoder) {
    trial.encoder->rebind(spatial, n, tie_break);
  } else {
    trial.encoder.emplace(spatial, n, tie_break);
  }
  trial.emitted.clear();
  return trial;
}

}  // namespace

std::vector<Hypervector> HdClassifier::encode_trial(const Trial& trial) const {
  // Window = n, hop = 1: every window holds exactly one N-gram, and its
  // one-add majority is that N-gram bit for bit.
  StreamingEncoder& encoder = *trial_encoder(spatial_, config_.ngram, query_tie_break_).encoder;
  encoder.configure(config_.ngram, 1);
  std::vector<Hypervector> grams;
  if (trial.size() >= config_.ngram) grams.reserve(trial.size() - config_.ngram + 1);
  encoder.push(trial, grams);
  return grams;
}

Hypervector HdClassifier::encode_query(const Trial& trial) const {
  require(trial.size() >= config_.ngram,
          "HdClassifier::encode_query: trial shorter than N-gram window");
  // Window = hop = trial length: the trial's N-grams bundle into bit-sliced
  // counter planes as they are produced and the one window emits the query,
  // so neither the spatial nor the N-gram sequence is ever materialized.
  TrialEncoder& te = trial_encoder(spatial_, config_.ngram, query_tie_break_);
  te.encoder->configure(trial.size(), trial.size());
  te.encoder->push(trial, te.emitted);
  return std::move(te.emitted.back());
}

void HdClassifier::train(const Trial& trial, std::size_t label) {
  const std::vector<Hypervector> grams = encode_trial(trial);
  require(!grams.empty(), "HdClassifier::train: trial shorter than N-gram window");
  am_.train_batch(label, grams);
}

AmDecision HdClassifier::predict(const Trial& trial) const {
  return am_.classify(encode_query(trial));
}

std::vector<Hypervector> HdClassifier::encode_trials(std::span<const Trial> trials) const {
  std::vector<Hypervector> queries;
  if (resolve_threads(config_.threads) <= 1) {
    // Serial: each query moves straight into the result, so the call
    // allocates the result vector and its hypervectors and nothing else.
    queries.reserve(trials.size());
    for (const Trial& trial : trials) queries.push_back(encode_query(trial));
    return queries;
  }
  queries.assign(trials.size(), Hypervector(config_.dim));
  // Trials encode independently into their own slots; encoding is the
  // dominant inference cost, so this is where the thread knob pays off.
  // Oversubscribe the shard count 4x so trials of uneven length keep every
  // worker busy instead of one long shard serializing the tail (the pool's
  // caller-helps queue hands short shards to whoever frees up first).
  parallel_shards(
      config_.threads, trials.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t t = begin; t < end; ++t) queries[t] = encode_query(trials[t]);
      },
      /*shards_per_thread=*/4);
  return queries;
}

std::vector<AmDecision> HdClassifier::predict_batch(std::span<const Trial> trials) const {
  const std::vector<Hypervector> queries = encode_trials(trials);
  return am_.classify_batch(queries, config_.threads);
}

ModelFootprint HdClassifier::footprint() const noexcept {
  ModelFootprint fp;
  const std::size_t hv_bytes = words_for_dim(config_.dim) * sizeof(Word);
  fp.im_bytes = im_.footprint_bytes();
  fp.cim_bytes = cim_.footprint_bytes();
  fp.am_bytes = am_.footprint_bytes();
  fp.spatial_buffer_bytes = hv_bytes;
  fp.bound_table_bytes = spatial_.table_bytes();
  fp.ngram_buffer_bytes = (config_.ngram + 1) * hv_bytes;
  return fp;
}

}  // namespace pulphd::hd
