#include "hd/classifier.hpp"

#include <utility>

#include "common/status.hpp"
#include "common/parallel.hpp"
#include "kernels/backend.hpp"

namespace pulphd::hd {

void ClassifierConfig::validate() const {
  require(dim >= 8, "ClassifierConfig: dim must be >= 8");
  require(channels >= 1, "ClassifierConfig: channels must be >= 1");
  require(channels <= kernels::kMaxEncodeChannels, "ClassifierConfig: channels must be <= 4096");
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
      spatial_(ItemMemory(config_.channels, config_.dim, derive_seed(config_.seed, "item-memory")),
               ContinuousItemMemory(config_.levels, config_.dim, config_.min_value,
                                    config_.max_value,
                                    derive_seed(config_.seed, "continuous-item-memory")),
               config_.channels),
      am_(config_.classes, config_.dim, derive_seed(config_.seed, "am-tie-break")),
      query_tie_break_(config_.dim) {
  Xoshiro256StarStar rng(derive_seed(config_.seed, "query-tie-break"));
  query_tie_break_ = Hypervector::random(config_.dim, rng);
}

std::vector<Hypervector> HdClassifier::encode_trial(const Trial& trial) const {
  // Window = n, hop = 1: every window holds exactly one N-gram, and its
  // one-add majority is that N-gram bit for bit.
  StreamingEncoder encoder = make_streaming_encoder();
  encoder.configure(config_.ngram, 1);
  std::vector<Hypervector> grams;
  if (trial.size() >= config_.ngram) grams.reserve(trial.size() - config_.ngram + 1);
  encoder.push(trial, grams);
  return grams;
}

Hypervector HdClassifier::encode_query(const Trial& trial) const {
  StreamingEncoder encoder = make_streaming_encoder();
  return encode_query(trial, encoder);
}

const Hypervector& HdClassifier::encode_query(const Trial& trial, StreamingEncoder& encoder) const {
  require(trial.size() >= config_.ngram,
          "HdClassifier::encode_query: trial shorter than N-gram window");
  // Window = hop = trial length: the trial's N-grams bundle into bit-sliced
  // counter planes as they are produced and the one window emits the query,
  // so neither the spatial nor the N-gram sequence is ever materialized.
  encoder.rebind(spatial_, config_.ngram, query_tie_break_);
  encoder.configure(trial.size(), trial.size());
  const Hypervector* query = nullptr;
  encoder.push(trial, [&query](const Hypervector& window) { query = &window; });
  return *query;
}

void HdClassifier::train(const Trial& trial, std::size_t label) {
  const std::vector<Hypervector> grams = encode_trial(trial);
  require(!grams.empty(), "HdClassifier::train: trial shorter than N-gram window");
  am_.train_batch(label, grams);
}

AmDecision HdClassifier::predict(const Trial& trial) const {
  StreamingEncoder encoder = make_streaming_encoder();
  return am_.classify(encode_query(trial, encoder));
}

std::vector<Hypervector> HdClassifier::encode_trials(std::span<const Trial> trials) const {
  std::vector<Hypervector> queries;
  if (resolve_threads(config_.threads) <= 1) {
    // Serial: one encoder for the whole batch, so past its buffers the call
    // allocates the result vector and one hypervector per trial.
    StreamingEncoder encoder = make_streaming_encoder();
    queries.reserve(trials.size());
    for (const Trial& trial : trials) queries.push_back(encode_query(trial, encoder));
    return queries;
  }
  queries.assign(trials.size(), Hypervector(config_.dim));
  // Trials encode independently into their own slots, each helper on an
  // encoder of its own; encoding is the dominant inference cost, so this is
  // the one place a batch forks.
  parallel_shards(config_.threads, trials.size(), [&](std::size_t begin, std::size_t end) {
    StreamingEncoder encoder = make_streaming_encoder();
    for (std::size_t t = begin; t < end; ++t) queries[t] = encode_query(trials[t], encoder);
  });
  return queries;
}

std::vector<AmDecision> HdClassifier::predict_batch(std::span<const Trial> trials) const {
  return am_.classify_batch(encode_trials(trials));
}

ModelFootprint HdClassifier::footprint() const noexcept {
  ModelFootprint fp;
  const std::size_t hv_bytes = words_for_dim(config_.dim) * sizeof(Word);
  fp.im_bytes = im().footprint_bytes();
  fp.cim_bytes = cim().footprint_bytes();
  fp.am_bytes = am_.footprint_bytes();
  fp.spatial_buffer_bytes = hv_bytes;
  fp.bound_table_bytes = spatial_.table_bytes();
  fp.ngram_buffer_bytes = (config_.ngram + 1) * hv_bytes;
  return fp;
}

}  // namespace pulphd::hd
