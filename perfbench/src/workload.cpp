#include "workload.hpp"

#include <span>
#include <stdexcept>

#include "common/rng.hpp"
#include "emg/dataset.hpp"
#include "emg/protocol.hpp"
#include "hd/serialization.hpp"
#include "serve/protocol.hpp"

namespace perfbench {
namespace {

using namespace pulphd;

// paper-stream: the paper's operating point, streamed at 500 Hz.
constexpr std::size_t kStreamWindow = 20;  ///< 40 ms of samples per decision
constexpr std::size_t kStreamHop = 5;      ///< one decision per 10 ms
constexpr std::size_t kStreamSubjects = 2;  ///< one connection and one model each
constexpr std::size_t kStreamDepth = 8;

// bulk-text / bulk-binary: a dense 32-channel array, many trials a request.
constexpr std::size_t kBulkChannels = 32;
constexpr std::size_t kBulkTrials = 32;    ///< trials per request
constexpr std::size_t kBulkSamples = 20;   ///< samples per trial
constexpr std::size_t kBulkRequests = 128;  ///< distinct requests per pass
constexpr std::size_t kBulkConnections = 2;
constexpr std::size_t kBulkDepth = 4;

/// Independent seed-determined streams for the request samplers.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.next();
}

/// Trains a model on the training repetitions of `subject`, saves it as
/// `name` under `dir` and returns it as re-loaded from that file.
hd::HdClassifier train_and_save(const emg::EmgDataset& ds, std::size_t subject,
                                hd::ClassifierConfig cfg, const std::string& name,
                                const std::string& dir, Workload& w) {
  const emg::ProtocolConfig protocol;
  hd::HdClassifier clf(cfg);
  for (const emg::EmgTrial* trial : ds.split(subject, protocol.train_fraction).train) {
    clf.train(emg::active_segment(trial->envelope, protocol), trial->label);
  }
  const std::string path = dir + "/" + name + ".phd";
  hd::save_model_file(clf, path, name);
  w.models.push_back({name, path});
  return hd::classifier_from_model(hd::load_model_file(path));
}

/// Held-out trials of `subject`: every repetition the model did not train on.
std::vector<const emg::EmgTrial*> held_out(const emg::EmgDataset& ds, std::size_t subject) {
  const emg::ProtocolConfig protocol;
  const emg::EmgDataset::Split split = ds.split(subject, protocol.train_fraction);
  std::vector<const emg::EmgTrial*> out;
  for (const emg::EmgTrial* trial : split.test) {
    bool trained = false;
    for (const emg::EmgTrial* t : split.train) trained = trained || t == trial;
    if (!trained) out.push_back(trial);
  }
  return out;
}

Workload paper_stream(std::uint64_t seed, const std::string& dir) {
  Workload w;
  w.name = "paper-stream";
  w.depth = kStreamDepth;
  w.samples_per_request = kStreamHop;
  w.queries_per_request = 1;

  emg::GeneratorConfig gen;
  gen.subjects = kStreamSubjects;
  const emg::EmgDataset ds = emg::generate_dataset(gen);

  const serve::ResponseEncoder encoder(serve::Wire::kBinary);
  emg::ProtocolConfig full_rate;  // the active segment at the full 500 Hz
  full_rate.hd_sample_stride = 1;
  for (std::size_t s = 0; s < kStreamSubjects; ++s) {
    const hd::ClassifierConfig cfg;  // D = 10,000, 4 channels, 22 levels, N = 1, 5 classes
    const std::string name = std::string("s").append(std::to_string(s));
    hd::HdClassifier model = train_and_save(ds, s, cfg, name, dir, w);
    model.set_threads(0);  // oracle only: bit-identical for any thread count
    w.channels = cfg.channels;
    w.dim = cfg.dim;

    // The subject's held-out recording: active segments back to back in a
    // seed-drawn order, each sample labelled with its trial's gesture.
    std::vector<const emg::EmgTrial*> trials = held_out(ds, s);
    Xoshiro256StarStar rng(derive(seed, s));
    for (std::size_t i = trials.size(); i > 1; --i) {
      std::swap(trials[i - 1], trials[rng.next_below(i)]);
    }
    hd::Trial recording;
    std::vector<std::size_t> labels;
    for (const emg::EmgTrial* trial : trials) {
      const hd::Trial segment = emg::active_segment(trial->envelope, full_rate);
      recording.insert(recording.end(), segment.begin(), segment.end());
      labels.insert(labels.end(), segment.size(), trial->label);
    }
    const std::size_t windows = (recording.size() - kStreamWindow) / kStreamHop + 1;
    std::vector<hd::Trial> slices(windows);
    for (std::size_t k = 0; k < windows; ++k) {
      const auto first = recording.begin() + static_cast<std::ptrdiff_t>(k * kStreamHop);
      slices[k].assign(first, first + static_cast<std::ptrdiff_t>(kStreamWindow));
    }
    const std::vector<hd::AmDecision> oracle = model.predict_batch(slices);

    // open, a prefill push that completes no window, one hop push per
    // window (each answered with exactly that window), close.
    Script script;
    script.preamble = std::string(serve::kBinaryMagic);
    const std::span<const hd::Sample> samples(recording);
    script.requests.push_back(
        {serve::format_binary_stream_open_request(name, kStreamWindow, kStreamHop),
         encoder.stream_opened(name, kStreamWindow, kStreamHop), 0, 0});
    script.requests.push_back(
        {serve::format_binary_stream_push_request(samples.first(kStreamWindow - kStreamHop)),
         encoder.stream_windows(0, {}), 0, 0});
    for (std::size_t k = 0; k < windows; ++k) {
      const std::size_t end = k * kStreamHop + kStreamWindow;  // one past the window
      const bool correct = oracle[k].label == labels[end - 1];
      script.requests.push_back(
          {serve::format_binary_stream_push_request(samples.subspan(end - kStreamHop, kStreamHop)),
           encoder.stream_windows(k, std::span<const hd::AmDecision>(&oracle[k], 1)), 1,
           correct ? 1u : 0u});
    }
    script.requests.push_back({serve::format_binary_command(serve::kFrameStreamClose),
                               encoder.stream_closed(windows), 0, 0});
    w.scripts.push_back(std::move(script));
  }
  return w;
}

Workload bulk(bool binary, std::uint64_t seed, const std::string& dir) {
  Workload w;
  w.name = binary ? "bulk-binary" : "bulk-text";
  w.depth = kBulkDepth;
  w.samples_per_request = kBulkTrials * kBulkSamples;
  w.queries_per_request = kBulkTrials;

  emg::GeneratorConfig gen;
  gen.subjects = 1;
  gen.channels = kBulkChannels;
  const emg::EmgDataset ds = emg::generate_dataset(gen);

  hd::ClassifierConfig cfg;
  cfg.dim = 256;
  cfg.channels = kBulkChannels;
  cfg.levels = 8;
  cfg.max_value = gen.max_amplitude_mv;
  cfg.ngram = 3;
  const std::string name = "emg32";
  hd::HdClassifier model = train_and_save(ds, 0, cfg, name, dir, w);
  model.set_threads(0);
  w.channels = cfg.channels;
  w.dim = cfg.dim;

  // Each request: 32 trials, each 20 consecutive samples of the protocol's
  // active segment of a random held-out trial, at a random offset.
  const emg::ProtocolConfig protocol;
  std::vector<hd::Trial> segments;
  std::vector<std::size_t> segment_labels;
  for (const emg::EmgTrial* trial : held_out(ds, 0)) {
    segments.push_back(emg::active_segment(trial->envelope, protocol));
    segment_labels.push_back(trial->label);
  }
  Xoshiro256StarStar rng(derive(seed, 0));
  const serve::ResponseEncoder encoder(binary ? serve::Wire::kBinary : serve::Wire::kText);
  w.scripts.resize(kBulkConnections);
  for (Script& script : w.scripts) {
    if (binary) script.preamble = std::string(serve::kBinaryMagic);
  }
  for (std::size_t r = 0; r < kBulkRequests; ++r) {
    std::vector<hd::Trial> trials(kBulkTrials);
    std::vector<std::size_t> labels(kBulkTrials);
    for (std::size_t t = 0; t < kBulkTrials; ++t) {
      const std::size_t pick = rng.next_below(segments.size());
      const hd::Trial& segment = segments[pick];
      const std::size_t offset = rng.next_below(segment.size() - kBulkSamples + 1);
      const auto first = segment.begin() + static_cast<std::ptrdiff_t>(offset);
      trials[t].assign(first, first + static_cast<std::ptrdiff_t>(kBulkSamples));
      labels[t] = segment_labels[pick];
    }
    const std::vector<hd::AmDecision> oracle = model.predict_batch(trials);
    std::size_t correct = 0;
    for (std::size_t t = 0; t < kBulkTrials; ++t) correct += oracle[t].label == labels[t] ? 1 : 0;
    w.scripts[r % kBulkConnections].requests.push_back(
        {binary ? serve::format_binary_classify_request(name, trials)
                : serve::format_classify_request(name, trials),
         encoder.classify(name, oracle), kBulkTrials, correct});
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-stream", "bulk-text", "bulk-binary"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, const std::string& dir) {
  Workload w;
  if (name == "paper-stream") {
    w = paper_stream(seed, dir);
  } else if (name == "bulk-text" || name == "bulk-binary") {
    w = bulk(name == "bulk-binary", seed, dir);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  for (const Script& script : w.scripts) {
    for (const WireRequest& request : script.requests) {
      if (request.decisions == 0) continue;
      ++w.pass_requests;
      w.pass_decisions += request.decisions;
      w.pass_correct += request.correct;
    }
  }
  return w;
}

}  // namespace perfbench
