// Shared setup for the benchmark harness: the paper's EMG configuration,
// a trained model per (dimension, channels, N), and cycle helpers.
#pragma once

#include <cstdint>
#include <vector>

#include "emg/protocol.hpp"
#include "kernels/chain.hpp"
#include "sim/power.hpp"

namespace pulphd::bench {

/// Trains the paper's HD model from the synthetic EMG dataset (subject 0)
/// at an arbitrary (dim, channels, ngram). For channel counts beyond the
/// dataset's, a matching synthetic dataset is generated on the fly.
inline hd::HdClassifier trained_model(std::size_t dim, std::size_t channels = 4,
                                      std::size_t ngram = 1) {
  hd::ClassifierConfig cfg;
  cfg.dim = dim;
  cfg.channels = channels;
  cfg.ngram = ngram;
  hd::HdClassifier clf(cfg);
  // Train on synthetic level patterns: one trial per class with distinct
  // per-channel levels (the cycle model is data-independent, so bench
  // cycles do not depend on the training content).
  for (std::size_t c = 0; c < cfg.classes; ++c) {
    hd::Trial trial;
    const std::size_t len = std::max<std::size_t>(3, ngram);
    for (std::size_t i = 0; i < len; ++i) {
      hd::Sample s(channels);
      for (std::size_t ch = 0; ch < channels; ++ch) {
        s[ch] = static_cast<float>((3 * c + 5 * ch + i) % 21);
      }
      trial.push_back(std::move(s));
    }
    clf.train(trial, c);
  }
  return clf;
}

/// A classification window of N samples for the chain.
inline std::vector<hd::Sample> bench_window(std::size_t channels, std::size_t ngram) {
  std::vector<hd::Sample> window;
  for (std::size_t i = 0; i < ngram; ++i) {
    hd::Sample s(channels);
    for (std::size_t ch = 0; ch < channels; ++ch) {
      s[ch] = static_cast<float>((7 * ch + 2 * i + 3) % 21);
    }
    window.push_back(std::move(s));
  }
  return window;
}

/// Runs one classification on a cluster and returns the cycle breakdown.
inline kernels::ChainBreakdown run_chain(const sim::ClusterConfig& cluster,
                                         const hd::HdClassifier& model) {
  const kernels::ProcessingChain chain(cluster, model);
  return chain
      .classify(bench_window(model.config().channels, model.config().ngram))
      .cycles;
}

/// Relative delta string for paper-vs-model columns: "+3.1%".
inline std::string delta_pct(double model, double paper) {
  const double d = (model - paper) / paper * 100.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", d);
  return buf;
}

}  // namespace pulphd::bench
